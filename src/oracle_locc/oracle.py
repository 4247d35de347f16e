"""Oracle operators for classical functions between cyclic registers.

A function f from Z_M to Z_N is stored as an explicit lookup table.  Its
oracle acts on a control register (dimension M) and a target register
(dimension N) as |x>|y> -> |x>|y + f(x) mod N>.  The central structural
object is the partition of the domain into level sets of f: everything
from the operator Schmidt decomposition to the classical capacities of
the oracle is a function of the level-set sizes alone.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .quantum import StateVector, _Owned

MAX_DENSE_ORACLE_DIM = 4096


@dataclass(frozen=True, eq=False)
class FunctionTable:
    """Total function f: Z_M -> Z_N given by its value table."""

    M: int
    N: int
    table: tuple[int, ...]

    def __post_init__(self):
        M = int(self.M)
        N = int(self.N)
        if M < 1 or N < 1:
            raise ValueError("M and N must be positive")
        table = tuple(int(v) for v in self.table)
        if len(table) != M:
            raise ValueError(f"table has {len(table)} entries, expected M={M}")
        for x, v in enumerate(table):
            if not 0 <= v < N:
                raise ValueError(f"f({x}) = {v} is outside the codomain 0..{N - 1}")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "table", table)

    def __call__(self, x: int) -> int:
        return self.table[x]

    def is_permutation(self) -> bool:
        return self.M == self.N and len(set(self.table)) == self.M

    def to_json_dict(self) -> dict[str, Any]:
        return {"M": self.M, "N": self.N, "table": list(self.table)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "FunctionTable":
        """Parse the external {"M", "N", "table"} form, rejecting anything else."""
        if not isinstance(data, Mapping):
            raise ValueError("function table must be a JSON object")
        keys = set(data.keys())
        if keys != {"M", "N", "table"}:
            raise ValueError(f'function table keys must be exactly {{"M", "N", "table"}}, got {sorted(keys)}')
        M, N, table = data["M"], data["N"], data["table"]
        if not isinstance(M, int) or isinstance(M, bool):
            raise ValueError("M must be an integer")
        if not isinstance(N, int) or isinstance(N, bool):
            raise ValueError("N must be an integer")
        if not isinstance(table, list) or any(
            not isinstance(v, int) or isinstance(v, bool) for v in table
        ):
            raise ValueError("table must be a list of integers")
        return cls(M, N, tuple(table))

    @classmethod
    def from_json(cls, text: str) -> "FunctionTable":
        return cls.from_json_dict(json.loads(text))

    def sha256(self) -> str:
        """Digest of the canonical JSON form, used to cross-check endpoints."""
        canonical = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def identity_table(M: int) -> FunctionTable:
    return FunctionTable(M, M, tuple(range(M)))


def constant_table(M: int, N: int, value: int = 0) -> FunctionTable:
    return FunctionTable(M, N, (value,) * M)


@dataclass(frozen=True, eq=False)
class Partition:
    """Level-set structure of a function table.

    values holds the distinct outputs in ascending order; sizes[j] is the
    number of inputs mapped to values[j] and reps[j] the smallest of them.
    level is a read-only index array over the domain: level[x] is the j with
    f(x) = values[j], so the level set of values[j] is np.flatnonzero(level == j).
    """

    n_values: int
    values: tuple[int, ...]
    sizes: tuple[int, ...]
    reps: tuple[int, ...]
    level: np.ndarray


# One Partition per FunctionTable object.  Both are immutable, so sharing is
# safe; the keys are weak, so the cache keeps no table alive.
_PARTITIONS: "weakref.WeakKeyDictionary[FunctionTable, Partition]" = weakref.WeakKeyDictionary()


def build_partition(f: FunctionTable) -> Partition:
    """The level sets of f, built once per table object and then cached."""
    partition = _PARTITIONS.get(f)
    if partition is None:
        values, reps, level, sizes = np.unique(
            f.table, return_index=True, return_inverse=True, return_counts=True)
        level.setflags(write=False)
        partition = Partition(len(values), tuple(values.tolist()), tuple(sizes.tolist()),
                              tuple(reps.tolist()), level)
        _PARTITIONS[f] = partition
    return partition


def apply_oracle(
    f: FunctionTable, state: StateVector, control: str = "A", target: str = "B"
) -> StateVector:
    """Apply |x>|y> -> |x>|y + f(x) mod N> without building the full matrix.

    One gather along the target axis: the output at (x, y) reads the input
    at (x, y - f(x) mod N).  The control and target may sit on any axes.
    """
    c_axis = state.axis(control)
    t_axis = state.axis(target)
    if state.dims[c_axis] != f.M:
        raise ValueError(f"control register has dimension {state.dims[c_axis]}, expected M={f.M}")
    if state.dims[t_axis] != f.N:
        raise ValueError(f"target register has dimension {state.dims[t_axis]}, expected N={f.N}")
    source = (np.arange(f.N)[None, :] - np.array(f.table)[:, None]) % f.N  # [x, y]
    if c_axis > t_axis:
        source = source.T
    shape = [1] * len(state.dims)
    shape[c_axis], shape[t_axis] = f.M, f.N
    psi = np.take_along_axis(state.tensor_view(), source.reshape(shape), axis=t_axis)
    return StateVector(state.dims, state.labels, _Owned(psi.reshape(-1)))


def oracle_matrix(f: FunctionTable) -> np.ndarray:
    """Dense MN x MN permutation matrix of the oracle, control-major ordering."""
    dim = f.M * f.N
    if dim > MAX_DENSE_ORACLE_DIM:
        raise ValueError(f"dense oracle of dimension {dim} exceeds cap {MAX_DENSE_ORACLE_DIM}")
    U = np.zeros((dim, dim), dtype=np.complex128)
    # apply_oracle's gather: row (x, y) reads column (x, y - f(x) mod N).
    x, y = np.divmod(np.arange(dim), f.N)
    U[np.arange(dim), x * f.N + (y - np.array(f.table)[x]) % f.N] = 1.0
    return U


def phase_states(N: int) -> np.ndarray:
    """Discrete phase basis as rows: states[n, y] = exp(2*pi*i*n*y/N)/sqrt(N)."""
    if N < 1:
        raise ValueError("N must be positive")
    n = np.arange(N).reshape(-1, 1)
    y = np.arange(N).reshape(1, -1)
    return np.exp(2j * np.pi * n * y / N) / np.sqrt(N)


def phase_exponential(N: int, c: float) -> np.ndarray:
    """exp(-i*c*Phase) built spectrally from the phase eigenbasis.

    For integer c this cyclically shifts the computational basis by c, which
    is the content of the shift identity verified in the tests; the spectral
    construction is used here so that identity stays an independent check.
    """
    states = phase_states(N)
    eigenphases = np.exp(-2j * np.pi * np.arange(N) * c / N)
    return (states.T * eigenphases) @ states.conj()


def class_projectors(f: FunctionTable) -> list[np.ndarray]:
    """Orthogonal projectors onto the level sets of f, resolving the identity on Z_M."""
    partition = build_partition(f)
    x = np.arange(f.M)
    projectors = np.zeros((partition.n_values, f.M, f.M), dtype=np.complex128)
    projectors[partition.level, x, x] = 1.0
    return list(projectors)


@dataclass(frozen=True, eq=False)
class SchmidtTerm:
    """One term of an operator Schmidt decomposition: coefficient * (A op) x (B op)."""

    coefficient: float
    control_op: np.ndarray
    target_op: np.ndarray


@dataclass(frozen=True, eq=False)
class OracleSchmidtForm:
    """Closed-form operator Schmidt decomposition of an oracle.

    The control-side operators are normalized level-set projectors and the
    target-side operators are normalized phase exponentials; both families
    are orthonormal under the Hilbert-Schmidt inner product, so the number
    of terms equals the operator Schmidt rank.
    """

    f: FunctionTable
    partition: Partition
    terms: tuple[SchmidtTerm, ...]

    @property
    def rank(self) -> int:
        return len(self.terms)

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([t.coefficient for t in self.terms])

    def reconstruct(self) -> np.ndarray:
        """Sum the terms back into the dense oracle matrix."""
        dim = self.f.M * self.f.N
        U = np.zeros((dim, dim), dtype=np.complex128)
        for t in self.terms:
            U += t.coefficient * np.kron(t.control_op, t.target_op)
        return U


def schmidt_decompose_oracle(f: FunctionTable) -> OracleSchmidtForm:
    """Exact operator Schmidt form of the oracle of f.

    Term j carries coefficient sqrt(N * K_j) where K_j is the size of the
    j-th level set, pairing the projector onto that set (scaled by
    1/sqrt(K_j)) with the phase exponential of the set's common value
    (scaled by 1/sqrt(N)).
    """
    partition = build_partition(f)
    projectors = class_projectors(f)
    terms = []
    for j in range(partition.n_values):
        K = partition.sizes[j]
        coefficient = float(np.sqrt(f.N * K))
        control_op = projectors[j] / np.sqrt(K)
        target_op = phase_exponential(f.N, partition.values[j]) / np.sqrt(f.N)
        control_op.setflags(write=False)
        target_op.setflags(write=False)
        terms.append(SchmidtTerm(coefficient, control_op, target_op))
    return OracleSchmidtForm(f, partition, tuple(terms))


def minimal_oracle(f: FunctionTable) -> np.ndarray:
    """In-place oracle |x> -> |f(x)> on a single register.

    Only defined when f is invertible; otherwise the map is not unitary.
    """
    if not f.is_permutation():
        raise ValueError("minimal oracle requires a permutation")
    Q = np.zeros((f.M, f.M), dtype=np.complex128)
    Q[list(f.table), np.arange(f.M)] = 1.0
    return Q


def check_local_equivalence(f: FunctionTable) -> float:
    """Max deviation between the oracle of f and its minimal-oracle dressing.

    For a permutation f, conjugating the identity-function oracle by the
    minimal oracle on the control register reproduces the oracle of f:

        U_f = (Q^dagger x I) U_id (Q x I)

    Returns the max-abs entrywise difference between both sides.
    """
    Q = minimal_oracle(f)
    U_id = oracle_matrix(identity_table(f.M))
    eye = np.eye(f.N, dtype=np.complex128)
    dressed = np.kron(Q.conj().T, eye) @ U_id @ np.kron(Q, eye)
    return float(np.max(np.abs(oracle_matrix(f) - dressed)))


def all_function_tables(max_m: int, max_n: int):
    """Yield every function table with 1 <= M <= max_m and 1 <= N <= max_n."""
    for M in range(1, max_m + 1):
        for N in range(1, max_n + 1):
            for flat in range(N**M):
                table = []
                k = flat
                for _ in range(M):
                    table.append(k % N)
                    k //= N
                yield FunctionTable(M, N, tuple(table))


def all_permutations(max_m: int):
    """Yield every permutation table with 1 <= M <= max_m."""
    from itertools import permutations

    for M in range(1, max_m + 1):
        for perm in permutations(range(M)):
            yield FunctionTable(M, M, perm)
