"""Dense state-vector simulation of small multipartite quantum systems.

Subsystems are identified by string labels.  Basis ordering is row-major
with the leftmost subsystem most significant, i.e. for dims (d0, d1, ...)
the flat index of basis state |k0, k1, ...> is k0*d1*d2*... + k1*d2*... + ...

All operations are pure: inputs are never mutated and amplitude arrays are
frozen, so values can safely be shared between threads.  An array a caller
hands to StateVector is copied; one wrapped in _Owned by the package code
that has just made it, or the frozen amplitudes of another state, is kept as
it is.

Each state primitive reads the amplitudes once, as a contiguous
(pre, block, post) array whose middle axis merges the subsystems it acts
on; a layout where those are not adjacent and in order is transposed into
one where they are first.  A KeyedState holds a state whose last digit is a
function of its leading (row) subsystems: a key per row and, through an
index per row, an amplitude row, which rows may share.  A dense operator on
the key stays a factor of the keyed state until the key is measured.  Each
primitive that takes a keyed state gives its dense form's bits, except on
one with a factor: its key's outcome weights are |U|^2 @ (each key's row
weights), a sum in another order than the dense form's, and its slice rounds
one product per amplitude where the dense form's matmul also sums zeros.
That is a contract between the two forms, not across versions, which may
reorder a sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import prod, sqrt
from typing import Iterable, Sequence

import numpy as np

UNITARY_TOL = 1e-10
ENTROPY_EIGENVALUE_CUTOFF = 1e-14
SCHMIDT_RANK_REL_CUTOFF = 1e-10
# Columns (one per basis state of the traced subsystems) that partial_trace
# sums per chunk; this bounds the conjugated copy it makes.
_TRACE_CHUNK = 4096


class _Owned:
    """Amplitudes no caller holds a writable reference to: StateVector keeps them uncopied."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _frozen(values, size: int | None = None, dtype=np.complex128) -> np.ndarray:
    if isinstance(values, _Owned):
        arr = values.array.reshape(-1)
    else:
        arr = np.array(values, dtype=dtype).reshape(-1)
    if size is not None and arr.size != size:
        raise ValueError(f"amplitude vector has length {arr.size}, expected {size}")
    arr.setflags(write=False)
    return arr


def _check_normalized(amps: np.ndarray, at: np.ndarray | None = None) -> None:
    """Raise unless |amps|^2 is 1 within 1e-9; if at is given, that of the rows amps[at] of a 2-D amps."""
    if at is None:
        norm2 = float(np.vdot(amps, amps).real)
    else:
        real = amps.view(np.float64)
        norm2 = float(np.einsum("ij,ij->i", real, real)[at].sum())
    if not abs(norm2 - 1.0) <= 1e-9:  # written so that NaN fails too
        raise ValueError(f"state is not normalized: |amps|^2 = {norm2}")


# Each layout checked so far, (dims, labels) as ints and strs, keyed by itself.  A pair
# given equal to a key converts to it (a label equal to a str is that str, a dimension
# equal to an int has that int), so a state of a known layout builds no new tuples.
_LAYOUTS: dict[tuple, tuple[tuple[int, ...], tuple[str, ...]]] = {}


@dataclass(frozen=True, eq=False)
class _Layout:
    """An ordered list of labelled subsystems, the part StateVector and KeyedState share."""

    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        try:
            layout = _LAYOUTS.get((self.dims, self.labels))
        except TypeError:  # unhashable, such as a list
            layout = None
        if layout is None:
            layout = dims, labels = tuple(map(int, self.dims)), tuple(map(str, self.labels))
            if len(dims) != len(labels):
                raise ValueError("dims and labels must have equal length")
            if min(dims, default=1) < 1:
                raise ValueError("subsystem dimensions must be >= 1")
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate subsystem labels in {labels}")
            if len(_LAYOUTS) < 1024:
                _LAYOUTS[layout] = layout
        object.__setattr__(self, "dims", layout[0])
        object.__setattr__(self, "labels", layout[1])

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown subsystem label {label!r}; have {self.labels}") from None

    def dim_of(self, label: str) -> int:
        return self.dims[self.axis(label)]

    def __repr__(self):
        parts = ", ".join(f"{x}:{d}" for x, d in zip(self.labels, self.dims))
        return f"{type(self).__name__}({parts})"


@dataclass(frozen=True, eq=False, repr=False)
class StateVector(_Layout):
    """Normalized pure state over an ordered list of labelled subsystems."""

    amps: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        amps = _frozen(self.amps, prod(self.dims))
        _check_normalized(amps)
        object.__setattr__(self, "amps", amps)

    def tensor_view(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem (read-only view)."""
        return self.amps.reshape(self.dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def overlap(self, other: "StateVector") -> complex:
        if self.dims != other.dims or self.labels != other.labels:
            raise ValueError("overlap requires identical subsystem layout")
        return complex(np.vdot(self.amps, other.amps))


@dataclass(frozen=True, eq=False, repr=False)
class KeyedState(_Layout):
    """Normalized pure state whose last subsystem's digit is a function of its first `rows` subsystems.

    R merges the first rows subsystems and L those between them and the
    last, the key.  amps has shape (S, L), and row i reads the amplitude row
    at[i], so rows may share one; at defaults to one row each, range(R).
    The amplitude of |row, m, key[row]> is amps[at[row], m] and every other
    amplitude is zero, unless factor, a LocalOperator U on the key, is
    given: then the amplitude of |row, m, s> is amps[at[row], m] * U[s,
    key[row]].  apply_local (see _apply_keyed for the operators it takes),
    measurement_probabilities, collapse and measure_computational take a
    state without factor; one with factor is only measured on its key.
    """

    rows: int
    key: np.ndarray
    amps: np.ndarray
    at: np.ndarray | None = None
    factor: LocalOperator | None = None

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.rows < len(self.dims):
            raise ValueError(f"rows must leave the last subsystem as the key, got {self.rows}")
        R, L, K = prod(self.dims[: self.rows]), prod(self.dims[self.rows : -1]), self.dims[-1]
        key = _indices(self.key, R, K, "keys")
        given = self.at.array if isinstance(self.at, _Owned) else self.at
        if given is None or given is _rows(R):  # one amplitude row each, in order
            at, amps = _rows(R), _frozen(self.amps, R * L).reshape(R, L)
            _check_normalized(amps)
        else:
            amps = _frozen(self.amps)
            if amps.size % L or not amps.size:
                raise ValueError(f"amplitude vector has length {amps.size}, not a multiple of {L} > 0")
            amps = amps.reshape(-1, L)
            at = _indices(self.at, R, len(amps), "at")
            _check_normalized(amps, at)
        factor = self.factor
        if factor is not None and not (isinstance(factor, LocalOperator) and factor.dim == K):
            raise ValueError(f"factor must be a LocalOperator of dimension {K}, the key's")
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "at", at)
        object.__setattr__(self, "amps", amps)


_FACTORED = "a KeyedState with a factor on its key is only measured on its key"


@lru_cache(maxsize=16)
def _rows(count: int) -> np.ndarray:
    """range(count), frozen: the at of every KeyedState of count rows that share no amplitude row."""
    at = np.arange(count)
    at.setflags(write=False)
    return at


def _indices(values, count: int, bound: int, name: str) -> np.ndarray:
    """values as a frozen np.intp vector of count integers in [0, bound), or ValueError."""
    given = values.array if isinstance(values, _Owned) else np.asarray(values)
    if given.dtype.kind not in "iu":  # the cast to np.intp would truncate 2.7 to 2
        raise ValueError(f"{name} must be integers, not {given.dtype}")
    index = _frozen(values, dtype=np.intp)
    # As unsigned, a negative index exceeds any bound, so one max checks both ends.
    if index.size != count or index.view(np.uintp).max() >= bound:
        raise ValueError(f"{name} must be {count} integers in [0, {bound}), one per row")
    return index


def basis_state(
    dims: Sequence[int],
    labels: Sequence[str],
    indices: Sequence[int] | int,
) -> StateVector:
    """Computational basis state |k0, k1, ...> (or flat index if an int)."""
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if isinstance(indices, (int, np.integer)):
        flat = int(indices)
    else:
        indices = tuple(int(k) for k in indices)
        if len(indices) != len(dims):
            raise ValueError("one basis index per subsystem required")
        for k, d in zip(indices, dims):
            if not 0 <= k < d:
                raise ValueError(f"basis index {k} out of range for dimension {d}")
        flat = int(np.ravel_multi_index(indices, dims)) if dims else 0
    if not 0 <= flat < total:
        raise ValueError(f"flat index {flat} out of range for total dimension {total}")
    amps = np.zeros(total, dtype=np.complex128)
    amps[flat] = 1.0
    return StateVector(dims, tuple(labels), _Owned(amps))


def from_amps(
    dims: Sequence[int],
    labels: Sequence[str],
    amps,
    normalize: bool = False,
) -> StateVector:
    """Wrap an explicit amplitude vector, optionally normalizing it first."""
    arr = np.asarray(amps, dtype=np.complex128).reshape(-1)
    if normalize:
        n = np.linalg.norm(arr)
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        arr = _Owned(arr / n)
    return StateVector(tuple(dims), tuple(labels), arr)


def random_state(
    dims: Sequence[int],
    labels: Sequence[str],
    rng: np.random.Generator | int,
) -> StateVector:
    """Normalized state with i.i.d. complex Gaussian amplitudes."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    total = int(np.prod(tuple(dims)))
    amps = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return from_amps(dims, labels, amps, normalize=True)


def tensor(parts: Sequence[StateVector]) -> StateVector:
    """Kronecker product of states in the given order; labels must be disjoint."""
    if not parts:
        raise ValueError("tensor of zero states is undefined")
    seen: set[str] = set()
    for p in parts:
        clash = seen.intersection(p.labels)
        if clash:
            raise ValueError(f"duplicate subsystem labels across parts: {sorted(clash)}")
        seen.update(p.labels)
    amps = parts[0].amps
    for p in parts[1:]:
        amps = np.kron(amps, p.amps)
    dims = tuple(d for p in parts for d in p.dims)
    labels = tuple(x for p in parts for x in p.labels)
    return StateVector(dims, labels, _Owned(amps))


def reorder(state: StateVector, labels: Sequence[str]) -> StateVector:
    """Permute subsystems into the given label order."""
    labels = tuple(labels)
    if labels == state.labels:
        return state  # states are immutable, so the same order needs no new one
    if sorted(labels) != sorted(state.labels):
        raise ValueError(f"reorder must permute existing labels {state.labels}, got {labels}")
    perm = [state.axis(x) for x in labels]
    amps = np.transpose(state.tensor_view(), perm).reshape(-1)
    dims = tuple(state.dims[i] for i in perm)
    return StateVector(dims, labels, _Owned(amps))


def _grouped(state: StateVector, axes: Sequence[int]) -> tuple[np.ndarray, tuple[int, ...] | None]:
    """The amplitudes as a contiguous (pre, block, post) array, block merging `axes` in order.

    When the axes are adjacent and ascending this is a view of the frozen
    amplitudes and the second result is None.  Otherwise the axes are first
    transposed to the front, which copies, and the axis order used is
    returned so that _ungrouped can undo it.
    """
    axes = tuple(axes)
    block = prod(state.dims[i] for i in axes)
    first = axes[0]
    if axes == tuple(range(first, first + len(axes))):
        return state.amps.reshape(prod(state.dims[:first]), block, -1), None
    order = axes + tuple(i for i in range(len(state.dims)) if i not in axes)
    return state.tensor_view().transpose(order).reshape(1, block, -1), order


def _ungrouped(psi3: np.ndarray, dims: tuple[int, ...], order: tuple[int, ...] | None) -> np.ndarray:
    """Flat amplitudes in the layout `dims` from a (pre, block, post) array made by _grouped."""
    if order is None:
        return psi3.reshape(-1)
    moved = psi3.reshape(tuple(dims[i] for i in order))
    return moved.transpose(np.argsort(order)).reshape(-1)


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """Operator acting on one subsystem or an ordered pair of subsystems.

    The operator is indexed row-major over the target dims in the order
    given.  It is given either as a dense matrix, unitary within
    UNITARY_TOL and applied by a matmul, or as a monomial unitary (a
    permutation times phases) by source and phases alone, matrix[i,
    source[i]] being phases[i], and applied by a gather.  source must be a
    permutation and each phase of modulus 1 within UNITARY_TOL.  A dense
    matrix stays dense whatever its entries; the matrix of an operator
    given by source and phases is built only when it is first read.
    """

    target: str | tuple[str, str]
    dense: np.ndarray | None = field(default=None, repr=False)
    source: np.ndarray | None = field(default=None, repr=False)
    phases: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.source is None:
            mat = np.array(self.dense, dtype=np.complex128)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"operator matrix must be square, got shape {mat.shape}")
            mat.setflags(write=False)
            object.__setattr__(self, "dense", mat)
            dev = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
            if not dev <= UNITARY_TOL:  # written so that NaN fails too
                raise ValueError(f"operator is not unitary (max deviation {dev:.3e})")
        else:
            if self.dense is not None:
                raise ValueError("an operator given by source and phases takes no matrix")
            source = np.array(self.source, dtype=np.intp)
            phases = np.array(self.phases, dtype=np.complex128)
            d = source.size
            if source.ndim != 1 or phases.shape != source.shape or d == 0:
                raise ValueError("source and phases must be nonempty vectors of equal length")
            if source.min() < 0 or source.max() >= d or np.any(np.bincount(source) != 1):
                raise ValueError("operator source is not a permutation")
            # U^dagger U is diagonal with entries |phase|^2.
            dev = np.abs(np.abs(phases) ** 2 - 1.0).max()
            if not dev <= UNITARY_TOL:  # written so that NaN fails too
                raise ValueError(f"operator is not unitary (max deviation {dev:.3e})")
            source.setflags(write=False)
            phases.setflags(write=False)
            object.__setattr__(self, "source", source)
            object.__setattr__(self, "phases", phases)
        if not isinstance(self.target, str):
            object.__setattr__(self, "target", tuple(self.target))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The d x d matrix (read-only); for source and phases, built on first read."""
        if self.dense is not None:
            return self.dense
        mat = np.zeros((self.dim, self.dim), dtype=np.complex128)
        mat[np.arange(self.dim), self.source] = self.phases
        mat.setflags(write=False)
        return mat

    @cached_property
    def unit_phases(self) -> bool:
        """True when the operator is given by source and phases and every phase is exactly 1."""
        return self.source is not None and bool((self.phases == 1).all())

    @property
    def dim(self) -> int:
        return len(self.dense) if self.dense is not None else len(self.source)

    @property
    def target_labels(self) -> tuple[str, ...]:
        return (self.target,) if isinstance(self.target, str) else self.target


def apply_local(state: StateVector | KeyedState, op: LocalOperator) -> StateVector | KeyedState:
    """Apply op to its target subsystem(s), identity elsewhere.

    On the (pre, block, post) array of the state, a monomial operator is one
    gather along block times its phases (no product when every phase is
    exactly 1) and a dense one is one matmul; the global matrix is never
    materialized.  A keyed state takes four kinds of operator (_apply_keyed).
    """
    axes = [state.axis(x) for x in op.target_labels]
    tdims = tuple(state.dims[i] for i in axes)
    block = prod(tdims)
    if op.dim != block:
        raise ValueError(f"operator dimension {op.dim} does not match target dims {tdims}")
    if isinstance(state, KeyedState):
        return _apply_keyed(state, op, axes)
    psi3, order = _grouped(state, axes)
    if op.source is not None:
        out = np.take(psi3, op.source, axis=1)
        if not op.unit_phases:
            out *= op.phases[:, None]
    elif psi3.shape[2] == 1:
        out = psi3.reshape(-1, block) @ op.matrix.T
    else:
        out = np.matmul(op.matrix, psi3)
    return StateVector(state.dims, state.labels, _Owned(_ungrouped(out, state.dims, order)))


def _apply_keyed(state: KeyedState, op: LocalOperator, axes: list[int]) -> KeyedState:
    """apply_local on a keyed state without factor, at its dense form's bits but for a dense U.

    A monomial on the row subsystems moves the rows, each with its key and
    amplitude row; one on the key alone sends each key through the inverse
    permutation and phases its row by the new key; one on every subsystem
    after the rows that keeps each key gathers each row's L amplitudes.
    Unit phases leave the amplitude rows shared; a product or gather gives
    each row its own.  A dense U on the key alone is kept as the state's
    factor, so that no amplitude is multiplied before the key is measured.
    Targets are in order; any other operator is refused.
    """
    L, last, K = state.amps.shape[1], len(state.dims) - 1, state.dims[-1]
    key, at, unit = state.key, state.at, op.unit_phases
    if state.factor is not None:
        raise ValueError(f"{_FACTORED}, not given {op}")
    if op.source is None and axes == [last]:
        return KeyedState(state.dims, state.labels, state.rows, _Owned(key), _Owned(state.amps),
                          _Owned(at), op)
    out = state.amps
    if op.source is not None and axes == list(range(state.rows)):
        key, at = key[op.source], at[op.source]
        phases = None if unit else op.phases[:, None]
    elif op.source is not None and axes == [last]:
        inverse = np.empty_like(op.source)  # a scatter: argsort's first call pages in 256 KB of code
        inverse[op.source] = np.arange(K)
        key = inverse[key]
        phases = None if unit else op.phases[key][:, None]
    elif op.source is not None and axes == list(range(state.rows, last + 1)):
        source = op.source.reshape(L, K)  # [m, k]: the flat (middle..., key) index that (m, k) reads
        if (source % K != np.arange(K)).any():
            raise ValueError(f"{op} moves a row's key, which a KeyedState cannot hold")
        out, at = np.take(out, (source // K).T[key] + at[:, None] * L), None
        phases = None if unit else op.phases.reshape(L, K).T[key]
    else:
        raise ValueError(f"a KeyedState takes an operator given by source and phases on its row "
                         f"subsystems {state.labels[: state.rows]} or, keeping each key, on "
                         f"{state.labels[state.rows :]}, in order, or any operator on its key alone, "
                         f"not {op}")
    if not unit:
        if at is not None:  # rows sharing an amplitude row may take different phases
            out, at = out[at], None
        # numpy multiplies a lone element in place as a reduction, rounding unlike the dense form's
        # longer row.
        out = np.multiply(out, phases, out=None if out.size == 1 < K else out)
    return KeyedState(state.dims, state.labels, state.rows, _Owned(key), _Owned(out),
                      None if at is None else _Owned(at))


def measurement_probabilities(state: StateVector | KeyedState, label: str) -> np.ndarray:
    """Exact computational-basis outcome distribution for one subsystem.

    Before the last subsystem, the squared re and im parts are summed over
    the last (a keyed state holds one nonzero value there, so its squared
    amplitudes are these sums, exact in any order), then over each
    contiguous (before..., outcome) row, then over each outcome's rows.  A
    keyed state sums each amplitude row once and reads the sums through at,
    except before its last row subsystem, where one sum spans several rows.
    The last subsystem's squared columns are summed over the rows in
    ascending order, by einsum or, on a keyed state, by bincount on the
    keys; with a factor U, p = |U|^2 @ (each key's row weights).
    """
    axis, d = state.axis(label), state.dim_of(label)
    last = len(state.dims) - 1
    if isinstance(state, KeyedState):
        if state.factor is not None and axis != last:
            raise ValueError(f"{_FACTORED}, not on {label!r}")
        if axis < state.rows - 1 or (axis == last and state.factor is None):
            # One sum spans several rows, or the key's bins take each square in row order.
            weights = state.amps[state.at].view(np.float64) ** 2  # re, im interleaved
            if axis == last:
                bins = np.repeat(2 * state.key, state.amps.shape[1])[:, None] + (0, 1)
                sums = np.bincount(bins.reshape(-1), weights.reshape(-1), 2 * d)
                return sums.reshape(d, 2).sum(axis=1)
            rows = weights.reshape(prod(state.dims[: axis + 1]), -1).sum(axis=1)
        else:
            # Each amplitude row's sums once, its squares freed before the sums are read through at.
            S, span = len(state.amps), prod(state.dims[state.rows : axis + 1]) if axis < last else 1
            rows = (state.amps.view(np.float64) ** 2).reshape(S * span, -1).sum(axis=1)
            rows = rows.reshape(S, span)[state.at]
            if axis == last:  # each key's row weights, spread by |U|^2
                U = state.factor.matrix
                return (U.real**2 + U.imag**2) @ np.bincount(state.key, rows.reshape(-1), d)
    else:
        real = state.amps.reshape(-1, state.dims[-1]).view(np.float64)
        if axis == last:
            return np.einsum("ij,ij->j", real, real).reshape(d, 2).sum(axis=1)
        weights = np.stack([np.einsum("ij,ij->i", real[:, p::2], real[:, p::2]) for p in (0, 1)], axis=1)
        rows = weights.reshape(prod(state.dims[: axis + 1]), -1).sum(axis=1)
    return rows.reshape(-1, d).sum(axis=0)


def collapse(
    state: StateVector | KeyedState, label: str, outcome: int
) -> tuple[float, StateVector | KeyedState | None]:
    """Project a subsystem onto a basis outcome.

    Returns the branch probability and the renormalized surviving slice
    (None when the branch has zero weight).  The measured subsystem keeps
    its label but leaves the state at dimension 1: the outcome says which
    basis state it sits in, so it carries no amplitude of its own.  A keyed
    state's slice is keyed, at its dense form's bits: on a row subsystem the
    outcome's rows, each with its own amplitude row; on a middle one the
    outcome's part of every amplitude row; and on the key every row, zeroed
    unless keyed at the outcome, at key 0.  On the key of a state with
    factor U, the slice at s is the StateVector amps[at] * U[s, key][:, None]
    / sqrt(p(s)).
    """
    axis = state.axis(label)
    d = state.dims[axis]
    if not 0 <= outcome < d:
        raise ValueError(f"outcome {outcome} out of range for dimension {d}")
    prob = float(measurement_probabilities(state, label)[outcome])
    if prob <= 0.0:
        return 0.0, None
    return prob, _slice(state, axis, outcome, prob)


def _slice(state: StateVector | KeyedState, axis: int, outcome: int, prob: float) -> StateVector | KeyedState:
    """collapse's surviving slice, given the outcome's probability prob > 0 (see collapse)."""
    d, post = state.dims[axis], prod(state.dims[axis + 1 :])
    dims = state.dims[:axis] + (1,) + state.dims[axis + 1 :]
    if not isinstance(state, KeyedState):
        amps = state.amps.reshape(-1, d, post)[:, outcome] / sqrt(prob)
        return StateVector(dims, state.labels, _Owned(amps))
    kept, key, at = state.amps, state.key, state.at
    if state.factor is not None:  # measurement_probabilities took only the key
        column = state.factor.matrix[outcome, key][:, None]
        return StateVector(dims, state.labels, _Owned(kept[at] * column / sqrt(prob)))
    if axis == len(dims) - 1:  # the rows keyed at outcome, every key now 0
        kept, key, at = np.where((key == outcome)[:, None], kept[at], 0), np.zeros_like(key), None
    elif axis < state.rows:  # the outcome's rows, each with its key
        pre = prod(state.dims[:axis])
        kept, at = kept[at.reshape(pre, d, -1)[:, outcome].reshape(-1)], None
        key = key.reshape(pre, d, -1)[:, outcome].reshape(-1)
    else:  # the outcome's part of every amplitude row
        kept, at = kept.reshape(len(kept), -1, d, post // dims[-1])[:, :, outcome], _Owned(at)
    return KeyedState(dims, state.labels, state.rows, _Owned(key), _Owned(kept / sqrt(prob)), at)


def measure_computational(
    state: StateVector | KeyedState, label: str, rng: np.random.Generator | int
) -> tuple[int, StateVector | KeyedState]:
    """Sample a computational-basis measurement of one subsystem.

    Returns the outcome and the collapsed state, with the measured subsystem
    at dimension 1 (see collapse).  All randomness flows through the
    supplied generator (an int seeds a fresh one), so runs are reproducible.
    The outcome weights are taken once, and the chosen one scales the slice.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(int(rng))
    probs = measurement_probabilities(state, label)
    total = float(probs.sum())
    if total <= 1e-12:
        raise RuntimeError("all measurement outcomes have zero probability")
    cumulative = np.cumsum(probs)
    outcome = int(np.searchsorted(cumulative, rng.random() * total, side="right"))
    outcome = min(outcome, len(probs) - 1)
    while probs[outcome] == 0.0:  # guard against landing on a zero branch at a float edge
        outcome -= 1
    return outcome, _slice(state, state.axis(label), outcome, float(probs[outcome]))


def partial_trace(state: StateVector, keep: Iterable[str]) -> np.ndarray:
    """Reduced density matrix on the kept subsystems (in state order).

    With the state as a (pre, K, post) array, K merging the kept subsystems,
    rho is the sum of C @ C^H over chunks C of about _TRACE_CHUNK of its
    columns, each chunk reduced straight to K x K by one matmul.  Only one
    chunk is copied and conjugated at a time.
    """
    keep = set(keep)
    unknown = keep.difference(state.labels)
    if unknown:
        raise KeyError(f"unknown labels in keep-set: {sorted(unknown)}")
    if not keep or len(keep) == len(state.labels):
        raise ValueError("keep-set must be a nonempty proper subset of the subsystems")
    psi3, _ = _grouped(state, [i for i, x in enumerate(state.labels) if x in keep])
    pre, k, post = psi3.shape
    rho = np.zeros((k, k), dtype=np.complex128)
    rows = max(1, _TRACE_CHUNK // post)
    for start in range(0, pre, rows):
        for col in range(0, post, _TRACE_CHUNK):
            blk = psi3[start : start + rows, :, col : col + _TRACE_CHUNK]
            cols = blk.transpose(1, 0, 2).reshape(k, -1)  # copies only when rows > 1
            rho += cols @ cols.conj().T
    return rho


def entanglement_entropy(state: StateVector, cut: Iterable[str]) -> float:
    """Von Neumann entropy (base 2) of the reduced state on `cut`, in ebits.

    A cut of dimension 1 (a measured ancilla) has the reduced state [1], so
    its entropy is exactly 0, not that of the state's norm as rounded, and
    nothing is traced.  partial_trace refuses any cut that is not a nonempty
    proper subset of the labels.
    """
    cut = set(cut)
    if cut and cut < set(state.labels) and prod(map(state.dim_of, cut)) == 1:
        return 0.0
    return von_neumann_entropy(partial_trace(state, cut))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy (base 2) of a density matrix."""
    eigenvalues = np.linalg.eigvalsh(rho)
    eigenvalues = eigenvalues[eigenvalues > ENTROPY_EIGENVALUE_CUTOFF]
    return float(-np.sum(eigenvalues * np.log2(eigenvalues)) + 0.0)


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2 between two pure states."""
    return abs(a.overlap(b)) ** 2


def realign(U: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Regroup a bipartite operator U[(a,b),(a',b')] into R[(a,a'),(b,b')].

    The singular values of R are the operator Schmidt coefficients of U.
    """
    U = np.asarray(U, dtype=np.complex128)
    if U.shape != (dim_a * dim_b, dim_a * dim_b):
        raise ValueError(f"expected a {dim_a * dim_b}-dimensional square matrix, got {U.shape}")
    return U.reshape(dim_a, dim_b, dim_a, dim_b).transpose(0, 2, 1, 3).reshape(
        dim_a * dim_a, dim_b * dim_b
    )


def schmidt_values(U: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Operator Schmidt coefficients of U (descending singular values)."""
    return np.linalg.svd(realign(U, dim_a, dim_b), compute_uv=False)


def operator_schmidt_rank(U: np.ndarray, dim_a: int, dim_b: int) -> int:
    """Number of terms in the operator Schmidt decomposition of a unitary U.

    Singular values below SCHMIDT_RANK_REL_CUTOFF times the largest one are
    treated as zero, so the threshold is scale-free.
    """
    U = np.asarray(U, dtype=np.complex128)
    dev = np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0])))
    if not dev <= UNITARY_TOL:
        raise ValueError(f"operator is not unitary (max deviation {dev:.3e})")
    return schmidt_rank(schmidt_values(U, dim_a, dim_b))


def schmidt_rank(values: np.ndarray) -> int:
    """Count of descending Schmidt values above SCHMIDT_RANK_REL_CUTOFF times the largest."""
    if values[0] == 0.0:
        return 0
    return int(np.count_nonzero(values > SCHMIDT_RANK_REL_CUTOFF * values[0]))
