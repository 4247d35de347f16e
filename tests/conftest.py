"""Shared fixtures and independent reference implementations.

The reference functions here deliberately avoid the package's own code
paths: dense matrices are built by integer index arithmetic, entropies
come from singular values of the amplitude matrix, and local operators
are applied as explicit global Kronecker products.  Tests compare the
package against these.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from oracle_locc.oracle import FunctionTable
from oracle_locc.quantum import KeyedState, StateVector

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT / "tools"))
from transcript_digest import BLOCK_ULPS  # noqa: E402,F401  (the bound tests hold amplitudes to)


def src_env() -> dict[str, str]:
    """This process's environment with the checkout's src directory prepended to PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_command() -> tuple[list[str], dict[str, str]]:
    """Command and environment that run the oracle-locc CLI as its own OS process.

    The console script when it is on PATH; otherwise `python -m oracle_locc`
    with this checkout's src directory prepended to PYTHONPATH.
    """
    script = shutil.which("oracle-locc")
    if script:
        return [script], dict(os.environ)
    return [sys.executable, "-m", "oracle_locc"], src_env()


# --- independent reference implementations --------------------------------

def ref_oracle_matrix(f: FunctionTable) -> np.ndarray:
    """Dense oracle matrix from flat-index arithmetic on basis columns."""
    dim = f.M * f.N
    U = np.zeros((dim, dim), dtype=np.complex128)
    for source in range(dim):
        x, y = divmod(source, f.N)
        U[x * f.N + (y + f.table[x]) % f.N, source] = 1.0
    return U


def ref_minimal_oracle(f: FunctionTable) -> np.ndarray:
    """Dense |x> -> |f(x)> on one register, one basis column at a time."""
    Q = np.zeros((f.M, f.M), dtype=np.complex128)
    for x in range(f.M):
        Q[f.table[x], x] = 1.0
    return Q


def ref_partition(f: FunctionTable):
    """Level sets grouped with a dict; returns (values, classes) sorted."""
    groups: dict[int, list[int]] = {}
    for x, v in enumerate(f.table):
        groups.setdefault(v, []).append(x)
    values = sorted(groups)
    return values, [sorted(groups[v]) for v in values]


def shift_matrix(N: int, shift: int) -> np.ndarray:
    """Permutation matrix |y> -> |y + shift mod N>."""
    return np.roll(np.eye(N, dtype=np.complex128), shift % N, axis=0)


def ref_global_apply(state_amps: np.ndarray, dims: tuple[int, ...],
                     op: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Apply op to the given axes by explicit loops over basis states."""
    dims = tuple(dims)
    total = int(np.prod(dims))
    tdims = tuple(dims[a] for a in axes)
    out = np.zeros(total, dtype=np.complex128)
    for col in range(total):
        amp = state_amps[col]
        if amp == 0:
            continue
        index = list(np.unravel_index(col, dims))
        source = np.ravel_multi_index([index[a] for a in axes], tdims)
        for dest in range(op.shape[0]):
            if op[dest, source] == 0:
                continue
            dest_index = list(index)
            for a, v in zip(axes, np.unravel_index(dest, tdims)):
                dest_index[a] = v
            out[np.ravel_multi_index(dest_index, dims)] += op[dest, source] * amp
    return out


def ref_entanglement_entropy(state_amps: np.ndarray, dim_left: int, dim_right: int) -> float:
    """Entropy in ebits from singular values of the amplitude matrix."""
    sigma = np.linalg.svd(state_amps.reshape(dim_left, dim_right), compute_uv=False)
    p = sigma**2
    p = p[p > 1e-14]
    return float(-np.sum(p * np.log2(p)))


def ref_dft(n: int) -> np.ndarray:
    """Reference Fourier matrix, F[s, k] = exp(2 pi i k s / n) / sqrt(n)."""
    s, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * s * k / n) / np.sqrt(n)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_table(rng: np.random.Generator, max_m: int = 4, max_n: int = 4) -> FunctionTable:
    M = int(rng.integers(1, max_m + 1))
    N = int(rng.integers(1, max_n + 1))
    return FunctionTable(M, N, tuple(int(v) for v in rng.integers(0, N, size=M)))


def exhaustive_tables(max_m: int, max_n: int):
    """Every function table within the bounds, enumerated independently."""
    from itertools import product

    for M in range(1, max_m + 1):
        for N in range(1, max_n + 1):
            for table in product(range(N), repeat=M):
                yield FunctionTable(M, N, table)


def exhaustive_permutations(max_m: int):
    from itertools import permutations

    for M in range(1, max_m + 1):
        for perm in permutations(range(M)):
            yield FunctionTable(M, M, perm)


def max_ulps(x, y) -> float:
    """The largest transcript_digest.ulps over the real and imaginary parts of two complex arrays."""
    x, y = (np.asarray(z, dtype=np.complex128).reshape(-1).view(np.float64) for z in (x, y))
    assert x.shape == y.shape
    scale = np.maximum(np.maximum(np.abs(x), np.abs(y)), 1.0)
    return float((np.abs(x - y) / np.spacing(scale)).max(initial=0.0))


def keyed_positions(state: KeyedState) -> list[int]:
    """The flat index of each entry (row, m), |row, m, key[row]>, in the order of amps[at]."""
    L, K = state.amps.shape[1], state.dims[-1]
    return [(row * L + m) * K + int(state.key[row]) for row in range(len(state.key)) for m in range(L)]


def dense_form(state: KeyedState) -> StateVector:
    """The StateVector a keyed state stands for.

    Without factor, each row's amplitudes amps[at[row]] at their positions and zeros
    elsewhere; with factor U, amps[at[row], m] * U[s, key[row]] at |row, m, s>, each
    rounded once.
    """
    rows = state.amps[state.at]
    if state.factor is not None:
        product = rows[:, :, None] * state.factor.matrix[:, state.key].T[:, None, :]
        return StateVector(state.dims, state.labels, product)
    amps = np.zeros(int(np.prod(state.dims)), dtype=np.complex128)
    amps[keyed_positions(state)] = rows.reshape(-1)
    return StateVector(state.dims, state.labels, amps)


# --- fixtures -------------------------------------------------------------

@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260823)


@pytest.fixture(scope="session")
def small_tables() -> list[FunctionTable]:
    return list(exhaustive_tables(3, 3))


@pytest.fixture(scope="session")
def small_permutations() -> list[FunctionTable]:
    return list(exhaustive_permutations(4))
