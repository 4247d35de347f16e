"""Core state-vector machinery, compared against loop-based references."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from oracle_locc import quantum
from oracle_locc.quantum import (
    KeyedState,
    LocalOperator,
    StateVector,
    apply_local,
    basis_state,
    collapse,
    entanglement_entropy,
    fidelity,
    from_amps,
    measure_computational,
    measurement_probabilities,
    operator_schmidt_rank,
    partial_trace,
    random_state,
    realign,
    reorder,
    schmidt_rank,
    schmidt_values,
    tensor,
)

from oracle_locc.locc import step1_operator
from oracle_locc.oracle import FunctionTable

from conftest import (
    BLOCK_ULPS,
    dense_form,
    keyed_positions,
    max_ulps,
    random_unitary,
    ref_dft,
    ref_entanglement_entropy,
    ref_global_apply,
)


def bell_pair(labels=("A", "B")) -> StateVector:
    return from_amps((2, 2), labels, np.array([1, 0, 0, 1]) / np.sqrt(2))


small_dims = st.lists(st.integers(1, 4), min_size=1, max_size=3)


class TestStateVector:
    def test_basis_state_amplitudes(self):
        state = basis_state((2, 3), ("A", "B"), (1, 2))
        expected = np.zeros(6)
        expected[5] = 1.0
        assert_allclose(state.amps, expected)

    def test_basis_state_flat_index(self):
        assert_allclose(basis_state((2, 3), ("A", "B"), 4).amps,
                        basis_state((2, 3), ("A", "B"), (1, 1)).amps)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector((2,), ("A",), np.array([1.0, 1.0]))

    def test_rejects_nan_amplitudes(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector((2,), ("A",), np.array([np.nan, 0.0]))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            basis_state((2, 2), ("A", "A"), (0, 0))

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            basis_state((2,), ("A",), (2,))

    @pytest.mark.parametrize("first", [1, True, 1.0, "1"])
    def test_a_layout_converts_alike_whatever_layout_came_before(self, first):
        StateVector((2,), (first,), [1, 0])
        for label in (1, True, 1.0, "1"):
            state = StateVector((2.0,), (label,), [1, 0])
            assert state.labels == (str(label),) and state.dims == (2,) and type(state.dims[0]) is int

    def test_amps_are_read_only(self):
        state = basis_state((2,), ("A",), (0,))
        with pytest.raises(ValueError):
            state.amps[0] = 0.0

    def test_normalize_flag(self):
        state = from_amps((2,), ("A",), [3.0, 4.0], normalize=True)
        assert_allclose(state.amps, [0.6, 0.8])

    def test_axis_lookup_error(self):
        with pytest.raises(KeyError):
            basis_state((2,), ("A",), (0,)).axis("Z")


class TestTensorAndReorder:
    def test_tensor_concatenates(self):
        left = basis_state((2,), ("A",), (1,))
        right = basis_state((3,), ("B",), (0,))
        joint = tensor([left, right])
        assert joint.dims == (2, 3)
        assert joint.labels == ("A", "B")
        assert_allclose(joint.amps, np.kron(left.amps, right.amps))

    def test_tensor_rejects_label_clash(self):
        with pytest.raises(ValueError, match="duplicate"):
            tensor([basis_state((2,), ("A",), (0,)), basis_state((2,), ("A",), (0,))])

    def test_reorder_moves_amplitudes(self, rng):
        state = random_state((2, 3, 4), ("A", "B", "C"), rng)
        swapped = reorder(state, ("C", "A", "B"))
        assert swapped.dims == (4, 2, 3)
        back = reorder(swapped, ("A", "B", "C"))
        assert_allclose(back.amps, state.amps, atol=0)
        assert reorder(state, state.labels) is state

    def test_reorder_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            reorder(basis_state((2,), ("A",), (0,)), ("B",))


class TestApplyLocal:
    def test_matches_reference_single_subsystem(self, rng):
        for _ in range(20):
            dims = tuple(int(d) for d in rng.integers(1, 4, size=3))
            axis = int(rng.integers(0, 3))
            state = random_state(dims, ("X", "Y", "Z"), rng)
            U = random_unitary(dims[axis], rng)
            result = apply_local(state, LocalOperator(state.labels[axis], U))
            expected = ref_global_apply(state.amps, dims, U, (axis,))
            assert_allclose(result.amps, expected, atol=1e-12)

    def test_matches_reference_two_subsystems(self, rng):
        for _ in range(10):
            dims = tuple(int(d) for d in rng.integers(1, 4, size=3))
            axes = tuple(sorted(rng.choice(3, size=2, replace=False)))
            if rng.random() < 0.5:
                axes = (axes[1], axes[0])  # exercise non-ascending target order
            state = random_state(dims, ("X", "Y", "Z"), rng)
            U = random_unitary(dims[axes[0]] * dims[axes[1]], rng)
            targets = (state.labels[axes[0]], state.labels[axes[1]])
            result = apply_local(state, LocalOperator(targets, U))
            expected = ref_global_apply(state.amps, dims, U, axes)
            assert_allclose(result.amps, expected, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_preserves_norm(self, seed):
        gen = np.random.default_rng(seed)
        dims = tuple(int(d) for d in gen.integers(1, 5, size=2))
        state = random_state(dims, ("X", "Y"), gen)
        U = random_unitary(dims[0], gen)
        result = apply_local(state, LocalOperator("X", U))
        assert abs(result.norm() - 1.0) <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            LocalOperator("X", np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_rejects_nan_matrix(self):
        with pytest.raises(ValueError, match="not unitary"):
            LocalOperator("X", np.full((2, 2), np.nan))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            apply_local(basis_state((3,), ("X",), (0,)), LocalOperator("X", np.eye(2)))


def random_monomial(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Permutation matrix times random unit phases, built entry by entry."""
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for row, col in enumerate(rng.permutation(dim)):
        mat[row, col] = np.exp(2j * np.pi * rng.random())
    return mat


class TestMonomialOperators:
    def test_one_target_matches_dense_reference(self, rng):
        for _ in range(20):
            dims = tuple(int(d) for d in rng.integers(1, 5, size=3))
            axis = int(rng.integers(0, 3))
            state = random_state(dims, ("X", "Y", "Z"), rng)
            U = random_monomial(dims[axis], rng)
            op = LocalOperator(state.labels[axis], U)
            expected = ref_global_apply(state.amps, dims, U, (axis,))
            assert_allclose(apply_local(state, op).amps, expected, atol=1e-12)

    def test_two_targets_out_of_state_order_match_dense_reference(self, rng):
        for _ in range(10):
            dims = tuple(int(d) for d in rng.integers(2, 5, size=4))
            state = random_state(dims, ("A", "a", "B", "b"), rng)
            U = random_monomial(dims[3] * dims[0], rng)
            op = LocalOperator(("b", "A"), U)
            expected = ref_global_apply(state.amps, dims, U, (3, 0))
            assert_allclose(apply_local(state, op).amps, expected, atol=1e-12)

    def test_phase_off_the_unit_circle_is_refused(self, rng):
        U = random_monomial(4, rng)
        col = int(np.flatnonzero(U[2])[0])
        U[2, col] *= 1 + 1e-6
        with pytest.raises(ValueError, match="not unitary"):
            LocalOperator("X", U)

    def test_nan_entry_is_refused(self, rng):
        for place in ("phase", "off the permutation"):
            U = random_monomial(4, rng)
            col = int(np.flatnonzero(U[1])[0])
            U[1, col if place == "phase" else (col + 1) % 4] = np.nan
            with pytest.raises(ValueError, match="not unitary"):
                LocalOperator("X", U)

    @pytest.mark.parametrize("mat", [[[1, 0], [1, 0]], [[1, 1], [0, 0]]], ids=["column", "row"])
    def test_one_nonzero_per_row_and_column_is_required(self, mat):
        # Each has as many nonzeros as rows and unit entries, but one line is empty.
        with pytest.raises(ValueError, match="not unitary"):
            LocalOperator("X", np.array(mat))

    def test_dft_stays_dense(self, rng):
        state = random_state((3, 5), ("X", "Y"), rng)
        F = ref_dft(5)
        op = LocalOperator("Y", F)
        assert op.source is None and op.phases is None
        expected = ref_global_apply(state.amps, state.dims, F, (1,))
        assert_allclose(apply_local(state, op).amps, expected, atol=1e-12)


def random_layout(rng: np.random.Generator, count: int) -> tuple[int, ...]:
    """Dims for `count` subsystems, each 1 to 4, so size-1 dims occur."""
    return tuple(int(d) for d in rng.integers(1, 5, size=count))


def ref_partial_trace(state: StateVector, keep_axes: list[int]) -> np.ndarray:
    """Reduced density matrix by tensordot over every traced axis."""
    psi = state.tensor_view()
    traced = [i for i in range(len(state.dims)) if i not in keep_axes]
    rho = np.tensordot(psi, psi.conj(), axes=(traced, traced))
    k = int(np.prod([state.dims[i] for i in keep_axes]))
    return rho.reshape(k, k)


class TestKernels:
    """Each one-pass kernel against a loop or tensordot reference."""

    LABELS = ("A", "a", "B", "b")

    def test_apply_local_on_random_layouts(self, rng):
        for _ in range(40):
            dims = random_layout(rng, 4)
            state = random_state(dims, self.LABELS, rng)
            count = int(rng.integers(1, 3))
            axes = tuple(int(i) for i in rng.choice(4, size=count, replace=False))
            targets = tuple(self.LABELS[i] for i in axes)
            block = int(np.prod([dims[i] for i in axes]))
            U = random_unitary(block, rng)
            perm = rng.permutation(block)
            phases = np.exp(2j * np.pi * rng.random(block))
            monomial = np.zeros((block, block), dtype=np.complex128)
            monomial[np.arange(block), perm] = phases
            target = targets[0] if count == 1 else targets
            cases = (
                (LocalOperator(target, U), U),
                (LocalOperator(target, source=perm, phases=phases), monomial),
                (LocalOperator(target, source=np.arange(block), phases=phases), np.diag(phases)),
                (LocalOperator(target, source=perm, phases=np.ones(block)), np.abs(monomial)),
            )
            for op, mat in cases:
                expected = ref_global_apply(state.amps, dims, mat, axes)
                assert_allclose(apply_local(state, op).amps, expected, rtol=0, atol=1e-12)

    def test_apply_local_on_a_reversed_target_pair(self, rng):
        state = random_state((3, 1, 2, 4), self.LABELS, rng)
        U = random_unitary(12, rng)
        expected = ref_global_apply(state.amps, state.dims, U, (3, 0))
        assert_allclose(apply_local(state, LocalOperator(("b", "A"), U)).amps, expected,
                        rtol=0, atol=1e-12)
        op = LocalOperator(("b", "A"), source=rng.permutation(12), phases=np.ones(12))
        expected = ref_global_apply(state.amps, state.dims, op.matrix, (3, 0))
        assert_allclose(apply_local(state, op).amps, expected, rtol=0, atol=1e-12)

    def test_measurement_and_collapse_on_random_layouts(self, rng):
        for _ in range(20):
            dims = random_layout(rng, 4)
            state = random_state(dims, self.LABELS, rng)
            axis = int(rng.integers(0, 4))
            moved = np.moveaxis(state.tensor_view(), axis, 0)
            expected = np.sum(np.abs(moved.reshape(dims[axis], -1)) ** 2, axis=1)
            probs = measurement_probabilities(state, self.LABELS[axis])
            assert_allclose(probs, expected, rtol=0, atol=1e-12)
            outcome = int(np.argmax(expected))
            prob, post = collapse(state, self.LABELS[axis], outcome)
            assert prob == probs[outcome]
            kept = moved[outcome : outcome + 1] / np.sqrt(expected[outcome])
            assert post.dims == dims[:axis] + (1,) + dims[axis + 1 :]
            assert_allclose(post.tensor_view(), np.moveaxis(kept, 0, axis), rtol=0, atol=1e-12)

    def test_partial_trace_on_random_keep_sets(self, rng):
        for _ in range(30):
            dims = random_layout(rng, 4)
            state = random_state(dims, self.LABELS, rng)
            count = int(rng.integers(1, 4))
            keep_axes = sorted(int(i) for i in rng.choice(4, size=count, replace=False))
            rho = partial_trace(state, {self.LABELS[i] for i in keep_axes})
            assert_allclose(rho, ref_partial_trace(state, keep_axes), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dims, keep", [
        ((2, 3, 2), {"A", "C"}),     # not adjacent: transposed first
        ((2, 2, 5000), {"A"}),       # rows longer than one chunk of columns
        ((3000, 2, 2), {"B"}),       # short rows, batched over the leading index
    ])
    def test_partial_trace_layouts(self, rng, dims, keep):
        state = random_state(dims, ("A", "B", "C"), rng)
        keep_axes = [i for i, x in enumerate(state.labels) if x in keep]
        assert_allclose(partial_trace(state, keep), ref_partial_trace(state, keep_axes),
                        rtol=0, atol=1e-12)

    def test_partial_trace_of_a_large_trailing_keep_set_stays_small(self, rng):
        state = random_state((256, 256), ("A", "B"), rng)  # 1 MiB of amplitudes
        tracemalloc.start()
        try:
            rho = partial_trace(state, {"B"})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A (256, 256, 256) intermediate of per-row outer products would take 256 MiB.
        assert peak < 8 << 20
        assert_allclose(rho, ref_partial_trace(state, [1]), rtol=0, atol=1e-12)


def random_keyed(rng: np.random.Generator, dims: tuple[int, ...], rows: int, labels,
                 shared: bool = False) -> KeyedState:
    """A keyed state with random keys; about a third of its amplitudes are 0.

    With shared, each row reads one of 1 to R amplitude rows, drawn at random
    through at, so rows repeat.
    """
    R, L = int(np.prod(dims[:rows])), int(np.prod(dims[rows:-1]))
    key = rng.integers(0, dims[-1], size=R)
    at = rng.integers(0, rng.integers(1, R + 1), size=R) if shared else np.arange(R)
    amps = rng.standard_normal((R, L)) + 1j * rng.standard_normal((R, L))
    amps[rng.random((R, L)) < 0.3] = 0.0
    if not amps[at].any():
        amps[at[-1], -1] = 1.0
    amps /= np.linalg.norm(amps[at])
    return KeyedState(dims, labels, rows, key, amps, at if shared else None)


LABELS = ("A", "a", "B", "b", "c")


def random_keyed_layout(rng: np.random.Generator, min_rows: int = 0, shared: bool = False) -> KeyedState:
    """A random keyed state over 2 to 5 subsystems of dims 1 to 4, with min_rows or more rows."""
    count = int(rng.integers(max(2, min_rows + 1), 6))
    rows = int(rng.integers(min_rows, count))
    return random_keyed(rng, random_layout(rng, count), rows, LABELS[:count], shared)


def random_phases(rng: np.random.Generator, d: int) -> np.ndarray:
    """d random unit phases, or d exact ones (a gather with no product) a quarter of the time."""
    return np.ones(d) if rng.random() < 0.25 else np.exp(2j * np.pi * rng.random(d))


def key_keeping_source(rng: np.random.Generator, state: KeyedState) -> np.ndarray:
    """A random source on the subsystems after the rows that permutes m within each key k."""
    (_, L), K = state.amps.shape, state.dims[-1]
    m = np.stack([rng.permutation(L) for _ in range(K)], axis=1)  # m[m', k]: what (m', k) reads
    return (m * K + np.arange(K)).reshape(-1)


def assert_keyed_bits(out: KeyedState, dense: StateVector) -> None:
    """At the keyed positions, dense's bits; elsewhere, zeros (the dense product may sign them)."""
    positions = keyed_positions(out)
    assert out.factor is None
    assert out.amps[out.at].tobytes() == dense.amps[positions].tobytes()
    rest = np.ones(dense.amps.size, dtype=bool)
    rest[positions] = False
    assert not dense.amps[rest].any()


def assert_same_slice(post, dense_post) -> None:
    """A keyed slice, by bits through dense_form, or no slice for both."""
    if post is None:
        assert dense_post is None
    else:
        assert isinstance(post, KeyedState)
        assert dense_form(post).dims == dense_post.dims
        assert dense_form(post).amps.tobytes() == dense_post.amps.tobytes()


def assert_factor_measured_like_dense_form(state: KeyedState, U: np.ndarray) -> None:
    """With U as its key's factor, the state's weights and slices against its dense form's.

    Each form's weight of s is held against S, an exact math.fsum of the squared parts of the
    dense products amps[at[row], m] * U[s, key[row]], within (n + 8) u S: n = R * L is the
    number of rows the dense form sums and u = 2^-53.  That is the recursive-summation bound
    gamma_{n-1} for n nonnegative terms (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 4.2), plus 9 u for the roundings each term takes first: the
    complex product, at most 2 sqrt(2) gamma_2 on its square (section 3.6), the squares, and
    |U|^2.  Over the 50,000 states of seeds 0-49 the largest error was (n + 4.2) u S.  The
    keyed form sums in another order than the dense einsum, so the two are not held to each
    other; each slice is one rounded product per amplitude, by bits.
    """
    key_label, K = state.labels[-1], state.dims[-1]
    out = apply_local(state, LocalOperator(key_label, U))
    dense = apply_local(dense_form(state), LocalOperator(key_label, U))
    probs = measurement_probabilities(out, key_label)
    dense_probs = measurement_probabilities(dense, key_label)
    rows = state.amps[state.at]
    n = rows.size
    for s in range(K):
        parts = (rows * U[s, state.key][:, None]).view(np.float64).reshape(-1)
        exact = math.fsum(parts * parts)
        bound = (n + 8) * 2.0**-53 * exact
        assert abs(probs[s] - exact) <= bound and abs(dense_probs[s] - exact) <= bound
        prob, post = collapse(out, key_label, s)
        assert prob == probs[s] > 0
        expected = rows * U[s, state.key][:, None] / np.sqrt(prob)
        assert isinstance(post, StateVector) and post.dims == state.dims[:-1] + (1,)
        assert post.amps.tobytes() == expected.reshape(-1).tobytes()
        assert max_ulps(post.amps, collapse(dense, key_label, s)[1].amps) <= BLOCK_ULPS
    outcome, post = measure_computational(out, key_label, 7)
    assert post.amps.tobytes() == collapse(out, key_label, outcome)[1].amps.tobytes()


class TestKeyedState:
    """A keyed state gives the bits its dense form gives, through every primitive it takes.

    The exception is a dense operator on the key: one rounded product per
    amplitude, held within BLOCK_ULPS of the dense matmul, and weights held
    within a bound that grows with the rows summed of an exact sum
    (assert_factor_measured_like_dense_form).
    """

    def test_monomial_apply_on_the_rows_equals_the_dense_gather_bit_for_bit(self, rng):
        for _ in range(200):
            state = random_keyed_layout(rng, min_rows=1)
            block = int(np.prod(state.dims[: state.rows]))
            targets = state.labels[: state.rows]
            op = LocalOperator(targets[0] if state.rows == 1 else targets,
                               source=rng.permutation(block),
                               phases=np.exp(2j * np.pi * rng.random(block)))
            out = apply_local(state, op)
            assert isinstance(out, KeyedState) and out.rows == state.rows
            assert_keyed_bits(out, apply_local(dense_form(state), op))

    def test_monomial_apply_on_the_key_equals_the_dense_gather_bit_for_bit(self, rng):
        for _ in range(200):
            state = random_keyed_layout(rng)
            K = state.dims[-1]
            op = LocalOperator(state.labels[-1], source=rng.permutation(K), phases=random_phases(rng, K))
            out = apply_local(state, op)
            assert isinstance(out, KeyedState) and out.rows == state.rows
            assert_keyed_bits(out, apply_local(dense_form(state), op))

    def test_key_keeping_monomial_after_the_rows_equals_the_dense_gather_bit_for_bit(self, rng):
        for _ in range(200):
            state = random_keyed_layout(rng)
            source = key_keeping_source(rng, state)
            op = LocalOperator(state.labels[state.rows :], source=source,
                               phases=random_phases(rng, source.size))
            out = apply_local(state, op)
            assert isinstance(out, KeyedState) and out.rows == state.rows
            assert out.key.tobytes() == state.key.tobytes()
            assert_keyed_bits(out, apply_local(dense_form(state), op))

    def test_a_dense_operator_on_the_key_is_one_product_per_amplitude(self, rng):
        for _ in range(200):
            state = random_keyed_layout(rng, shared=rng.random() < 0.5)
            op = LocalOperator(state.labels[-1], random_unitary(state.dims[-1], rng))
            out = apply_local(state, op)
            dense = apply_local(dense_form(state), op)
            assert isinstance(out, KeyedState) and out.factor is op and out.dims == state.dims
            for array in ("amps", "at", "key"):  # nothing is copied or multiplied
                assert np.shares_memory(getattr(out, array), getattr(state, array))
            # amps[at[row], m] * U[s, key[row]] at |row, m, s>, each rounded once.
            product = state.amps[state.at][:, :, None] * op.matrix[:, state.key].T[:, None, :]
            assert dense_form(out).amps.tobytes() == product.tobytes()
            assert max_ulps(dense_form(out).amps, dense.amps) <= BLOCK_ULPS

    def test_a_factor_on_the_key_is_measured_like_its_dense_form(self, rng):
        for _ in range(200):
            state = random_keyed_layout(rng, shared=rng.random() < 0.5)
            assert_factor_measured_like_dense_form(state, random_unitary(state.dims[-1], rng))

    # Four of the 50,000 states of seeds 0-49 (1,000 a seed, each followed by its U), as (seed,
    # index): the two forms' weights of each differ by more than BLOCK_ULPS. Each has a key of
    # dimension 1 whose weight of 1 sums 192, 48, 256 and 64 rows.
    @pytest.mark.parametrize("seed, index", [(3, 262), (9, 887), (25, 785), (29, 117)])
    def test_a_factor_over_many_rows_is_measured_within_the_row_count_bound(self, seed, index):
        rng = np.random.default_rng(seed)
        for _ in range(index + 1):
            state = random_keyed_layout(rng, shared=rng.random() < 0.5)
            U = random_unitary(state.dims[-1], rng)
        assert state.dims[-1] == 1 and len(state.key) >= 48
        assert_factor_measured_like_dense_form(state, U)

    @pytest.mark.parametrize("primitive", ["apply", "probabilities", "collapse", "measure"])
    def test_a_state_with_a_factor_is_only_measured_on_its_key(self, rng, primitive):
        state = random_keyed(rng, (2, 3, 2, 3), 2, ("A", "a", "B", "b"), shared=True)
        out = apply_local(state, LocalOperator("b", random_unitary(3, rng)))
        with pytest.raises(ValueError, match="only measured on its key"):
            if primitive == "apply":
                apply_local(out, LocalOperator("b", source=[1, 2, 0], phases=np.ones(3)))
            elif primitive == "probabilities":
                measurement_probabilities(out, "B")
            elif primitive == "collapse":
                collapse(out, "a", 0)
            else:
                measure_computational(out, "A", 0)

    def test_shared_rows_give_the_dense_forms_bits_through_every_primitive(self, rng):
        for _ in range(200):
            state = random_keyed_layout(rng, shared=True)
            dense = dense_form(state)
            K, key_label = state.dims[-1], state.labels[-1]
            ops = [LocalOperator(key_label, source=rng.permutation(K), phases=random_phases(rng, K))]
            source = key_keeping_source(rng, state)
            ops.append(LocalOperator(state.labels[state.rows :], source=source,
                                     phases=random_phases(rng, source.size)))
            if state.rows:
                block = int(np.prod(state.dims[: state.rows]))
                targets = state.labels[: state.rows]
                ops.append(LocalOperator(targets[0] if state.rows == 1 else targets,
                                         source=rng.permutation(block), phases=random_phases(rng, block)))
            for op in ops:
                out = apply_local(state, op)
                assert isinstance(out, KeyedState) and out.rows == state.rows
                assert_keyed_bits(out, apply_local(dense, op))
                if op.unit_phases and op.target_labels != state.labels[state.rows :]:
                    assert np.shares_memory(out.amps, state.amps)  # the rows still share them
            for label in state.labels:
                probs = measurement_probabilities(state, label)
                assert probs.tobytes() == measurement_probabilities(dense, label).tobytes()
                for outcome in range(state.dim_of(label)):
                    prob, post = collapse(state, label, outcome)
                    dense_prob, dense_post = collapse(dense, label, outcome)
                    assert prob == dense_prob == probs[outcome]
                    assert_same_slice(post, dense_post)

    @pytest.mark.parametrize("targets", ["b", ("B", "b")], ids=["key", "trailing pair"])
    def test_a_monomial_on_the_key_or_keeping_keys_after_the_rows_is_taken(self, rng, targets):
        state = random_keyed(rng, (2, 3, 2, 3), 2, ("A", "a", "B", "b"))
        source = rng.permutation(3) if targets == "b" else key_keeping_source(rng, state)
        op = LocalOperator(targets, source=source, phases=np.exp(2j * np.pi * rng.random(source.size)))
        out = apply_local(state, op)
        assert isinstance(out, KeyedState)
        assert_keyed_bits(out, apply_local(dense_form(state), op))

    def test_probabilities_and_collapse_equal_the_dense_ones_bit_for_bit(self, rng):
        for _ in range(100):
            state = random_keyed_layout(rng)
            dense = dense_form(state)
            for label in state.labels:  # the key subsystem, the last, included
                probs = measurement_probabilities(state, label)
                assert probs.tobytes() == measurement_probabilities(dense, label).tobytes()
                for outcome in range(state.dim_of(label)):
                    prob, post = collapse(state, label, outcome)
                    dense_prob, dense_post = collapse(dense, label, outcome)
                    assert prob == dense_prob == probs[outcome]
                    assert_same_slice(post, dense_post)

    @pytest.mark.parametrize("dims, rows", [((3, 5, 300, 4), 2), ((2, 1, 700, 3), 1),
                                            ((40, 50, 1, 6), 1)])
    def test_long_rows_sum_like_the_dense_form_bit_for_bit(self, rng, dims, rows):
        # Rows and columns over 128 floats take numpy's blocked pairwise sum, which dims <= 4 never reach.
        state = random_keyed(rng, dims, rows, LABELS[:4])
        dense = dense_form(state)
        for label in state.labels:
            probs = measurement_probabilities(state, label)
            assert probs.tobytes() == measurement_probabilities(dense, label).tobytes()
            for outcome in range(state.dim_of(label)):
                prob, post = collapse(state, label, outcome)
                dense_prob, dense_post = collapse(dense, label, outcome)
                assert prob == dense_prob == probs[outcome]
                assert_same_slice(post, dense_post)

    def test_the_key_subsystem_is_measured_by_its_keys(self):
        # Rows (A, a) carry keys 0, 2, 1, 2 on b; B's digit is not b's.
        amps = np.array([[0.1, 0.2, 0.2], [0.3, 0.1, 0.3], [0.4, 0.2, 0.1], [0.5, 0.4, 0.0]])
        amps /= np.linalg.norm(amps)
        state = KeyedState((2, 2, 3, 3), ("A", "a", "B", "b"), 2, [0, 2, 1, 2], amps)
        weights = (amps**2).sum(axis=1)
        assert_allclose(measurement_probabilities(state, "b"),
                        [weights[0], weights[2], weights[1] + weights[3]], rtol=0, atol=1e-15)
        prob, post = collapse(state, "b", 2)
        expected = np.zeros((4, 3), dtype=np.complex128)
        expected[[1, 3]] = state.amps[[1, 3]] / np.sqrt(prob)
        assert post.dims == (2, 2, 3, 1)
        assert post.amps.tobytes() == expected.reshape(-1).tobytes()

    def test_measurement_equals_the_dense_one_bit_for_bit(self, rng):
        for seed in range(30):
            state = random_keyed_layout(rng)
            dense = dense_form(state)
            for label in state.labels:
                outcome, post = measure_computational(state, label, seed)
                dense_outcome, dense_post = measure_computational(dense, label, seed)
                assert outcome == dense_outcome
                assert_same_slice(post, dense_post)

    @pytest.mark.parametrize("targets, kind, match", [
        ("A", "monomial", "row subsystems"),
        ("a", "monomial", "row subsystems"),
        (("a", "A"), "monomial", "row subsystems"),
        (("a", "B"), "monomial", "row subsystems"),
        (("A", "B"), "monomial", "row subsystems"),
        (("A", "a", "B"), "monomial", "row subsystems"),
        (("B", "b"), "key-moving", "moves a row's key"),
        (("B", "b"), "dense", "row subsystems"),
    ], ids=["first row", "second row", "reversed", "inner pair", "apart", "past the rows",
            "key-moving pair", "dense pair"])
    def test_an_operator_off_the_row_subsystems_is_refused(self, rng, targets, kind, match):
        state = random_keyed(rng, (2, 3, 2, 3), 2, ("A", "a", "B", "b"))
        labels = (targets,) if isinstance(targets, str) else targets
        d = int(np.prod([state.dim_of(x) for x in labels]))
        if kind == "dense":
            op = LocalOperator(targets, random_unitary(d, rng))
        else:  # the key-moving one swaps b = 0 and b = 1 at each B
            source = rng.permutation(d) if kind == "monomial" else np.array([1, 0, 2, 4, 3, 5])
            op = LocalOperator(targets, source=source, phases=np.ones(d))
        with pytest.raises(ValueError, match=match):
            apply_local(state, op)

    def test_a_dense_operator_off_the_key_is_refused(self, rng):
        state = random_keyed(rng, (2, 3), 1, ("A", "B"))
        with pytest.raises(ValueError, match="source and phases"):
            apply_local(state, LocalOperator("A", random_unitary(2, rng)))

    @pytest.mark.parametrize("rows, key, amps, match", [
        (1, [1, 3], [0.6, 0.8], "keys must be"),
        (1, [-1, 2], [0.6, 0.8], "keys must be"),
        (1, [0, 1, 2], [0.6, 0.8], "keys must be"),
        (1, [0], [0.6, 0.8], "keys must be"),
        (1, np.array([], dtype=int), [], "keys must be"),
        (1, [0, 1], [0.6, 0.8, 0.0], "amplitude vector has length"),
        (1, [0, 1], [], "amplitude vector has length"),
        (1, [0, 1], [0.6, 0.6], "not normalized"),
        (1, [0, 1], [np.nan, 0.8], "not normalized"),
        (1, [0, 1], [0.0, 0.0], "not normalized"),
        (1, [0.9, 2.7], [0.6, 0.8], "must be integers"),  # np.intp would truncate them to [0, 2]
        (1, np.array([1.0, 2.0]), [0.6, 0.8], "must be integers"),
        (1, [False, True], [0.6, 0.8], "must be integers"),
        (1, np.array([1, 2], dtype=complex), [0.6, 0.8], "must be integers"),
        (2, [0], [1.0], "rows must leave"),
        (-1, [0], [1.0], "rows must leave"),
    ])
    def test_invalid_keyed_states_are_refused(self, rows, key, amps, match):
        with pytest.raises(ValueError, match=match):
            KeyedState((2, 3), ("A", "B"), rows, key, amps)

    @pytest.mark.parametrize("at, amps, factor, match", [
        ([0, 2], [0.6, 0.8], None, "at must be"),
        ([-1, 0], [0.6, 0.8], None, "at must be"),
        ([0], [0.6, 0.8], None, "at must be"),
        ([0, 0, 1], [0.6, 0.8], None, "at must be"),
        ([0.0, 1.0], [0.6, 0.8], None, "at must be integers"),
        ([0, 0], [0.6, 0.8], None, "not normalized"),  # row 0 twice, row 1 never: 0.72
        ([1, 1], [0.6, np.nan], None, "not normalized"),
        ([0, 0], [], None, "amplitude vector has length"),
        (None, [0.6, 0.8], np.eye(3), "factor must be"),
        (None, [0.6, 0.8], LocalOperator("A", np.eye(2)), "factor must be"),
    ])
    def test_invalid_shared_rows_and_factors_are_refused(self, at, amps, factor, match):
        with pytest.raises(ValueError, match=match):
            KeyedState((2, 3), ("A", "B"), 1, [0, 1], amps, at, factor)

    def test_rows_that_share_an_amplitude_row_each_count_it(self):
        state = KeyedState((2, 3), ("A", "B"), 1, [0, 2], [np.sqrt(0.5)], [0, 0])
        assert state.amps.shape == (1, 1) and state.at.tolist() == [0, 0]
        assert dense_form(state).amps.tolist() == [np.sqrt(0.5), 0, 0, 0, 0, np.sqrt(0.5)]

    def test_keys_and_amplitudes_are_copied_and_read_only(self):
        key, amps = np.array([1, 2]), np.array([0.6, 0.8j])
        state = KeyedState((2, 3), ("A", "B"), 1, key, amps)
        key[0], amps[0] = 0, 1.0
        assert state.key.tolist() == [1, 2] and state.amps[0, 0] == 0.6
        for array in (state.key, state.amps):
            with pytest.raises(ValueError):
                array[0] = 0


class TestOwnership:
    def test_mutating_the_given_array_leaves_the_state_alone(self):
        for make in (lambda a: StateVector((2,), ("A",), a), lambda a: from_amps((2,), ("A",), a)):
            given = np.array([1.0, 0.0], dtype=np.complex128)
            state = make(given)
            given[0] = 0.0
            assert_allclose(state.amps, [1.0, 0.0], atol=0)

    def test_derived_amplitudes_are_read_only(self, rng):
        state = random_state((2, 3), ("A", "B"), rng)
        derived = [
            state,
            apply_local(state, LocalOperator("B", random_unitary(3, rng))),
            apply_local(state, LocalOperator("B", source=[2, 0, 1], phases=np.ones(3))),
            collapse(state, "A", 1)[1],
            reorder(state, ("B", "A")),
            reorder(state, ("A", "B")),
            tensor([state, basis_state((2,), ("C",), (1,))]),
            tensor([state]),
            from_amps((2, 3), ("A", "B"), np.ones(6), normalize=True),
        ]
        for st in derived:
            with pytest.raises(ValueError):
                st.amps[0] = 0.0


class TestMonomialConstruction:
    def test_refuses_a_duplicate_source_index(self):
        with pytest.raises(ValueError, match="permutation"):
            LocalOperator("X", source=[0, 1, 1], phases=np.ones(3))

    def test_refuses_a_source_index_out_of_range(self):
        for source in ([0, 1, 3], [0, -1, 2]):
            with pytest.raises(ValueError, match="permutation"):
                LocalOperator("X", source=source, phases=np.ones(3))

    def test_refuses_a_phase_off_the_unit_circle(self):
        with pytest.raises(ValueError, match="not unitary"):
            LocalOperator("X", source=[1, 0], phases=[1.0, 1 + 1e-6])

    def test_refuses_a_nan_phase(self):
        with pytest.raises(ValueError, match="not unitary"):
            LocalOperator("X", source=[1, 0], phases=[1.0, np.nan])

    def test_refuses_a_matrix_beside_source_and_phases(self):
        with pytest.raises(ValueError, match="takes no matrix"):
            LocalOperator("X", np.eye(2), source=[0, 1], phases=np.ones(2))

    def test_matrix_is_read_only_and_entrywise(self, rng):
        perm = rng.permutation(5)
        phases = np.exp(2j * np.pi * rng.random(5))
        op = LocalOperator("X", source=perm, phases=phases)
        expected = np.zeros((5, 5), dtype=np.complex128)
        for row, col in enumerate(perm):
            expected[row, col] = phases[row]
        assert np.array_equal(op.matrix, expected)
        assert op.matrix is op.matrix
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 2.0

    def test_step1_operator_stays_small_until_its_matrix_is_read(self):
        f = FunctionTable(64, 64, tuple(range(64)))  # M = n_f = 64, so d = 4096
        tracemalloc.start()
        try:
            op = step1_operator(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.dim == 4096
        assert peak < 1 << 20  # the dense matrix would take 256 MiB


class TestMeasurement:
    def test_probabilities_sum_to_one(self, rng):
        state = random_state((3, 4), ("A", "B"), rng)
        probs = measurement_probabilities(state, "B")
        assert probs.shape == (4,)
        assert abs(probs.sum() - 1.0) <= 1e-12

    def test_bell_measurement_is_unbiased(self):
        # Maximal entanglement: both outcomes 1/2 and the rest collapses along.
        probs = measurement_probabilities(bell_pair(), "A")
        assert_allclose(probs, [0.5, 0.5], atol=1e-12)
        prob, post = collapse(bell_pair(), "A", 1)
        assert abs(prob - 0.5) <= 1e-12
        assert post.dims == (1, 2)
        assert_allclose(post.amps, [0, 1], atol=1e-12)

    def test_collapse_zero_branch(self):
        prob, post = collapse(basis_state((2, 2), ("A", "B"), (0, 0)), "A", 1)
        assert prob == 0.0 and post is None

    def test_collapse_out_of_range(self):
        with pytest.raises(ValueError):
            collapse(basis_state((2,), ("A",), (0,)), "A", 5)

    def test_measure_seeded_reproducibility(self):
        state = bell_pair()
        first_outcome, first_post = measure_computational(state, "A", 99)
        second_outcome, second_post = measure_computational(state, "A", 99)
        assert first_outcome == second_outcome
        assert_allclose(first_post.amps, second_post.amps)

    def test_measure_record_contents(self):
        outcome, post = measure_computational(basis_state((3,), ("A",), (2,)), "A", 0)
        assert outcome == 2
        assert post.dims == (1,)
        assert_allclose(post.amps, [1.0], atol=1e-12)

    def test_measure_statistics(self):
        gen = np.random.default_rng(5)
        counts = np.zeros(2)
        for _ in range(400):
            counts[measure_computational(bell_pair(), "A", gen)[0]] += 1
        assert abs(counts[0] / 400 - 0.5) < 0.15


class TestDensityAndEntropy:
    def test_partial_trace_properties(self, rng):
        state = random_state((2, 3, 2), ("A", "B", "C"), rng)
        rho = partial_trace(state, {"B"})
        assert rho.shape == (3, 3)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert_allclose(rho, rho.conj().T, atol=1e-12)
        eigenvalues = np.linalg.eigvalsh(rho)
        assert eigenvalues.min() >= -1e-12

    def test_partial_trace_bell(self):
        rho = partial_trace(bell_pair(), {"A"})
        assert_allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_partial_trace_requires_proper_subset(self):
        with pytest.raises(ValueError):
            partial_trace(bell_pair(), {"A", "B"})
        with pytest.raises(KeyError):
            partial_trace(bell_pair(), {"Q"})

    def test_entropy_product_state_is_zero(self):
        state = basis_state((2, 2), ("A", "B"), (1, 0))
        assert entanglement_entropy(state, {"A"}) == 0.0

    def test_entropy_bell_is_one(self):
        assert abs(entanglement_entropy(bell_pair(), {"A"}) - 1.0) <= 1e-12

    def test_entropy_matches_reference(self, rng):
        for _ in range(10):
            state = random_state((3, 4), ("A", "B"), rng)
            ours = entanglement_entropy(state, {"A"})
            ref = ref_entanglement_entropy(state.amps, 3, 4)
            assert abs(ours - ref) <= 1e-10

    def test_entropy_never_negative_zero(self):
        value = entanglement_entropy(basis_state((2, 2), ("A", "B"), (0, 0)), {"A"})
        assert str(value) == "0.0"

    def test_a_cut_of_dimension_one_has_exactly_zero_entropy(self):
        # |amps|^2 rounds to 1 + 4.4e-16 here; the reduced state on A is still [1], a pure state.
        amps = np.full(3, np.sqrt(1 / 3 + 2e-16))
        state = StateVector((1, 3), ("A", "B"), amps)
        assert float(np.vdot(amps, amps).real) != 1.0
        assert str(entanglement_entropy(state, {"A"})) == "0.0"

    def test_a_cut_of_dimension_one_is_not_traced(self, monkeypatch):
        traced = []
        monkeypatch.setattr(quantum, "partial_trace", lambda *args: traced.append(args))
        state = random_state((3, 1, 2, 1), ("A", "a", "B", "b"), 4)
        assert entanglement_entropy(state, {"a"}) == entanglement_entropy(state, ["a", "b"]) == 0.0
        assert traced == []

    @pytest.mark.parametrize("cut, error", [
        (set(), ValueError), ({"a", "A", "b", "B"}, ValueError), ({"a", "x"}, KeyError), ({"x"}, KeyError),
    ])
    def test_an_invalid_cut_is_refused_whatever_its_dimension(self, cut, error):
        state = random_state((1, 1, 1, 1), ("A", "a", "B", "b"), 4)
        with pytest.raises(error, match="keep-set"):
            entanglement_entropy(state, cut)

    def test_fidelity(self, rng):
        state = random_state((4,), ("A",), rng)
        assert abs(fidelity(state, state) - 1.0) <= 1e-12
        other = basis_state((4,), ("A",), (0,))
        expected = abs(state.amps[0]) ** 2
        assert abs(fidelity(other, state) - expected) <= 1e-12


class TestOperatorSchmidt:
    def test_realign_shape_and_entries(self):
        U = np.arange(16, dtype=np.complex128).reshape(4, 4)
        R = realign(U, 2, 2)
        # R[(a, a'), (b, b')] = U[(a, b), (a', b')]
        assert R[0 * 2 + 1, 0 * 2 + 1] == U[0 * 2 + 0, 1 * 2 + 1]
        assert R.shape == (4, 4)

    def test_product_operator_has_rank_one(self, rng):
        for _ in range(5):
            U = np.kron(random_unitary(2, rng), random_unitary(3, rng))
            assert operator_schmidt_rank(U, 2, 3) == 1

    def test_swap_gate_has_full_rank(self):
        swap = np.zeros((4, 4), dtype=np.complex128)
        for i in range(2):
            for j in range(2):
                swap[j * 2 + i, i * 2 + j] = 1.0
        assert operator_schmidt_rank(swap, 2, 2) == 4

    def test_rank_invariant_under_local_unitaries(self, rng):
        base = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        swap = np.zeros((4, 4), dtype=np.complex128)
        for i in range(2):
            for j in range(2):
                swap[j * 2 + i, i * 2 + j] = 1.0
        for U in (base, swap):
            dressed = (
                np.kron(random_unitary(2, rng), random_unitary(2, rng))
                @ U
                @ np.kron(random_unitary(2, rng), random_unitary(2, rng))
            )
            assert operator_schmidt_rank(dressed, 2, 2) == operator_schmidt_rank(U, 2, 2)

    def test_schmidt_values_total_weight(self, rng):
        # Hilbert-Schmidt norm is preserved by realignment: sum of squares = dim.
        U = random_unitary(6, rng)
        values = schmidt_values(U, 2, 3)
        assert abs(np.sum(values**2) - 6.0) <= 1e-9

    def test_rank_counts_values_above_the_relative_cutoff(self, rng):
        U = random_unitary(6, rng)
        assert schmidt_rank(schmidt_values(U, 2, 3)) == operator_schmidt_rank(U, 2, 3) == 4
        assert schmidt_rank(np.array([1e-20, 1e-31, 0.0])) == 1  # scale-free
        assert schmidt_rank(np.array([1.0, 0.5e-10])) == 1
        assert schmidt_rank(np.zeros(4)) == 0

    def test_rank_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            operator_schmidt_rank(np.ones((4, 4)), 2, 2)

    def test_rank_rejects_nan_matrix(self):
        with pytest.raises(ValueError, match="not unitary"):
            operator_schmidt_rank(np.full((4, 4), np.nan), 2, 2)
