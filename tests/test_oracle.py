"""Function tables, partitions, oracle matrices, phase algebra, Schmidt form."""

import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from oracle_locc import oracle
from oracle_locc.oracle import (
    FunctionTable,
    apply_oracle,
    build_partition,
    check_local_equivalence,
    class_projectors,
    constant_table,
    identity_table,
    minimal_oracle,
    oracle_matrix,
    phase_exponential,
    phase_states,
    schmidt_decompose_oracle,
)
from oracle_locc.quantum import basis_state, operator_schmidt_rank, random_state, reorder

from conftest import (
    exhaustive_permutations,
    exhaustive_tables,
    random_table,
    ref_global_apply,
    ref_minimal_oracle,
    ref_oracle_matrix,
    ref_partition,
    shift_matrix,
)

# Strategy: a function table with M in 1..4, N in 1..4.
tables_strategy = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=m, max_size=m).map(
            lambda t: FunctionTable(m, n, tuple(t))
        )
    )
)


def phase_operator(N: int) -> np.ndarray:
    """Hermitian phase observable with eigenvalue 2*pi*n/N on phase state n."""
    states = phase_states(N)
    angles = 2.0 * np.pi * np.arange(N) / N
    return (states.T * angles) @ states.conj()


class TestFunctionTable:
    def test_basic_properties(self):
        f = FunctionTable(3, 2, (0, 1, 1))
        assert f.M == 3 and f.N == 2
        assert f(2) == 1
        assert not f.is_permutation()
        assert identity_table(3).is_permutation()
        assert not FunctionTable(2, 2, (0, 0)).is_permutation()

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError, match="entries"):
            FunctionTable(3, 2, (0, 1))
        with pytest.raises(ValueError, match="codomain"):
            FunctionTable(2, 2, (0, 2))
        with pytest.raises(ValueError, match="positive"):
            FunctionTable(0, 1, ())

    def test_json_round_trip(self):
        f = FunctionTable(3, 4, (2, 0, 2))
        again = FunctionTable.from_json(f.to_json())
        assert (again.M, again.N, again.table) == (3, 4, (2, 0, 2))

    def test_json_rejects_extra_or_missing_keys(self):
        with pytest.raises(ValueError, match="exactly"):
            FunctionTable.from_json('{"M": 1, "N": 1, "table": [0], "extra": 1}')
        with pytest.raises(ValueError, match="exactly"):
            FunctionTable.from_json('{"M": 1, "N": 1}')

    def test_json_rejects_wrong_types(self):
        with pytest.raises(ValueError):
            FunctionTable.from_json('{"M": "1", "N": 1, "table": [0]}')
        with pytest.raises(ValueError):
            FunctionTable.from_json('{"M": 1, "N": 1, "table": [0.5]}')
        with pytest.raises(ValueError):
            FunctionTable.from_json('{"M": true, "N": 1, "table": [0]}')
        with pytest.raises(ValueError):
            FunctionTable.from_json('[1, 2]')

    def test_sha256_distinguishes_tables(self):
        a = FunctionTable(2, 2, (0, 1)).sha256()
        b = FunctionTable(2, 2, (1, 0)).sha256()
        assert a != b
        assert a == FunctionTable(2, 2, (0, 1)).sha256()


class TestPartition:
    @given(tables_strategy)
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_grouping(self, f):
        partition = build_partition(f)
        ref_values, ref_classes = ref_partition(f)
        assert partition.n_values == len(ref_values) == len(set(f.table))
        assert list(partition.values) == ref_values
        assert list(partition.sizes) == [len(c) for c in ref_classes]
        assert list(partition.reps) == [min(c) for c in ref_classes]

    @given(tables_strategy)
    @settings(max_examples=80, deadline=None)
    def test_level_is_read_only_class_membership(self, f):
        partition = build_partition(f)
        _, ref_classes = ref_partition(f)
        membership = {x: j for j, cls in enumerate(ref_classes) for x in cls}
        assert partition.level.tolist() == [membership[x] for x in range(f.M)]
        with pytest.raises(ValueError, match="read-only"):
            partition.level[0] = 0
        # Every other field is Python ints, so reports built from it serialise.
        json.dumps([partition.n_values, partition.values, partition.sizes, partition.reps])

    @given(tables_strategy)
    @settings(max_examples=50, deadline=None)
    def test_classes_partition_the_domain(self, f):
        partition = build_partition(f)
        assert np.bincount(partition.level).tolist() == list(partition.sizes)
        assert sum(partition.sizes) == f.M
        assert partition.n_values <= min(f.M, f.N)

    def test_partition_is_cached_per_table_object(self, rng):
        for _ in range(20):
            f = random_table(rng, 6, 6)
            partition = build_partition(f)
            assert build_partition(f) is partition
            fresh = build_partition(FunctionTable(f.M, f.N, f.table))  # another object: built anew
            assert fresh is not partition
            for field in ("n_values", "values", "sizes", "reps"):
                assert getattr(fresh, field) == getattr(partition, field)
            assert np.array_equal(fresh.level, partition.level)

    @pytest.mark.parametrize("M", [1, 5, 64, 4096])
    def test_fields_are_the_bits_of_one_np_unique(self, rng, M):
        # As built before the level sets were dropped as tuples of inputs.
        for N in (1, 3, M, 2 * M):
            f = FunctionTable(M, N, tuple(rng.integers(0, N, size=M).tolist()))
            values, reps, level, sizes = np.unique(
                f.table, return_index=True, return_inverse=True, return_counts=True)
            partition = build_partition(f)
            assert partition.n_values == len(values)
            for field, expected in [("values", values), ("sizes", sizes), ("reps", reps)]:
                got = getattr(partition, field)
                assert got == tuple(expected.tolist()) and all(type(v) is int for v in got)
            assert partition.level.dtype == level.dtype
            assert partition.level.tobytes() == level.tobytes()

    def test_partition_cache_keeps_no_table_alive(self):
        f = FunctionTable(3, 2, (1, 0, 1))
        build_partition(f)
        alive = weakref.ref(f)
        gc.collect()  # so that only f leaves the cache below
        entries = len(oracle._PARTITIONS)
        del f
        gc.collect()
        assert alive() is None
        assert len(oracle._PARTITIONS) == entries - 1

    def test_class_index_lookup(self):
        partition = build_partition(FunctionTable(4, 3, (2, 0, 2, 1)))
        assert partition.values == (0, 1, 2)

    def test_projectors_resolve_identity(self):
        f = FunctionTable(4, 3, (1, 1, 0, 2))
        projectors = class_projectors(f)
        total = sum(projectors)
        assert_allclose(total, np.eye(4), atol=0)
        for P in projectors:
            assert_allclose(P @ P, P, atol=0)

    def test_projectors_match_reference_classes(self, rng):
        for f in [random_table(rng, 8, 8) for _ in range(30)] + list(exhaustive_tables(3, 3)):
            _, ref_classes = ref_partition(f)
            projectors = class_projectors(f)
            assert len(projectors) == len(ref_classes)
            for P, cls in zip(projectors, ref_classes):
                expected = np.diag([1.0 if x in cls else 0.0 for x in range(f.M)]).astype(np.complex128)
                assert P.tobytes() == expected.tobytes()


class TestOracleMatrix:
    def test_exhaustive_small_matches_reference(self, rng):
        for f in list(exhaustive_tables(3, 3)) + [random_table(rng, 8, 8) for _ in range(20)]:
            assert oracle_matrix(f).tobytes() == ref_oracle_matrix(f).tobytes()

    def test_is_permutation_matrix(self):
        for f in exhaustive_tables(3, 3):
            U = oracle_matrix(f)
            assert set(np.unique(U)) <= {0.0 + 0j, 1.0 + 0j}
            assert_allclose(U.sum(axis=0), 1.0, atol=0)
            assert_allclose(U.sum(axis=1), 1.0, atol=0)

    def test_cnot_is_the_one_bit_identity_oracle(self):
        expected = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
        )
        assert_allclose(oracle_matrix(identity_table(2)), expected, atol=0)

    def test_constant_oracle_has_target_period_n(self):
        f = constant_table(3, 4, value=1)
        U = oracle_matrix(f)
        assert_allclose(np.linalg.matrix_power(U, 4), np.eye(12), atol=0)
        assert not np.allclose(np.linalg.matrix_power(U, 2), np.eye(12))

    def test_dense_guard(self):
        with pytest.raises(ValueError, match="cap"):
            oracle_matrix(constant_table(100, 100))


class TestApplyOracle:
    @given(tables_strategy, st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_reference(self, f, seed):
        state = random_state((f.M, f.N), ("A", "B"), np.random.default_rng(seed))
        result = apply_oracle(f, state)
        expected = ref_global_apply(state.amps, (f.M, f.N), ref_oracle_matrix(f), (0, 1))
        assert_allclose(result.amps, expected, atol=1e-12)

    def test_respects_custom_labels_and_axis_order(self, rng):
        # target axis before control axis; labels survive untouched
        f = FunctionTable(2, 3, (2, 1))
        state = random_state((3, 2), ("out", "in"), rng)
        result = apply_oracle(f, state, control="in", target="out")
        assert result.labels == ("out", "in")
        expected = ref_global_apply(
            state.amps, (3, 2), ref_oracle_matrix(f), (1, 0)
        )
        assert_allclose(result.amps, expected, atol=1e-12)

    def test_matches_oracle_matrix_with_registers_on_any_axes(self, rng):
        for _ in range(20):
            f = random_table(rng, max_m=5, max_n=5)
            state = random_state((f.M, f.N), ("A", "B"), rng)
            assert_allclose(apply_oracle(f, state).amps, oracle_matrix(f) @ state.amps, atol=1e-12)
            # A third register between them, with the target axis before the control axis.
            state = random_state((f.N, 3, f.M), ("B", "m", "A"), rng)
            result = apply_oracle(f, state)
            assert result.labels == ("B", "m", "A")
            slices = reorder(state, ("m", "A", "B")).tensor_view().reshape(3, -1)
            expected = (slices @ oracle_matrix(f).T).reshape(3, f.M, f.N)
            assert_allclose(reorder(result, ("m", "A", "B")).tensor_view(), expected, atol=1e-12)

    def test_dimension_mismatch_errors(self):
        f = FunctionTable(2, 3, (0, 0))
        with pytest.raises(ValueError, match="control"):
            apply_oracle(f, random_state((3, 3), ("A", "B"), np.random.default_rng(0)))
        with pytest.raises(ValueError, match="target"):
            apply_oracle(f, random_state((2, 2), ("A", "B"), np.random.default_rng(0)))

    def test_basis_action(self):
        # |x>|y> -> |x>|y + f(x) mod N> checked entrywise
        f = FunctionTable(3, 4, (1, 0, 3))
        for x in range(3):
            for y in range(4):
                state = basis_state((3, 4), ("A", "B"), (x, y))
                out = apply_oracle(f, state)
                expected_index = x * 4 + (y + f.table[x]) % 4
                assert out.amps[expected_index] == 1.0


class TestPhaseAlgebra:
    def test_phase_states_are_orthonormal(self):
        for N in range(1, 9):
            states = phase_states(N)
            gram = states @ states.conj().T
            assert_allclose(gram, np.eye(N), atol=1e-12)

    def test_phase_operator_spectrum(self):
        for N in (1, 2, 5):
            op = phase_operator(N)
            assert_allclose(op, op.conj().T, atol=1e-12)
            eigenvalues = np.sort(np.linalg.eigvalsh(op))
            assert_allclose(eigenvalues, 2 * np.pi * np.arange(N) / N, atol=1e-10)

    def test_phase_states_diagonalize_operator(self):
        N = 4
        op = phase_operator(N)
        states = phase_states(N)
        for n in range(N):
            assert_allclose(op @ states[n], 2 * np.pi * n / N * states[n], atol=1e-12)

    def test_unit_exponential_is_cyclic_shift(self):
        for N in range(1, 9):
            assert_allclose(phase_exponential(N, 1), shift_matrix(N, 1), atol=1e-12)

    def test_integer_exponential_shifts_by_c(self):
        for N in (2, 3, 5):
            for c in range(N):
                assert_allclose(phase_exponential(N, c), shift_matrix(N, c), atol=1e-12)

    def test_exponentials_compose(self):
        N = 5
        lhs = phase_exponential(N, 1.3) @ phase_exponential(N, 2.4)
        assert_allclose(lhs, phase_exponential(N, 3.7), atol=1e-12)

    def test_exponential_is_unitary_for_fractional_c(self):
        U = phase_exponential(6, 0.37)
        assert_allclose(U @ U.conj().T, np.eye(6), atol=1e-12)


class TestSchmidtForm:
    def test_rank_equals_value_count_exhaustive(self):
        for f in exhaustive_tables(3, 3):
            n_f = build_partition(f).n_values
            assert operator_schmidt_rank(oracle_matrix(f), f.M, f.N) == n_f

    def test_coefficients_are_sqrt_n_times_class_size(self):
        f = FunctionTable(4, 3, (0, 1, 2, 0))
        form = schmidt_decompose_oracle(f)
        assert_allclose(form.coefficients, np.sqrt([3 * 2, 3 * 1, 3 * 1]), atol=1e-12)

    def test_cnot_coefficients(self):
        form = schmidt_decompose_oracle(identity_table(2))
        assert_allclose(form.coefficients, [np.sqrt(2), np.sqrt(2)], atol=1e-12)

    def test_reconstruction_matches_matrix(self):
        for f in exhaustive_tables(3, 3):
            form = schmidt_decompose_oracle(f)
            assert np.max(np.abs(form.reconstruct() - oracle_matrix(f))) <= 1e-10

    def test_operator_families_are_orthonormal(self, rng):
        for _ in range(10):
            f = random_table(rng)
            form = schmidt_decompose_oracle(f)
            a_ops = [t.control_op for t in form.terms]
            b_ops = [t.target_op for t in form.terms]
            for ops in (a_ops, b_ops):
                for i, X in enumerate(ops):
                    for j, Y in enumerate(ops):
                        inner = np.trace(X.conj().T @ Y)
                        assert abs(inner - (1.0 if i == j else 0.0)) <= 1e-12

    def test_numeric_singular_values_match_closed_form(self):
        f = FunctionTable(3, 2, (0, 1, 0))
        from oracle_locc.quantum import schmidt_values

        numeric = schmidt_values(oracle_matrix(f), f.M, f.N)
        closed = np.sort(schmidt_decompose_oracle(f).coefficients)[::-1]
        assert_allclose(numeric[: len(closed)], closed, atol=1e-10)
        assert np.max(numeric[len(closed):], initial=0.0) <= 1e-10


class TestMinimalOracle:
    def test_matrix_action(self):
        f = FunctionTable(3, 3, (1, 2, 0))
        Q = minimal_oracle(f)
        expected = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=np.complex128)
        assert_allclose(Q, expected, atol=0)

    def test_requires_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            minimal_oracle(FunctionTable(2, 2, (0, 0)))

    def test_matches_reference(self, rng):
        perms = [FunctionTable(9, 9, tuple(int(v) for v in rng.permutation(9))) for _ in range(10)]
        for f in list(exhaustive_permutations(4)) + perms:
            assert minimal_oracle(f).tobytes() == ref_minimal_oracle(f).tobytes()

    def test_dressing_identity_all_small_permutations(self):
        for f in exhaustive_permutations(4):
            assert check_local_equivalence(f) <= 1e-10

    def test_dressing_deviation_for_specific_permutation(self):
        assert check_local_equivalence(FunctionTable(4, 4, (2, 0, 3, 1))) <= 1e-10
