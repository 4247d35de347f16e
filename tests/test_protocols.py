"""Capacity protocols: entangle, forward, backward, bidirectional."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from oracle_locc.oracle import (
    FunctionTable,
    build_partition,
    constant_table,
    identity_table,
    oracle_matrix,
)
from oracle_locc.protocols import (
    DECODE_TOL,
    _grading_phases,
    backward_decode_states,
    entangle_protocol,
    representative_superposition,
    send_backward,
    send_bidirectional,
    send_bidirectional_all,
    send_forward,
)
from oracle_locc.quantum import entanglement_entropy, operator_schmidt_rank

from conftest import (
    exhaustive_permutations,
    exhaustive_tables,
    random_table,
    ref_dft,
    ref_oracle_matrix,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)

tables_strategy = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=m, max_size=m).map(
            lambda t: FunctionTable(m, n, tuple(t))
        )
    )
)


class TestEntangle:
    def test_constant_function_yields_nothing(self):
        _, ebits = entangle_protocol(constant_table(3, 3, value=2))
        assert ebits == 0.0

    def test_one_bit_identity_yields_one_ebit(self):
        final, ebits = entangle_protocol(identity_table(2))
        assert abs(ebits - 1.0) <= 1e-10
        assert_allclose(final.amps, [INV_SQRT2, 0.0, 0.0, INV_SQRT2], atol=1e-12)

    def test_three_level_sets_yield_log2_3(self):
        _, ebits = entangle_protocol(FunctionTable(4, 3, (0, 1, 2, 0)))
        assert abs(ebits - np.log2(3)) <= 1e-10

    def test_final_state_built_independently(self):
        f = FunctionTable(4, 3, (2, 0, 2, 1))
        partition = build_partition(f)
        expected = np.zeros(f.M * f.N, dtype=np.complex128)
        for j in range(partition.n_values):
            expected[partition.reps[j] * f.N + partition.values[j]] = 1.0 / np.sqrt(
                partition.n_values
            )
        final, _ = entangle_protocol(f)
        assert_allclose(final.amps, expected, atol=1e-12)

    @given(tables_strategy)
    @settings(max_examples=60, deadline=None)
    def test_ebits_equal_log2_schmidt_rank(self, f):
        _, ebits = entangle_protocol(f)
        rank = operator_schmidt_rank(oracle_matrix(f), f.M, f.N)
        assert abs(ebits - np.log2(rank)) <= 1e-10
        assert ebits <= np.log2(min(f.M, f.N)) + 1e-10

    def test_representative_superposition_support(self):
        f = FunctionTable(4, 2, (1, 1, 0, 1))
        amps = representative_superposition(f)
        assert_allclose(np.abs(amps) ** 2, [0.5, 0.0, 0.5, 0.0], atol=1e-12)


class TestForward:
    def test_point_mass_on_sent_message(self):
        f = FunctionTable(3, 2, (0, 1, 1))
        for r in range(2):
            result = send_forward(f, r)
            assert result.success
            assert result.decoded == r
            expected = np.zeros(2)
            expected[r] = 1.0
            assert_allclose(result.outcome_probabilities, expected, atol=1e-12)

    def test_bob_register_holds_the_function_value(self):
        f = FunctionTable(4, 3, (2, 0, 2, 1))
        partition = build_partition(f)
        for r in range(partition.n_values):
            result = send_forward(f, r)
            target = result.final_state.tensor_view()[partition.reps[r]]
            assert abs(target[partition.values[r]]) == 1.0

    def test_rejects_out_of_range_message(self):
        with pytest.raises(ValueError, match="out of range"):
            send_forward(identity_table(2), 2)

    @given(tables_strategy, st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_always_decodes_exactly(self, f, raw_r):
        n = build_partition(f).n_values
        result = send_forward(f, raw_r % n)
        assert result.success
        assert abs(result.outcome_probabilities[result.decoded] - 1.0) <= 1e-10


class TestBackward:
    def test_trivial_for_constant_function(self):
        result = send_backward(constant_table(2, 2), 0)
        assert result.success and result.decoded == 0

    def test_one_bit_identity_message_one(self):
        # hand computation: graded Bell state picks up a relative minus sign,
        # the oracle call moves it entirely onto Alice's register
        result = send_backward(identity_table(2), 1)
        assert result.success and result.decoded == 1
        assert_allclose(result.final_state.amps, [INV_SQRT2, 0.0, -INV_SQRT2, 0.0], atol=1e-12)
        assert_allclose(result.outcome_probabilities, [0.0, 1.0, 0.0], atol=1e-12)

    def test_three_cycle_all_messages(self):
        f = FunctionTable(3, 3, (1, 2, 0))
        for s in range(3):
            result = send_backward(f, s)
            assert result.success and result.decoded == s
            assert abs(result.outcome_probabilities[s] - 1.0) <= 1e-10

    def test_bob_ends_disentangled_in_zero(self):
        f = FunctionTable(4, 4, (3, 1, 3, 0))
        for s in range(3):
            final = send_backward(f, s).final_state
            assert entanglement_entropy(final, {"B"}) <= 1e-10
            target_probs = np.sum(np.abs(final.tensor_view()) ** 2, axis=0)
            assert abs(target_probs[0] - 1.0) <= 1e-12

    def test_decode_family_is_orthonormal(self):
        for f in exhaustive_tables(3, 3):
            states = backward_decode_states(f)
            gram = states @ states.conj().T
            assert_allclose(gram, np.eye(states.shape[0]), atol=1e-12)

    def test_decode_family_equals_the_per_row_construction(self, rng):
        for f in [random_table(rng, 9, 9) for _ in range(60)] + list(exhaustive_tables(3, 3)):
            reps = list(build_partition(f).reps)
            n = len(reps)
            expected = np.zeros((n, f.M), dtype=np.complex128)
            j = np.arange(n)
            for s_prime in range(n):
                expected[s_prime, reps] = np.exp(2j * np.pi * j * s_prime / n) / np.sqrt(n)
            assert backward_decode_states(f).tobytes() == expected.tobytes()

    def test_grading_unitary_is_diagonal_unitary(self):
        f = FunctionTable(3, 4, (1, 3, 1))
        G = np.diag(_grading_phases(f, 1))
        assert_allclose(G, np.diag(np.diag(G)), atol=0)
        assert_allclose(G @ G.conj().T, np.eye(4), atol=1e-12)

    def test_residual_weight_is_negligible(self):
        for f in exhaustive_tables(3, 3):
            n = build_partition(f).n_values
            for s in range(n):
                result = send_backward(f, s)
                assert result.outcome_probabilities[-1] <= 1e-10

    @given(tables_strategy, st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_always_decodes_exactly(self, f, raw_s):
        n = build_partition(f).n_values
        result = send_backward(f, raw_s % n)
        assert result.success
        assert abs(result.outcome_probabilities[result.decoded] - 1.0) <= 1e-10


def reference_bidirectional_probabilities(f, r, s):
    """Decode probabilities [r', s'] of one (r, s) run, from dense matrices, with no register m."""
    M = f.M
    shared = np.zeros((M, M), dtype=np.complex128)
    for x in range(M):
        shared[x, (M - x) % M] = 1.0 / np.sqrt(M)
    relabel = np.zeros((M, M))
    for i in range(M):
        relabel[i, (f.table[i] - r) % M] = 1.0
    phases = np.diag(np.exp(-2j * np.pi * s * np.arange(M) / M))
    encoded = np.kron(relabel, phases) @ shared.reshape(-1)
    final = np.kron(relabel.T, np.eye(M)) @ ref_oracle_matrix(f) @ encoded
    joint = ref_dft(M).conj() @ final.reshape(M, M)  # [s', r']
    return np.abs(joint.T) ** 2


class TestBidirectional:
    def test_walk_over_every_s_matches_the_per_pair_protocol(self):
        for f in exhaustive_permutations(4):
            for r in range(f.M):
                results = send_bidirectional_all(f, r)
                assert len(results) == f.M
                for s, result in enumerate(results):
                    expected = reference_bidirectional_probabilities(f, r, s)
                    single = send_bidirectional(f, r, s)
                    for probs in (result.outcome_probabilities, single.outcome_probabilities):
                        assert_allclose(probs, expected, rtol=0, atol=1e-12)
                    assert_allclose(result.final_state.amps, single.final_state.amps,
                                    rtol=0, atol=1e-12)
                    assert result.decoded == single.decoded == (r, s)
                    assert result.success and single.success

    def test_walk_over_every_s_rejects_what_a_single_pair_rejects(self):
        with pytest.raises(ValueError, match="permutation"):
            send_bidirectional_all(FunctionTable(2, 2, (0, 0)), 0)
        with pytest.raises(ValueError, match="out of range"):
            send_bidirectional_all(identity_table(2), 2)

    def test_single_point_domain(self):
        result = send_bidirectional(identity_table(1), 0, 0)
        assert result.success and result.decoded == (0, 0)

    def test_one_bit_swap_both_messages_set(self):
        # hand computation: Alice's relabelling collapses to the identity,
        # Bob's phase turns the shared state into a minus-signed Bell state,
        # and the oracle routes the sign to Alice while Bob keeps |r> = |1>
        result = send_bidirectional(FunctionTable(2, 2, (1, 0)), 1, 1)
        assert result.success and result.decoded == (1, 1)
        assert_allclose(result.final_state.amps, [0.0, INV_SQRT2, 0.0, -INV_SQRT2], atol=1e-12)

    def test_every_pair_for_every_three_level_permutation(self):
        three_perms = [f for f in exhaustive_permutations(3) if f.M == 3]
        assert len(three_perms) == 6
        for f in three_perms:
            for r in range(3):
                for s in range(3):
                    result = send_bidirectional(f, r, s)
                    assert result.success and result.decoded == (r, s)
                    assert abs(result.outcome_probabilities[r, s] - 1.0) <= 1e-10

    @pytest.mark.parametrize("M", [5, 8, 13])
    def test_every_pair_for_random_larger_permutations(self, rng, M):
        for _ in range(2):
            f = FunctionTable(M, M, tuple(int(v) for v in rng.permutation(M)))
            for r in range(M):
                for s in range(M):
                    result = send_bidirectional(f, r, s)
                    assert result.success and result.decoded == (r, s)
                    assert abs(result.outcome_probabilities[r, s] - 1.0) <= DECODE_TOL

    def test_probability_matrix_shape_and_normalization(self):
        result = send_bidirectional(FunctionTable(3, 3, (2, 0, 1)), 1, 2)
        assert result.outcome_probabilities.shape == (3, 3)
        assert abs(result.outcome_probabilities.sum() - 1.0) <= 1e-10

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            send_bidirectional(FunctionTable(2, 2, (0, 0)), 0, 0)
        with pytest.raises(ValueError, match="permutation"):
            send_bidirectional(FunctionTable(2, 3, (0, 1)), 0, 0)

    def test_rejects_out_of_range_messages(self):
        with pytest.raises(ValueError, match="out of range"):
            send_bidirectional(identity_table(2), 2, 0)
        with pytest.raises(ValueError, match="out of range"):
            send_bidirectional(identity_table(2), 0, -1)


class TestCapacityConsistency:
    def test_entangle_matches_numeric_rank_exhaustively(self):
        for f in exhaustive_tables(3, 3):
            _, ebits = entangle_protocol(f)
            rank = operator_schmidt_rank(oracle_matrix(f), f.M, f.N)
            assert abs(ebits - np.log2(rank)) <= 1e-10

    def test_forward_and_backward_carry_the_same_alphabet(self, rng):
        for _ in range(10):
            f = random_table(rng)
            n = build_partition(f).n_values
            assert len(send_forward(f, 0).outcome_probabilities) == n
            assert len(send_backward(f, 0).outcome_probabilities) == n + 1
