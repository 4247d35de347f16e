"""Distributed protocol: step operators, state evolution, transcripts, ledger."""

import errno
import hashlib
import json
import mmap
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracle_locc import locc
from oracle_locc.locc import (
    BASIS_STATE_TOL,
    OWNERS,
    _FRESH_PAGES_BYTES,
    LocalParties,
    _initial_support,
    _pair_entropy,
    SUBSYSTEM_ORDER,
    _with_ancillas,
    ab_substate,
    authorized,
    build_locc_script,
    build_step_operator,
    deferred_operators,
    execute_script,
    initial_state,
    make_ledger,
    run_bytes,
    run_locc,
    run_locc_all_branches,
    run_locc_deferred,
    step1_operator,
    step3_operator,
    step4_operator,
    step5_operator,
    step7_operator,
    wire_bits,
)
from oracle_locc.oracle import (
    FunctionTable,
    apply_oracle,
    build_partition,
    constant_table,
    identity_table,
)
from oracle_locc.quantum import (
    KeyedState,
    apply_local,
    collapse,
    fidelity,
    StateVector,
    from_amps,
    measure_computational,
    measurement_probabilities,
    random_state,
    reorder,
    tensor,
)

from conftest import (
    BLOCK_ULPS,
    dense_form,
    exhaustive_tables,
    max_ulps,
    random_table,
    ref_dft,
    ref_partition,
)

WALK_CASES = [
    identity_table(2),
    constant_table(2, 3),
    FunctionTable(3, 3, (1, 2, 0)),
    FunctionTable(4, 3, (2, 0, 2, 1)),
    FunctionTable(3, 2, (1, 1, 0)),
]


def reference_final_state(f, input_state, r, s):
    """Final state predicted without running the protocol: oracle result with ancillas |r>, |s>."""
    n = build_partition(f).n_values
    oracle_out = apply_oracle(f, reorder(input_state, ("A", "B")))
    anc_a = np.zeros(n, dtype=np.complex128)
    anc_a[r] = 1.0
    anc_b = np.zeros(n, dtype=np.complex128)
    anc_b[s] = 1.0
    joined = tensor([oracle_out, from_amps((n,), ("a",), anc_a), from_amps((n,), ("b",), anc_b)])
    return reorder(joined, SUBSYSTEM_ORDER)


def forked_branches(f, input_state):
    """Every branch as (r, s, probability, state), forking the state on each measured outcome.

    The reference for the deferred-measurement walk: it runs the script as
    run_locc does, but continues every outcome of each measure step.  Each
    state has both ancillas measured, at dimension 1.
    """
    parties = LocalParties(f)
    branches = [(initial_state(f, input_state), 1.0, {})]  # (state, probability, values)
    for step in build_locc_script(f):
        if step.action == "apply":
            branches = [
                (parties.apply(step, state, values.get(step.depends_on)), prob, values)
                for state, prob, values in branches
            ]
        elif step.action == "measure":
            label = step.targets[0]
            forks = []
            for state, prob, values in branches:
                for outcome in range(state.dim_of(label)):
                    weight, post = collapse(state, label, outcome)
                    assert post is not None, f"branch {values}, {step.value}={outcome} is empty"
                    forks.append((post, prob * weight, {**values, step.value: outcome}))
            branches = forks
    return [(values["r"], values["s"], prob, state) for state, prob, values in branches]


def class_index_map(f):
    _, classes = ref_partition(f)
    return {x: k for k, cls in enumerate(classes) for x in cls}


def build_stage(f, c, stage, r=None, s=None):
    """Expected amplitudes (A, a, B, b flat) at a named point of the run.

    Derived from the protocol algebra by explicit loops over basis states,
    independent of the package's operator machinery.  c is the M x N input
    amplitude table.
    """
    n = len(set(f.table))
    k_of = class_index_map(f)
    out = np.zeros((f.M, n, f.N, n), dtype=np.complex128)
    for x in range(f.M):
        k = k_of[x]
        shifted = lambda y: (y + f.table[x]) % f.N
        for y in range(f.N):
            amp = c[x, y]
            if stage == "initial":
                for j in range(n):
                    out[x, j, y, j] += amp / np.sqrt(n)
            elif stage == "after1":
                for j in range(n):
                    out[x, (j + k) % n, y, j] += amp / np.sqrt(n)
            elif stage == "after2":
                out[x, r, y, (r - k) % n] += amp
            elif stage == "after3":
                out[x, r, y, k] += amp
            elif stage == "after4":
                out[x, r, shifted(y), k] += amp
            elif stage == "after5":
                for t in range(n):
                    out[x, r, shifted(y), t] += amp * np.exp(2j * np.pi * k * t / n) / np.sqrt(n)
            elif stage == "after6":
                out[x, r, shifted(y), s] += amp * np.exp(2j * np.pi * k * s / n)
            elif stage == "after7":
                out[x, r, shifted(y), s] += amp
            else:
                raise AssertionError(f"unknown stage {stage}")
    return out.reshape(-1)


def surviving(f, full, r, s=None):
    """The part of a full (A, a, B, b) stage that a state with a (and b) measured keeps.

    Every other amplitude of the stage must be zero: the measured ancilla
    holds nothing that the collapsed state, with it at dimension 1, drops.
    """
    n = len(set(f.table))
    full = full.reshape(f.M, n, f.N, n)
    index = (slice(None), slice(r, r + 1), slice(None), slice(None) if s is None else slice(s, s + 1))
    rest = np.ones(full.shape, dtype=bool)
    rest[index] = False
    assert_allclose(full[rest], 0, rtol=0, atol=1e-12)
    return full[index]


class TestStepOperators:
    def test_step1_permutes_ancilla_by_class_index(self):
        f = FunctionTable(4, 3, (2, 0, 2, 1))
        n = 3
        mat = step1_operator(f).matrix
        k_of = class_index_map(f)
        expected = np.zeros((4 * n, 4 * n), dtype=np.complex128)
        for x in range(4):
            for j in range(n):
                expected[x * n + (j + k_of[x]) % n, x * n + j] = 1.0
        assert_allclose(mat, expected, atol=0)

    def test_step3_is_an_involution(self):
        f = FunctionTable(4, 4, (0, 1, 2, 3))
        for r in range(4):
            W = step3_operator(f, r).matrix
            assert_allclose(W @ W, np.eye(4), atol=0)
            for j in range(4):
                assert W[(r - j) % 4, j] == 1.0

    def test_step4_shifts_target_by_class_value(self):
        f = FunctionTable(3, 4, (3, 1, 3))
        values, _ = ref_partition(f)
        n = len(values)
        mat = step4_operator(f).matrix
        expected = np.zeros((4 * n, 4 * n), dtype=np.complex128)
        for k, v in enumerate(values):
            for y in range(4):
                expected[((y + v) % 4) * n + k, y * n + k] = 1.0
        assert_allclose(mat, expected, atol=0)

    def test_step5_is_the_fourier_matrix(self):
        f = FunctionTable(4, 4, (0, 1, 2, 3))
        assert_allclose(step5_operator(f).matrix, ref_dft(4), atol=1e-12)

    def test_step7_phases_follow_class_index(self):
        f = FunctionTable(4, 3, (1, 0, 1, 2))
        n = 3
        k_of = class_index_map(f)
        for s in range(n):
            mat = step7_operator(f, s).matrix
            expected = np.diag(
                [np.exp(-2j * np.pi * k_of[x] * s / n) for x in range(4)]
            )
            assert_allclose(mat, expected, atol=1e-12)

    def test_step1_and_step7_equal_the_per_class_construction(self, rng):
        # Membership from searchsorted and a loop over the classes, not from
        # Partition.level; the arrays must agree byte for byte.
        tables = [random_table(rng, 9, 9) for _ in range(40)]
        tables.append(FunctionTable(64, 64, tuple(int(v) for v in rng.permutation(64))))
        for f in tables:
            values, classes = ref_partition(f)
            n = len(values)
            level = np.searchsorted(values, f.table)
            x, j = np.divmod(np.arange(f.M * n), n)
            assert step1_operator(f).source.tobytes() == (x * n + (j - level[x]) % n).tobytes()
            for s in range(n):
                phases = np.zeros(f.M, dtype=np.complex128)
                for k, cls in enumerate(classes):
                    phases[cls] = np.exp(-2j * np.pi * k * s / n)
                assert step7_operator(f, s).phases.tobytes() == phases.tobytes()

    def test_builder_registry_round_trip(self):
        f = FunctionTable(3, 2, (0, 1, 0))
        assert_allclose(
            build_step_operator(f, "step1_controlled_shift").matrix,
            step1_operator(f).matrix, atol=0,
        )
        assert_allclose(
            build_step_operator(f, "step3_bob_shift", 1).matrix,
            step3_operator(f, 1).matrix, atol=0,
        )
        assert_allclose(
            build_step_operator(f, "step7_phase_fix", 0).matrix,
            step7_operator(f, 0).matrix, atol=0,
        )
        with pytest.raises(KeyError):
            build_step_operator(f, "step9_nonsense")
        with pytest.raises(ValueError, match="classical value"):
            build_step_operator(f, "step3_bob_shift")


class TestIntermediateStates:
    @pytest.mark.parametrize("f", WALK_CASES, ids=lambda f: f"M{f.M}N{f.N}-" + "".join(map(str, f.table)))
    def test_every_stage_matches_independent_algebra(self, f):
        rng = np.random.default_rng(1000 + f.M * 10 + f.N)
        inp = random_state((f.M, f.N), ("A", "B"), rng)
        c = inp.tensor_view()
        n = build_partition(f).n_values

        def check(state, name, r, s=None):
            expected = surviving(f, build_stage(f, c, name, r=r, s=s), r, s)
            assert_allclose(state.tensor_view(), expected, atol=1e-12)

        state0 = initial_state(f, inp)
        assert_allclose(state0.amps, build_stage(f, c, "initial"), atol=1e-12)
        state1 = apply_local(state0, step1_operator(f))
        assert_allclose(state1.amps, build_stage(f, c, "after1"), atol=1e-12)

        for r in range(n):
            prob_r, state2 = collapse(state1, "a", r)
            assert abs(prob_r - 1.0 / n) <= 1e-12
            check(state2, "after2", r)
            state3 = apply_local(state2, step3_operator(f, r))
            check(state3, "after3", r)
            state4 = apply_local(state3, step4_operator(f))
            check(state4, "after4", r)
            state5 = apply_local(state4, step5_operator(f))
            check(state5, "after5", r)

            for s in range(n):
                prob_s, state6 = collapse(state5, "b", s)
                assert abs(prob_s - 1.0 / n) <= 1e-12
                check(state6, "after6", r, s)
                state7 = apply_local(state6, step7_operator(f, s))
                check(state7, "after7", r, s)
                assert_allclose(
                    state7.tensor_view(),
                    surviving(f, reference_final_state(f, inp, r, s).amps, r, s), atol=1e-12,
                )

    def test_initial_state_layout(self):
        f = FunctionTable(3, 2, (0, 1, 1))  # n_f = 2
        inp = random_state((3, 2), ("A", "B"), np.random.default_rng(7))
        state = initial_state(f, inp)
        assert state.labels == SUBSYSTEM_ORDER
        assert state.dims == (3, 2, 2, 2)
        expected = np.zeros((3, 2, 2, 2), dtype=np.complex128)
        for x, j, y in np.ndindex(3, 2, 2):
            expected[x, j, y, j] = inp.tensor_view()[x, y] / np.sqrt(2)
        assert_allclose(state.tensor_view(), expected, rtol=0, atol=1e-15)


class TestMeasuredAncillasLeaveTheState:
    def test_steps_after_a_measurement_see_that_ancilla_at_dimension_1(self):
        class Spy(LocalParties):
            def __init__(self, f):
                super().__init__(f)
                self.seen = {}

            def apply(self, step, state, value):
                self.seen[step.step] = (state.dim_of("a"), state.dim_of("b"))
                return super().apply(step, state, value)

        f = FunctionTable(4, 3, (2, 0, 2, 1))  # n_f = 3
        inp = random_state((4, 3), ("A", "B"), np.random.default_rng(11))
        spy = Spy(f)
        final, transcript = execute_script(f, inp, 4, spy)
        assert spy.seen == {1: (3, 3), 3: (1, 3), 4: (1, 3), 5: (1, 3), 7: (1, 1)}
        assert final.dims == (4, 3, 3, 3)
        assert_allclose(
            final.amps, reference_final_state(f, inp, transcript.r, transcript.s).amps, atol=1e-12
        )


class Recorder(LocalParties):
    """LocalParties that keeps, by step number, the state each apply step is given and the one it returns."""

    def __init__(self, f):
        super().__init__(f)
        self.given, self.made = {}, {}

    def apply(self, step, state, value):
        self.given[step.step] = state
        self.made[step.step] = super().apply(step, state, value)
        return self.made[step.step]


def walk(f, state, seed, parties):
    """The script's applies (through parties) and measures from state: (values, the state after step 7)."""
    rng = np.random.default_rng(seed)
    values = {}
    for step in build_locc_script(f):
        if step.action == "apply":
            state = parties.apply(step, state, values.get(step.depends_on))
        elif step.action == "measure":
            values[step.value], state = measure_computational(state, step.targets[0], rng)
    return values, state


def dense_walk(f, input_state, seed):
    """run_locc's walk from the dense initial_state: (r, s, final amps, the Recorder of its applies).

    Every apply goes through LocalParties and each measure through
    measure_computational with run_locc's seeded generator; the final
    amplitudes put the A, B slice back beside the ancillas in |r>, |s>.
    """
    parties = Recorder(f)
    values, state = walk(f, initial_state(f, input_state), seed, parties)
    n = build_partition(f).n_values
    final = np.zeros((f.M, n, f.N, n), dtype=np.complex128)
    final[:, values["r"], :, values["s"]] = state.tensor_view()[:, 0, :, 0]
    return values["r"], values["s"], final, parties


def n_valued_table(M, n_f, rng):
    """A table Z_M -> Z_M that takes exactly n_f distinct values."""
    values = rng.choice(M, size=n_f, replace=False)
    picks = np.concatenate([np.arange(n_f), rng.integers(0, n_f, size=M - n_f)])
    rng.shuffle(picks)
    return FunctionTable(M, M, tuple(int(values[k]) for k in picks))


class TestSupportPath:
    """run_locc holds the state keyed by b until b is measured, at the dense walk's bits until step 5."""

    @pytest.mark.parametrize("M, n_f", [(32, 32), (64, 17)])
    def test_run_locc_equals_the_dense_walk_bit_for_bit(self, M, n_f):
        rng = np.random.default_rng(M * n_f)
        f = n_valued_table(M, n_f, rng)
        inp = random_state((M, M), ("A", "B"), rng)
        for seed in (0, 1):
            final, transcript, _ = run_locc(f, inp, seed)
            keyed = Recorder(f)
            assert execute_script(f, inp, seed, keyed)[0].amps.tobytes() == final.amps.tobytes()
            r, s, expected, dense = dense_walk(f, inp, seed)
            assert (transcript.r, transcript.s) == (r, s)
            # Steps 1, 3 and 4 and the measurement of a give the dense walk's bits.
            before = keyed.given[5]
            assert dense_form(before).amps.tobytes() == dense.given[5].amps.tobytes()
            # Step 5 keeps the DFT as a factor: one rounded product per amplitude where the dense
            # walk's matmul sums zeros too, so only step 5's output and what follows it are
            # held to a bound.
            U = step5_operator(f).matrix
            product = before.amps[before.at][:, :, None] * U[:, before.key].T[:, None, :]
            assert dense_form(keyed.made[5]).amps.tobytes() == product.tobytes()
            assert max_ulps(product, dense.made[5].amps) <= BLOCK_ULPS
            assert max_ulps(final.amps, expected) <= BLOCK_ULPS

    def test_steps_1_to_5_see_the_keyed_state(self):
        f = FunctionTable(4, 3, (2, 0, 2, 1))
        spy = Recorder(f)
        execute_script(f, random_state((4, 3), ("A", "B"), np.random.default_rng(2)), 3, spy)
        assert {step: type(state) for step, state in spy.given.items()} == {
            1: KeyedState, 3: KeyedState, 4: KeyedState, 5: KeyedState, 7: StateVector}
        # Step 6 measures the keyed state that step 5 made, its DFT kept as a factor, and step 7
        # gets the StateVector that measurement returns.
        assert spy.made[5].factor is not None and spy.made[5].factor.matrix is step5_operator(f).matrix
        assert spy.given[7].dims == (4, 1, 3, 1)

    def test_peak_memory_stays_near_the_returned_state(self):
        rng = np.random.default_rng(32)
        f = n_valued_table(32, 32, rng)
        inp = random_state((32, 32), ("A", "B"), rng)
        tracemalloc.start()
        try:
            final, _, _ = run_locc(f, inp, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert final.amps.nbytes == 16 << 20
        # A dense state before a is measured would double that by itself.
        assert peak < 1.5 * final.amps.nbytes
        assert peak <= run_bytes(32, 32, 32)

    def test_step_1_and_the_measurement_of_a_stay_within_three_keyed_states(self):
        M = 32
        rng = np.random.default_rng(M)
        f = n_valued_table(M, M, rng)
        inp = random_state((M, M), ("A", "B"), rng)
        build_partition(f)  # cached on the table; the trace is of the state alone
        tracemalloc.start()
        try:
            state = apply_local(_initial_support(f, inp), step1_operator(f))
            measure_computational(state, "a", 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Two keyed states and the measurement's squared amplitudes fit in three times the keyed
        # amplitudes' 16 * M * N * n_f bytes; span-long columns or an argsort of M * N * n_f flat
        # indices do not.
        assert peak < 3 * 16 * M**3

    def test_the_measurement_of_a_holds_about_one_copy_of_the_keyed_amplitudes(self):
        M = 32
        rng = np.random.default_rng(M)
        f = n_valued_table(M, M, rng)
        state = apply_local(_initial_support(f, random_state((M, M), ("A", "B"), rng)),
                            step1_operator(f))
        tracemalloc.start()
        try:
            measurement_probabilities(state, "a")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The squared amplitudes are one copy; columns as long as the dense (a, B, b) span are not.
        assert peak < 1.25 * state.amps.nbytes

    def test_a_run_holds_a_few_m_n_arrays_until_the_returned_state(self):
        M = 32
        rng = np.random.default_rng(M)
        f = n_valued_table(M, M, rng)
        inp = random_state((M, M), ("A", "B"), rng)
        build_partition(f), step5_operator(f)  # cached, on the table and per n_f
        tracemalloc.start()
        try:
            _, state = walk(f, _initial_support(f, inp), 5, LocalParties(f))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(state, StateVector) and state.dims == (M, 1, M, 1)
        # From the input to step 7, each array holds M * N amplitudes or M * n_f indices; one
        # M * N * n_f array, as a keyed state copied n_f times or a dense step 5 holds, would
        # take 16 * M * M * M bytes by itself.
        assert peak < 8 * 16 * M * M

    @pytest.mark.parametrize("M, N, n_f", [(32, 32, 32), (128, 4, 4), (16, 128, 16), (128, 16, 16)])
    def test_a_run_stays_within_run_bytes(self, M, N, n_f):
        rng = np.random.default_rng(M + N)
        values = rng.choice(N, size=n_f, replace=False)
        picks = np.concatenate([np.arange(n_f), rng.integers(0, n_f, size=M - n_f)])
        f = FunctionTable(M, N, tuple(int(values[k]) for k in rng.permutation(picks)))
        inp = random_state((M, N), ("A", "B"), rng)
        build_partition(f), step5_operator(f)
        tracemalloc.start()
        try:
            final, _, _ = run_locc(f, inp, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The keyed walk and the returned state's block; its dense form is not built.
        assert "amps" not in vars(final)
        assert peak <= run_bytes(M, N, n_f)

    def test_steps_3_and_4_move_the_m_n_amplitudes_left_once_a_is_measured(self):
        M = 32
        rng = np.random.default_rng(M)
        f = n_valued_table(M, M, rng)
        state = apply_local(_initial_support(f, random_state((M, M), ("A", "B"), rng)),
                            step1_operator(f))
        r, state = measure_computational(state, "a", 7)
        step3, step4 = step3_operator(f, r), step4_operator(f)
        tracemalloc.start()
        try:
            apply_local(apply_local(state, step3), step4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A keyed state holds 16 * M * N bytes of amplitudes here; its dense form, n_f times that.
        assert peak < 4 * 16 * M * M
        assert state.amps.nbytes == 16 * M * M


def resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class TestWithAncillas:
    """The returned state: its block, and its dense form on first read, on fresh zero pages from
    _FRESH_PAGES_BYTES; its norm checked on the block."""

    @pytest.mark.parametrize("M", [8, 32])
    def test_equals_the_zeros_scatter_on_each_side_of_the_threshold(self, M):
        assert (16 * M**4 >= _FRESH_PAGES_BYTES) == (M == 32)
        rng = np.random.default_rng(M)
        ab = random_state((M, M), ("A", "B"), rng).tensor_view()
        state = _with_ancillas(ab, M, 3, 5)
        expected = np.zeros((M, M, M, M), dtype=np.complex128)
        expected[:, 3, :, 5] = ab
        assert state.dims == (M, M, M, M) and state.labels == SUBSYSTEM_ORDER
        assert state.amps.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            state.amps[0] = 1.0

    @pytest.mark.parametrize("M", [8, 32])
    @pytest.mark.parametrize("spoil", [lambda ab: 2 * ab, lambda ab: np.where(ab == ab[0, 0], np.nan, ab)],
                             ids=["norm 4", "NaN"])
    def test_a_block_that_is_not_normalized_is_refused(self, M, spoil):
        ab = spoil(random_state((M, M), ("A", "B"), np.random.default_rng(1)).tensor_view())
        with pytest.raises(ValueError, match="not normalized"):
            _with_ancillas(ab, M, 0, M - 1)

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads Linux's /proc/self/statm")
    def test_a_large_returned_state_is_resident_only_where_written(self):
        M = 64
        f = FunctionTable(M, M, tuple((5 * x + 3) % M for x in range(M)))
        inp = random_state((M, M), ("A", "B"), np.random.default_rng(64))
        run_locc(f, inp, 0)  # the allocator now holds the run's transient arrays
        before = resident_bytes()
        final, _, _ = run_locc(f, inp, 1)
        grown = resident_bytes() - before
        assert final.amps.nbytes == 256 << 20
        assert grown < 32 << 20, f"resident memory grew {grown / 2**20:.0f} MiB"
        hashlib.sha256(final.amps)  # reads every page; a read must not allocate a zero page
        grown = resident_bytes() - before
        assert grown < 32 << 20, f"resident memory grew {grown / 2**20:.0f} MiB after a full read"

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads Linux's /proc/self/statm")
    def test_a_large_run_maps_nothing_until_its_amps_are_read(self, monkeypatch):
        M = 64
        f = FunctionTable(M, M, tuple((5 * x + 3) % M for x in range(M)))
        inp = random_state((M, M), ("A", "B"), np.random.default_rng(64))
        maps = []
        real_mmap = mmap.mmap
        monkeypatch.setattr(mmap, "mmap", lambda *args, **kw: maps.append(args) or real_mmap(*args, **kw))
        run_locc(f, inp, 0)  # the allocator now holds the run's transient arrays
        before = resident_bytes()
        final, transcript, _ = run_locc(f, inp, 1)
        grown = resident_bytes() - before
        assert grown < 1 << 20, f"resident memory grew {grown / 2**20:.2f} MiB"
        assert maps == [] and "amps" not in vars(final)
        assert isinstance(final, StateVector) and final.dims == (M, M, M, M)
        block = final.block
        expected = np.zeros((M, M, M, M), dtype=np.complex128)
        expected[:, transcript.r, :, transcript.s] = block
        assert hashlib.sha256(final.amps).digest() == hashlib.sha256(expected).digest()
        assert maps == [(-1, 256 << 20)]
        for view in (final.amps, final.tensor_view()):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 1.0
        assert final.amps is final.amps  # built once

    def test_threads_reading_the_dense_form_first_get_the_same_bytes(self):
        ab = random_state((32, 32), ("A", "B"), np.random.default_rng(3)).tensor_view()
        expected = np.zeros((32, 32, 32, 32), dtype=np.complex128)
        expected[:, 4, :, 9] = ab
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                state = _with_ancillas(ab, 32, 4, 9)
                read = []
                threads = [threading.Thread(target=lambda: read.append(state.amps)) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert [a.tobytes() == expected.tobytes() for a in read] == [True] * 4
        finally:
            sys.setswitchinterval(interval)

    def test_a_map_the_kernel_refuses_is_one_memory_error_naming_the_bytes(self, monkeypatch):
        def refuse(*args, **kw):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(mmap, "mmap", refuse)
        ab = random_state((32, 32), ("A", "B"), np.random.default_rng(3)).tensor_view()
        state = _with_ancillas(ab, 32, 4, 9)  # the block alone: nothing is mapped yet
        assert ab_substate(state).amps.tobytes() == (ab.reshape(-1) / np.linalg.norm(ab)).tobytes()
        with pytest.raises(MemoryError, match=r"needs 16777216 bytes, which the kernel refused") as caught:
            state.amps
        assert not isinstance(caught.value, OSError)


class TestRunLocc:
    def test_constant_function_is_deterministic(self):
        f = constant_table(2, 2, value=1)
        inp = random_state((2, 2), ("A", "B"), np.random.default_rng(5))
        final, transcript, ledger = run_locc(f, inp, rng_seed=0)
        assert (transcript.r, transcript.s) == (0, 0)
        assert abs(ledger.ebits_consumed) <= 1e-10
        assert_allclose(final.amps, reference_final_state(f, inp, 0, 0).amps, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_runs_implement_the_oracle(self, seed):
        rng = np.random.default_rng(9000 + seed)
        f = random_table(rng)
        inp = random_state((f.M, f.N), ("A", "B"), rng)
        final, transcript, _ = run_locc(f, inp, rng_seed=seed)
        expected = apply_oracle(f, inp)
        assert fidelity(ab_substate(final), expected) >= 1.0 - 1e-10
        # ancillas hold exactly the reported outcomes
        assert abs(measurement_probabilities(final, "a")[transcript.r] - 1.0) <= 1e-10
        assert abs(measurement_probabilities(final, "b")[transcript.s] - 1.0) <= 1e-10

    def test_bell_input_stays_exact(self):
        f = identity_table(2)
        bell = from_amps((2, 2), ("A", "B"), [1, 0, 0, 1], normalize=True)
        final, transcript, _ = run_locc(f, bell, rng_seed=42)
        assert_allclose(
            final.amps,
            reference_final_state(f, bell, transcript.r, transcript.s).amps,
            atol=1e-12,
        )

    def test_same_seed_reproduces_everything(self):
        f = FunctionTable(3, 3, (1, 2, 0))
        inp = random_state((3, 3), ("A", "B"), np.random.default_rng(11))
        out1 = run_locc(f, inp, rng_seed=123)
        out2 = run_locc(f, inp, rng_seed=123)
        assert_allclose(out1[0].amps, out2[0].amps, atol=0)
        assert out1[1].to_json() == out2[1].to_json()

    def test_accepts_swapped_label_order(self):
        f = FunctionTable(2, 3, (2, 0))
        inp = random_state((3, 2), ("B", "A"), np.random.default_rng(3))
        final, _, _ = run_locc(f, inp, rng_seed=1)
        from oracle_locc.quantum import reorder

        expected = apply_oracle(f, reorder(inp, ("A", "B")))
        assert fidelity(ab_substate(final), expected) >= 1.0 - 1e-10

    def test_rejects_wrong_labels_and_dims(self):
        f = identity_table(2)
        with pytest.raises(ValueError, match="labels"):
            run_locc(f, random_state((2, 2), ("X", "Y"), np.random.default_rng(0)), 0)
        with pytest.raises(ValueError, match="dims"):
            run_locc(f, random_state((3, 2), ("A", "B"), np.random.default_rng(0)), 0)


class TestOutcomeHistory:
    """(r, s) per seed, recorded before the direct and networked runs shared one sampler.

    The cross-transport tests compare the two runners with each other, so
    only a recorded history catches a change in the sampling itself.
    """

    HISTORY = {
        (3, 3, (2, 2, 2)): {0: (0, 0), 1: (0, 0), 3: (0, 0), 5: (0, 0), 7: (0, 0), 11: (0, 0)},
        (3, 3, (1, 2, 0)): {0: (1, 0), 1: (1, 2), 3: (0, 0), 5: (2, 2), 7: (1, 2), 11: (0, 1)},
        (5, 4, (3, 0, 2, 0, 1)): {0: (2, 1), 1: (2, 3), 3: (0, 0), 5: (3, 3), 7: (2, 3), 11: (0, 1)},
    }

    @pytest.mark.parametrize(
        "key", HISTORY, ids=lambda k: f"M{k[0]}N{k[1]}-" + "".join(map(str, k[2]))
    )
    def test_outcomes_per_seed_are_pinned(self, key):
        f = FunctionTable(*key)
        for seed, expected in self.HISTORY[key].items():
            inp = random_state((f.M, f.N), ("A", "B"), np.random.default_rng(seed))
            _, transcript, _ = run_locc(f, inp, seed)
            assert (transcript.r, transcript.s) == expected, f"seed {seed}"


class TestAllBranches:
    def test_branch_counts_and_probabilities(self):
        cases = [
            (constant_table(2, 2), 1),
            (identity_table(2), 2),
            (FunctionTable(3, 3, (0, 1, 2)), 3),
        ]
        for f, n in cases:
            inp = random_state((f.M, f.N), ("A", "B"), np.random.default_rng(0))
            branches = run_locc_all_branches(f, inp)
            assert len(branches) == n * n
            assert [(b.r, b.s) for b in branches] == [
                (r, s) for r in range(n) for s in range(n)
            ]
            for b in branches:
                assert abs(b.probability - 1.0 / n**2) <= 1e-10

    def test_every_branch_implements_the_oracle(self):
        f = FunctionTable(4, 3, (2, 0, 2, 1))
        inp = random_state((4, 3), ("A", "B"), np.random.default_rng(17))
        expected = apply_oracle(f, inp)
        for b in run_locc_all_branches(f, inp):
            assert fidelity(ab_substate(b.final_state), expected) >= 1.0 - 1e-10
            assert_allclose(
                b.final_state.amps,
                reference_final_state(f, inp, b.r, b.s).amps,
                atol=1e-10,
            )

    def test_deferred_branches_equal_the_forked_ones(self):
        rng = np.random.default_rng(31)
        for f in exhaustive_tables(3, 3):
            inp = random_state((f.M, f.N), ("A", "B"), rng)
            n = build_partition(f).n_values
            forked = forked_branches(f, inp)
            branches = run_locc_all_branches(f, inp)
            assert [(b.r, b.s) for b in branches] == [(r, s) for r, s, _, _ in forked]
            for b, (r, s, prob, state) in zip(branches, forked):
                assert abs(b.probability - prob) <= 1e-12
                expected = np.zeros((f.M, n, f.N, n), dtype=np.complex128)
                expected[:, r, :, s] = state.tensor_view()[:, 0, :, 0]
                assert b.final_state.dims == expected.shape
                assert_allclose(b.final_state.tensor_view(), expected, rtol=0, atol=1e-12)

    def test_deferred_operators_stack_each_outcomes_operator(self):
        f = FunctionTable(4, 3, (2, 0, 2, 1))  # n_f = 3
        step1, step3, step4, step5, step7 = deferred_operators(f)
        assert [op.target_labels for op in (step1, step3, step4, step5, step7)] == [
            ("A", "a"), ("a", "b"), ("B", "b"), ("b",), ("b", "A")]
        for plain, built in ((step1, step1_operator(f)), (step4, step4_operator(f)),
                             (step5, step5_operator(f))):
            assert plain.matrix.tobytes() == built.matrix.tobytes()
        for controlled, builder, d in ((step3, step3_operator, 3), (step7, step7_operator, 4)):
            for v in range(3):
                block = builder(f, v)
                rows = slice(v * d, (v + 1) * d)
                assert np.array_equal(controlled.source[rows] - v * d, block.source)
                assert controlled.phases[rows].tobytes() == block.phases.tobytes()

    def test_deferred_walk_keeps_every_branch_scaled_by_its_amplitude(self):
        f = FunctionTable(4, 3, (2, 0, 2, 1))  # n_f = 3
        inp = random_state((4, 3), ("A", "B"), np.random.default_rng(19))
        final = run_locc_deferred(f, inp)
        assert final.labels == SUBSYSTEM_ORDER and final.dims == (4, 3, 3, 3)
        for r, s, prob, state in forked_branches(f, inp):
            assert_allclose(final.tensor_view()[:, r, :, s],
                            np.sqrt(prob) * state.tensor_view()[:, 0, :, 0], rtol=0, atol=1e-12)

    def test_outcome_distribution_ignores_the_input(self):
        f = FunctionTable(3, 2, (0, 1, 1))
        rng = np.random.default_rng(23)
        probs = []
        for _ in range(3):
            inp = random_state((3, 2), ("A", "B"), rng)
            probs.append([b.probability for b in run_locc_all_branches(f, inp)])
        for vec in probs[1:]:
            assert_allclose(vec, probs[0], atol=1e-10)

    def test_outcome_distribution_depends_only_on_level_set_count(self):
        # two different functions with the same number of level sets
        pair = (FunctionTable(2, 2, (0, 1)), FunctionTable(4, 3, (1, 1, 0, 0)))
        dists = []
        for f in pair:
            inp = random_state((f.M, f.N), ("A", "B"), np.random.default_rng(2))
            dists.append([b.probability for b in run_locc_all_branches(f, inp)])
        assert_allclose(dists[0], dists[1], atol=1e-10)
        assert_allclose(dists[0], [0.25] * 4, atol=1e-10)


class TestScriptAndAuthorization:
    def test_script_shape(self):
        script = build_locc_script(identity_table(2))
        assert len(script) == 9
        numbered = [st for st in script if st.step is not None]
        assert [st.step for st in numbered] == [1, 2, 3, 4, 5, 6, 7]
        assert [st.party for st in numbered] == [
            "alice", "alice", "bob", "bob", "bob", "bob", "alice",
        ]
        sends = [st for st in script if st.action == "send"]
        assert [st.operation for st in sends] == ["send_r", "send_s"]
        # r goes out right after Alice's measurement, s right after Bob's
        assert script[2].operation == "send_r" and script[7].operation == "send_s"

    def test_script_dependencies_and_targets(self):
        script = build_locc_script(FunctionTable(3, 2, (0, 1, 0)))
        by_op = {st.operation: st for st in script}
        assert by_op["step3_bob_shift"].depends_on == "r"
        assert by_op["step7_phase_fix"].depends_on == "s"
        assert by_op["step1_controlled_shift"].targets == ("A", "a")
        assert by_op["step4_local_oracle"].targets == ("B", "b")
        for st in script:
            if st.action in ("apply", "measure"):
                assert authorized(st.party, st.targets)

    def test_script_step_one_names_the_representatives(self):
        script = build_locc_script(FunctionTable(4, 2, (1, 0, 1, 0)))
        assert "1, 0" in script[0].description

    def test_authorization_table(self):
        assert authorized("alice", ("A", "a"))
        assert authorized("bob", ("B", "b"))
        assert not authorized("alice", ("B",))
        assert not authorized("bob", ("a", "b"))
        assert not authorized("alice", ("A", "nope"))
        assert OWNERS == {"A": "alice", "a": "alice", "B": "bob", "b": "bob"}


class TestTranscriptAndLedger:
    def run_one(self, f, seed=0):
        inp = random_state((f.M, f.N), ("A", "B"), np.random.default_rng(40))
        return run_locc(f, inp, rng_seed=seed)

    def test_serialized_key_order(self):
        _, transcript, _ = self.run_one(FunctionTable(3, 3, (1, 2, 0)), seed=6)
        data = json.loads(transcript.to_json())
        assert list(data.keys()) == ["f", "seed", "r", "s", "steps", "ledger"]
        assert data["f"] == {"M": 3, "N": 3, "table": [1, 2, 0]}
        assert data["seed"] == 6
        assert [step["step"] for step in data["steps"]] == [1, 2, 3, 4, 5, 6, 7]
        assert set(data["ledger"]) == {
            "ebits_consumed",
            "bits_forward_info",
            "bits_backward_info",
            "bits_forward_wire",
            "bits_backward_wire",
        }

    def test_wire_messages_have_sender_receiver_and_width(self):
        _, transcript, _ = self.run_one(FunctionTable(3, 3, (1, 2, 0)))
        first, second = transcript.messages
        assert (first.sender, first.receiver) == ("alice", "bob")
        assert (second.sender, second.receiver) == ("bob", "alice")
        assert first.value == transcript.r and second.value == transcript.s
        assert first.bits == second.bits == 2

    def test_wire_bits_edge_cases(self):
        assert [wire_bits(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]

    def test_make_ledger_arithmetic(self):
        ledger = make_ledger(3, np.log2(3), 0.0)
        assert abs(ledger.ebits_consumed - np.log2(3)) <= 1e-12
        assert ledger.bits_forward_info == ledger.bits_backward_info == np.log2(3)
        assert ledger.bits_forward_wire == ledger.bits_backward_wire == 2
        zero = make_ledger(1, 0.0, 0.0)
        assert zero.ebits_consumed == 0.0 and zero.bits_forward_wire == 0

    def test_ebits_consumed_is_exactly_the_fresh_pairs_entropy(self):
        # The measured ancilla a leaves a cut of dimension 1, whose entropy is exactly 0.
        for M in (3, 8, 16):
            f = FunctionTable(M, M, tuple((5 * x + 1) % M for x in range(M)))
            inp = random_state((M, M), ("A", "B"), np.random.default_rng(M))
            for seed in range(4):
                _, _, ledger = run_locc(f, inp, rng_seed=seed)
                assert ledger.ebits_consumed == _pair_entropy(M)

    def test_ledger_over_exhaustive_small_tables(self):
        for f in exhaustive_tables(2, 2):
            n = build_partition(f).n_values
            inp = random_state((f.M, f.N), ("A", "B"), np.random.default_rng(1))
            _, _, ledger = run_locc(f, inp, rng_seed=3)
            assert abs(ledger.ebits_consumed - np.log2(n)) <= 1e-10
            assert abs(ledger.bits_forward_info - np.log2(n)) <= 1e-12
            assert ledger.bits_forward_wire == wire_bits(n)

    def test_five_level_sets_need_three_wire_bits(self):
        f = FunctionTable(5, 5, (1, 2, 3, 4, 0))
        _, _, ledger = self.run_one(f)
        assert ledger.bits_forward_wire == 3
        assert abs(ledger.bits_forward_info - np.log2(5)) <= 1e-12
        assert abs(ledger.ebits_consumed - np.log2(5)) <= 1e-10


class TestAbSubstate:
    def test_rejects_entangled_ancilla(self):
        f = identity_table(2)
        inp = random_state((2, 2), ("A", "B"), np.random.default_rng(0))
        with pytest.raises(ValueError, match="basis state"):
            ab_substate(initial_state(f, inp))

    @pytest.mark.parametrize("spread", ["a", "b", "both"])
    def test_rejects_an_ancilla_in_superposition(self, spread):
        # A, B in a product state, so only the ancillas' own superposition
        # keeps them out of a basis state.
        anc = {"a": np.array([1.0, 0, 0]), "b": np.array([0, 1.0, 0])}
        for label in ("a", "b") if spread == "both" else (spread,):
            anc[label] = np.array([0.6, 0, 0.8])
        amps = np.einsum("x,j,y,k->xjyk", [0, 1.0], anc["a"], [1.0, 0], anc["b"])
        state = from_amps((2, 3, 2, 3), SUBSYSTEM_ORDER, amps.reshape(-1))
        with pytest.raises(ValueError, match="not in a basis state"):
            ab_substate(state)

    def test_returns_the_slice_of_the_ancillas_basis_states(self):
        f = FunctionTable(3, 3, (2, 0, 2))
        inp = random_state((3, 3), ("A", "B"), np.random.default_rng(5))
        final, transcript, _ = run_locc(f, inp, 4)
        sliced = final.tensor_view()[:, transcript.r, :, transcript.s]
        expected = from_amps((3, 3), ("A", "B"), sliced.reshape(-1), normalize=True)
        assert ab_substate(final).amps.tobytes() == expected.amps.tobytes()

    def test_a_runs_returned_state_gives_its_block_without_the_dense_form(self, monkeypatch):
        monkeypatch.setattr(locc._BlockState, "amps", property(lambda state: pytest.fail("densified")))
        for M, n_f, seed in [(3, 2, 4), (8, 5, 0), (32, 32, 1)]:
            f = n_valued_table(M, n_f, np.random.default_rng(M))
            inp = random_state((M, M), ("A", "B"), np.random.default_rng(seed))
            final, transcript, _ = run_locc(f, inp, seed)
            sliced = final.block  # the dense form's [:, r, :, s] slice, by bits (TestWithAncillas)
            expected = from_amps((M, M), ("A", "B"), sliced.reshape(-1), normalize=True)
            assert ab_substate(final).amps.tobytes() == expected.amps.tobytes()
            assert fidelity(ab_substate(final), apply_oracle(f, inp)) > 1 - 1e-12

    def test_tolerance_is_tight(self):
        assert BASIS_STATE_TOL == 1e-10
