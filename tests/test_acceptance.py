"""Acceptance gate: the nine go/no-go checks for this package.

Run with `pytest tests/test_acceptance.py -s -v` to see one status line
per criterion.  Every criterion prints its line even when it fails, and
failing lines name the first offending cases.
"""

import json
import subprocess
import time

import numpy as np

from oracle_locc.locc import (
    ab_substate,
    run_locc,
    run_locc_all_branches,
    wire_bits,
)
from oracle_locc.netsim import LocalityViolation, encode_matrix, run_in_process
from oracle_locc.oracle import (
    FunctionTable,
    apply_oracle,
    build_partition,
    check_local_equivalence,
    identity_table,
    oracle_matrix,
    phase_exponential,
    schmidt_decompose_oracle,
)
from oracle_locc.protocols import (
    entangle_protocol,
    send_backward,
    send_bidirectional,
    send_forward,
)
from oracle_locc.quantum import fidelity, operator_schmidt_rank, random_state, realign

from conftest import cli_command, exhaustive_permutations, exhaustive_tables, shift_matrix

from test_netsim import RefereeHarness, drive_alice_to_send_r, step1_payload


def report(number: int, description: str, failures: list, extra: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert not failures, f"criterion {number}: " + "; ".join(str(f) for f in failures[:5])


def test_criterion_1_distributed_runs_reproduce_the_oracle():
    failures = []
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for f in exhaustive_tables(3, 3):
        for _ in range(5):
            inp = random_state((f.M, f.N), ("A", "B"), rng)
            expected = apply_oracle(f, inp)
            for branch in run_locc_all_branches(f, inp):
                fid = fidelity(ab_substate(branch.final_state), expected)
                if fid < 1.0 - 1e-10:
                    failures.append(f"{f} branch ({branch.r},{branch.s}) fidelity {fid}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    report(
        1,
        "every measurement branch matches the direct oracle action "
        "(all tables M,N<=3, 5 random inputs each)",
        failures,
        f"{elapsed:.1f}s",
    )


def test_criterion_2_schmidt_rank_and_reconstruction():
    failures = []
    start = time.perf_counter()
    for f in exhaustive_tables(3, 3):
        U = oracle_matrix(f)
        n = build_partition(f).n_values
        rank = operator_schmidt_rank(U, f.M, f.N)
        if rank != n:
            failures.append(f"{f} numeric rank {rank}, level sets {n}")
        closed = schmidt_decompose_oracle(f).reconstruct()
        if np.max(np.abs(closed - U)) > 1e-10:
            failures.append(f"{f} closed-form reconstruction off")
        # round trip through the realigned SVD as an independent route
        R = realign(U, f.M, f.N)
        u, sv, vh = np.linalg.svd(R, full_matrices=False)
        rebuilt = (u * sv) @ vh
        back = (
            rebuilt.reshape(f.M, f.M, f.N, f.N)
            .transpose(0, 2, 1, 3)
            .reshape(f.M * f.N, f.M * f.N)
        )
        if np.max(np.abs(back - U)) > 1e-10:
            failures.append(f"{f} SVD reconstruction off")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, budget 10s")
    report(
        2,
        "operator Schmidt rank equals the level-set count and both "
        "reconstructions return the oracle matrix",
        failures,
        f"{elapsed:.1f}s",
    )


def test_criterion_3_entangling_capacity():
    failures = []
    for f in exhaustive_tables(3, 3):
        n = build_partition(f).n_values
        _, ebits = entangle_protocol(f)
        if abs(ebits - np.log2(n)) > 1e-10:
            failures.append(f"{f}: {ebits} ebits, expected log2({n})")
        if len(set(f.table)) == 1 and abs(ebits) > 1e-10:
            failures.append(f"constant {f} made {ebits} ebits")
    _, cnot_ebits = entangle_protocol(identity_table(2))
    if abs(cnot_ebits - 1.0) > 1e-10:
        failures.append(f"two-level identity oracle gave {cnot_ebits} ebits, expected 1")
    report(3, "one oracle call creates exactly log2(n_f) ebits", failures)


def test_criterion_4_classical_protocols():
    failures = []

    def check_one_way(f):
        n = build_partition(f).n_values
        for message in range(n):
            fwd = send_forward(f, message)
            if not fwd.success or abs(fwd.outcome_probabilities[message] - 1.0) > 1e-10:
                failures.append(f"forward {f} message {message}")
            bwd = send_backward(f, message)
            if not bwd.success or abs(bwd.outcome_probabilities[message] - 1.0) > 1e-10:
                failures.append(f"backward {f} message {message}")

    for f in exhaustive_tables(3, 3):
        check_one_way(f)
    rng = np.random.default_rng(404)
    random_count = 0
    while random_count < 200:
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        f = FunctionTable(m, n, tuple(int(v) for v in rng.integers(0, n, size=m)))
        check_one_way(f)
        random_count += 1

    permutations = list(exhaustive_permutations(4))
    if len(permutations) != 33:
        failures.append(f"expected 33 permutations of degree <= 4, got {len(permutations)}")
    for f in permutations:
        decoded_pairs = 0
        for r in range(f.M):
            for s in range(f.M):
                result = send_bidirectional(f, r, s)
                if not result.success or abs(result.outcome_probabilities[r, s] - 1.0) > 1e-10:
                    failures.append(f"bidirectional {f} pair ({r},{s})")
                else:
                    decoded_pairs += 1
        if decoded_pairs != f.M**2:  # M^2 distinguishable pairs = 2*log2(M) bits per use
            failures.append(f"{f} decoded only {decoded_pairs} of {f.M ** 2} pairs")
    report(
        4,
        "forward/backward decode exactly (56 exhaustive + 200 random tables) and "
        "bidirectional reaches 2*log2(M) bits on all 33 small permutations",
        failures,
    )


def test_criterion_5_resource_ledger():
    failures = []
    rng = np.random.default_rng(55)
    for f in exhaustive_tables(3, 3):
        n = build_partition(f).n_values
        inp = random_state((f.M, f.N), ("A", "B"), rng)
        _, _, ledger = run_locc(f, inp, rng_seed=int(rng.integers(1 << 16)))
        if abs(ledger.ebits_consumed - np.log2(n)) > 1e-10:
            failures.append(f"{f}: consumed {ledger.ebits_consumed}, expected log2({n})")
        if abs(ledger.bits_forward_info - np.log2(n)) > 1e-12:
            failures.append(f"{f}: forward info {ledger.bits_forward_info}")
        if abs(ledger.bits_backward_info - np.log2(n)) > 1e-12:
            failures.append(f"{f}: backward info {ledger.bits_backward_info}")
        expected_wire = wire_bits(n)
        if (ledger.bits_forward_wire, ledger.bits_backward_wire) != (expected_wire, expected_wire):
            failures.append(f"{f}: wire bits {ledger.bits_forward_wire}/{ledger.bits_backward_wire}")
    report(
        5,
        "every distributed run consumes log2(n_f) ebits and ceil(log2 n_f) "
        "wire bits in each direction",
        failures,
    )


def test_criterion_6_outcome_uniformity_and_independence():
    failures = []
    rng = np.random.default_rng(66)
    by_count: dict[int, list] = {}
    for f in exhaustive_tables(3, 3):
        n = build_partition(f).n_values
        probs = [
            b.probability
            for b in run_locc_all_branches(f, random_state((f.M, f.N), ("A", "B"), rng))
        ]
        if np.max(np.abs(np.array(probs) - 1.0 / n**2)) > 1e-10:
            failures.append(f"{f}: branch distribution not uniform")
        by_count.setdefault(n, []).append((f, probs))
    # same function, different input
    for f, probs in [by_count[2][0], by_count[3][0]]:
        other = [
            b.probability
            for b in run_locc_all_branches(f, random_state((f.M, f.N), ("A", "B"), rng))
        ]
        if np.max(np.abs(np.array(other) - np.array(probs))) > 1e-10:
            failures.append(f"{f}: distribution depends on the input state")
    # different functions, same number of level sets
    for n, group in by_count.items():
        reference = np.array(group[0][1])
        for f, probs in group[1:]:
            if np.max(np.abs(np.array(probs) - reference)) > 1e-10:
                failures.append(f"{f}: distribution differs within the n_f={n} family")
    report(
        6,
        "the (r, s) outcomes are uniform over n_f^2 branches, independent of "
        "the input and of the function within an n_f family",
        failures,
    )


def test_criterion_7_phase_exponential_is_the_cyclic_shift():
    failures = []
    for N in range(1, 9):
        step = phase_exponential(N, 1)
        for y in range(N):
            column = step[:, y]
            expected = np.zeros(N)
            expected[(y + 1) % N] = 1.0
            if np.max(np.abs(column - expected)) > 1e-12:
                failures.append(f"N={N}, y={y}")
        for c in range(N):
            if np.max(np.abs(phase_exponential(N, c) - shift_matrix(N, c))) > 1e-12:
                failures.append(f"N={N}, power {c}")
    report(7, "the phase-operator exponential shifts every basis state by one (N <= 8)", failures)


def test_criterion_8_minimal_oracle_equivalence():
    failures = []
    for f in exhaustive_permutations(4):
        deviation = check_local_equivalence(f)
        if deviation > 1e-10:
            failures.append(f"{f}: deviation {deviation}")
    report(
        8,
        "dressing the identity oracle with the in-place permutation unitary "
        "reproduces the standard oracle (33 permutations)",
        failures,
    )


def _two_process_socket_transcript(table_json: str, seed: int) -> str:
    command, env = cli_command()
    server = subprocess.Popen(
        [*command, "serve", "--f", table_json, "--seed", str(seed), "--port", "0",
         "--timeout", "30"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        announcement = server.stderr.readline()
        port = int(announcement.strip().rsplit(":", 1)[1])
        clients = [
            subprocess.Popen(
                [*command, "connect", "--role", role, "--f", table_json,
                 "--port", str(port), "--timeout", "30"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            )
            for role in ("alice", "bob")
        ]
        for client in clients:
            client.communicate(timeout=90)
            assert client.returncode == 0
        out, _ = server.communicate(timeout=90)
        assert server.returncode == 0
        return out
    finally:
        server.kill()
        server.wait()


def test_criterion_9_transport_independence_and_locality_enforcement():
    failures = []

    # byte-identical transcripts: direct, threaded queues, OS-process sockets
    f = FunctionTable(3, 3, (1, 2, 0))
    table_json = f.to_json()
    for seed in (7, 11):
        inp = random_state((3, 3), ("A", "B"), np.random.default_rng(seed))
        _, direct, _ = run_locc(f, inp, seed)
        _, threaded = run_in_process(f, inp, seed)
        if direct.to_json() != threaded.to_json():
            failures.append(f"seed {seed}: threaded transcript differs")
        socket_out = _two_process_socket_transcript(table_json, seed)
        if socket_out.rstrip("\n") != direct.to_json():
            failures.append(f"seed {seed}: socket transcript differs")

    # every locality violation must be refused with the dedicated error
    def alice_touches_bobs_pair(net):
        net.alice.send("OP_REQUEST", {
            "operation": "step1_controlled_shift", "targets": ["B", "b"],
            "matrix": encode_matrix(np.eye(4)),
        })

    def alice_measures_bobs_ancilla(net):
        net.alice.send("OP_REQUEST", step1_payload(net.f))
        net.alice.send("MEASURE_REQUEST", {"subsystem": "b"})

    def alice_measures_bobs_register(net):
        net.alice.send("OP_REQUEST", step1_payload(net.f))
        net.alice.send("MEASURE_REQUEST", {"subsystem": "B"})

    def bob_applies_to_alices_register(net):
        drive_alice_to_send_r(net)
        net.bob.recv(expect=("CLASSICAL_VALUE",))
        net.bob.send("OP_REQUEST", {
            "operation": "step3_bob_shift", "targets": ["A"],
            "matrix": encode_matrix(np.eye(2)),
        })

    def bob_applies_to_both_of_alices(net):
        drive_alice_to_send_r(net)
        net.bob.recv(expect=("CLASSICAL_VALUE",))
        net.bob.send("OP_REQUEST", {
            "operation": "step3_bob_shift", "targets": ["A", "a"],
            "matrix": encode_matrix(np.eye(4)),
        })

    scenarios = [
        alice_touches_bobs_pair,
        alice_measures_bobs_ancilla,
        alice_measures_bobs_register,
        bob_applies_to_alices_register,
        bob_applies_to_both_of_alices,
    ]
    rejected = 0
    for scenario in scenarios:
        net = RefereeHarness(identity_table(2))
        net.handshake()
        scenario(net)
        error = net.referee_error()
        if isinstance(error, LocalityViolation):
            rejected += 1
        else:
            failures.append(f"{scenario.__name__} raised {type(error).__name__}")
    if rejected != len(scenarios):
        failures.append(f"only {rejected}/{len(scenarios)} violations rejected")

    report(
        9,
        "transcripts are byte-identical across direct, in-process, and "
        "two-process socket transports; locality violations are rejected "
        f"({rejected}/{len(scenarios)})",
        failures,
    )
