"""Command-line interface: verification sweeps, capacity reports, runs.

Subcommands:
  verify      run the invariant suite over exhaustive small function tables
              (plus randomized larger ones) and emit a JSON report
  capacities  per-function capacity report
  run         one seeded protocol run (in-process), transcript/result JSON
  serve       referee side of a two-process socket run
  connect     one party endpoint of a two-process socket run

Exit codes: 0 success, 1 verification or protocol failure, 2 usage or
config error, 3 transport error.  Set ORACLE_LOCC_LOG=DEBUG (or any
logging level name) for progress on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import threading
from pathlib import Path

import numpy as np

from .locc import ab_substate, apply_deferred, deferred_operators, run_bytes, run_locc
from .netsim import (
    DEFAULT_TIMEOUT,
    HandshakeMismatch,
    LocalityViolation,
    ProtocolOrderError,
    TransportError,
    WireFormatError,
    connect_socket,
    run_in_process,
    serve_socket,
)
from .oracle import (
    MAX_DENSE_ORACLE_DIM,
    FunctionTable,
    all_function_tables,
    all_permutations,
    apply_oracle,
    build_partition,
    check_local_equivalence,
    oracle_matrix,
    phase_exponential,
    schmidt_decompose_oracle,
)
from .protocols import (
    backward_decode_states,
    entangle_protocol,
    send_backward,
    send_bidirectional,
    send_bidirectional_all,
    send_forward,
)
from .quantum import fidelity, operator_schmidt_rank, random_state, schmidt_rank, schmidt_values

log = logging.getLogger("oracle_locc")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_TRANSPORT = 3

EXHAUSTIVE_BOUND = 3  # up to here every function table is enumerated
DEVIATION_TOL = 1e-10
MAX_RUN_BYTES = 1 << 30  # the largest locc.run_bytes that run and serve take on


class CliError(Exception):
    """Configuration or usage problem; maps to exit code 2."""


def load_dense_table(source: str) -> FunctionTable:
    """Parse --f for the subcommands that build the dense M*N oracle matrix."""
    f = load_function_table(source)
    if f.M * f.N > MAX_DENSE_ORACLE_DIM:
        raise CliError(f"M*N = {f.M * f.N} exceeds the dense oracle cap of {MAX_DENSE_ORACLE_DIM}")
    return f


def load_function_table(source: str) -> FunctionTable:
    """Parse --f: inline JSON if it looks like an object, else a file path."""
    text = source.strip()
    if not text.startswith("{"):
        path = Path(source)
        if not path.is_file():
            raise CliError(f"function table file not found: {source}")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise CliError(f"cannot read function table file {source}: {exc}") from exc
    try:
        return FunctionTable.from_json(text)
    except (json.JSONDecodeError, ValueError) as exc:
        raise CliError(f"invalid function table: {exc}") from exc


def emit(document: dict | str, out: str | None) -> None:
    text = document if isinstance(document, str) else json.dumps(document, indent=2)
    if out:
        try:
            Path(out).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            raise CliError(f"cannot write --out {out}: {exc}") from exc
    else:
        sys.stdout.write(text + "\n")


# --- verify ---------------------------------------------------------------

class _Check:
    """Accumulates worst-case deviations for one named invariant."""

    def __init__(self, name: str, tolerance: float = DEVIATION_TOL):
        self.name = name
        self.tolerance = tolerance
        self.cases = 0
        self.max_deviation = 0.0

    def record(self, deviation: float, count: int = 1) -> None:
        self.cases += count
        # np.maximum keeps a NaN (max() would drop it), so the check then fails.
        self.max_deviation = float(np.maximum(self.max_deviation, deviation))

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "max_deviation": self.max_deviation,
            "passed": self.passed,
        }


def _sweep_tables(max_m: int, max_n: int, trials: int, rng: np.random.Generator):
    """Exhaustive tables within the small bound, then random larger ones."""
    tables = list(all_function_tables(min(max_m, EXHAUSTIVE_BOUND), min(max_n, EXHAUSTIVE_BOUND)))
    if max_m > EXHAUSTIVE_BOUND or max_n > EXHAUSTIVE_BOUND:
        for _ in range(trials):
            M = int(rng.integers(1, max_m + 1))
            N = int(rng.integers(1, max_n + 1))
            tables.append(FunctionTable(M, N, tuple(int(v) for v in rng.integers(0, N, size=M))))
    return tables


def _decode_deviation(result, expected) -> float:
    """|1 - p(expected)| for a protocol result, or 1 if it decoded anything else."""
    dev = abs(result.outcome_probabilities[expected] - 1.0)
    return dev if result.decoded == expected else max(dev, 1.0)


def _check_tables(tables, rng: np.random.Generator) -> list[_Check]:
    """Six per-table checks in one pass: each table's U, SVD, decode states and operators are built once.

    Two random inputs per table each take one deferred walk; its slice
    [:, r, :, s] is the (r, s) branch, whose probability is the slice's
    weight and whose fidelity with the direct oracle action is
    |<expected|slice>|^2 / weight.
    """
    structure = _Check("oracle_matrix_is_permutation_unitary")
    schmidt = _Check("schmidt_rank_and_reconstruction")
    entangle = _Check("entangle_ebits_equal_log2_n_f")
    forward = _Check("forward_protocol_decodes_exactly")
    backward = _Check("backward_protocol_decodes_exactly")
    locc = _Check("locc_branches_match_direct_oracle")
    for f in tables:
        n = build_partition(f).n_values
        U = oracle_matrix(f)
        unitary_dev = np.max(np.abs(U.conj().T @ U - np.eye(f.M * f.N)))
        entry_dev = np.max(np.abs(U * (1 - U)))  # entries are 0 or 1
        sum_dev = max(np.max(np.abs(U.sum(axis=0) - 1)), np.max(np.abs(U.sum(axis=1) - 1)))
        structure.record(max(unitary_dev, entry_dev, sum_dev))

        form = schmidt_decompose_oracle(f)
        numeric = schmidt_values(U, f.M, f.N)  # descending, min(M, N)^2 of them
        closed = np.zeros_like(numeric)
        closed[: form.rank] = np.sort(form.coefficients)[::-1]
        rank_dev = abs(schmidt_rank(numeric) - form.partition.n_values)
        rebuild_dev = np.max(np.abs(form.reconstruct() - U))
        schmidt.record(max(rank_dev, rebuild_dev, np.max(np.abs(numeric - closed))))

        _, ebits = entangle_protocol(f)
        entangle.record(abs(ebits - np.log2(n)))
        for r in range(n):
            forward.record(_decode_deviation(send_forward(f, r), r))
        decode = backward_decode_states(f)
        backward.record(np.max(np.abs(decode @ decode.conj().T - np.eye(decode.shape[0]))))
        for s in range(n):
            result = send_backward(f, s)
            backward.record(max(_decode_deviation(result, s), result.outcome_probabilities[-1]))

        operators = deferred_operators(f)
        for _ in range(2):
            state = random_state((f.M, f.N), ("A", "B"), rng)
            expected = apply_oracle(f, state).tensor_view()
            branches = apply_deferred(f, state, operators).tensor_view()
            weights = np.einsum("xrys,xrys->rs", branches.conj(), branches).real
            overlaps = np.einsum("xy,xrys->rs", expected.conj(), branches)
            fid_dev = 1.0 - np.abs(overlaps) ** 2 / weights
            prob_dev = np.abs(weights - 1.0 / n**2)
            locc.record(np.max(np.maximum(fid_dev, prob_dev)), count=n * n)
    return [structure, schmidt, entangle, forward, backward, locc]


def _check_bidirectional(max_degree: int) -> _Check:
    check = _Check("bidirectional_protocol_decodes_exactly")
    for f in all_permutations(max_degree):
        for r in range(f.M):
            for s, result in enumerate(send_bidirectional_all(f, r)):
                check.record(_decode_deviation(result, (r, s)))
    return check


def _check_ledger(tables, rng: np.random.Generator) -> _Check:
    """The ledger of one sampled run_locc per table, and that run's final A, B state."""
    check = _Check("resource_ledger_accounting")
    for f in tables:
        n = build_partition(f).n_values
        state = random_state((f.M, f.N), ("A", "B"), rng)
        final, _, ledger = run_locc(f, state, int(rng.integers(1 << 31)))
        info, wire = np.log2(n), (n - 1).bit_length()
        dev = 1.0 - fidelity(ab_substate(final), apply_oracle(f, state))
        dev = max(dev, abs(ledger.ebits_consumed - info), abs(ledger.bits_forward_info - info))
        dev = max(dev, abs(ledger.bits_backward_info - info), abs(ledger.bits_forward_wire - wire))
        check.record(max(dev, abs(ledger.bits_backward_wire - wire)))
    return check


def _check_phase_identity(max_n: int = 8) -> _Check:
    check = _Check("phase_exponential_shifts_basis", tolerance=1e-12)
    for N in range(1, max_n + 1):
        shift = phase_exponential(N, 1)
        for y in range(N):
            target = np.zeros(N, dtype=np.complex128)
            target[(y + 1) % N] = 1.0
            check.record(np.max(np.abs(shift[:, y] - target)))
    return check


def _check_minimal_oracle(max_degree: int = 4) -> _Check:
    check = _Check("minimal_oracle_dressing_matches")
    for f in all_permutations(max_degree):
        check.record(check_local_equivalence(f))
    return check


def cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.f is not None:
        tables = [load_dense_table(args.f)]
    else:
        if args.max_m < 1 or args.max_n < 1:
            raise CliError("--max-m and --max-n must be at least 1")
        if args.max_m * args.max_n > MAX_DENSE_ORACLE_DIM:
            raise CliError(f"--max-m * --max-n = {args.max_m * args.max_n} exceeds "
                           f"the dense oracle cap of {MAX_DENSE_ORACLE_DIM}")
        tables = _sweep_tables(args.max_m, args.max_n, args.trials, rng)
    log.info("verifying %d function tables", len(tables))
    *per_table, locc = _check_tables(tables, rng)
    checks = [
        *per_table,
        _check_bidirectional(min(args.max_m, 4) if args.f is None else 3),
        locc,
        _check_ledger(tables, rng),
        _check_phase_identity(),
        _check_minimal_oracle(),
    ]
    passed = all(c.passed for c in checks)
    report = {
        "max_m": args.max_m,
        "max_n": args.max_n,
        "seed": args.seed,
        "tables": len(tables),
        "checks": [c.to_json_dict() for c in checks],
        "passed": passed,
    }
    emit(report, args.out)
    for c in checks:
        log.info("%s %s (cases=%d, max_deviation=%.3e)",
                 "PASS" if c.passed else "FAIL", c.name, c.cases, c.max_deviation)
    if not passed:
        first = next(c for c in checks if not c.passed)
        print(f"verification failed: {first.name} "
              f"(max deviation {first.max_deviation:.3e})", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# --- capacities -----------------------------------------------------------

def cmd_capacities(args) -> int:
    f = load_dense_table(args.f)
    partition = build_partition(f)
    _, ebits = entangle_protocol(f)
    report = {
        "n_f": partition.n_values,
        "log2_n_f": float(np.log2(partition.n_values)),
        "schmidt_rank": operator_schmidt_rank(oracle_matrix(f), f.M, f.N),
        "ebits_measured": ebits,
    }
    if f.is_permutation():
        for r in range(f.M):
            for s, result in enumerate(send_bidirectional_all(f, r)):
                if not result.success:
                    raise CliError(f"bidirectional decode failed at (r={r}, s={s})")
        report["bidirectional_bits_if_permutation"] = float(2.0 * np.log2(f.M))
    emit(report, args.out)
    return EXIT_OK


# --- run / serve / connect ------------------------------------------------

def _seeded_input(f: FunctionTable, seed: int):
    """The run input state: seeded Gaussian amplitudes on A, B, once the run fits MAX_RUN_BYTES."""
    footprint = run_bytes(f.M, f.N, build_partition(f).n_values)
    if footprint > MAX_RUN_BYTES:  # read at call time, so a lowered cap is the one named
        raise CliError(
            f"a run of this table needs {footprint} bytes, over the {MAX_RUN_BYTES}-byte cap")
    return random_state((f.M, f.N), ("A", "B"), np.random.default_rng(seed))


def cmd_run(args) -> int:
    f = load_function_table(args.f)
    if args.protocol == "locc":
        state = _seeded_input(f, args.seed)
        _, transcript = run_in_process(f, state, args.seed)
        emit(transcript.to_json(), args.out)
        return EXIT_OK

    rng = np.random.default_rng(args.seed)
    result = {"protocol": args.protocol, "f": f.to_json_dict(), "seed": args.seed}
    if args.protocol == "entangle":
        _, result["ebits"] = entangle_protocol(f)
        emit(result, args.out)
        return EXIT_OK
    if args.protocol == "forward":
        result["r"] = int(rng.integers(build_partition(f).n_values))
        outcome = send_forward(f, result["r"])
    elif args.protocol == "backward":
        result["s"] = int(rng.integers(build_partition(f).n_values))
        outcome = send_backward(f, result["s"])
    else:
        if not f.is_permutation():
            raise CliError("bidirectional protocol requires a permutation (M = N, all values distinct)")
        result.update(r=int(rng.integers(f.M)), s=int(rng.integers(f.M)))
        outcome = send_bidirectional(f, result["r"], result["s"])
    result.update(decoded=outcome.decoded, success=outcome.success,
                  probabilities=outcome.outcome_probabilities.tolist())
    emit(result, args.out)
    return EXIT_OK if outcome.success else EXIT_VERIFY_FAILED


def cmd_serve(args) -> int:
    f = load_function_table(args.f)
    state = _seeded_input(f, args.seed)

    def announce(host: str, port: int) -> None:
        print(f"listening on {host}:{port}", file=sys.stderr, flush=True)

    _, transcript = serve_socket(
        f, state, args.seed, host=args.host, port=args.port,
        timeout=args.timeout, on_listening=announce,
    )
    emit(transcript.to_json(), args.out)
    return EXIT_OK


def cmd_connect(args) -> int:
    f = load_function_table(args.f)
    learned = connect_socket(args.role, f, args.host, args.port, timeout=args.timeout)
    log.info("%s finished; learned %s", args.role, learned)
    return EXIT_OK


# --- entry point ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oracle-locc",
        description="Simulate, verify, and account for distributed oracle implementations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the invariant suite, emit a JSON report")
    verify.add_argument("--f", help="restrict to one function table (path or inline JSON)")
    verify.add_argument("--max-m", type=int, default=3)
    verify.add_argument("--max-n", type=int, default=3)
    verify.add_argument("--trials", type=int, default=25,
                        help="random tables when bounds exceed the exhaustive range")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out")
    verify.set_defaults(handler=cmd_verify)

    capacities = sub.add_parser("capacities", help="capacity report for one function table")
    capacities.add_argument("--f", required=True)
    capacities.add_argument("--out")
    capacities.set_defaults(handler=cmd_capacities)

    run = sub.add_parser("run", help="one seeded protocol run")
    run.add_argument("--f", required=True)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--protocol", default="locc",
                     choices=["locc", "entangle", "forward", "backward", "bidirectional"])
    run.add_argument("--out")
    run.set_defaults(handler=cmd_run)

    serve = sub.add_parser("serve", help="referee side of a socket run")
    serve.add_argument("--f", required=True)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0, help="0 picks a free port")
    serve.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    serve.add_argument("--out")
    serve.set_defaults(handler=cmd_serve)

    connect = sub.add_parser("connect", help="party endpoint of a socket run")
    connect.add_argument("--role", required=True, choices=["alice", "bob"])
    connect.add_argument("--f", required=True)
    connect.add_argument("--host", default="127.0.0.1")
    connect.add_argument("--port", type=int, required=True)
    connect.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    connect.set_defaults(handler=cmd_connect)

    return parser


def _check_numbers(args) -> None:
    """The numeric options' ranges, checked before any table is drawn or socket opened."""
    if getattr(args, "seed", 0) < 0:
        raise CliError(f"--seed must be a non-negative integer, not {args.seed}")
    if getattr(args, "trials", 0) < 0:
        raise CliError(f"--trials must be a non-negative integer, not {args.trials}")
    if not 0 <= getattr(args, "port", 0) <= 65535:
        raise CliError(f"--port must be from 0 to 65535, not {args.port}")
    if not 0 < getattr(args, "timeout", 1.0) <= threading.TIMEOUT_MAX:  # a NaN fails too
        raise CliError(f"--timeout must be a number of seconds above 0 and at most "
                       f"{threading.TIMEOUT_MAX:.0f}, not {args.timeout}")


def main(argv=None) -> int:
    level = os.environ.get("ORACLE_LOCC_LOG")
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper(), logging.INFO),
            stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
    args = build_parser().parse_args(argv)
    try:
        _check_numbers(args)
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (LocalityViolation, ProtocolOrderError, WireFormatError, HandshakeMismatch) as exc:
        print(f"protocol error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
