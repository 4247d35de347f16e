"""The three benchmark workloads: inputs, the timed call, and its check.

Every workload is a closed loop with one caller.  Inputs come only from
the workload seed.  The timed call goes through the public API and is
looked up on its module at call time, so the tracer's wrappers are used
when they are installed.  Checks run outside the timed region.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracle_locc import cli, locc, netsim, quantum
from oracle_locc.oracle import FunctionTable, apply_oracle

FIDELITY_FLOOR = 1 - 1e-10
EBIT_TOL = 1e-9
THREAD_JOIN_S = 30.0


@dataclass
class Case:
    """One input of a class: a table, an input state and a run seed (or argv)."""

    f: FunctionTable | None = None
    state: quantum.StateVector | None = None
    seed: int = 0
    argv: list[str] = field(default_factory=list)


@dataclass
class Outcome:
    """What a call returned: the bytes that must match across runs, and ledger bits on the wire."""

    output: bytes
    wire_bits: int = 0
    error: str | None = None


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _permutation(M: int, rng: np.random.Generator) -> FunctionTable:
    return FunctionTable(M, M, tuple(int(v) for v in rng.permutation(M)))


def _n_valued(M: int, n_f: int, rng: np.random.Generator) -> FunctionTable:
    """Table Z_M -> Z_M attaining exactly n_f distinct values."""
    values = rng.choice(M, size=n_f, replace=False)
    picks = np.concatenate([np.arange(n_f), rng.integers(0, n_f, size=M - n_f)])
    rng.shuffle(picks)
    return FunctionTable(M, M, tuple(int(values[k]) for k in picks))


def _input(f: FunctionTable, rng: np.random.Generator) -> quantum.StateVector:
    return quantum.random_state((f.M, f.N), ("A", "B"), rng)


def _check_run(case: Case, final: quantum.StateVector, transcript) -> str | None:
    """Fidelity with the direct oracle and the ledger's ebits and wire widths."""
    n_f = len(set(case.f.table))
    fid = quantum.fidelity(locc.ab_substate(final), apply_oracle(case.f, case.state))
    if not fid >= FIDELITY_FLOOR:
        return f"fidelity {fid!r} below 1 - 1e-10"
    ledger = transcript.ledger
    if not abs(ledger.ebits_consumed - math.log2(n_f)) <= EBIT_TOL:
        return f"ebits_consumed {ledger.ebits_consumed!r} != log2 {n_f}"
    width = (n_f - 1).bit_length()
    if (ledger.bits_forward_wire, ledger.bits_backward_wire) != (width, width):
        return f"wire widths {ledger.bits_forward_wire}/{ledger.bits_backward_wire} != {width}"
    return None


class Workload:
    """Class sizes, the per-round class mix and the fixed traced mix."""

    name: str
    classes: tuple[str, ...]
    round: dict[str, int]  # calls per class in one shuffled round of the timed loop
    trace_mix: dict[str, int]  # calls per class in one traced pass

    def __init__(self, seed: int, out_dir: Path | None = None):
        self.seed = seed
        self.cases = self.make_cases()

    def make_cases(self) -> dict[str, list[Case]]:
        raise NotImplementedError

    def case(self, cls: str, i: int) -> Case:
        pool = self.cases[cls]
        return pool[i % len(pool)]

    def call(self, cls: str, case: Case):
        raise NotImplementedError

    def check(self, cls: str, case: Case, result) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass


class LoccDense(Workload):
    name = "locc-dense"
    classes = ("small", "mid", "large")
    sizes = {"small": 8, "mid": 16, "large": 32}
    round = {"small": 8, "mid": 3, "large": 1}
    trace_mix = {"small": 4, "mid": 2, "large": 1}
    pool = {"small": 16, "mid": 8, "large": 4}

    def make_cases(self):
        cases = {}
        for k, cls in enumerate(self.classes):
            rng = _rng(self.seed, 1, k)
            M = self.sizes[cls]
            cases[cls] = []
            for _ in range(self.pool[cls]):
                f = _permutation(M, rng)
                cases[cls].append(Case(f, _input(f, rng), int(rng.integers(1 << 31))))
        return cases

    def call(self, cls, case):
        return locc.run_locc(case.f, case.state, case.seed)

    def check(self, cls, case, result):
        final, transcript, _ = result
        text = transcript.to_json().encode()
        return Outcome(text, error=_check_run(case, final, transcript))


def _run_socket(f, state, seed):
    """serve_socket on this thread, with the two parties on connect_socket threads."""
    failures: list[BaseException] = []
    threads: list[threading.Thread] = []

    def party(role, host, port):
        try:
            netsim.connect_socket(role, f, host, port)
        except BaseException as exc:  # reported to the caller after join
            failures.append(exc)

    def on_listening(host, port):
        for role in ("alice", "bob"):
            t = threading.Thread(target=party, args=(role, host, port), daemon=True)
            t.start()
            threads.append(t)

    try:
        result = netsim.serve_socket(f, state, seed, on_listening=on_listening)
    finally:
        for t in threads:
            t.join(THREAD_JOIN_S)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("a party thread did not finish")
    if failures:
        raise failures[0]
    return result


class WireRoundtrip(Workload):
    name = "wire-roundtrip"
    classes = ("small", "socket_small", "large", "socket_large")
    # small: permutations with M = N = n_f = 4; large: M = N = 64 with n_f = 4,
    # so each step-1 and step-4 OP_REQUEST is about 0.8 MB, under the 1 MiB cap.
    round = {"small": 4, "socket_small": 4, "large": 1, "socket_large": 1}
    trace_mix = {"small": 4, "socket_small": 4, "large": 1, "socket_large": 1}
    pool = {"small": 16, "large": 4}

    def __init__(self, seed: int, out_dir: Path | None = None):
        self._expected: dict[int, bytes] = {}  # run_locc's transcript per input
        super().__init__(seed, out_dir)

    def make_cases(self):
        cases = {}
        for k, size in enumerate(("small", "large")):
            rng = _rng(self.seed, 2, k)
            pool = []
            for _ in range(self.pool[size]):
                f = _permutation(4, rng) if size == "small" else _n_valued(64, 4, rng)
                pool.append(Case(f, _input(f, rng), int(rng.integers(1 << 31))))
            # Each input runs once through each transport.
            cases[size] = cases["socket_" + size] = pool
        return cases

    def call(self, cls, case):
        if cls.startswith("socket_"):
            return _run_socket(case.f, case.state, case.seed)
        return netsim.run_in_process(case.f, case.state, case.seed)

    def check(self, cls, case, result):
        final, transcript = result
        text = transcript.to_json().encode()
        bits = transcript.ledger.bits_forward_wire + transcript.ledger.bits_backward_wire
        key = id(case)
        if key not in self._expected:
            _, direct, _ = locc.run_locc(case.f, case.state, case.seed)
            self._expected[key] = direct.to_json().encode()
        if text != self._expected[key]:
            return Outcome(text, bits, f"{cls} transcript differs from run_locc's")
        return Outcome(text, bits, _check_run(case, final, transcript))


class VerifySweep(Workload):
    name = "verify-sweep"
    classes = ("small", "large")
    bounds = {"small": [], "large": ["--max-m", "5", "--max-n", "5", "--trials", "40"]}
    round = {"small": 1, "large": 1}
    trace_mix = {"small": 1, "large": 1}

    def __init__(self, seed: int, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.reports = Path(tempfile.mkdtemp(prefix="verify-", dir=out_dir))
        super().__init__(seed)

    def make_cases(self):
        return {}

    def case(self, cls, i):
        # Each call of a class takes the next seed (i starts at -1 for the warm-up).
        seed = self.seed * 100_000 + 1 + i
        out = self.reports / f"{cls}-{seed}.json"
        return Case(seed=seed, argv=["verify", *self.bounds[cls], "--seed", str(seed),
                                     "--out", str(out)])

    def call(self, cls, case):
        return cli.main(case.argv)

    def check(self, cls, case, result):
        report = Path(case.argv[-1])
        text = report.read_bytes()
        report.unlink()
        if result != 0:
            return Outcome(text, error=f"verify exited with {result}")
        if json.loads(text).get("passed") is not True:
            return Outcome(text, error="verify report has passed != true")
        return Outcome(text)

    def close(self):
        shutil.rmtree(self.reports, ignore_errors=True)


WORKLOADS = {w.name: w for w in (LoccDense, WireRoundtrip, VerifySweep)}
