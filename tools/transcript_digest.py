"""Record transcripts on fixed inputs, to compare two checkouts of the package.

    python tools/transcript_digest.py record SRC OUT.json
    python tools/transcript_digest.py compare BEFORE.json AFTER.json

`record` imports oracle_locc from SRC (a checkout's `src` directory).  It
draws 105 random tables with M, N <= 8 and a random input state for each
from numpy's default_rng(2024), runs each through run_locc and
run_in_process for seeds 0-3, and writes the 420 run_locc transcripts, a
digest of the final amplitudes, each final state's A, B block (the
amplitudes at a = r, b = s) as (re, im) pairs, and whether run_in_process
gave the same transcript and amplitudes bytes for bytes.  During the
run_in_process runs it wraps netsim.encode_wire and keeps one SHA-256 per
sender over that sender's frames in send order (per sender, because the
two parties' hellos race between threads), and a frame count per message
kind.  It also runs the capacity protocols: send_bidirectional on every
permutation with M <= 4 for every (r, s), and send_forward (every r),
send_backward (every s) and entangle_protocol on every table with M, N <= 3.
For each run it keeps the decoded value and success flag (the ebits, for
entangle_protocol) and the final amplitudes.  Last, it keeps the exit code
and JSON report of `verify --seed 3` at the default bounds and at
`--max-m 5 --max-n 5 --trials 40`, and of `capacities` on an 8 x 8 and a
32 x 32 permutation and a 6 x 5 table that is not one.  It also runs one
random permutation each at M = 16, 32 and 64 (numpy's default_rng([2024, M])
draws the table and the input) through run_locc with seed 0, and keeps r,
s, a digest of the final amplitudes, the A, B block and, where
/proc/self/statm exists (Linux), how many MiB the resident set grew while
the final state is alive.

`compare` prints how many transcripts differ in each top-level field and
each ledger field, with the largest difference of each ledger field in
absolute terms and in ulps of the larger value (of 1.0 when both are
smaller, as near zero the ulp is no scale).  For each protocol it prints
how many decoded values or success flags differ and the largest
difference of an amplitude and of the ebits, compared as values, so
that the sign of a zero does not count.  It prints the largest difference
of a real or imaginary part of the run_locc A, B blocks, in absolute terms
and in ulps (as for the ledger), and in how many runs one differs:
amplitudes are held within BLOCK_ULPS ulps across versions, not to their
bits.  It exits 1 if r or s differs anywhere, if a block part differs by
more than BLOCK_ULPS ulps or a block changes shape, if run_in_process
matched run_locc in BEFORE and no longer does in AFTER, or if a
protocol's decoded value or success flag differs.  It
prints the frame digest of each sender and the frame count of each kind,
before and after, but does not fail on them, since a change of the wire
bytes can be intended.  It prints r, s, the amplitude digest and the
largest A, B block difference of each of the three larger runs, and exits
1 if r or s differs or a block part by more than BLOCK_ULPS ulps; it
prints their resident growth before and after, but never fails on it.  It prints every
check whose max_deviation differs between the two `verify` reports, and
exits 1 if an exit code, a check name, its cases or passed flag, another
report field, or any `capacities` field differs.

`collect` returns the record of the importable package, optionally on
fewer tables and reports, and `compare_records` compares two loaded
records; tests/test_golden_record.py holds each checkout to a committed
subset with them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import threading
from collections import Counter
from itertools import permutations, product

SEED = 2024
TABLES = 105
RUN_SEEDS = range(4)
LARGE_SIZES = (16, 32, 64)
VERIFY_ARGS = {
    "default": ["--seed", "3"],
    "5x5": ["--seed", "3", "--max-m", "5", "--max-n", "5", "--trials", "40"],
}
# The largest difference of a real or imaginary part of an A, B block, in ulps (see ulps).
BLOCK_ULPS = 4
CAPACITY_TABLES = {
    "permutation 8x8": {"M": 8, "N": 8, "table": [(3 * x + 1) % 8 for x in range(8)]},
    "permutation 32x32": {"M": 32, "N": 32, "table": [(5 * x + 3) % 32 for x in range(32)]},
    "6x5": {"M": 6, "N": 5, "table": [x * x % 5 for x in range(6)]},
}


def resident_mib() -> float | None:
    """The resident set of this process in MiB, or None without /proc/self/statm."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        return None


def ulps(x: float, y: float) -> float:
    """|x - y| in ulps of the larger value, or of 1.0 when both are smaller."""
    return abs(x - y) / math.ulp(max(abs(x), abs(y), 1.0))


def record(src: str, out_path: str) -> None:
    sys.path.insert(0, src)
    result = collect()
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    kinds, runs, large = result["frame_kinds"], result["protocols"], result["large"]
    print(f"{len(result['transcripts'])} transcripts; amps {result['amps']}; "
          f"run_in_process identical: {result['in_process_same']}; {sum(kinds.values())} frames; "
          "protocol runs: " + ", ".join(f"{name} {len(entries)}" for name, entries in runs.items())
          + "; large runs " + ", ".join(f"M={M} amps {run['amps']} resident +{run['resident_mib']} MiB"
                                  for M, run in large.items())
          + f"; verify reports {len(result['verify'])}; capacities reports {len(result['capacities'])}")


def collect(tables: int = TABLES, large_sizes: tuple = LARGE_SIZES, verify_args: dict = VERIFY_ARGS,
            capacity_tables: dict = CAPACITY_TABLES) -> dict:
    """The record of the importable oracle_locc on the first `tables` tables and the given runs."""
    import numpy as np

    from oracle_locc import cli, locc, netsim, protocols, quantum
    from oracle_locc.oracle import FunctionTable, build_partition

    frames, kinds, lock = {}, Counter(), threading.Lock()
    encode_wire = netsim.encode_wire

    def hashing_encode_wire(msg):
        frame = encode_wire(msg)
        with lock:
            frames.setdefault(msg.sender, hashlib.sha256()).update(frame)
            kinds[msg.kind] += 1
        return frame

    def pairs(amps) -> list:
        return np.ascontiguousarray(amps).reshape(-1).view(np.float64).reshape(-1, 2).tolist()

    def ab_block(state, transcript) -> list:
        return pairs(state.tensor_view()[:, transcript.r, :, transcript.s])

    rng = np.random.default_rng(SEED)
    transcripts, blocks, amps, in_process_same = [], [], hashlib.sha256(), True
    for _ in range(tables):
        M, N = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        f = FunctionTable(M, N, tuple(int(v) for v in rng.integers(0, N, size=M)))
        inp = quantum.random_state((M, N), ("A", "B"), rng)
        for seed in RUN_SEEDS:
            state, transcript, _ = locc.run_locc(f, inp, seed)
            netsim.encode_wire = hashing_encode_wire
            try:
                state2, transcript2 = netsim.run_in_process(f, inp, seed)
            finally:
                netsim.encode_wire = encode_wire
            in_process_same &= (transcript2.to_json() == transcript.to_json()
                                and memoryview(state2.amps).cast("B") == memoryview(state.amps).cast("B"))
            transcripts.append(transcript.to_json_dict())
            blocks.append(ab_block(state, transcript))
            amps.update(state.amps)

    def outcome(result) -> dict:
        decoded = result.decoded if isinstance(result.decoded, int) else list(result.decoded)
        return {"decoded": decoded, "success": result.success,
                "amps": pairs(result.final_state.amps)}

    runs = {"bidirectional": [], "forward": [], "backward": [], "entangle": []}
    for M in range(1, 5):
        for table in permutations(range(M)):
            f = FunctionTable(M, M, table)
            for r, s in product(range(M), repeat=2):
                runs["bidirectional"].append(outcome(protocols.send_bidirectional(f, r, s)))
    for M, N in product(range(1, 4), repeat=2):
        for table in product(range(N), repeat=M):
            f = FunctionTable(M, N, table)
            for message in range(build_partition(f).n_values):
                runs["forward"].append(outcome(protocols.send_forward(f, message)))
                runs["backward"].append(outcome(protocols.send_backward(f, message)))
            final, ebits = protocols.entangle_protocol(f)
            runs["entangle"].append({"ebits": ebits, "amps": pairs(final.amps)})

    def cli_report(*argv) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return {"exit": code, "report": json.loads(out.getvalue())}

    large = {}
    for M in large_sizes:
        large_rng = np.random.default_rng([SEED, M])
        f = FunctionTable(M, M, tuple(int(v) for v in large_rng.permutation(M)))
        inp = quantum.random_state((M, M), ("A", "B"), large_rng)
        before = resident_mib()
        state, transcript, _ = locc.run_locc(f, inp, 0)
        grown = None if before is None else round(resident_mib() - before, 1)
        large[str(M)] = {"r": transcript.r, "s": transcript.s, "resident_mib": grown,
                         "amps": hashlib.sha256(state.amps).hexdigest()[:16],
                         "block": ab_block(state, transcript)}

    verify = {name: cli_report("verify", *args) for name, args in verify_args.items()}
    capacities = {name: cli_report("capacities", "--f", json.dumps(table))
                  for name, table in capacity_tables.items()}
    return {"transcripts": transcripts, "blocks": blocks, "amps": amps.hexdigest()[:16],
            "in_process_same": in_process_same, "protocols": runs,
            "frames": {sender: h.hexdigest()[:16] for sender, h in sorted(frames.items())},
            "frame_kinds": dict(sorted(kinds.items())), "large": large,
            "verify": verify, "capacities": capacities}


def compare(before_path: str, after_path: str) -> int:
    with open(before_path) as fh:
        before = json.load(fh)
    with open(after_path) as fh:
        after = json.load(fh)
    return compare_records(before, after)


def compare_records(before: dict, after: dict) -> int:
    """compare on two loaded records; a record without amplitudes or digests prints them as None."""
    pairs = list(zip(before["transcripts"], after["transcripts"]))
    if len(before["transcripts"]) != len(after["transcripts"]):
        print("transcript counts differ:", len(before["transcripts"]), len(after["transcripts"]))
        return 1
    differs, largest = Counter(), {}
    for a, b in pairs:
        differs["any"] += a != b
        for key in a:
            differs[key] += a[key] != b[key]
        for key in a["ledger"]:
            x, y = a["ledger"][key], b["ledger"][key]
            differs[f"ledger.{key}"] += x != y
            if x != y:
                old = largest.get(f"ledger.{key}", (0.0, 0.0))
                largest[f"ledger.{key}"] = (max(old[0], abs(x - y)), max(old[1], ulps(x, y)))
    for key, count in differs.items():
        gap = largest.get(key)
        tail = f" (largest: {gap[0]:.3g} absolute, {gap[1]:.0f} ulp)" if gap else ""
        print(f"{key}: {count} of {len(pairs)} differ{tail}")
    print("amps digest:", before.get("amps"), "->", after.get("amps"))
    blocks, block_ulps = block_gaps(before.get("blocks"), after.get("blocks"))
    print("run_locc A, B blocks:", blocks)
    print("run_in_process identical:", before["in_process_same"], "->", after["in_process_same"])
    for key in ("frames", "frame_kinds"):
        old, new = before.get(key, {}), after.get(key, {})
        for name in sorted(set(old) | set(new)):
            print(f"frames {name}: {old.get(name)} -> {new.get(name)}")
    lost_in_process = before["in_process_same"] and not after["in_process_same"]
    large_differ = compare_large(before, after)
    protocols_differ = compare_protocols(before["protocols"], after["protocols"])
    reports_differ = compare_reports(before, after)
    failed = (differs["r"] or differs["s"] or block_ulps > BLOCK_ULPS or lost_in_process
              or large_differ or protocols_differ or reports_differ)
    return 1 if failed else 0


def compare_large(before: dict, after: dict) -> bool:
    """Print each larger run's r, s, amplitude digest and block difference.

    True if r or s differs, the block by more than BLOCK_ULPS ulps, or a run is missing.
    """
    if "large" not in before or "large" not in after:
        print("large runs: not recorded on both sides")
        return True
    any_differ = False
    for M, old in before["large"].items():
        new = after["large"].get(M, {})
        differ = (old["r"], old["s"]) != (new.get("r"), new.get("s"))
        block, block_ulps = block_gaps([old.get("block")], [new.get("block")])
        print(f"large run M={M}: r, s {'DIFFER' if differ else 'same'}; "
              f"amps {old.get('amps')} -> {new.get('amps')}; "
              f"A, B block {block}; resident growth MiB "
              f"{old.get('resident_mib')} -> {new.get('resident_mib')}")
        any_differ |= differ or block_ulps > BLOCK_ULPS
    return any_differ


def block_gaps(before: list | None, after: list | None) -> tuple[str, float]:
    """The largest difference of a real or imaginary part between two lists of A, B blocks.

    Returns a line to print and that difference in ulps: infinite when the
    blocks differ in count or shape, 0 when either side did not record them.
    """
    if before is None or after is None or None in before or None in after:
        return "not recorded on both sides", 0.0
    if len(before) != len(after):
        return f"block counts differ: {len(before)} -> {len(after)}", math.inf
    gap, gap_ulps, differ = 0.0, 0.0, 0
    for old, new in zip(before, after):
        parts = [(x, y) for a, b in zip(old, new) for x, y in zip(a, b)]
        differ += len(old) != len(new) or any(x != y for x, y in parts)
        gap = max([gap] + [abs(x - y) for x, y in parts])
        gap_ulps = max([gap_ulps] + [ulps(x, y) for x, y in parts] + [math.inf] * (len(old) != len(new)))
    return f"{differ} of {len(before)} differ (largest: {gap:.3g} absolute, {gap_ulps:.2g} ulp)", gap_ulps


def compare_protocols(before: dict, after: dict) -> bool:
    """Print each protocol's differences; True if a decoded value or success flag differs."""
    any_differ = False
    for name, runs in before.items():
        if len(runs) != len(after[name]):
            print(f"{name}: run counts differ: {len(runs)} -> {len(after[name])}")
            any_differ = True
            continue
        differ, amp_gap, ebits_gap = 0, 0.0, 0.0
        for a, b in zip(runs, after[name]):
            differ += (a.get("decoded"), a.get("success")) != (b.get("decoded"), b.get("success"))
            amp_gap = max([amp_gap] + [abs(complex(*x) - complex(*y))
                                       for x, y in zip(a.get("amps", ()), b.get("amps", ()))])
            if "ebits" in a:
                ebits_gap = max(ebits_gap, abs(a["ebits"] - b["ebits"]))
        head = (f"largest ebits difference {ebits_gap:.3g}" if "ebits" in runs[0] else
                f"{differ} of {len(runs)} differ in decoded value or success")
        print(f"{name}: {head}; largest amplitude difference {amp_gap:.3g}")
        any_differ |= differ > 0
    return any_differ


def compare_reports(before: dict, after: dict) -> bool:
    """Print the verify and capacities differences; True if any but a max_deviation differs."""
    if "verify" not in before or "verify" not in after:
        print("verify and capacities reports: not recorded on both sides")
        return True
    def fields(run: dict) -> tuple:
        return run["exit"], {k: v for k, v in run["report"].items() if k != "checks"}

    any_differ = False
    for name, old in before["verify"].items():
        new = after["verify"][name]
        old_checks, new_checks = old["report"]["checks"], new["report"]["checks"]
        differ = fields(old) != fields(new) or len(old_checks) != len(new_checks)
        moved = 0
        for a, b in zip(old_checks, new_checks):
            differ |= (a["name"], a["cases"], a["passed"]) != (b["name"], b["cases"], b["passed"])
            if a["max_deviation"] != b["max_deviation"]:
                moved += 1
                print(f"verify {name}: {a['name']} max_deviation "
                      f"{a['max_deviation']!r} -> {b['max_deviation']!r}")
        print(f"verify {name}: {'DIFFERS' if differ else 'same'} checks, cases and passed; "
              f"{moved} of {len(old_checks)} max_deviation values differ")
        any_differ |= differ
    for name, old in before["capacities"].items():
        differ = old != after["capacities"][name]
        print(f"capacities {name}: {'DIFFERS' if differ else 'same'}")
        any_differ |= differ
    return any_differ


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in ("record", "compare"):
        sys.exit(__doc__)
    if sys.argv[1] == "record":
        record(sys.argv[2], sys.argv[3])
    else:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
