"""The byte contracts of this checkout against a committed golden record.

golden_record.json holds a subset of what tools/transcript_digest.py
records: the first GOLDEN_TABLES of its tables (each run through run_locc
and run_in_process for seeds 0-3) with their final A, B blocks, the
decoded values and success flags of its capacity protocols, its larger
runs at M = 16, 32 and 64 with a seeded sample of SAMPLED_AMPS amplitudes
of each A, B block, the default `verify --seed 3` and two of its
`capacities` reports.  Blocks are stored as base64 of little-endian
float64 (re, im) pairs, at half the size of JSON numbers.  The test
records this checkout the same way, applies `compare`'s fatal rules and
also pins the frame count of each message kind.  Ledger and `verify`
max_deviation values are compared as numbers, within LEDGER_ULPS ulps,
and each real and imaginary part of a block within
transcript_digest.BLOCK_ULPS ulps (see transcript_digest.ulps).  The
amplitude and per-sender frame digests are left out: a reordered sum
moves low bits on another BLAS or CPU.

Regenerating the record is a change to test data:

    PYTHONPATH=src python tests/test_golden_record.py
"""

import base64
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import transcript_digest  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_record.json")
GOLDEN_TABLES = 20
LEDGER_ULPS = 4
SAMPLED_AMPS = 256


def sampled(block: list, M: int) -> list:
    """SAMPLED_AMPS (re, im) pairs of a larger run's block, at indices drawn in order by default_rng(M)."""
    picks = np.random.default_rng(M).choice(len(block), size=min(SAMPLED_AMPS, len(block)), replace=False)
    return [block[i] for i in np.sort(picks)]


def packed(pairs: list) -> str:
    return base64.b64encode(np.array(pairs, dtype="<f8").tobytes()).decode()


def unpacked(text: str) -> list:
    return np.frombuffer(base64.b64decode(text), dtype="<f8").reshape(-1, 2).tolist()


def golden_record() -> dict:
    """This checkout's record on the golden subset, with blocks as (re, im) pairs and no digests."""
    record = transcript_digest.collect(
        GOLDEN_TABLES,
        transcript_digest.LARGE_SIZES,
        {"default": transcript_digest.VERIFY_ARGS["default"]},
        {name: transcript_digest.CAPACITY_TABLES[name] for name in ("permutation 8x8", "6x5")},
    )
    return {
        "transcripts": [{key: t[key] for key in ("r", "s", "ledger")} for t in record["transcripts"]],
        "blocks": record["blocks"],
        "in_process_same": record["in_process_same"],
        "frame_kinds": record["frame_kinds"],
        "protocols": {name: [{key: run[key] for key in ("decoded", "success")} for run in runs]
                      for name, runs in record["protocols"].items() if name != "entangle"},
        "large": {M: {"r": run["r"], "s": run["s"], "block": sampled(run["block"], int(M))}
                  for M, run in record["large"].items()},
        "verify": record["verify"],
        "capacities": record["capacities"],
    }


def blocks_of(record: dict) -> list:
    return record["blocks"] + [run["block"] for run in record["large"].values()]


def test_checkout_keeps_the_golden_record():
    golden = json.loads(GOLDEN.read_text())
    golden["blocks"] = [unpacked(block) for block in golden["blocks"]]
    for run in golden["large"].values():
        run["block"] = unpacked(run["block"])
    now = golden_record()
    assert transcript_digest.compare_records(golden, now) == 0
    assert now["frame_kinds"] == golden["frame_kinds"]
    numbers = [(old["ledger"][key], new["ledger"][key])
               for old, new in zip(golden["transcripts"], now["transcripts"]) for key in old["ledger"]]
    numbers += [(old["max_deviation"], new["max_deviation"])
                for old, new in zip(golden["verify"]["default"]["report"]["checks"],
                                    now["verify"]["default"]["report"]["checks"])]
    assert max(transcript_digest.ulps(x, y) for x, y in numbers) <= LEDGER_ULPS
    old_blocks, new_blocks = blocks_of(golden), blocks_of(now)
    assert [len(block) for block in old_blocks] == [len(block) for block in new_blocks]
    parts = [(x, y) for old, new in zip(old_blocks, new_blocks)
             for a, b in zip(old, new) for x, y in zip(a, b)]
    assert len(parts) == 2 * sum(map(len, old_blocks)) > 0
    assert max(transcript_digest.ulps(x, y) for x, y in parts) <= transcript_digest.BLOCK_ULPS


if __name__ == "__main__":
    record = golden_record()
    record["blocks"] = [packed(block) for block in record["blocks"]]
    for run in record["large"].values():
        run["block"] = packed(run["block"])
    GOLDEN.write_text(json.dumps(record, separators=(",", ":")) + "\n")
