"""The byte contracts of this checkout against a committed golden record.

golden_record.json holds a subset of what tools/transcript_digest.py
records: the first GOLDEN_TABLES of its tables (each run through run_locc
and run_in_process for seeds 0-3), the decoded values and success flags of
its capacity protocols, its larger runs at M = 16, 32 and 64, the default
`verify --seed 3` and two of its `capacities` reports.  The test records
this checkout the same way, applies `compare`'s fatal rules and also pins
the frame count of each message kind.  Ledger and `verify` max_deviation
values are compared as numbers, within LEDGER_ULPS ulps (see
transcript_digest.ulps).  Amplitudes and the per-sender frame digests are
left out: a reordered sum moves their low bits on another BLAS or CPU, and
the amplitudes would not fit in a small file.

Regenerating the record is a change to test data:

    PYTHONPATH=src python tests/test_golden_record.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import transcript_digest  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_record.json")
GOLDEN_TABLES = 20
LEDGER_ULPS = 4


def golden_record() -> dict:
    """This checkout's record on the golden subset, without amplitudes and digests."""
    record = transcript_digest.collect(
        GOLDEN_TABLES,
        transcript_digest.LARGE_SIZES,
        {"default": transcript_digest.VERIFY_ARGS["default"]},
        {name: transcript_digest.CAPACITY_TABLES[name] for name in ("permutation 8x8", "6x5")},
    )
    return {
        "transcripts": [{key: t[key] for key in ("r", "s", "ledger")} for t in record["transcripts"]],
        "in_process_same": record["in_process_same"],
        "frame_kinds": record["frame_kinds"],
        "protocols": {name: [{key: run[key] for key in ("decoded", "success")} for run in runs]
                      for name, runs in record["protocols"].items() if name != "entangle"},
        "large": {M: {"r": run["r"], "s": run["s"]} for M, run in record["large"].items()},
        "verify": record["verify"],
        "capacities": record["capacities"],
    }


def test_checkout_keeps_the_golden_record():
    golden = json.loads(GOLDEN.read_text())
    now = golden_record()
    assert transcript_digest.compare_records(golden, now) == 0
    assert now["frame_kinds"] == golden["frame_kinds"]
    numbers = [(old["ledger"][key], new["ledger"][key])
               for old, new in zip(golden["transcripts"], now["transcripts"]) for key in old["ledger"]]
    numbers += [(old["max_deviation"], new["max_deviation"])
                for old, new in zip(golden["verify"]["default"]["report"]["checks"],
                                    now["verify"]["default"]["report"]["checks"])]
    assert max(transcript_digest.ulps(x, y) for x, y in numbers) <= LEDGER_ULPS


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_record(), separators=(",", ":")) + "\n")
