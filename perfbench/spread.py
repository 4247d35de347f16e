"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload locc-dense --seeds 1-10 --seconds 30

For every metric on the runs' last lines it prints the median and the
distance between the first and third quartiles as a share of the median,
next to a third of the metric's bound in BENCHMARK.json.  The per-run
summaries are appended to perfbench/out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench_stats import median, relative_spread

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    log = HERE / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    ok = True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        summary = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        ok = ok and proc.returncode == 0 and summary["correct"]
        with log.open("a") as out:
            out.write(json.dumps({"seed": seed, **summary}) + "\n")
        for name, metric in summary["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4g}"
                                           for k, m in summary["metrics"].items()), flush=True)
    for name, vals in values.items():
        spread = relative_spread(vals) if len(vals) > 1 else 0.0
        limit = bounds.get(name)
        verdict = "" if limit is None else (
            f"bound/3={limit / 3:.4f} {'ok' if spread < limit / 3 else 'WIDE'}")
        print(f"{name:<40} median {median(vals):>12.4f} spread {spread:.4f} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
