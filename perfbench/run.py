"""Benchmark of the oracle-locc simulator: end-to-end runs and a layer trace.

    python3 perfbench/run.py --workload locc-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from the repository root; it imports the package from ./src.

Workloads (see perfbench/spec.json for sizes and reasons): locc-dense,
wire-roundtrip and verify-sweep, each a closed loop with one caller that
interleaves its classes in a seeded order.  With --trace 0 the run sets up
(imports, input generation, one warm-up call per class, three times) and
then times calls for --seconds, checking every output outside the timed
region.  With --trace 1 it runs a fixed call mix four times, alternately
untraced and traced, checks that transcripts and reports are byte-identical
across the four passes and that call counts and wire bytes repeat between
the two traced passes, and reports per-layer metrics from the first traced
pass.

Human-readable lines go first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Full results and the span
log go to perfbench/out/.  The exit code is 0 only when every call passed.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy is imported: with two, small zgemm
# calls stall for the scheduler's time slice in some processes and not others.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import random
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import bench_stats
import hooks

START = perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("locc-dense", "wire-roundtrip", "verify-sweep")
ALL_CLASSES = ("small", "mid", "large", "socket_small", "socket_large")
SETUP_REPS = 3
TRACE_PASSES = (False, True, False, True)

# The end-to-end metrics every workload reports on its last line (the
# BENCHMARK.json end_to_end list); all 13 names are printed above it.
GATED = ("setup_s", "p50_ms.small", "p50_ms.large", "tail_ms.small", "peak_rss_mb")
UNITS = {"setup_s": "s", "p50_ms": "ms", "tail_ms": "ms", "failed_frac": "ratio",
         "peak_rss_mb": "MB"}


def environment() -> dict:
    import numpy as np

    blas_threads = None
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            blas_threads = fn()
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads if blas_threads is not None
        else os.environ["OPENBLAS_NUM_THREADS"] + " (requested)",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "socket": "loopback 127.0.0.1 (no real link)",
    }


def set_up(make):
    """Build the workload and warm each class, SETUP_REPS times; median seconds."""

    times, workload = [], None
    for _ in range(SETUP_REPS):
        if workload is not None:
            workload.close()
        t = perf_counter()
        workload = make()
        for cls in workload.classes:
            case = workload.case(cls, -1)
            error = workload.check(cls, case, workload.call(cls, case)).error
            if error:
                raise RuntimeError(f"warm-up call of {cls} failed: {error}")
        times.append(perf_counter() - t)
    return workload, bench_stats.median(times), times


def shuffled(counts: dict[str, int], rng: random.Random) -> list[str]:
    order = [cls for cls, k in counts.items() for _ in range(k)]
    rng.shuffle(order)
    return order


def timed_loop(workload, seconds: float, rng: random.Random):
    """Closed loop for `seconds`; every class gets at least one call."""
    samples = {cls: [] for cls in workload.classes}
    next_index = {cls: 0 for cls in workload.classes}
    failures: list[str] = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not all(next_index.values()):
        for cls in shuffled(workload.round, rng):
            if perf_counter() >= deadline and all(next_index.values()):
                break
            case = workload.case(cls, next_index[cls])
            next_index[cls] += 1
            t = perf_counter()
            try:
                result = workload.call(cls, case)
            except Exception as exc:  # counted as a failed call, the loop goes on
                failures.append(f"{cls}: {type(exc).__name__}: {exc}")
                continue
            elapsed = perf_counter() - t
            error = workload.check(cls, case, result).error
            # Drop the final state now: kept until the next call returns, it would
            # add 16 MB to peak RSS whenever two large calls follow each other.
            del result
            if error:
                failures.append(f"{cls}: {error}")
            else:
                samples[cls].append(elapsed)
    return samples, sum(next_index.values()), failures


def end_to_end(workload, samples, attempted, failures, setup_s):

    metrics, notes = {"setup_s": setup_s}, {}
    for cls in workload.classes:
        ms = [1000 * s for s in samples[cls]]
        if not ms:
            continue
        metrics[f"p50_ms.{cls}"] = bench_stats.median(ms)
        pct, value = bench_stats.tail(ms)
        metrics[f"tail_ms.{cls}"] = value
        notes[f"p50_ms.{cls}"] = f"n={len(ms)}"
        notes[f"tail_ms.{cls}"] = f"p{pct:.1f}, n={len(ms)}"
    metrics["failed_frac"] = len(failures) / attempted
    notes["failed_frac"] = f"{len(failures)}/{attempted}"
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, notes


def print_end_to_end(workload, metrics, notes):
    names = ["setup_s"]
    names += [f"{m}.{cls}" for m in ("p50_ms", "tail_ms") for cls in ALL_CLASSES]
    names += ["failed_frac", "peak_rss_mb"]
    for name in names:
        unit = UNITS[name.split(".")[0]]
        if name in metrics:
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{name:<22} {metrics[name]:>14.6f} {unit:<5}{note}")
        else:
            print(f"{name:<22} {'n/a':>14} {unit:<5}  (no such class in {workload.name})")


def run_trace(workload, rng: random.Random):
    """Untraced and traced passes of the fixed mix; per-layer metrics and checks."""

    order = shuffled(workload.trace_mix, rng)
    passes, failures = [], []
    for traced in TRACE_PASSES:
        tracer = hooks.Tracer()
        results = []
        if traced:
            tracer.install()
        t = perf_counter()
        try:
            for call_id, cls in enumerate(order):
                tracer.call_id = call_id
                case = workload.case(cls, order[:call_id].count(cls))
                try:
                    results.append((cls, case, workload.call(cls, case)))
                except Exception as exc:  # counted as a failed call
                    failures.append(f"{cls}: {type(exc).__name__}: {exc}")
        finally:
            wall = perf_counter() - t
            tracer.uninstall()
        outcomes = [workload.check(cls, case, result) for cls, case, result in results]
        failures += [f"{cls}: {o.error}" for (cls, _, _), o in zip(results, outcomes) if o.error]
        passes.append((traced, wall, tracer, outcomes))

    outputs = [[o.output for o in outcomes] for _, _, _, outcomes in passes]
    if any(out != outputs[0] for out in outputs):
        failures.append("transcripts or reports differ between traced and untraced passes")
    walls = {False: 0.0, True: 0.0}
    for traced, wall, _, _ in passes:
        walls[traced] += wall
    layers = [
        hooks.layer_metrics(tracer.spans, tracer.absent, sum(o.wire_bits for o in outcomes),
                            walls[True] / walls[False])
        for traced, _, tracer, outcomes in passes if traced
    ]
    (values, missing), (again, _) = layers
    first, second = hooks.counts(values), hooks.counts(again)
    if first != second:
        diff = sorted(k for k in first if first[k] != second.get(k))
        failures.append(f"counts differ between same-seed traced passes: {diff}")
    spans = next(tracer.spans for traced, _, tracer, _ in passes if traced)
    return values, missing, len(order) * len(passes), failures, spans


def write_spans(path: Path, spans) -> None:
    with path.open("w", encoding="utf-8") as out:
        for s in spans:
            out.write(json.dumps({"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                                  "parent": s.parent, "call": s.call, "thread": s.thread,
                                  "detail": s.detail, "size": s.size}) + "\n")


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    import_s = perf_counter() - START
    env = environment()
    print(f"# oracle-locc perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    OUT.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    workload, setup_median, setup_times = set_up(lambda: cls(args.seed, OUT))
    setup_s = import_s + setup_median
    print(f"# setup: import {import_s:.4f} s, set-ups {[round(t, 4) for t in setup_times]} s")
    rng = random.Random(args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, missing, attempted, failures, spans = run_trace(workload, rng)
            samples = {}
            write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", spans)
            units = dict(hooks.per_layer_names())
            for name, unit in hooks.per_layer_names():
                if name in metrics:
                    value = metrics[name]
                    shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
                    print(f"{name:<44} {shown} {unit}")
                else:
                    print(f"{name:<44} {'absent':>16} {unit}  ({missing[name]})")
            line_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        else:
            samples, attempted, failures = timed_loop(workload, args.seconds, rng)
            metrics, notes = end_to_end(workload, samples, attempted, failures, setup_s)
            print_end_to_end(workload, metrics, notes)
            missing = {}
            line_metrics = {k: {"value": metrics[k], "unit": UNITS[k.split(".")[0]]}
                            for k in GATED if k in metrics}
    finally:
        workload.close()
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    correct = not failures
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "env": env, "setup_times_s": setup_times, "import_s": import_s,
         "metrics": metrics, "absent": missing, "failures": failures,
         "samples_ms": {c: [1000 * t for t in v] for c, v in samples.items()}}, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": line_metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            summary = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            return 1
        correct = correct and summary["correct"] and proc.returncode == 0
        attempted += summary["attempted"]
        failed += summary["failed"]
        metrics.update({f"{name}.{k}": v for k, v in summary["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "oracle_locc" / "__init__.py").is_file():
        print(f"error: no oracle_locc package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
