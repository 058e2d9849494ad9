"""End-to-end and per-layer benchmark of the boxfactor library and CLI.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout: the library is imported from its `src` directory. Each
workload is a closed loop of one client in one process: the next job starts
when the previous one has returned, cycling through the workload's size
ladder. Every job's output is checked outside the timed region.

End-to-end times are corrected for the host's speed: a fixed pure-Python
kernel that calls no library code runs before the first job and after every
job, and each job's wall seconds are scaled by REF_KERNEL_S over the mean of
the two kernel times around it. A run on a host running at the reference
speed reports plain wall seconds; a slower or faster stretch of the host
moves the kernel and the job alike and cancels out.

With `--trace 0` the run reports the end-to-end metrics. With `--trace 1` it
runs every case both untraced and with every library layer wrapped, then one
job under tracemalloc, and reports the per-layer metrics and the tracing
overhead. Human-readable lines come first; the last line of
standard output is one JSON object. The exit code is 0 when every output
check passed, 1 when one failed and 2 when the library cannot be loaded.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
NAMES = ("factor-mix", "merge-passes", "product-verify")
SETUPS = 5  # set-up repeats; setup_s is their median
# job_s.tail is this percentile; every run has at least MIN_JOBS jobs, so at
# least ten lie beyond it. Ladders have 3 or 9 cases, so neither the median
# nor p80 falls on the boundary between two cases' job times.
TAIL_PERCENTILE = 80
MIN_JOBS = 50
MIN_TRACE_CYCLES = 3  # so that every case has a median on both sides
# Median speed_kernel() seconds on the reference host (see README.md): a
# 2-vCPU Intel Xeon VM at 2.0 GHz, Python 3.11.7.
REF_KERNEL_S = 0.035


class LibraryMissing(Exception):
    pass


def load_library() -> None:
    """Import boxfactor from this checkout's src, never from elsewhere."""
    pkg = SRC / "boxfactor"
    if not (pkg / "__init__.py").is_file():
        raise LibraryMissing(f"no library sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import boxfactor

    if Path(boxfactor.__file__).resolve().parent != pkg.resolve():
        raise LibraryMissing(f"boxfactor imported from {boxfactor.__file__}, not {pkg}")


def speed_kernel() -> float:
    """Seconds of one fixed pure-Python kernel: integer arithmetic, tuples,
    dict-of-lists grouping and a sort, like most of the library's
    pure-Python work. It calls no library code and runs with the garbage
    collector off, so neither the program nor its heap changes its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        x, acc, groups = 1, 0, {}
        for i in range(40_000):
            x = (x * 1_103_515_245 + 12_345) % 2_147_483_648
            acc += i * i % 7
            groups.setdefault(x % 2_003, []).append((x, i))
        acc += sum(len(v) for _, v in sorted(groups.items()))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def run_job(W, case, job_id: int, tracer=None):
    """One timed job; returns (seconds, output correct)."""
    for p in W.outputs(case):
        p.unlink(missing_ok=True)
    gc.collect()
    if tracer is not None:
        tracer.begin_job(job_id)
    t0 = time.perf_counter()
    try:
        result = W.job(case)
    except Exception as exc:  # a failed job is counted, not fatal
        result = exc
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.end_job(t0, t1)
    if isinstance(result, Exception):
        print(f"job {case.name} raised {result!r}", file=sys.stderr)
        return t1 - t0, False
    try:
        ok = W.check(case, result)
    except Exception as exc:
        print(f"check of {case.name} raised {exc!r}", file=sys.stderr)
        ok = False
    if not ok:
        print(f"job {case.name}: output check failed", file=sys.stderr)
    return t1 - t0, ok


def measure(W, cases, seconds: float):
    """Cycle through the ladder until one more cycle would pass `seconds`.

    Returns one (case, corrected seconds, ok) row per job and the kernel
    times. Whole cycles only, so every run sees the same mix of sizes; at
    least MIN_JOBS jobs.
    """
    rows = []
    kernel = [speed_kernel()]
    start = time.perf_counter()
    cycles = 0
    while True:
        for case in cases:
            dt, ok = run_job(W, case, len(rows))
            kernel.append(speed_kernel())
            rows.append((case, dt * 2 * REF_KERNEL_S / (kernel[-2] + kernel[-1]), ok))
        cycles += 1
        elapsed = time.perf_counter() - start
        if len(rows) >= MIN_JOBS and elapsed * (cycles + 1) / cycles > seconds:
            return rows, kernel


def set_up(W, seed: int, inputs: Path):
    """Build every input from the seed and finish one warm-up job, SETUPS times.

    The warm-up job runs the case of median size, which is large enough to
    load everything a job loads lazily (scipy, for the shadow step). Each
    set-up is followed by one speed_kernel() outside the timing. A set-up is
    corrected by the mean of the kernel times before and after it; the first
    has only the one after.
    """
    times, kernel = [], []
    t0 = T_START  # the first set-up counts from process start
    for _ in range(SETUPS):
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        cases = W.prepare(seed, inputs)
        warm = sorted(cases, key=lambda c: c.arcs)[len(cases) // 2]
        _, ok = run_job(W, warm, -1)
        times.append(time.perf_counter() - t0)
        if not ok:
            return cases, times, False
        kernel.append(speed_kernel())
        t0 = time.perf_counter()
    around = zip([kernel[0]] + kernel, kernel)
    return cases, [t * 2 * REF_KERNEL_S / (a + b) for t, (a, b) in zip(times, around)], True


def end_to_end(rows, setups) -> dict[str, tuple[float, str]]:
    times = [dt for _, dt, _ in rows]
    medians = case_medians(rows).values()
    # a rung is the arc count rounded to a power of two; its cost is the mean
    # of its cases' median seconds per arc
    rungs: dict[int, list[float]] = {}
    for case, m in medians:
        rungs.setdefault(round(math.log2(case.arcs)), []).append(m / case.arcs)
    per_arc = [statistics.mean(v) for v in rungs.values()]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.tail": (statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1], "s"),
        "arcs_per_s": (sum(c.arcs for c, _ in medians) / sum(m for _, m in medians), "1/s"),
        "per_arc_spread": (max(per_arc) / min(per_arc), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def case_medians(rows) -> dict[str, tuple[object, float]]:
    """Median job seconds of every case, keyed by case name."""
    by_case: dict[str, list] = {}
    for case, dt, _ in rows:
        by_case.setdefault(case.name, [case]).append(dt)
    return {name: (v[0], statistics.median(v[1:])) for name, v in by_case.items()}


def per_layer(W, cases, seconds: float, spans_file: Path):
    """Per-layer metrics; returns (rows, metrics, mean traced job seconds).

    Every case runs twice per cycle, once untraced and once traced, in
    alternating order, so the overhead estimate sees the same machine state
    on both sides. One job on the largest input then runs under tracemalloc
    for the peaks.
    """
    import spans

    tracer = spans.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    cycle = 0
    while True:
        for case in cases:
            for with_trace in (cycle % 2 == 1, cycle % 2 == 0):
                if not with_trace:
                    plain.append((case, *run_job(W, case, len(plain))))
                    continue
                tracer.install()
                try:
                    traced.append((case, *run_job(W, case, len(traced), tracer)))
                finally:
                    tracer.uninstall()
        cycle += 1
        elapsed = time.perf_counter() - start
        if cycle >= MIN_TRACE_CYCLES and elapsed * (cycle + 1) / cycle > seconds:
            break
    tracer.write(spans_file)

    memory = spans.Tracer(memory=True)
    largest = max(cases, key=lambda c: c.arcs)
    memory.install()
    tracemalloc.start()
    try:
        mem_row = (largest, *run_job(W, largest, 0, memory))
    finally:
        tracemalloc.stop()
        memory.uninstall()

    metrics = tracer.layer_metrics()
    for name in spans.PEAKED:
        metrics[f"{name}.peak_mb"] = (memory.peaks[name], "MB")
    base, with_trace = case_medians(plain), case_medians(traced)
    ratio = sum(m for _, m in with_trace.values()) / sum(m for _, m in base.values())
    metrics["trace_overhead"] = (ratio - 1, "ratio")
    job_s = statistics.mean(dt for _, dt, _ in traced)
    return plain + traced + [mem_row], metrics, job_s


def print_table(metrics, job_s: float) -> None:
    print(f"{'layer':44} {'self_s/job':>12} {'of job':>7} {'calls/job':>10}")
    names = sorted(
        {k.rsplit(".", 1)[0] for k in metrics if k.endswith(".self_s")},
        key=lambda n: -metrics[f"{n}.self_s"][0],
    )
    for n in names:
        s = metrics[f"{n}.self_s"][0]
        print(f"{n:44} {s:12.6f} {s / job_s:7.1%} {metrics[f'{n}.calls'][0]:10.2f}")


def run_one(args) -> int:
    try:
        load_library()
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    W = workloads.WORKLOADS[args.workload]
    inputs = WORK / f"{args.workload}-{args.seed}"
    try:
        cases, setups, ok = set_up(W, args.seed, inputs)
        if not ok:
            print("error: warm-up job failed its output check", file=sys.stderr)
            return 1
        if args.trace:
            spans_file = WORK / f"spans-{args.workload}-{args.seed}.json"
            rows, metrics, job_s = per_layer(W, cases, args.seconds, spans_file)
        else:
            rows, kernel = measure(W, cases, args.seconds)
            metrics = end_to_end(rows, setups)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    failed = sum(1 for _, _, ok in rows if not ok)
    print(f"workload {W.name}: {len(rows)} jobs over {len(cases)} cases, 1 client, 1 process")
    print(f"failed_ratio {failed / len(rows):.6f}")
    if args.trace:
        print_table(metrics, job_s)
        print(f"spans written to {spans_file.relative_to(ROOT)}")
    else:
        print(f"job_s.tail is p{TAIL_PERCENTILE} of {len(rows)} jobs")
        speed = REF_KERNEL_S / statistics.median(kernel)
        print(f"host speed {speed:.3f} of the reference (times below are corrected for it)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    worst = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
