"""Whole `boxfactor factor` runs on generated products, one child process each.

    python tools/bench_e2e.py grid:64000 cube:64000 randprod:1000000

Each spec `family:arcs` names a `bench` family (grid, cube, randprod) and a
target arc count; the instance is `cli._bench_instance(family, arcs,
random.Random(1))`, the one `boxfactor bench` draws first with its default
seed. A spawned process shuffles its labels by `random.Random(1)` through
`tests/helpers.relabel`, as perfbench's factor-mix inputs are, and writes
it as canonical text. `python -m boxfactor.cli factor --input FILE` then
runs on it in a child process, with this checkout's `src` first on the
path.

Each run prints one JSON row: the family, the target and the arc count,
the labelling ("scrambled"), every `time_*` line of the report in
seconds, and the child's peak RSS (`ru_maxrss`, kB on Linux) from
`os.wait4`. `--markdown` prints the same facts as a fenced block per run
instead, for a CI job summary.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "tests")]


def write_instance(family: str, arcs: int, path: Path) -> None:
    """Write the scrambled bench draw as canonical text. It runs in a
    spawned process: on Linux a child's `ru_maxrss` starts from the peak RSS
    of the process that started it, so that process must stay small."""
    from boxfactor.cli import _bench_instance
    from boxfactor.core import to_text
    from helpers import relabel

    G = _bench_instance(family, arcs, random.Random(1))[0]
    perm = list(range(G.n))
    random.Random(1).shuffle(perm)
    path.write_text(to_text(relabel(G, perm)))


def run_factor(path: Path) -> tuple[dict[str, str], int]:
    """The report lines of `factor` on `path` as a dict, and the child's
    peak RSS in kB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "boxfactor.cli", "factor", "--input", str(path)]
    with tempfile.TemporaryFile("w+") as out:
        child = subprocess.Popen(cmd, stdout=out, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code:
            raise SystemExit(f"factor exited {code} on {path}")
        out.seek(0)
        report = dict(line.rstrip("\n").split(": ", 1) for line in out if ": " in line)
    return report, usage.ru_maxrss


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("specs", nargs="+", metavar="family:arcs")
    ap.add_argument("--markdown", action="store_true", help="a fenced block per run")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for spec in args.specs:
            family, arcs = spec.split(":")
            path = Path(tmp) / f"{family}-{arcs}.dg"
            with multiprocessing.get_context("spawn").Pool(1) as pool:
                pool.apply(write_instance, (family, int(arcs), path))
            report, rss = run_factor(path)
            times = {k: float(v) for k, v in report.items() if k.startswith("time_")}
            if args.markdown:
                print(f"{family}, scrambled, arcs: {report['arcs']}:\n```")
                print("".join(f"{k}: {report[k]}\n" for k in times), end="")
                print(f"peak_rss_kb: {rss}\n```", flush=True)
            else:
                row = {"family": family, "target": int(arcs), "arcs": int(report["arcs"])}
                row |= {"labelling": "scrambled", **times, "ru_maxrss_kb": rss}
                print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
