"""Self-tests of the benchmark: span arithmetic, output checks, seeded inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

run.load_library()

import spans  # noqa: E402
import workloads  # noqa: E402
from boxfactor import product  # noqa: E402


def _tree():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 9], which holds
    # the overlapping E [6, 7] and F [6.5, 8]
    S = spans.Span
    return [
        S("A", 0.0, 10.0, None, 0),
        S("B", 1.0, 4.0, 0, 0),
        S("C", 2.0, 3.0, 1, 0),
        S("D", 5.0, 9.0, 0, 0),
        S("E", 6.0, 7.0, 3, 0),
        S("F", 6.5, 8.0, 3, 0),
    ]


def test_self_time_subtracts_covered_child_time():
    assert spans.self_times(_tree()) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])


def test_untraced_time_is_job_time_outside_top_level_spans():
    tracer = spans.Tracer()
    tracer.spans = _tree() + [spans.Span("G", 10.5, 11.0, None, 0)]
    tracer.counts = [{}]
    tracer.job_times = [(0, -1.0, 12.0)]
    metrics = tracer.layer_metrics()
    assert metrics["untraced_s"][0] == pytest.approx(13.0 - 10.0 - 0.5)


def _first(cases, name):
    return next(c for c in cases if c.name == name)


def test_factor_mix_check_flags_swapped_coordinates(tmp_path):
    W = workloads.FactorMix()
    case = _first(W.prepare(5, tmp_path), "gen0")
    result = W.job(case)
    coords = Path(case.data["path"] + ".coords")
    good = coords.read_text()
    rows = [line.split() for line in good.splitlines()]  # "c <vertex> <c1> ... <ck>"
    j = next(j for j in range(1, len(rows)) if rows[j][2:] != rows[0][2:])
    rows[0][2:], rows[j][2:] = rows[j][2:], rows[0][2:]
    swapped = "\n".join(" ".join(r) for r in rows) + "\n"
    coords.write_text(swapped)
    assert not W.check(case, result)  # full check: reconstruction fails
    coords.write_text(good)
    assert W.check(case, result)
    coords.write_text(swapped)
    assert not W.check(case, result)  # later check: bytes differ from the verified run


def test_merge_passes_check_flags_swapped_coordinates(tmp_path):
    W = workloads.MergePasses()
    case = W.prepare(5, tmp_path)[0]
    NF, F = W.job(case)
    coords = list(F.coordin.coords)
    j = next(v for v in range(1, len(coords)) if coords[v] != coords[0])
    coords[0], coords[j] = coords[j], coords[0]
    bad = dataclasses.replace(
        F, coordin=product.Coordinatization(F.factors, tuple(coords), F.coordin.root)
    )
    assert not W.check(case, (NF, bad))
    assert W.check(case, (NF, F))
    assert not W.check(case, (NF, bad))


def test_product_verify_check_flags_swapped_arcs(tmp_path):
    W = workloads.ProductVerify()
    case = W.prepare(5, tmp_path)[0]
    result = W.job(case)
    assert W.check(case, result)
    out = Path(case.data["p"])
    lines = out.read_text().splitlines()
    a = next(i for i, line in enumerate(lines) if line.startswith("a "))
    u, v = lines[a].split()[1:]
    lines[a] = f"a {v} {u}"
    out.write_text("\n".join(lines) + "\n")
    assert not W.check(case, result)


def _snapshot(W, cases, workdir: Path):
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    graphs = [
        (c.name, c.arcs, sorted(c.data["G"].arcs), sorted(c.data["G"].loops), c.data["SF"].coordin.coords)
        for c in cases
        if "G" in c.data
    ]
    return files, graphs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeded_generation_is_byte_identical(name, tmp_path):
    W = workloads.WORKLOADS[name]
    snaps = []
    for run_dir, seed in (("a", 7), ("b", 7), ("c", 8)):
        d = tmp_path / run_dir
        d.mkdir()
        snaps.append(_snapshot(W, W.prepare(seed, d), d))
    assert snaps[0] == snaps[1]
    assert snaps[0] != snaps[2]


def test_job_seconds_are_scaled_by_the_kernels_around_them(monkeypatch):
    # kernels run at half, then the reference, then a quarter of the
    # reference speed; each job is timed at 1 s of wall time
    kernels = iter([2 * run.REF_KERNEL_S, run.REF_KERNEL_S, 4 * run.REF_KERNEL_S])
    monkeypatch.setattr(run, "speed_kernel", lambda: next(kernels))
    monkeypatch.setattr(run, "run_job", lambda W, case, job_id: (1.0, True))
    cases = [workloads.Case("a", 10, {}), workloads.Case("b", 20, {})]
    monkeypatch.setattr(run, "MIN_JOBS", 1)
    rows, kernel = run.measure(None, cases, 0.0)
    assert [dt for _, dt, _ in rows] == pytest.approx([2 / 3, 0.4])
    assert kernel == pytest.approx([2 * run.REF_KERNEL_S, run.REF_KERNEL_S, 4 * run.REF_KERNEL_S])
