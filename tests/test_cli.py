import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from boxfactor import (
    DiGraph,
    canonical_small_graphs,
    cartesian_product,
    coords_to_text,
    factor_full,
    gen_product_instance,
    to_text,
)
from boxfactor.cli import main
from helpers import (
    consistent_square,
    inconsistent_square,
    loop_product,
    looped_far_corner,
)


def write_graph(path, G):
    path.write_text(to_text(G), encoding="utf-8")
    return str(path)


def out_lines(capsys):
    return dict(
        line.split(": ", 1)
        for line in capsys.readouterr().out.splitlines()
        if ": " in line
    )


class TestFactorCommand:
    def test_splits_consistent_square(self, tmp_path, capsys):
        g = write_graph(tmp_path / "square.dg", consistent_square())
        assert main(["factor", "--input", g]) == 0
        got = out_lines(capsys)
        assert got["factors"] == "2"
        assert got["merges"] == "0"
        assert got["sizes"] == "2 2"
        assert (tmp_path / "square.dg.factor0").read_text() == "n 2\na 0 1\n"
        assert (tmp_path / "square.dg.factor1").read_text() == "n 2\na 0 1\n"

    def test_prime_reproduces_itself(self, tmp_path, capsys):
        G = looped_far_corner()
        g = write_graph(tmp_path / "prime.dg", G)
        assert main(["factor", "--input", g]) == 0
        got = out_lines(capsys)
        assert got["factors"] == "1"
        assert (tmp_path / "prime.dg.factor0").read_text() == to_text(G)

    def test_trivial_graph(self, tmp_path, capsys):
        g = write_graph(tmp_path / "point.dg", DiGraph(1, set(), set()))
        assert main(["factor", "--input", g]) == 0
        got = out_lines(capsys)
        assert got["factors"] == "0"
        assert got["vertices"] == "1"

    def test_verify_flag(self, tmp_path, capsys):
        P, _, _, _ = loop_product()
        g = write_graph(tmp_path / "prod.dg", P)
        assert main(["factor", "--input", g, "--verify"]) == 0
        assert out_lines(capsys)["verified"] == "true"

    def test_timings_reported(self, tmp_path, capsys):
        g = write_graph(tmp_path / "g.dg", consistent_square())
        main(["factor", "--input", g])
        got = out_lines(capsys)
        for key in ("time_parse", "time_shadow", "time_directed", "time_loops", "time_total"):
            assert float(got[key]) >= 0.0

    def test_explicit_root(self, tmp_path, capsys):
        P, _, _, _ = loop_product()
        g = write_graph(tmp_path / "prod.dg", P)
        assert main(["factor", "--input", g, "--root", "1"]) == 0
        assert out_lines(capsys)["root"] == "1"

    def test_emit_colors(self, tmp_path, capsys):
        G = consistent_square()
        g = write_graph(tmp_path / "sq.dg", G)
        assert main(["factor", "--input", g, "--emit-colors"]) == 0
        lines = (tmp_path / "sq.dg.colors").read_text().splitlines()
        rows = [ln.split() for ln in lines]
        assert all(r[0] == "e" for r in rows)
        edges = {(int(r[1]), int(r[2])): int(r[3]) for r in rows}
        assert set(edges) == {(0, 1), (0, 2), (1, 3), (2, 3)}
        assert edges[(0, 1)] == edges[(2, 3)]
        assert edges[(0, 2)] == edges[(1, 3)]
        assert edges[(0, 1)] != edges[(0, 2)]


class TestFactorMatchesLibrary:
    """`factor` writes and reports exactly what `factor_full` returns."""

    @staticmethod
    def _check(tmp_path, capsys, G, root):
        F = factor_full(G, root)
        g = write_graph(tmp_path / "g.dg", G)
        assert main(["factor", "--input", g, "--root", str(root), "--emit-coords"]) == 0
        got = out_lines(capsys)
        assert got["root"] == str(F.coordin.root) == str(root)
        assert got["factors"] == str(F.k)
        assert got["sizes"] == " ".join(str(Fi.n) for Fi in F.factors)
        assert got["merges"] == str(sum(m for _, _, m in F.stages))
        for i, Fi in enumerate(F.factors):
            assert (tmp_path / f"g.dg.factor{i}").read_text() == to_text(Fi)
        assert not (tmp_path / f"g.dg.factor{F.k}").exists()
        assert (tmp_path / "g.dg.coords").read_text() == coords_to_text(F.coordin.coords)
        for i in range(F.k):
            (tmp_path / f"g.dg.factor{i}").unlink()

    def test_small_graphs_and_generated_products(self, tmp_path, capsys):
        rng = random.Random(3)
        graphs = [G for n in (1, 2, 3) for G in canonical_small_graphs(n)]
        graphs += [
            gen_product_instance(rng.randint(1, 3), (2, 4), 0.3, seed)[0]
            for seed in range(50)
        ]
        for G in graphs:
            root = rng.choice([v for v in range(G.n) if v not in G.loops])
            self._check(tmp_path, capsys, G, root)

    def test_merges_count_both_passes(self, tmp_path, capsys):
        # k0 = 4 -> 3 -> 2: one direction merge, then one loop merge
        P, _ = cartesian_product([inconsistent_square(), looped_far_corner()])
        F = factor_full(P)
        assert F.merges == 1
        assert [(name, m) for name, _, m in F.stages] == [
            ("shadow", 0), ("directed", 1), ("loops", 1)
        ]
        g = write_graph(tmp_path / "p.dg", P)
        assert main(["factor", "--input", g]) == 0
        assert out_lines(capsys)["merges"] == "2"


class TestRoundTrip:
    def test_factor_then_product_is_byte_exact(self, tmp_path, capsys):
        P, _, _, _ = loop_product()
        g = write_graph(tmp_path / "prod.dg", P)
        assert main(["factor", "--input", g, "--emit-coords"]) == 0
        got = out_lines(capsys)
        nfac = int(got["factors"])
        parts = [f"{g}.factor{i}" for i in range(nfac)]
        rebuilt = tmp_path / "rebuilt.dg"
        assert (
            main(
                ["product", *parts, "--coords", f"{g}.coords", "-o", str(rebuilt)]
            )
            == 0
        )
        assert rebuilt.read_text() == (tmp_path / "prod.dg").read_text()

    def test_product_stdout_matches_file(self, tmp_path, capsys):
        a = write_graph(tmp_path / "a.dg", DiGraph(2, {(0, 1)}, set()))
        b = write_graph(tmp_path / "b.dg", DiGraph(2, {(0, 1), (1, 0)}, {1}))
        assert main(["product", a, b]) == 0
        text = capsys.readouterr().out
        out = tmp_path / "p.dg"
        assert main(["product", a, b, "-o", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text() == text

    @pytest.mark.parametrize(
        "rows",
        [
            "c 0 0 0\nc 1 0 1\nc 2 1 0\nc 3 1 1 0\n",  # wrong width
            "c 0 0 0\nc 1 0 1\nc 2 1 0\nc 3 1 2\n",  # out of range
            "c 0 0 0\nc 1 0 1\nc 2 1 0\nc 3 0 1\n",  # (0, 1) assigned twice
        ],
        ids=["wrong-width", "out-of-range", "assigned-twice"],
    )
    def test_product_coords_off_grid_or_twice_exit_2(self, rows, tmp_path, capsys):
        a = write_graph(tmp_path / "a.dg", DiGraph(2, {(0, 1)}, set()))
        t = tmp_path / "t.coords"
        t.write_text(rows)
        out = tmp_path / "p.dg"
        assert main(["product", a, a, "--coords", str(t), "-o", str(out)]) == 2
        assert not out.exists()

    def test_product_without_coords_is_row_major(self, tmp_path, capsys):
        a = write_graph(tmp_path / "a.dg", DiGraph(2, {(0, 1)}, set()))
        assert main(["product", a, a]) == 0
        assert capsys.readouterr().out == "n 4\na 0 1\na 0 2\na 1 3\na 2 3\n"


class TestVerifyCommand:
    def test_true_factorization(self, tmp_path, capsys):
        P, C, A, B = loop_product()
        g = write_graph(tmp_path / "prod.dg", P)
        fa = write_graph(tmp_path / "fa.dg", A)
        fb = write_graph(tmp_path / "fb.dg", B)
        coords = tmp_path / "prod.coords"
        coords.write_text(
            "".join(
                f"c {v} {' '.join(map(str, C.coords[v]))}\n" for v in range(P.n)
            )
        )
        assert main(["verify", g, fa, fb, "--coords", str(coords)]) == 0
        assert out_lines(capsys)["verified"] == "true"

    def test_false_factorization_exits_5(self, tmp_path, capsys):
        P, C, A, B = loop_product()
        g = write_graph(tmp_path / "prod.dg", P)
        fa = write_graph(tmp_path / "fa.dg", DiGraph(2, {(0, 1), (1, 0)}, set()))
        fb = write_graph(tmp_path / "fb.dg", B)
        coords = tmp_path / "prod.coords"
        coords.write_text(
            "".join(
                f"c {v} {' '.join(map(str, C.coords[v]))}\n" for v in range(P.n)
            )
        )
        assert main(["verify", g, fa, fb, "--coords", str(coords)]) == 5
        assert out_lines(capsys)["verified"] == "false"

    def test_incomplete_coords_rejected(self, tmp_path, capsys):
        P, C, A, B = loop_product()
        g = write_graph(tmp_path / "prod.dg", P)
        fa = write_graph(tmp_path / "fa.dg", A)
        fb = write_graph(tmp_path / "fb.dg", B)
        coords = tmp_path / "prod.coords"
        coords.write_text("c 0 0 0\n")
        assert main(["verify", g, fa, fb, "--coords", str(coords)]) == 2


    def test_coords_for_other_vertices_rejected(self, tmp_path, capsys):
        # four rows, but for vertices 0, 1, 2 and 7 of a 4-vertex graph
        P, C, A, B = loop_product()
        g = write_graph(tmp_path / "prod.dg", P)
        fa = write_graph(tmp_path / "fa.dg", A)
        fb = write_graph(tmp_path / "fb.dg", B)
        coords = tmp_path / "prod.coords"
        coords.write_text("c 0 0 0\nc 1 0 1\nc 2 1 0\nc 7 1 1\n")
        assert main(["verify", g, fa, fb, "--coords", str(coords)]) == 2
        assert main(["product", fa, fb, "--coords", str(coords)]) == 2
        assert "must cover vertices 0..3" in capsys.readouterr().err


class TestGenerateCommand:
    def test_deterministic_output(self, tmp_path, capsys):
        out1 = tmp_path / "one.dg"
        out2 = tmp_path / "two.dg"
        args = ["generate", "--factors", "2", "--min", "2", "--max", "4",
                "--loops", "0.3", "--seed", "11"]
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        assert (tmp_path / "one.dg.truth0").read_text() == (
            tmp_path / "two.dg.truth0"
        ).read_text()

    def test_generated_instance_factors_back(self, tmp_path, capsys):
        out = tmp_path / "inst.dg"
        assert (
            main(["generate", "--factors", "3", "--min", "2", "--max", "3",
                  "--loops", "0.2", "--seed", "4", "-o", str(out)])
            == 0
        )
        got = out_lines(capsys)
        assert got["graph_file"] == str(out)
        assert main(["factor", "--input", str(out), "--verify"]) == 0
        got = out_lines(capsys)
        assert got["verified"] == "true"
        assert got["factors"] == "3"

    @pytest.mark.parametrize("p", ["2", "-0.5", "nan"])
    def test_loop_probability_out_of_range_exits_2(self, p, tmp_path, capsys):
        out = tmp_path / "g.dg"
        assert main(["generate", "--loops", p, "-o", str(out)]) == 2
        assert "loop probability must be in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_factor_size_past_the_oracle_bound_exits_2(self, tmp_path):
        # a separate process with a timeout, so that a generator that never
        # finds a factor fails the test instead of hanging the suite
        out = tmp_path / "g.dg"
        src = str(Path(__file__).resolve().parents[1] / "src")
        run = subprocess.run(
            [sys.executable, "-m", "boxfactor.cli", "generate",
             "--min", "18", "--max", "18", "-o", str(out)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 2, run.stderr
        assert "exceeds 17" in run.stderr
        assert not out.exists()


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert main(["factor", "--input", "/nonexistent/g.dg"]) == 2

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.dg"
        bad.write_text("n 2\na 0 5\n")
        assert main(["factor", "--input", str(bad)]) == 2

    def test_disconnected_exits_3(self, tmp_path, capsys):
        g = write_graph(
            tmp_path / "dis.dg", DiGraph(4, {(0, 1), (1, 0), (2, 3), (3, 2)}, set())
        )
        assert main(["factor", "--input", g]) == 3

    def test_disconnected_all_looped_exits_3(self, tmp_path, capsys):
        g = write_graph(
            tmp_path / "dis.dg",
            DiGraph(4, {(0, 1), (1, 0), (2, 3), (3, 2)}, {0, 1, 2, 3}),
        )
        assert main(["factor", "--input", g]) == 3

    def test_disconnected_looped_root_exits_3(self, tmp_path, capsys):
        g = write_graph(
            tmp_path / "dis.dg", DiGraph(4, {(0, 1), (1, 0), (2, 3), (3, 2)}, {2})
        )
        assert main(["factor", "--input", g, "--root", "2"]) == 3

    def test_sparse_huge_graph_exits_3_without_allocating(self, tmp_path, capsys):
        # 10^6 vertices, one arc: disconnected, and known to be before the
        # shadow or the BFS allocates anything of size n
        g = tmp_path / "huge.dg"
        g.write_text("n 1000000\na 0 1\n")
        tracemalloc.start()
        try:
            rc = main(["factor", "--input", str(g)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 3
        assert "disconnected" in capsys.readouterr().err
        assert peak < 1 << 20, peak

    def test_all_looped_exits_4(self, tmp_path, capsys):
        g = write_graph(tmp_path / "loops.dg", DiGraph(2, {(0, 1), (1, 0)}, {0, 1}))
        assert main(["factor", "--input", g]) == 4

    def test_looped_root_exits_4(self, tmp_path, capsys):
        P, _, _, _ = loop_product()
        g = write_graph(tmp_path / "prod.dg", P)
        assert main(["factor", "--input", g, "--root", "2"]) == 4

    def test_root_out_of_range_exits_2(self, tmp_path, capsys):
        g = write_graph(tmp_path / "sq.dg", consistent_square())
        assert main(["factor", "--input", g, "--root", "55"]) == 2

    def test_internal_invariant_failure_exits_6(self, tmp_path, capsys, monkeypatch):
        from boxfactor import FactorizationError, loop_factor

        def broken(*args, **kwargs):
            raise FactorizationError("coloring is not a product coloring")

        monkeypatch.setattr(loop_factor, "factor_shadow", broken)
        g = write_graph(tmp_path / "sq.dg", consistent_square())
        assert main(["factor", "--input", g]) == 6
        err = capsys.readouterr().err
        assert err.startswith("error: internal invariant failed:")
        assert "Traceback" not in err

    def test_out_of_memory_exits_7(self, tmp_path, capsys, monkeypatch):
        from boxfactor import cli

        def exhausted(factors):
            raise MemoryError

        monkeypatch.setattr(cli, "cartesian_product", exhausted)
        g = write_graph(tmp_path / "k2.dg", DiGraph(2, {(0, 1)}, set()))
        out = tmp_path / "out.dg"
        assert main(["product", g, g, "-o", str(out)]) == 7
        captured = capsys.readouterr()
        assert captured.err == "error: out of memory\n"
        assert captured.out == ""
        assert not out.exists()


class TestBenchCommand:
    @pytest.mark.parametrize("family", ["grid", "cube", "randprod"])
    def test_tiny_ladder(self, family, tmp_path, capsys):
        csv = tmp_path / "bench.csv"
        assert (
            main(["bench", "--family", family, "--min-arcs", "40",
                  "--max-arcs", "300", "--reps", "1", "--emit-csv", str(csv)])
            == 0
        )
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "arcs,seconds,seconds_per_arc"
        rows = [line.split(",") for line in out[1:]]
        assert len(rows) >= 2
        arcs = [int(r[0]) for r in rows]
        # strictly increasing sizes, none above --max-arcs
        assert all(a < b for a, b in zip(arcs, arcs[1:]))
        assert arcs[-1] <= 300
        # instance sizing tracks the doubling targets approximately
        assert arcs[-1] >= 150
        assert arcs[-1] >= 2 * arcs[0]
        for r in rows:
            assert float(r[1]) >= 0.0
            assert float(r[2]) > 0.0
        assert csv.read_text().splitlines() == out

    def test_ladder_ends_at_max_arcs(self, capsys):
        assert main(["bench", "--family", "grid", "--min-arcs", "40",
                     "--max-arcs", "312", "--reps", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        # grids have 2a^2 - 2a arcs: a = 5, 6, 9, 13
        assert [int(line.split(",")[0]) for line in out[1:]] == [40, 60, 144, 312]

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_reps_below_one_exits_2(self, reps, capsys):
        assert main(["bench", "--family", "grid", "--min-arcs", "40",
                     "--max-arcs", "80", "--reps", reps]) == 2
        assert "--reps must be at least 1" in capsys.readouterr().err


class TestParserReuse:
    """main builds its argument parser once per process; later calls with
    other commands behave as in a fresh process."""

    @staticmethod
    def _run(code, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        run = subprocess.run(
            [sys.executable, "-c", code],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 0, run.stderr
        # the timings differ from run to run
        return [line for line in run.stdout.splitlines() if not line.startswith("time_")]

    def test_two_commands_in_one_process_match_fresh_processes(self, tmp_path):
        commands = [
            ["generate", "--factors", "3", "--loops", "0.3", "--seed", "4", "-o", "g.dg"],
            ["factor", "--input", "g.dg", "--emit-coords", "--verify"],
            ["verify", "g.dg", "g.dg.factor0", "g.dg.factor1", "g.dg.factor2",
             "--coords", "g.dg.coords"],
        ]
        call = "from boxfactor.cli import main\nprint('exit', main({!r}))\n"
        fresh = []
        for argv in commands:
            fresh += self._run(call.format(argv), tmp_path)
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert {"g.dg", "g.dg.coords", "g.dg.factor2"} <= files.keys()
        for p in tmp_path.iterdir():
            p.unlink()
        together = self._run("".join(call.format(argv) for argv in commands), tmp_path)
        assert together == fresh
        assert fresh.count("exit 0") == 3
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files

    def test_argument_errors_still_exit_2(self, tmp_path, capsys):
        g = tmp_path / "g.dg"
        assert main(["generate", "--seed", "1", "-o", str(g)]) == 0
        for argv in (["factor"], ["nosuchcommand"], ["factor", "--input", str(g), "--root", "x"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        capsys.readouterr()
        assert main(["factor", "--input", str(g)]) == 0
        assert "factors: " in capsys.readouterr().out
