import gc
import hashlib
import io
import os
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxfactor import (
    ColorPartition,
    Coordinatization,
    DiGraph,
    DirectedFactorization,
    DisconnectedGraphError,
    FactorizationError,
    GraphFormatError,
    NoUnloopedVertexError,
    cartesian_product,
    factor_full,
    gen_product_instance,
    to_text,
)
from boxfactor import cli, loop_factor
from boxfactor.cli import _bench_instance, main
from helpers import (
    canonical_small_graphs,
    consistent_square,
    coords_to_text,
    inconsistent_square,
    klein_bottle_grid,
    loop_product,
    looped_far_corner,
    mobius_ladder,
    pendant_grid,
    relabel,
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
        for key in (
            "time_parse",
            "time_prepare",
            "time_shadow",
            "time_directed",
            "time_loops",
            "time_total",
        ):
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

    def test_emit_colors_rejects_a_two_digit_change(self, tmp_path, capsys, monkeypatch):
        # over K2 x K2 with each vertex at its code, the edge (1, 2) goes
        # from (0, 1) to (1, 0): its code difference, +1, is a step of
        # coordinate 1, but both coordinates change
        K2 = DiGraph(2, {(0, 1), (1, 0)}, set())
        C = Coordinatization._of_codes((K2, K2), range(4), 0)
        G = DiGraph(4, {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}, set())
        with pytest.raises(FactorizationError, match=r"edge \(1, 2\) changes 2 coordinates"):
            cli._final_edge_colors(G, C)
        F = DirectedFactorization(ColorPartition(2), C, 0)
        monkeypatch.setattr(cli, "factor_full", lambda G, root: F)
        g = write_graph(tmp_path / "g.dg", G)
        assert main(["factor", "--input", g, "--emit-colors"]) == 6
        assert "changes 2 coordinates" in capsys.readouterr().err


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
            ("prepare", 0), ("shadow", 0), ("directed", 1), ("loops", 1)
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


    @pytest.mark.parametrize("missing", ["factor", "table"])
    def test_missing_factor_or_table_file_exits_2(self, missing, tmp_path, capsys):
        # the claim cannot be built, and the parse-and-compare path, which
        # loads the files again, reports the missing one
        P, C, A, B = loop_product()
        g = write_graph(tmp_path / "prod.dg", P)
        fa = write_graph(tmp_path / "fa.dg", A)
        fb = write_graph(tmp_path / "fb.dg", B)
        coords = tmp_path / "prod.coords"
        coords.write_text(coords_to_text(C.coords))
        gone = str(tmp_path / "gone")
        argv = ["verify", g, fa, fb, "--coords", str(coords)]
        argv[argv.index(fb if missing == "factor" else str(coords))] = gone
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and gone in captured.err
        assert captured.out == ""

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


def factored(tmp_path, capsys, G, name="g.dg"):
    """Write G, run `factor --emit-coords` on it, and return the graph path,
    the factor paths and the coordinate table path."""
    g = write_graph(tmp_path / name, G)
    assert main(["factor", "--input", g, "--emit-coords"]) == 0
    nfac = int(out_lines(capsys)["factors"])
    return g, [f"{g}.factor{i}" for i in range(nfac)], f"{g}.coords"


class TestVerifyPaths:
    """`verify` compares a canonical graph file with the claimed product's
    text; any other file, or any error, takes the parse-and-compare path,
    which alone reports errors, `false` and exit codes."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from boxfactor import cli

        seen = {"parse_graph": [], "reconstruct_check_parts": 0}
        parse_graph, reconstruct = cli.parse_graph, cli.reconstruct_check_parts

        def parse_spy(text):
            seen["parse_graph"].append(text)
            return parse_graph(text)

        def reconstruct_spy(*args):
            seen["reconstruct_check_parts"] += 1
            return reconstruct(*args)

        monkeypatch.setattr(cli, "parse_graph", parse_spy)
        monkeypatch.setattr(cli, "reconstruct_check_parts", reconstruct_spy)
        return seen

    def looped_product(self):
        G = gen_product_instance(3, (2, 4), 0.3, 1)[0]
        assert G.loops
        return G

    def test_canonical_file_is_compared_not_parsed(self, tmp_path, capsys, calls):
        g, parts, table = factored(tmp_path, capsys, self.looped_product())
        calls["parse_graph"].clear()
        assert main(["verify", g, *parts, "--coords", table]) == 0
        assert capsys.readouterr().out == "verified: true\n"
        texts = [Path(p).read_text() for p in parts]
        assert calls["parse_graph"] == texts
        assert calls["reconstruct_check_parts"] == 0

    def test_hand_written_file_is_parsed_once(self, tmp_path, capsys, calls):
        G = self.looped_product()
        g, parts, table = factored(tmp_path, capsys, G)
        lines = to_text(G).splitlines()
        arcs = [line for line in lines if line.startswith("a ")]
        random.Random(5).shuffle(arcs)
        rest = [line for line in lines if not line.startswith("a ")]
        hand = tmp_path / "hand.dg"
        hand.write_bytes("\r\n".join(["# hand-written", rest[0], *arcs, *rest[1:]]).encode() + b"\r\n")
        calls["parse_graph"].clear()
        assert main(["verify", str(hand), *parts, "--coords", table]) == 0
        assert capsys.readouterr().out == "verified: true\n"
        assert [t.startswith("# hand-written") for t in calls["parse_graph"]].count(True) == 1
        assert calls["reconstruct_check_parts"] == 1

    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_graph_one_arc_away_is_false(self, tmp_path, capsys, change):
        G = self.looped_product()
        g, parts, table = factored(tmp_path, capsys, G)
        if change == "drop":
            arcs = set(G.arcs) - {min(G.arcs)}
        else:
            arcs = set(G.arcs) | {next((0, v) for v in range(1, G.n) if (0, v) not in G.arcs)}
        write_graph(tmp_path / "g.dg", DiGraph(G.n, arcs, G.loops))
        assert main(["verify", g, *parts, "--coords", table]) == 5
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("verified: false\n", "")

    def test_false_answer_reads_each_file_once(self, tmp_path, capsys, monkeypatch):
        # the parse-and-compare path reuses the factors and the table that
        # building the claimed text read
        from boxfactor import cli

        G = self.looped_product()
        g, parts, table = factored(tmp_path, capsys, G)
        write_graph(tmp_path / "g.dg", DiGraph(G.n, set(G.arcs) - {min(G.arcs)}, G.loops))
        loads = []
        for name in ("_load_graph", "_load_table"):

            def counted(path, *rest, _fn=getattr(cli, name), _name=name):
                loads.append((_name, path))
                return _fn(path, *rest)

            monkeypatch.setattr(cli, name, counted)
        assert main(["verify", g, *parts, "--coords", table]) == 5
        assert capsys.readouterr().out == "verified: false\n"
        assert loads == [("_load_graph", p) for p in parts] + [("_load_table", table)]

    @pytest.mark.parametrize(
        "rows",
        ["c 0 0 0\nc 1 0 1\nc 2 1 0\nc 3 0 1\n", "c 0 0 0\nc 1 0 1\nc 2 1 0\nc 3 1 2\n"],
        ids=["assigned-twice", "off-the-grid"],
    )
    def test_table_not_a_bijection_is_false(self, tmp_path, capsys, rows):
        P, C, A, B = loop_product()
        g = write_graph(tmp_path / "prod.dg", P)
        fa = write_graph(tmp_path / "fa.dg", A)
        fb = write_graph(tmp_path / "fb.dg", B)
        coords = tmp_path / "prod.coords"
        coords.write_text(rows)
        assert main(["verify", g, fa, fb, "--coords", str(coords)]) == 5
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("verified: false\n", "")

    @pytest.mark.parametrize("other", ["malformed-table", "missing-factor"])
    def test_graph_file_error_comes_first(self, tmp_path, capsys, other):
        P, C, A, B = loop_product()
        g = tmp_path / "prod.dg"
        g.write_text("n 4\na 0 1\na 0 9\n")
        fa = write_graph(tmp_path / "fa.dg", A)
        fb = write_graph(tmp_path / "fb.dg", B)
        coords = tmp_path / "prod.coords"
        coords.write_text("c 0 0 0\nc x\n" if other == "malformed-table" else coords_to_text(C.coords))
        if other == "missing-factor":
            fb = str(tmp_path / "absent.dg")
        assert main(["verify", str(g), fa, fb, "--coords", str(coords)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 3: arc (0, 9) out of range for n=4\n"

    @pytest.mark.parametrize(
        "name",
        ["consistent-square", "inconsistent-square", "loop-product", "far-corner"]
        + [f"seed{s}" for s in (1, 2, 4, 5, 6, 7, 8, 9, 10, 11)],  # seed 3 draws no loop
    )
    def test_factor_then_product_reproduces_the_bytes(self, tmp_path, capsys, name):
        named = {
            "consistent-square": consistent_square,
            "inconsistent-square": inconsistent_square,
            "loop-product": lambda: loop_product()[0],
            "far-corner": looped_far_corner,
        }
        if name in named:
            g, parts, table = factored(tmp_path, capsys, named[name]())
        else:
            g = str(tmp_path / "g.dg")
            argv = ["generate", "--factors", "3", "--loops", "0.3", "--seed", name[4:], "-o", g]
            assert main(argv) == 0
            assert int(out_lines(capsys)["loops"]) > 0
            assert main(["factor", "--input", g, "--emit-coords"]) == 0
            nfac = int(out_lines(capsys)["factors"])
            parts, table = [f"{g}.factor{i}" for i in range(nfac)], f"{g}.coords"
        back = tmp_path / "back.dg"
        assert main(["product", *parts, "--coords", table, "-o", str(back)]) == 0
        assert back.read_bytes() == Path(g).read_bytes()
        assert main(["verify", g, *parts, "--coords", table]) == 0
        assert capsys.readouterr().out.endswith("verified: true\n")


class TestTableCodes:
    """`product --coords` and `verify` fold a canonical coordinate table
    into codes (`core.coords_codes`); any other table, and any table that fails
    a check, takes the rows path (`_table_rows` and the tuple constructor).
    Both paths give the same bytes, answers, exit codes and messages."""

    @pytest.fixture
    def taken(self, monkeypatch):
        """Whether each `coords_codes` call gave codes."""
        seen = []
        table_codes = cli.coords_codes

        def spy(table, sizes):
            codes = table_codes(table, sizes)
            seen.append(codes is not None)
            return codes

        monkeypatch.setattr(cli, "coords_codes", spy)
        return seen

    @staticmethod
    def both_paths(argv, capsys, monkeypatch, out=None):
        """(exit code, stdout, stderr, output bytes) with the codes path and
        with the rows path alone; asserts that they agree."""
        results = []
        for rows_only in (False, True):
            with monkeypatch.context() as m:
                if rows_only:
                    m.setattr(cli, "coords_codes", lambda table, sizes: None)
                if out is not None:
                    out.unlink(missing_ok=True)
                rc = main(argv)
            captured = capsys.readouterr()
            written = out.read_bytes() if out is not None and out.exists() else None
            results.append((rc, captured.out, captured.err, written))
        assert results[0] == results[1]
        return results[0]

    @staticmethod
    def scrambled_instance(tmp_path, seed):
        """A random labeled product of 2 or 3 factors, its factor files and
        the coordinate row of every vertex."""
        rng = random.Random(seed)
        factors = gen_product_instance(rng.choice([2, 3]), (2, 5), 0.3, seed)[1]
        P, C = cartesian_product(factors)
        perm = list(range(P.n))
        rng.shuffle(perm)
        rows = [None] * P.n
        for v, cv in enumerate(C.coords):
            rows[perm[v]] = cv
        parts = [write_graph(tmp_path / f"f{i}.dg", F) for i, F in enumerate(factors)]
        return relabel(P, perm), parts, rows, rng

    @pytest.mark.parametrize("layout", ["vertex-order", "shuffled", "hand-written"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_tables_agree(self, layout, seed, tmp_path, capsys, monkeypatch, taken):
        G, parts, rows, rng = self.scrambled_instance(tmp_path, seed)
        lines = [f"c {v} " + " ".join(map(str, cv)) for v, cv in enumerate(rows)]
        if layout != "vertex-order":
            rng.shuffle(lines)
        if layout == "hand-written":  # the line parser reads it
            text = "# table\r\n" + "".join(f"{line}  \r\n" for line in lines)
        else:
            text = "".join(f"{line}\n" for line in lines)
        table = tmp_path / "t.coords"
        table.write_text(text, encoding="utf-8", newline="")
        out = tmp_path / "p.dg"
        argv = ["product", *parts, "--coords", str(table), "-o", str(out)]
        rc, _, err, written = self.both_paths(argv, capsys, monkeypatch, out)
        assert (rc, err, written) == (0, "", to_text(G).encode())
        g = write_graph(tmp_path / "g.dg", G)
        rc, stdout, _, _ = self.both_paths(
            ["verify", g, *parts, "--coords", str(table)], capsys, monkeypatch
        )
        assert (rc, stdout) == (0, "verified: true\n")
        # one arc away: the graph file is parsed and compared, a false answer
        write_graph(tmp_path / "g.dg", DiGraph(G.n, set(G.arcs) - {min(G.arcs)}, G.loops))
        rc, stdout, _, _ = self.both_paths(
            ["verify", g, *parts, "--coords", str(table)], capsys, monkeypatch
        )
        assert (rc, stdout) == (5, "verified: false\n")
        # the spy sees the codes-path runs only: product, verify, verify
        assert taken == [layout != "hand-written"] * 3

    @pytest.mark.parametrize(
        "table, product_err, verify_rc",
        [
            ("c 0 0 0\nc 1 0 1\nc 1 0 1\nc 2 1 0\nc 3 1 1\n",
             "line 3: duplicate coordinates for vertex 1", 2),
            ("c 0 0 0 0\nc 1 0 1 0\nc 2 1 0 0\nc 3 1 1 0\n",
             "coordinate table: vertex 0 has 3 coordinates, expected 2", 5),
            ("c 0 0 0\nc 1 0 1\nc 2 1 0\nc 3 1 1 0\n",
             "line 4: coordinate width 3 differs from earlier width 2", 2),
            ("c 0 0 0\nc 1 0 1\nc 2 1 0\nc 3 1 2\n",
             "coordinate table: vertex 3 coordinate 1 out of range", 5),
            ("c 0 0 0\nc 1 0 1\nc 3 1 1\n", "coordinate table must cover vertices 0..3", 2),
            ("c 0 0 0\nc 1 0 1\nc 2 1 0\nc 3 0 1\n",
             "coordinate table: coordinate labeling is not injective", 5),
            ("c 3 1 1\nc 1 0 1\nc 0 1 1\nc 2 1 0\n",
             "coordinate table: coordinate labeling is not injective", 5),
        ],
        ids=["duplicate-row", "wrong-width", "mixed-width", "off-grid", "missing-vertex",
             "not-a-bijection", "not-a-bijection-shuffled"],
    )
    def test_malformed_tables_keep_their_errors(
        self, table, product_err, verify_rc, tmp_path, capsys, monkeypatch
    ):
        P, C, A, B = loop_product()
        g = write_graph(tmp_path / "prod.dg", P)
        fa = write_graph(tmp_path / "fa.dg", A)
        fb = write_graph(tmp_path / "fb.dg", B)
        t = tmp_path / "t.coords"
        t.write_text(table)
        out = tmp_path / "p.dg"
        argv = ["product", fa, fb, "--coords", str(t), "-o", str(out)]
        rc, stdout, err, written = self.both_paths(argv, capsys, monkeypatch, out)
        assert (rc, stdout, err, written) == (2, "", f"error: {product_err}\n", None)
        rc, stdout, err, _ = self.both_paths(
            ["verify", g, fa, fb, "--coords", str(t)], capsys, monkeypatch
        )
        assert rc == verify_rc
        if verify_rc == 2:
            assert (stdout, err) == ("", f"error: {product_err}\n")
        else:
            assert (stdout, err) == ("verified: false\n", "")


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

        monkeypatch.setattr(loop_factor, "_factored", broken)
        g = write_graph(tmp_path / "sq.dg", consistent_square())
        assert main(["factor", "--input", g]) == 6
        err = capsys.readouterr().err
        assert err.startswith("error: internal invariant failed:")
        assert "Traceback" not in err

    def test_out_of_memory_exits_7(self, tmp_path, capsys, monkeypatch):
        from boxfactor import cli

        def exhausted(C):
            raise MemoryError

        monkeypatch.setattr(cli, "product_text", exhausted)
        g = write_graph(tmp_path / "k2.dg", DiGraph(2, {(0, 1)}, set()))
        out = tmp_path / "out.dg"
        assert main(["product", g, g, "-o", str(out)]) == 7
        captured = capsys.readouterr()
        assert captured.err == "error: out of memory\n"
        assert captured.out == ""
        assert not out.exists()


class TestFuzzedFiles:
    """Mutated copies of the canonical graph, factor and table files of a
    generated 2-factor product end in a documented exit code of `factor
    --emit-coords --emit-colors --verify`, `product --coords` and `verify`:
    0, 2 (malformed), 3 (disconnected), 4 (every vertex looped) or 5 (a
    false claim), never 6 and never an escaped exception. Spans are cut,
    CR, NUL or a superscript digit inserted, lines duplicated or swapped,
    and ids set up to 10^6; no vertex-count header is set, as a huge n
    needs a memory cap (`--max-memory`) to end in a documented exit."""

    NAMES = ("g.dg", "g.dg.factor0", "g.dg.factor1", "g.dg.coords")

    @staticmethod
    def _mutated(text, data):
        lines = text.splitlines(keepends=True)
        kind = data.draw(st.sampled_from(["cut", "insert", "twice", "swap", "id"]))
        if kind == "cut":
            i = data.draw(st.integers(0, len(text)))
            j = data.draw(st.integers(i, min(len(text), i + 12)))
            return text[:i] + text[j:]
        if kind == "insert":
            i = data.draw(st.integers(0, len(text)))
            return text[:i] + data.draw(st.sampled_from(["\r", "\0", "\u00b2"])) + text[i:]
        i = data.draw(st.integers(0, len(lines) - 1))
        if kind == "twice":
            return "".join(lines[: i + 1] + lines[i:])
        if kind == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
            return "".join(lines)
        words = lines[i].split()
        if words[0] == "n" or len(words) < 2:
            return text
        words[data.draw(st.integers(1, len(words) - 1))] = str(data.draw(st.integers(0, 10**6)))
        lines[i] = " ".join(words) + "\n"
        return "".join(lines)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_every_run_ends_in_a_documented_exit(self, tmp_path_factory, data):
        seed = data.draw(st.integers(0, 3))
        G, _ = gen_product_instance(2, (2, 4), 0.3, seed=seed)
        d = tmp_path_factory.mktemp("fuzz")
        g = write_graph(d / "g.dg", G)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(["factor", "--input", g, "--emit-coords"]) == 0
        assert (d / "g.dg.factor1").exists() and not (d / "g.dg.factor2").exists()
        name = data.draw(st.sampled_from(self.NAMES))
        path = d / name
        path.write_text(self._mutated(path.read_text(encoding="utf-8"), data), encoding="utf-8")
        (d / "run.dg").write_text((d / "g.dg").read_text(encoding="utf-8"), encoding="utf-8")
        factors = [str(d / "g.dg.factor0"), str(d / "g.dg.factor1")]
        table = str(d / "g.dg.coords")
        for argv in (
            ["factor", "--input", str(d / "run.dg"), "--emit-coords", "--emit-colors", "--verify"],
            ["product", *factors, "--coords", table, "-o", str(d / "back.dg")],
            ["verify", g, *factors, "--coords", table],
        ):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                rc = main(argv)
            assert rc in (0, 2, 3, 4, 5), (name, argv[0], rc, err.getvalue())


@pytest.fixture
def gc_restored():
    """Leaves the collector as the test found it, debug flags off."""
    was = gc.isenabled()
    yield
    gc.set_debug(0)
    gc.garbage.clear()
    if was:
        gc.enable()
    else:
        gc.disable()


class TestCollectorPause:
    """`main` runs each command with the cyclic collector off and leaves it
    as it found it, however the command ends."""

    def test_collector_is_off_while_a_command_runs(self, tmp_path, monkeypatch, gc_restored):
        seen = []

        def spy(args):
            seen.append(gc.isenabled())
            return 0

        monkeypatch.setattr(cli, "cmd_generate", spy)
        gc.enable()
        assert main(["generate", "-o", str(tmp_path / "g.dg")]) == 0
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "error, code",
        [
            (None, 0),
            (GraphFormatError, 2),
            (OSError, 2),
            (DisconnectedGraphError, 3),
            (NoUnloopedVertexError, 4),
            (FactorizationError, 6),
            (ValueError, 2),
            (MemoryError, 7),
        ],
    )
    def test_state_restored_after_each_exit(
        self, enabled, error, code, tmp_path, capsys, monkeypatch, gc_restored
    ):
        def command(args):
            assert not gc.isenabled()
            if error is not None:
                raise error("raised by the command")
            return 0

        monkeypatch.setattr(cli, "cmd_factor", command)
        (gc.enable if enabled else gc.disable)()
        assert main(["factor", "--input", str(tmp_path / "g.dg")]) == code
        assert gc.isenabled() == enabled
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_after_an_unhandled_exception(
        self, enabled, tmp_path, monkeypatch, gc_restored
    ):
        def command(args):
            raise RuntimeError("not handled by main")

        monkeypatch.setattr(cli, "cmd_factor", command)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="not handled"):
            main(["factor", "--input", str(tmp_path / "g.dg")])
        assert gc.isenabled() == enabled


class TestNoCyclicGarbage:
    """The library makes no reference cycles, so pausing the collector
    holds no memory: every command, run in-process with the collector off
    and every unreachable object saved, leaves nothing to collect."""

    @pytest.fixture
    def leaves_no_cycles(self, capsys, gc_restored):
        cli._parser()  # argparse's formatters are cyclic, once per process

        def run(argv, code=0):
            gc.collect()
            gc.disable()
            gc.set_debug(gc.DEBUG_SAVEALL)
            rc = main(argv)
            found = gc.collect()
            kinds = sorted({type(o).__name__ for o in gc.garbage})
            gc.set_debug(0)
            gc.garbage.clear()
            capsys.readouterr()
            assert rc == code
            assert (found, kinds) == (0, [])

        return run

    def test_generate_then_factor_product_verify(self, tmp_path, leaves_no_cycles):
        g = str(tmp_path / "g.dg")
        leaves_no_cycles(["generate", "--factors", "3", "--loops", "0.3", "--seed", "1", "-o", g])
        leaves_no_cycles(["factor", "--input", g, "--emit-coords", "--emit-colors", "--verify"])
        factors = sorted(str(f) for f in tmp_path.glob("g.dg.factor*"))
        assert len(factors) == 3
        coords = ["--coords", g + ".coords"]
        leaves_no_cycles(["product", *factors, *coords, "-o", str(tmp_path / "back.dg")])
        assert (tmp_path / "back.dg").read_bytes() == Path(g).read_bytes()
        leaves_no_cycles(["verify", g, *factors, *coords])
        leaves_no_cycles(["verify", g, factors[0], *coords], code=5)

    @pytest.mark.parametrize(
        "G, root",
        [
            (klein_bottle_grid(6, 5), 0),
            (klein_bottle_grid(6, 5), 1),
            (klein_bottle_grid(6, 5), 17),
            (pendant_grid(50), 0),
        ],
    )
    def test_factor_after_rejected_rungs(self, G, root, tmp_path, leaves_no_cycles):
        g = write_graph(tmp_path / "g.dg", G)
        leaves_no_cycles(["factor", "--input", g, "--root", str(root)])

    def test_malformed_and_disconnected_files(self, tmp_path, leaves_no_cycles):
        bad = tmp_path / "bad.dg"
        bad.write_text("n 2\na 0 5\n")
        leaves_no_cycles(["factor", "--input", str(bad)], code=2)
        dis = write_graph(tmp_path / "dis.dg", DiGraph(4, {(0, 1), (1, 0), (2, 3)}, set()))
        leaves_no_cycles(["factor", "--input", dis], code=3)

    def test_bench(self, leaves_no_cycles):
        leaves_no_cycles(["bench", "--min-arcs", "40", "--max-arcs", "300", "--reps", "2"])


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

    @pytest.mark.parametrize("family", ["grid", "cube", "randprod"])
    def test_times_the_inputs_factor_builds(self, family, monkeypatch):
        # bench's timed call gets the coordinates and BFS that factor_full
        # hands its merge entry, and returns its result
        def recorder(calls, scans):
            def record(*args):
                calls.append((args, scans(*args)))
                return calls[-1][1]
            return record

        timed, staged = [], []
        monkeypatch.setattr(cli, "_merge_scans", recorder(timed, loop_factor._merge_scans))
        assert main(["bench", "--family", family, "--min-arcs", "300",
                     "--max-arcs", "300", "--reps", "1"]) == 0
        assert len(timed) == 2  # the warm-up and one rep
        (G, C, B), (_, coordin, _) = timed[-1]
        assert 150 <= len(G.arcs) <= 300
        monkeypatch.setattr(loop_factor, "_merge_scans", recorder(staged, loop_factor._merge_scans))
        F = factor_full(G)
        [((_, C_full, B_full), _)] = staged
        assert C.coords == C_full.coords
        assert B.order == B_full.order
        assert coordin.factors == F.factors
        assert coordin.coords == F.coordin.coords

    @pytest.mark.parametrize(
        "target, seed, digest",
        [
            (300, 1, "b9b6ddda14a2f100aee3a8a9f6fb2a5a3ab3dc99025a4817db23f87e8bd767b9"),
            (5000, 7, "d6cda32be7c9d0d17b966e759a15a235c4e424619aaba000638e8cdd66a9a9bc"),
        ],
    )
    def test_randprod_instances_are_pinned(self, target, seed, digest):
        G = _bench_instance("randprod", target, random.Random(seed))[0]
        assert hashlib.sha256(to_text(G).encode()).hexdigest() == digest

    def test_randprod_shrinks_until_a_draw_fits(self):
        # 8,250 arcs start the draw at n = 50; that draw is too large, and
        # the next, at 49, fits
        G, C = _bench_instance("randprod", 8250, random.Random(0))
        assert [F.n for F in C.factors] == [49, 49]
        assert len(G.arcs) == 8134

    @pytest.mark.parametrize("lo, hi", [("3", "80"), ("80", "40")])
    def test_arc_range_out_of_order_exits_2(self, lo, hi, capsys):
        assert main(["bench", "--family", "grid", "--min-arcs", lo, "--max-arcs", hi]) == 2
        assert "need 4 <= min-arcs <= max-arcs" in capsys.readouterr().err

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


def _golden_inputs():
    """(name, graph, extra factor arguments) for the golden-output test."""
    rng = random.Random(2026)

    def scrambled(G):
        perm = list(range(G.n))
        rng.shuffle(perm)
        return relabel(G, perm)

    out = []
    # seed 2 merges in the direction scan, seeds 28 and 191 in the loop scan
    for seed in (2, 28, 191):
        out.append((f"gen{seed}", gen_product_instance(3, (2, 4), 0.3, seed)[0], []))
    path = DiGraph(12, {(i, i + 1) for i in range(11)}, {11})
    out.append(("grid12", scrambled(cartesian_product([path, path])[0]), []))
    k2 = DiGraph(2, {(0, 1), (1, 0)}, set())
    k2_looped = DiGraph(2, {(0, 1), (1, 0)}, {1})
    out.append(("cube6", scrambled(cartesian_product([k2_looped] + [k2] * 5)[0]), []))
    k5 = DiGraph(5, {(a, b) for a in range(5) for b in range(5) if a != b}, set())
    out.append(("k5xk5", cartesian_product([k5, k5])[0], []))
    out.append(("moebius9", mobius_ladder(9), []))  # rung 1 rejected, delta* accepted
    G, _ = gen_product_instance(2, (3, 5), 0.3, 7)
    root = max(v for v in range(G.n) if v not in G.loops)
    out.append(("gen7root", G, ["--root", str(root)]))
    return out


def _golden_digests(tmp_path, capsys, name, G, extra):
    """sha256 of every file `factor` writes for G, and of its stdout
    without the time_* lines, keyed by file suffix ("stdout" for stdout)."""
    (tmp_path / f"{name}.dg").write_text(to_text(G), encoding="utf-8")
    argv = ["factor", "--input", f"{name}.dg", "--emit-coords", "--emit-colors", "--verify"]
    assert main(argv + extra) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    stdout = "".join(line for line in lines if not line.startswith("time_"))
    out = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    for p in sorted(tmp_path.glob(f"{name}.dg.*")):
        out[p.name[len(name) + 4 :]] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


# sha256 of what `factor --emit-coords --emit-colors --verify` writes for each
# golden input, taken before the shadow edges were numbered once per run;
# every byte must stay the same
GOLDEN = {
    "gen2": {
        "stdout": "ed0995c90995ac563bf5ed538695d52bca126d5fa1979b191a8404b6f629f681",
        "colors": "526a82b5108df772b6d15245ac6ceaf10b279d4c97411443774840dd16c9838a",
        "coords": "72b2c39b88bb231d451e9f4458fab523fd9bde9547dc6d319892da3344fa2781",
        "factor0": "55fdbfa11731602c1ece56ec91f373f64eb9a6435dc1517c2a7d63feb400ec00",
        "factor1": "eef019e9beb4b8786ad53123ef3f16c5a254c5da3572a843648f3c571aa0cefb",
        "factor2": "594934bdeaa9679cc09c07e377e78aba3c4c8b6064b9c4425efa213105b2b1bf",
    },
    "gen28": {
        "stdout": "39925a49af8aa6f62fa3d45c855df5c5f4476b973ebae30cbc5b88d0a0688c7c",
        "colors": "07c6a55aaad95e900dc81c1f09f98c2d68dd647f7d49c66c8c69d40fab26306a",
        "coords": "0c91a60eeda8f4a62ee68dab5f46a2741ab19106f39ed6ffe6af4e7ba1353f05",
        "factor0": "61a9e0d19209fd46a8675fc5f65dc073130e7cceb4e5a7efd9a367c4139dab8a",
        "factor1": "b0ead99ba1d0b785f11c695c5c63bed0ceaa3c332420bce9434f98cde3617a42",
        "factor2": "e9776e3e31de1739ce76abd343938473f71fe3c529a24bf32ce90e8e40aeb80f",
    },
    "gen191": {
        "stdout": "369ada58fc195d8bc8347adab22f782d4bb39229895d2de5515e7c68443f84e9",
        "colors": "aaf5dbe0786bef228b3d0306378c954ce8c7bea071ca855d8cf58bddcd727bf5",
        "coords": "6463d539ebf85f95244bfed3abeb708fde1d8670c3e61683c9a6568b71c53a56",
        "factor0": "efcc4da2163f9a85fbdf4e05c22c16668eb53b398deddeed910547160bac5c81",
        "factor1": "f0fef826e063476ba7242b80641992c3eb01787f844d71d226f3441e09b17b86",
        "factor2": "211d3c1544a12a3061fad7886e187e465b71fcfbd7ec0553dd30524a328b098a",
    },
    "grid12": {
        "stdout": "664aacad4496f298cfdb9256adbd937b60ec714c0bd160bb4a9c5648f65c1307",
        "colors": "8cf9b8aa540e35b63429a47c828d92182d40156d411d15722686caea7e6b42b4",
        "coords": "457f4dfab8383359f0a706c7bfb8c8146968b435add667c89d3243ac007d3277",
        "factor0": "615ce746d6b9b2520a193e898399f7e0d1e7cae007d6d8ee8ed861578df77b68",
        "factor1": "4391d0e884a55390012c30cd09f508e12eec822d4ef00b53a0da6ce1f2ce9b95",
    },
    "cube6": {
        "stdout": "276956d4d52ba423f05303eed7988742fae47d6cc9f9244baddd796e2fe705d4",
        "colors": "f98ee04d95ff35437a981449881cf63d2a39bf4667723a73dc5068fe3df2100e",
        "coords": "7e943982e41ccbf11dfb821c2a652d7d8302129bbbda38b7ca79b0b5fc65aefb",
        "factor0": "189e73a6036194572200b9ced288b34bcc8c64c6550e0289c0640d8872cc7d61",
        "factor1": "61a9e0d19209fd46a8675fc5f65dc073130e7cceb4e5a7efd9a367c4139dab8a",
        "factor2": "61a9e0d19209fd46a8675fc5f65dc073130e7cceb4e5a7efd9a367c4139dab8a",
        "factor3": "61a9e0d19209fd46a8675fc5f65dc073130e7cceb4e5a7efd9a367c4139dab8a",
        "factor4": "61a9e0d19209fd46a8675fc5f65dc073130e7cceb4e5a7efd9a367c4139dab8a",
        "factor5": "61a9e0d19209fd46a8675fc5f65dc073130e7cceb4e5a7efd9a367c4139dab8a",
    },
    "k5xk5": {
        "stdout": "91efa6d749144d35743cc360860d5caf3c39d51affcb4e02ca91148f74958dd8",
        "colors": "72dc6d426edebe9163d79c9976355c3af92958dcd0b5e43415d5ef73715e28a1",
        "coords": "ce76408b2d7ed28ec8e552bf5db365c213a18fce86e5da8d486a9271f5b41de7",
        "factor0": "6638363609178ee9532a97a0fccb27784aad8f140c8a5d2cdfd98f24e30fdceb",
        "factor1": "6638363609178ee9532a97a0fccb27784aad8f140c8a5d2cdfd98f24e30fdceb",
    },
    "moebius9": {
        "stdout": "f8c3ddf49fd0100fcf99bb30c75f543d9316213b4b2b0921fd135c8cc35d0dc3",
        "colors": "041136a2c23b2dd10dac17533ba88bfb8e5c91498bf565237af33c117b3f5d83",
        "coords": "0645fd579134ce559e73790e8dcad036b634600e95975c9db9a2ab8ba325c63e",
        "factor0": "fc5a85ea48aab607628a93bb2ec2c86c029cb21c18a82c93ab7e82b4d2987cd5",
    },
    "gen7root": {
        "stdout": "bded6e9b501484904405b47aae8848d454b51c2f20b0751c3fae0d8018b90f14",
        "colors": "14df7744b3b5e0af9c9e878d9dd5b087a632ea3c2b2d3ac068b839899df6299b",
        "coords": "f1725e4f1aae8b3def1b1b4ea3c33e13c5bee499b834df57c72fe67c7b4f6b72",
        "factor0": "cfcac23400f0690486f4816a95bf87cdc03ea37524add24420c232191884a50c",
        "factor1": "92e552f930a8a0316b3eadf9d1d4ea09951045b04238e3518c7ec8758718c37f",
    },
}


class TestGoldenOutputs:
    """`factor` writes the same bytes as before on a fixed set of inputs:
    generated products that merge in each scan, a scrambled grid and cube,
    K5 x K5, a Moebius ladder and a run with --root."""

    @pytest.mark.parametrize(
        "name, G, extra", [pytest.param(*case, id=case[0]) for case in _golden_inputs()]
    )
    def test_same_bytes(self, name, G, extra, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the report names the input path
        assert _golden_digests(tmp_path, capsys, name, G, extra) == GOLDEN[name]
