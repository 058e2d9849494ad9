import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxfactor
from boxfactor import core
from boxfactor import (
    DiGraph,
    DisconnectedGraphError,
    GraphFormatError,
    bfs,
    is_connected,
    parse_coords,
    parse_graph,
    shadow,
    strip_loops,
    to_text,
)
from helpers import (
    connected_digraphs,
    coords_to_text,
    dist,
    min_degree,
    naive_bfs,
    naive_dist,
    naive_is_connected,
    naive_parse_coords,
    naive_parse_graph,
    naive_shadow_adj,
    naive_to_text,
    random_digraph,
    shadow_graph,
    undirected_cycle,
)


class TestDiGraph:
    def test_basic_construction(self):
        G = DiGraph(3, {(0, 1), (1, 2)}, {2})
        assert G.n == 3
        assert (0, 1) in G.arcs
        assert (1, 0) not in G.arcs
        assert 2 in G.loops
        assert 0 not in G.loops

    def test_rejects_self_arc(self):
        with pytest.raises(ValueError):
            DiGraph(2, {(1, 1)}, set())

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DiGraph(2, {(0, 2)}, set())
        with pytest.raises(ValueError):
            DiGraph(2, set(), {5})

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            DiGraph(-1)

    def test_antiparallel_arcs_allowed(self):
        G = DiGraph(2, {(0, 1), (1, 0)}, set())
        assert len(G.arcs) == 2

    def test_inputs_frozen(self):
        G = DiGraph(2, [(0, 1)], [1])
        assert isinstance(G.arcs, frozenset)
        assert isinstance(G.loops, frozenset)


class TestParse:
    def test_single_arc(self):
        G = parse_graph("n 2\na 0 1")
        assert G == DiGraph(2, {(0, 1)}, set())

    def test_single_looped_vertex(self):
        G = parse_graph("n 1\nl 0")
        assert G == DiGraph(1, set(), {0})

    def test_out_of_range_arc(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            parse_graph("n 2\na 0 2")

    def test_error_carries_line_number(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            parse_graph("n 2\na 0 1\na 0 9")

    def test_duplicate_arc(self):
        with pytest.raises(GraphFormatError, match="duplicate arc"):
            parse_graph("n 2\na 0 1\na 0 1")

    def test_duplicate_loop(self):
        with pytest.raises(GraphFormatError, match="duplicate loop"):
            parse_graph("n 2\nl 1\nl 1")

    def test_duplicate_n(self):
        with pytest.raises(GraphFormatError, match="duplicate n"):
            parse_graph("n 2\nn 2")

    def test_arc_before_n(self):
        with pytest.raises(GraphFormatError, match="before n"):
            parse_graph("a 0 1\nn 2")

    def test_missing_n(self):
        with pytest.raises(GraphFormatError, match="missing n"):
            parse_graph("# nothing\n")

    def test_zero_vertices_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_graph("n 0")

    def test_self_arc_rejected(self):
        with pytest.raises(GraphFormatError, match="use an l line"):
            parse_graph("n 2\na 1 1")

    def test_unknown_directive(self):
        with pytest.raises(GraphFormatError, match="unknown directive"):
            parse_graph("n 2\nx 0 1")

    def test_non_numeric_id(self):
        with pytest.raises(GraphFormatError):
            parse_graph("n 2\na 0 -1")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("n 2\na 0 \u00b2\n", 2),  # superscript two: isdigit, but int() fails
            ("n 2\na 0 \u0661\n", 2),  # Arabic-Indic one: int() would read 1
            ("n \u0663\n", 1),  # Arabic-Indic three: int() would read 3
            ("n 2\nl \uff11\n", 2),  # fullwidth one
        ],
        ids=["superscript", "arabic-indic-arc", "arabic-indic-n", "fullwidth-loop"],
    )
    def test_only_ascii_digits(self, text, line):
        with pytest.raises(GraphFormatError, match="nonnegative decimal") as exc:
            parse_graph(text)
        assert exc.value.line == line

    def test_comments_and_blank_lines(self):
        G = parse_graph("# header\n\nn 2\n# mid\na 0 1\n")
        assert G == DiGraph(2, {(0, 1)}, set())

    def test_coordinate_rows_skipped(self):
        G = parse_graph("n 2\na 0 1\nc 0 0\nc 1 1\n")
        assert G == DiGraph(2, {(0, 1)}, set())


class TestCoordsTable:
    def test_read(self):
        t = parse_coords("n 2\na 0 1\nc 0 0 0\nc 1 1 0\n")
        assert t == {0: (0, 0), 1: (1, 0)}

    def test_zero_width(self):
        assert parse_coords("c 0\n") == {0: ()}

    def test_width_mismatch(self):
        with pytest.raises(GraphFormatError, match="width"):
            parse_coords("c 0 0 0\nc 1 1\n")

    def test_duplicate_vertex(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse_coords("c 0 0\nc 0 1\n")

    @pytest.mark.parametrize(
        "text",
        ["c 0 \u00b2\n", "c 0 \u0661\n", "c \u0661 0\n"],
        ids=["superscript", "arabic-indic-coordinate", "arabic-indic-vertex"],
    )
    def test_only_ascii_digits(self, text):
        with pytest.raises(GraphFormatError, match="nonnegative decimal") as exc:
            parse_coords("# table\n" + text)
        assert exc.value.line == 2


class TestSerialization:
    def test_canonical_order(self):
        G = DiGraph(3, {(2, 0), (0, 1)}, {2, 0})
        assert to_text(G) == "n 3\na 0 1\na 2 0\nl 0\nl 2\n"

    def test_with_coords(self):
        G = DiGraph(2, {(0, 1)}, set())
        assert (
            to_text(G) + coords_to_text([(0,), (1,)]) == "n 2\na 0 1\nc 0 0\nc 1 1\n"
        )

    @settings(deadline=None)
    @given(connected_digraphs())
    def test_round_trip(self, G):
        assert parse_graph(to_text(G)) == G


def random_table(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    width = rng.randint(0, 3)
    return [tuple(rng.randrange(12) for _ in range(width)) for _ in range(n)]


def mutate(rng: random.Random, text: str) -> str:
    """A canonical text with 1-3 seeded edits: comments, blank lines, tabs,
    stray 'c' rows, non-ASCII digits, repeated lines, out-of-range ids,
    self arcs and malformed directives; sometimes CRLF line ends."""
    lines = text.splitlines()
    n = int(lines[0].split()[1])
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines) + 1)
        j = min(i, len(lines) - 1)
        edit = rng.randrange(10)
        if edit == 0:
            lines.insert(i, rng.choice(["# note", "#", "  # a 0 1", "#a 0 0", "\t#c 0"]))
        elif edit == 1:
            lines.insert(i, rng.choice(["", "   ", "\t", " \t "]))
        elif edit == 2:
            sep = rng.choice(["\t", "  ", " \t "])
            lines[j] = rng.choice(["", " ", "\t"]) + lines[j].replace(" ", sep) + rng.choice(["", " "])
        elif edit == 3:
            row = [rng.randrange(n + 2) for _ in range(rng.randint(1, 4))]
            lines.insert(i, "c " + " ".join(map(str, row)))
        elif edit == 4:
            digits = [p for p, ch in enumerate(lines[j]) if ch.isdigit()]
            if digits:
                p = rng.choice(digits)
                lines[j] = lines[j][:p] + rng.choice("\u0663\u00b2\uff11\u096d") + lines[j][p + 1 :]
        elif edit == 5:
            lines.insert(i, lines[j])
        elif edit == 6:
            u = rng.randrange(n)
            lines.insert(i, rng.choice([f"a {u} {n}", f"a {n + 3} {u}", f"l {n}", f"a {u} {u}"]))
        elif edit == 7:
            lines.insert(i, rng.choice(
                ["a 1", "a 0 1 2", "l", "l 0 1", "n", "n 3 4", "n 0", "c", "x 1 2", "A 0 1", "a +1 0", "a 0 -1"]
            ))
        elif edit == 8:
            lines.insert(i, f"n {rng.randint(1, n + 2)}")
        else:
            del lines[j]
    return ("\r\n" if rng.random() < 0.2 else "\n").join(lines) + rng.choice(["", "\n", "\r\n"])


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except GraphFormatError as exc:
        return "error", str(exc), exc.line


def assert_agrees(text):
    """Both parsers match their naive references on text; returns the two
    outcome kinds, "ok" or "error"."""
    kinds = []
    for parse, naive in ((parse_graph, naive_parse_graph), (parse_coords, naive_parse_coords)):
        got = outcome(parse, text)
        assert got == outcome(naive, text), text
        kinds.append(got[0])
    return kinds


def assert_mutated_corpus_agrees():
    rng = random.Random(78)
    kinds = {"ok": 0, "error": 0}
    for _ in range(1500):
        n = rng.randint(1, 12)
        G = random_digraph(rng, n, extra_prob=0.2, loop_prob=0.3, keep_unlooped=False)
        for kind in assert_agrees(mutate(rng, naive_to_text(G, random_table(rng, n)))):
            kinds[kind] += 1
    assert kinds["ok"] > 500 and kinds["error"] > 500, kinds


class TestAgainstNaiveCodec:
    def test_to_text_bytes(self):
        rng = random.Random(77)
        for _ in range(300):
            n = rng.randint(1, 30)
            G = random_digraph(rng, n, extra_prob=rng.random() * 0.3, loop_prob=0.3, keep_unlooped=False)
            table = random_table(rng, n)
            assert to_text(G) == naive_to_text(G)
            assert to_text(G) + coords_to_text(table) == naive_to_text(G, table)

    def test_parse_mutated_texts(self):
        assert_mutated_corpus_agrees()

    @settings(deadline=None)
    @given(
        st.integers(0, 4).flatmap(
            lambda w: st.lists(
                st.tuples(*[st.integers(0, 10**12)] * w), min_size=1, max_size=20
            )
        )
    )
    def test_coords_round_trip(self, rows):
        text = coords_to_text(rows)
        assert parse_coords(text) == dict(enumerate(rows))
        assert parse_coords(to_text(DiGraph(len(rows))) + text) == dict(enumerate(rows))


# each separator that str.splitlines honours besides '\n' and '\r\n'
SEPARATORS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def planted_texts():
    """(name, text): a canonical text of 40 vertices with arcs, loops and
    width-2 coordinate rows, with one error or irregular line planted near
    the end of a section, past its first 40-character slice."""
    rng = random.Random(79)
    n = 40
    G = random_digraph(rng, n, extra_prob=0.05, loop_prob=0.3)
    lines = naive_to_text(G, [(v % 7, v % 5) for v in range(n)]).splitlines()
    first = {kind: next(i for i, x in enumerate(lines) if x[0] == kind) for kind in "alc"}
    # the last line of the arc, loop and coordinate sections
    last = {"a": first["l"] - 1, "l": first["c"] - 1, "c": len(lines) - 1}
    arc, loop, row = lines[first["a"]], lines[first["l"]], lines[first["c"]]

    def plant(kind, line):
        assert len("\n".join(lines[first[kind] : last[kind]])) > 40
        out = list(lines)
        out.insert(last[kind], line)
        return "\n".join(out) + "\n"

    cases = [
        ("duplicate-arc", plant("a", arc)),
        ("self-arc", plant("a", "a 5 5")),
        ("head-equal-to-n", plant("a", f"a 0 {n}")),
        ("tail-equal-to-n", plant("a", f"a {n} 0")),
        ("loop-equal-to-n", plant("l", f"l {n}")),
        ("duplicate-loop", plant("l", loop)),
        ("second-n-line", plant("l", "n 0")),
        ("n-0", "n 0\n" + "\n".join(lines[1:]) + "\n"),
        ("loop-among-arcs", plant("a", loop)),
        ("arc-among-loops", plant("l", "a 39 0" if (39, 0) not in G.arcs else "a 39 1")),
        ("c-row-among-arcs", plant("a", row)),
        ("c-row-among-loops", plant("l", row)),
        ("leading-zeros-in-an-arc", plant("a", "a 007 0" if (7, 0) not in G.arcs else "a 007 1")),
        ("leading-zeros-in-a-row", plant("c", "c 039 1 1")),
        ("duplicate-row", plant("c", row)),
        ("wider-row", plant("c", row + " 0")),
        ("narrower-row", plant("c", "c 0 1")),
        ("bad-c-row", plant("c", "c x")),
        ("missing-final-newline", "\n".join(lines)),
    ]
    for sep in SEPARATORS:
        for kind in "alc":
            i = last[kind] - 1
            ends = lines[:i] + [lines[i] + sep + lines[i + 1]] + lines[i + 2 :]
            inside = lines[:i] + [lines[i].replace(" ", sep, 1)] + lines[i + 1 :]
            cases.append((f"U+{ord(sep):04X}-ends-{kind}-line", "\n".join(ends) + "\n"))
            cases.append((f"U+{ord(sep):04X}-inside-{kind}-line", "\n".join(inside) + "\n"))
    return cases


PLANTED = planted_texts()


class TestBulkReader:
    """The bulk readers take canonical text and hand anything else to the
    line parser; either way the result, or the error and its line, is the
    line-by-line reference's."""

    @pytest.fixture
    def small_slices(self, monkeypatch):
        monkeypatch.setattr(core, "_SLICE", 40)

    def test_mutated_corpus_in_small_slices(self, small_slices):
        assert_mutated_corpus_agrees()

    @pytest.mark.parametrize("text", [text for _, text in PLANTED], ids=[name for name, _ in PLANTED])
    def test_error_planted_in_a_later_slice(self, small_slices, text):
        assert_agrees(text)

    def test_leading_zero_ids_fall_back(self, small_slices):
        # JSON refuses a leading zero that int() reads, so the whole text goes
        # to the line parser: the same graph, or its error and line
        early = "n 12\na 01 2\na 0 007\n"
        late = "n 12\n" + "".join(f"a {v} {v + 1}\n" for v in range(10)) + "a 3 007\n"
        cases = [
            (early, "ok"),
            (late, "ok"),
            ("n 12\na 01 2\na 1 2\n", "error"),  # duplicate arc, line 3
            (late + "a 3 7\n", "error"),  # duplicate arc in a later slice
            (late.replace("a 3 007", "a 3 012"), "error"),  # out of range
            (late.replace("a 3 007", "a 07 7"), "error"),  # a loop
        ]
        for text, kind in cases:
            with pytest.raises(ValueError):
                core._bulk_graph(text)
            assert assert_agrees(text)[0] == kind, text
        assert parse_graph(early).arcs == {(1, 2), (0, 7)}
        assert parse_graph(late) == parse_graph(late.replace("007", "7"))

    def test_id_past_the_int_digit_limit_falls_back(self):
        # the JSON decoder's int() refuses the long id in bulk; the line
        # parser stops at line 3 first
        huge = "1" * 5000
        with pytest.raises(GraphFormatError, match="line 3: duplicate arc"):
            parse_graph(f"n 3\na 0 1\na 0 1\na 0 {huge}\n")
        with pytest.raises(GraphFormatError, match="line 2: duplicate coordinates"):
            parse_coords(f"c 0 1\nc 0 2\nc 1 {huge}\n")

    @pytest.mark.parametrize("slice_chars", [16, core._SLICE])
    def test_bulk_table_reads_columns(self, monkeypatch, slice_chars):
        # ids in row order and one digit list per position; a repeated id is
        # the caller's to find
        monkeypatch.setattr(core, "_SLICE", slice_chars)
        text = "n 2\na 0 1\nc 2 0 5\nc 0 1 1\nc 1 0 3\n"
        assert core._bulk_coords(text) == ([2, 0, 1], [[0, 1, 0], [5, 1, 3]])
        assert core._bulk_coords("c 0\nc 1\n") == ([0, 1], [])
        assert core._bulk_coords("n 2\n") == ([], [])
        assert core._bulk_coords("c 0 1\nc 0 2\n") == ([0, 0], [[1, 2]])
        # digits past the small-int table and with leading zeros, also in a
        # later slice than the first
        text = "c 0 255 3\nc 1 7 300\nc 2 007 1\nc 3 1 0\n"
        assert core._bulk_coords(text) == ([0, 1, 2, 3], [[255, 7, 7, 1], [3, 300, 1, 0]])
        for bad in ("c 0 1\nc 1 2 3\n", "c 0 1\r\n", "c 0  1\n", "# t\nc 0 1\n"):
            with pytest.raises(core._NotCanonical):
                core._bulk_coords(bad)

    def test_table_codes(self):
        # codes listed by vertex, position 0 slowest; rows in any order
        text = "c 0 1 0\nc 1 0 2\nc 2 1 1\nc 3 0 0\nc 4 0 1\nc 5 1 2\n"
        assert core.coords_codes(text, [2, 3]) == [3, 2, 4, 0, 1, 5]
        shuffled = "".join(sorted(text.splitlines(keepends=True), key=lambda r: r[4:]))
        assert core.coords_codes(shuffled, [2, 3]) == [3, 2, 4, 0, 1, 5]
        assert core.coords_codes("c 0\n", []) == [0]
        # None for text the line parser must read, and for a table that
        # fails a check: row count, width, digit off the grid, id out of
        # range, repeated id
        for bad in (
            "c 0 1\r\nc 1 0\r\n",
            "c 0 1\n",
            "c 0 1 0\nc 1 0 0\n",
            "c 0 2\nc 1 0\n",
            "c 0 1\nc 2 0\n",
            "c 1 1\nc 1 0\n",
        ):
            assert core.coords_codes(bad, [2]) is None, bad

    @pytest.mark.parametrize("slice_chars", [40, core._SLICE])
    def test_written_text_never_reaches_the_line_parser(self, monkeypatch, slice_chars):
        def refuse(text):
            raise AssertionError("line parser called on written text")

        monkeypatch.setattr(core, "_SLICE", slice_chars)
        monkeypatch.setattr(core, "_parse_graph_lines", refuse)
        monkeypatch.setattr(core, "_parse_coords_lines", refuse)
        rng = random.Random(80)
        graphs = [DiGraph(1), DiGraph(1, loops={0}), DiGraph(3), DiGraph(3, loops={2})]
        graphs += [random_digraph(rng, rng.randint(2, 30), loop_prob=rng.random()) for _ in range(40)]
        for G in graphs:
            assert parse_graph(to_text(G)) == G
            assert parse_coords(to_text(G)) == {}
            for width in range(5):
                table = [tuple(rng.randrange(10**rng.randint(1, 6)) for _ in range(width)) for _ in range(G.n)]
                text = to_text(G) + coords_to_text(table)
                assert parse_graph(text) == G
                assert parse_coords(text) == dict(enumerate(table))
                assert parse_coords(coords_to_text(table)) == dict(enumerate(table))

    @staticmethod
    def peaks_on_50k_arcs():
        """tracemalloc peaks of the line parser and of parse_graph on a
        canonical text of 52,000 arcs."""
        n = 26_000
        arcs = {(u, (u + d) % n) for u in range(n) for d in (1, 37)}
        text = to_text(DiGraph(n, arcs, set(range(0, n, 10))))
        assert len(arcs) >= 50_000
        peaks = []
        tracemalloc.start()
        try:
            for parse in (core._parse_graph_lines, parse_graph):
                tracemalloc.reset_peak()
                G = parse(text)
                peaks.append(tracemalloc.get_traced_memory()[1])
                del G
        finally:
            tracemalloc.stop()
        return peaks

    def test_peak_memory_at_most_the_line_parsers(self):
        lines, bulk = self.peaks_on_50k_arcs()
        assert bulk <= lines, (lines, bulk)

    def test_bulk_reader_builds_one_arc_set(self):
        # no set copied into a frozenset: the peak stays well under the line parser's
        lines, bulk = self.peaks_on_50k_arcs()
        assert bulk <= 0.8 * lines, (lines, bulk)


class TestShadow:
    @staticmethod
    def _assert_single_edge(arcs):
        S = shadow(DiGraph(2, arcs, set()))
        assert S.ends == [(0, 1)]
        assert S.edge_count == 1

    def test_fwd(self):
        self._assert_single_edge({(0, 1)})

    def test_bwd(self):
        self._assert_single_edge({(1, 0)})

    def test_both(self):
        self._assert_single_edge({(0, 1), (1, 0)})

    def test_loops_discarded(self):
        S = shadow(DiGraph(2, {(0, 1)}, {1}))
        assert S.ends == [(0, 1)]

    def test_equal_shadows_hash_alike(self):
        G = DiGraph(3, {(0, 1), (1, 2), (2, 1)}, {0})
        G2 = DiGraph(3, [(2, 1), (1, 2), (0, 1)], [0])
        assert shadow(G2) == shadow(G)
        assert hash(shadow(G2)) == hash(shadow(G))

    @settings(deadline=None)
    @given(connected_digraphs())
    def test_loops_never_affect_shadow(self, G):
        assert shadow(strip_loops(G)) == shadow(G)

    @settings(deadline=None)
    @given(
        st.integers(1, 9).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.dictionaries(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                        lambda e: e[0] < e[1]
                    ),
                    st.sampled_from(["forward", "backward", "both"]),
                ),
            )
        )
    )
    def test_adjacency_matches_the_set_reference(self, drawn):
        # one-way arcs either way and two-way pairs, each edge listed once
        n, kinds = drawn
        arcs = set()
        for (u, v), kind in kinds.items():
            if kind != "backward":
                arcs.add((u, v))
            if kind != "forward":
                arcs.add((v, u))
        G = DiGraph(n, arcs)
        assert shadow(G).adj == naive_shadow_adj(G)

    @settings(deadline=None)
    @given(connected_digraphs())
    def test_edge_ids_sorted_aligned_and_carry_the_arcs(self, G):
        S = shadow(G)
        assert S.ends == sorted({(min(a), max(a)) for a in G.arcs})
        assert all((u, v) in G.arcs or (v, u) in G.arcs for u, v in S.ends)
        # a shadow built from one arc per edge lists the same edges
        T = shadow(DiGraph(G.n, S.ends))
        assert T == S
        assert (T.ends, T.adj) == (S.ends, S.adj)

    @settings(deadline=None)
    @given(connected_digraphs())
    def test_edges_are_min_max_pairs_of_arcs(self, G):
        S = shadow(G)
        assert set(S.ends) == {(min(a), max(a)) for a in G.arcs}
        assert S.adj == tuple(
            tuple(sorted({w for a in G.arcs if v in a for w in a} - {v}))
            for v in range(G.n)
        )


class TestStripLoops:
    def test_removes_loops(self):
        G = DiGraph(2, {(0, 1)}, {1})
        assert strip_loops(G) == DiGraph(2, {(0, 1)}, set())

    def test_identity_when_loopless(self):
        G = DiGraph(2, {(0, 1)}, set())
        assert strip_loops(G) == G

    def test_two_cycle(self):
        G = DiGraph(2, {(0, 1), (1, 0)}, {0, 1})
        assert strip_loops(G) == DiGraph(2, {(0, 1), (1, 0)}, set())


class TestBfs:
    def test_path_levels(self):
        S = shadow(DiGraph(3, {(0, 1), (1, 2)}, set()))
        B = bfs(S, 0)
        assert B.level == (0, 1, 2)
        assert B.down[1] == (0,)
        assert B.cross == ((), (), ())

    def test_four_cycle_down_neighbors(self):
        # cycle 0-1-3-2-0
        arcs = {(0, 1), (1, 3), (2, 3), (0, 2)}
        B = bfs(shadow(DiGraph(4, arcs, set())), 0)
        assert B.level[3] == 2
        assert set(B.down[3]) == {1, 2}

    def test_triangle_cross_edge(self):
        arcs = {(0, 1), (1, 2), (0, 2)}
        B = bfs(shadow(DiGraph(3, arcs, set())), 0)
        assert B.level == (0, 1, 1)
        assert B.cross[1] == (2,) and B.cross[2] == (1,)

    def test_disconnected_raises(self):
        S = shadow(DiGraph(3, {(0, 1)}, set()))
        with pytest.raises(DisconnectedGraphError):
            bfs(S, 0)

    @pytest.mark.parametrize("root", [-1, 3])
    def test_root_out_of_range_raises(self, root):
        S = shadow(DiGraph(3, {(0, 1), (1, 2)}, set()))
        with pytest.raises(ValueError, match=f"root {root} out of range"):
            bfs(S, root)

    @settings(deadline=None)
    @given(connected_digraphs(min_n=2))
    def test_structure_invariants(self, G):
        S = shadow(G)
        B = bfs(S, 0)
        assert sorted(B.bfsnum) == list(range(G.n))
        for u in range(G.n):
            for v in range(G.n):
                if B.level[v] > B.level[u]:
                    assert B.bfsnum[v] > B.bfsnum[u]
        for v in range(G.n):
            if v != 0:
                assert B.down[v], f"vertex {v} has no down-neighbor"
            for u in B.down[v]:
                assert B.level[u] == B.level[v] - 1
            for u in B.cross[v]:
                assert B.level[u] == B.level[v]

    @staticmethod
    def assert_lists_ascend(S, B):
        # down-neighbours arrive in BFS order and are sorted in place; the
        # first is the tree edge, the smallest id one level closer
        for v in range(S.n):
            closer = [u for u in S.adj[v] if B.level[u] == B.level[v] - 1]
            assert list(B.down[v]) == sorted(B.down[v]) == closer
            assert list(B.cross[v]) == sorted(B.cross[v])

    @settings(deadline=None)
    @given(connected_digraphs(min_n=2, max_n=9), st.randoms(use_true_random=False))
    def test_down_lists_ascend_by_id(self, G, rng):
        S = shadow(G)
        self.assert_lists_ascend(S, bfs(S, rng.randrange(G.n)))

    def test_down_lists_ascend_on_scrambled_grids(self):
        # from level 3 on, BFS order and id order part on a scrambled grid
        rng = random.Random(5)
        for a in range(4, 9):
            edges = [(a * i + j, a * i + j + 1) for i in range(a) for j in range(a - 1)]
            edges += [(a * i + j, a * i + j + a) for i in range(a - 1) for j in range(a)]
            perm = list(range(a * a))
            rng.shuffle(perm)
            S = shadow_graph(a * a, [(perm[u], perm[v]) for u, v in edges])
            for root in range(0, a * a, 3):
                self.assert_lists_ascend(S, bfs(S, root))


class TestAgainstNaiveBfs:
    def test_bfs_is_connected_and_dist_match(self):
        # seeded random shadows, about half of them disconnected
        rng = random.Random(7)
        disconnected = 0
        for _ in range(300):
            n = rng.randint(1, 10)
            p = rng.choice((0.1, 0.25, 0.5))
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
            ]
            S = shadow_graph(n, edges)
            assert is_connected(S) == naive_is_connected(S)
            disconnected += not naive_is_connected(S)
            for root in range(n):
                try:
                    want = naive_bfs(S, root)
                except DisconnectedGraphError as exc:
                    with pytest.raises(DisconnectedGraphError, match=str(exc)):
                        bfs(S, root)
                else:
                    assert bfs(S, root) == want
                for v in range(n):
                    assert dist(S, root, v) == naive_dist(S, root, v)
        assert 50 < disconnected < 250


class TestMetrics:
    def test_k2(self):
        S = shadow(DiGraph(2, {(0, 1)}, set()))
        assert is_connected(S)
        assert min_degree(S) == 1
        assert dist(S, 0, 1) == 1

    def test_two_isolated(self):
        S = shadow_graph(2, ())
        assert not is_connected(S)
        assert dist(S, 0, 1) is None

    def test_four_cycle_degree(self):
        assert min_degree(shadow(undirected_cycle(4))) == 2

    def test_dist_range_check(self):
        S = shadow(DiGraph(2, {(0, 1)}, set()))
        with pytest.raises(ValueError):
            dist(S, 0, 5)

    def test_single_vertex_connected(self):
        assert is_connected(shadow_graph(1, ()))


class TestExports:
    def test_all_names_resolve(self):
        assert len(set(boxfactor.__all__)) == len(boxfactor.__all__)
        assert [n for n in boxfactor.__all__ if not hasattr(boxfactor, n)] == []

    def test_test_only_helpers_are_not_exported(self):
        for name in (
            "coords_to_text",
            "count_inconsistencies",
            "shadow_factorization_of_product",
            "dist",
            "min_degree",
            "project_vertex",
            "iso_check",
            "canonical_small_graphs",
        ):
            assert name not in boxfactor.__all__
            assert not hasattr(boxfactor, name)
        for name in ("iso_check", "canonical_small_graphs"):
            assert not hasattr(boxfactor.oracle, name)
        for name in ("class_of", "count", "live_ids"):
            assert not hasattr(boxfactor.ColorPartition, name)
        assert not hasattr(boxfactor.Coordinatization, "vertex_of")
        for name in ("has_arc", "is_looped"):
            assert not hasattr(boxfactor.DiGraph, name)
        assert not hasattr(boxfactor.ShadowGraph, "has_edge")

    def test_star_import(self):
        namespace = {}
        exec("from boxfactor import *", namespace)
        assert set(boxfactor.__all__) <= namespace.keys()
