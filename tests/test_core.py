import pytest
from hypothesis import given, settings

from boxfactor import (
    DiGraph,
    DirTag,
    DisconnectedGraphError,
    GraphFormatError,
    ShadowGraph,
    bfs,
    digraph_from_shadow,
    dist,
    is_connected,
    min_degree,
    parse_coords,
    parse_graph,
    shadow,
    strip_loops,
    to_text,
)
from helpers import connected_digraphs, undirected_cycle


class TestDiGraph:
    def test_basic_construction(self):
        G = DiGraph(3, {(0, 1), (1, 2)}, {2})
        assert G.n == 3
        assert G.has_arc(0, 1)
        assert not G.has_arc(1, 0)
        assert G.is_looped(2)
        assert not G.is_looped(0)

    def test_rejects_self_arc(self):
        with pytest.raises(ValueError):
            DiGraph(2, {(1, 1)}, set())

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DiGraph(2, {(0, 2)}, set())
        with pytest.raises(ValueError):
            DiGraph(2, set(), {5})

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
            to_text(G, [(0,), (1,)]) == "n 2\na 0 1\nc 0 0\nc 1 1\n"
        )

    @settings(deadline=None)
    @given(connected_digraphs())
    def test_round_trip(self, G):
        assert parse_graph(to_text(G)) == G


class TestShadow:
    def test_fwd(self):
        S = shadow(DiGraph(2, {(0, 1)}, set()))
        assert S.tag(0, 1) is DirTag.FWD

    def test_bwd(self):
        S = shadow(DiGraph(2, {(1, 0)}, set()))
        assert S.tag(0, 1) is DirTag.BWD

    def test_both(self):
        S = shadow(DiGraph(2, {(0, 1), (1, 0)}, set()))
        assert S.tag(0, 1) is DirTag.BOTH

    def test_loops_discarded(self):
        S = shadow(DiGraph(2, {(0, 1)}, {1}))
        assert set(S.tags) == {(0, 1)}

    @settings(deadline=None)
    @given(connected_digraphs())
    def test_loops_never_affect_shadow(self, G):
        assert shadow(strip_loops(G)) == shadow(G)

    @settings(deadline=None)
    @given(connected_digraphs())
    def test_dirtag_round_trip(self, G):
        assert digraph_from_shadow(shadow(G), G.loops) == G


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


class TestMetrics:
    def test_k2(self):
        S = shadow(DiGraph(2, {(0, 1)}, set()))
        assert is_connected(S)
        assert min_degree(S) == 1
        assert dist(S, 0, 1) == 1

    def test_two_isolated(self):
        S = ShadowGraph(2, {})
        assert not is_connected(S)
        assert dist(S, 0, 1) is None

    def test_four_cycle_degree(self):
        assert min_degree(shadow(undirected_cycle(4))) == 2

    def test_dist_range_check(self):
        S = shadow(DiGraph(2, {(0, 1)}, set()))
        with pytest.raises(ValueError):
            dist(S, 0, 5)

    def test_single_vertex_connected(self):
        assert is_connected(ShadowGraph(1, {}))
