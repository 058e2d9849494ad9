import random
import sys
import tracemalloc

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
    NoUnloopedVertexError,
    cartesian_product,
    factor_directed,
    factor_full,
    factor_shadow,
    factor_with_loops,
    gen_product_instance,
    group_coordinates,
    reconstruct_check,
    shadow,
    strip_loops,
)
from boxfactor import directed_factor, loop_factor
from boxfactor.core import bfs
from helpers import (
    both_k2,
    both_ways,
    class_count,
    connected_digraphs,
    inconsistent_square,
    klein_bottle_grid,
    live_ids,
    loop_flags,
    loop_product,
    looped_far_corner,
    mobius_ladder,
    multiset_iso,
    naive_factor_directed,
    naive_factor_with_loops,
    naive_group_coordinates,
    pendant_grid,
    project,
    random_digraph,
    relabel,
    shadow_graph,
    undirected_cycle,
)


K2 = DiGraph(2, {(0, 1), (1, 0)}, set())
K2_LOOPED = DiGraph(2, {(0, 1), (1, 0)}, {1})


def scrambled(factors, rng):
    """The product of `factors` with its vertices relabeled at random, and a
    random unlooped root."""
    P, _ = cartesian_product(factors)
    perm = list(range(P.n))
    rng.shuffle(perm)
    G = relabel(P, perm)
    return G, rng.choice([v for v in range(G.n) if v not in G.loops])


def frozen(F):
    """Order-preserving structural snapshot of a factorization."""
    return tuple((f.n, sorted(f.arcs), sorted(f.loops)) for f in F.factors)


class TestPickRoot:
    """The root `rooted_bfs` starts from when none is given."""

    @staticmethod
    def root(G):
        return loop_factor.rooted_bfs(G, shadow(G)).root

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            self.root(DiGraph(0, set(), set()))

    def test_all_looped_rejected(self):
        with pytest.raises(NoUnloopedVertexError):
            self.root(DiGraph(2, {(0, 1), (1, 0)}, {0, 1}))

    def test_smallest_unlooped_wins(self):
        G = DiGraph(3, {(0, 1), (1, 2), (1, 0), (2, 1)}, {0, 1})
        assert self.root(G) == 2

    def test_zero_when_unlooped(self):
        assert self.root(DiGraph(2, {(0, 1)}, {1})) == 0


class TestLoopedProduct:
    def test_two_cycle_square_with_one_loop(self):
        P, C, A, B = loop_product()
        F = factor_full(P)
        assert F.merges == 0
        assert frozen(F) == (
            (2, [(0, 1), (1, 0)], []),
            (2, [(0, 1), (1, 0)], [1]),
        )
        assert reconstruct_check(P, F)
        assert multiset_iso(F.factors, [A, B])

    def test_far_corner_loop_is_prime(self):
        G = looped_far_corner()
        F = factor_full(G)
        assert F.k == 1
        assert F.merges == 1
        assert F.factors[0] == G

    def test_level_one_loop_is_prime(self):
        # loop on a neighbor of the root: the mismatch surfaces at the far
        # corner, whose unlooped state contradicts its looped projection
        arcs = set()
        for u, v in ((0, 1), (0, 2), (1, 3), (2, 3)):
            arcs.add((u, v))
            arcs.add((v, u))
        G = DiGraph(4, arcs, {1})
        F = factor_full(G)
        assert F.k == 1
        assert F.merges == 1
        assert F.factors[0] == G

    def test_both_corners_looped_still_product(self):
        # loops at 1 and 3 = rows {1} of the first axis: a genuine product
        # of a looped K2 with a plain K2
        arcs = set()
        for u, v in ((0, 1), (0, 2), (1, 3), (2, 3)):
            arcs.add((u, v))
            arcs.add((v, u))
        G = DiGraph(4, arcs, {1, 3})
        F = factor_full(G)
        assert F.k == 2
        assert F.merges == 0
        assert sorted(len(f.loops) for f in F.factors) == [0, 1]
        assert reconstruct_check(G, F)

    def test_three_factors_two_looped(self):
        A = DiGraph(2, {(0, 1), (1, 0)}, {1})
        B = DiGraph(3, {(0, 1), (1, 2), (1, 0), (2, 1)}, {2})
        C_ = DiGraph(2, {(0, 1)}, set())
        P, _ = cartesian_product([A, B, C_])
        F = factor_full(P)
        assert F.k == 3
        assert reconstruct_check(P, F)
        assert multiset_iso(F.factors, [A, B, C_])


class TestFactorWithLoops:
    def test_loopless_is_a_no_op(self):
        G = DiGraph(3, {(0, 1), (1, 2), (1, 0), (2, 1)}, set())
        SF = factor_shadow(shadow(G), 0)
        NF = factor_directed(G, SF)
        F = factor_with_loops(G, NF)
        assert F.merges == 0
        assert frozen(F) == frozen(NF)
        assert F.coordin.coords == NF.coordin.coords

    def test_trivial_factorization_passthrough(self):
        G = DiGraph(1, set(), set())
        SF = factor_shadow(shadow(G), 0)
        NF = factor_directed(G, SF)
        assert factor_with_loops(G, NF) is NF

    def test_size_mismatch_rejected(self):
        G = DiGraph(3, {(0, 1), (1, 2), (1, 0), (2, 1)}, set())
        SF = factor_shadow(shadow(G), 0)
        NF = factor_directed(G, SF)
        H = DiGraph(4, {(0, 1), (1, 2), (2, 3)}, {3})
        with pytest.raises(ValueError, match="size"):
            factor_with_loops(H, NF)

    def test_looped_root_rejected(self):
        P, C, A, B = loop_product()
        N = strip_loops(P)
        SF = factor_shadow(shadow(N), 0)
        NF = factor_directed(N, SF)
        with pytest.raises(NoUnloopedVertexError):
            factor_with_loops(DiGraph(4, P.arcs, {0, 3}), NF)

    def test_bfs_root_mismatch(self):
        P, C, A, B = loop_product()
        N = strip_loops(P)
        SF = factor_shadow(shadow(N), 0)
        NF = factor_directed(N, SF)
        with pytest.raises(ValueError, match="root"):
            factor_with_loops(P, NF, bfs(shadow(N), 1))

    @pytest.mark.parametrize(
        "loops, message", [({3}, "loop placement of vertex 3"), ({1}, "place 2 loops")]
    )
    def test_loops_the_factors_cannot_place_raise(self, loops, message):
        # a both-ways square, split into its two sides without a loop scan:
        # a loop at the far corner only, or at one side's end but not at
        # the far corner, is no product of the sides
        arcs = {a for u, v in ((0, 1), (1, 3), (3, 2), (2, 0)) for a in ((u, v), (v, u))}
        G = DiGraph(4, arcs, loops)
        C = factor_shadow(shadow(G), 0).coordin
        assert C.coords == ((0, 0), (1, 0), (0, 1), (1, 1))
        P = ColorPartition(2, C)
        with pytest.raises(FactorizationError, match=message):
            loop_factor._regroup_looped(G, C, P, bfs(shadow(G), 0), loop_flags(G, C, P))

    def test_factorization_of_another_graph_raises(self):
        # NF factors the both-ways square 0-1-3-2; H is the both-ways cycle
        # 0-1-2-3 on the same vertices, whose "factors" under NF's
        # coordinates make 4 of its 8 arcs
        NF = factor_full(both_ways(shadow_graph(4, [(0, 1), (1, 3), (2, 3), (0, 2)])))
        assert NF.k == 2
        H = both_ways(shadow_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        with pytest.raises(FactorizationError, match="make 4 arcs, the graph has 8"):
            factor_with_loops(H, NF)

    def test_edge_changing_two_coordinates_raises_in_the_loop_scan(self):
        # the same NF and cycle, with a loop at 3: the loop scan reaches 3,
        # whose down-edge 3-0 steps from (1, 1) to (0, 0)
        NF = factor_full(both_ways(shadow_graph(4, [(0, 1), (1, 3), (2, 3), (0, 2)])))
        H = both_ways(shadow_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        H = DiGraph(4, H.arcs, {3})
        with pytest.raises(FactorizationError, match=r"edge \(3, 0\) changes more than one"):
            factor_with_loops(H, NF)


class TestFactorFullContract:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            factor_full(DiGraph(0, set(), set()))

    def test_disconnected_rejected(self):
        G = DiGraph(4, {(0, 1), (1, 0), (2, 3), (3, 2)}, set())
        with pytest.raises(DisconnectedGraphError):
            factor_full(G)

    @pytest.mark.parametrize("loops, root", [({0, 1, 2, 3}, None), ({2}, 2), (set(), 9)])
    def test_disconnection_reported_before_the_root(self, loops, root):
        G = DiGraph(4, {(0, 1), (1, 0), (2, 3), (3, 2)}, loops)
        with pytest.raises(DisconnectedGraphError):
            factor_full(G, root)

    def test_sparse_huge_graph_fails_before_allocating(self):
        G = DiGraph(10**6, {(0, 1)}, set())
        tracemalloc.start()
        try:
            with pytest.raises(DisconnectedGraphError):
                factor_full(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_tree_has_just_enough_arcs(self):
        # n - 1 arcs can still connect n vertices: no early rejection
        G = DiGraph(3, {(0, 1), (2, 1)}, set())
        assert factor_full(G).k == 1

    def test_trivial_graph_is_unit(self):
        F = factor_full(DiGraph(1, set(), set()))
        assert F.k == 0
        assert F.factors == ()
        assert F.coordin.coords == ((),)
        assert F.merges == 0
        assert F.stages == ()

    def test_looped_point_rejected(self):
        with pytest.raises(NoUnloopedVertexError):
            factor_full(DiGraph(1, set(), {0}))

    def test_all_looped_rejected(self):
        with pytest.raises(NoUnloopedVertexError):
            factor_full(DiGraph(2, {(0, 1), (1, 0)}, {0, 1}))

    def test_explicit_root_out_of_range(self):
        with pytest.raises(ValueError):
            factor_full(DiGraph(2, {(0, 1), (1, 0)}, set()), root=9)

    def test_explicit_looped_root_rejected(self):
        G = DiGraph(2, {(0, 1), (1, 0)}, {1})
        with pytest.raises(NoUnloopedVertexError):
            factor_full(G, root=1)

    def test_one_bfs_and_one_regroup_per_run(self, monkeypatch):
        calls = {"bfs": 0, "regroup_columns": 0, "_edge_info": 0}
        for name in calls:
            for mod in [m for k, m in sys.modules.items() if k.startswith("boxfactor.")]:
                fn = getattr(mod, name, None)
                if fn is None:
                    continue

                def counted(*args, _fn=fn, _name=name):
                    calls[_name] += 1
                    return _fn(*args)

                monkeypatch.setattr(mod, name, counted)
        # a direction merge, then a loop merge
        P, _ = cartesian_product([inconsistent_square(), looped_far_corner()])
        F = factor_full(P)
        assert [m for _, _, m in F.stages] == [0, 0, 1, 1]
        assert calls == {"bfs": 1, "regroup_columns": 1, "_edge_info": 0}

    def test_no_projection_column_beyond_the_single_positions(self, monkeypatch):
        # the merge stage adds columns; only the k single-position columns
        # are projected (the codes are folded from the coordinates)
        P, _ = cartesian_product([inconsistent_square(), looped_far_corner(), K2_LOOPED])
        built = []
        project = Coordinatization.projection_codes

        def recorded(self, positions):
            built.append(tuple(positions))
            return project(self, positions)

        monkeypatch.setattr(Coordinatization, "projection_codes", recorded)
        F = factor_full(P)
        assert [m for _, _, m in F.stages] == [0, 0, 1, 1]
        k = len(F.partition.table)
        assert k == 5
        assert sorted(built) == [(i,) for i in range(k)]

    def test_loopless_graph_skips_loop_stage(self):
        G = DiGraph(4, {(0, 2), (1, 3), (0, 1), (2, 3)}, set())
        F = factor_full(G)
        SF = factor_shadow(shadow(G), 0)
        N = factor_directed(G, SF)
        assert frozen(F) == frozen(N)
        assert [name for name, _, _ in F.stages] == ["prepare", "shadow", "directed"]
        assert N.stages == ()

    def test_stages_time_every_pass_that_ran(self):
        P, _, _, _ = loop_product()
        F = factor_full(P)
        assert [(name, m) for name, _, m in F.stages] == [
            ("prepare", 0), ("shadow", 0), ("directed", 0), ("loops", 0)
        ]
        assert all(seconds >= 0.0 for _, seconds, _ in F.stages)
        assert factor_with_loops(P, factor_full(strip_loops(P))).stages == ()


class TestLoopProperties:
    @settings(deadline=None, max_examples=50)
    @given(st.data())
    def test_soundness_on_random_looped_products(self, data):
        A = data.draw(connected_digraphs(min_n=2, max_n=4, allow_loops=True))
        B = data.draw(connected_digraphs(min_n=2, max_n=4, allow_loops=True))
        P, _ = cartesian_product([A, B])
        if all(v in P.loops for v in range(P.n)):
            return  # out of scope: no unlooped vertex
        F = factor_full(P)
        assert reconstruct_check(P, F)

    @settings(deadline=None, max_examples=50)
    @given(connected_digraphs(min_n=1, max_n=6, allow_loops=True))
    def test_per_vertex_loop_rule(self, G):
        F = factor_full(G)
        for v in range(G.n):
            cv = F.coordin.coords[v]
            expect = any(cv[i] in F.factors[i].loops for i in range(F.k))
            assert (v in G.loops) == expect

    @settings(deadline=None, max_examples=50)
    @given(connected_digraphs(min_n=2, max_n=6, allow_loops=True))
    def test_loop_stage_only_coarsens(self, G):
        N = strip_loops(G)
        r = loop_factor.rooted_bfs(G, shadow(G)).root
        SF = factor_shadow(shadow(N), r)
        NF = factor_directed(N, SF)
        F = factor_full(G, root=r)
        # the loop stage can only merge classes of the loopless result
        assert F.k <= NF.k
        if not G.loops:
            assert F.k == NF.k

    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_root_invariance(self, data):
        A = data.draw(connected_digraphs(min_n=2, max_n=3, allow_loops=True))
        B = data.draw(connected_digraphs(min_n=2, max_n=3, allow_loops=True))
        P, _ = cartesian_product([A, B])
        unlooped = [v for v in range(P.n) if v not in P.loops]
        if not unlooped:
            return
        roots = [unlooped[0], unlooped[-1]]
        F0 = factor_full(P, root=roots[0])
        F1 = factor_full(P, root=roots[1])
        assert multiset_iso(F0.factors, F1.factors)


class TestLoopScanOnMergedClasses:
    """The loop scan merging in a partition that already grouped colors
    gives what a fresh scan over those groups, regrouped first, gives."""

    def test_same_as_regrouping_first(self):
        rng = random.Random(11)
        LOOPED_SQUARE = DiGraph(
            4, {a for u, v in ((0, 1), (1, 3), (3, 2), (2, 0)) for a in ((u, v), (v, u))}, {3}
        )
        K2 = DiGraph(2, {(0, 1), (1, 0)}, set())
        merged = 0
        for t in range(120):
            pool = [LOOPED_SQUARE, K2, gen_product_instance(1, (2, 4), 0.4, t)[1][0]]
            P, _ = cartesian_product([rng.choice(pool) for _ in range(rng.randint(2, 4))])
            perm = list(range(P.n))
            rng.shuffle(perm)
            G = relabel(P, perm)
            root = rng.choice([v for v in range(G.n) if v not in G.loops])
            B = bfs(shadow(G), root)
            C = factor_shadow(shadow(G), root).coordin
            # group the colors at random, as the direction scan might
            groups = ColorPartition(C.k, C)
            for _ in range(rng.randint(0, C.k - 1)):
                groups.merge(rng.sample(live_ids(groups), min(2, class_count(groups))))
            regrouped = group_coordinates(G, C, groups.classes())
            NF = DirectedFactorization(groups, regrouped, 0)

            def shared():
                merges, has_looped = loop_factor._loop_scan(G, C, groups, B)
                assert has_looped == loop_flags(G, C, groups)
                return merges, loop_factor._regroup_looped(G, C, groups, B, has_looped)

            try:
                want = factor_with_loops(G, NF, B)
            except FactorizationError:
                with pytest.raises(FactorizationError):
                    shared()
                continue
            merges, got = shared()
            assert merges == want.merges
            assert got.factors == want.factors
            assert got.coords == want.coordin.coords
            merged += merges > 0
        assert merged > 20


class TestRegroupFromColumns:
    """The merge stage regroups from its class columns and each layer's own
    edges; `naive_group_coordinates`, one arc scan per block, must agree."""

    def test_products_that_merge_in_both_scans(self):
        rng = random.Random(17)
        seen_k = set()
        for t in range(12):
            dcycles = 1 + (t % 2)
            # a triangle gives the BFS cross edges inside a layer
            triangles = t % 3 == 0
            plain = rng.randint(0, 9 - 2 * dcycles - triangles)
            factors = [inconsistent_square()] * dcycles + [looped_far_corner(), K2_LOOPED]
            factors += [undirected_cycle(3)] * triangles + [K2] * plain
            rng.shuffle(factors)
            G, root = scrambled(factors, rng)
            C = factor_shadow(shadow(G), root).coordin
            F = factor_full(G, root)
            directed, loops = [m for _, _, m in F.stages[2:]]
            assert directed == dcycles and loops == 1
            assert C.k == 2 * dcycles + 3 + triangles + plain <= 12
            seen_k.add(C.k)
            want = naive_group_coordinates(G, C, F.partition.classes())
            assert F.factors == want.factors
            assert F.coordin.coords == want.coords
            assert reconstruct_check(G, F)
        assert max(seen_k) >= 11

    @pytest.mark.parametrize(
        "G, k0",
        [
            (DiGraph(6, undirected_cycle(6).arcs, {3}), 1),  # a prime shadow
            (inconsistent_square(), 2),  # the direction scan merges its sides
            (looped_far_corner(), 2),  # the loop scan merges its sides
        ],
    )
    def test_prime_graph_is_one_layer(self, G, k0):
        F = factor_full(G)
        assert F.k == 1
        assert F.factors == (G,)
        C = factor_shadow(shadow(G), 0).coordin
        assert C.k == k0
        want = naive_group_coordinates(G, C, F.partition.classes())
        assert F.factors == want.factors and F.coordin.coords == want.coords

    @pytest.mark.parametrize("classes", [[(0,), (1,), (2,)], [(0, 2), (1,)], [(0,), (1, 2)]])
    def test_one_vertex_block(self, classes):
        # position 1 is a one-vertex factor: alone, its layer is the root
        point = DiGraph(1, set(), set())
        P0, C0 = cartesian_product([looped_far_corner(), point, K2_LOOPED])
        perm = list(range(P0.n))
        random.Random(5).shuffle(perm)
        G = relabel(P0, perm)
        coords = [()] * G.n
        for v, cv in enumerate(C0.coords):
            coords[perm[v]] = cv
        C = Coordinatization(C0.factors, coords, perm[0])
        P = ColorPartition(3, C)
        for block in classes:
            P.merge({P.table[j] for j in block})
        got = loop_factor._regroup_looped(G, C, P, bfs(shadow(G), C.root), loop_flags(G, C, P))
        want = naive_group_coordinates(G, C, classes)
        assert got.factors == want.factors and got.coords == want.coords
        assert (point in got.factors) == ((1,) in classes)
        assert P.columns == {}


@st.composite
def merge_sequences(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    factors = [DiGraph(s, {(i, i + 1) for i in range(s - 1)}, set()) for s in sizes]
    _, C = cartesian_product(factors)
    C = Coordinatization(C.factors, C.coords, draw(st.integers(0, len(C.coords) - 1)))
    merges = draw(st.lists(st.sets(st.integers(0, len(sizes) - 1), max_size=4), max_size=6))
    return C, merges


class TestMergedColumns:
    @settings(deadline=None, max_examples=60)
    @given(merge_sequences())
    def test_merged_column_is_the_projection(self, case):
        C, merges = case
        P = ColorPartition(C.k, C)
        for colors in merges:
            P.merge({P.table[c] for c in colors})
            for i in live_ids(P):
                assert P.columns[i] == C.projection_codes(P.members(i))
        assert sorted(P.columns) == live_ids(P)


class TestScrambledLayout:
    """Vertex ids, codes and BFS order all differ: the loop scan and the
    loop check read the codes' order, but name and merge by vertex."""

    @staticmethod
    def layout():
        """The scrambled product of a directed 4-cycle, the far-corner
        looped square, a looped K2 and a plain K2, with the squares' digits
        split into two K2 digits each (six positions), and its BFS."""
        P0, C0 = cartesian_product([inconsistent_square(), looped_far_corner(), K2_LOOPED, K2])
        perm = list(range(P0.n))
        random.Random(3).shuffle(perm)
        G = relabel(P0, perm)
        coords = [()] * G.n
        for v, (a, b, c, d) in enumerate(C0.coords):
            coords[perm[v]] = (a // 2, a % 2, b // 2, b % 2, c, d)
        C = Coordinatization([K2] * 6, coords, perm[0])
        B = bfs(shadow(G), C.root)
        assert list(C.codes) != list(range(G.n))
        assert list(B.order) not in (list(range(G.n)), C.vertex_at)
        return G, C, B

    def test_loop_placement_error_names_the_same_vertex(self):
        # in single positions the far corner's loops have no looped
        # coordinate; the error names the first of them in G.loops
        G, C, B = self.layout()
        unplaced = [
            v for v in G.loops if not any(project(C, v, (j,)) in G.loops for j in range(6))
        ]
        assert len(unplaced) == 8
        P = ColorPartition(6, C)
        with pytest.raises(FactorizationError, match="loop placement of vertex 7 does"):
            loop_factor._regroup_looped(G, C, P, B, loop_flags(G, C, P))
        assert unplaced[0] == 7

    def test_factor_full_matches_the_naive_scans(self):
        G, _, B = self.layout()
        F = factor_full(G, B.root)
        SF = factor_shadow(shadow(G), B.root)
        assert list(SF.coordin.codes) != list(range(G.n))
        assert list(B.order) not in (list(range(G.n)), SF.coordin.vertex_at)
        NF = naive_factor_directed(strip_loops(G), SF, B)
        R = naive_factor_with_loops(G, NF, B)
        assert [(name, m) for name, _, m in F.stages] == [
            ("prepare", 0), ("shadow", 0), ("directed", NF.merges), ("loops", R.merges)
        ]
        assert (NF.merges, R.merges) == (1, 1)
        assert F.factors == R.factors
        assert F.coordin == R.coordin
        # F groups the shadow colors; the naive loop scan groups NF's classes
        classes = NF.partition.classes()
        assert F.partition.classes() == sorted(
            tuple(sorted(c for j in cls for c in classes[j])) for cls in R.partition.classes()
        )


def symmetrized(G):
    """G with the reverse of every arc added: every edge carries both arcs."""
    return DiGraph(G.n, G.arcs | {(v, u) for u, v in G.arcs}, G.loops)


class TestSymmetricInputsSkipTheDirectionScan:
    """When every edge carries both arcs, `_merge_scans` records 0
    direction merges without running the direction scan."""

    @staticmethod
    def spied(monkeypatch):
        calls = []
        scan = loop_factor._direction_scan

        def spy(*args):
            calls.append(True)
            return scan(*args)

        monkeypatch.setattr(loop_factor, "_direction_scan", spy)
        return calls

    def test_looped_cube_runs_no_direction_scan(self, monkeypatch):
        calls = self.spied(monkeypatch)
        G, _ = cartesian_product([K2_LOOPED] + [both_k2()] * 3)
        F = factor_full(G)
        assert [(name, m) for name, _, m in F.stages] == [
            ("prepare", 0), ("shadow", 0), ("directed", 0), ("loops", 0)
        ]
        assert F.k == 4
        assert reconstruct_check(G, F)
        N = strip_loops(G)
        assert factor_directed(N, factor_shadow(shadow(N), 0)).k == 4
        # cross edges, each on both of its ends' lists, count once
        T, _ = cartesian_product([undirected_cycle(3), K2_LOOPED])
        assert factor_full(T).k == 2
        assert calls == []

    def test_symmetric_loop_merge_is_still_reported(self, monkeypatch):
        calls = self.spied(monkeypatch)
        G, root = scrambled([looped_far_corner(), both_k2()], random.Random(5))
        F = factor_full(G, root)
        assert [(name, m) for name, _, m in F.stages] == [
            ("prepare", 0), ("shadow", 0), ("directed", 0), ("loops", 1)
        ]
        assert F.k == 2
        assert reconstruct_check(G, F)
        assert calls == []

    def test_one_way_edge_runs_the_scan(self, monkeypatch):
        calls = self.spied(monkeypatch)
        G, _ = cartesian_product([inconsistent_square(), both_k2()])
        F = factor_full(G)
        assert [(name, m) for name, _, m in F.stages] == [
            ("prepare", 0), ("shadow", 0), ("directed", 1)
        ]
        assert calls == [True]
        # a single one-way edge among both-ways ones is enough
        calls.clear()
        Q, _ = cartesian_product([both_k2()] * 3)
        factor_full(DiGraph(Q.n, Q.arcs - {(0, 1)}))
        assert calls == [True]

    @staticmethod
    def corpus():
        """Symmetric graphs: symmetrized generated products with loops,
        random both-ways graphs with loops, Moebius ladders, which reach
        delta*, Klein-bottle grids, which reach Theta, and pendant grids."""
        rng = random.Random(20261020)
        for i in range(240):
            nf = 2 + i % 3
            G, _ = gen_product_instance(nf, (2, 6 if nf == 2 else 4), 0.3, seed=i)
            yield symmetrized(G)
        for _ in range(400):
            n = rng.randint(2, 14)
            p = rng.choice([0.05, 0.1, 0.2, 0.4])
            yield symmetrized(random_digraph(rng, n, extra_prob=p, loop_prob=0.2))
        for r in range(3, 30):
            yield mobius_ladder(r)
        for m in range(3, 8):
            for n in range(3, 7):
                yield klein_bottle_grid(m, n)
        for A in range(2, 14):
            yield pendant_grid(A)

    def test_the_skipped_scan_would_merge_nothing(self, monkeypatch):
        seen = []
        scans = loop_factor._merge_scans

        def spy_scans(G, C, B):
            seen.append((C, B))
            return scans(G, C, B)

        monkeypatch.setattr(loop_factor, "_merge_scans", spy_scans)
        products = 0
        for G in self.corpus():
            S = shadow(G)
            assert len(G.arcs) == 2 * len(S.ends)
            F = factor_full(G)
            ((C, B),) = seen
            seen.clear()
            assert F.stages[2][::2] == ("directed", 0)
            assert directed_factor._direction_scan(G, C, ColorPartition(C.k, C), B) == 0
            products += C.k > 1
        # every generated product has several shadow classes
        assert products >= 240
