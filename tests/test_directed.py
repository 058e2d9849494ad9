import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxfactor import (
    ColorPartition,
    Coordinatization,
    DiGraph,
    ShadowFactorization,
    cartesian_product,
    factor_directed,
    factor_full,
    factor_shadow,
    factor_with_loops,
    gen_product_instance,
    reconstruct_check,
    shadow,
    strip_loops,
)
from boxfactor.core import bfs
from helpers import (
    both_k2,
    class_count,
    class_of,
    connected_digraphs,
    consistent_square,
    count_inconsistencies,
    inconsistent_square,
    live_ids,
    merge_classes,
    naive_factor_directed,
    naive_factor_with_loops,
    relabel,
)


def shadow_fact(G, root=0):
    return factor_shadow(shadow(G), root)


class TestColorPartition:
    def test_initial_state(self):
        P = ColorPartition(3)
        assert P.k == 3
        assert class_count(P) == 3
        assert P.table == [0, 1, 2]
        assert P.classes() == [(0,), (1,), (2,)]
        assert live_ids(P) == [0, 1, 2]

    def test_zero_colors(self):
        P = ColorPartition(0)
        assert P.k == 0 and class_count(P) == 0 and P.classes() == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ColorPartition(-1)

    def test_single_id_merge_is_noop(self):
        P = ColorPartition(2)
        assert P.merge({1}) == 1
        assert class_count(P) == 2

    def test_empty_merge(self):
        P = ColorPartition(2)
        assert P.merge(set()) == -1
        assert class_count(P) == 2

    def test_basic_merge(self):
        P = ColorPartition(3)
        s = P.merge({0, 2})
        assert s == 0
        assert P.classes() == [(0, 2), (1,)]
        assert class_of(P, 2) == 0
        assert P.table == [0, 1, 0]
        assert P.members(0) == (0, 2)
        assert class_count(P) == 2

    def test_unknown_id_rejected(self):
        P = ColorPartition(3)
        P.merge({0, 1})
        with pytest.raises(ValueError):
            P.merge({1, 2})  # 1 is no longer live

    def test_largest_class_keeps_its_id(self):
        P = ColorPartition(4)
        P.merge({2, 3})  # tie, smallest id 2 survives
        assert live_ids(P) == [0, 1, 2]
        s = P.merge({0, 2})  # class 2 has two members, wins over 0
        assert s == 2
        assert class_of(P, 0) == 2
        # listed by smallest member, whatever the ids
        assert P.classes() == [(0, 2, 3), (1,)]

    def test_merge_to_single_class(self):
        P = ColorPartition(5)
        P.merge(set(live_ids(P)))
        assert class_count(P) == 1
        assert len(set(P.table)) == 1

    def test_functional_wrapper(self):
        P = ColorPartition(2)
        assert merge_classes(P, {0, 1}) == 0
        assert class_count(P) == 1

    @pytest.mark.parametrize("k", [1, 3])
    def test_color_count_must_match_the_coordinates(self, k):
        # the partition keeps one column per position of C
        path = DiGraph(3, {(0, 1), (1, 0), (1, 2), (2, 1)}, set())
        _, C = cartesian_product([both_k2(), path])
        assert C.k == 2
        with pytest.raises(ValueError, match=f"color count {k} differs from the 2 positions"):
            ColorPartition(k, C)
        assert len(ColorPartition(2, C).columns) == 2


class TestExamples:
    def test_consistent_square_splits(self):
        G = consistent_square()
        F = factor_directed(G, shadow_fact(G))
        assert F.merges == 0
        assert F.k == 2
        assert all(f == DiGraph(2, {(0, 1)}, set()) for f in F.factors)
        # color 0 is the class of the smallest-bfsnum edge (0,1), so the
        # first coordinate moves along 0-1
        assert F.coordin.coords == ((0, 0), (1, 0), (0, 1), (1, 1))

    def test_half_inconsistent_square_is_prime(self):
        # one opposite pair agrees, the other is flipped
        G = DiGraph(4, {(0, 2), (3, 1), (0, 1), (2, 3)}, set())
        F = factor_directed(G, shadow_fact(G))
        assert F.merges == 1
        assert F.k == 1
        assert F.factors[0] == G

    def test_directed_four_cycle_is_prime(self):
        G = inconsistent_square()
        F = factor_directed(G, shadow_fact(G))
        assert F.merges == 1
        assert F.k == 1
        assert F.factors[0] == G

    def test_single_arc(self):
        G = DiGraph(2, {(0, 1)}, set())
        F = factor_directed(G, shadow_fact(G))
        assert F.k == 1 and F.merges == 0
        assert F.factors[0] == G

    def test_single_vertex_unit(self):
        G = DiGraph(1, set(), set())
        F = factor_directed(G, shadow_fact(G))
        assert F.k == 0
        assert F.factors == ()
        assert F.coordin.coords == ((),)

    def test_two_cycle_times_arc(self):
        A = DiGraph(2, {(0, 1), (1, 0)}, set())
        B = DiGraph(2, {(0, 1)}, set())
        P, _ = cartesian_product([A, B])
        F = factor_directed(P, shadow_fact(P))
        assert F.merges == 0
        assert sorted(len(f.arcs) for f in F.factors) == [1, 2]

    def test_opposed_arcs_keep_their_directions(self):
        A = DiGraph(2, {(0, 1)}, set())
        B = DiGraph(2, {(1, 0)}, set())
        P, _ = cartesian_product([A, B])
        F = factor_directed(P, shadow_fact(P))
        assert F.k == 2 and F.merges == 0
        assert sorted(tuple(f.arcs) for f in F.factors) == [((0, 1),), ((1, 0),)]
        assert reconstruct_check(P, F)

    def test_three_factor_product(self):
        A = DiGraph(2, {(0, 1)}, set())
        P, _ = cartesian_product([A, A, A])
        F = factor_directed(P, shadow_fact(P))
        assert F.k == 3 and F.merges == 0
        assert reconstruct_check(P, F)

    def test_mixed_direction_square_merges(self):
        # shadow is C4 (splits), but one factor arc is one-way while the
        # opposite copy runs both ways: direction scan must merge
        G = DiGraph(4, {(0, 2), (2, 0), (1, 3), (0, 1), (2, 3)}, set())
        F = factor_directed(G, shadow_fact(G))
        assert F.k == 1
        assert F.merges == 1

    def test_determinism(self):
        A = DiGraph(3, {(0, 1), (1, 2), (2, 0)}, set())
        B = DiGraph(2, {(0, 1), (1, 0)}, set())
        P, _ = cartesian_product([A, B])
        SF = shadow_fact(P)
        F1 = factor_directed(P, SF)
        F2 = factor_directed(P, SF)
        assert F1.factors == F2.factors
        assert F1.coordin.coords == F2.coordin.coords
        assert F1.merges == F2.merges


class TestScanProperties:
    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_fixpoint_and_soundness_on_products(self, data):
        A = data.draw(connected_digraphs(min_n=2, max_n=4, allow_loops=False))
        B = data.draw(connected_digraphs(min_n=2, max_n=4, allow_loops=False))
        P, _ = cartesian_product([A, B])
        SF = shadow_fact(P)
        F = factor_directed(P, SF)
        assert count_inconsistencies(P, SF, F.partition.table) == 0
        assert len(F.factors) <= len(SF.factors)
        assert reconstruct_check(P, F)

    @settings(deadline=None, max_examples=40)
    @given(connected_digraphs(min_n=2, max_n=6, allow_loops=False))
    def test_fixpoint_on_arbitrary_graphs(self, G):
        SF = shadow_fact(G)
        F = factor_directed(G, SF)
        assert count_inconsistencies(G, SF, F.partition.table) == 0
        assert reconstruct_check(G, F)

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_level_one_edges_project_to_themselves(self, data):
        # a level-1 vertex differs from the root in exactly one coordinate,
        # so the scan can never be forced to merge there
        A = data.draw(connected_digraphs(min_n=2, max_n=4, allow_loops=False))
        B = data.draw(connected_digraphs(min_n=2, max_n=4, allow_loops=False))
        P, _ = cartesian_product([A, B])
        SF = shadow_fact(P)
        B_ = bfs(shadow(P), SF.root)
        rc = SF.coordin.coords[SF.root]
        k = len(SF.factors)
        for v in range(P.n):
            if B_.level[v] != 1:
                continue
            cv = SF.coordin.coords[v]
            assert sum(cv[j] != rc[j] for j in range(k)) == 1

    @settings(deadline=None, max_examples=30)
    @given(connected_digraphs(min_n=2, max_n=6, allow_loops=False))
    def test_identity_assignment_counts_honestly(self, G):
        SF = shadow_fact(G)
        F = factor_directed(G, SF)
        bad = count_inconsistencies(G, SF, list(range(len(SF.factors))))
        # the identity assignment has inconsistencies iff the scan merged
        assert (bad > 0) == (F.merges > 0)

    def test_every_grouping_of_a_products_colors_is_a_fixpoint(self):
        # a class of several colors projects edges of different colors, with
        # different arcs, from one projection vertex; the cached arcs of one
        # projection edge must not stand in for another's
        rng = random.Random(8)
        P, _ = cartesian_product([DiGraph(2, {(0, 1)}), both_k2(), DiGraph(3, {(1, 0), (1, 2)})])
        perm = list(range(P.n))
        rng.shuffle(perm)
        G = relabel(P, perm)
        SF = factor_shadow(shadow(G), perm[3])
        assert len(SF.factors) == 3
        for assignment in ([0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [0, 1, 2]):
            assert count_inconsistencies(G, SF, assignment) == 0


class TestInputValidation:
    def test_loops_rejected(self):
        G = DiGraph(2, {(0, 1), (1, 0)}, {1})
        from boxfactor import strip_loops

        SF = shadow_fact(strip_loops(G))
        with pytest.raises(ValueError, match="strip loops"):
            factor_directed(G, SF)

    def test_size_mismatch(self):
        G3 = DiGraph(3, {(0, 1), (1, 2), (1, 0), (2, 1)}, set())
        G4 = consistent_square()
        with pytest.raises(ValueError, match="size"):
            factor_directed(G4, shadow_fact(G3))

    def test_edge_count_mismatch(self):
        path = DiGraph(4, {(0, 1), (1, 2), (2, 3)}, set())
        with pytest.raises(ValueError, match="edges"):
            factor_directed(path, shadow_fact(consistent_square()))

    def test_edge_membership_mismatch(self):
        other = DiGraph(4, {(0, 1), (1, 2), (0, 2), (1, 3)}, set())
        with pytest.raises(ValueError):
            factor_directed(other, shadow_fact(consistent_square()))

    def test_bfs_root_mismatch(self):
        G = consistent_square()
        B = bfs(shadow(G), 1)
        with pytest.raises(ValueError, match="root"):
            factor_directed(G, shadow_fact(G, 0), B)

    def test_colored_edges_keyed_either_way(self):
        # keying one edge (max, min) must not turn its arcs around
        G = consistent_square()
        SF = shadow_fact(G)
        colors = dict(SF.colors)
        colors[(1, 0)] = colors.pop((0, 1))
        F = factor_directed(G, dataclasses.replace(SF, colors=colors))
        R = factor_directed(G, SF)
        assert F.merges == R.merges == 0
        assert F.factors == R.factors and F.coordin.coords == R.coordin.coords
        # keyed both ways, in place of an edge with as many arcs, it is refused
        colors[(0, 1)] = colors.pop((2, 3))
        with pytest.raises(ValueError, match="edges"):
            factor_directed(G, dataclasses.replace(SF, colors=colors))

    def test_assignment_length_checked(self):
        G = consistent_square()
        SF = shadow_fact(G)
        with pytest.raises(ValueError):
            count_inconsistencies(G, SF, [0])


class TestAgainstNaiveScans:
    """The O(1)-per-edge direction scan and the column-based loop scan agree
    with the reference scans, which project both ends of every edge from
    their coordinates: same classes, merge counts, factors and coordinates."""

    DCYCLE4 = DiGraph(4, {(0, 1), (1, 3), (3, 2), (2, 0)}, set())
    LOOPED_SQUARE = DiGraph(
        4, {a for u, v in ((0, 1), (1, 3), (3, 2), (2, 0)) for a in ((u, v), (v, u))}, {3}
    )
    LOOPED_K2 = DiGraph(2, {(0, 1), (1, 0)}, {1})

    @staticmethod
    def same(F, R):
        assert F.partition.classes() == R.partition.classes()
        assert F.merges == R.merges
        assert F.factors == R.factors
        assert F.coordin.coords == R.coordin.coords

    def seeded_runs(self):
        """(G, root, B): 150 seeded scrambled products of small primes,
        each from up to two unlooped roots."""
        rng = random.Random(4)
        for t in range(150):
            pool = [self.DCYCLE4, self.LOOPED_SQUARE, self.LOOPED_K2, both_k2()]
            pool += [gen_product_instance(1, (2, 4), 0.4, 1000 * t + j)[1][0] for j in range(2)]
            factors = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
            P, _ = cartesian_product(factors)
            perm = list(range(P.n))
            rng.shuffle(perm)
            G = relabel(P, perm)
            unlooped = [v for v in range(G.n) if v not in G.loops]
            for root in rng.sample(unlooped, min(2, len(unlooped))):
                yield G, root, bfs(shadow(G), root)

    def test_seeded_products(self):
        merged = {"directed": 0, "loops": 0}
        for G, root, B in self.seeded_runs():
            SF = factor_shadow(shadow(G), root)
            N = strip_loops(G)
            NF = factor_directed(N, SF, B)
            self.same(NF, naive_factor_directed(N, SF, B))
            merged["directed"] += NF.merges
            if G.loops:
                F = factor_with_loops(G, NF, B)
                self.same(F, naive_factor_with_loops(G, NF, B))
                merged["loops"] += F.merges
        # both scans were made to merge, not only to agree on fixpoints
        assert merged["directed"] > 50 and merged["loops"] > 50

    def test_factor_full_matches_the_two_public_scans(self):
        # factor_full runs both scans on the shadow's coordinates and
        # regroups once; the public passes regroup after each scan
        merged = {"directed": 0, "loops": 0}
        for G, root, B in self.seeded_runs():
            F = factor_full(G, root)
            SF = factor_shadow(shadow(G), root)
            NF = factor_directed(strip_loops(G), SF, B)
            R = factor_with_loops(G, NF, B) if G.loops else NF
            assert F.factors == R.factors
            assert F.coordin.coords == R.coordin.coords
            assert F.merges == R.merges
            merges = [m for _, _, m in F.stages]
            assert merges == [0, 0, NF.merges] + ([R.merges] if G.loops else [])
            # F groups the shadow colors; a loop pass groups NF's classes
            classes = NF.partition.classes()
            if G.loops:
                classes = [
                    tuple(sorted(c for j in cls for c in classes[j]))
                    for cls in R.partition.classes()
                ]
                merged["loops"] += R.merges
            assert F.partition.classes() == classes
            merged["directed"] += NF.merges
        assert merged["directed"] > 50 and merged["loops"] > 50

    def test_edge_changing_another_coordinate_raises(self):
        # swap the two colors: every edge then changes the other color's
        # coordinate, which the scan must not project through
        G = consistent_square()
        SF = shadow_fact(G)
        SF = dataclasses.replace(SF, colors={e: 1 - c for e, c in SF.colors.items()})
        with pytest.raises(ValueError, match="changes other coordinates"):
            factor_directed(G, SF)
        with pytest.raises(ValueError, match="changes other coordinates"):
            count_inconsistencies(G, SF, [0, 1])

    def test_two_digit_change_with_a_one_digit_step_raises(self):
        # over K2 x K2 with each vertex at its code, every edge's code
        # difference is a step of its color, but edge (1, 2) goes from
        # (0, 1) to (1, 0): both coordinates change, and the code by +1
        K2 = DiGraph(2, {(0, 1), (1, 0)}, set())
        colors = {(0, 1): 1, (0, 2): 0, (1, 2): 1, (1, 3): 0, (2, 3): 1}
        G = DiGraph(4, colors, set())
        layer = shadow(K2)
        coordin = Coordinatization((K2, K2), [(0, 0), (0, 1), (1, 0), (1, 1)], 0)
        SF = ShadowFactorization(0, colors, (layer, layer), coordin)
        with pytest.raises(ValueError, match="changes other coordinates"):
            factor_directed(G, SF)


class TestFactorOrder:
    """Factors come out by their smallest shadow colour, whichever class id
    survived the merges: oriented 3-cubes times an oriented 3-vertex path or
    triangle, in random factor order, scrambled and rooted at random."""

    Q3 = [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b]
    SMALL = ([(0, 1), (1, 2)], [(0, 1), (1, 2), (0, 2)])

    @staticmethod
    def orient(rng, edges, n):
        # forward, back or both ways, 0.4 / 0.4 / 0.2
        arcs = set()
        for u, v in edges:
            r = rng.random()
            if r < 0.4:
                arcs.add((u, v))
            elif r < 0.8:
                arcs.add((v, u))
            else:
                arcs |= {(u, v), (v, u)}
        return DiGraph(n, arcs, set())

    def instance(self, seed):
        rng = random.Random(seed)
        factors = [self.orient(rng, self.Q3, 8), self.orient(rng, rng.choice(self.SMALL), 3)]
        rng.shuffle(factors)
        P, _ = cartesian_product(factors)
        perm = list(range(P.n))
        rng.shuffle(perm)
        G = relabel(P, perm)
        return G, rng.randrange(G.n)

    def test_classes_by_smallest_colour(self):
        # the class ids sort differently from the members in seeds 154, 441
        # and 796, where the merged class's id is not its smallest colour
        by_id = []
        for seed in range(800):
            G, root = self.instance(seed)
            F = factor_full(G, root)
            P = F.partition
            assert P.classes() == sorted(P.classes())
            if [tuple(sorted(P.members(i))) for i in live_ids(P)] != P.classes():
                by_id.append(seed)
            B = bfs(shadow(G), root)
            NF = factor_directed(G, factor_shadow(shadow(G), root), B)
            assert F.factors == NF.factors
            assert F.coordin.coords == NF.coordin.coords
        assert by_id == [154, 441, 796]

    def test_merged_class_with_larger_id_comes_first(self):
        G, root = self.instance(154)
        assert (root, len(G.arcs)) == (18, 74)
        F = factor_full(G, root)
        assert F.partition.classes() == [(0, 2, 3), (1,)]
        assert [Fi.n for Fi in F.factors] == [8, 3]
        R = factor_with_loops(G, factor_directed(G, factor_shadow(shadow(G), root)))
        assert R.factors == F.factors
        assert R.coordin.coords == F.coordin.coords
