import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxfactor import (
    Coordinatization,
    DiGraph,
    FactorizationError,
    cartesian_product,
    group_coordinates,
    product_graph,
    shadow,
    to_text,
    unit_layer,
)
from boxfactor.core import bfs
from boxfactor.product import product_text, regroup_columns
from helpers import (
    both_k2,
    both_ways,
    connected_digraphs,
    dist,
    naive_cartesian_product,
    naive_group_coordinates,
    product_square,
    project,
    project_vertex,
    random_digraph,
    random_labeled_product,
    relabel,
    vertex_of,
)


def arc01():
    return DiGraph(2, {(0, 1)}, set())


class TestCartesianProduct:
    def test_two_single_arcs(self):
        P, C = cartesian_product([arc01(), arc01()])
        assert P.n == 4
        # row-major: 0=(0,0) 1=(0,1) 2=(1,0) 3=(1,1)
        assert P.arcs == frozenset({(0, 2), (1, 3), (0, 1), (2, 3)})
        assert not P.loops
        assert C.coords == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_looped_k1_times_arc(self):
        k1loop = DiGraph(1, set(), {0})
        P, C = cartesian_product([k1loop, arc01()])
        assert P.n == 2
        assert P.arcs == frozenset({(0, 1)})
        assert P.loops == frozenset({0, 1})

    def test_zero_vertex_factor_rejected(self):
        with pytest.raises(ValueError, match="factors must have at least one vertex"):
            cartesian_product([arc01(), DiGraph(0)])

    def test_q3_edge_count(self):
        P, _ = cartesian_product([both_k2()] * 3)
        S = shadow(P)
        assert S.edge_count == 12
        assert len(P.arcs) == 2 * S.edge_count

    def test_loop_rule(self):
        A = DiGraph(2, {(0, 1)}, {1})
        B = DiGraph(2, {(0, 1)}, {0})
        P, C = cartesian_product([A, B])
        for v in range(P.n):
            a, b = C.coords[v]
            assert (v in P.loops) == (a == 1 or b == 0)

    def test_empty_factor_list_rejected(self):
        with pytest.raises(ValueError):
            cartesian_product([])

    def test_coordinatization_is_bijective(self):
        P, C = cartesian_product([arc01(), both_k2(), arc01()])
        at = vertex_of(C)
        assert len(at) == P.n
        for v in range(P.n):
            assert at[C.coords[v]] == v

    def test_arc_iff_one_coordinate_steps(self):
        A = DiGraph(3, {(0, 1), (1, 2), (2, 0)}, set())
        B = both_k2()
        P, C = cartesian_product([A, B])
        factors = (A, B)
        for u in range(P.n):
            for v in range(P.n):
                if u == v:
                    continue
                cu, cv = C.coords[u], C.coords[v]
                diffs = [i for i in range(2) if cu[i] != cv[i]]
                expected = len(diffs) == 1 and (
                    (cu[diffs[0]], cv[diffs[0]]) in factors[diffs[0]].arcs
                )
                assert ((u, v) in P.arcs) == expected


class TestProductGraph:
    def test_matches_naive_reference(self):
        rng = random.Random(20260518)
        for _ in range(300):
            factors, coords, G = random_labeled_product(rng)
            P, grid = naive_cartesian_product(factors)
            P2, C2 = cartesian_product(factors)
            assert (P2.n, P2.arcs, P2.loops) == (P.n, P.arcs, P.loops)
            assert C2.coords == grid
            H = product_graph(Coordinatization(factors, coords, rng.randrange(G.n)))
            assert (H.n, H.arcs, H.loops) == (G.n, G.arcs, G.loops)

    def test_labels_follow_the_coordinates(self):
        # (0->1) x (0->1) with vertex v at the coordinates of 3 - v
        C = Coordinatization([arc01(), arc01()], [(1, 1), (1, 0), (0, 1), (0, 0)], 0)
        H = product_graph(C)
        assert H.arcs == frozenset({(3, 1), (3, 2), (2, 0), (1, 0)})
        assert not H.loops

    def test_not_injective_raises(self):
        C = Coordinatization([arc01(), arc01()], [(0, 0), (0, 1), (1, 0), (0, 1)], 0)
        with pytest.raises(FactorizationError, match="not injective"):
            product_graph(C)

    def test_no_factors_is_the_unit(self):
        H = product_graph(Coordinatization((), ((),), 0))
        assert (H.n, H.arcs, H.loops) == (1, frozenset(), frozenset())


def scrambled_layout(rng: random.Random) -> Coordinatization:
    """1-4 random factors of 1-5 vertices, some arc-less and some with every
    vertex looped, laid out by a random bijection onto their grid."""
    factors = []
    for _ in range(rng.randint(1, 4)):
        n = rng.randint(1, 5)
        kind = rng.randrange(4)
        if kind == 0:  # no arcs, any loops
            F = DiGraph(n, (), rng.sample(range(n), rng.randint(0, n)))
        elif kind == 1:  # every vertex looped
            F = random_digraph(rng, n, extra_prob=0.3, loop_prob=1.0, keep_unlooped=False)
        else:
            F = random_digraph(rng, n, extra_prob=0.3, loop_prob=0.3)
        factors.append(F)
    grid = list(itertools.product(*(range(F.n) for F in factors)))
    rng.shuffle(grid)
    return Coordinatization(factors, grid, rng.randrange(len(grid)))


class TestProductText:
    """product_text writes the bytes of to_text(product_graph(C)) without
    building the product's arcs."""

    def test_matches_to_text_on_scrambled_products(self):
        rng = random.Random(20261019)
        seen = set()
        for _ in range(600):
            C = scrambled_layout(rng)
            for F in C.factors:
                seen.add("one-vertex" if F.n == 1 else "arc-less" if not F.arcs else "arcs")
                if F.n > 1 and len(F.loops) == F.n:
                    seen.add("all-looped")
            assert product_text(C) == to_text(product_graph(C))
        assert seen == {"one-vertex", "arc-less", "arcs", "all-looped"}

    def test_matches_on_cartesian_product_layouts(self):
        rng = random.Random(7)
        for _ in range(200):
            C0 = scrambled_layout(rng)
            P, C = cartesian_product(C0.factors)
            assert product_text(C) == to_text(P)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_property_small_factors_any_labels(self, data):
        factors = data.draw(st.lists(connected_digraphs(max_n=4), min_size=1, max_size=3))
        grid = list(itertools.product(*(range(F.n) for F in factors)))
        coords = data.draw(st.permutations(grid))
        C = Coordinatization(factors, coords, 0)
        assert product_text(C) == to_text(product_graph(C))

    def test_not_injective_raises(self):
        C = Coordinatization([arc01(), arc01()], [(0, 0), (0, 1), (1, 0), (0, 1)], 0)
        with pytest.raises(FactorizationError, match="not injective"):
            product_text(C)

    def test_no_factors_is_the_unit(self):
        assert product_text(Coordinatization((), ((),), 0)) == "n 1\n"


class TestCoordinatization:
    def test_grid_size_must_match(self):
        with pytest.raises(FactorizationError):
            Coordinatization((arc01(),), ((0,),), 0)

    def test_out_of_range_coordinate(self):
        with pytest.raises(FactorizationError):
            Coordinatization((arc01(),), ((0,), (7,)), 0)

    def test_non_injective_rejected(self):
        C = Coordinatization((arc01(),), ((0,), (0,)), 0)
        with pytest.raises(FactorizationError):
            C.vertex_at
        with pytest.raises(FactorizationError):
            vertex_of(C)

    def test_non_injective_rejected_by_codes(self):
        # the grid size matches, but (0, 0) is used twice and (0, 1) never
        P, _ = cartesian_product([arc01(), arc01()])
        C = Coordinatization(
            (arc01(), arc01()), ((0, 0), (0, 0), (1, 0), (1, 1)), 0
        )
        with pytest.raises(FactorizationError, match="not injective"):
            C.vertex_at
        with pytest.raises(FactorizationError, match="not injective"):
            group_coordinates(P, C, [(0,), (1,)])

    def test_codes_are_row_major(self):
        P, C = cartesian_product([arc01(), both_k2(), DiGraph(3, {(0, 1), (1, 2)})])
        assert C.strides == (6, 3, 1)
        assert C.codes == tuple(range(P.n))
        assert C.vertex_at == list(range(P.n))

    def test_project_matches_coordinate_projection(self):
        _, C = cartesian_product([arc01(), both_k2(), DiGraph(3, {(0, 1), (1, 2)})])
        perm = [(5 * v + 3) % 12 for v in range(12)]
        coords = [None] * 12
        for v, cv in enumerate(C.coords):
            coords[perm[v]] = cv
        D = Coordinatization(C.factors, coords, 7)
        rc = D.coords[7]
        at = vertex_of(D)
        for v in range(12):
            assert D.vertex_at[D.codes[v]] == v
            for keep in ((), (0,), (2,), (0, 2), (1, 0), (0, 1, 2)):
                expect = at[project_vertex(D.coords[v], keep, rc)]
                assert project(D, v, keep) == expect
                assert D.vertex_at[D.projection_codes(keep)[D.codes[v]]] == expect

    @pytest.mark.parametrize("position", [-1, 2])
    def test_projection_position_out_of_range_raises(self, position):
        # -1 must not keep nothing
        path = DiGraph(3, {(0, 1), (1, 0), (1, 2), (2, 1)}, set())
        _, C = cartesian_product([both_k2(), path])
        assert C.k == 2
        with pytest.raises(ValueError, match=f"position {position} out of range"):
            C.projection_codes([position])


class TestCodesFirst:
    """`Coordinatization._of_codes` holds the codes and derives `coords` on
    first use; it equals the tuple-built labeling in every view."""

    def test_codes_built_equals_coords_built(self):
        rng = random.Random(20261019)
        for _ in range(200):
            A = scrambled_layout(rng)
            B = Coordinatization._of_codes(A.factors, list(A.codes), A.root)
            assert "coords" not in vars(B)
            for keep in itertools.chain.from_iterable(
                itertools.combinations(range(A.k), r) for r in range(A.k + 1)
            ):  # from the digits of the codes
                assert B.projection_codes(keep) == A.projection_codes(keep)
            assert "coords" not in vars(B)
            assert B == A and hash(B) == hash(A)
            assert B.codes == A.codes
            assert B.coords == A.coords
            assert B.vertex_at == A.vertex_at
            assert B.strides == A.strides
            assert product_text(B) == product_text(A)
            other = Coordinatization._of_codes(A.factors, A.codes, (A.root + 1) % len(A.codes))
            assert (other == A) == (len(A.codes) == 1)

    def test_row_major_codes(self):
        factors = [arc01(), both_k2(), DiGraph(3, {(0, 1), (1, 2)})]
        _, C = cartesian_product(factors)
        assert vars(C)["codes"] == tuple(range(12))
        assert C == Coordinatization(factors, itertools.product(range(2), range(2), range(3)), 0)

    def test_regroup_holds_codes(self):
        rng = random.Random(11)
        for _ in range(100):
            factors, coords, G = random_labeled_product(rng)
            C = Coordinatization(factors, coords, rng.randrange(G.n))
            order = list(range(C.k))
            rng.shuffle(order)
            cuts = sorted(rng.sample(range(1, C.k), rng.randint(0, C.k - 1))) if C.k > 1 else []
            blocks = [order[a:b] for a, b in zip([0, *cuts], [*cuts, C.k])]
            R = group_coordinates(G, C, blocks)
            assert "coords" not in vars(R)
            want = naive_group_coordinates(G, C, blocks)
            assert R == want
            assert (R.coords, R.factors) == (want.coords, want.factors)

    def test_checks_match_the_constructor(self):
        with pytest.raises(FactorizationError, match="grid size 2 does not match vertex count 1"):
            Coordinatization._of_codes((arc01(),), [0], 0)
        with pytest.raises(ValueError, match="root 2 out of range"):
            Coordinatization._of_codes((arc01(),), [0, 1], 2)
        C = Coordinatization._of_codes((arc01(), arc01()), [0, 1, 3, 1], 0)
        with pytest.raises(FactorizationError, match="not injective"):
            C.vertex_at
        assert C.coords == ((0, 0), (0, 1), (1, 1), (0, 1))

    def test_immutable(self):
        _, C = cartesian_product([arc01()])
        with pytest.raises(AttributeError):
            C.root = 1


@st.composite
def scrambled_products(draw):
    """(G, C): the product of 1-4 connected factors of 1-4 vertices, one-
    vertex factors and loops included, laid out by a random bijection onto
    its grid, with a random root."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    factors = [random_digraph(rng, s, extra_prob=0.3, loop_prob=0.3) for s in sizes]
    P, grid = naive_cartesian_product(factors)
    perm = draw(st.permutations(range(P.n)))
    coords = [()] * P.n
    for v, cv in enumerate(grid):
        coords[perm[v]] = cv
    return relabel(P, perm), Coordinatization(factors, coords, draw(st.integers(0, P.n - 1)))


def regroup_by_bfs(G, C, blocks):
    """`regroup_columns` as the merge stage calls it: the merged blocks'
    projection tables, and the BFS edges of G's shadow from C.root."""
    B = bfs(shadow(G), C.root)
    cols = (C.projection_codes(b) for b in blocks if len(b) > 1)
    return regroup_columns(G, C, blocks, cols, B.down, B.cross)


class TestProjectionTables:
    """Projection tables are indexed by code and built by repetition; the
    regrouping spreads the grid position by position."""

    @settings(deadline=None, max_examples=80)
    @given(scrambled_products())
    def test_table_by_code_is_the_projection(self, case):
        _, C = case
        for keep in itertools.chain.from_iterable(
            itertools.combinations(range(C.k), r) for r in range(C.k + 1)
        ):
            table = C.projection_codes(keep)
            assert len(table) == len(C.codes)
            for v in range(len(C.codes)):
                assert C.vertex_at[table[C.codes[v]]] == project(C, v, keep)

    @settings(deadline=None, max_examples=80)
    @given(scrambled_products(), st.data())
    def test_regroup_matches_naive(self, case, data):
        G, C = case
        labels = data.draw(st.lists(st.integers(0, C.k - 1), min_size=C.k, max_size=C.k))
        blocks = [tuple(j for j in range(C.k) if labels[j] == lab) for lab in set(labels)]
        blocks = data.draw(st.permutations(blocks))
        assert regroup_by_bfs(G, C, blocks) == naive_group_coordinates(G, C, blocks)

    @pytest.mark.parametrize(
        "blocks",
        [
            [(0, 3), (1,), (2,)],  # spans the first and last positions
            [(2,), (3, 0, 1)],
            [(1, 3), (2, 0)],  # neither merged block is contiguous
            [(1,), (0, 2), (3,)],
            [(3,), (2,), (1,), (0,)],
            [(0, 1, 2, 3)],
        ],
    )
    def test_regroup_fixed_partitions(self, blocks):
        rng = random.Random(22)
        for _ in range(20):
            factors = [random_digraph(rng, rng.randint(1, 3), 0.3, 0.3) for _ in range(4)]
            P, grid = naive_cartesian_product(factors)
            perm = list(range(P.n))
            rng.shuffle(perm)
            coords = [()] * P.n
            for v, cv in enumerate(grid):
                coords[perm[v]] = cv
            G = relabel(P, perm)
            C = Coordinatization(factors, coords, rng.randrange(P.n))
            R = regroup_by_bfs(G, C, blocks)
            want = naive_group_coordinates(G, C, blocks)
            assert R == want and R.coords == want.coords
            assert R == group_coordinates(G, C, blocks)


class TestProjectVertex:
    def test_identity_at_root(self):
        assert project_vertex((0, 0), {1}, (0, 0)) == (0, 0)

    def test_keep_one(self):
        assert project_vertex((1, 1), {0}, (0, 0)) == (1, 0)

    def test_cube_distance(self):
        P, C = cartesian_product([both_k2()] * 3)
        at = vertex_of(C)
        v = at[(1, 1, 1)]
        p = project_vertex((1, 1, 1), {1}, (0, 0, 0))
        assert p == (0, 1, 0)
        S = shadow(P)
        assert dist(S, v, at[p]) == 2

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            project_vertex((0,), {3}, (0,))


class TestUnitLayer:
    def test_all_positions_is_whole_graph(self):
        A = DiGraph(3, {(0, 1), (1, 2)}, {2})
        B = both_k2()
        P, C = cartesian_product([A, B])
        layer, hosts = unit_layer(P, C, {0, 1})
        assert layer == P
        assert hosts == tuple(range(P.n))

    def test_single_position(self):
        P, C = cartesian_product([arc01(), arc01()])
        layer, hosts = unit_layer(P, C, {0})
        assert hosts == (0, 2)
        assert layer == DiGraph(2, {(0, 1)}, set())

    def test_layer_keeps_loops(self):
        A = DiGraph(2, {(0, 1), (1, 0)}, {1})
        B = both_k2()
        P, C = cartesian_product([A, B])
        layer, hosts = unit_layer(P, C, {0})
        assert layer.loops == frozenset({1})

    def test_off_root_layer(self):
        P, C = cartesian_product([arc01(), arc01()])
        layer, hosts = unit_layer(P, C, {0}, root=vertex_of(C)[(0, 1)])
        assert hosts == (1, 3)

    @pytest.mark.parametrize("position", [-1, 2])
    def test_position_out_of_range_raises(self, position):
        P, C = cartesian_product([arc01(), arc01()])
        with pytest.raises(ValueError, match=f"position {position} out of range"):
            unit_layer(P, C, {0, position})

    @pytest.mark.parametrize("root", [-1, 6])
    def test_root_out_of_range_raises(self, root):
        # -1 must not answer for the last vertex
        path = DiGraph(3, {(0, 1), (1, 0), (1, 2), (2, 1)}, set())
        P, C = cartesian_product([path, both_k2()])
        assert P.n == 6
        with pytest.raises(ValueError, match=f"root {root} out of range"):
            unit_layer(P, C, [0], root=root)


class TestProductSquare:
    def test_k2_square(self):
        P, C = cartesian_product([both_k2(), both_k2()])
        S = shadow(P)
        colors = {}
        for u, v in S.ends:
            cu, cv = C.coords[u], C.coords[v]
            colors[(u, v)] = 0 if cu[0] != cv[0] else 1
        at = vertex_of(C)
        v = at[(0, 0)]
        u = at[(1, 0)]
        w = at[(0, 1)]
        assert product_square(S, colors, v, u, w) == at[(1, 1)]

    def test_cube_square(self):
        P, C = cartesian_product([both_k2()] * 3)
        S = shadow(P)
        colors = {}
        for u, v in S.ends:
            cu, cv = C.coords[u], C.coords[v]
            colors[(u, v)] = next(i for i in range(3) if cu[i] != cv[i])
        at = vertex_of(C)
        v = at[(0, 0, 0)]
        u = at[(1, 0, 0)]
        w = at[(0, 1, 0)]
        assert product_square(S, colors, v, u, w) == at[(1, 1, 0)]

    def test_no_square_raises(self):
        # a path has no square at all
        G = DiGraph(3, {(0, 1), (1, 0), (1, 2), (2, 1)}, set())
        S = shadow(G)
        colors = {(0, 1): 0, (1, 2): 1}
        with pytest.raises(FactorizationError):
            product_square(S, colors, 1, 0, 2)

    def test_two_squares_raise(self):
        # K(2,3)-style double square: 0 joined to u=1, w=2; both 3 and 4
        # complete a chordless square
        arcs = set()
        for a, b in ((0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)):
            arcs.add((a, b))
            arcs.add((b, a))
        S = shadow(DiGraph(5, arcs, set()))
        colors = {(0, 1): 0, (0, 2): 1, (1, 3): 1, (1, 4): 1, (2, 3): 0, (2, 4): 0}
        with pytest.raises(FactorizationError, match="2 square"):
            product_square(S, colors, 0, 1, 2)

    def test_same_color_rejected(self):
        P, C = cartesian_product([both_k2(), both_k2()])
        S = shadow(P)
        colors = {e: 0 for e in S.ends}
        with pytest.raises(ValueError):
            product_square(S, colors, 0, 1, 2)


class TestGroupCoordinates:
    def test_single_block_gives_whole_graph(self):
        A = DiGraph(2, {(0, 1)}, {1})
        B = both_k2()
        P, C = cartesian_product([A, B])
        C2 = group_coordinates(P, C, [(0, 1)])
        assert len(C2.factors) == 1
        assert C2.factors[0] == P
        assert C2.coords == tuple((v,) for v in range(P.n))

    def test_empty_block_rejected(self):
        P, C = cartesian_product([arc01(), both_k2()])
        with pytest.raises(ValueError, match="empty block"):
            group_coordinates(P, C, [(0, 1), ()])

    def test_singleton_blocks_reproduce(self):
        A = DiGraph(3, {(0, 1), (1, 2)}, set())
        B = both_k2()
        P, C = cartesian_product([A, B])
        C2 = group_coordinates(P, C, [(0,), (1,)])
        assert C2.coords == C.coords
        assert C2.factors[0] == A and C2.factors[1] == B

    def test_grouping_three_factors(self):
        fs = [arc01(), both_k2(), arc01()]
        P, C = cartesian_product(fs)
        C2 = group_coordinates(P, C, [(0, 1), (2,)])
        assert len(C2.factors) == 2
        assert C2.factors[0].n == 4 and C2.factors[1].n == 2
        # the grouped factor is the product of the grouped positions
        Q, _ = cartesian_product(fs[:2])
        assert C2.factors[0] == Q

    def test_matches_naive_reference(self):
        # scrambled products with loops, stray arcs and loops off the product,
        # a random root, and partitions with non-contiguous blocks
        rng = random.Random(20261018)
        cases = 0
        for _ in range(120):
            fs = [
                random_digraph(rng, rng.randint(1, 4), 0.2, 0.3, keep_unlooped=False)
                for _ in range(rng.randint(1, 4))
            ]
            P, C = cartesian_product(fs)
            perm = list(range(P.n))
            rng.shuffle(perm)
            arcs = {(perm[a], perm[b]) for a, b in P.arcs}
            loops = {perm[v] for v in P.loops}
            for _ in range(rng.randint(0, 3)):
                a, b = rng.randrange(P.n), rng.randrange(P.n)
                if a != b:
                    arcs.add((a, b))
                loops.add(a)
            G = DiGraph(P.n, arcs, loops)
            coords = [None] * P.n
            for v, cv in enumerate(C.coords):
                coords[perm[v]] = cv
            D = Coordinatization(C.factors, coords, rng.randrange(P.n))
            k = D.k
            positions = list(range(k))
            rng.shuffle(positions)
            labels = [rng.randrange(k) for _ in range(k)]
            random_blocks = [
                [j for j in positions if labels[j] == lab] for lab in sorted(set(labels))
            ]
            for blocks in (random_blocks, [positions], [[j] for j in positions]):
                fast = group_coordinates(G, D, blocks)
                slow = naive_group_coordinates(G, D, blocks)
                assert fast.factors == slow.factors
                assert fast.coords == slow.coords
                assert fast.root == slow.root
                cases += 1
        assert cases == 360

    def test_partition_must_cover(self):
        P, C = cartesian_product([arc01(), arc01()])
        with pytest.raises(ValueError):
            group_coordinates(P, C, [(0,)])
        with pytest.raises(ValueError):
            group_coordinates(P, C, [(0, 1), (1,)])


class TestAlgebraicLaws:
    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_associativity_fixed_split(self, data):
        fs = [
            data.draw(connected_digraphs(min_n=2, max_n=3)) for _ in range(3)
        ]
        flat, Cf = cartesian_product(fs)
        left, Cl = cartesian_product(fs[:2])
        grouped, Cg = cartesian_product([left, fs[2]])
        # natural bijection: grid coords agree after flattening
        at = vertex_of(Cf)
        m = {}
        for v in range(grouped.n):
            (ab, c) = Cg.coords[v]
            a, b = Cl.coords[ab]
            m[v] = at[(a, b, c)]
        assert {(m[u], m[v]) for (u, v) in grouped.arcs} == set(flat.arcs)
        assert {m[v] for v in grouped.loops} == set(flat.loops)

    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_commutativity(self, data):
        fs = [data.draw(connected_digraphs(min_n=2, max_n=3)) for _ in range(3)]
        perm = data.draw(st.permutations(range(3)))
        P1, C1 = cartesian_product(fs)
        P2, C2 = cartesian_product([fs[i] for i in perm])
        at = vertex_of(C1)
        m = {}
        for v in range(P2.n):
            cv = C2.coords[v]
            orig = [0, 0, 0]
            for pos, i in enumerate(perm):
                orig[i] = cv[pos]
            m[v] = at[tuple(orig)]
        assert {(m[u], m[v]) for (u, v) in P2.arcs} == set(P1.arcs)
        assert {m[v] for v in P2.loops} == set(P1.loops)

    @settings(deadline=None, max_examples=30)
    @given(connected_digraphs(min_n=2, max_n=4), connected_digraphs(min_n=2, max_n=4))
    def test_shadow_of_product_is_product_of_shadows(self, A, B):
        P, _ = cartesian_product([A, B])
        Q, _ = cartesian_product([both_ways(shadow(A)), both_ways(shadow(B))])
        assert shadow(P) == shadow(Q)

    def test_product_with_disconnected_factor_is_disconnected(self):
        from boxfactor import is_connected

        D = DiGraph(2, set(), set())  # two isolated vertices
        P, _ = cartesian_product([D, both_k2()])
        assert not is_connected(shadow(P))
