import functools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings

from boxfactor import (
    DiGraph,
    FactorizationError,
    ShadowGraph,
    canonical_small_graphs,
    cartesian_product,
    coordinates_from_colors,
    factor_shadow,
    gen_product_instance,
    shadow,
)
from boxfactor import shadow_factor
from boxfactor.cli import _bench_instance
from boxfactor.core import bfs
from helpers import (
    both_k2,
    both_ways,
    connected_digraphs,
    min_degree,
    mobius_ladder,
    naive_coordinates_from_colors,
    naive_factor_shadow,
    naive_round_one,
    naive_shadow_classes,
    naive_square_closure,
    random_digraph,
    relabel,
    undirected_cycle,
    undirected_path,
    vertex_of,
)


def edge_key(u, v):
    return (u, v) if u < v else (v, u)


@pytest.fixture
def theta_steps(monkeypatch):
    """The edges whose Theta relations factor_shadow adds, in order."""
    calls = []
    join = shadow_factor._join_theta

    def spy(*args):
        calls.append(args[3])
        return join(*args)

    monkeypatch.setattr(shadow_factor, "_join_theta", spy)
    return calls


@pytest.fixture
def rungs(monkeypatch):
    """How many labelings of the ladder each factor_shadow call checked:
    1 when round 1 was accepted."""
    calls = []
    ladder = shadow_factor._ladder

    def spy(*args):
        calls.append(0)
        for labels in ladder(*args):
            calls[-1] += 1
            yield labels

    monkeypatch.setattr(shadow_factor, "_ladder", spy)
    return calls


def _classes(colors):
    """Partition of the edge set induced by a coloring, for order-free
    comparison of two colorings."""
    inv = {}
    for e, c in colors.items():
        inv.setdefault(c, set()).add(e)
    return {frozenset(s) for s in inv.values()}


class TestFactorShadowExamples:
    def test_k2_is_prime(self):
        F = factor_shadow(shadow(both_k2()), 0)
        assert len(F.factors) == 1
        assert set(F.colors.values()) == {0}

    def test_c4_splits_into_two_edges(self):
        S = shadow(undirected_cycle(4))
        F = factor_shadow(S, 0)
        assert len(F.factors) == 2
        assert all(f.n == 2 and f.edge_count == 1 for f in F.factors)
        # opposite edges share a color
        assert F.colors[(0, 1)] == F.colors[(2, 3)]
        assert F.colors[(0, 3)] == F.colors[(1, 2)]
        assert F.colors[(0, 1)] != F.colors[(0, 3)]

    def test_c5_is_prime(self):
        F = factor_shadow(shadow(undirected_cycle(5)), 0)
        assert len(F.factors) == 1

    def test_c6_is_prime(self):
        # even, but 6 = 2*3 is not a box product of smaller cycles
        F = factor_shadow(shadow(undirected_cycle(6)), 0)
        assert len(F.factors) == 1

    def test_k3_is_prime(self):
        arcs = {(a, b) for a in range(3) for b in range(3) if a != b}
        F = factor_shadow(shadow(DiGraph(3, arcs, set())), 0)
        assert len(F.factors) == 1

    def test_p3_is_prime(self):
        F = factor_shadow(shadow(undirected_path(3)), 0)
        assert len(F.factors) == 1

    def test_k23_is_prime(self):
        arcs = set()
        for a in (0, 1):
            for b in (2, 3, 4):
                arcs.add((a, b))
                arcs.add((b, a))
        F = factor_shadow(shadow(DiGraph(5, arcs, set())), 0)
        assert len(F.factors) == 1

    def test_cube_splits_into_three(self):
        P, C = cartesian_product([both_k2()] * 3)
        F = factor_shadow(shadow(P), 0)
        assert len(F.factors) == 3
        assert all(f.n == 2 for f in F.factors)
        # coordinates agree with the construction grid up to position order
        for v in range(P.n):
            assert sorted(F.coordin.coords[v]) == sorted(C.coords[v])

    def test_prism_splits(self):
        # C3 box K2
        c3 = DiGraph(3, {(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)}, set())
        P, _ = cartesian_product([c3, both_k2()])
        F = factor_shadow(shadow(P), 0)
        assert sorted(f.n for f in F.factors) == [2, 3]

    def test_grid_splits(self):
        P, _ = cartesian_product([undirected_path(3), undirected_path(4)])
        F = factor_shadow(shadow(P), 0)
        assert sorted(f.n for f in F.factors) == [3, 4]

    def test_root_out_of_range(self):
        with pytest.raises(ValueError):
            factor_shadow(shadow(both_k2()), 5)

    def test_disconnected_rejected(self):
        from boxfactor import DisconnectedGraphError

        S = shadow(DiGraph(4, {(0, 1), (1, 0), (2, 3), (3, 2)}, set()))
        with pytest.raises(DisconnectedGraphError):
            factor_shadow(S, 0)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        P, _ = cartesian_product([undirected_path(3), undirected_cycle(4)])
        S = shadow(P)
        F1 = factor_shadow(S, 0)
        F2 = factor_shadow(S, 0)
        assert F1.colors == F2.colors
        assert F1.factors == F2.factors
        assert F1.coordin.coords == F2.coordin.coords

    def test_color_ids_are_contiguous(self):
        P, _ = cartesian_product([undirected_path(3), undirected_path(3)])
        F = factor_shadow(shadow(P), 0)
        assert set(F.colors.values()) == set(range(len(F.factors)))


class TestCoordinatesFromColors:
    def test_non_product_coloring_raises(self):
        # all edges of C4 distinctly colored: color classes are single
        # edges, the unit-layer intersection cannot be a single vertex
        S = shadow(undirected_cycle(4))
        colors = {e: i for i, e in enumerate(sorted(S.edges))}
        with pytest.raises(FactorizationError):
            coordinates_from_colors(S, 0, colors)

    def test_merged_coloring_single_factor(self):
        S = shadow(undirected_cycle(4))
        colors = {e: 0 for e in S.edges}
        factors, C = coordinates_from_colors(S, 0, colors)
        assert C.k == 1
        assert factors[0].n == 4
        assert factors[0] == S

    def test_valid_two_coloring_of_c4(self):
        S = shadow(undirected_cycle(4))
        colors = {(0, 1): 0, (2, 3): 0, (0, 3): 1, (1, 2): 1}
        factors, C = coordinates_from_colors(S, 0, colors)
        assert all(f.n == 2 for f in factors)
        assert C.coords[0] == (0, 0)
        assert len({C.coords[v] for v in range(4)}) == 4

    def test_color_values_must_be_contiguous(self):
        S = shadow(undirected_cycle(4))
        colors = {(0, 1): 0, (2, 3): 0, (0, 3): 2, (1, 2): 2}
        with pytest.raises(ValueError):
            coordinates_from_colors(S, 0, colors)

    def test_prism_missing_top_edge_rejected(self):
        # K3 box K2 minus the top edge (4, 5): every vertex lies on a unique
        # coordinate grid point and every edge steps one coordinate, but the
        # layers multiply to 9 edges and the graph has 8
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (0, 3), (1, 4), (2, 5)]
        S = shadow(DiGraph(6, {a for u, v in edges for a in ((u, v), (v, u))}, set()))
        rungs = {(0, 3), (1, 4), (2, 5)}
        colors = {e: int(e in rungs) for e in S.edges}
        with pytest.raises(FactorizationError, match="9 edges"):
            coordinates_from_colors(S, 0, colors)
        assert len(factor_shadow(S, 0).factors) == 1

    def test_unit_layers_meet_only_at_the_root(self):
        # C4 0-1-2-3-0 colored by halves: both unit layers from 0 reach 2
        S = shadow(undirected_cycle(4))
        colors = {(0, 1): 0, (1, 2): 0, (2, 3): 1, (0, 3): 1}
        with pytest.raises(FactorizationError, match="share vertex 2"):
            coordinates_from_colors(S, 0, colors)
        with pytest.raises(FactorizationError):
            naive_coordinates_from_colors(S, 0, colors)

    def test_colors_must_cover_edges(self):
        S = shadow(undirected_cycle(4))
        with pytest.raises(ValueError):
            coordinates_from_colors(S, 0, {(0, 1): 0})


class TestAgainstNaiveClosure:
    """factor_shadow's classes equal (Theta u tau)* computed from the
    definitions, whether the square closure is accepted or the exact
    fallback runs."""

    @staticmethod
    def _agree(G, roots):
        S = shadow(G)
        want = naive_shadow_classes(S)
        for r in roots:
            assert _classes(factor_shadow(S, r).colors) == want, (G, r)
        return len(want)

    def test_all_small_graphs_every_root(self):
        for n in range(1, 5):
            for G in canonical_small_graphs(n):
                self._agree(G, range(G.n))

    def test_generated_products(self):
        for i in range(60):
            nf = 2 + i % 2
            G, truth = gen_product_instance(nf, (2, 6 if nf == 2 else 3), 0.3, seed=i)
            assert self._agree(G, [0, G.n - 1]) >= len(truth)

    def test_random_connected_graphs(self):
        rng = random.Random(20261018)
        for _ in range(300):
            G = random_digraph(
                rng, rng.randint(5, 14), extra_prob=rng.choice([0.05, 0.1, 0.2, 0.4])
            )
            self._agree(G, [rng.randrange(G.n)])

    def test_moebius_ladders_take_theta_steps(self, theta_steps):
        calls = theta_steps
        for r in range(4, 14):
            M = mobius_ladder(r)
            inputs = [(M, 1)]
            for q in (2, 3):
                if 2 * r * q <= 40:
                    inputs.append((cartesian_product([M, undirected_path(q)])[0], 2))
            for G, k in inputs:
                for root in (0, G.n - 1):
                    calls.clear()
                    assert self._agree(G, [root]) == k
                    # the square closure alone is rejected, so Theta is added
                    assert calls, (G, root)
        # prisms are products: the square closure is accepted at once
        calls.clear()
        for r in range(3, 14):
            P, _ = cartesian_product([undirected_cycle(r), both_k2()])
            assert self._agree(P, [0]) == (2 if r != 4 else 3)
        assert calls == []

    def test_theta_is_added_tree_edges_first(self, theta_steps):
        S = shadow(mobius_ladder(5))
        B = bfs(S, 3)
        factor_shadow(S, 3, B)
        # the first BFS-tree edge in BFS order joins every class at once
        v = B.order[1]
        assert theta_steps == [edge_key(B.down[v][0], v)]


@functools.cache
def _differential_corpus():
    """(graph, roots) pairs: every c1 graph with every root, seeded random
    graphs, generated products with two random roots, Moebius ladders and
    Moebius ladders times P3."""
    rng = random.Random(20261020)
    out = []
    for n in range(1, 5):
        out += [(G, range(G.n)) for G in canonical_small_graphs(n)]
    for _ in range(300):
        G = random_digraph(
            rng, rng.randint(5, 14), extra_prob=rng.choice([0.05, 0.1, 0.2, 0.4])
        )
        out.append((G, [rng.randrange(G.n)]))
    for i in range(300):
        nf = 2 + i % 3
        G, _ = gen_product_instance(nf, (2, 6 if nf == 2 else 4), 0.3, seed=i)
        out.append((G, [rng.randrange(G.n), rng.randrange(G.n)]))
    for r in range(3, 30):
        M = mobius_ladder(r)
        P, _ = cartesian_product([M, undirected_path(3)])
        out += [(M, [0, r]), (P, [0, P.n - 1])]
    return out


def _scrambled(G, seed):
    perm = list(range(G.n))
    random.Random(seed).shuffle(perm)
    return relabel(G, perm), perm


def _scrambled_product(family, size):
    """The scrambled shadow of a bench-family product (or of K_q x K_q,
    q = size), a corner of its coordinate grid and a vertex in its middle,
    and its factor count."""
    if family == "KqxKq":
        arcs = {(a, b) for a in range(size) for b in range(size) if a != b}
        G, C = cartesian_product([DiGraph(size, arcs, set())] * 2)
    else:
        G, C = _bench_instance(family, size, random.Random(size))
    H, perm = _scrambled(G, size)
    at = vertex_of(C)
    corner = at[(0,) * C.k]
    middle = at[tuple(F.n // 2 for F in C.factors)]
    return shadow(H), [perm[corner], perm[middle]], C.k


def _find(parent, a):
    while parent[a] != a:
        a = parent[a]
    return a


def _partition(labels):
    """The classes of a labeling of edge ids, as a set of id sets."""
    classes = {}
    for i, c in enumerate(labels):
        classes.setdefault(c, set()).add(i)
    return {frozenset(c) for c in classes.values()}


def _round_one(S, r):
    """The labels of the first rung of factor_shadow's ladder."""
    return S.ends, next(shadow_factor._ladder(S, bfs(S, r)))


class TestLadder:
    """factor_shadow closes a cheap relation first and climbs to delta* and
    Theta only when the check rejects it; the result is what the all-pairs
    closure plus Theta gives."""

    def test_same_colors_and_coordinates_as_all_pairs_closure(self):
        runs = 0
        for G, roots in _differential_corpus():
            S = shadow(G)
            for r in roots:
                F = factor_shadow(S, r)
                want = naive_factor_shadow(S, r)
                assert F.colors == want.colors, (G, r)
                assert F.factors == want.factors, (G, r)
                assert F.coordin.coords == want.coordin.coords, (G, r)
                runs += 1
        assert runs > 10_000

    def test_round_one_refines_delta_star(self):
        for G, roots in _differential_corpus():
            S = shadow(G)
            if S.n == 1:
                continue
            for r in roots:
                edges, labels = _round_one(S, r)
                delta = naive_square_closure(S, edges)
                # each round-1 class lies inside one delta* class
                inside = {}
                for a, b in zip(labels, delta):
                    assert inside.setdefault(a, b) == b, (G, r)

    @pytest.mark.parametrize(
        "family, size",
        [("grid", 3000), ("cube", 3000), ("randprod", 5000)]
        + [("KqxKq", q) for q in (3, 5, 8, 12)],
    )
    def test_round_one_is_enough_on_products(self, family, size, rungs):
        S, roots, k = _scrambled_product(family, size)
        for r in roots:
            rungs.clear()
            F = factor_shadow(S, r)
            assert rungs == [1], (family, size, r)
            assert len(F.factors) == k

    @pytest.mark.parametrize(
        "family", ["grid", "cube", "randprod", "KqxKq", "moebius", "random", "generated"]
    )
    def test_rungs_match_their_references(self, family):
        # round 1 joins each square at one corner only, delta* at its
        # smallest; the references join it at every corner that tests it
        if family == "KqxKq":
            inputs = [_scrambled_product(family, q)[:2] for q in range(3, 13)]
        elif family == "moebius":
            inputs = [(shadow(mobius_ladder(r)), [0, r]) for r in range(3, 21)]
        elif family == "random":
            rng = random.Random(20261019)
            inputs = []
            for _ in range(200):
                G = random_digraph(
                    rng, rng.randint(5, 14), extra_prob=rng.choice([0.05, 0.1, 0.2, 0.4])
                )
                inputs.append((shadow(G), [0, G.n // 2]))
        elif family == "generated":
            # roots every eighth of the ids: the rule at a smaller corner w
            # decides the partition only from a few roots, such as seed 189
            # from root 3
            inputs = []
            for i in range(300):
                G, _ = gen_product_instance(2 + i % 3, (2, 5), 0.3, seed=i)
                inputs.append((shadow(G), range(0, G.n, max(1, G.n // 8))))
        else:
            inputs = [_scrambled_product(family, 3000 if family != "randprod" else 5000)[:2]]
        for S, roots in inputs:
            parent = list(range(len(S.ends)))
            shadow_factor._close_pairs(S, parent, None)
            delta = [_find(parent, a) for a in range(len(parent))]
            assert _partition(delta) == _partition(naive_square_closure(S, S.ends))
            for r in roots:
                B = bfs(S, r)
                labels = next(shadow_factor._ladder(S, B))
                assert _partition(labels) == _partition(naive_round_one(S, B)), (S, r)

    def test_round_two_after_a_rejected_round_one(self, rungs):
        # found by a seeded search: a 4-cycle 0-1-2-3 with a pendant edge
        # 3-4, rooted at 1; round 1 misses the tau pair (23, 34) and leaves
        # two classes, delta* has one
        S = ShadowGraph(5, [(0, 1), (0, 3), (1, 2), (2, 3), (3, 4)])
        F = factor_shadow(S, 1)
        assert rungs == [2]
        assert F.colors == naive_factor_shadow(S, 1).colors
        assert set(F.colors.values()) == {0}
        # on a generated product, root 0
        G, _ = gen_product_instance(2, (2, 6), 0.3, seed=381)
        rungs.clear()
        F = factor_shadow(shadow(G), 0)
        assert rungs == [2]
        want = naive_factor_shadow(shadow(G), 0)
        assert F.colors == want.colors
        assert F.coordin.coords == want.coordin.coords
        assert len(F.factors) == 2


class TestAgainstNaiveCoordinates:
    """The BFS-order coordinatization gives the same factors and coordinates
    as the per-color component search, or both raise FactorizationError, on
    the square-closure coloring, the final coloring and perturbations of it."""

    @staticmethod
    def _outcome(fn, S, r, colors):
        try:
            factors, C = fn(S, r, colors)
        except FactorizationError:
            return None
        return factors, C.factors, C.coords, C.root

    def _agree(self, G, roots, rng, tally):
        S = shadow(G)
        if S.n == 1:
            return
        edges = sorted(S.edges)
        for r in roots:
            bn = bfs(S, r).bfsnum
            delta = dict(zip(edges, shadow_factor._number_classes(
                edges, naive_square_closure(S, edges), bn
            )))
            final = factor_shadow(S, r).colors
            colorings = [delta, final]
            labels = [final[e] for e in edges]
            k = max(labels) + 1
            e = rng.randrange(len(edges))
            colorings.append(_renumbered(edges, labels[:e] + [k] + labels[e + 1 :]))
            if k > 1:
                other = rng.choice([c for c in range(k) if c != labels[e]])
                colorings.append(_renumbered(edges, labels[:e] + [other] + labels[e + 1 :]))
                merged = [min(c, 1) if c < 2 else c for c in labels]
                colorings.append(_renumbered(edges, merged))
            for colors in colorings:
                want = self._outcome(naive_coordinates_from_colors, S, r, colors)
                got = self._outcome(coordinates_from_colors, S, r, colors)
                assert got == want, (G, r, colors)
                tally[want is None] += 1

    def test_against_naive_coordinates(self):
        rng = random.Random(20261019)
        tally = [0, 0]
        for n in range(1, 5):
            for G in canonical_small_graphs(n):
                self._agree(G, range(G.n), rng, tally)
        for i in range(80):
            nf = 2 + i % 2
            G, _ = gen_product_instance(nf, (2, 6 if nf == 2 else 3), 0.3, seed=i)
            self._agree(G, [0, rng.randrange(G.n)], rng, tally)
        for _ in range(300):
            G = random_digraph(
                rng, rng.randint(5, 14), extra_prob=rng.choice([0.05, 0.1, 0.2, 0.4])
            )
            self._agree(G, [rng.randrange(G.n)], rng, tally)
        for r in range(3, 12):
            M = mobius_ladder(r)
            P, _ = cartesian_product([M, undirected_path(2)])
            for H in (M, P, cartesian_product([undirected_cycle(r), both_k2()])[0]):
                self._agree(H, [0, H.n - 1], rng, tally)
        accepted, rejected = tally
        assert accepted > 1000 and rejected > 1000


def _renumbered(edges, labels):
    """The coloring edges[i] -> labels[i], renumbered to 0..k-1."""
    number = {}
    for c in labels:
        number.setdefault(c, len(number))
    return {e: number[c] for e, c in zip(edges, labels)}


class TestProductRecovery:
    @settings(deadline=None, max_examples=40)
    @given(connected_digraphs(min_n=2, max_n=5), connected_digraphs(min_n=2, max_n=5))
    def test_factor_count_at_least_two_on_products(self, A, B):
        P, _ = cartesian_product([A, B])
        F = factor_shadow(shadow(P), 0)
        assert len(F.factors) >= 2

    @settings(deadline=None, max_examples=40)
    @given(connected_digraphs(min_n=2, max_n=6))
    def test_width_bounded_by_min_degree(self, G):
        S = shadow(G)
        F = factor_shadow(S, 0)
        assert 1 <= len(F.factors) <= max(1, min_degree(S))

    @settings(deadline=None, max_examples=40)
    @given(connected_digraphs(min_n=2, max_n=6))
    def test_factors_rebuild_the_shadow(self, G):
        S = shadow(G)
        F = factor_shadow(S, 0)
        parts = [both_ways(f) for f in F.factors]
        P, C = cartesian_product(parts)
        # map through coordinates and compare edge sets
        at = vertex_of(C)
        m = {v: at[F.coordin.coords[v]] for v in range(S.n)}
        lhs = {edge_key(m[u], m[v]) for (u, v) in S.edges}
        rhs = shadow(P).edges
        assert lhs == rhs


class TestLargeInstance:
    def test_long_grid_takes_no_theta_step(self, monkeypatch):
        # a product is factored by the square closure alone
        def no_theta(*args):
            raise AssertionError("Theta added for a product")

        monkeypatch.setattr(shadow_factor, "_join_theta", no_theta)
        p18 = undirected_path(18)
        P, _ = cartesian_product([p18, p18])
        F = factor_shadow(shadow(P), 0)
        assert sorted(f.n for f in F.factors) == [18, 18]

    def test_large_moebius_ladder_in_bounded_memory(self):
        # 320 vertices and 480 edges: Theta from BFS rows needs O(n + m)
        # memory, about 400 bytes per vertex and edge here; an all-pairs
        # distance matrix holds 102,400 entries and peaks above 1.3 MB
        S = shadow(mobius_ladder(160))
        tracemalloc.start()
        try:
            F = factor_shadow(S, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [f.n for f in F.factors] == [320]
        assert set(F.colors.values()) == {0}
        assert peak < 1000 * (S.n + S.edge_count), peak

    @pytest.mark.parametrize("q", [2, 3])
    def test_moebius_times_path_past_the_naive_bound(self, q):
        # 400 * q vertices: two classes, one per coordinate of the product
        P, C = cartesian_product([mobius_ladder(200), undirected_path(q)])
        S = shadow(P)
        by_coordinate = [set(), set()]
        for u, v in S.edges:
            cu, cv = C.coords[u], C.coords[v]
            by_coordinate[cu[1] != cv[1]].add((u, v))
        want = {frozenset(s) for s in by_coordinate}
        for root in (0, P.n - 1):
            F = factor_shadow(S, root)
            assert _classes(F.colors) == want
            assert sorted(f.n for f in F.factors) == [q, 400]


class TestDependencies:
    def test_factoring_imports_neither_numpy_nor_scipy(self):
        # a Moebius ladder takes the Theta steps, the one path that ever
        # needed a distance matrix
        code = (
            "import sys\n"
            "from boxfactor import DiGraph, factor_full\n"
            "r, n = 50, 100\n"
            "edges = [(i, (i + 1) % n) for i in range(n)] + [(i, i + r) for i in range(r)]\n"
            "arcs = {a for u, v in edges for a in ((u, v), (v, u))}\n"
            "assert factor_full(DiGraph(n, arcs, set())).k == 1\n"
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n"
