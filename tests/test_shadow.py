import functools
import gc
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings

from boxfactor import (
    ColorPartition,
    Coordinatization,
    DiGraph,
    FactorizationError,
    cartesian_product,
    coordinates_from_colors,
    factor_full,
    factor_shadow,
    gen_product_instance,
    shadow,
)
from boxfactor import loop_factor, shadow_factor
from boxfactor.cli import _bench_instance
from boxfactor.core import bfs
from helpers import (
    NAIVE_MAX_N,
    PROPAGATION_RULES,
    both_k2,
    both_ways,
    canonical_small_graphs,
    connected_digraphs,
    klein_bottle_grid,
    min_degree,
    mobius_ladder,
    naive_coordinates_from_colors,
    naive_factor_shadow,
    naive_propagate,
    naive_shadow_classes,
    naive_square_closure,
    number_classes,
    pendant_grid,
    random_digraph,
    relabel,
    shadow_graph,
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
def rung_classes(monkeypatch):
    """The class count of each colouring of the ladder that factor_shadow
    checked, one list per call."""
    calls = []
    ladder = shadow_factor._ladder

    def spy(*args):
        calls.append([])
        for labels in ladder(*args):
            calls[-1].append(max(labels) + 1)
            yield labels

    monkeypatch.setattr(shadow_factor, "_ladder", spy)
    return calls


@pytest.fixture
def rungs(monkeypatch):
    """How many colourings of the ladder each factor_shadow call checked:
    1 when rung 1 was accepted."""
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
        colors = {e: i for i, e in enumerate(S.ends)}
        with pytest.raises(FactorizationError):
            coordinates_from_colors(S, 0, colors)

    def test_merged_coloring_single_factor(self):
        S = shadow(undirected_cycle(4))
        colors = {e: 0 for e in S.ends}
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
        colors = {e: int(e in rungs) for e in S.ends}
        with pytest.raises(FactorizationError, match="9 edges"):
            coordinates_from_colors(S, 0, colors)
        assert len(factor_shadow(S, 0).factors) == 1

    def test_unit_layers_meet_only_at_the_root(self):
        # C4 0-1-2-3-0 colored by halves: both unit layers from 0 reach 2,
        # so the layers' grid has more points than S has vertices
        S = shadow(undirected_cycle(4))
        colors = {(0, 1): 0, (1, 2): 0, (2, 3): 1, (0, 3): 1}
        with pytest.raises(FactorizationError, match="grid size 9 does not match vertex count 4"):
            coordinates_from_colors(S, 0, colors)
        with pytest.raises(FactorizationError):
            naive_coordinates_from_colors(S, 0, colors)

    def test_colors_must_cover_edges(self):
        S = shadow(undirected_cycle(4))
        with pytest.raises(ValueError):
            coordinates_from_colors(S, 0, {(0, 1): 0})
        # as many keys as edges, but one is not an edge: (1, 0) is keyed
        # the wrong way round, and 0 and 2 are not adjacent
        for key in ((1, 0), (0, 2)):
            colors = {(0, 3): 0, (1, 2): 0, (2, 3): 1, key: 1}
            with pytest.raises(ValueError, match="cover exactly the edges"):
                coordinates_from_colors(S, 0, colors)

    def test_one_vertex_has_no_factors(self):
        S = shadow(DiGraph(1))
        assert coordinates_from_colors(S, 0, {}) == ((), Coordinatization((), ((),), 0))

    @pytest.mark.parametrize("root", [7, -1])
    def test_root_out_of_range_on_one_vertex(self, root):
        # as factor_shadow rejects it on the same input
        S = shadow(DiGraph(1))
        with pytest.raises(ValueError, match=f"root {root} out of range"):
            coordinates_from_colors(S, root, {})
        with pytest.raises(ValueError, match=f"root {root} out of range"):
            factor_shadow(S, root)


class TestAgainstNaiveClosure:
    """factor_shadow's classes equal (Theta u tau)* computed from the
    definitions, whether a cheap rung is accepted or the exact
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
        for r in range(5, 14, 2):
            # from these two roots of a Moebius ladder with odd r, rung 1
            # leaves two classes that delta* does not join; vertex (v, i) of
            # the product with P_q has the id v*q + i
            roots = (3 * (r - 1) // 2, 3 * (r - 1) // 2 + 1)
            M = mobius_ladder(r)
            inputs = [(M, 1, roots)]
            for q in (2, 3):
                if 2 * r * q <= 40:
                    P, _ = cartesian_product([M, undirected_path(q)])
                    inputs.append((P, 2, (roots[0] * q, roots[1] * q + q - 1)))
            for G, k, rs in inputs:
                for root in rs:
                    calls.clear()
                    assert self._agree(G, [root]) == k
                    # rung 1 is rejected and delta* merges nothing, so Theta
                    # is added
                    assert calls, (G, root)
        # prisms are products: rung 1 is accepted at once
        calls.clear()
        for r in range(3, 14):
            P, _ = cartesian_product([undirected_cycle(r), both_k2()])
            assert self._agree(P, [0]) == (2 if r != 4 else 3)
        assert calls == []

    def test_theta_is_added_tree_edges_first(self, theta_steps):
        S = shadow(mobius_ladder(5))
        B = bfs(S, 6)
        factor_shadow(S, 6)
        # the first BFS-tree edge in BFS order joins every class at once
        v = B.order[1]
        assert theta_steps == [edge_key(B.down[v][0], v)]

    @staticmethod
    def _tree_bound_corpus():
        """(graph, roots): Klein-bottle grids at every root, Moebius ladders
        at their Theta roots, and five composites, among them the Theta
        roots of Moebius products; vertex (a, b) of G x H has id a*|H| + b."""
        for m in range(3, 8):
            for n in range(3, 7):
                K = klein_bottle_grid(m, n)
                yield K, range(K.n)
        for r in range(5, 30, 2):
            yield mobius_ladder(r), (3 * (r - 1) // 2, 3 * (r - 1) // 2 + 1)
        M7, M9, K65 = mobius_ladder(7), mobius_ladder(9), klein_bottle_grid(6, 5)
        for (G, H), roots in [
            ((pendant_grid(50), both_k2()), (0, 7)),
            ((klein_bottle_grid(8, 8), both_k2()), (0, 7, 127)),
            ((klein_bottle_grid(8, 8), K65), (0, 1919)),
            ((M7, K65), (0, 9 * 30, 10 * 30 + 17)),
            ((M7, M9), (0, 9 * 18 + 12, 10 * 18 + 13, 9 * 18)),
        ]:
            yield cartesian_product([G, H])[0], roots

    def test_theta_walks_only_the_bfs_tree(self, theta_steps):
        # Feder: sigma = (Theta_T u tau)* for a spanning tree T, and delta*
        # has joined every tau pair, so the BFS-tree edges end the ladder at
        # sigma; were tau left unjoined, the ladder would give out before
        # the reference, which walks every edge, and this would fail
        took_theta = 0
        for G, roots in self._tree_bound_corpus():
            S = shadow(G)
            for root in roots:
                B = bfs(S, root)
                theta_steps.clear()
                F = factor_shadow(S, root)
                tree = {edge_key(B.down[v][0], v) for v in B.order[1:]}
                assert set(theta_steps) <= tree, (G, root)
                assert F.colors == naive_factor_shadow(S, root).colors, (G, root)
                took_theta += bool(theta_steps)
        # 158 of the 490 rooted runs need Theta
        assert took_theta == 158


@functools.cache
def _differential_corpus():
    """(graph, roots) pairs: every c1 graph with every root, seeded random
    graphs, generated products with two random roots, Moebius ladders and
    Moebius ladders times P3, Klein-bottle grids, which need Theta from
    some roots, and grids with a pendant vertex, which need delta*."""
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
    for m in range(3, 8):
        for n in range(3, 7):
            K = klein_bottle_grid(m, n)
            out.append((K, [0, 1, rng.randrange(K.n)]))
    for A in range(2, 14):
        G = pendant_grid(A)
        out.append((G, [0, G.n - 1]))
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


def _partition(labels):
    """The classes of a labeling of the edges listed in the order of
    `S.ends`, as a set of sets of positions in that list."""
    classes = {}
    for i, c in enumerate(labels):
        classes.setdefault(c, set()).add(i)
    return {frozenset(c) for c in classes.values()}


def _sigma(S):
    """The sigma classes of S as sets of positions in `S.ends`: from the
    definitions up to NAIVE_MAX_N vertices, else from the all-pairs closure
    plus Theta."""
    if S.n <= NAIVE_MAX_N:
        eid = {e: i for i, e in enumerate(S.ends)}
        return {frozenset(eid[e] for e in c) for c in naive_shadow_classes(S)}
    return _partition(list(naive_factor_shadow(S, 0).colors.values()))


def _rung_one_slots(S, B):
    """Rung 1 from B's root: the root colours in the edges' BFS slots, and
    their partition."""
    P = ColorPartition(len(S.adj[B.root]))
    return shadow_factor._propagate(S, B, P), P


def _by_edge(S, B, slots):
    """The colours in `slots` keyed (min, max), in the order of `S.ends`;
    each down list and cross list of B has one slot per entry, and a
    cross-edge's colour is held at its later end in BFS order, with None at
    the earlier end."""
    col = dict.fromkeys(S.ends)
    for v in range(S.n):
        for nb, cols in ((B.down[v], slots[0][v]), (B.cross[v], slots[1][v])):
            assert len(cols) == len(nb), (S, v)
            for w, c in zip(nb, cols):
                later = B.bfsnum[w] < B.bfsnum[v]
                assert (c is not None) == later, (S, v, w)
                if later:
                    col[edge_key(v, w)] = c
    assert len(col) == len(S.ends)
    assert None not in col.values()
    return col


def _rung_one(S, B):
    """Rung 1's colouring of the edges of S from B's root, listed in the
    order of `S.ends`."""
    slots, P = _rung_one_slots(S, B)
    number = shadow_factor._numbered(P)
    return [number[c] for c in _by_edge(S, B, slots).values()]


def _check_rung_one(S, r, sigma):
    """Rung 1 from root r refines sigma, and equals it when the check
    accepts it; returns whether it was accepted."""
    B = bfs(S, r)
    colors = _rung_one(S, B)
    classes = _partition(colors)
    where = {i: j for j, c in enumerate(sigma) for i in c}
    for c in classes:
        assert len({where[i] for i in c}) == 1, (S, r)
    slots, P = _rung_one_slots(S, B)
    try:
        shadow_factor._coordinates(S, B, slots, shadow_factor._numbered(P))
    except FactorizationError:
        return False
    assert classes == sigma, (S, r)
    return True


class TestLadder:
    """factor_shadow propagates colours first and climbs to delta* and
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

    def test_a_rejected_last_rung_is_an_invariant_failure(self, monkeypatch, rungs):
        # the last rung is sigma, which the check accepts; a rejection of it
        # names the broken invariant instead of leaving the ladder at None
        def reject(*args):
            raise FactorizationError("rejected")

        monkeypatch.setattr(shadow_factor, "_coordinates", reject)
        with pytest.raises(FactorizationError, match="the last rung, sigma itself, was rejected"):
            factor_shadow(shadow(mobius_ladder(5)), 6)
        # rung 1, then the first tree edge's Theta step joins every class
        assert rungs == [2]

    def test_checks_at_most_root_degree(self, monkeypatch):
        # every rung after the first merges root colours, so a run checks
        # at most deg(root) colourings, and one when rung 1 is accepted; the
        # Moebius roots are those from which Theta is reached
        check = shadow_factor._coordinates
        outcomes = []

        def spy(*args):
            try:
                got = check(*args)
            except FactorizationError:
                outcomes.append(False)
                raise
            outcomes.append(True)
            return got

        monkeypatch.setattr(shadow_factor, "_coordinates", spy)
        theta_roots = [
            (mobius_ladder(r), (3 * (r - 1) // 2, 3 * (r - 1) // 2 + 1))
            for r in range(5, 30, 2)
        ]
        climbed = 0
        for G, roots in _differential_corpus() + theta_roots:
            S = shadow(G)
            for r in roots:
                outcomes.clear()
                F = factor_shadow(S, r)
                assert len(outcomes) <= len(S.adj[r]), (G, r)
                if S.n == 1:
                    continue
                assert outcomes == [False] * (len(outcomes) - 1) + [True], (G, r)
                B = bfs(S, r)
                slots, P = _rung_one_slots(S, B)
                first = shadow_factor._numbered(P)
                try:
                    check(S, B, slots, first)
                    accepted = True
                except FactorizationError:
                    accepted = False
                assert (len(outcomes) == 1) == accepted, (G, r)
                # each later check follows a merge of rung 1's classes
                assert len(outcomes) - 1 <= len(P) - len(F.factors), (G, r)
                climbed += not accepted
        assert climbed > 20

    def test_rung_one_refines_sigma(self):
        for G, roots in _differential_corpus():
            S = shadow(G)
            if S.n == 1:
                continue
            sigma = _sigma(S)
            for r in roots:
                _check_rung_one(S, r, sigma)

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
        # delta* joins each square at its smallest corner, the reference at
        # every corner; rung 1 makes the joins of its reference, and refines
        # sigma
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
            # delta* over one colour per edge
            m = len(S.ends)
            P = ColorPartition(m)
            shadow_factor._close_pairs(S, dict(zip(S.ends, range(m))), P)
            delta = shadow_factor._numbered(P)
            assert _partition(delta) == _partition(naive_square_closure(S, S.ends))
            sigma = _sigma(S)
            for r in roots:
                B = bfs(S, r)
                colors = _rung_one(S, B)
                assert _partition(colors) == _partition(naive_propagate(S, B)), (S, r)
                _check_rung_one(S, r, sigma)

    def test_old_round_two_inputs_take_rung_one(self, rungs):
        # a 4-cycle 0-1-2-3 with a pendant edge 3-4, rooted at 1: the square
        # closure of the old round 1 left two classes; the degree test at the
        # root joins 10 and 12 at once
        S = shadow_graph(5, [(0, 1), (0, 3), (1, 2), (2, 3), (3, 4)])
        F = factor_shadow(S, 1)
        assert rungs == [1]
        assert F.colors == naive_factor_shadow(S, 1).colors
        assert set(F.colors.values()) == {0}
        # on a generated product, root 0
        G, _ = gen_product_instance(2, (2, 6), 0.3, seed=381)
        rungs.clear()
        F = factor_shadow(shadow(G), 0)
        assert rungs == [1]
        want = naive_factor_shadow(shadow(G), 0)
        assert F.colors == want.colors
        assert F.coordin.coords == want.coordin.coords
        assert len(F.factors) == 2


# One input per root test and per merge rule of rung 1, as (n, edges, root).
# Each graph is prime, and without its rule rung 1 leaves it two or more
# classes, which the check rejects.
RULE_INPUTS = {
    # K_{2,3} from {1, 2} to {0, 3, 4}, and 5 and 6 both joined to 3 and 4:
    # 1 and 2 have the common neighbours 0, 3 and 4
    "root-common": (
        7,
        [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5), (3, 6), (4, 6)],
        0,
    ),
    # 0 and 4 have the common neighbours 1 and 2, and 2 has the third
    # down-neighbour 3
    "root-down": (
        6,
        [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (2, 3), (2, 4), (4, 5)],
        1,
    ),
    # a 4-cycle 0-1-2-4 with a pendant edge 1-3: deg 2 + deg 0 = 4, and
    # deg 1 + deg 4 = 5
    "root-degree": (5, [(0, 1), (0, 4), (1, 2), (1, 3), (2, 4)], 0),
    # found by a seeded search over small products with one to three edits
    "square-merge": (
        8,
        [(0, 1), (0, 2), (0, 7), (1, 3), (2, 3), (2, 4), (2, 6), (3, 5), (4, 5), (4, 7),
         (5, 6)],
        0,
    ),
    # a 4-cycle 1-0-2-3 with pendant edges 0-4 and 2-5: the root pair 10, 13
    # passes, and only the unit-layer vertex 5 joins 20 and 23
    "unit-merge": (6, [(0, 1), (0, 2), (0, 4), (1, 3), (2, 3), (2, 5)], 1),
    # a 4-cycle 0-1-3-2 and a triangle 1-3-4
    "cross-triangle-merge": (5, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (3, 4)], 0),
    # found by a seeded search over small products with one to three edits
    "cross-square-merge": (
        8,
        [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 4), (2, 6), (3, 5), (3, 7),
         (4, 5), (4, 7), (5, 6)],
        0,
    ),
}


class TestPropagation:
    """Rung 1 of the ladder, colour propagation, on inputs that need each of
    its rules, on products that weaker rules left to rung 2, and the inputs
    that still climb to delta* and Theta."""

    @pytest.mark.parametrize("rule", PROPAGATION_RULES)
    def test_each_rule_is_needed(self, rule, rungs):
        n, edges, r = RULE_INPUTS[rule]
        S = shadow_graph(n, edges)
        B = bfs(S, r)
        sigma = _sigma(S)
        assert _partition(_rung_one(S, B)) == sigma
        assert _partition(naive_propagate(S, B)) == sigma
        for other in PROPAGATION_RULES:
            # only this input's own rule is needed here
            without = _partition(naive_propagate(S, B, drop=(other,)))
            assert (without != sigma) == (other == rule), other
        F = factor_shadow(S, r)
        assert rungs == [1]
        assert F.colors == naive_factor_shadow(S, r).colors

    @pytest.mark.parametrize(
        "seed, root",
        [(1037, 90), (1040, 126), (1072, 0), (1079, 0), (1079, 147), (1097, 147),
         (1114, 0), (1123, 0)],
    )
    def test_three_factor_products_at_rung_one(self, seed, root, rungs):
        # products of three primes on 5 to 7 vertices that need the last two
        # root tests or the unit-layer merge
        G, truth = gen_product_instance(3, (5, 7), 0.3, seed=seed)
        S = shadow(G)
        F = factor_shadow(S, root)
        assert rungs == [1]
        want = naive_factor_shadow(S, root)
        assert F.colors == want.colors
        assert F.coordin.coords == want.coordin.coords
        assert len(F.factors) >= len(truth)

    def test_rejected_rung_one_accepted_by_delta_star(self, rungs, theta_steps):
        # found in the seed-20261020 random corpus: squares 0-2-3-4 and
        # 3-4-5-6 share the edge 3-4, with a pendant edge 0-1; from root 5
        # rung 1 leaves two classes, which delta* joins
        S = shadow_graph(
            7, [(0, 1), (0, 2), (0, 4), (2, 3), (3, 4), (3, 6), (4, 5), (5, 6)]
        )
        assert len(set(_rung_one(S, bfs(S, 5)))) == 2
        F = factor_shadow(S, 5)
        assert rungs == [2]
        assert theta_steps == []
        assert F.colors == naive_factor_shadow(S, 5).colors
        assert set(F.colors.values()) == {0}

    def test_slot_colouring_matches_the_reference_at_every_root(self):
        # the slots keyed back to edges against the reference propagation,
        # on the graphs whose rung 1 is rejected, from every root
        graphs = [mobius_ladder(r) for r in range(3, 40)]
        graphs += [klein_bottle_grid(m, n) for m in range(3, 8) for n in range(3, 7)]
        graphs += [pendant_grid(A) for A in (3, 5, 10)]
        runs = 0
        for G in graphs:
            S = shadow(G)
            for r in range(S.n):
                B = bfs(S, r)
                assert _partition(_rung_one(S, B)) == _partition(naive_propagate(S, B)), (G, r)
                runs += 1
        assert runs == 2061

    def test_moebius_ladder_climbs_to_theta(self, rungs, theta_steps):
        # from root 6, rung 1 leaves two classes and delta* joins neither to
        # the other, so it is not checked again; the first Theta step joins
        # them
        S = shadow(mobius_ladder(5))
        B = bfs(S, 6)
        slots, P = _rung_one_slots(S, B)
        col = _by_edge(S, B, slots)
        assert len(P.classes()) == 2
        assert not shadow_factor._close_pairs(S, col, P)
        F = factor_shadow(S, 6)
        assert rungs == [2]
        assert len(theta_steps) == 1
        assert F.colors == naive_factor_shadow(S, 6).colors
        assert set(F.colors.values()) == {0}


class TestFallbackRungsAreNeeded:
    """Inputs on which rung 1 is rejected and only one of the fallback
    rungs leads to sigma: Klein-bottle grids need Theta, as delta* merges
    nothing, and a grid with a pendant vertex needs delta*, as its pendant
    edge is Theta-related only to itself."""

    @staticmethod
    def _rung_one_rejected(S, B, match):
        """The colours and partition of rung 1 from B's root, checked to be
        rejected with a message matching `match`."""
        slots, P = _rung_one_slots(S, B)
        with pytest.raises(FactorizationError, match=match):
            shadow_factor._coordinates(S, B, slots, shadow_factor._numbered(P))
        return _by_edge(S, B, slots), P

    @pytest.mark.parametrize("m, n, root", [(6, 5, 0), (6, 5, 1), (6, 5, 17), (8, 8, 36)])
    def test_klein_bottle_grid_takes_a_theta_step(self, m, n, root, theta_steps):
        S = shadow(klein_bottle_grid(m, n))
        B = bfs(S, root)
        col, P = self._rung_one_rejected(S, B, "changes coordinates|not injective")
        assert not shadow_factor._close_pairs(S, col, P)
        F = factor_shadow(S, root)
        assert theta_steps
        assert F.colors == naive_factor_shadow(S, root).colors
        assert set(F.colors.values()) == {0}

    def test_pendant_grid_is_accepted_at_delta_star(self, rungs, theta_steps):
        G = pendant_grid(50)
        S = shadow(G)
        B = bfs(S, 0)
        col, P = self._rung_one_rejected(
            S, B, "grid size 153 does not match vertex count 151"
        )
        assert shadow_factor._close_pairs(S, col, P)
        F = factor_shadow(S, 0)
        assert rungs == [2]
        assert theta_steps == []
        assert F.colors == naive_factor_shadow(S, 0).colors
        assert set(F.colors.values()) == {0}

    # With three or more rung-1 classes a rule that splits a rejected
    # two-class colouring has nothing to act on, so these products still
    # need delta* or Theta.

    @pytest.mark.parametrize("root", [0, 7])
    def test_pendant_grid_times_k2_is_accepted_at_delta_star(
        self, root, rung_classes, theta_steps
    ):
        S = shadow(cartesian_product([pendant_grid(50), both_k2()])[0])
        B = bfs(S, root)
        col, P = self._rung_one_rejected(S, B, "grid size 306 does not match vertex count 302")
        assert len(P) == 3
        assert shadow_factor._close_pairs(S, col, P)
        F = factor_shadow(S, root)
        assert rung_classes == [[3, 2]]
        assert theta_steps == []
        assert F.colors == naive_factor_shadow(S, root).colors

    @pytest.mark.parametrize(
        "other, ladder, steps",
        [(both_k2(), [3, 2], 4), (klein_bottle_grid(6, 5), [4, 3, 2], 7)],
    )
    def test_klein_bottle_grid_products_take_theta_steps(
        self, other, ladder, steps, rung_classes, theta_steps
    ):
        S = shadow(cartesian_product([klein_bottle_grid(8, 8), other])[0])
        B = bfs(S, 0)
        col, P = self._rung_one_rejected(S, B, "changes coordinates|not injective")
        assert len(P) == ladder[0]
        assert not shadow_factor._close_pairs(S, col, P)
        F = factor_shadow(S, 0)
        assert rung_classes == [ladder]
        assert len(theta_steps) == steps
        assert F.colors == naive_factor_shadow(S, 0).colors

    @pytest.mark.parametrize(
        "G, root",
        [
            (klein_bottle_grid(6, 5), 0),
            (klein_bottle_grid(6, 5), 1),
            (klein_bottle_grid(6, 5), 17),
            (pendant_grid(50), 0),
        ],
    )
    def test_rejected_rungs_leave_no_cyclic_garbage(self, G, root, rungs):
        # a rejected rung's traceback would hold the shadow in a cycle
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            F = factor_full(G, root)
            found = gc.collect()
            garbage = len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was:
                gc.enable()
        assert rungs and rungs[-1] > 1
        assert F.factors == (G,)
        assert (found, garbage) == (0, 0)


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
        edges = sorted(S.ends)
        for r in roots:
            bn = bfs(S, r).bfsnum
            delta = dict(zip(edges, number_classes(edges, naive_square_closure(S, edges), bn)))
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

    @pytest.mark.parametrize("family", ["grid", "cube", "randprod"])
    def test_scrambled_products(self, family):
        # vertex ids that do not follow the BFS order from either root
        G, C = _bench_instance(family, 1000, random.Random(1000))
        H, perm = _scrambled(G, 1000)
        at = vertex_of(C)
        corner = perm[at[(0,) * C.k]]
        middle = perm[at[tuple(F.n // 2 for F in C.factors)]]
        tally = [0, 0]
        self._agree(H, [corner, middle], random.Random(1000), tally)
        assert tally[0] >= 2 and tally[1] >= 2


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
        # every edge's code difference is a step of its own color's position
        step, codes = F.coordin.steps, F.coordin.codes
        assert all(step.get(codes[v] - codes[u]) == c for (u, v), c in F.colors.items())

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
        lhs = {edge_key(m[u], m[v]) for (u, v) in S.ends}
        rhs = set(shadow(P).ends)
        assert lhs == rhs


class TestDeltaStarStopsAtOneClass:
    """delta* stops at the first vertex that finds one class of root colours
    left, with the same result."""

    @pytest.mark.parametrize("r", [7, 20, 41])
    def test_moebius_ladders_unchanged(self, r):
        S = shadow(mobius_ladder(r))
        for root in (0, r, 2 * r - 1):
            F = factor_shadow(S, root)
            want = naive_factor_shadow(S, root)
            assert F.colors == want.colors
            assert F.coordin == want.coordin

    def test_moebius_ladder_joins_drop(self, monkeypatch):
        # from root 0, rung 1 leaves two classes and delta* merges them early
        r = 2000
        S = shadow(mobius_ladder(r))
        B = bfs(S, 0)
        live = []  # the live class count before each join
        join = shadow_factor._join

        def spy(P, a, b):
            live.append(len(P))
            return join(P, a, b)

        slots, P = _rung_one_slots(S, B)
        col = _by_edge(S, B, slots)
        assert len(P) == 2
        monkeypatch.setattr(shadow_factor, "_join", spy)
        # a scan that cannot end early (one colour per edge leaves two
        # delta* classes) makes the joins of a full scan, whatever the colours
        m = len(S.ends)
        Q = ColorPartition(m)
        shadow_factor._close_pairs(S, dict(zip(S.ends, range(m))), Q)
        assert len(Q) > 1
        full = len(live)
        live.clear()
        assert shadow_factor._close_pairs(S, col, P)
        assert len(P) == 1
        # past the last merge, only the rest of that vertex's pairs (degree 3)
        assert live.count(1) <= 6
        assert len(live) < full / 2


class TestCoordinatesWithoutTheColourDict:
    def test_factor_full_reads_the_coordinates_of_factor_shadow(self, monkeypatch):
        # factor_full hands _merge_scans the coordinates factor_shadow
        # gives, and builds no ShadowFactorization (so no colour dict)
        built = []
        seen = []
        made = shadow_factor.ShadowFactorization
        scans = loop_factor._merge_scans

        def spy_made(*args):
            built.append(True)
            return made(*args)

        def spy_scans(G, C, B):
            seen.append(C)
            return scans(G, C, B)

        monkeypatch.setattr(shadow_factor, "ShadowFactorization", spy_made)
        monkeypatch.setattr(loop_factor, "_merge_scans", spy_scans)
        for seed in range(6):
            G, _ = gen_product_instance(2 + seed % 2, (2, 4), 0.3, seed)
            factor_full(G)
            assert not built
            (C,) = seen
            S = shadow(G)
            SF = factor_shadow(S, C.root)
            assert SF.coordin == C
            assert SF.coordin.coords == C.coords
            assert SF.colors == naive_factor_shadow(S, C.root).colors
            built.clear()
            seen.clear()


class TestSlotColouring:
    """Rung 1 keeps every edge's colour in its BFS slots, and its check
    reads them there: an accepted rung 1 keys no colour by its edge."""

    def test_an_accepted_run_numbers_no_edges(self, monkeypatch, rungs):
        calls = []
        edge_colors = shadow_factor._edge_colors

        def spy(*args):
            calls.append(args)
            return edge_colors(*args)

        monkeypatch.setattr(shadow_factor, "_edge_colors", spy)
        inputs = [gen_product_instance(2 + i % 3, (2, 5), 0.3, seed=i)[0] for i in range(12)]
        for family in ("grid", "cube", "randprod"):
            G, _ = _bench_instance(family, 4000, random.Random(4000))
            inputs.append(_scrambled(G, 4000)[0])
        for G in inputs:
            assert len(factor_full(G).factors) >= 2
        assert rungs == [1] * len(inputs)
        assert calls == []
        # a rejected rung 1 keys the slot colours by edge once, for the later rungs
        rungs.clear()
        for G in (mobius_ladder(9), klein_bottle_grid(6, 5)):
            calls.clear()
            assert factor_full(G).factors == (G,)
            assert len(calls) == 1
        assert len(rungs) == 2 and min(rungs) > 1

    def test_colors_list_the_edges_in_the_order_of_ends(self, rungs):
        # keyed from the slots after an accepted rung 1, and after a
        # rejection on the other three
        G, _ = gen_product_instance(3, (2, 5), 0.3, seed=1)
        for H in (G, mobius_ladder(9), klein_bottle_grid(6, 5), pendant_grid(10)):
            S = shadow(H)
            assert list(factor_shadow(S, 0).colors) == S.ends, H
        assert rungs[0] == 1 and min(rungs[1:]) > 1


class TestCodesOnly:
    """Coordinates are held as codes from the shadow check to the writer:
    `factor_full` builds no coordinate tuple unless `coords` is read."""

    def test_factor_full_builds_no_coordinate_tuples(self):
        for seed in range(6):
            G, _ = gen_product_instance(2 + seed % 2, (2, 4), 0.3, seed)
            S = shadow(G)
            C = shadow_factor._factored(S, bfs(S, 0))[2]
            assert "coords" not in vars(C)
            F = factor_full(G)
            assert "coords" not in vars(F.coordin)
            rows = F.coordin.coords
            assert "coords" in vars(F.coordin)
            assert Coordinatization(F.factors, rows, 0).coords == rows
            assert Coordinatization(F.factors, rows, F.coordin.root) == F.coordin

    def test_tuple_constructor_folds_its_rows_once(self):
        rows = ((0, 1), (1, 1), (1, 0), (0, 0))
        C = Coordinatization((both_k2(), both_k2()), rows, 0)
        assert vars(C)["codes"] == (1, 3, 2, 0)
        assert "coords" not in vars(C)
        assert C.coords == rows


class TestLargeInstance:
    def test_long_grid_takes_no_theta_step(self, monkeypatch):
        # a product is factored without Theta
        def no_theta(*args):
            raise AssertionError("Theta added for a product")

        monkeypatch.setattr(shadow_factor, "_join_theta", no_theta)
        p18 = undirected_path(18)
        P, _ = cartesian_product([p18, p18])
        F = factor_shadow(shadow(P), 0)
        assert sorted(f.n for f in F.factors) == [18, 18]

    def test_star_root_colours_merge_in_linear_time(self):
        # rung 1 merges the star's 100,000 root colours into one class; a
        # step quadratic in deg(root) would take minutes
        n = 100_000
        S = shadow_graph(n + 1, [(0, i) for i in range(1, n + 1)])
        t = time.perf_counter()
        F = factor_shadow(S, 0)
        assert time.perf_counter() - t < 15
        assert [f.n for f in F.factors] == [n + 1]

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

    def test_factor_full_in_bounded_memory(self):
        # a scrambled grid of about 20,000 arcs: the shadow, its BFS, the
        # slot colours and the codes, and no edge numbering
        G, _ = _bench_instance("grid", 20000, random.Random(20000))
        H = _scrambled(G, 20000)[0]
        S = shadow(H)
        size = S.n + S.edge_count
        del S
        tracemalloc.start()
        try:
            F = factor_full(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(F.factors) == 2
        assert peak < 160 * size, peak / size

    @pytest.mark.parametrize("q", [2, 3])
    def test_moebius_times_path_past_the_naive_bound(self, q):
        # 400 * q vertices: two classes, one per coordinate of the product
        P, C = cartesian_product([mobius_ladder(200), undirected_path(q)])
        S = shadow(P)
        by_coordinate = [set(), set()]
        for u, v in S.ends:
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
