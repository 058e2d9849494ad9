import itertools
import random

import pytest
from hypothesis import given, settings

from boxfactor import (
    DiGraph,
    DisconnectedGraphError,
    NoUnloopedVertexError,
    OracleBoundError,
    brute_force_prime,
    canonical_small_graphs,
    cartesian_product,
    factor_full,
    gen_product_instance,
    is_connected,
    iso_check,
    reconstruct_check,
    reconstruct_check_parts,
    shadow,
)
from helpers import (
    both_k2,
    connected_digraphs,
    consistent_square,
    inconsistent_square,
    loop_product,
    looped_far_corner,
    naive_reconstruct_check_parts,
    random_digraph,
    random_labeled_product,
    relabel,
    undirected_cycle,
)


class TestReconstructCheck:
    def test_whole_graph_as_single_factor(self):
        G = DiGraph(3, {(0, 1), (1, 2), (2, 0)}, {1})
        assert reconstruct_check_parts(G, [G], [(v,) for v in range(3)])

    def test_consistent_square_split(self):
        G = consistent_square()
        arc = DiGraph(2, {(0, 1)}, set())
        coords = [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert reconstruct_check_parts(G, [arc, arc], coords)

    def test_flipped_arc_fails(self):
        G = consistent_square()
        arc = DiGraph(2, {(0, 1)}, set())
        flipped = DiGraph(2, {(1, 0)}, set())
        coords = [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert not reconstruct_check_parts(G, [arc, flipped], coords)

    def test_wrong_coords_fail(self):
        G = consistent_square()
        arc = DiGraph(2, {(0, 1)}, set())
        coords = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert not reconstruct_check_parts(G, [arc, arc], coords)

    def test_loop_placement_checked(self):
        P, C, A, B = loop_product()
        assert reconstruct_check_parts(P, [A, B], C.coords)
        unlooped_a = DiGraph(2, {(0, 1), (1, 0)}, set())
        assert not reconstruct_check_parts(P, [unlooped_a, B], C.coords)

    def test_unit_factorization(self):
        K1 = DiGraph(1, set(), set())
        assert reconstruct_check_parts(K1, [], [()])
        assert not reconstruct_check_parts(DiGraph(1, set(), {0}), [], [()])
        assert not reconstruct_check_parts(both_k2(), [], [(), ()])

    def test_accepts_full_factorization_result(self):
        G = looped_far_corner()
        assert reconstruct_check(G, factor_full(G))

    def test_coordinate_width_mismatch_fails(self):
        G = both_k2()
        assert not reconstruct_check_parts(G, [G], [(0, 0), (1, 1)])


def perturbations(rng: random.Random, factors, coords, G: DiGraph):
    """(graph, factors, coords) claims near a valid one: the claim itself,
    then swapped, repeated, too wide, too narrow and off-grid coordinate
    rows, a dropped arc and a toggled loop."""
    yield G, factors, coords
    n = G.n
    i, j = rng.randrange(n), rng.randrange(n)
    swapped = list(coords)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    yield G, factors, swapped
    repeated = list(coords)
    repeated[i] = coords[j]
    yield G, factors, repeated
    wide = list(coords)
    wide[i] = coords[i] + (0,)
    yield G, factors, wide
    narrow = list(coords)
    narrow[i] = coords[i][:-1]
    yield G, factors, narrow
    p = rng.randrange(len(factors))
    for off in (factors[p].n, -1):
        off_grid = list(coords)
        off_grid[i] = coords[i][:p] + (off,) + coords[i][p + 1 :]
        yield G, factors, off_grid
    if G.arcs:
        dropped = rng.choice(sorted(G.arcs))
        yield DiGraph(n, G.arcs - {dropped}, G.loops), factors, coords
    yield DiGraph(n, G.arcs, G.loops ^ {rng.randrange(n)}), factors, coords


class TestReconstructAgainstNaive:
    def test_verdicts_match(self):
        rng = random.Random(5150)
        verdicts = {True: 0, False: 0}
        for _ in range(300):
            for claim in perturbations(rng, *random_labeled_product(rng)):
                got = reconstruct_check_parts(*claim)
                assert got == naive_reconstruct_check_parts(*claim), claim
                verdicts[got] += 1
        assert verdicts[True] >= 300 and verdicts[False] > 1500, verdicts


class TestBruteForcePrime:
    def test_unit_is_not_prime(self):
        assert not brute_force_prime(DiGraph(1, set(), set()))

    def test_k2_is_prime(self):
        assert brute_force_prime(both_k2())
        assert brute_force_prime(DiGraph(2, {(0, 1)}, set()))

    def test_undirected_square_splits(self):
        assert not brute_force_prime(undirected_cycle(4))

    def test_c5_is_prime(self):
        assert brute_force_prime(undirected_cycle(5))

    def test_consistent_square_splits(self):
        assert not brute_force_prime(consistent_square())

    def test_directed_square_variants_are_prime(self):
        assert brute_force_prime(inconsistent_square())
        assert brute_force_prime(DiGraph(4, {(0, 2), (3, 1), (0, 1), (2, 3)}, set()))

    def test_loop_product_splits(self):
        P, C, A, B = loop_product()
        assert not brute_force_prime(P)

    def test_far_corner_loop_is_prime(self):
        assert brute_force_prime(looped_far_corner())

    def test_looped_factors_detected(self):
        A = DiGraph(2, {(0, 1), (1, 0)}, {1})
        assert brute_force_prime(A)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            brute_force_prime(DiGraph(4, {(0, 1), (1, 0), (2, 3), (3, 2)}, set()))

    def test_all_looped_rejected(self):
        with pytest.raises(NoUnloopedVertexError):
            brute_force_prime(DiGraph(2, {(0, 1), (1, 0)}, {0, 1}))

    def test_edge_bound_enforced(self):
        G = undirected_cycle(9)  # 18 arcs, 9 shadow edges; bound counts edges
        assert brute_force_prime(G, max_edges=9)
        with pytest.raises(OracleBoundError):
            brute_force_prime(G, max_edges=8)

    @settings(deadline=None, max_examples=40)
    @given(connected_digraphs(min_n=2, max_n=5, allow_loops=True))
    def test_agrees_with_factorization_width(self, G):
        assert brute_force_prime(G) == (factor_full(G).k == 1)


class TestIsoCheck:
    def test_identity(self):
        G = consistent_square()
        assert iso_check(G, G)

    def test_relabeled(self):
        G = DiGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)}, {2})
        H = relabel(G, [2, 0, 3, 1])
        assert iso_check(G, H)

    def test_direction_matters(self):
        G = DiGraph(3, {(0, 1), (1, 2)}, set())  # directed path
        H = DiGraph(3, {(0, 1), (2, 1)}, set())  # both arcs point inward
        assert not iso_check(G, H)

    def test_loop_position_matters(self):
        G = DiGraph(2, {(0, 1)}, {0})  # loop at the source
        H = DiGraph(2, {(0, 1)}, {1})  # loop at the sink
        assert not iso_check(G, H)
        assert iso_check(G, relabel(G, [1, 0]))

    def test_count_prefilters(self):
        assert not iso_check(both_k2(), DiGraph(2, {(0, 1)}, set()))
        assert not iso_check(both_k2(), DiGraph(3, {(0, 1), (1, 0)}, set()))
        assert not iso_check(DiGraph(1, set(), {0}), DiGraph(1, set(), set()))

    def test_cycle_vs_path(self):
        C = undirected_cycle(4)
        Parcs = {(0, 1), (1, 2), (2, 3), (1, 0), (2, 1), (3, 2), (0, 3)}
        assert not iso_check(C, DiGraph(4, Parcs, set()))

    def test_bound_enforced(self):
        G = undirected_cycle(11)
        with pytest.raises(OracleBoundError):
            iso_check(G, G)
        assert iso_check(G, G, max_n=11)

    @settings(deadline=None, max_examples=40)
    @given(connected_digraphs(min_n=1, max_n=5, allow_loops=True))
    def test_invariant_under_relabeling(self, G):
        import random

        perm = list(range(G.n))
        random.Random(7).shuffle(perm)
        assert iso_check(G, relabel(G, perm))


class TestGenProductInstance:
    def test_same_seed_same_instance(self):
        G1, fs1 = gen_product_instance(3, (2, 4), 0.3, seed=11)
        G2, fs2 = gen_product_instance(3, (2, 4), 0.3, seed=11)
        assert G1 == G2
        assert fs1 == fs2

    def test_different_seeds_differ_somewhere(self):
        draws = {gen_product_instance(2, (2, 4), 0.0, seed=s)[0] for s in range(8)}
        assert len(draws) > 1

    def test_structure(self):
        G, fs = gen_product_instance(3, (2, 4), 0.3, seed=5)
        assert len(fs) == 3
        n = 1
        for f in fs:
            n *= f.n
            assert 2 <= f.n <= 4
            assert brute_force_prime(f)
        assert G.n == n
        assert is_connected(shadow(G))
        assert any(v not in G.loops for v in range(G.n))

    def test_loopless_when_probability_zero(self):
        G, fs = gen_product_instance(2, (2, 5), 0.0, seed=3)
        assert not G.loops
        assert all(not f.loops for f in fs)

    def test_is_really_the_stated_product(self):
        G, fs = gen_product_instance(2, (2, 3), 0.2, seed=9)
        P, _ = cartesian_product(fs)
        assert iso_check(G, P)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_product_instance(0)
        with pytest.raises(ValueError):
            gen_product_instance(2, (1, 3))
        with pytest.raises(ValueError):
            gen_product_instance(2, (5, 4))

    @pytest.mark.parametrize("size_range", [(18, 18), (2, 40)])
    def test_factors_past_the_oracle_bound_rejected(self, size_range):
        # a connected factor on 18 vertices has 17 shadow edges, one more
        # than `brute_force_prime` certifies, so the draw would never end
        with pytest.raises(ValueError, match="exceeds 17"):
            gen_product_instance(1, size_range)


class TestCanonicalSmallGraphs:
    def test_frozen_counts(self):
        assert len(list(canonical_small_graphs(1))) == 1
        assert len(list(canonical_small_graphs(2))) == 5
        assert len(list(canonical_small_graphs(3))) == 73

    def test_frozen_count_n4(self):
        assert len(list(canonical_small_graphs(4))) == 2619

    def test_n1_is_the_trivial_graph(self):
        (G,) = list(canonical_small_graphs(1))
        assert G == DiGraph(1, set(), set())

    def test_n2_representatives_by_hand(self):
        # connected 2-vertex graphs with an unlooped vertex: three arc
        # patterns ->, <-, <-> where -> and <- are isomorphic, so two arc
        # classes; loops: none, or one loop breaking the swap symmetry
        reps = list(canonical_small_graphs(2))
        assert len({(tuple(sorted(g.arcs)), tuple(sorted(g.loops))) for g in reps}) == 5
        for g in reps:
            assert is_connected(shadow(g))
            assert any(v not in g.loops for v in range(2))

    def test_all_valid_and_pairwise_noniso(self):
        for n in (1, 2, 3):
            reps = list(canonical_small_graphs(n))
            for g in reps:
                assert g.n == n
                assert is_connected(shadow(g))
                assert any(v not in g.loops for v in range(n))
            for a, b in itertools.combinations(reps, 2):
                assert not iso_check(a, b)

    def test_complete_for_n3(self):
        reps = list(canonical_small_graphs(3))
        pairs = [(u, v) for u in range(3) for v in range(3) if u != v]
        found = set()
        for arcbits in range(1 << 6):
            arcs = {pairs[i] for i in range(6) if arcbits >> i & 1}
            G = DiGraph(3, arcs, set())
            if not is_connected(shadow(G)):
                continue
            hit = [i for i, r in enumerate(reps) if not r.loops and iso_check(G, r)]
            assert len(hit) == 1
            found.add(hit[0])
        assert found == {i for i, r in enumerate(reps) if not r.loops}


class TestSeededOracleSweep:
    """factor_full against the brute-force oracles on seeded random inputs
    past c1's four vertices: every result rebuilds its input, every factor
    is prime, and every input called prime is prime."""

    # a whole-graph primality check exhausts 2^(edges - 1) colorings
    MAX_EDGES = 12

    @staticmethod
    def _check(G):
        F = factor_full(G)
        assert reconstruct_check(G, F), G
        for Z in F.factors:
            assert brute_force_prime(Z), (G, Z)
        if F.k == 1:
            assert brute_force_prime(G), G
        return F.k

    @staticmethod
    def _perturbed(rng, G):
        """G with one arc added, removed or reversed, or one loop toggled;
        None when the result is disconnected or has every vertex looped."""
        arcs, loops = set(G.arcs), set(G.loops)
        kind = rng.randrange(4)
        if kind == 0:
            u, v = rng.sample(range(G.n), 2)
            arcs.add((u, v))
        elif kind == 1:
            arcs.discard(rng.choice(sorted(arcs)))
        elif kind == 2:
            u, v = rng.choice(sorted(arcs))
            arcs.discard((u, v))
            arcs.add((v, u))
        else:
            loops ^= {rng.randrange(G.n)}
        H = DiGraph(G.n, arcs, loops)
        if not is_connected(shadow(H)) or len(loops) == G.n:
            return None
        return H

    def test_random_and_perturbed_products(self):
        rng = random.Random(20261018)
        ks = []
        while len(ks) < 250:
            G = random_digraph(
                rng,
                rng.randint(4, 8),
                extra_prob=rng.choice([0.05, 0.1, 0.2]),
                loop_prob=rng.choice([0.0, 0.2, 0.5]),
            )
            if shadow(G).edge_count <= self.MAX_EDGES:
                ks.append(self._check(G))
        composite = perturbed = 0
        while len(ks) < 500:
            factors, _, G = random_labeled_product(rng)
            if not 4 <= G.n <= 16:
                continue
            # every factor with an edge holds at least one prime
            nontrivial = sum(F.n > 1 for F in factors)
            assert self._check(G) >= nontrivial
            composite += nontrivial > 1
            H = self._perturbed(rng, G)
            if H is not None and shadow(H).edge_count <= self.MAX_EDGES:
                ks.append(self._check(H))
                perturbed += 1
        assert perturbed == 250 and composite > 100
        assert ks.count(1) > 100 and len(ks) - ks.count(1) > 5
