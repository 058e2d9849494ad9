import hashlib
import itertools
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from boxfactor import (
    DiGraph,
    DisconnectedGraphError,
    NoUnloopedVertexError,
    OracleBoundError,
    brute_force_prime,
    cartesian_product,
    factor_full,
    gen_product_instance,
    is_connected,
    reconstruct_check,
    reconstruct_check_parts,
    shadow,
    to_text,
)
from boxfactor import oracle
from helpers import (
    both_k2,
    canonical_small_graphs,
    connected_digraphs,
    consistent_square,
    inconsistent_square,
    iso_check,
    loop_product,
    looped_far_corner,
    naive_brute_force_prime,
    naive_reconstruct_check_parts,
    random_digraph,
    random_labeled_product,
    relabel,
    undirected_cycle,
    undirected_path,
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

    def test_two_vertices_on_one_grid_point_fail(self):
        # vertices 0 and 1 both at (0, 0): not a bijection onto the grid
        G = consistent_square()
        arc = DiGraph(2, {(0, 1)}, set())
        assert not reconstruct_check_parts(G, [arc, arc], [(0, 0), (0, 0), (0, 1), (1, 1)])

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

    def test_fewer_rows_than_vertices_fail(self):
        P, C = cartesian_product([both_k2(), undirected_path(3)])
        assert P.n == 6
        assert not reconstruct_check_parts(P, C.factors, [(0, 0)])


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
        # a prime vertex count needs no search, but the bound comes first
        G = undirected_cycle(7)
        assert brute_force_prime(G, max_edges=7)
        with pytest.raises(OracleBoundError):
            brute_force_prime(G, max_edges=6)

    @settings(deadline=None, max_examples=40)
    @given(connected_digraphs(min_n=2, max_n=5, allow_loops=True))
    def test_agrees_with_factorization_width(self, G):
        assert brute_force_prime(G) == (factor_full(G).k == 1)


def count_witness_checks(monkeypatch):
    """A list that grows by one per `_split_witness` call from now on."""
    calls = []
    check = oracle._split_witness

    def counted(*args):
        calls.append(args[2])
        return check(*args)

    monkeypatch.setattr(oracle, "_split_witness", counted)
    return calls


@st.composite
def small_products(draw):
    """A random connected digraph on 2-9 vertices, or the product of 2-3
    connected digraphs on 1-3 vertices each under a random labeling; at
    most 12 shadow edges, as the exhaustive reference tries 2^(m - 1)
    colorings."""
    if draw(st.booleans()):
        G = draw(connected_digraphs(min_n=2, max_n=9, allow_loops=True))
    else:
        factors = draw(st.lists(connected_digraphs(1, 3, allow_loops=True), min_size=2, max_size=3))
        P, _ = cartesian_product(factors)
        G = relabel(P, draw(st.permutations(range(P.n))))
    assume(G.n >= 2 and shadow(G).edge_count <= 12)
    return G


class TestPrunedPrimality:
    """brute_force_prime skips prime vertex counts and the colorings whose
    edge counts cannot multiply out; the verdicts match the exhaustive
    reference `naive_brute_force_prime`."""

    MAX_EDGES = 12

    def test_seeded_random_digraphs_and_products(self):
        rng = random.Random(2311)
        verdicts = {True: 0, False: 0}
        prime_n = 0
        for i in range(360):
            if i % 3:
                G = random_digraph(
                    rng, rng.randint(2, 9), rng.choice([0.03, 0.08, 0.15]), rng.choice([0, 0.3])
                )
            else:
                factors = [
                    random_digraph(rng, rng.randint(2, 3), 0.2, 0.3)
                    for _ in range(rng.randint(2, 3))
                ]
                P, _ = cartesian_product(factors)
                perm = list(range(P.n))
                rng.shuffle(perm)
                G = relabel(P, perm)
            if shadow(G).edge_count > self.MAX_EDGES:
                continue
            got = brute_force_prime(G)
            assert got == naive_brute_force_prime(G), G
            verdicts[got] += 1
            prime_n += G.n in (2, 3, 5, 7)
        assert verdicts[True] > 100 and verdicts[False] > 40 and prime_n > 50, (verdicts, prime_n)

    @settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.filter_too_much])
    @given(small_products())
    def test_matches_the_exhaustive_oracle(self, G):
        assert brute_force_prime(G) == naive_brute_force_prime(G)

    def test_prime_vertex_count_checks_no_coloring(self, monkeypatch):
        calls = count_witness_checks(monkeypatch)
        for n in (5, 7, 11):
            assert brute_force_prime(undirected_cycle(n))
        assert brute_force_prime(random_digraph(random.Random(4), 7, 0.3))
        assert calls == []

    @pytest.mark.parametrize("n", [6, 8])
    def test_too_few_edges_for_any_split_checks_no_coloring(self, monkeypatch, n):
        # j >= a*(b - 1) and m - j >= b*(a - 1) need m >= 2ab - a - b
        # edges: 7 for 6 = 2*3 and 10 for 8 = 2*4, more than the n-cycle has
        calls = count_witness_checks(monkeypatch)
        assert brute_force_prime(undirected_cycle(n))
        assert calls == []

    def test_only_colorings_that_multiply_out_are_checked(self, monkeypatch):
        # the 3 x 3 grid: m = 12 splits only as j = 6 = 2*3 color-1 edges,
        # C(11, 6) = 462 of the 2048 colorings; the search stops at the
        # first product coloring
        calls = count_witness_checks(monkeypatch)
        P, _ = cartesian_product([undirected_path(3)] * 2)
        assert naive_brute_force_prime(P) is False
        exhaustive = len(calls)
        calls.clear()
        assert not brute_force_prime(P)
        assert calls and all(mask.bit_count() == 6 for mask in calls)
        assert len(calls) < exhaustive
        # the directed square that is prime: 4 = 2*2 vertices and 4 edges
        # fit only j = 2, C(3, 2) = 3 of the 8 colorings, each rejected
        calls.clear()
        assert brute_force_prime(inconsistent_square())
        assert sorted(calls) == [0b011, 0b101, 0b110]


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

    @pytest.mark.parametrize(
        "size_range, digest",
        [
            ((4, 4), "d845c08ef4cff7eed587854a2c9ce966fe649ba677024194e76da1d19d236603"),
            ((5, 5), "8a075bfa203099d480714c6fe20d46ad719feebfa019ad5e46c19ba208f985ca"),
            ((6, 6), "2ea4d8a3ec29b69f20de2485ac9c0059b0f9aa9542b6dabc18d7f88bf62fe833"),
            ((7, 7), "c24ed2e1148aeed1caf66af61b4af0698613ed7ae970a38d62732362ca4535ae"),
            ((2, 4), "39793988f37bb24a961ca6578edf0a0b5ea91fea98149ec22ff155d194de84a2"),
        ],
    )
    def test_pinned_instances(self, size_range, digest):
        # digests taken with the exhaustive oracle: the pruning changes no
        # verdict, so the rejection draws consume the generator as before
        h = hashlib.sha256()
        for seed in range(8):
            G, fs = gen_product_instance(2 + seed % 2, size_range, 0.3 if seed % 4 > 1 else 0.0, seed)
            for H in (G, *fs):
                h.update(to_text(H).encode())
        assert h.hexdigest() == digest

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

    def test_no_vertices_rejected(self):
        with pytest.raises(ValueError, match="need at least one vertex"):
            next(canonical_small_graphs(0))

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
