"""End-to-end acceptance gate.

Each test covers one acceptance criterion, prints one [PASS]/[FAIL] line
(visible even under output capture), and then asserts. Run with

    pytest tests/test_acceptance.py -v
"""

import random
import time

import pytest

from boxfactor import (
    DiGraph,
    DisconnectedGraphError,
    NoUnloopedVertexError,
    brute_force_prime,
    cartesian_product,
    factor_full,
    gen_product_instance,
    reconstruct_check,
    shadow,
)
from boxfactor.cli import main as cli_main
from helpers import (
    canonical_small_graphs,
    consistent_square,
    dist,
    inconsistent_square,
    loop_product,
    looped_far_corner,
    min_degree,
    multiset_iso,
    project_vertex,
    random_digraph,
    relabel,
    vertex_of,
)


def _report(capsys, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    return ok


def test_c1_exhaustive_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    checked = 0
    mismatches = 0
    for n in range(1, 5):
        for G in canonical_small_graphs(n):
            F = factor_full(G)
            if not reconstruct_check(G, F):
                mismatches += 1
                continue
            if brute_force_prime(G) != (F.k == 1):
                mismatches += 1
            checked += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and checked == 1 + 5 + 73 + 2619 and dt < 300
    assert _report(
        capsys,
        "criterion 1: verdicts match the brute-force oracle on all n<=4",
        ok,
        f"{checked} graphs, {mismatches} mismatches, {dt:.1f}s",
    )


def test_c2_randomized_round_trip(capsys):
    t0 = time.perf_counter()
    failures = 0
    for i in range(1000):
        G, truth = gen_product_instance(2 + i % 3, (2, 6), 0.3, seed=i)
        F = factor_full(G)
        if not reconstruct_check(G, F) or not multiset_iso(F.factors, truth):
            failures += 1
    dt = time.perf_counter() - t0
    ok = failures == 0 and dt < 120
    assert _report(
        capsys,
        "criterion 2: 1000 seeded products round-trip to their true factors",
        ok,
        f"{failures} failures, {dt:.1f}s",
    )


def test_c3_uniqueness_under_relabeling(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20260816)
    failures = 0
    for i in range(200):
        G, _ = gen_product_instance(2 + i % 2, (2, 5), 0.25, seed=5000 + i)
        perms = []
        for _ in range(2):
            p = list(range(G.n))
            rng.shuffle(p)
            perms.append(p)
        F1 = factor_full(relabel(G, perms[0]))
        F2 = factor_full(relabel(G, perms[1]))
        if not multiset_iso(F1.factors, F2.factors):
            failures += 1
    dt = time.perf_counter() - t0
    ok = failures == 0
    assert _report(
        capsys,
        "criterion 3: relabeled copies factor into isomorphic multisets",
        ok,
        f"200 instances, {failures} failures, {dt:.1f}s",
    )


def test_c4_named_examples_exact(capsys):
    bad = []

    F = factor_full(consistent_square())
    if not (
        F.k == 2
        and F.merges == 0
        and all(f == DiGraph(2, {(0, 1)}, set()) for f in F.factors)
        and F.coordin.coords == ((0, 0), (1, 0), (0, 1), (1, 1))
    ):
        bad.append("consistent square")

    for G in (
        inconsistent_square(),
        DiGraph(4, {(0, 2), (3, 1), (0, 1), (2, 3)}, set()),
    ):
        F = factor_full(G)
        if not (F.k == 1 and F.merges == 1 and F.factors[0] == G):
            bad.append("inconsistent square")

    P, _, A, B = loop_product()
    F = factor_full(P)
    snap = tuple((f.n, sorted(f.arcs), sorted(f.loops)) for f in F.factors)
    if not (
        F.k == 2
        and F.merges == 0
        and snap == ((2, [(0, 1), (1, 0)], []), (2, [(0, 1), (1, 0)], [1]))
        and multiset_iso(F.factors, [A, B])
    ):
        bad.append("looped product")

    G = looped_far_corner()
    F = factor_full(G)
    if not (F.k == 1 and F.merges == 1 and F.factors[0] == G):
        bad.append("far-corner loop")

    ok = not bad
    assert _report(
        capsys,
        "criterion 4: the four named squares produce their frozen outputs",
        ok,
        "all exact" if ok else "wrong: " + ", ".join(bad),
    )


def _rand_pair(rng, max_n=4, loop_prob=0.0):
    A = random_digraph(rng, rng.randint(2, max_n), loop_prob=loop_prob)
    B = random_digraph(rng, rng.randint(2, max_n), loop_prob=loop_prob)
    return A, B


def test_c5_invariant_suite(capsys):
    t0 = time.perf_counter()
    rng = random.Random(99)
    failed = []

    # shadow of a product = product of the shadows, arc directions included:
    # every arc steps one coordinate along an arc of that factor, and the
    # arc counts agree, so the product's arcs are exactly the factors' arcs
    # in every copy
    for _ in range(100):
        A, B = _rand_pair(rng, loop_prob=0.2)
        P, C = cartesian_product([A, B])
        SP = shadow(P)
        SA, SB = shadow(A), shadow(B)
        nb = B.n
        count = SA.edge_count * nb + A.n * SB.edge_count
        if SP.edge_count != count:
            failed.append("shadow-product edge count")
            break
        good = len(P.arcs) == len(A.arcs) * nb + A.n * len(B.arcs)
        for u, v in P.arcs:
            cu, cv = C.coords[u], C.coords[v]
            diffs = [i for i in range(2) if cu[i] != cv[i]]
            if len(diffs) != 1 or (
                (cu[diffs[0]], cv[diffs[0]]) not in (A, B)[diffs[0]].arcs
            ):
                good = False
                break
        if not good:
            failed.append("shadow-product identity")
            break

    # distances add coordinatewise
    for _ in range(100):
        A, B = _rand_pair(rng)
        P, C = cartesian_product([A, B])
        SP, SA, SB = shadow(P), shadow(A), shadow(B)
        for _ in range(10):
            u = rng.randrange(P.n)
            v = rng.randrange(P.n)
            cu, cv = C.coords[u], C.coords[v]
            want = dist(SA, cu[0], cv[0]) + dist(SB, cu[1], cv[1])
            if dist(SP, u, v) != want:
                failed.append("distance formula")
                break
        else:
            continue
        break

    # multiplication is associative: grouping factors changes nothing
    for _ in range(100):
        fs = [random_digraph(rng, rng.randint(2, 3), loop_prob=0.2) for _ in range(3)]
        flat, Cf = cartesian_product(fs)
        left, Cl = cartesian_product(fs[:2])
        grouped, Cg = cartesian_product([left, fs[2]])
        at = vertex_of(Cf)
        m = {}
        for v in range(grouped.n):
            ab, c = Cg.coords[v]
            a, b = Cl.coords[ab]
            m[v] = at[(a, b, c)]
        if (
            {(m[u], m[v]) for (u, v) in grouped.arcs} != set(flat.arcs)
            or {m[v] for v in grouped.loops} != set(flat.loops)
        ):
            failed.append("associativity")
            break

    # and commutative: permuting factors changes nothing
    for _ in range(100):
        fs = [random_digraph(rng, rng.randint(2, 3), loop_prob=0.2) for _ in range(3)]
        perm = list(range(3))
        rng.shuffle(perm)
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
        if (
            {(m[u], m[v]) for (u, v) in P2.arcs} != set(P1.arcs)
            or {m[v] for v in P2.loops} != set(P1.loops)
        ):
            failed.append("commutativity")
            break

    # layers are convex: stepping toward a layer vertex stays in the layer
    for _ in range(100):
        A, B = _rand_pair(rng)
        P, C = cartesian_product([A, B])
        SP = shadow(P)
        i = rng.randrange(2)
        w = rng.randrange(P.n)
        cw = C.coords[w]
        layer = {
            v
            for v in range(P.n)
            if all(C.coords[v][j] == cw[j] for j in range(2) if j != i)
        }
        pairs = [(x, y) for x in layer for y in layer if x != y]
        rng.shuffle(pairs)
        good = True
        for x, y in pairs[:20]:
            d = dist(SP, x, y)
            for z in SP.adj[x]:
                if dist(SP, z, y) == d - 1 and z not in layer:
                    good = False
                    break
            if not good:
                break
        if not good:
            failed.append("layer convexity")
            break

    # each vertex has a unique nearest vertex in every layer: its projection
    for _ in range(100):
        A, B = _rand_pair(rng)
        P, C = cartesian_product([A, B])
        SP = shadow(P)
        i = rng.randrange(2)
        w = rng.randrange(P.n)
        cw = C.coords[w]
        layer = [
            v
            for v in range(P.n)
            if all(C.coords[v][j] == cw[j] for j in range(2) if j != i)
        ]
        at = vertex_of(C)
        good = True
        for v in range(P.n):
            ds = {x: dist(SP, v, x) for x in layer}
            best = min(ds.values())
            mins = [x for x, d in ds.items() if d == best]
            proj = at[project_vertex(C.coords[v], {i}, cw)]
            if mins != [proj]:
                good = False
                break
        if not good:
            failed.append("unique nearest layer vertex")
            break

    # the number of prime factors never exceeds the minimum shadow degree
    for _ in range(100):
        G = random_digraph(rng, rng.randint(2, 6), loop_prob=0.25)
        F = factor_full(G)
        if F.k > min_degree(shadow(G)):
            failed.append("factor count vs minimum degree")
            break

    dt = time.perf_counter() - t0
    ok = not failed
    assert _report(
        capsys,
        "criterion 5: structural invariants hold on 100 instances each",
        ok,
        f"{dt:.1f}s" if ok else "failed: " + ", ".join(failed),
    )


def test_c6_empirical_linearity(capsys):
    t0 = time.perf_counter()
    rc = cli_main(
        ["bench", "--family", "grid", "--min-arcs", "1000",
         "--max-arcs", "1000000", "--reps", "5"]
    )
    out = capsys.readouterr().out.splitlines()
    dt = time.perf_counter() - t0
    rows = [line.split(",") for line in out[1:]]
    arcs = [int(r[0]) for r in rows]
    per_arc = [float(r[2]) for r in rows]
    spread = max(per_arc) / min(per_arc)
    ok = (
        rc == 0
        and out[0] == "arcs,seconds,seconds_per_arc"
        and arcs[0] <= 2000
        and arcs[-1] >= 500000
        and spread <= 4.0
        and dt < 600
    )
    assert _report(
        capsys,
        "criterion 6: per-arc runtime is flat from 10^3 to 10^6 arcs",
        ok,
        f"{len(rows)} sizes, spread {spread:.2f}x, {dt:.0f}s",
    )


def test_c7_error_paths_and_unit(capsys, tmp_path):
    from boxfactor import to_text

    bad = []

    disc = DiGraph(4, {(0, 1), (1, 0), (2, 3), (3, 2)}, set())
    p = tmp_path / "disc.dg"
    p.write_text(to_text(disc))
    if cli_main(["factor", "--input", str(p)]) != 3:
        bad.append("disconnected exit code")
    capsys.readouterr()
    with pytest.raises(DisconnectedGraphError):
        factor_full(disc)

    allloop = DiGraph(2, {(0, 1), (1, 0)}, {0, 1})
    p = tmp_path / "loops.dg"
    p.write_text(to_text(allloop))
    if cli_main(["factor", "--input", str(p)]) != 4:
        bad.append("all-looped exit code")
    capsys.readouterr()
    with pytest.raises(NoUnloopedVertexError):
        factor_full(allloop)

    point = DiGraph(1, set(), set())
    p = tmp_path / "point.dg"
    p.write_text(to_text(point))
    if cli_main(["factor", "--input", str(p)]) != 0:
        bad.append("trivial graph exit code")
    got = dict(
        line.split(": ", 1)
        for line in capsys.readouterr().out.splitlines()
        if ": " in line
    )
    if got.get("factors") != "0":
        bad.append("trivial graph factor count")
    F = factor_full(point)
    if F.k != 0 or F.factors != () or F.coordin.coords != ((),):
        bad.append("trivial graph unit factorization")

    ok = not bad
    assert _report(
        capsys,
        "criterion 7: error exits and the unit factorization behave as documented",
        ok,
        "all as documented" if ok else "wrong: " + ", ".join(bad),
    )
