"""Independent ground truth for testing the factorizer.

Nothing here shares logic with the scan algorithms: primality is decided by
trying the two-colorings of the shadow edges, and reconstruction multiplies
the claimed factors back out and compares. The primality search is
exponential and guarded by an explicit size bound.

The primality search is pruned by counting. A product of nontrivial factors
A and B has |V| = |V_A|*|V_B| vertices and |E_A|*|V_B| + |E_B|*|V_A| shadow
edges, so a graph whose vertex count is a prime number is prime with no
search, and only colorings whose color-1 edge count j fits some split
a*b = n (a, b >= 2) are checked: a divides j, b divides m - j, and, as
connected factors have at least a - 1 and b - 1 edges, j >= a*(b - 1) and
m - j >= b*(a - 1). Both rules are exact: a composite graph's own product
coloring passes them, and it is a coloring the witness check accepts.
"""

from __future__ import annotations

import random

from .core import DiGraph, is_connected, shadow
from .errors import (
    DisconnectedGraphError,
    FactorizationError,
    NoUnloopedVertexError,
    OracleBoundError,
)
from .product import Coordinatization, cartesian_product, product_graph

_FACTOR_EDGES = 16  # most shadow edges of a generated factor, so 17 vertices


def reconstruct_check_parts(G: DiGraph, factors, coords) -> bool:
    """Does the product of `factors`, laid out by `coords`, equal G exactly?

    `coords[v]` gives vertex v's coordinate tuple. The product is built in
    G's own labels and compared arc for arc and loop for loop; no
    isomorphism search happens here. Coordinates that are not a bijection
    onto the factors' grid make the answer False.
    """
    factors = tuple(factors)
    coords = tuple(tuple(c) for c in coords)
    if not factors:
        return G.n == 1 and not G.loops and coords == ((),)
    if len(coords) != G.n:
        return False
    try:
        P = product_graph(Coordinatization(factors, coords, 0))
    except FactorizationError:
        return False
    return P.arcs == G.arcs and P.loops == G.loops


def reconstruct_check(G: DiGraph, F) -> bool:
    """reconstruct_check_parts on a DirectedFactorization."""
    return reconstruct_check_parts(G, F.factors, F.coordin.coords)


def _components(n: int, adj) -> list[int]:
    comp = [-1] * n
    c = 0
    for s in range(n):
        if comp[s] >= 0:
            continue
        comp[s] = c
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if comp[w] < 0:
                    comp[w] = c
                    stack.append(w)
        c += 1
    return comp


def _induced(G: DiGraph, hosts) -> DiGraph:
    hosts = sorted(hosts)
    loc = {h: i for i, h in enumerate(hosts)}
    arcs = {
        (loc[u], loc[v]) for (u, v) in G.arcs if u in loc and v in loc
    }
    loops = {loc[v] for v in G.loops if v in loc}
    return DiGraph(len(hosts), arcs, loops)


def _split_witness(G: DiGraph, edges, mask: int, r: int) -> bool:
    """Check one two-coloring of the shadow edges for being a product coloring."""
    n = G.n
    adj0 = [[] for _ in range(n)]
    adj1 = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        side = adj1 if i and (mask >> (i - 1)) & 1 else adj0
        side[u].append(v)
        side[v].append(u)
    comp0 = _components(n, adj0)  # components of the color-0 subgraph
    comp1 = _components(n, adj1)
    layer0 = [v for v in range(n) if comp0[v] == comp0[r]]  # r's color-0 layer
    layer1 = [v for v in range(n) if comp1[v] == comp1[r]]
    if len(layer0) < 2 or len(layer1) < 2:
        return False
    if len(layer0) * len(layer1) != n:
        return False
    cell = {}
    for v in range(n):
        key = (comp0[v], comp1[v])
        if key in cell:
            return False
        cell[key] = v
    loc0 = {h: i for i, h in enumerate(layer0)}
    loc1 = {h: i for i, h in enumerate(layer1)}
    coords = []
    for v in range(n):
        a = cell.get((comp0[r], comp1[v]))  # v's shadow on the color-0 layer
        b = cell.get((comp0[v], comp1[r]))
        if a is None or b is None:
            return False
        coords.append((loc0[a], loc1[b]))
    A = _induced(G, layer0)
    B = _induced(G, layer1)
    return reconstruct_check_parts(G, (A, B), coords)


def brute_force_prime(G: DiGraph, max_edges: int = 16) -> bool:
    """Primality by exhausting the 2-colorings of the shadow edges.

    A graph is composite exactly when some coloring splits it into two
    nontrivial factors, so checking the colorings (the first edge's color is
    fixed, halving the space) decides primality. A prime vertex count
    needs no search, and only the colorings whose color-1 edge count can
    multiply out for some split of the vertex count are checked (see the
    module docstring). Bounded by `max_edges` shadow edges.
    """
    S = shadow(G)
    if not is_connected(S):
        raise DisconnectedGraphError("primality is defined for connected graphs")
    if G.n and len(G.loops) == G.n:
        raise NoUnloopedVertexError("primality needs an unlooped vertex")
    m = S.edge_count
    if m > max_edges:
        raise OracleBoundError(
            f"{m} shadow edges exceeds the brute-force bound of {max_edges}"
        )
    n = G.n
    if n == 1:
        return False  # the one-vertex graph is the unit, not a prime
    splits = [(a, n // a) for a in range(2, n) if n % a == 0]
    if not splits:
        return True  # a prime vertex count is no product of two nontrivial ones
    fits = {
        j
        for a, b in splits
        for j in range(a * (b - 1), m - b * (a - 1) + 1, a)
        if (m - j) % b == 0
    }  # color-1 edge counts j = |E_B|*a with m - j = |E_A|*b
    edges = S.ends
    r = min(v for v in range(n) if v not in G.loops)
    for mask in range(1 << (m - 1)):
        if mask.bit_count() in fits and _split_witness(G, edges, mask, r):
            return False
    return True


def _orient(rng: random.Random, u: int, v: int):
    roll = rng.random()
    if roll < 0.4:
        return [(u, v)]
    if roll < 0.8:
        return [(v, u)]
    return [(u, v), (v, u)]


def _random_prime_factor(
    rng: random.Random, lo: int, hi: int, loop_probability: float
) -> DiGraph:
    # rejection sampling: random connected digraph until the oracle says prime
    while True:
        n = rng.randint(lo, hi)
        arcs = set()
        for v in range(1, n):
            p = rng.randrange(v)
            arcs.update(_orient(rng, p, v))
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) in arcs or (v, u) in arcs:
                    continue
                if rng.random() < 1.5 / n:
                    arcs.update(_orient(rng, u, v))
        loops = {v for v in range(n) if rng.random() < loop_probability}
        if len(loops) == n:
            loops.discard(rng.choice(sorted(loops)))
        G = DiGraph(n, arcs, loops)
        if shadow(G).edge_count > _FACTOR_EDGES:
            continue
        if brute_force_prime(G, _FACTOR_EDGES):
            return G


def gen_product_instance(
    num_factors: int,
    size_range: tuple[int, int] = (2, 6),
    loop_probability: float = 0.0,
    seed: int = 0,
):
    """Seeded random test instance: a scrambled product with known factors.

    Draws `num_factors` random prime digraphs (each with an unlooped vertex,
    primality certified by the brute-force oracle, so at most 17 vertices),
    multiplies them out, and relabels the product's vertices by a random
    permutation. Returns the scrambled product and the list of ground-truth
    factors.
    """
    if num_factors < 1:
        raise ValueError("need at least one factor")
    lo, hi = size_range
    if lo < 2:
        raise ValueError("prime factors need at least 2 vertices")
    if hi < lo:
        raise ValueError("empty size range")
    if hi > _FACTOR_EDGES + 1:  # a connected factor has at least n - 1 edges
        raise ValueError(
            f"factor size {hi} exceeds {_FACTOR_EDGES + 1}, the oracle's bound"
        )
    if not 0 <= loop_probability <= 1:  # also rejects nan
        raise ValueError(f"loop probability must be in [0, 1], got {loop_probability}")
    rng = random.Random(seed)
    factors = [
        _random_prime_factor(rng, lo, hi, loop_probability)
        for _ in range(num_factors)
    ]
    P, _ = cartesian_product(factors)
    perm = list(range(P.n))
    rng.shuffle(perm)
    # a product of valid factors, relabeled by a bijection of range(n)
    G = DiGraph._unchecked(
        P.n,
        {(perm[u], perm[v]) for (u, v) in P.arcs},
        {perm[v] for v in P.loops},
    )
    return G, factors
