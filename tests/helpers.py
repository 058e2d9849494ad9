"""Shared builders for the test suite."""

from __future__ import annotations

import random

from collections import deque

from hypothesis import strategies as st

from boxfactor import (
    ColorPartition,
    Coordinatization,
    DiGraph,
    ShadowGraph,
    cartesian_product,
    iso_check,
    unit_layer,
)


def consistent_square() -> DiGraph:
    # (0->1) x (0->1): vertices 0=(0,0) 1=(0,1) 2=(1,0) 3=(1,1)
    return DiGraph(4, {(0, 2), (1, 3), (0, 1), (2, 3)}, set())


def inconsistent_square() -> DiGraph:
    # directed 4-cycle 0 -> 2 -> 3 -> 1 -> 0 drawn on the same square
    return DiGraph(4, {(0, 2), (2, 3), (3, 1), (1, 0)}, set())


def loop_product():
    """2-cycle with a loop at 1, times a plain 2-cycle."""
    A = DiGraph(2, {(0, 1), (1, 0)}, {1})
    B = DiGraph(2, {(0, 1), (1, 0)}, set())
    return cartesian_product([A, B]) + (A, B)


def looped_far_corner() -> DiGraph:
    """Undirected C4 with a loop only at the vertex opposite 0."""
    arcs = set()
    for u, v in ((0, 1), (0, 2), (1, 3), (2, 3)):
        arcs.add((u, v))
        arcs.add((v, u))
    return DiGraph(4, arcs, {3})


def undirected_cycle(n: int) -> DiGraph:
    arcs = set()
    for i in range(n):
        j = (i + 1) % n
        arcs.add((i, j))
        arcs.add((j, i))
    return DiGraph(n, arcs, set())


def undirected_path(n: int) -> DiGraph:
    arcs = set()
    for i in range(n - 1):
        arcs.add((i, i + 1))
        arcs.add((i + 1, i))
    return DiGraph(n, arcs, set())


def both_k2() -> DiGraph:
    return DiGraph(2, {(0, 1), (1, 0)}, set())


def random_digraph(
    rng: random.Random,
    n: int,
    extra_prob: float = 0.2,
    loop_prob: float = 0.0,
    keep_unlooped: bool = True,
) -> DiGraph:
    """Random connected digraph: random spanning tree plus extra arcs."""
    arcs = set()
    for v in range(1, n):
        p = rng.randrange(v)
        roll = rng.random()
        if roll < 0.4:
            arcs.add((p, v))
        elif roll < 0.8:
            arcs.add((v, p))
        else:
            arcs.add((p, v))
            arcs.add((v, p))
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < extra_prob:
                arcs.add((u, v))
    loops = {v for v in range(n) if rng.random() < loop_prob}
    if keep_unlooped and len(loops) == n:
        loops.discard(rng.choice(sorted(loops)))
    return DiGraph(n, arcs, loops)


def mobius_ladder(r: int) -> DiGraph:
    """Both-ways Moebius ladder: a 2r-cycle plus the r chords i -- i+r.

    Locally it is a prism (cycle times K2), globally it is prime.
    """
    n = 2 * r
    arcs = set()
    for u, v in [(i, (i + 1) % n) for i in range(n)] + [(i, i + r) for i in range(r)]:
        arcs.add((u, v))
        arcs.add((v, u))
    return DiGraph(n, arcs, set())


NAIVE_MAX_N = 40


def naive_shadow_classes(S: ShadowGraph) -> set[frozenset[tuple[int, int]]]:
    """Edge classes of (Theta u tau)*, straight from the definitions.

    Theta: d(x,u) + d(y,v) != d(x,v) + d(y,u) for edges xy, uv, with
    distances from one BFS per vertex. tau: the edges share an endpoint and
    lie on no common chordless square. Every pair of edges is tested, so this
    is bounded to NAIVE_MAX_N vertices. S must be connected.
    """
    n = S.n
    if n > NAIVE_MAX_N:
        raise ValueError(f"naive closure is bounded to {NAIVE_MAX_N} vertices")
    d = []
    for s in range(n):
        row = {s: 0}
        q = deque([s])
        while q:
            x = q.popleft()
            for y in S.adj[x]:
                if y not in row:
                    row[y] = row[x] + 1
                    q.append(y)
        d.append(row)

    def on_chordless_square(p, a, b):
        # edges pa, pb: is there x with p-a-x-b-p a square without chords?
        if S.has_edge(a, b):
            return False
        return any(
            x != p and S.has_edge(x, b) and not S.has_edge(x, p) for x in S.adj[a]
        )

    edges = sorted(S.tags)
    label = list(range(len(edges)))
    for i, (x, y) in enumerate(edges):
        for j in range(i + 1, len(edges)):
            u, v = edges[j]
            related = d[x][u] + d[y][v] != d[x][v] + d[y][u]
            shared = {x, y} & {u, v}
            if not related and shared:
                (p,) = shared
                a = x if y == p else y
                b = u if v == p else v
                related = not on_chordless_square(p, a, b)
            if related and label[i] != label[j]:
                old, new = label[j], label[i]
                label = [new if c == old else c for c in label]
    classes: dict[int, set] = {}
    for e, c in zip(edges, label):
        classes.setdefault(c, set()).add(e)
    return {frozenset(c) for c in classes.values()}


def merge_classes(P: ColorPartition, class_ids) -> int:
    """Functional spelling of ColorPartition.merge."""
    return P.merge(class_ids)


def naive_group_coordinates(G: DiGraph, C: Coordinatization, classes) -> Coordinatization:
    """Reference regrouping: one `unit_layer` scan of all arcs per block and
    projections looked up as coordinate tuples in `vertex_of`."""
    k = C.k
    rc = C.coords[C.root]
    vo = C.vertex_of
    new_factors = []
    projs = []
    for b in classes:
        bset = set(b)
        layer, hosts = unit_layer(G, C, bset)
        loc = {h: i for i, h in enumerate(hosts)}
        proj = []
        for v in range(G.n):
            cv = C.coords[v]
            key = tuple(cv[j] if j in bset else rc[j] for j in range(k))
            proj.append(loc[vo[key]])
        new_factors.append(layer)
        projs.append(proj)
    new_coords = tuple(
        tuple(projs[i][v] for i in range(len(projs))) for v in range(G.n)
    )
    return Coordinatization(tuple(new_factors), new_coords, C.root)


def multiset_iso(claimed, truth) -> bool:
    """Do the two factor collections match up to isomorphism and order?"""
    remaining = list(truth)
    for c in claimed:
        hit = None
        for i, t in enumerate(remaining):
            if (
                c.n == t.n
                and len(c.arcs) == len(t.arcs)
                and len(c.loops) == len(t.loops)
                and iso_check(c, t)
            ):
                hit = i
                break
        if hit is None:
            return False
        remaining.pop(hit)
    return not remaining


def relabel(G: DiGraph, perm) -> DiGraph:
    return DiGraph(
        G.n,
        {(perm[u], perm[v]) for (u, v) in G.arcs},
        {perm[v] for v in G.loops},
    )


@st.composite
def connected_digraphs(draw, min_n=1, max_n=6, allow_loops=True):
    n = draw(st.integers(min_n, max_n))
    arcs = set()
    for v in range(1, n):
        p = draw(st.integers(0, v - 1))
        d = draw(st.integers(0, 2))
        if d == 0:
            arcs.add((p, v))
        elif d == 1:
            arcs.add((v, p))
        else:
            arcs.add((p, v))
            arcs.add((v, p))
    if n > 1:
        extra = draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=2 * n,
            )
        )
        for u, v in extra:
            if u != v:
                arcs.add((u, v))
    loops: set[int] = set()
    if allow_loops:
        bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        loops = {v for v, b in enumerate(bits) if b}
        if len(loops) == n:
            loops.discard(min(loops))
    return DiGraph(n, arcs, loops)
