"""Prime factorization of a connected undirected shadow.

The prime factors of a connected graph are read off the classes of
sigma = (Theta u tau)*, the transitive closure of two edge relations:
  Theta  e = xy and f = uv have asymmetric endpoint distances,
         d(x,u) + d(y,v) != d(x,v) + d(y,u);
  tau    e and f share an endpoint and lie on no common chordless square.
Computing Theta directly needs all-pairs distances and every pair of edges.

Instead, `factor_shadow` climbs a ladder of ever coarser edge partitions
and checks each rung exactly with `coordinates_from_colors`. Every pair a
rung joins is a tau pair or a pair of opposite edges of a chordless square,
which are Theta-related, so every rung refines sigma. When a rung is a
product coloring, sigma refines it too (Theta and tau never relate edges of
different factors of a product), so it is sigma: the first rung accepted is
the factorization, whichever rung that is.

Rungs 1 and 2 are one square closure (`_close_pairs`) with two anchor
rules. At each vertex v it tests the pairs of edges va, vw that hold an
anchor a: a pair on no chordless square is tau and joined, otherwise the
opposite edges of each chordless square v-a-x-w are joined, but only at
the square's smallest corner that tests it. A corner tests a square when
it takes every neighbour as an anchor or when its tree edge lies on it.
The rungs, each checked only when it merged classes:

1. Round 1. The anchor of v is its BFS-tree neighbour u, the first
   down-neighbour, so vu is tested with every other edge at v (down,
   cross and up). The root, and every v where no down-edge spans a
   chordless square with vu (such as a v with one down-neighbour: a
   unit-layer vertex of a product, all its down-edges in one factor), take
   every neighbour as an anchor. Round 1 tests O(m) pairs plus all
   pairs at the unit-layer vertices (sum of the factor sizes in a
   product), each by an O(deg) intersection of neighbour sets. Two edges at
   a vertex that lie in different factors of a product span exactly one
   chordless square, so on products the tree edge at v usually suffices to
   place every other edge at v, and round 1 is accepted; nothing rests on
   that, and a few rooted products do fall through to rung 2.
2. delta*. Every neighbour of every vertex is an anchor, so every square
   is joined at its smallest corner, added to the same classes. This closes
   delta: tau plus the opposite edges of every chordless square, in
   O(sum over v of deg(v)^2 times the degree of a neighbour).
3. Theta, one edge at a time, for graphs that are locally but not globally
   a product, such as a Moebius ladder: BFS-tree edges first, then the
   rest. An edge xy is Theta-related to uv exactly when
   d(u,x) - d(v,x) != d(u,y) - d(v,y), so two BFS distance rows, from u and
   from v, give all of them in one sweep over the edges. Once every edge is
   used the classes are sigma itself. This takes O(n + m) memory, at most
   k0 - 1 re-checks for the k0 classes of delta*, and O(m*(n + m)) time in
   the worst case.

A rejected rung only moves up the ladder, so no input costs more than the
delta* closure and Theta plus one round 1 and one failed check. The rungs
work on the edge ids of the shadow and look an edge up by its ids'
alignment with the sorted adjacency lists. The classes are numbered in BFS
order from the root, and `coordinates_from_colors` turns them into
unit-layer factors and vertex coordinates.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass

from .core import BfsOrder, DiGraph, ShadowGraph, _sweep, bfs
from .errors import FactorizationError
from .product import Coordinatization


@dataclass(frozen=True, eq=False)
class ShadowFactorization:
    """Edge coloring of a shadow into prime factor classes.

    `colors` maps each edge (keyed (min, max)) to a color in 0..k-1;
    `factor_shadow` inserts the edges in the shadow's edge-id order, so the
    values, in order, are the color of edge 0, 1, ... The factor of color j
    is `factors[j]`, an undirected layer with local ids in ascending host id
    order; `coordin` labels every vertex of the shadow with its tuple of
    local factor ids. Color numbering follows the BFS order from
    `root`: classes are sorted by the smallest (bfsnum, bfsnum) endpoint pair
    among their edges.
    """

    root: int
    colors: dict[tuple[int, int], int]
    factors: tuple[ShadowGraph, ...]
    coordin: Coordinatization


def factor_shadow(
    S: ShadowGraph, root: int, B: BfsOrder | None = None
) -> ShadowFactorization:
    """Factor a connected shadow into its prime layers through `root`.

    `B` is the BFS order of S from `root`; it is computed (which also proves
    connectivity) when the caller does not already hold it.
    """
    n = S.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range")
    if B is None:
        B = bfs(S, root)
    elif B.root != root:
        raise ValueError("BFS root differs from the factorization root")
    if n == 1:
        return ShadowFactorization(root, {}, (), Coordinatization((), ((),), 0))
    for labels in _ladder(S, B):
        colors = _number_classes(S.ends, labels, B.bfsnum)
        try:
            factors, coordin = _coordinates(S, root, colors, B)
        except FactorizationError as exc:
            rejected = exc  # strictly finer than sigma: take the next rung
            continue
        return ShadowFactorization(root, dict(zip(S.ends, colors)), factors, coordin)
    raise rejected


def _ladder(S: ShadowGraph, B: BfsOrder) -> Iterator[list[int]]:
    """Ever coarser class labelings of the edges of S, by edge id, each
    refining sigma: round 1, then delta*, then delta* plus the Theta
    relations of one edge after another. A rung is yielded only when it
    merged classes; the label of an edge is the id of its class's root edge.
    Each list yielded must be read before the next rung is asked for.
    """
    parent = list(range(len(S.ends)))

    def classes() -> list[int]:
        out = []
        for a in range(len(parent)):
            while parent[a] != a:
                a = parent[a]
            out.append(a)
        return out

    _close_pairs(S, parent, B.down)
    labels = classes()
    yield labels
    _close_pairs(S, parent, None)
    closed = classes()
    if closed != labels:
        labels = closed
        yield labels
    for e in _theta_order(B, S.ends):
        if _join_theta(S, S.ends, labels, e):
            yield labels


def _close_pairs(
    S: ShadowGraph,
    parent: list[int],
    down: tuple[tuple[int, ...], ...] | None,
) -> None:
    """Join the pairs of edges that hold an anchor, at every vertex, in the
    union-find `parent` over the edge ids of S, under the anchor and corner
    rules of the module docstring: round 1 with `down` the BFS
    down-neighbours of every vertex, delta* when `down` is None. The
    vertices are swept in id order, so whether a smaller corner takes every
    neighbour as an anchor is known when it is read.
    """
    adj = S.adj
    inc = S.inc
    nbrs = list(map(set, adj))
    tree = [-1] * S.n if down is None else [d[0] if d else -1 for d in down]
    every = [False] * S.n

    def union(a: int, b: int) -> None:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[b] = a

    for v, nb in enumerate(adj):
        nv = nbrs[v]
        u = tree[v]
        if u < 0:
            every[v] = True
        else:
            nu = nbrs[u]
            off = nu - nv  # with v dropped: the far corners of squares on vu
            off.discard(v)
            for w in down[v][1:]:
                if w not in nu and not off.isdisjoint(nbrs[w]):
                    break
            else:
                every[v] = True
        ev = every[v]
        ids = inc[v]
        for i in range(len(nb)) if ev else (bisect_left(nb, u),):
            a = nb[i]
            na = nbrs[a]
            if ev:  # else a is u, whose far corners are already in off
                off = na - nv
                off.discard(v)
            ta = tree[a]
            ia = ids[i]
            # a smaller corner a that takes every anchor, or whose tree edge
            # is av, tests every square on va; likewise w below
            a_tests = a < v and (every[a] or ta == v)
            for w, iw in zip(nb[i + 1 :], ids[i + 1 :]) if ev else zip(nb, ids):
                if w == a:
                    continue
                # a, w adjacent: every square on va, vw has a chord
                far = () if w in na else off & nbrs[w]
                if not far:
                    union(ia, iw)
                    continue
                tw = tree[w]
                if a_tests or (w < v and (every[w] or tw == v)):
                    continue
                for x in far:
                    # a tests the square by ax, w by wx, x by every anchor,
                    # xa or xw
                    if (
                        (a < v and ta == x)
                        or (w < v and tw == x)
                        or (x < v and (every[x] or tree[x] == a or tree[x] == w))
                    ):
                        continue
                    union(ia, inc[w][bisect_left(adj[w], x)])
                    union(iw, inc[a][bisect_left(adj[a], x)])


def _number_classes(
    edges: list[tuple[int, int]], labels: list[int], bn: tuple[int, ...]
) -> list[int]:
    """The color of every edge by class, numbering classes by their smallest
    (bfsnum, bfsnum) endpoint pair."""
    best: dict[int, tuple[int, int]] = {}
    for (u, v), c in zip(edges, labels):
        p = (bn[u], bn[v]) if bn[u] < bn[v] else (bn[v], bn[u])
        if c not in best or p < best[c]:
            best[c] = p
    number = {c: i for i, c in enumerate(sorted(best, key=best.__getitem__))}
    return [number[c] for c in labels]


def _theta_order(
    B: BfsOrder, edges: list[tuple[int, int]]
) -> Iterator[tuple[int, int]]:
    """The edges whose Theta relations are added, in order: the BFS-tree
    edges in BFS order, then the others in `edges` order."""
    tree = [(u, v) if u < v else (v, u) for v in B.order[1:] for u in B.down[v][:1]]
    yield from tree
    in_tree = set(tree)
    yield from (e for e in edges if e not in in_tree)


def _join_theta(
    S: ShadowGraph, edges: list[tuple[int, int]], labels: list[int], e: tuple[int, int]
) -> bool:
    """Join the classes of all edges Theta-related to e in `labels`, in
    place; report whether any two classes merged.

    For e = uv, xy is Theta-related exactly when d(u,x) - d(v,x) differs
    from d(u,y) - d(v,y); e itself is. O(n + m) time and memory.
    """
    g = [a - b for a, b in zip(_sweep(S, e[0])[1], _sweep(S, e[1])[1])]
    joined = {labels[i] for i, (x, y) in enumerate(edges) if g[x] != g[y]}
    if len(joined) == 1:
        return False
    c = min(joined)
    labels[:] = [c if a in joined else a for a in labels]
    return True


def coordinates_from_colors(
    S: ShadowGraph,
    root: int,
    colors: dict[tuple[int, int], int],
    B: BfsOrder | None = None,
) -> tuple[tuple[ShadowGraph, ...], Coordinatization]:
    """Turn an edge coloring into unit-layer factors and vertex coordinates.

    The unit layer of color a is the component of `root` in the color-a
    subgraph; it must induce no other color and meet the other layers only
    in the root. Coordinates are filled in the BFS order `B` from the root
    (computed when omitted): a vertex copies the coordinates of a
    down-neighbour u, and takes coordinate a, the color of edge vu, from a
    down-neighbour of another color, or, when it has none, as its own local
    id in the unit layer of a. O(n*k + m) in all.

    Raises FactorizationError when a vertex with down-edges of one color
    only is off that color's unit layer, or the labeling is not a bijection
    onto the grid, or some edge does not step exactly its own coordinate
    along a factor edge, or the grid has edges S lacks; each of these means
    `colors` is not a product coloring. Accepting therefore proves that S is
    the product of the returned layers.
    """
    if colors.keys() != S.edges:
        raise ValueError("colors must cover exactly the edges of S")
    if S.n == 1:
        return (), Coordinatization((), ((),), 0)
    k = max(colors.values()) + 1
    if set(colors.values()) != set(range(k)):
        raise ValueError("colors must be 0..k-1 with every value used")
    if B is None:
        B = bfs(S, root)
    elif B.root != root:
        raise ValueError("BFS root differs from the factorization root")
    return _coordinates(S, root, [colors[e] for e in S.ends], B)


def _coordinates(
    S: ShadowGraph, root: int, colors: list[int], B: BfsOrder
) -> tuple[tuple[ShadowGraph, ...], Coordinatization]:
    """`coordinates_from_colors` on valid inputs, with the colors of S's
    edges listed by edge id."""
    n = S.n
    k = max(colors) + 1
    adj = S.adj
    inc = S.inc

    factors = []
    locs: list[dict[int, int]] = []
    owner = [-1] * n  # the unit layer holding v; -1 for the root and off-layer
    for a in range(k):
        seen = {root}
        stack = [root]
        while stack:
            x = stack.pop()
            for w, e in zip(adj[x], inc[x]):
                if w not in seen and colors[e] == a:
                    if owner[w] >= 0:
                        raise FactorizationError(
                            f"the unit layers of colors {owner[w]} and {a} share "
                            f"vertex {w}"
                        )
                    owner[w] = a
                    seen.add(w)
                    stack.append(w)
        loc = {h: i for i, h in enumerate(sorted(seen))}
        zedges = []
        for x in loc:
            for w, e in zip(adj[x], inc[x]):
                if x < w and w in loc:
                    c = colors[e]
                    if c != a:
                        raise FactorizationError(
                            f"unit layer of color {a} induces an edge of color {c}"
                        )
                    zedges.append((loc[x], loc[w]))
        factors.append(ShadowGraph(len(loc), zedges))
        locs.append(loc)

    coords: list[tuple[int, ...]] = [()] * n
    coords[root] = tuple(loc[root] for loc in locs)
    for v in B.order[1:]:
        down = B.down[v]
        nb = adj[v]
        ids = inc[v]
        u = down[0]
        a = colors[ids[bisect_left(nb, u)]]
        for w in down[1:]:
            if colors[ids[bisect_left(nb, w)]] != a:
                x = coords[w][a]
                break
        else:
            if owner[v] != a:
                raise FactorizationError(
                    f"vertex {v} has down-edges of color {a} only but is off "
                    f"its unit layer"
                )
            x = locs[a][v]
        cu = coords[u]
        coords[v] = cu[:a] + (x,) + cu[a + 1 :]

    coordin = Coordinatization(tuple(_undirected(Z) for Z in factors), coords, root)
    coordin.vertex_at  # force the injectivity check

    # every edge must step exactly its own coordinate along a factor edge;
    # on codes, the step changes no other coordinate exactly when it shifts
    # the code by the step times the coordinate's stride
    codes = coordin.codes
    st = coordin.strides
    layer_edges = [Z.edges for Z in factors]
    for (u, v), c in zip(S.ends, colors):
        a, b = coords[u][c], coords[v][c]
        if codes[v] - codes[u] != (b - a) * st[c] or a == b:
            diffs = [i for i in range(k) if coords[u][i] != coords[v][i]]
            raise FactorizationError(
                f"edge ({u}, {v}) of color {c} changes coordinates {diffs}"
            )
        if ((a, b) if a < b else (b, a)) not in layer_edges[c]:
            raise FactorizationError(
                f"edge ({u}, {v}) does not project to an edge of factor {c}"
            )
    # the labeling is a bijection onto the grid and maps edges to grid edges,
    # so S is the product of the layers exactly when the edge counts agree
    grid_edges = sum(Z.edge_count * (n // Z.n) for Z in factors)
    if grid_edges != len(colors):
        raise FactorizationError(
            f"the layers multiply to {grid_edges} edges, the graph has {len(colors)}"
        )
    return tuple(factors), coordin


def _undirected(Z: ShadowGraph) -> DiGraph:
    """Both-ways DiGraph carrying the undirected structure of Z."""
    arcs = {a for u, v in Z.edges for a in ((u, v), (v, u))}
    return DiGraph._unchecked(Z.n, arcs, ())
