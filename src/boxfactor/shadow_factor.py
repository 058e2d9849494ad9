"""Prime factorization of a connected undirected shadow.

The prime factors of a connected graph are read off the classes of
sigma = (Theta u tau)*, the transitive closure of two edge relations:
  Theta  e = xy and f = uv have asymmetric endpoint distances,
         d(x,u) + d(y,v) != d(x,v) + d(y,u);
  tau    e and f share an endpoint and lie on no common chordless square.
Computing Theta directly needs all-pairs distances and every pair of edges.

Instead, one pass over the pairs of edges at each vertex builds the closure
of a local relation delta: tau, plus the pairs of opposite edges of every
chordless square. Opposite edges of a chordless square are Theta-related,
so delta* refines sigma. When delta* is a product coloring, which
`coordinates_from_colors` checks exactly, sigma refines it too (Theta and
tau never relate edges of different factors of a product), so delta* is
sigma and the factorization is done. The pass costs O(sum over v of deg(v)^2
times the degree of a neighbor), so it is linear for bounded degree and
needs no distance matrix.

Only when the check rejects delta* (a graph that is locally but not globally
a product, such as a Moebius ladder) does the exact closure run: Theta over
all edge pairs on an all-pairs distance matrix, seeded with the delta
classes. That fallback costs O(n^2) memory and O(m^2) time, the latter
vectorized over rows.

Either way the classes are numbered in BFS order from the root, and
`coordinates_from_colors` turns them into unit-layer factors and vertex
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BfsOrder, DiGraph, ShadowGraph, bfs
from .errors import FactorizationError
from .product import Coordinatization

# Below this vertex count plain BFS beats the scipy sparse machinery.
_SCIPY_MIN_N = 300


@dataclass(frozen=True, eq=False)
class ShadowFactorization:
    """Edge coloring of a shadow into prime factor classes.

    `colors` maps each edge (keyed (min, max)) to a color in 0..k-1. The
    factor of color j is `factors[j]`, an undirected layer with local ids in
    ascending host id order; `coordin` labels every vertex of the shadow with
    its tuple of local factor ids. Color numbering follows the BFS order from
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
    edges = sorted(S.tags)
    labels = _square_closure(S, edges)
    colors = _number_classes(edges, labels, B.bfsnum)
    try:
        factors, coordin = coordinates_from_colors(S, root, colors, B)
    except FactorizationError:
        # delta* is not a product coloring, so it is strictly finer than sigma
        colors = _number_classes(edges, _theta_closure(S, edges, labels), B.bfsnum)
        factors, coordin = coordinates_from_colors(S, root, colors, B)
    return ShadowFactorization(root, colors, factors, coordin)


def _square_closure(S: ShadowGraph, edges: list[tuple[int, int]]) -> list[int]:
    """Class label of every edge under delta*, for edges indexed as in `edges`.

    At each vertex v, two incident edges vu, vw are joined when they span no
    chordless square (relation tau); otherwise each chordless square
    v-u-x-w joins its opposite edges, vu with wx and vw with ux. A square is
    joined only from its smallest corner, which sees it exactly once.
    """
    eidx = {e: i for i, e in enumerate(edges)}
    parent = list(range(len(edges)))

    def union(a: int, b: int) -> None:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[b] = a

    nbrs = [set(nb) for nb in S.adj]
    for v, nb in enumerate(S.adj):
        closed = nbrs[v] | {v}
        ids = [eidx[(v, u) if v < u else (u, v)] for u in nb]
        for i, u in enumerate(nb):
            nu = nbrs[u]
            for j in range(i + 1, len(nb)):
                w = nb[j]
                # u, w adjacent: every square on vu, vw has a chord
                far = () if w in nu else (nu & nbrs[w]) - closed
                if not far:
                    union(ids[i], ids[j])
                elif v < u:  # adjacency lists are sorted, so u < w
                    for x in far:
                        if v < x:
                            union(ids[i], eidx[(w, x) if w < x else (x, w)])
                            union(ids[j], eidx[(u, x) if u < x else (x, u)])

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    return [find(a) for a in range(len(edges))]


def _number_classes(
    edges: list[tuple[int, int]], labels: list[int], bn: tuple[int, ...]
) -> dict[tuple[int, int], int]:
    """Color edges by class, numbering classes by their smallest
    (bfsnum, bfsnum) endpoint pair."""
    best: dict[int, tuple[int, int]] = {}
    for (u, v), c in zip(edges, labels):
        p = (bn[u], bn[v]) if bn[u] < bn[v] else (bn[v], bn[u])
        if c not in best or p < best[c]:
            best[c] = p
    number = {c: i for i, c in enumerate(sorted(best, key=best.__getitem__))}
    return {e: number[c] for e, c in zip(edges, labels)}


def _distance_matrix(S: ShadowGraph):
    import numpy as np

    n = S.n
    if n >= _SCIPY_MIN_N:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        rows = []
        cols = []
        for u, v in S.tags:
            rows.append(u)
            cols.append(v)
            rows.append(v)
            cols.append(u)
        A = csr_matrix(
            (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n)
        )
        D = shortest_path(A, method="D", unweighted=True, directed=True)
        return D.astype(np.int32)
    D = np.full((n, n), -1, dtype=np.int32)
    for s in range(n):
        row = D[s]
        row[s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for w in S.adj[v]:
                    if row[w] < 0:
                        row[w] = d
                        nxt.append(w)
            frontier = nxt
    return D


def _find(parent, a: int) -> int:
    root = a
    while parent[root] != root:
        root = parent[root]
    while parent[a] != root:
        parent[a], a = root, parent[a]
    return int(root)


def _union(parent, size, a: int, b: int) -> int:
    ra, rb = _find(parent, a), _find(parent, b)
    if ra == rb:
        return ra
    # larger class keeps its label; ties go to the smaller index
    if (size[rb], -rb) > (size[ra], -ra):
        ra, rb = rb, ra
    parent[rb] = ra
    size[ra] += size[rb]
    return ra


def _roots_of(parent, idx):
    r = parent[idx]
    while True:
        rr = parent[r]
        if (rr == r).all():
            break
        r = rr
    parent[idx] = r  # path compression for everything just visited
    return r


def _theta_closure(
    S: ShadowGraph, edges: list[tuple[int, int]], labels: list[int]
) -> list[int]:
    """Class labels of (Theta u tau)*, from the delta* classes `labels`.

    delta contains tau and lies inside sigma, so adding Theta to its classes
    gives sigma. Theta is tested row by row: each edge against all later
    edges, on the all-pairs distance matrix.
    """
    import numpy as np

    m = len(edges)
    D = _distance_matrix(S)
    # labels point straight at their class roots: a union-find forest of depth one
    parent = np.array(labels, dtype=np.int64)
    size = np.bincount(parent, minlength=m).astype(np.int64)
    U = np.fromiter((e[0] for e in edges), dtype=np.int64, count=m)
    V = np.fromiter((e[1] for e in edges), dtype=np.int64, count=m)
    for a in range(m - 1):
        x, y = edges[a]
        dx = D[x]
        dy = D[y]
        Ur = U[a + 1 :]
        Vr = V[a + 1 :]
        rel = (dx[Ur] + dy[Vr]) != (dx[Vr] + dy[Ur])
        idx = np.flatnonzero(rel)
        if idx.size == 0:
            continue
        idx += a + 1
        ra = _find(parent, a)
        for rb in np.unique(_roots_of(parent, idx)):
            ra = _union(parent, size, ra, int(rb))
    return [_find(parent, a) for a in range(m)]


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
    n = S.n
    if colors.keys() != S.tags.keys():
        raise ValueError("colors must cover exactly the edges of S")
    if n == 1:
        return (), Coordinatization((), ((),), 0)
    k = max(colors.values()) + 1
    if set(colors.values()) != set(range(k)):
        raise ValueError("colors must be 0..k-1 with every value used")
    if B is None:
        B = bfs(S, root)
    elif B.root != root:
        raise ValueError("BFS root differs from the factorization root")
    adj = S.adj

    factors = []
    locs: list[dict[int, int]] = []
    owner = [-1] * n  # the unit layer holding v; -1 for the root and off-layer
    for a in range(k):
        seen = {root}
        stack = [root]
        while stack:
            x = stack.pop()
            for w in adj[x]:
                if w not in seen and colors[(x, w) if x < w else (w, x)] == a:
                    if owner[w] >= 0:
                        raise FactorizationError(
                            f"the unit layers of colors {owner[w]} and {a} share "
                            f"vertex {w}"
                        )
                    owner[w] = a
                    seen.add(w)
                    stack.append(w)
        loc = {h: i for i, h in enumerate(sorted(seen))}
        ztags = {}
        for x in loc:
            for w in adj[x]:
                if x < w and w in loc:
                    c = colors[(x, w)]
                    if c != a:
                        raise FactorizationError(
                            f"unit layer of color {a} induces an edge of color {c}"
                        )
                    ztags[(loc[x], loc[w])] = S.tags[(x, w)]
        factors.append(ShadowGraph(len(loc), ztags))
        locs.append(loc)

    coords: list[tuple[int, ...]] = [()] * n
    coords[root] = tuple(loc[root] for loc in locs)
    for v in B.order[1:]:
        down = B.down[v]
        u = down[0]
        a = colors[(u, v) if u < v else (v, u)]
        for w in down[1:]:
            if colors[(w, v) if w < v else (v, w)] != a:
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
    for (u, v), c in colors.items():
        a, b = coords[u][c], coords[v][c]
        if codes[v] - codes[u] != (b - a) * st[c] or a == b:
            diffs = [i for i in range(k) if coords[u][i] != coords[v][i]]
            raise FactorizationError(
                f"edge ({u}, {v}) of color {c} changes coordinates {diffs}"
            )
        if not factors[c].has_edge(a, b):
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
    arcs = set()
    for u, v in Z.tags:
        arcs.add((u, v))
        arcs.add((v, u))
    return DiGraph(Z.n, arcs, frozenset())


def shadow_factorization_of_product(
    G: DiGraph, C: Coordinatization
) -> ShadowFactorization:
    """Assemble the prime shadow factorization of a product built with known
    coordinates, factoring each factor's shadow separately and composing.

    This is how a caller that constructed the product itself (benchmarks,
    tests) provides the precomputed shadow factorization without rerunning
    the relation scan on the full graph.
    """
    from .core import shadow as _shadow

    k = C.k
    subs = []
    offsets = []
    total = 0
    for i in range(k):
        Fi = C.factors[i]
        Si = _shadow(Fi)
        SFi = factor_shadow(Si, C.coords[C.root][i])
        subs.append(SFi)
        offsets.append(total)
        total += len(SFi.factors)

    colors: dict[tuple[int, int], int] = {}
    S = _shadow(G)
    for u, v in S.tags:
        cu, cv = C.coords[u], C.coords[v]
        diffs = [i for i in range(k) if cu[i] != cv[i]]
        if len(diffs) != 1:
            raise FactorizationError(
                f"edge ({u}, {v}) changes {len(diffs)} coordinates"
            )
        i = diffs[0]
        a, b = cu[i], cv[i]
        e = (a, b) if a < b else (b, a)
        colors[(u, v)] = offsets[i] + subs[i].colors[e]

    factors = tuple(Z for SFi in subs for Z in SFi.factors)
    coords = tuple(
        tuple(
            c
            for i in range(k)
            for c in subs[i].coordin.coords[C.coords[v][i]]
        )
        for v in range(G.n)
    )
    coordin = Coordinatization(
        tuple(F for SFi in subs for F in SFi.coordin.factors), coords, C.root
    )
    return ShadowFactorization(C.root, colors, factors, coordin)
