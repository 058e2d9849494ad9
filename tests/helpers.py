"""Shared builders for the test suite."""

from __future__ import annotations

import itertools
import random

from collections import deque

from hypothesis import strategies as st

from boxfactor import (
    BfsOrder,
    ColorPartition,
    Coordinatization,
    CoordVector,
    DiGraph,
    DirectedFactorization,
    DisconnectedGraphError,
    FactorizationError,
    GraphFormatError,
    OracleBoundError,
    ShadowFactorization,
    ShadowGraph,
    bfs,
    cartesian_product,
    coordinates_from_colors,
    group_coordinates,
    shadow,
    unit_layer,
)
from boxfactor import core, directed_factor, oracle


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


def shadow_graph(n: int, edges) -> ShadowGraph:
    """The shadow on n vertices with the given edges, each a pair of
    distinct vertices in either order, made as every shadow is: by `shadow`."""
    return shadow(DiGraph(n, edges))


def naive_shadow_adj(G: DiGraph) -> tuple[tuple[int, ...], ...]:
    """Reference for `shadow(G).adj`: each vertex's neighbours over its
    arcs either way, deduplicated by a set and sorted."""
    return tuple(
        tuple(sorted({v for u, v in G.arcs if u == x} | {u for u, v in G.arcs if v == x}))
        for x in range(G.n)
    )


def both_ways(S: ShadowGraph) -> DiGraph:
    """The loopless DiGraph with both arcs along every edge of S."""
    return DiGraph(S.n, {a for u, v in S.ends for a in ((u, v), (v, u))})


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


def klein_bottle_grid(m: int, n: int) -> DiGraph:
    """Both-ways m x n Klein-bottle grid: the torus grid C_m x P_n, vertex
    (i, j) at i*n + j, with row n-1 joined to row 0 through i -> -i, that
    is (i, n-1) -- (-i mod m, 0).

    Locally it is a product of a cycle and a path; for m >= 3 it is prime.
    """
    arcs = set()
    for i in range(m):
        for j in range(n):
            u = i * n + j
            for v in ((i + 1) % m * n + j, u + 1 if j < n - 1 else -i % m * n):
                arcs.add((u, v))
                arcs.add((v, u))
    return DiGraph(m * n, arcs, set())


def pendant_grid(A: int) -> DiGraph:
    """Both-ways P_A x P_3, vertex (a, b) at 3a + b, with one pendant
    vertex, 3A, joined to (A - 1, 0).

    Rung 1 of the shadow ladder is rejected on it, and only delta* leads to
    sigma: the pendant edge is Theta-related only to itself.
    """
    P, _ = cartesian_product([undirected_path(A), undirected_path(3)])
    v = (A - 1) * 3
    return DiGraph(P.n + 1, P.arcs | {(v, P.n), (P.n, v)}, set())


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
        if has_edge(S, a, b):
            return False
        return any(
            x != p and has_edge(S, x, b) and not has_edge(S, x, p) for x in S.adj[a]
        )

    edges = sorted(S.ends)
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


def naive_square_closure(S: ShadowGraph, edges: list[tuple[int, int]]) -> list[int]:
    """Class label of every edge under delta*, for edges indexed as in `edges`.

    Every pair of edges at every vertex is tested. At each vertex v, two
    incident edges vu, vw are joined when they span no chordless square
    (relation tau); otherwise each chordless square v-u-x-w joins its
    opposite edges, vu with wx and vw with ux. A square is joined only from
    its smallest corner, which sees it exactly once. The label of an edge is
    the index of its class's root edge.
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


PROPAGATION_RULES = (
    "root-common",
    "root-down",
    "root-degree",
    "square-merge",
    "unit-merge",
    "cross-triangle-merge",
    "cross-square-merge",
)


def naive_propagate(S: ShadowGraph, B: BfsOrder, drop=()) -> list[int]:
    """Class label of every edge under rung 1 of `factor_shadow`, colour
    propagation, for edges indexed as in `sorted(S.ends)`.

    Every rule is a join of two edges, made on edge pairs with neighbour
    sets. `drop` names rules of `PROPAGATION_RULES` to leave out: a dropped
    root test counts as passed, a dropped merge is not made (the copies stay).
    The label of an edge is the index of its class's root edge.
    """
    edges = sorted(S.ends)
    eidx = {e: i for i, e in enumerate(edges)}
    parent = list(range(len(edges)))
    nbrs = [set(nb) for nb in S.adj]

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    def join(p: int, q: int, r: int, s: int) -> None:
        # the edges pq and rs
        parent[find(eidx[(r, s) if r < s else (s, r)])] = find(
            eidx[(p, q) if p < q else (q, p)]
        )

    r = B.root
    for a, w in itertools.combinations(S.adj[r], 2):
        common = nbrs[a] & nbrs[w]
        x = max(common - {r}, default=-1)
        tests = {
            "root-common": len(common) == 2 and x not in nbrs[r],
            "root-down": set(B.down[x]) == {a, w} if x >= 0 else False,
            "root-degree": len(nbrs[x]) + len(nbrs[r]) == len(nbrs[a]) + len(nbrs[w]),
        }
        if not all(ok or name in drop for name, ok in tests.items()):
            join(r, a, r, w)
    for v in B.order:
        if B.level[v] < 2:
            continue
        u = B.down[v][0]
        squares = 0
        for w in B.down[v][1:]:
            xs = set(B.down[u]) & set(B.down[w])
            if w in nbrs[u] or not xs:
                join(v, u, v, w)
                continue
            x = min(xs)
            join(v, w, u, x)
            squares += 1
            if squares == 1 or "square-merge" not in drop:
                join(v, u, w, x)
        if not squares:
            join(v, u, u, B.down[u][0])
            if "unit-merge" not in drop:
                for x in B.down[u]:
                    join(u, x, u, B.down[u][0])
    for v in B.order:
        u = B.down[v][0] if B.down[v] else -1
        for y in B.cross[v]:
            if B.bfsnum[y] > B.bfsnum[v]:
                continue
            if u in B.down[y]:
                join(v, y, v, u)
                if "cross-triangle-merge" not in drop:
                    join(v, y, y, u)
                continue
            xs = [x for x in B.down[y] if x in nbrs[u] and x not in nbrs[v]]
            for x in xs:
                join(v, y, u, x)
                if "cross-square-merge" not in drop:
                    join(v, u, y, x)
            if not xs:
                join(v, y, v, u)
    return [find(a) for a in range(len(edges))]


def naive_factor_shadow(S: ShadowGraph, root: int) -> ShadowFactorization:
    """Reference for `factor_shadow`: the delta* classes of
    `naive_square_closure`, then the Theta relations of one edge after
    another in `theta_order`, checked after each edge that merges classes."""
    if S.n == 1:
        return ShadowFactorization(root, {}, (), Coordinatization((), ((),), 0))
    B = bfs(S, root)
    edges = sorted(S.ends)
    labels = naive_square_closure(S, edges)
    steps = theta_order(B, edges)
    while True:
        colors = dict(zip(edges, number_classes(edges, labels, B.bfsnum)))
        try:
            factors, coordin = coordinates_from_colors(S, root, colors)
            return ShadowFactorization(root, colors, factors, coordin)
        except FactorizationError:
            if not any(join_theta(S, edges, labels, e) for e in steps):
                raise


def number_classes(
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


def theta_order(B: BfsOrder, edges: list[tuple[int, int]]):
    """The edges whose Theta relations are added, in order: the BFS-tree
    edges in BFS order, then the others in `edges` order."""
    tree = [(u, v) if u < v else (v, u) for v in B.order[1:] for u in B.down[v][:1]]
    yield from tree
    in_tree = set(tree)
    yield from (e for e in edges if e not in in_tree)


def join_theta(
    S: ShadowGraph, edges: list[tuple[int, int]], labels: list[int], e: tuple[int, int]
) -> bool:
    """Join the classes of all edges Theta-related to e = uv in `labels`,
    in place, from BFS distance rows; report whether two classes merged."""
    du = naive_bfs(S, e[0]).level
    dv = naive_bfs(S, e[1]).level
    joined = {labels[i] for i, (x, y) in enumerate(edges) if du[x] - dv[x] != du[y] - dv[y]}
    if len(joined) == 1:
        return False
    c = min(joined)
    labels[:] = [c if a in joined else a for a in labels]
    return True


def naive_coordinates_from_colors(
    S: ShadowGraph, root: int, colors: dict[tuple[int, int], int]
) -> tuple[tuple[ShadowGraph, ...], Coordinatization]:
    """Reference coordinatization, O(k*(n+m)): one component search per
    color over the edges of all other colors.

    The unit layer of color i is the component of `root` in the color-i
    subgraph. coordinate_i(v) is the unique vertex shared by the unit layer
    and the component of v in the subgraph of all other colors. Raises
    FactorizationError whenever that vertex is not unique, or the resulting
    labeling is not a bijection onto the grid, or some edge disagrees with
    the grid, or the grid has edges S lacks; all of these mean `colors` is
    not a product coloring. Accepting therefore proves that S is the product
    of the returned layers.
    """
    n = S.n
    if set(colors) != set(S.ends):
        raise ValueError("colors must cover exactly the edges of S")
    if n == 1:
        return (), Coordinatization((), ((),), 0)
    k = max(colors.values()) + 1
    if set(colors.values()) != set(range(k)):
        raise ValueError("colors must be 0..k-1 with every value used")

    by_color: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for e, c in colors.items():
        by_color[c].append(e)

    factors = []
    layer_local: list[dict[int, int]] = []
    coords = [[0] * k for _ in range(n)]
    for c in range(k):
        cadj: list[list[int]] = [[] for _ in range(n)]
        for u, v in by_color[c]:
            cadj[u].append(v)
            cadj[v].append(u)
        # unit layer: component of root using only color-c edges
        seen = {root}
        stack = [root]
        while stack:
            x = stack.pop()
            for w in cadj[x]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        hosts = sorted(seen)
        loc = {h: i for i, h in enumerate(hosts)}
        zedges = set()
        for u, v in by_color[c]:
            if u in loc and v in loc:
                a, b = loc[u], loc[v]
                zedges.add((a, b) if a < b else (b, a))
        # the layer must induce only its own color
        for u in hosts:
            for w in S.adj[u]:
                if w in loc and u < w and colors[(u, w)] != c:
                    raise FactorizationError(
                        f"unit layer of color {c} induces an edge of color "
                        f"{colors[(u, w)]}"
                    )
        Z = shadow_graph(len(hosts), zedges)
        factors.append(Z)
        layer_local.append(loc)

        # components of the subgraph on every other color
        oadj: list[list[int]] = [[] for _ in range(n)]
        for cc in range(k):
            if cc == c:
                continue
            for u, v in by_color[cc]:
                oadj[u].append(v)
                oadj[v].append(u)
        comp = [-1] * n
        for s in range(n):
            if comp[s] >= 0:
                continue
            comp[s] = s
            stack = [s]
            members = [s]
            while stack:
                x = stack.pop()
                for w in oadj[x]:
                    if comp[w] < 0:
                        comp[w] = s
                        stack.append(w)
                        members.append(w)
            inter = [x for x in members if x in loc]
            if len(inter) != 1:
                raise FactorizationError(
                    f"a component off color {c} meets the unit layer in "
                    f"{len(inter)} vertices; coloring is not a product coloring"
                )
            ci = loc[inter[0]]
            for x in members:
                coords[x][c] = ci

    coordin = Coordinatization(
        tuple(both_ways(Z) for Z in factors),
        tuple(tuple(cv) for cv in coords),
        root,
    )
    vertex_of(coordin)  # force the injectivity check

    # every edge must step exactly one grid coordinate inside its own factor
    for (u, v), c in colors.items():
        cu, cv = coordin.coords[u], coordin.coords[v]
        diffs = [i for i in range(k) if cu[i] != cv[i]]
        if diffs != [c]:
            raise FactorizationError(
                f"edge ({u}, {v}) of color {c} changes coordinates {diffs}"
            )
        a, b = cu[c], cv[c]
        if not has_edge(factors[c], a, b):
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


def product_square(
    S: ShadowGraph, colors, v: int, u: int, w: int
) -> int:
    """The fourth corner of the square on the differently colored edges vu, vw.

    Under a product coloring there is exactly one chordless square through
    v, u, w; its corner x opposite v satisfies color(ux) = color(vw) and
    color(wx) = color(vu). Raises FactorizationError when no or several
    candidates exist, which signals that `colors` is not a product coloring.
    """

    def key(a, b):
        return (a, b) if a < b else (b, a)

    for a, b in ((v, u), (v, w)):
        if not has_edge(S, a, b):
            raise ValueError(f"({a}, {b}) is not an edge")
    cvu = colors[key(v, u)]
    cvw = colors[key(v, w)]
    if cvu == cvw:
        raise ValueError("the two edges at v must have different colors")
    if has_edge(S, u, w):
        raise FactorizationError(
            f"no chordless square on ({v},{u}) and ({v},{w}): u and w are adjacent"
        )
    cands = []
    for x in S.adj[u]:
        if x == v or not has_edge(S, x, w) or has_edge(S, v, x):
            continue
        if colors[key(u, x)] == cvw and colors[key(w, x)] == cvu:
            cands.append(x)
    if len(cands) != 1:
        raise FactorizationError(
            f"{len(cands)} square completions for ({v},{u}),({v},{w}); "
            "coloring is not a product coloring"
        )
    return cands[0]


def merge_classes(P: ColorPartition, class_ids) -> int:
    """Functional spelling of ColorPartition.merge."""
    return P.merge(class_ids)


def class_of(P: ColorPartition, color: int) -> int:
    """Id of the live class of P holding the original color."""
    return P.table[color]


def live_ids(P: ColorPartition) -> list[int]:
    """The ids of the live classes of P, ascending."""
    return sorted(set(P.table))


def class_count(P: ColorPartition) -> int:
    """Number of live classes of P."""
    return len(P.classes())


def has_edge(S: ShadowGraph, u: int, v: int) -> bool:
    """Is uv an edge of S, in either order."""
    return v in S.adj[u]


def project_vertex(v: CoordVector, keep, root: CoordVector) -> CoordVector:
    """Coordinates of v's projection into the layer through `root` spanned by
    the positions in `keep`: kept positions stay, the rest snap to root."""
    if len(v) != len(root):
        raise ValueError("coordinate vectors must have equal length")
    ks = set(keep)
    for i in ks:
        if not 0 <= i < len(v):
            raise ValueError(f"position {i} out of range")
    return tuple(v[i] if i in ks else root[i] for i in range(len(v)))


def vertex_of(C: Coordinatization) -> dict[CoordVector, int]:
    """Inverse of `C.coords`; raises if the labeling is not injective."""
    table = {cv: v for v, cv in enumerate(C.coords)}
    if len(table) != len(C.coords):
        raise FactorizationError("coordinate labeling is not injective")
    return table


def min_degree(S: ShadowGraph) -> int:
    if S.n == 0:
        return 0
    return min(len(S.adj[v]) for v in range(S.n))


def dist(S: ShadowGraph, u: int, v: int):
    """Shadow distance between u and v; None when v is unreachable."""
    for x in (u, v):
        if not 0 <= x < S.n:
            raise ValueError(f"vertex {x} out of range")
    d = core._sweep(S, u)[1][v]
    return None if d < 0 else d


def naive_group_coordinates(G: DiGraph, C: Coordinatization, classes) -> Coordinatization:
    """Reference regrouping: one `unit_layer` scan of all arcs per block and
    projections looked up as coordinate tuples in `vertex_of`."""
    k = C.k
    rc = C.coords[C.root]
    vo = vertex_of(C)
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


def project(C: Coordinatization, v: int, positions) -> int:
    """The projection of v into the layer through C.root spanned by
    `positions`: v's coordinates there, the root's everywhere else."""
    cv = C.coords[v]
    rc = C.coords[C.root]
    st = C.strides
    code = C.codes[C.root]
    for j in positions:
        code += (cv[j] - rc[j]) * st[j]
    return C.vertex_at[code]


def loop_flags(G: DiGraph, C: Coordinatization, P: ColorPartition) -> int:
    """The live classes' loop flags ORed, as `_loop_scan` returns them: one
    byte per code, packed big-endian in an int, 1 when some column of P
    maps the code to the code of a looped vertex."""
    at = C.vertex_at
    cols = list(P.columns.values())
    flags = bytes(any(at[col[x]] in G.loops for col in cols) for x in range(G.n))
    return int.from_bytes(flags, "big")


def naive_factor_directed(G: DiGraph, SF, B=None) -> DirectedFactorization:
    """Reference direction scan: both ends of every down or cross edge are
    projected into the edge's class from their own coordinates, one
    `project` call each, with per-vertex (neighbour, colour) lists."""
    if B is None:
        B = bfs(shadow(G), SF.root)
    n = G.n
    k = len(SF.factors)
    P = ColorPartition(k)
    if n == 1:
        return DirectedFactorization(P, Coordinatization((), ((),), 0), 0)
    C = SF.coordin
    table = P.table
    arcs = G.arcs

    def colored(v, nbrs):
        return [(u, SF.colors[(u, v) if u < v else (v, u)]) for u in nbrs]

    merges = 0
    for v in B.order:
        seen = {}  # class id -> (members, v's projection); a merge ends v
        for u, c in colored(v, B.down[v]) + colored(v, B.cross[v]):
            i = table[c]
            if i not in seen:
                seen[i] = (P.members(i), project(C, v, P.members(i)))
            members, pv = seen[i]
            pu = project(C, u, members)
            if pv == v and pu == u:
                continue
            if ((v, u) in arcs) == ((pv, pu) in arcs) and ((u, v) in arcs) == (
                (pu, pv) in arcs
            ):
                continue
            ids = {table[cc] for _, cc in colored(v, B.down[v])}
            ids.add(i)
            P.merge(ids)
            merges += 1
            break
    coordin = group_coordinates(G, C, P.classes())
    return DirectedFactorization(P, coordin, merges)


def naive_factor_with_loops(G: DiGraph, NF, B=None) -> DirectedFactorization:
    """Reference loop scan: at every vertex, one `project` call per live
    class, over the live classes' member lists."""
    C = NF.coordin
    k = len(NF.factors)
    if k == 0:
        return NF
    if B is None:
        B = bfs(shadow(G), C.root)
    P = ColorPartition(k)
    live = P.classes()
    merges = 0
    for v in B.order:
        anyloop = any(project(C, v, members) in G.loops for members in live)
        if (v in G.loops) == anyloop:
            continue
        cv = C.coords[v]
        ids = set()
        for u in B.down[v]:
            cu = C.coords[u]
            ids.add(P.table[next(j for j in range(k) if cv[j] != cu[j])])
        if len(ids) < 2:
            raise FactorizationError("loop mismatch with nothing to merge")
        P.merge(ids)
        live = P.classes()
        merges += 1
    coordin = group_coordinates(G, C, live)
    return DirectedFactorization(P, coordin, merges)


def count_inconsistencies(G: DiGraph, SF, assignment, B=None) -> int:
    """Number of down/cross edges whose direction disagrees with their
    projection under a fixed class assignment (original color -> label).

    A factorization is a fixpoint of the direction scan exactly when this is
    zero for its final assignment; used to re-check the single scan's output.
    The inputs are checked as `factor_directed` checks them; each edge's
    ends are then projected into its class with `project`, and the two
    edges' arcs compared both ways.
    """
    B = directed_factor._edge_info(G, SF, B)
    k = len(SF.factors)
    if len(assignment) != k:
        raise ValueError("assignment must label every original color")
    groups: dict[int, list[int]] = {}
    for j, label in enumerate(assignment):
        groups.setdefault(label, []).append(j)
    C = SF.coordin
    arcs = G.arcs
    bad = 0
    for v in B.order:
        for u in B.down[v] + B.cross[v]:
            members = groups[assignment[SF.colors[(u, v) if u < v else (v, u)]]]
            pv, pu = project(C, v, members), project(C, u, members)
            if (pv, pu) == (v, u):
                continue
            if ((v, u) in arcs) != ((pv, pu) in arcs) or ((u, v) in arcs) != ((pu, pv) in arcs):
                bad += 1
    return bad


# --- references for breadth-first search ------------------------------------
#
# `bfs`, `is_connected` and `dist` as they were with a deque loop each, before
# they shared one sweep; the differential tests compare the library against
# these.


def naive_bfs(S: ShadowGraph, root: int) -> BfsOrder:
    n = S.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range")
    level = [-1] * n
    level[root] = 0
    order = [root]
    q = deque([root])
    while q:
        v = q.popleft()
        lv = level[v]
        for w in S.adj[v]:
            if level[w] < 0:
                level[w] = lv + 1
                order.append(w)
                q.append(w)
    if len(order) != n:
        raise DisconnectedGraphError(
            f"graph is disconnected: reached {len(order)} of {n} vertices"
        )
    bfsnum = [0] * n
    for i, v in enumerate(order):
        bfsnum[v] = i
    down = []
    cross = []
    for v in range(n):
        lv = level[v]
        down.append(tuple(w for w in S.adj[v] if level[w] == lv - 1))
        cross.append(tuple(w for w in S.adj[v] if level[w] == lv))
    return BfsOrder(
        root, tuple(order), tuple(bfsnum), tuple(level), tuple(down), tuple(cross)
    )


def naive_is_connected(S: ShadowGraph) -> bool:
    if S.n <= 1:
        return True
    seen = [False] * S.n
    seen[0] = True
    q = deque([0])
    count = 1
    while q:
        v = q.popleft()
        for w in S.adj[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                q.append(w)
    return count == S.n


def naive_dist(S: ShadowGraph, u: int, v: int):
    for x in (u, v):
        if not 0 <= x < S.n:
            raise ValueError(f"vertex {x} out of range")
    if u == v:
        return 0
    level = {u: 0}
    q = deque([u])
    while q:
        x = q.popleft()
        for w in S.adj[x]:
            if w not in level:
                if w == v:
                    return level[x] + 1
                level[w] = level[x] + 1
                q.append(w)
    return None


# --- references for the product builder and the text codec ------------------
#
# The row-major product, the relabeling check and the line-by-line codec as
# they were before the product was built in the caller's labels; the
# differential tests compare the library against these.


def naive_cartesian_product(factors):
    """Row-major product by a loop over every vertex's coordinate tuple;
    returns (graph, coords)."""
    factors = tuple(factors)
    sizes = [F.n for F in factors]
    coords = tuple(itertools.product(*(range(s) for s in sizes)))
    strides = [1] * len(factors)
    for i in range(len(factors) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    outs = []
    for F in factors:
        out: list[list[int]] = [[] for _ in range(F.n)]
        for a, b in F.arcs:
            out[a].append(b)
        outs.append(out)
    arcs = set()
    for v, cv in enumerate(coords):
        for i, out in enumerate(outs):
            ci = cv[i]
            for b in out[ci]:
                arcs.add((v, v + (b - ci) * strides[i]))
    loops = {
        v
        for v, cv in enumerate(coords)
        if any(cv[i] in factors[i].loops for i in range(len(factors)))
    }
    return DiGraph(len(coords), arcs, loops), coords


def naive_reconstruct_check_parts(G: DiGraph, factors, coords) -> bool:
    """Build the row-major product, relabel G into it through the inverse
    of the row-major coordinates, and compare."""
    factors = tuple(factors)
    coords = tuple(tuple(c) for c in coords)
    if not factors:
        return G.n == 1 and not G.loops and coords == ((),)
    if len(coords) != G.n:
        return False
    P, grid = naive_cartesian_product(factors)
    if P.n != G.n:
        return False
    to_grid = {cv: v for v, cv in enumerate(grid)}
    seen = set()
    relabel_to = []
    for v in range(G.n):
        w = to_grid.get(coords[v])
        if w is None or w in seen:
            return False
        seen.add(w)
        relabel_to.append(w)
    arcs = {(relabel_to[u], relabel_to[v]) for (u, v) in G.arcs}
    loops = {relabel_to[v] for v in G.loops}
    return arcs == P.arcs and loops == P.loops


def naive_brute_force_prime(G: DiGraph) -> bool:
    """Primality of a valid graph by handing every 2-coloring of its shadow
    edges (the first edge's color fixed) to the oracle's witness check,
    with no pruning by vertex or edge counts."""
    S = shadow(G)
    if G.n == 1:
        return False
    if G.n < 4:
        return True
    edges = sorted(S.ends)
    r = min(v for v in range(G.n) if v not in G.loops)
    for mask in range(1 << (S.edge_count - 1)):
        if oracle._split_witness(G, edges, mask, r):
            return False
    return True


def random_labeled_product(rng: random.Random, max_factors: int = 4):
    """1-4 random factors with loops (1-4 vertices each) and their product
    under a random labeling: returns (factors, coords, graph), where
    coords[v] is vertex v's coordinate tuple."""
    factors = [
        random_digraph(rng, rng.randint(1, 4), extra_prob=0.3, loop_prob=0.3)
        for _ in range(rng.randint(1, max_factors))
    ]
    P, grid = naive_cartesian_product(factors)
    perm = list(range(P.n))
    rng.shuffle(perm)
    coords = [None] * P.n
    for v, cv in enumerate(grid):
        coords[perm[v]] = cv
    return factors, coords, relabel(P, perm)


def _naive_id(token: str, lineno: int, what: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise GraphFormatError(f"{what} must be a nonnegative decimal, got {token!r}", lineno)
    return int(token)


def naive_parse_graph(text: str) -> DiGraph:
    """Line-by-line parser: strip, then split, each id through `_naive_id`."""
    n = None
    arcs: set[tuple[int, int]] = set()
    loops: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "n":
            if n is not None:
                raise GraphFormatError("duplicate n line", lineno)
            if len(parts) != 2:
                raise GraphFormatError("n line takes exactly one value", lineno)
            n = _naive_id(parts[1], lineno, "vertex count")
            if n < 1:
                raise GraphFormatError("vertex count must be positive", lineno)
        elif kind == "a":
            if n is None:
                raise GraphFormatError("arc line before n line", lineno)
            if len(parts) != 3:
                raise GraphFormatError("arc line takes exactly two ids", lineno)
            u = _naive_id(parts[1], lineno, "arc endpoint")
            v = _naive_id(parts[2], lineno, "arc endpoint")
            if u == v:
                raise GraphFormatError(f"arc ({u}, {v}) is a loop; use an l line", lineno)
            if u >= n or v >= n:
                raise GraphFormatError(f"arc ({u}, {v}) out of range for n={n}", lineno)
            if (u, v) in arcs:
                raise GraphFormatError(f"duplicate arc ({u}, {v})", lineno)
            arcs.add((u, v))
        elif kind == "l":
            if n is None:
                raise GraphFormatError("loop line before n line", lineno)
            if len(parts) != 2:
                raise GraphFormatError("loop line takes exactly one id", lineno)
            v = _naive_id(parts[1], lineno, "loop vertex")
            if v >= n:
                raise GraphFormatError(f"loop at {v} out of range for n={n}", lineno)
            if v in loops:
                raise GraphFormatError(f"duplicate loop at {v}", lineno)
            loops.add(v)
        elif kind == "c":
            continue
        else:
            raise GraphFormatError(f"unknown directive {kind!r}", lineno)
    if n is None:
        raise GraphFormatError("missing n line")
    return DiGraph(n, arcs, loops)


def naive_parse_coords(text: str) -> dict[int, tuple[int, ...]]:
    """Line-by-line reader of 'c' rows, each id through `_naive_id`."""
    table: dict[int, tuple[int, ...]] = {}
    width = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "c":
            continue
        if len(parts) < 2:
            raise GraphFormatError("coordinate line needs a vertex id", lineno)
        v = _naive_id(parts[1], lineno, "vertex id")
        cv = tuple(_naive_id(t, lineno, "coordinate") for t in parts[2:])
        if v in table:
            raise GraphFormatError(f"duplicate coordinates for vertex {v}", lineno)
        if width is None:
            width = len(cv)
        elif len(cv) != width:
            raise GraphFormatError(
                f"coordinate width {len(cv)} differs from earlier width {width}", lineno
            )
        table[v] = cv
    return table


def naive_to_text(G: DiGraph, coords=None) -> str:
    """Canonical text by sorting all arc pairs."""
    lines = [f"n {G.n}"]
    for u, v in sorted(G.arcs):
        lines.append(f"a {u} {v}")
    for v in sorted(G.loops):
        lines.append(f"l {v}")
    if coords is not None:
        for v, cv in enumerate(coords):
            lines.append("c " + " ".join(str(x) for x in (v, *cv)))
    return "\n".join(lines) + "\n"


def coords_to_text(coords) -> str:
    """Reference coordinate table writer: rows 'c <v> <c_1> ... <c_k>', one
    per vertex of the sequence `coords` (indexed by vertex), in vertex
    order, as `product.coords_text` writes them from codes."""
    return "".join(
        "c " + " ".join(map(str, (v, *cv))) + "\n" for v, cv in enumerate(coords)
    )


def iso_check(G: DiGraph, H: DiGraph, max_n: int = 10) -> bool:
    """Digraph-with-loops isomorphism by backtracking, bounded by `max_n`."""
    if G.n != H.n or len(G.arcs) != len(H.arcs) or len(G.loops) != len(H.loops):
        return False
    n = G.n
    if n > max_n:
        raise OracleBoundError(f"{n} vertices exceeds the isomorphism bound of {max_n}")
    if n == 0:
        return True

    def signatures(K: DiGraph):
        out = [[] for _ in range(n)]
        inn = [[] for _ in range(n)]
        for u, v in K.arcs:
            out[u].append(v)
            inn[v].append(u)
        base = [(len(out[v]), len(inn[v]), v in K.loops) for v in range(n)]
        return [
            (
                base[v],
                tuple(sorted(base[w] for w in out[v])),
                tuple(sorted(base[w] for w in inn[v])),
            )
            for v in range(n)
        ]

    sg = signatures(G)
    sh = signatures(H)
    if sorted(sg) != sorted(sh):
        return False
    cands = [[h for h in range(n) if sh[h] == sg[g]] for g in range(n)]
    order = sorted(range(n), key=lambda g: (len(cands[g]), g))
    garcs, harcs = G.arcs, H.arcs
    mapping = [-1] * n
    used = [False] * n

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        g = order[pos]
        for h in cands[g]:
            if used[h]:
                continue
            ok = True
            for q in range(pos):
                gp = order[q]
                hp = mapping[gp]
                if ((g, gp) in garcs) != ((h, hp) in harcs) or (
                    (gp, g) in garcs
                ) != ((hp, h) in harcs):
                    ok = False
                    break
            if ok:
                mapping[g] = h
                used[h] = True
                if extend(pos + 1):
                    return True
                used[h] = False
                mapping[g] = -1
        return False

    return extend(0)


def canonical_small_graphs(n: int):
    """One representative per isomorphism class of the valid inputs on n vertices.

    Valid means: connected as an undirected graph, loops allowed, at least
    one unlooped vertex. The representative is the graph whose (arc set, loop
    set) bitmask encoding is lexicographically minimal over all vertex
    permutations. Exhaustive in the arc masks, so only sensible for n <= 4.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    npairs = len(pairs)
    pidx = {p: i for i, p in enumerate(pairs)}
    perms = []
    for pi in itertools.permutations(range(n)):
        arcmap = [pidx[(pi[u], pi[v])] for (u, v) in pairs]
        perms.append((arcmap, pi))
    perms = perms[1:]  # identity never lowers the encoding
    allv = (1 << n) - 1

    for arcmask in range(1 << npairs):
        if n > 1:
            adjm = [0] * n
            for i in range(npairs):
                if arcmask >> i & 1:
                    u, v = pairs[i]
                    adjm[u] |= 1 << v
                    adjm[v] |= 1 << u
            reach = 1
            frontier = 1
            while frontier:
                nxt = 0
                for v in range(n):
                    if frontier >> v & 1:
                        nxt |= adjm[v]
                frontier = nxt & ~reach
                reach |= frontier
            if reach != allv:
                continue
        # keep only permutations fixing the arc mask; skip the mask entirely
        # if some permutation lowers it (then no loop mask can be canonical)
        auts = []
        lowered = False
        for arcmap, pi in perms:
            am = 0
            for i in range(npairs):
                if arcmask >> i & 1:
                    am |= 1 << arcmap[i]
            if am < arcmask:
                lowered = True
                break
            if am == arcmask:
                auts.append(pi)
        if lowered:
            continue
        for loopmask in range(1 << n):
            if loopmask == allv:
                continue  # need an unlooped vertex
            ok = True
            for pi in auts:
                lm = 0
                for v in range(n):
                    if loopmask >> v & 1:
                        lm |= 1 << pi[v]
                if lm < loopmask:
                    ok = False
                    break
            if ok:
                yield DiGraph(
                    n,
                    {pairs[i] for i in range(npairs) if arcmask >> i & 1},
                    {v for v in range(n) if loopmask >> v & 1},
                )


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
