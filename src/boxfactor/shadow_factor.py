"""Prime factorization of a connected undirected shadow.

The prime factors of a connected graph are read off the classes of
sigma = (Theta u tau)*, the transitive closure of two edge relations:
  Theta  e = xy and f = uv have asymmetric endpoint distances,
         d(x,u) + d(y,v) != d(x,v) + d(y,u);
  tau    e and f share an endpoint and lie on no common chordless square.
Computing Theta directly needs all-pairs distances and every pair of edges.

Instead, `factor_shadow` climbs a ladder of edge colourings and checks each
rung exactly with `coordinates_from_colors`, which accepts only a product
colouring. Its final test is the proof: a labelling that is a bijection
onto the grid of the unit layers, under which every edge steps only its own
digit along an edge of its layer, with matching edge counts, makes S their
product (Hammack, Imrich and Klavzar, Handbook of Product Graphs), so that
unit layers meet only in the root follows and is not checked. The factor
classes of any product decomposition are unions of sigma classes, so an
accepted colouring is sigma whenever it refines sigma: the first rung
accepted is the factorization, whichever rung that is. All rungs merge
one `ColorPartition` of the root colours, one per root edge, and a rung is
checked only when it merged classes of the one before:

1. Colour propagation (`_propagate`), after Imrich and Peterin's linear
   recognition of Cartesian products: one sweep over the BFS order gives
   every edge one root colour, copied from an edge one level lower, and
   merges two colours' classes when two squares disagree. A down-edge is
   coloured at its upper end, a cross-edge at its later end in BFS order.
   With u the first down-neighbour of v:
   - two root edges ra, rw merge unless the common neighbours of a and w
     are r and one x off N(r), x's down-neighbours are a and w only, and
     deg x + deg r = deg a + deg w (adjacent a and w need no test: the
     triangle rule below merges them at the cross-edge aw);
   - another down-edge vw takes vu's colour on a triangle (w ~ u); when
     some x is a down-neighbour of both u and w, vw copies ux and vu copies
     wx (the copies of later such w merge into vu's); otherwise vw takes
     vu's colour;
   - when no other down-edge spans such a square with vu (a v below level
     1 with one down-neighbour included), vu copies u's first down-edge
     and all of u's down-edge colours merge;
   - a cross-edge vy takes vu's colour, merged with yu's, on a triangle
     (u ~ y); for each x that is a down-neighbour of y and a cross-neighbour
     of u but not a neighbour of v, vy copies ux and vu merges with yx;
     otherwise vy takes vu's colour.
   The colouring refines sigma. In a prime graph sigma is one class. In a
   nontrivial product every copy and merge stays in one sigma class: the
   opposite edges of a chordless square and the edges of a triangle are
   Theta-related in any graph; root edges of two factors pass every root
   test, so a pair failing one lies in one factor; a v whose tree edge
   spans no down-square with another down-edge has all its down-edges in
   one factor, so v and u lie in one unit layer with all of u's
   down-edges; and a down- or cross-edge at v that spans no level square
   with vu lies in vu's factor, since two edges of different factors span
   the product square, whose far corner is one level below the upper
   ones. On products the colouring is almost always sigma itself and is
   accepted; nothing rests on that. The sweep does O(1) bisections of the
   sorted adjacency lists per pair of a down- or cross-edge and a
   down-neighbour, O(m) on bounded down-degrees.
2. delta* (`_close_pairs`), for a rejected rung 1, joins rung 1's classes.
   At every vertex v each pair of edges va, vw is tested: a pair on no
   chordless square is tau and joins the classes of its colours, otherwise
   each chordless square v-a-x-w joins those of its opposite edges, at the
   square's smallest corner only. This closes delta: tau plus the opposite
   edges of every chordless square, in O(sum over v of deg(v)^2 times the
   degree of a neighbour). It stops once one class is left.
3. Theta, for graphs that are locally but not globally a product, such as
   a Moebius ladder, one BFS-tree edge after another. An edge xy is
   Theta-related to uv exactly when d(u,x) - d(v,x) != d(u,y) - d(v,y), so
   two BFS distance rows, from u and from v, give all of them in one sweep
   over the edges, whose classes are joined. With Theta_T the pairs of an
   edge of a spanning tree T and an edge Theta-related to it, sigma is
   (Theta_T u tau)* (Feder, Product graph representations, J. Graph Theory
   16, 1992), and delta* joined every tau pair: after the tree edges the
   classes are sigma, and the check accepts them. So Theta takes at most
   n - 1 steps, O(n + m) memory and O(n*(n + m)) time.

Each rung refines sigma, so no input costs more than rung 1, the delta*
closure and Theta plus their failed checks; every check after the first
follows a merge of root colours, so there are at most deg(root) checks. The
rungs work on the edge ids of the shadow and look an edge up by its ids'
alignment with the sorted adjacency lists. The classes are numbered by
their smallest root colour, which is BFS order from the root, and
`coordinates_from_colors` turns them into unit-layer factors and vertex
coordinates.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from math import prod

from .core import BfsOrder, DiGraph, ShadowGraph, _sweep, bfs, shadow
from .errors import FactorizationError
from .product import ColorPartition, Coordinatization


@dataclass(frozen=True, eq=False)
class ShadowFactorization:
    """Edge coloring of a shadow into prime factor classes.

    `colors` maps each edge (keyed (min, max)) to a color in 0..k-1;
    `factor_shadow` inserts the edges in the shadow's edge-id order, so the
    values, in order, are the color of edge 0, 1, ... The factor of color j
    is `factors[j]`, an undirected layer with local ids in ascending host id
    order: the shadow of `coordin.factors[j]`, the layer as a both-ways
    DiGraph. `coordin` gives every vertex of the shadow the mixed-radix code
    of its local factor ids. Color numbering follows the BFS order from
    `root`: classes are sorted by the smallest (bfsnum, bfsnum) endpoint pair
    among their edges.
    """

    root: int
    colors: dict[tuple[int, int], int]
    factors: tuple[ShadowGraph, ...]
    coordin: Coordinatization


def factor_shadow(S: ShadowGraph, root: int) -> ShadowFactorization:
    """Factor a connected shadow into its prime layers through `root`."""
    B = bfs(S, root)
    if S.n == 1:
        return ShadowFactorization(root, {}, (), Coordinatization((), ((),), 0))
    colors, coordin = _factored(S, B)
    factors = tuple(map(shadow, coordin.factors))
    return ShadowFactorization(root, dict(zip(S.ends, colors)), factors, coordin)


def _factored(S: ShadowGraph, B: BfsOrder) -> tuple[list[int], Coordinatization]:
    """`factor_shadow` on S, of two or more vertices, from the root of its
    BFS order B, trusted: the colour of every edge by edge id, and the
    coordinates. `factor_full` reads only the coordinates, so it calls this
    and never builds the colour dict."""
    for colors in _ladder(S, B):
        try:
            return colors, _coordinates(S, colors, B)
        except FactorizationError:
            pass  # finer than sigma: next rung; unbound, so no traceback cycle
    raise FactorizationError("the last rung, sigma itself, was rejected: a bug")


def _ladder(S: ShadowGraph, B: BfsOrder) -> Iterator[list[int]]:
    """The colourings of the edges of S that `factor_shadow` checks, by edge
    id, each refining sigma: colour propagation, then its classes joined by
    delta*, then by the Theta relations of each BFS-tree edge, the last
    being sigma (Feder). All three merge one partition of the root colours,
    so a rung is yielded only when it merged classes of the rung before.
    """
    P = ColorPartition(len(S.adj[B.root]))
    col = _propagate(S, B, P)
    yield _numbered(col, P)
    if _close_pairs(S, col, P):
        yield _numbered(col, P)
    for v in B.order[1:]:
        u = B.down[v][0]
        if _join_theta(S, col, P, (u, v) if u < v else (v, u)):
            yield _numbered(col, P)


def _numbered(col: list[int], P: ColorPartition) -> list[int]:
    """The colour of every edge: the number of the class in P of its root
    colour, classes numbered by their smallest root colour. That is their
    smallest (bfsnum, bfsnum) pair, as every class holds a root edge."""
    number = [0] * P.k
    for i, members in enumerate(P.classes()):
        for c in members:
            number[c] = i
    return [number[c] for c in col]


def _join(P: ColorPartition, a: int, b: int) -> bool:
    """Merge the classes of the colours a and b of P; report if they differed."""
    table = P.table
    if table[a] == table[b]:
        return False
    P.merge((table[a], table[b]))
    return True


def _propagate(S: ShadowGraph, B: BfsOrder, P: ColorPartition) -> list[int]:
    """Rung 1: the root colour of every edge of S by edge id, propagated
    from the root's edges along B under the rules of the module docstring,
    merging root colours in P, a fresh partition of the root's deg colours.

    The root edge to the i-th neighbour of the root starts with colour i.
    """
    adj = S.adj
    inc = S.inc
    down = B.down
    cross = B.cross
    root = B.root
    col = [-1] * len(S.ends)
    rn = adj[root]
    k = len(rn)

    for c, e in enumerate(inc[root]):
        col[e] = c
    # The root pairs ra, rw that pass every root test, by colour: a and w
    # have two common neighbours, r and a level-2 x with down-neighbours a
    # and w only, and deg x + deg r = deg a + deg w. Every other pair merges.
    pos = {a: i for i, a in enumerate(rn)}
    corner: dict[tuple[int, int], int] = {}
    for x in B.order[k + 1 :]:
        if B.level[x] > 2:
            break
        if len(down[x]) == 2:
            corner[down[x]] = x
    passes: list[set[int]] = [set() for _ in range(k)]
    for (a, w), x in corner.items():
        na = adj[a]
        if (
            len(adj[x]) + k == len(na) + len(adj[w])
            and len(set(na).intersection(adj[w])) == 2
        ):
            passes[pos[a]].add(pos[w])
            passes[pos[w]].add(pos[a])
    # the classes are the components of the complement of `passes`, found
    # in O(k + len(passes)): each step keeps only the unreached colours that
    # pass with i
    rest = set(range(k))
    for s in range(k):
        if s not in rest:
            continue
        rest.discard(s)
        todo = [s]
        for i in todo:
            keep = rest.intersection(passes[i])
            todo += rest - keep
            rest = keep
        P.merge(todo)

    # the down-edges below level 1, at their upper ends; u is the tree
    # neighbour of v, and cu becomes the colour of vu
    merged = bytearray(S.n)  # all of u's down-edge colours merged
    for v in B.order[k + 1 :]:
        dv = down[v]
        u = dv[0]
        nb = adj[v]
        ids = inc[v]
        du = down[u]
        cu = -1
        same = [ids[bisect_left(nb, u)]]  # edges that take vu's colour
        for w in dv[1:]:
            e = ids[bisect_left(nb, w)]
            if w in cross[u]:
                same.append(e)
                continue
            dw = down[w]
            for x in du:
                if x in dw:
                    break
            else:
                same.append(e)
                continue
            col[e] = col[inc[u][bisect_left(adj[u], x)]]
            c = col[inc[w][bisect_left(adj[w], x)]]
            if cu >= 0:
                _join(P, cu, c)
            cu = c
        if cu < 0:  # v and u lie in one unit layer
            au = adj[u]
            iu = inc[u]
            cu = col[iu[bisect_left(au, du[0])]]
            if not merged[u]:
                merged[u] = 1
                for x in du[1:]:
                    _join(P, cu, col[iu[bisect_left(au, x)]])
        for e in same:
            col[e] = cu
    # the cross-edges, at their later ends in BFS order
    bn = B.bfsnum
    for v in B.order[1:]:
        cv = cross[v]
        if not cv:
            continue
        b = bn[v]
        nb = adj[v]
        ids = inc[v]
        dv = down[v]
        u = dv[0]
        au = adj[u]
        iu = inc[u]
        cu = col[ids[bisect_left(nb, u)]]
        for y in cv:
            if bn[y] > b:
                continue
            ay = adj[y]
            iy = inc[y]
            dy = down[y]
            e = ids[bisect_left(nb, y)]
            if u in dy:  # a triangle
                col[e] = cu
                _join(P, cu, col[iy[bisect_left(ay, u)]])
                continue
            c = -1  # the colour of vy, from the far edges ux of squares v-u-x-y
            for x in dy:
                if x in dv:
                    continue
                i = bisect_left(au, x)
                if i == len(au) or au[i] != x:
                    continue
                if c >= 0:
                    _join(P, c, col[iu[i]])
                c = col[iu[i]]
                _join(P, cu, col[iy[bisect_left(ay, x)]])
            col[e] = cu if c < 0 else c
    return col


def _close_pairs(S: ShadowGraph, col: list[int], P: ColorPartition) -> bool:
    """Close delta in P, a partition of the colours `col` of S's edges by
    edge id: at every vertex v, join the classes of each pair of edges va,
    vw on no chordless square, and of the opposite edges of each chordless
    square v-a-x-w whose smallest corner is v. Reports whether any two
    classes merged. Stops at the first vertex that finds one class left,
    as nothing can merge any more.
    """
    adj = S.adj
    inc = S.inc
    nbrs = list(map(set, adj))
    start = live = len(P)  # each join that merges leaves one class fewer
    for v, nb in enumerate(adj):
        if live == 1:
            break
        nv = nbrs[v]
        ids = inc[v]
        for i, a in enumerate(nb):
            na = nbrs[a]
            off = na - nv  # with v dropped: the far corners of squares on va
            off.discard(v)
            ca = col[ids[i]]
            for w, iw in zip(nb[i + 1 :], ids[i + 1 :]):
                # a, w adjacent: every square on va, vw has a chord
                far = () if w in na else off & nbrs[w]
                if not far:
                    live -= _join(P, ca, col[iw])
                elif v < a:  # the lists are sorted, so a < w
                    for x in far:
                        if v < x:
                            live -= _join(P, ca, col[inc[w][bisect_left(adj[w], x)]])
                            live -= _join(P, col[iw], col[inc[a][bisect_left(adj[a], x)]])
    return live < start


def _join_theta(
    S: ShadowGraph, col: list[int], P: ColorPartition, e: tuple[int, int]
) -> bool:
    """Join in P the classes of the colours `col` (by edge id) of all edges
    Theta-related to e; report whether any two classes merged.

    For e = uv, xy is Theta-related exactly when d(u,x) - d(v,x) differs
    from d(u,y) - d(v,y); e itself is. O(n + m) time and memory.
    """
    g = [a - b for a, b in zip(_sweep(S, e[0])[1], _sweep(S, e[1])[1])]
    table = P.table
    joined = {table[c] for (x, y), c in zip(S.ends, col) if g[x] != g[y]}
    if len(joined) == 1:
        return False
    P.merge(joined)
    return True


def coordinates_from_colors(
    S: ShadowGraph, root: int, colors: dict[tuple[int, int], int]
) -> tuple[tuple[ShadowGraph, ...], Coordinatization]:
    """Turn an edge coloring into unit-layer factors and vertex coordinates.

    The unit layer of color a is the component of `root` in the color-a
    subgraph, with its color-a edges only. Each layer is built once, as a
    both-ways DiGraph, the factor of the returned coordinates; the returned
    factors are their shadows. Coordinates are filled as mixed-radix codes
    in the BFS order from the root: a vertex takes the code of a
    down-neighbour u with one digit replaced, in one stride step. That is
    digit a, the color of edge vu, which it reads from a down-neighbour of
    another color, or, when it has none, takes as its own local id in the
    unit layer of a. O(m + k*deg(root)) in all, with no tuple per vertex.

    Raises FactorizationError when a vertex with down-edges of one color
    only is off that color's unit layer, or the final test fails: the
    labeling is a bijection onto the grid, every edge steps exactly its own
    coordinate along a factor edge, and the grid has no edges S lacks. That
    test alone proves that S is the product of the returned layers, with
    `colors` the product coloring; that the unit layers meet only in the
    root and induce no other color follows from it.
    """
    ends = S.ends
    if len(colors) != len(ends) or not all(map(colors.__contains__, ends)):
        raise ValueError("colors must cover exactly the edges of S")
    B = bfs(S, root)
    if S.n == 1:
        return (), Coordinatization((), ((),), 0)
    k = max(colors.values()) + 1
    if set(colors.values()) != set(range(k)):
        raise ValueError("colors must be 0..k-1 with every value used")
    coordin = _coordinates(S, [colors[e] for e in ends], B)
    return tuple(map(shadow, coordin.factors)), coordin


def _coordinates(S: ShadowGraph, colors: list[int], B: BfsOrder) -> Coordinatization:
    """`coordinates_from_colors` from the root of B on valid inputs, with the
    colors of S's edges listed by edge id, over the unit layers as both-ways
    DiGraphs."""
    n = S.n
    root = B.root
    k = max(colors) + 1
    adj = S.adj
    inc = S.inc

    factors = []
    locs: list[dict[int, int]] = []
    for a in range(k):
        seen = {root}
        stack = [root]
        while stack:
            x = stack.pop()
            for w, e in zip(adj[x], inc[x]):
                if w not in seen and colors[e] == a:
                    seen.add(w)
                    stack.append(w)
        loc = {h: i for i, h in enumerate(sorted(seen))}
        arcs = []
        for x, i in loc.items():
            for w, e in zip(adj[x], inc[x]):
                if x < w and colors[e] == a:
                    arcs += ((i, loc[w]), (loc[w], i))
        factors.append(DiGraph._unchecked(len(loc), arcs, ()))
        locs.append(loc)

    # codes in BFS order: v takes u's code with digit a, the colour of edge
    # vu, replaced; digit a of code c is c // st[a] % sizes[a]
    sizes = [len(loc) for loc in locs]
    st = [prod(sizes[a + 1 :]) for a in range(k)]
    codes = [0] * n
    codes[root] = sum(loc[root] * s for loc, s in zip(locs, st))
    for v in B.order[1:]:
        down = B.down[v]
        nb = adj[v]
        ids = inc[v]
        u = down[0]
        a = colors[ids[bisect_left(nb, u)]]
        s = st[a]
        for w in down[1:]:
            if colors[ids[bisect_left(nb, w)]] != a:
                x = codes[w] // s % sizes[a]
                break
        else:
            x = locs[a].get(v)
            if x is None:
                raise FactorizationError(
                    f"vertex {v} has down-edges of color {a} only but is off "
                    f"its unit layer"
                )
        cu = codes[u]
        codes[v] = cu + (x - cu // s % sizes[a]) * s

    coordin = Coordinatization._of_codes(factors, codes, root)
    coordin.vertex_at  # force the injectivity check

    # every edge must step exactly its own coordinate along a factor edge;
    # it changes no other digit exactly when it shifts the code by the
    # step in its own digit times that digit's place value
    for (u, v), c in zip(S.ends, colors):
        s, size = st[c], sizes[c]
        a, b = codes[u] // s % size, codes[v] // s % size
        if codes[v] - codes[u] != (b - a) * s:
            diffs = [
                i for i in range(k) if codes[u] // st[i] % sizes[i] != codes[v] // st[i] % sizes[i]
            ]
            raise FactorizationError(
                f"edge ({u}, {v}) of color {c} changes coordinates {diffs}"
            )
        if (a, b) not in factors[c].arcs:
            raise FactorizationError(
                f"edge ({u}, {v}) does not project to an edge of factor {c}"
            )
    # the labeling is a bijection onto the grid and maps edges to grid edges,
    # so S is the product of the layers exactly when the edge counts agree
    grid_edges = sum(len(F.arcs) // 2 * (n // F.n) for F in factors)
    if grid_edges != len(colors):
        raise FactorizationError(
            f"the layers multiply to {grid_edges} edges, the graph has {len(colors)}"
        )
    return coordin
