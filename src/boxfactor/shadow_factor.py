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
   accepted; nothing rests on that. Every colour is kept in the edge's BFS
   slot: its position in B.down[v] of its upper end v, or in B.cross[v] of
   its later end v. The sweep reads another vertex's edge colour by its
   position in that vertex's down or cross tuple, a scan of that short
   tuple per pair of a down- or cross-edge and a down-neighbour, O(m) on
   bounded down-degrees. It keys no colour by its edge and searches no
   adjacency list.
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
follows a merge of root colours, so there are at most deg(root) checks.
Every rung only merges classes of rung 1's root colours, so each check reads
the same slots through a table from root colour to class number. The slots
are the one colour layout: only once rung 1 is rejected are their colours
keyed by edge, as (min, max) pairs, for delta* and Theta to walk. The
classes are numbered by their smallest root colour, which is BFS order from
the root, and `coordinates_from_colors` turns them into unit-layer factors
and vertex coordinates.
"""

from __future__ import annotations

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
    `factor_shadow` inserts the edges in ascending key order, the order of
    the shadow's `ends`. The factor of color j is `factors[j]`, an
    undirected layer with local ids in ascending host id order: the shadow
    of `coordin.factors[j]`, the layer as a both-ways DiGraph. `coordin` gives
    every vertex of the shadow the mixed-radix code of its local factor ids.
    Color numbering follows the BFS order from `root`: classes are sorted by
    the smallest (bfsnum, bfsnum) endpoint pair among their edges.
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
    slots, number, coordin = _factored(S, B)
    colors = {e: number[c] for e, c in sorted(_edge_colors(B, slots).items())}
    factors = tuple(map(shadow, coordin.factors))
    return ShadowFactorization(root, colors, factors, coordin)


def _factored(S: ShadowGraph, B: BfsOrder):
    """`factor_shadow` on S, of two or more vertices, from the root of its
    BFS order B, trusted: the root colour of every edge in its slots, as
    `_propagate` returns them, the number of each root colour's class in the
    accepted colouring, and the coordinates. `factor_full` reads only the
    coordinates, so it calls this and never keys a colour by its edge."""
    P = ColorPartition(len(S.adj[B.root]))
    slots = _propagate(S, B, P)
    for number in _ladder(S, B, slots, P):
        try:
            return slots, number, _coordinates(S, B, slots, number)
        except FactorizationError:
            pass  # finer than sigma: next rung; unbound, so no traceback cycle
    raise FactorizationError("the last rung, sigma itself, was rejected: a bug")


def _ladder(S: ShadowGraph, B: BfsOrder, slots, P: ColorPartition) -> Iterator[list[int]]:
    """The colourings of the edges of S that `factor_shadow` checks, each
    refining sigma, as the class number of every root colour: colour
    propagation, whose root colours `slots` holds and P partitions, then its
    classes joined by delta*, then by the Theta relations of each BFS-tree
    edge, the last being sigma (Feder). Each rung only merges classes of P,
    so the slots stay, and a rung is yielded only when it merged classes of
    the rung before. The later rungs walk the edges, so the slot colours
    are keyed by edge once, after rung 1 is rejected.
    """
    yield _numbered(P)
    col = _edge_colors(B, slots)
    if _close_pairs(S, col, P):
        yield _numbered(P)
    for v in B.order[1:]:
        u = B.down[v][0]
        if _join_theta(S, col, P, (u, v) if u < v else (v, u)):
            yield _numbered(P)


def _numbered(P: ColorPartition) -> list[int]:
    """The number of the class in P of every root colour, classes numbered
    by their smallest root colour. That is their smallest (bfsnum, bfsnum)
    pair, as every class holds a root edge."""
    number = [0] * P.k
    for i, members in enumerate(P.classes()):
        for c in members:
            number[c] = i
    return number


def _edge_colors(B: BfsOrder, slots) -> dict[tuple[int, int], int]:
    """The colour of every edge in `slots`, laid out as `_propagate` returns
    them over B, keyed (min, max)."""
    col = {}
    for lists, cols in zip((B.down, B.cross), slots):
        for v, (nb, cv) in enumerate(zip(lists, cols)):
            for w, c in zip(nb, cv):
                if c is not None:  # None: a cross-edge held at its later end
                    col[(w, v) if w < v else (v, w)] = c
    return col


def _join(P: ColorPartition, a: int, b: int) -> bool:
    """Merge the classes of the colours a and b of P; report if they differed."""
    table = P.table
    if table[a] == table[b]:
        return False
    P.merge((table[a], table[b]))
    return True


def _propagate(S: ShadowGraph, B: BfsOrder, P: ColorPartition):
    """Rung 1: the root colour of every edge of S, propagated from the
    root's edges along B under the rules of the module docstring, merging
    root colours in P, a fresh partition of the root's deg colours.

    The colours are returned in the edges' BFS slots, as two lists of
    per-vertex lists, (down, cross): `down[v][i]` is the colour of the edge
    from v to `B.down[v][i]`, and `cross[v][i]` that of the edge to
    `B.cross[v][i]` when that vertex comes before v in BFS order. A
    cross-edge's colour is held at its later end only, and its slot at the
    earlier end is None: finding that slot would scan the earlier end's
    cross list, O(deg^2) per vertex on a dense level. The root edge to the
    i-th neighbour of the root starts with colour i.
    """
    adj = S.adj
    down = B.down
    cross = B.cross
    root = B.root
    dcol: list = [()] * S.n
    xcol: list = [()] * S.n
    rn = adj[root]
    k = len(rn)

    for c, a in enumerate(rn):
        dcol[a] = [c]
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
    # neighbour of v, and cu becomes the colour of vu. A join of two colours
    # merges their classes in P; most find them merged already.
    table = P.table
    merged = bytearray(S.n)  # all of u's down-edge colours merged
    for v in B.order[k + 1 :]:
        dv = down[v]
        u = dv[0]
        col_u = dcol[u]
        cu = -1
        if len(dv) > 1:
            du = down[u]
            cross_u = cross[u]
            row = [0] * len(dv)
            same = [0]  # the slots that take vu's colour
            for j in range(1, len(dv)):
                w = dv[j]
                if w not in cross_u:
                    dw = down[w]
                    for i, x in enumerate(du):
                        if x in dw:
                            break
                    else:
                        same.append(j)
                        continue
                    row[j] = col_u[i]
                    c = dcol[w][dw.index(x)]
                    if cu >= 0 and table[cu] != table[c]:
                        P.merge((table[cu], table[c]))
                    cu = c
                else:
                    same.append(j)
        if cu < 0:  # v and u lie in one unit layer
            cu = col_u[0]
            if not merged[u]:
                merged[u] = 1
                for c in col_u[1:]:
                    _join(P, cu, c)
            if len(dv) == 1:
                dcol[v] = [cu]
                continue
        for j in same:
            row[j] = cu
        dcol[v] = row
    # the cross-edges, at their later ends in BFS order
    bn = B.bfsnum
    for v in B.order[1:]:
        cv = cross[v]
        if not cv:
            continue
        b = bn[v]
        row = xcol[v] = [None] * len(cv)
        dv = down[v]
        u = dv[0]
        cross_u = cross[u]
        bu = bn[u]
        cu = dcol[v][0]
        for j, y in enumerate(cv):
            if bn[y] > b:
                continue
            dy = down[y]
            if u in dy:  # a triangle
                c = cu
                _join(P, cu, dcol[y][dy.index(u)])
            else:
                c = -1  # the colour of vy, from the far edges ux of squares v-u-x-y
                for i, x in enumerate(dy):
                    if x in dv or x not in cross_u:
                        continue
                    if bn[x] < bu:  # ux is held at its later end
                        cx = xcol[u][cross_u.index(x)]
                    else:
                        cx = xcol[x][cross[x].index(u)]
                    if c >= 0:
                        _join(P, c, cx)
                    c = cx
                    _join(P, cu, dcol[y][i])
                if c < 0:
                    c = cu
            row[j] = c
    return dcol, xcol


def _close_pairs(S: ShadowGraph, col: dict[tuple[int, int], int], P: ColorPartition) -> bool:
    """Close delta in P, a partition of the colours `col` of S's edges,
    keyed (min, max): at every vertex v, join the classes of each pair of
    edges va, vw on no chordless square, and of the opposite edges of each
    chordless square v-a-x-w whose smallest corner is v. Reports whether any
    two classes merged. Stops at the first vertex that finds one class left,
    as nothing can merge any more.
    """
    adj = S.adj
    nbrs = list(map(set, adj))
    start = live = len(P)  # each join that merges leaves one class fewer
    for v, nb in enumerate(adj):
        if live == 1:
            break
        nv = nbrs[v]
        cols = [col[(w, v) if w < v else (v, w)] for w in nb]
        for i, a in enumerate(nb):
            na = nbrs[a]
            off = na - nv  # with v dropped: the far corners of squares on va
            off.discard(v)
            ca = cols[i]
            for w, cw in zip(nb[i + 1 :], cols[i + 1 :]):
                # a, w adjacent: every square on va, vw has a chord
                far = () if w in na else off & nbrs[w]
                if not far:
                    live -= _join(P, ca, cw)
                elif v < a:  # the lists are sorted, so a < w
                    for x in far:
                        if v < x:
                            live -= _join(P, ca, col[(w, x) if w < x else (x, w)])
                            live -= _join(P, cw, col[(a, x) if a < x else (x, a)])
    return live < start


def _join_theta(
    S: ShadowGraph, col: dict[tuple[int, int], int], P: ColorPartition, e: tuple[int, int]
) -> bool:
    """Join in P the classes of the colours `col` (keyed (min, max)) of all
    edges Theta-related to e; report whether any two classes merged.

    For e = uv, xy is Theta-related exactly when d(u,x) - d(v,x) differs
    from d(u,y) - d(v,y); e itself is. O(n + m) time and memory.
    """
    g = [a - b for a, b in zip(_sweep(S, e[0])[1], _sweep(S, e[1])[1])]
    table = P.table
    joined = {table[c] for (x, y), c in col.items() if g[x] != g[y]}
    if len(joined) == 1:
        return False
    P.merge(joined)
    return True


def coordinates_from_colors(
    S: ShadowGraph, root: int, colors: dict[tuple[int, int], int]
) -> tuple[tuple[ShadowGraph, ...], Coordinatization]:
    """Turn an edge coloring into unit-layer factors and vertex coordinates.

    The unit layer of color a holds the root and every vertex with a
    down-edge of color a, in the BFS order from the root, to a vertex of the
    layer; its edges are the color-a edges between its vertices. On a
    product coloring that is the component of `root` in the color-a
    subgraph, as a unit layer of a product is convex. Each layer is built
    once, as a both-ways DiGraph, the factor of the returned coordinates;
    the returned factors are their shadows. Coordinates are filled as
    mixed-radix codes in the BFS order: a vertex takes the code of a
    down-neighbour u with one digit replaced, in one stride step. That is
    digit a, the color of edge vu, which it reads from a down-neighbour of
    another color, or, when it has none, takes as its own local id in the
    unit layer of a. O(m + k*deg(root)) in all, with no tuple per vertex.

    Raises FactorizationError when a vertex with down-edges of one color
    only is off that color's unit layer, or the final test fails: the
    labeling is a bijection onto the grid, every edge steps exactly its own
    coordinate along a factor edge, and the grid has no edges S lacks. That
    test alone proves that S is the product of the returned layers, with
    `colors` the product coloring, whatever vertex sets the layers were
    given; that the unit layers meet only in the root and induce no other
    color follows from it.
    """
    if len(colors) != S.edge_count:
        raise ValueError("colors must cover exactly the edges of S")
    B = bfs(S, root)
    if S.n == 1:
        return (), Coordinatization((), ((),), 0)
    k = max(colors.values()) + 1
    if set(colors.values()) != set(range(k)):
        raise ValueError("colors must be 0..k-1 with every value used")
    bn = B.bfsnum
    try:
        slots = tuple(
            [
                [colors[(w, v) if w < v else (v, w)] if bn[w] < bn[v] else None for w in nb]
                for v, nb in enumerate(lists)
            ]
            for lists in (B.down, B.cross)
        )
    except KeyError:
        raise ValueError("colors must cover exactly the edges of S") from None
    coordin = _coordinates(S, B, slots, list(range(k)))
    return tuple(map(shadow, coordin.factors)), coordin


def _coordinates(S: ShadowGraph, B: BfsOrder, slots, number: list[int]) -> Coordinatization:
    """`coordinates_from_colors` from the root of B on valid inputs, over
    the unit layers as both-ways DiGraphs. The colour of every edge is
    `number[c]`, with c its colour in `slots`, laid out as `_propagate`
    returns them."""
    n = S.n
    root = B.root
    k = max(number) + 1
    adj = S.adj
    level = B.level
    down = B.down
    cross = B.cross
    dcol, xcol = slots
    if k == 1:  # S is its own unit layer, with local ids its vertex ids
        arcs = [(v, w) for v, nb in enumerate(adj) for w in nb]
        return Coordinatization._of_codes((DiGraph._unchecked(n, arcs, ()),), range(n), root)

    # each unit layer in BFS order: a vertex one level further out than a
    # layer vertex x joins when one of its down-edges has the layer's colour
    # and leads into the layer, which by then holds every vertex on x's
    # level; the cross-edges of that colour between layer vertices join too
    factors = []
    locs: list[dict[int, int]] = []
    for a in range(k):
        seen = {root}
        looked = {root}
        edges = []
        queue = [root]
        for x in queue:
            for y, c in zip(cross[x], xcol[x]):
                if c is not None and number[c] == a and y in seen:
                    edges.append((y, x))
            lw = level[x] + 1
            for w in adj[x]:
                if level[w] == lw and w not in looked:
                    looked.add(w)
                    ends = [y for y, c in zip(down[w], dcol[w]) if number[c] == a and y in seen]
                    if ends:
                        seen.add(w)
                        queue.append(w)
                        edges += ((y, w) for y in ends)
        loc = {h: i for i, h in enumerate(sorted(seen))}
        arcs = []
        for x, w in edges:
            i, j = loc[x], loc[w]
            arcs += ((i, j), (j, i))
        factors.append(DiGraph._unchecked(len(loc), arcs, ()))
        locs.append(loc)

    sizes = [len(loc) for loc in locs]
    st = [prod(sizes[a + 1 :]) for a in range(k)]
    if st[0] * sizes[0] != n:
        raise FactorizationError(
            f"grid size {st[0] * sizes[0]} does not match vertex count {n}"
        )
    # codes in BFS order: v takes u's code with digit a, the colour of edge
    # vu, replaced; digit a of code c is c // st[a] % sizes[a]. Each edge is
    # checked at its later end: it must step exactly its own digit along an
    # edge of its factor, that is, shift the code by (j - i) * st[c] from a
    # code with digit i, for an arc (i, j) of factor c: a move of factor c.
    # The tree edge vu changes only digit a by construction.
    moves = [{(i, (j - i) * s) for i, j in F.arcs} for F, s in zip(factors, st)]
    # the place value, size and moves of the class of each root colour
    st_of = [st[a] for a in number]
    size_of = [sizes[a] for a in number]
    moves_of = [moves[a] for a in number]
    codes = [0] * n
    codes[root] = sum(loc[root] * s for loc, s in zip(locs, st))
    for v in B.order[1:]:
        dv = down[v]
        cv = dcol[v]
        c0 = cv[0]
        a = number[c0]
        s = st_of[c0]
        size = size_of[c0]
        for w, c in zip(dv, cv):
            if number[c] != a:
                x = codes[w] // s % size
                break
        else:
            x = locs[a].get(v)
            if x is None:
                raise FactorizationError(
                    f"vertex {v} has down-edges of color {a} only but is off "
                    f"its unit layer"
                )
        cu = codes[dv[0]]
        xu = cu // s % size
        code = codes[v] = cu + (x - xu) * s
        if (xu, code - cu) not in moves_of[c0]:
            raise _step_error(v, dv[0], a, cu, code, st, sizes)
        for j in range(1, len(dv)):
            c = cv[j]
            cw = codes[dv[j]]
            if (cw // st_of[c] % size_of[c], code - cw) not in moves_of[c]:
                raise _step_error(v, dv[j], number[c], cw, code, st, sizes)
        if xcol[v]:
            for w, c in zip(cross[v], xcol[v]):
                if c is None:
                    continue  # held at w, the later end
                cw = codes[w]
                if (cw // st_of[c] % size_of[c], code - cw) not in moves_of[c]:
                    raise _step_error(v, w, number[c], cw, code, st, sizes)

    coordin = Coordinatization._of_codes(factors, codes, root)
    coordin.vertex_at  # force the injectivity check
    # the labeling is a bijection onto the grid and maps edges to grid edges,
    # so S is the product of the layers exactly when the edge counts agree
    grid_edges = sum(len(F.arcs) // 2 * (n // F.n) for F in factors)
    if grid_edges != S.edge_count:
        raise FactorizationError(
            f"the layers multiply to {grid_edges} edges, the graph has {S.edge_count}"
        )
    return coordin


def _step_error(v, w, c, cw, code, st, sizes) -> FactorizationError:
    """The error for the edge vw of colour c, whose step from code cw to
    code is no move of factor c: it changes other digits, or its digit
    steps along no edge of the factor."""
    e = (v, w) if v < w else (w, v)
    s = st[c]
    if code - cw == (code // s % sizes[c] - cw // s % sizes[c]) * s:
        return FactorizationError(f"edge {e} does not project to an edge of factor {c}")
    diffs = [d for d, (t, size) in enumerate(zip(st, sizes)) if cw // t % size != code // t % size]
    return FactorizationError(f"edge {e} of color {c} changes coordinates {diffs}")
