"""Refine a loopless factorization so that it respects loops.

Loops multiply by the rule "a product vertex is looped iff some coordinate
is looped", which forces the root to be unlooped (its coordinates are the
factor roots). Starting from the prime factorization of the graph without
its loops, one BFS-ordered pass checks each vertex against its projections
into the current classes: if the vertex's loop state disagrees with all of
its projections, the classes of its down-edges are merged. The result is the
prime factorization of the graph with loops.

`factor_full` is the package's front door: its `_shadow_stage`, which
`bench` shares, validates the input and factors the shadow; `_merge_scans`
then runs the directed scan when some edge carries one arc only, and the
loop scan when G has loops, in one partition of the shadow's colors, and
regroups the coordinates once. The direction scan reads an edge's color
from its code difference and its arcs from the graph, so the scans take
only the shadow's coordinates and the BFS. The partition's projection
tables, indexed by code (built by repetition in O(n*k) element copies, O(n)
per merge), feed both scans and the regrouping. The loop scan keeps its
flags in code order. The regrouping spreads one table of new codes over
the grid, adds the merged classes' tables, and hands out each layer's arcs
from its own BFS edges, in O(n*k + the sum of the layer degrees).
`factor_directed` checks a caller's shadow factorization before it calls
`_merge_scans`. The result's `stages` hold each pass's time and merge
count, which the `factor` command reports.
"""

from __future__ import annotations

import itertools
from math import prod
from time import perf_counter

from .core import BfsOrder, DiGraph, ShadowGraph, bfs, shadow
from .directed_factor import DirectedFactorization, _direction_scan
from .errors import DisconnectedGraphError, FactorizationError, NoUnloopedVertexError
from .product import ColorPartition, Coordinatization, regroup_columns
from .shadow_factor import _factored


def check_arc_count(G: DiGraph) -> None:
    """Raise DisconnectedGraphError when G has too few arcs to be connected.

    A connected shadow on n vertices has at least n - 1 edges, and each edge
    comes from at least one arc. Nothing of size n is allocated, so a huge
    vertex count with a handful of arcs fails at once.
    """
    if G.n > len(G.arcs) + 1:
        raise DisconnectedGraphError(
            f"graph is disconnected: {len(G.arcs)} arcs cannot connect {G.n} vertices"
        )


def rooted_bfs(G: DiGraph, S: ShadowGraph, root: int | None = None) -> BfsOrder:
    """BFS of the shadow S of G from `root`, or from the smallest unlooped
    vertex when `root` is None (NoUnloopedVertexError when there is none).

    The BFS runs before the root is checked, so a disconnected graph raises
    DisconnectedGraphError even when the root or every vertex is looped (it
    then starts at the smallest unlooped vertex, or at 0).
    """
    if G.n == 0:
        raise ValueError("graph has no vertices")
    valid = root is not None and 0 <= root < G.n
    start = root if valid else next((v for v in range(G.n) if v not in G.loops), 0)
    B = bfs(S, start)
    if root is None:
        if start in G.loops:  # start is 0 when every vertex is looped
            raise NoUnloopedVertexError("every vertex carries a loop")
    elif not valid:
        raise ValueError(f"root {root} out of range for n={G.n}")
    elif root in G.loops:
        raise NoUnloopedVertexError(f"root {root} carries a loop")
    return B


def factor_with_loops(
    G: DiGraph, NF: DirectedFactorization, B: BfsOrder | None = None
) -> DirectedFactorization:
    """Prime factorization of G from the factorization NF of G minus loops:
    NF and B are checked against G, then the loop scan runs on NF in a
    fresh partition of its factors, which builds their columns."""
    coordin = NF.coordin
    if len(coordin.codes) != G.n:
        raise ValueError("factorization does not match the graph size")
    root = coordin.root
    if root in G.loops:
        raise NoUnloopedVertexError(f"root {root} carries a loop")
    k = len(NF.factors)
    if k == 0:
        return NF  # single unlooped vertex
    if B is None:
        B = bfs(shadow(G), root)
    elif B.root != root:
        raise ValueError("BFS root differs from the factorization root")
    P = ColorPartition(k, coordin)
    merges, has_looped = _loop_scan(G, coordin, P, B)
    coordin2 = _regroup_looped(G, coordin, P, B, has_looped)
    return DirectedFactorization(P, coordin2, merges)


def _loops_by_code(G: DiGraph, C: Coordinatization) -> bytearray:
    """One byte per code: 1 when the vertex with that code is looped."""
    at_loop = bytearray(G.n)
    codes = C.codes
    for v in G.loops:
        at_loop[codes[v]] = 1
    return at_loop


def _flag_bits(at_loop: bytearray, col) -> int:
    """One byte per code, packed in an int: 1 when the projection that
    `col` (a table of projection codes, indexed by code) holds for the code
    is looped, by `at_loop` as `_loops_by_code` gives it."""
    return int.from_bytes(bytes(map(at_loop.__getitem__, col)), "big")


def _loop_scan(
    G: DiGraph, C: Coordinatization, P: ColorPartition, B: BfsOrder
) -> tuple[int, int]:
    """The loop scan over the coordinatization C, in B's order: merge
    classes of P, in place, at each vertex whose loop state disagrees with
    its projections into the live classes. Returns the number of merges
    and the final classes' loop flags ORed, a byte per code as
    `_flag_bits` packs them, which `_regroup_looped` takes.

    P must be built over C, and it may hold the classes the direction scan
    left: the scan reads only their columns, so it merges as a fresh
    partition over those classes would. Loop flags (is the projection
    looped) and the loop state are ints with a byte per code; while the
    flags ORed differ from the state, one pass over the codes in BFS order
    finds the next disagreement. A down-edge's coordinate is read off its
    code difference.
    """
    table = P.table
    codes = C.codes
    step = C.steps
    order = B.order
    at_loop = _loops_by_code(G, C)
    flags = {i: _flag_bits(at_loop, col) for i, col in P.columns.items()}
    state = int.from_bytes(at_loop, "big")
    bfs_codes = list(map(codes.__getitem__, order))

    merges = 0
    b = 0
    while True:
        anyloop = 0
        for f in flags.values():
            anyloop |= f
        if anyloop == state:
            return merges, anyloop
        differ = (anyloop ^ state).to_bytes(len(order), "big")
        ahead = bytes(map(differ.__getitem__, itertools.islice(bfs_codes, b, None))).find(1)
        if ahead < 0:
            return merges, anyloop
        b += ahead
        # disagreement: an unlooped vertex with a looped projection, or a
        # looped vertex none of whose projections is looped
        v = order[b]
        cv = codes[v]
        ids = set()
        for u in B.down[v]:
            if (c := step.get(codes[u] - cv)) is None:
                raise FactorizationError(f"edge ({v}, {u}) changes more than one coordinate")
            ids.add(table[c])
        if len(ids) < 2:
            raise FactorizationError(
                "loop mismatch with nothing to merge: the loopless "
                "factorization was not prime"
            )
        survivor = P.merge(ids)
        for i in ids:
            del flags[i]
        flags[survivor] = _flag_bits(at_loop, P.columns[survivor])
        merges += 1
        b += 1


def _regroup_looped(
    G: DiGraph, C: Coordinatization, P: ColorPartition, B: BfsOrder, has_looped: int
) -> Coordinatization:
    """C regrouped into the classes of P, built over C, checked to place
    every loop of G. It lets go of the columns of P.

    The regrouped coordinates are a bijection onto the grid, so the product
    of the factors has n minus the product of their unlooped counts looped
    vertices: it has G's loops exactly when it has that many and each loop
    of G sits at a looped coordinate, that is, a looped projection into its
    class, which the classes' loop flags ORed tell: `has_looped`, byte x
    set when the vertex with code x has a looped coordinate, as
    `_loop_scan` returns it (unread when G has no loops). Each factor's
    arcs recur once per vertex of the others, which a C made for another
    graph fails to match.
    """
    n = G.n
    classes = P.classes()
    columns = P.columns
    cols = (columns.pop(P.table[m[0]]) for m in classes if len(m) > 1)
    coordin = regroup_columns(G, C, classes, cols, B.down, B.cross)
    columns.clear()
    made = sum(len(F.arcs) * (n // F.n) for F in coordin.factors)
    if made != len(G.arcs):
        raise FactorizationError(f"the factors make {made} arcs, the graph has {len(G.arcs)}")
    if G.loops and int.from_bytes(_loops_by_code(G, C), "big") & ~has_looped:
        has_looped = has_looped.to_bytes(n, "big")
        v = next(v for v in G.loops if not has_looped[C.codes[v]])
        raise FactorizationError(
            f"loop placement of vertex {v} does not match the factorization"
        )
    placed = n - prod(F.n - len(F.loops) for F in coordin.factors)
    if placed != len(G.loops):
        raise FactorizationError(
            f"the factors place {placed} loops, the graph has {len(G.loops)}"
        )
    return coordin


def factor_full(G: DiGraph, root: int | None = None) -> DirectedFactorization:
    """Prime factorization of a finite connected digraph with loops.

    The graph must be connected (as an undirected graph) and keep at least
    one unlooped vertex. `root` optionally fixes the base vertex; it must be
    unlooped. Factors come out with the root at local id of the root's
    coordinate, ordered canonically by their smallest original shadow color.
    The result's `stages` holds the wall time and merge count of each stage:
    `prepare` (the arc-count check, the shadow and the BFS), `shadow` (its
    factorization), then the scans. Its `partition` groups the shadow colors
    into the factors.
    """
    B, C, setup = _shadow_stage(G, root)
    if C is None:
        return DirectedFactorization(ColorPartition(0), Coordinatization((), ((),), 0), 0)
    P, coordin, rows = _merge_scans(G, C, B)
    return DirectedFactorization(P, coordin, rows[-1][2], (*setup, *rows))


def _shadow_stage(G: DiGraph, root: int | None = None):
    """The stages before the scans, shared by `factor_full` and `bench`:
    the arc-count check, the shadow S of G, its BFS from `root` and the
    factorization of S. Returns the BFS, the shadow coordinates (None when
    G has one vertex) and the `prepare` and `shadow` stage rows. The scans
    read only G, the coordinates and the BFS, so S is freed on return.
    """
    t0 = perf_counter()
    check_arc_count(G)
    S = shadow(G)
    B = rooted_bfs(G, S, root)
    t1 = perf_counter()
    C = _factored(S, B)[2] if G.n > 1 else None
    t2 = perf_counter()
    return B, C, (("prepare", t1 - t0, 0), ("shadow", t2 - t1, 0))


def _merge_scans(G: DiGraph, C: Coordinatization, B: BfsOrder):
    """The direction scan over the shadow coordinates C of G, when some
    edge carries one arc only, then the loop scan when G has loops, in one
    fresh partition of C's colors, then one regrouping. Inputs are trusted:
    every edge of G's shadow changes one coordinate of C only. Returns the
    partition, the coordinates and a `(name, seconds, merges)` row per
    scan; the last row's time includes the regrouping.

    When every edge carries both arcs the direction scan is skipped with 0
    merges: C is a product coordinatization, so an edge's projection is an
    edge too, carries both arcs as well, and cannot disagree with it. The
    edges are counted from B, whose down lists hold each edge once and
    whose cross lists hold it at both ends.
    """
    t0 = perf_counter()
    P = ColorPartition(C.k, C)
    edges = sum(map(len, B.down)) + sum(map(len, B.cross)) // 2
    merges = _direction_scan(G, C, P, B) if len(G.arcs) != 2 * edges else 0
    rows = []
    has_looped = 0
    if G.loops:
        t1 = perf_counter()
        rows.append(("directed", t1 - t0, merges))
        t0 = t1
        merges, has_looped = _loop_scan(G, C, P, B)
    coordin = _regroup_looped(G, C, P, B, has_looped)
    rows.append(("loops" if G.loops else "directed", perf_counter() - t0, merges))
    return P, coordin, rows
