"""Factor a loopless directed graph, given the factorization of its shadow.

A factorization of the shadow ignores arc directions, so its colors may be
too fine. The scan is one pass over the vertices in BFS order; for every
edge to an already-reached or same-level vertex it projects the edge into
the unit layer of the edge's current class and compares arc directions. An
edge's color is the position its code difference steps
(`Coordinatization.steps`). A disagreement means those coordinates cannot
be separated: the classes of all down-edges at the current vertex (plus the
edge's own class) are merged, which ends that vertex, and the pass goes on
with the next one under the coarser coloring. Each edge is inspected once
or, when it joins two vertices of one level, twice. The partition keeps a
projection table per live class, indexed by code: the k single-position
tables are built once by repetition, O(n*k) element copies in C, and a
merge adds its classes' tables in O(n) (`ColorPartition.merge`). So each
inspection is O(1), at most two arc lookups and a dict hit, and the scan
costs O(n*k + m), given the shadow factorization and the BFS structure.
On a graph whose every edge carries both arcs no edge can disagree with
its projection, which is an edge too, so the merge entry skips the scan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BfsOrder, DiGraph, bfs, shadow
from .product import ColorPartition, Coordinatization
from .shadow_factor import ShadowFactorization


@dataclass(frozen=True, eq=False)
class DirectedFactorization:
    """Result of a directed (or loop) factorization scan.

    `partition` groups the input colors into the final classes, `coordin`
    locates every vertex of the input graph over the prime factors read off
    the unit layers (local ids ascending by host id), `factors` is
    `coordin.factors`, and `merges` counts the merge events of the scan.

    `stages` is filled in only by `factor_full`: one `(name, seconds,
    merges)` row for each stage it ran, in the order `"prepare"` (the
    arc-count check, the shadow and the BFS) and `"shadow"`, both with 0
    merges, then `"directed"` and `"loops"`, timed with `perf_counter`. The
    last row's time includes the one regrouping of the coordinates. It is
    `()` for the one-vertex unit and for a pass called directly.
    """

    partition: ColorPartition
    coordin: Coordinatization
    merges: int
    stages: tuple[tuple[str, float, int], ...] = ()

    @property
    def factors(self) -> tuple[DiGraph, ...]:
        return self.coordin.factors

    @property
    def k(self) -> int:
        return len(self.factors)


def _edge_info(G: DiGraph, SF: ShadowFactorization, B: BfsOrder | None) -> BfsOrder:
    """Validate caller-supplied direction scan inputs in one sweep over the
    colored edges, and return the BFS structure (computed when omitted).

    The colored edges are the graph's edges exactly when each carries an
    arc, none is keyed both ways, and together they carry every arc. Each
    must change its color's coordinate only, as the scan reads the color
    from the code difference; a step of one digit does not show that (over
    K2 x K2, (0, 1) -> (1, 0) adds 1 to the code), so the step must also
    not borrow: it keeps u's code modulo the span st*size of digit c in
    range. `factor_full` needs no such check: `factor_shadow` makes it.
    """
    if G.loops:
        raise ValueError("graph must be loopless here; strip loops first")
    C = SF.coordin
    if len(C.codes) != G.n:
        raise ValueError("shadow factorization does not match the graph size")
    arcs = G.arcs
    colors = SF.colors
    codes = C.codes
    span = [s * F.n for F, s in zip(C.factors, C.strides)]
    step = C.steps
    carried = 0
    bare = None
    twice = False
    for e, c in colors.items():
        u, v = e
        f = e in arcs
        r = (v, u) in arcs
        if not (f or r):
            bare = bare or e
            continue
        carried += f + r
        twice = twice or (u > v and (v, u) in colors)
        d = codes[v] - codes[u]
        if step.get(d) != c or not 0 <= codes[u] % span[c] + d < span[c]:
            raise ValueError(f"edge {e} of color {c} changes other coordinates than {c}")
    if bare is not None or carried != len(arcs) or twice:
        edges = {(u, v) if u < v else (v, u) for u, v in arcs}
        if bare is None or len(edges) != len(colors):
            raise ValueError("shadow factorization does not match the graph's edges")
        raise ValueError(f"colored edge {bare} is not an edge of the graph")
    if B is None:
        B = bfs(shadow(G), SF.root)
    elif B.root != SF.root:
        raise ValueError("BFS root differs from the factorization root")
    return B


def _direction_scan(G: DiGraph, C, P: ColorPartition, B: BfsOrder) -> int:
    """The direction scan over the coordinatization C of G's shadow, in B's
    order: merge classes of the fresh partition P, built over C, in place,
    at each vertex with an inconsistent down or cross edge, and go on with
    the next vertex. Every edge must change one coordinate only. Returns
    the number of merges.

    A down or cross edge vu is inconsistent when its arcs differ from those
    of its projection into the live class of its color c, whose projection
    table, by code, colof[c] holds. The edge changes coordinate c only, so
    c is `C.steps` at the code difference d, and u's projection code is v's
    plus d. O(1) per edge: the edge's arcs are looked up in G.arcs, and its
    projection's, whose ends are found by code, in `seen`, two bits (an arc
    out of v's end, an arc into it) by p*2n + d (p the projection code of
    v), filled from G.arcs on a miss. Those bits depend on G and C alone,
    so `seen` holds across merges. Both are shadow edges, so each carries
    an arc: when neither has its arc out of v's end, both have the other.
    """
    table = P.table
    columns = P.columns
    codes = C.codes
    at = C.vertex_at
    step = C.steps
    arcs = G.arcs
    down = B.down
    cross = B.cross
    n2 = 2 * len(codes)
    # colof[c]: projection table, by code, into the live class of color c
    colof = [columns[table[c]] for c in range(P.k)]
    seen: dict[int, int] = {}
    merges = 0
    for v in B.order:
        cv = codes[v]
        for u in down[v] + cross[v]:
            d = codes[u] - cv
            c = step[d]
            p = colof[c][cv]
            if p == cv:
                continue  # the edge is its own projection
            bits = seen.get(p * n2 + d)
            if bits is None:
                pv = at[p]
                pu = at[p + d]
                bits = seen[p * n2 + d] = ((pv, pu) in arcs) + 2 * ((pu, pv) in arcs)
            out = (v, u) in arcs
            if out != bits & 1 or out and ((u, v) in arcs) != bits >> 1:
                # a merge ends v: the scan goes on under the new classes
                ids = {table[step[codes[w] - cv]] for w in down[v]}
                ids.add(table[c])
                survivor = P.merge(ids)
                for cc in P.members(survivor):
                    colof[cc] = columns[survivor]
                merges += 1
                break
    return merges


def factor_directed(
    G: DiGraph, SF: ShadowFactorization, B: BfsOrder | None = None
) -> DirectedFactorization:
    """Prime factorization of a connected loopless directed graph.

    `SF` must be the prime factorization of shadow(G) and `B` a BFS structure
    rooted at SF.root (recomputed when omitted). Checks them, then runs
    `factor_full`'s merge entry, which skips the scan, with 0 merges, when
    every edge carries both arcs.
    """
    from .loop_factor import _merge_scans  # loop_factor imports this module
    B = _edge_info(G, SF, B)
    P, coordin, rows = _merge_scans(G, SF.coordin, B)
    return DirectedFactorization(P, coordin, rows[-1][2])
