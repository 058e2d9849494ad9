"""Factor a loopless directed graph, given the factorization of its shadow.

A factorization of the shadow ignores arc directions, so its colors may be
too fine. The scan walks the vertices in BFS order; for every edge to an
already-reached or same-level vertex it projects the edge into the unit layer
of the edge's current class and compares arc directions. A disagreement means
those coordinates cannot be separated: the classes of all down-edges at the
current vertex (plus the edge's own class) are merged, and the scan continues
with the next vertex under the coarser coloring. Each edge is inspected once;
projections go through the mixed-radix codes of `Coordinatization`, so the
scan costs O(n*k) for the current vertex's projections plus the size of each
edge's class, once the shadow factorization and the BFS structure are given.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BfsOrder, DiGraph, bfs, shadow
from .product import Coordinatization, group_coordinates
from .shadow_factor import ShadowFactorization


class ColorPartition:
    """Partition of color indices 0..k-1 supporting merges.

    Lookup goes through a pointer table (original color to current class id),
    so merging relabels only the smaller side. Class ids are drawn from the
    original color indices; `classes()` lists the live classes sorted by
    their smallest member, which is the canonical output order.
    """

    __slots__ = ("_table", "_members")

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("color count must be nonnegative")
        self._table = list(range(k))
        self._members: dict[int, list[int]] = {i: [i] for i in range(k)}

    @property
    def k(self) -> int:
        return len(self._table)

    @property
    def count(self) -> int:
        return len(self._members)

    @property
    def table(self):
        """Live pointer table, indexed by original color. Read only."""
        return self._table

    def class_of(self, color: int) -> int:
        return self._table[color]

    def members(self, class_id: int) -> tuple[int, ...]:
        return tuple(self._members[class_id])

    def live_ids(self) -> list[int]:
        return sorted(self._members)

    def classes(self) -> list[tuple[int, ...]]:
        return [tuple(sorted(self._members[i])) for i in self.live_ids()]

    def merge(self, class_ids) -> int:
        """Merge the given live classes; returns the surviving id.

        The largest class keeps its id (ties: smallest id) and the members of
        the rest are repointed, so total repointing work stays quadratic in
        the color count over any merge sequence.
        """
        ids = set(class_ids)
        for i in ids:
            if i not in self._members:
                raise ValueError(f"{i} is not a live class id")
        if len(ids) <= 1:
            return next(iter(ids)) if ids else -1
        survivor = min(ids, key=lambda i: (-len(self._members[i]), i))
        for i in ids:
            if i == survivor:
                continue
            for c in self._members[i]:
                self._table[c] = survivor
            self._members[survivor].extend(self._members[i])
            del self._members[i]
        return survivor


@dataclass(frozen=True, eq=False)
class DirectedFactorization:
    """Result of a directed (or loop) factorization scan.

    `partition` groups the input colors into the final classes, `factors` are
    the prime factors read off the unit layers (local ids ascending by host
    id), `coordin` locates every vertex of the input graph over those
    factors, and `merges` counts the merge events of the scan.
    """

    partition: ColorPartition
    factors: tuple[DiGraph, ...]
    coordin: Coordinatization
    merges: int

    @property
    def k(self) -> int:
        return len(self.factors)


def _check_inputs(G: DiGraph, SF: ShadowFactorization, B: BfsOrder | None):
    if G.loops:
        raise ValueError("graph must be loopless here; strip loops first")
    if len(SF.coordin.coords) != G.n:
        raise ValueError("shadow factorization does not match the graph size")
    arcs = G.arcs
    edge_count = 0
    for u, v in arcs:
        if u < v or (v, u) not in arcs:
            edge_count += 1
    if edge_count != len(SF.colors):
        raise ValueError("shadow factorization does not match the graph's edges")
    for u, v in SF.colors:
        if (u, v) not in arcs and (v, u) not in arcs:
            raise ValueError(f"colored edge ({u}, {v}) is not an edge of the graph")
    if B is None:
        B = bfs(shadow(G), SF.root)
    elif B.root != SF.root:
        raise ValueError("BFS root differs from the factorization root")
    return B


def _colored_lists(G: DiGraph, SF: ShadowFactorization, B: BfsOrder):
    colors = SF.colors
    downc = []
    crossc = []
    for v in range(G.n):
        downc.append(
            [(u, colors[(u, v) if u < v else (v, u)]) for u in B.down[v]]
        )
        crossc.append(
            [(u, colors[(u, v) if u < v else (v, u)]) for u in B.cross[v]]
        )
    return downc, crossc


def factor_directed(
    G: DiGraph, SF: ShadowFactorization, B: BfsOrder | None = None
) -> DirectedFactorization:
    """Prime factorization of a connected loopless directed graph.

    `SF` must be the prime factorization of shadow(G) and `B` a BFS structure
    rooted at SF.root (recomputed when omitted).
    """
    B = _check_inputs(G, SF, B)
    n = G.n
    k = len(SF.factors)
    P = ColorPartition(k)
    if n == 1:
        return DirectedFactorization(P, (), Coordinatization((), ((),), 0), 0)
    project = SF.coordin.project
    table = P.table
    arcint = {u * n + v for (u, v) in G.arcs}
    downc, crossc = _colored_lists(G, SF, B)

    merges = 0
    for v in B.order:
        vn = v * n
        seen = {}  # class id -> (members, v's projection); a merge ends v
        merged = False
        for lst in (downc[v], crossc[v]):
            for u, c in lst:
                i = table[c]
                hit = seen.get(i)
                if hit is None:
                    members = P.members(i)
                    hit = seen[i] = (members, project(v, members))
                members, pv = hit
                pu = project(u, members)
                if pv == v and pu == u:
                    continue  # the edge is its own projection
                if (vn + u in arcint) == (pv * n + pu in arcint) and (
                    u * n + v in arcint
                ) == (pu * n + pv in arcint):
                    continue
                ids = {table[cc] for _, cc in downc[v]}
                ids.add(i)
                P.merge(ids)
                merges += 1
                merged = True
                break
            if merged:
                break
    coordin = group_coordinates(G, SF.coordin, P.classes())
    return DirectedFactorization(P, coordin.factors, coordin, merges)


def count_inconsistencies(
    G: DiGraph,
    SF: ShadowFactorization,
    assignment,
    B: BfsOrder | None = None,
) -> int:
    """Number of down/cross edges whose direction disagrees with their
    projection under a fixed class assignment (original color -> label).

    A factorization is a fixpoint of the scan exactly when this is zero for
    its final assignment; used to re-check the single scan's output.
    """
    B = _check_inputs(G, SF, B)
    n = G.n
    k = len(SF.factors)
    if len(assignment) != k:
        raise ValueError("assignment must label every original color")
    project = SF.coordin.project
    groups: dict[int, list[int]] = {}
    for j, label in enumerate(assignment):
        groups.setdefault(label, []).append(j)
    arcint = {u * n + v for (u, v) in G.arcs}
    downc, crossc = _colored_lists(G, SF, B)
    bad = 0
    for v in B.order:
        for lst in (downc[v], crossc[v]):
            for u, c in lst:
                members = groups[assignment[c]]
                pv = project(v, members)
                pu = project(u, members)
                if (v * n + u in arcint) != (pv * n + pu in arcint) or (
                    u * n + v in arcint
                ) != (pu * n + pv in arcint):
                    bad += 1
    return bad
