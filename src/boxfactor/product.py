"""Cartesian products of directed graphs and coordinate bookkeeping.

The Cartesian product of graphs G_1 .. G_k has the coordinate tuples of the
factor vertices as vertices; an arc joins two tuples when they agree in all
positions but one and the differing position carries an arc of that factor.
A product vertex is looped when at least one of its coordinates is looped.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import prod
from typing import Sequence

from .core import DiGraph, graph_text, shadow
from .errors import FactorizationError

CoordVector = tuple[int, ...]


def _spread(table: list[int], steps: list[int]) -> list[int]:
    """`table`, indexed by code over a grid, over the grid with one more
    position, varying fastest: entry a*len(steps) + d is table[a] + steps[d].
    One slice assignment per digit; a digit that adds 0 copies in C."""
    size = len(steps)
    out = [0] * (len(table) * size)
    for d, s in enumerate(steps):
        out[d::size] = [x + s for x in table] if s else table
    return out


class Coordinatization:
    """A labeling of a graph's vertices by coordinates over factor graphs.

    Vertex v is stored as one mixed-radix code, `codes[v]` (place values
    `strides`, position 0 slowest), and the map must be a bijection onto
    the full grid of factor vertex sets; `coords[v]`, the tuple of v's
    digits, and `steps`, the position that each one-digit code step
    changes, are derived on first use. `root` is the vertex whose coordinates
    are used to fill dropped positions when projecting.
    `Coordinatization(factors, coords, root)` checks one tuple per vertex
    and folds them into codes once; `_of_codes(factors, codes, root)` takes
    the codes of a producer that already holds them. Immutable; two are
    equal when their factors, codes and root are.
    """

    def __init__(self, factors, coords, root: int):
        factors = tuple(factors)
        coords = tuple(map(tuple, coords))
        k = len(factors)
        sizes = [F.n for F in factors]
        # one sweep per position; the loop below only names the first offender
        same_width = set(map(len, coords)) == {k}
        cols = [[cv[i] for cv in coords] for i in range(k)] if same_width else []
        if not same_width or any(
            min(col) < 0 or max(col) >= size for col, size in zip(cols, sizes)
        ):
            for v, cv in enumerate(coords):
                if len(cv) != k:
                    raise FactorizationError(
                        f"vertex {v} has {len(cv)} coordinates, expected {k}"
                    )
                for i, c in enumerate(cv):
                    if not 0 <= c < sizes[i]:
                        raise FactorizationError(f"vertex {v} coordinate {i} out of range")
        codes = [0] * len(coords)
        for col, size in zip(cols, sizes):
            codes = [c * size + d for c, d in zip(codes, col)]
        self._set(factors, tuple(codes), root)

    @classmethod
    def _of_codes(cls, factors, codes, root: int) -> Coordinatization:
        """The Coordinatization whose vertex v has the code `codes[v]`, each
        on the grid (0 <= code < its size). The grid size and the root are
        checked as the constructor checks them; injectivity is left to
        `vertex_at`, as there."""
        C = object.__new__(cls)
        C._set(tuple(factors), tuple(codes), root)
        return C

    def _set(self, factors: tuple, codes: tuple, root: int) -> None:
        """Set the three fields; check that the grid has one point per
        vertex and that the root is a vertex."""
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "root", root)
        size = prod(F.n for F in factors)
        if size != len(codes):
            raise FactorizationError(f"grid size {size} does not match vertex count {len(codes)}")
        if not 0 <= root < len(codes):
            raise ValueError(f"root {root} out of range")

    def __setattr__(self, name, value):
        raise AttributeError(f"Coordinatization is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Coordinatization):
            return NotImplemented
        return (self.root, self.factors, self.codes) == (other.root, other.factors, other.codes)

    def __hash__(self):
        return hash((self.root, self.factors, self.codes))

    def __repr__(self):
        return f"Coordinatization(k={self.k}, n={len(self.codes)}, root={self.root})"

    @cached_property
    def coords(self) -> tuple[CoordVector, ...]:
        """The digits of every vertex's code, one tuple per vertex."""
        codes = self.codes
        cols = [[c // s % F.n for c in codes] for F, s in zip(self.factors, self.strides)]
        return tuple(zip(*cols)) if cols else ((),) * len(codes)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Mixed-radix place values: position 0 varies slowest, as in
        `cartesian_product`."""
        st = [1] * self.k
        for i in range(self.k - 2, -1, -1):
            st[i] = st[i + 1] * self.factors[i + 1].n
        return tuple(st)

    @cached_property
    def steps(self) -> dict[int, int]:
        """The position c of every code step j*strides[c], 0 < |j| < the
        size of factor c: the code difference across an edge that changes
        coordinate c only. The keys of two positions never meet, since
        (size - 1)*strides[c] < strides[c - 1]."""
        return {
            j * s: c
            for c, (F, s) in enumerate(zip(self.factors, self.strides))
            for j in range(1 - F.n, F.n)
            if j
        }

    @cached_property
    def vertex_at(self) -> list[int]:
        """Inverse of `codes`, indexed by code; raises if the labeling is not
        injective."""
        table = [-1] * len(self.codes)
        for v, code in enumerate(self.codes):
            if table[code] >= 0:
                raise FactorizationError("coordinate labeling is not injective")
            table[code] = v
        return table

    def projection_codes(self, positions) -> list[int]:
        """The projection of every grid point into the layer through `root`
        spanned by `positions`, indexed by code: entry x is the code with
        x's digits there and the root's everywhere else, so vertex v's
        projection is `table[codes[v]]`.

        The table depends on the digits alone, so it is built by repetition
        (`_spread`): from the first kept position on, each position spreads
        it, with digit d adding d*strides[j] when j is kept and the entries
        repeated when it is not, and the positions before the first kept
        one tile it with list `*`. O(n) element copies in C, and Python
        additions only over the sub-grid from the first to the last kept
        position.
        """
        st = self.strides
        sizes = [F.n for F in self.factors]
        keep = set(positions)
        for i in keep:
            if not 0 <= i < self.k:
                raise ValueError(f"position {i} out of range")
        r = self.codes[self.root]
        table = [r - sum(r // st[j] % sizes[j] * st[j] for j in keep)]
        for j in range(min(keep, default=self.k), self.k):
            s = st[j] if j in keep else 0
            table = _spread(table, [d * s for d in range(sizes[j])])
        return table * (len(self.codes) // len(table))

    @property
    def k(self) -> int:
        return len(self.factors)


class ColorPartition:
    """Partition of color indices 0..k-1 supporting merges.

    Lookup goes through a pointer table (original color to current class id),
    so merging relabels only the smaller side. Class ids are drawn from the
    original color indices; no output reads them. `classes()` lists the
    live classes by their smallest member, which is the canonical order.
    The shadow factorization merges the colors of the root's edges in one,
    and the merge scans merge the shadow's factor colors in another.

    Given the coordinatization C whose positions the colors are, the
    partition also keeps `columns`: for each live class id, the table of
    projection codes into the layer through C.root spanned by the class,
    indexed by code, as `C.projection_codes(members)` gives it. The k
    single-position columns are built here by repetition, O(n*k) element
    copies in C; `merge` keeps them up to date, and a reader may pop them
    once it is the last.
    """

    __slots__ = ("_table", "_members", "columns", "_base")

    def __init__(self, k: int, C: Coordinatization | None = None):
        if k < 0:
            raise ValueError("color count must be nonnegative")
        if C is not None and k != C.k:
            raise ValueError(f"color count {k} differs from the {C.k} positions of C")
        self._table = list(range(k))
        self._members: dict[int, list[int]] = {i: [i] for i in range(k)}
        self.columns: dict[int, list[int]] = {}
        self._base = 0
        if C is not None:
            self.columns = {i: C.projection_codes((i,)) for i in range(k)}
            self._base = C.codes[C.root]

    @property
    def k(self) -> int:
        return len(self._table)

    def __len__(self) -> int:
        """The number of live classes."""
        return len(self._members)

    @property
    def table(self):
        """Live pointer table, indexed by original color. Read only."""
        return self._table

    def members(self, class_id: int) -> tuple[int, ...]:
        return tuple(self._members[class_id])

    def classes(self) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(m)) for m in self._members.values())

    def merge(self, class_ids) -> int:
        """Merge the given live classes; returns the surviving id.

        The largest class keeps its id (ties: smallest id); repointing the
        rest keeps the total work quadratic in k over any merge sequence.
        The merged class's column is the sum of the merged columns less the
        root's code once per extra class, code by code:
        col[A | B] = col[A] + col[B] - code(root), which holds because the
        classes' positions are disjoint. That is O(n) per class merged away,
        whatever the class sizes, and O(n*k) over any merge sequence.
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
        cols = self.columns
        if cols:
            base = self._base
            col = cols[survivor]
            for i in ids:
                if i != survivor:
                    col = [a + b - base for a, b in zip(col, cols.pop(i))]
            cols[survivor] = col
        return survivor


def product_graph(C: Coordinatization) -> DiGraph:
    """The product of `C.factors` with vertex v placed at the grid point of
    its code `C.codes[v]`.

    Built factor by factor on the grid codes: for factor i with place value
    st, every code x whose digit i is 0 starts one copy of the factor, so a
    factor arc (a, b) becomes the arc (at[x + a*st], at[x + b*st]) and a
    factor loop at a the loop at at[x + a*st], where at is `C.vertex_at`
    (which raises FactorizationError unless the coordinates are a bijection
    onto the grid). O(n*k + m), with no per-vertex loop over coordinate
    tuples; valid factors give valid arcs, so they are not checked again.
    """
    at = C.vertex_at
    n = len(at)
    arcs: list[tuple[int, int]] = []
    loops: set[int] = set()
    for F, st in zip(C.factors, C.strides):
        span = st * F.n
        starts = [h + lo for h in range(0, n, span) for lo in range(st)]
        for a, b in F.arcs:
            da, db = a * st, b * st
            arcs += [(at[x + da], at[x + db]) for x in starts]
        for a in F.loops:
            da = a * st
            loops.update([at[x + da] for x in starts])
    return DiGraph._unchecked(n, arcs, loops)


def product_text(C: Coordinatization) -> str:
    """`to_text(product_graph(C))`, written without building an arc tuple
    or an arc set.

    The same sweep over the grid codes as `product_graph` appends each
    arc's head to a list kept for its tail's code (consecutive codes, so
    the lists are filled in near order) and collects the looped vertices.
    Then `graph_text` sorts and formats each vertex's heads once, with one
    id string per vertex. `C.vertex_at` raises FactorizationError unless
    the coordinates are a bijection onto the grid. O(n*k + m) plus the
    per-tail sorts; past the text, it holds one head per arc and one
    string per vertex.
    """
    at = C.vertex_at
    n = len(at)
    heads: list[list[int]] = [[] for _ in range(n)]  # by the tail's code
    loops: set[int] = set()
    for F, st in zip(C.factors, C.strides):
        span = st * F.n
        starts = [h + lo for h in range(0, n, span) for lo in range(st)]
        for a, b in F.arcs:
            da, db = a * st, b * st
            for x in starts:
                heads[x + da].append(at[x + db])
        for a in F.loops:
            da = a * st
            loops.update([at[x + da] for x in starts])
    return graph_text(n, map(heads.__getitem__, C.codes), loops)


def coords_text(C: Coordinatization) -> str:
    """The coordinate table of C: one row 'c <v> <c_1> ... <c_k>' per
    vertex v, in vertex order, with v's digits. Written column by column
    from the codes, without a coordinate tuple per vertex.

    Position i's digit strings, indexed by code, are built by repetition
    (each digit repeated by its place value, the run tiled over the grid);
    one lookup per vertex in C gives the column, and the rows are joined
    in C. O(n*k) and one string per vertex and position.
    """
    codes = C.codes
    n = len(codes)
    cols = []
    for F, st in zip(C.factors, C.strides):
        digits: list[str] = []
        for d in map(str, range(F.n)):
            digits += [d] * st
        digits *= n // len(digits)
        cols.append(map(digits.__getitem__, codes))
    rows = zip(itertools.repeat("c", n), map(str, range(n)), *cols)
    return "\n".join(map(" ".join, rows)) + "\n"


def cartesian_product(factors: Sequence[DiGraph]) -> tuple[DiGraph, Coordinatization]:
    """Build the product of the given factors, in row-major vertex order.

    Row-major: the first factor varies slowest, so vertex ids follow
    itertools.product of the factor vertex ranges. The returned
    Coordinatization has root 0, the all-zeros tuple, and holds the codes
    0..n-1.
    """
    factors = tuple(factors)
    if not factors:
        raise ValueError("cartesian_product needs at least one factor")
    for F in factors:
        if F.n < 1:
            raise ValueError("factors must have at least one vertex")
    C = Coordinatization._of_codes(factors, range(prod(F.n for F in factors)), 0)
    return product_graph(C), C


def unit_layer(
    G: DiGraph, C: Coordinatization, positions, root: int | None = None
) -> tuple[DiGraph, tuple[int, ...]]:
    """Induced subgraph on the layer through `root` spanned by `positions`.

    Returns (layer, embedding): the layer uses local ids 0..len-1 assigned in
    ascending host id order, and embedding[local] is the host vertex. Scans
    every vertex and arc; `group_coordinates` builds all layers at once.
    """
    if root is None:
        root = C.root
    elif not 0 <= root < len(C.codes):
        raise ValueError(f"root {root} out of range")
    k = C.k
    pos = set(positions)
    for i in pos:
        if not 0 <= i < k:
            raise ValueError(f"position {i} out of range")
    # v is in the layer when it agrees with the root in every dropped digit,
    # that is, when its projection into the dropped positions is the root's
    proj = C.projection_codes([i for i in range(k) if i not in pos])
    home = proj[C.codes[root]]
    hosts = [v for v, x in enumerate(C.codes) if proj[x] == home]
    loc = {h: i for i, h in enumerate(hosts)}
    arcs = [
        (loc[a], loc[b]) for a, b in G.arcs if a in loc and b in loc
    ]
    loops = [loc[v] for v in G.loops if v in loc]
    return DiGraph(len(hosts), arcs, loops), tuple(hosts)


def group_coordinates(
    G: DiGraph, C: Coordinatization, classes: Sequence[Sequence[int]]
) -> Coordinatization:
    """Regroup coordinate positions into blocks.

    `classes` must partition range(k). Each block becomes one factor: the
    subgraph of G induced on the layer through C.root spanned by the block.
    The new coordinate of a vertex in block i is the local id of its
    projection into that layer, local ids ascending by host id. Grouping
    every position into one block yields the factorization {G}; singleton
    blocks reproduce C up to relabeling.

    Hands the projection codes of each block of more than one position
    (`projection_codes`, indexed by code) and the shadow's adjacency lists
    to `regroup_columns`, which reads single positions off the grid and
    hands out each layer's arcs from the layer's own edges. The shadow
    makes this O(n*k + m); the merge stage, which already holds the
    columns and a BFS structure, pays O(n*k + the sum of the layer degrees)
    element copies in C.
    """
    k = C.k
    blocks = [tuple(b) for b in classes]
    seen: set[int] = set()
    for b in blocks:
        if not b:
            raise ValueError("empty block")
        seen.update(b)
    if seen != set(range(k)) or sum(len(b) for b in blocks) != k:
        raise ValueError("blocks must partition the coordinate positions")
    cols = (C.projection_codes(b) for b in blocks if len(b) > 1)
    return regroup_columns(G, C, blocks, cols, ((),) * G.n, shadow(G).adj)


def regroup_columns(
    G: DiGraph, C: Coordinatization, blocks, cols, down, cross
) -> Coordinatization:
    """C regrouped into `blocks`, tuples of positions in factor order.

    `cols` yields, for each block of more than one position in turn, its
    projection table (`C.projection_codes(block)`), let go once read; a
    single position's layer is a line of the grid through the root, read
    off the codes. Every edge of G's shadow must be in `down[v]` at one end
    v or in `cross` at both ends, as in a `BfsOrder` or the shadow's `adj`.

    A layer's local ids ascend by host id. Its arcs come from its own
    edges: for each layer vertex v, the neighbours u in `down[v]`, and in
    `cross[v]` when u < v, that are in the layer too, tested against
    G.arcs both ways, so edges that are not G's only lose arcs. The new
    codes come from one table T by old code, built by spreading the grid
    position by position (`_spread`): a single position's digit d adds its
    local id times the block's place value, any other position repeats the
    entries, and each merged block then adds its table, mapped to local
    ids. v's new code is T[codes[v]]. O(n) per position (copied in C where
    a digit adds 0) and per merged block, and O(the sum of the layer
    degrees) for the arcs.
    """
    codes = C.codes
    at = C.vertex_at
    arcs = G.arcs
    sizes = [F.n for F in C.factors]
    r = codes[C.root]

    def local_ids(layer):  # by code, ascending host id
        return {codes[h]: j for j, h in enumerate(sorted(map(at.__getitem__, layer)))}

    place = len(codes)
    places = []
    lids = []  # per block; None for a merged block, until its table is read
    steps = [[0] * size for size in sizes]  # what each digit of a position adds
    for b in blocks:
        place //= prod(sizes[j] for j in b)
        places.append(place)
        lid = None
        if len(b) == 1:
            (i,) = b
            s = C.strides[i]
            r0 = r - r // s % sizes[i] * s  # the root's code with digit i at 0
            line = range(r0, r0 + sizes[i] * s, s)
            lid = local_ids(line)
            steps[i] = [lid[x] * place for x in line]
        lids.append(lid)
    table = [0]
    for step in steps:
        table = _spread(table, step)
    factors = []
    for lid, place in zip(lids, places):
        if lid is None:
            col = next(cols)
            lid = local_ids(set(col))
            ids = {x: j * place for x, j in lid.items()}
            table = [t + ids[x] for t, x in zip(table, col)]
            del col  # the last reader of the table
        layer_arcs = []
        for x, j in lid.items():
            h = at[x]
            for u in itertools.chain(down[h], [u for u in cross[h] if u < h]):
                ju = lid.get(codes[u])
                if ju is None:
                    continue
                if (h, u) in arcs:
                    layer_arcs.append((j, ju))
                if (u, h) in arcs:
                    layer_arcs.append((ju, j))
        layer_loops = [j for x, j in lid.items() if at[x] in G.loops]
        factors.append(DiGraph._unchecked(len(lid), layer_arcs, layer_loops))
    return Coordinatization._of_codes(factors, map(table.__getitem__, codes), C.root)
