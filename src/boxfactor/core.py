"""Core graph types: directed graphs with loops, their undirected shadows,
and breadth-first structure.

Vertices are integers 0..n-1 throughout. Arcs are ordered pairs of distinct
vertices; loops are stored separately as a vertex set. The shadow of a graph
is the simple undirected graph with an edge {u, v} whenever at least one of
the arcs (u, v), (v, u) is present; loops do not contribute edges. Distance,
connectivity and degree always refer to the shadow.

The text format lives here too: canonical text, as `to_text` (through
`graph_text`, which `product.product_text` shares) and `product.coords_text`
write it, is read in bulk, and any other text line by line, with the same
result or error.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain, repeat
from math import prod
from operator import eq

from .errors import DisconnectedGraphError, GraphFormatError


@dataclass(frozen=True)
class DiGraph:
    """An immutable finite directed graph with loops."""

    n: int
    arcs: frozenset[tuple[int, int]] = frozenset()
    loops: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "arcs", frozenset(self.arcs))
        object.__setattr__(self, "loops", frozenset(self.loops))
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in self.arcs:
            if u == v:
                raise ValueError(f"arc ({u}, {v}) is a loop; pass it via loops=")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={self.n}")
        for v in self.loops:
            if not (0 <= v < self.n):
                raise ValueError(f"loop at {v} out of range for n={self.n}")

    @classmethod
    def _unchecked(cls, n: int, arcs, loops) -> DiGraph:
        """A DiGraph over arcs and loops that the caller has already checked
        (a parser, or a product of valid factors): skips the per-arc checks."""
        G = object.__new__(cls)
        object.__setattr__(G, "n", n)
        object.__setattr__(G, "arcs", frozenset(arcs))
        object.__setattr__(G, "loops", frozenset(loops))
        return G

    def __repr__(self):
        return f"DiGraph(n={self.n}, arcs={len(self.arcs)}, loops={len(self.loops)})"


class ShadowGraph:
    """Undirected simple view of a DiGraph: its edges, without directions.

    Made only by `shadow(G)`. `adj[v]` lists the neighbours of v in
    ascending order, so every traversal of this structure is deterministic.
    The adjacency lists are the only edge layout: the shadow factorization
    keeps each edge's colour in its BFS slot, and keys the colours by
    `(min, max)` pair only when its first colouring is rejected, or when
    `factor_shadow` returns them. `ends` lists the edges as such pairs in
    ascending order, derived from `adj` on each use.
    """

    __slots__ = ("n", "adj")

    @property
    def ends(self) -> list[tuple[int, int]]:
        return [(u, w) for u, nb in enumerate(self.adj) for w in nb if u < w]

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adj)) // 2

    def __eq__(self, other):
        return isinstance(other, ShadowGraph) and self.adj == other.adj

    def __hash__(self):
        return hash(self.adj)

    def __repr__(self):
        return f"ShadowGraph(n={self.n}, edges={self.edge_count})"


@dataclass(frozen=True)
class BfsOrder:
    """Breadth-first structure of a connected shadow, rooted at `root`.

    `order` lists vertices by BFS number, `bfsnum` and `level` are indexed by
    vertex. `down[v]` holds the neighbors of v one level closer to the root,
    `cross[v]` the neighbors on the same level. Neighbors pointing away from
    the root are deliberately not stored; the scans never need them.
    """

    root: int
    order: tuple[int, ...]
    bfsnum: tuple[int, ...]
    level: tuple[int, ...]
    down: tuple[tuple[int, ...], ...]
    cross: tuple[tuple[int, ...], ...]


def shadow(G: DiGraph) -> ShadowGraph:
    """Forget directions and loops: the undirected support of G, whose
    arcs `DiGraph` has checked.

    Each edge is listed once, from its arc (u, v) with u < v when both arcs
    are present and from its one arc otherwise, so no list holds a
    neighbour twice; each list is then sorted in place."""
    arcs = G.arcs
    nbrs: list[list[int]] = [[] for _ in range(G.n)]
    for u, v in arcs:
        if u < v or (v, u) not in arcs:
            nbrs[u].append(v)
            nbrs[v].append(u)
    for nb in nbrs:
        nb.sort()
    S = object.__new__(ShadowGraph)
    S.n = G.n
    S.adj = tuple(map(tuple, nbrs))
    return S


def strip_loops(G: DiGraph) -> DiGraph:
    """G with every loop removed; arcs are untouched."""
    return DiGraph._unchecked(G.n, G.arcs, ())


def _sweep(S: ShadowGraph, s: int) -> tuple[list[int], list[int]]:
    """The vertices reached from s in BFS order, and the level of every
    vertex (-1 when unreached). Neighbors are visited in ascending id order;
    the order list is its own queue."""
    level = [-1] * S.n
    level[s] = 0
    order = [s]
    adj = S.adj
    for v in order:
        lw = level[v] + 1
        for w in adj[v]:
            if level[w] < 0:
                level[w] = lw
                order.append(w)
    return order, level


def bfs(S: ShadowGraph, root: int) -> BfsOrder:
    """Breadth-first search from `root`; raises if S is disconnected.

    Neighbors are visited in ascending id order, so the numbering is
    deterministic. BFS numbers are assigned in dequeue order and are therefore
    monotone in level. One sweep fills the down and cross lists too: when v
    is dequeued, every neighbour one level further is reached, so v is one of
    its down-neighbours, and every neighbour on v's own level is reached.
    Down-neighbours arrive in BFS order; each down list is then sorted in
    place, so `down[v]` ascends by id and `down[v][0]` is v's tree edge.
    Cross lists ascend by id as they are filled.
    """
    n = S.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range")
    adj = S.adj
    level = [-1] * n
    level[root] = 0
    order = [root]
    down: list[list[int]] = [[] for _ in range(n)]
    cross: list[tuple[int, ...]] = [()] * n
    for v in order:
        lv = level[v]
        lw = lv + 1
        same = []
        for w in adj[v]:
            x = level[w]
            if x < 0:
                level[w] = lw
                order.append(w)
                down[w].append(v)
            elif x == lw:
                down[w].append(v)
            elif x == lv:
                same.append(w)
        if same:
            cross[v] = tuple(same)
    if len(order) != n:
        raise DisconnectedGraphError(
            f"graph is disconnected: reached {len(order)} of {n} vertices"
        )
    bfsnum = [0] * n
    for i, v in enumerate(order):
        bfsnum[v] = i
    for d in down:
        d.sort()
    return BfsOrder(
        root,
        tuple(order),
        tuple(bfsnum),
        tuple(level),
        tuple(map(tuple, down)),
        tuple(cross),
    )


def is_connected(S: ShadowGraph) -> bool:
    return S.n <= 1 or len(_sweep(S, 0)[0]) == S.n


# --- text format ------------------------------------------------------------
#
# Line-oriented: '# comment', 'n <N>' (exactly once, before any arc or loop),
# 'a <u> <v>' for an arc, 'l <v>' for a loop, 'c <v> <c_1> ... <c_k>' for an
# optional coordinate row. Ids are 0-based decimal. Canonical serialization
# is the n line, then sorted a lines, then sorted l lines, then any c rows,
# with single spaces and every line ending in '\n'.
#
# Both parsers first try a bulk reader that takes only text laid out like
# that (lines within a section may come in any order). It walks each section
# in slices of whole lines, at most _SLICE characters each, checks every
# slice in full against an anchored pattern, decodes a slice of arc lines as
# one JSON list (its "\na " and spaces made commas) and a slice of loop lines
# with str.split and map(int, ...), and checks ranges, self arcs and
# duplicates over whole lists. JSON refuses a leading zero, which int()
# reads, so such text goes to the line parser too. The patterns admit only
# ASCII digits, single spaces and '\n', so str.splitlines sees the same
# lines. Bounding the slice bounds the stack that `re` keeps for each
# repeated line. Any text that fails a check goes whole to the line parser,
# which reads every hand-written layout and is the only source of
# GraphFormatError.

# Characters per checked slice. Larger slices are no faster, and the token
# lists and the regex stack of a slice grow with it.
_SLICE = 1 << 13
_HEAD = re.compile(r"n ([0-9]+)\n")
_ARC_LINES = re.compile(r"(?:a [0-9]+ [0-9]+\n)*")
_LOOP_LINES = re.compile(r"(?:l [0-9]+\n)*")
_ANY_ROWS = re.compile(r"(?:c [ 0-9]*\n)*")  # the c rows parse_graph skips
_GRAPH_LINES = re.compile(r"(?:[nal][ 0-9]*\n)*")  # the lines parse_coords skips


class _NotCanonical(Exception):
    """Raised by the bulk readers on text they leave to the line parser."""


def _slices(pattern: re.Pattern, text: str, pos: int, end: int):
    """text[pos:end] in slices of whole lines of at most _SLICE characters;
    raises _NotCanonical unless every slice matches `pattern` in full."""
    while pos < end:
        stop = text.rfind("\n", pos, min(pos + _SLICE, end)) + 1
        if stop <= pos or not pattern.fullmatch(text, pos, stop):
            raise _NotCanonical
        yield text[pos:stop]
        pos = stop


def _line_start(text: str, tag: str, pos: int, end: int) -> int:
    """The first line start in [pos, end) whose line begins with `tag`, or
    end; pos must be a line start."""
    if text.startswith(tag, pos, end):
        return pos
    i = text.find("\n" + tag, pos, end)
    return end if i < 0 else i + 1


def _bulk_graph(text: str) -> DiGraph:
    """parse_graph on canonical text; raises _NotCanonical on any other."""
    head = _HEAD.match(text)
    n = int(head[1]) if head else 0
    if n < 1:
        raise _NotCanonical
    end = len(text)
    a0 = head.end()
    c0 = _line_start(text, "c ", a0, end)
    l0 = _line_start(text, "l ", a0, c0)
    count = 0

    def arc_slices():
        nonlocal count
        for part in _slices(_ARC_LINES, text, a0, l0):
            # "a 1 2\na 3 4\n" -> [1, 2, 3, 4]
            t = json.loads("[" + part[2:-1].replace("\na ", ",").replace(" ", ",") + "]")
            us = t[0::2]
            vs = t[1::2]
            if max(t) >= n or any(map(eq, us, vs)):
                raise _NotCanonical
            count += len(us)
            yield zip(us, vs)

    # built once: DiGraph._unchecked keeps a frozenset as it is
    arcs = frozenset(chain.from_iterable(arc_slices()))
    loops: set[int] = set()
    nloops = 0
    for part in _slices(_LOOP_LINES, text, l0, c0):
        vs = list(map(int, part.split()[1::2]))
        if max(vs) >= n:
            raise _NotCanonical
        loops.update(vs)
        nloops += len(vs)
    for _ in _slices(_ANY_ROWS, text, c0, end):
        pass
    if len(arcs) != count or len(loops) != nloops:
        raise _NotCanonical
    return DiGraph._unchecked(n, arcs, loops)


def _bulk_coords(text: str) -> tuple[list[int], list[list[int]]]:
    """The c rows of canonical text, column by column: the vertex ids in row
    order and one list of digits per position. Raises _NotCanonical on any
    other text; repeated ids are left to the caller."""
    end = len(text)
    c0 = _line_start(text, "c ", 0, end)
    for _ in _slices(_GRAPH_LINES, text, 0, c0):
        pass
    if c0 == end:
        return [], []
    eol = text.find("\n", c0)
    if eol < 0:
        raise _NotCanonical
    k = text.count(" ", c0, eol) - 1  # the first row's width
    w = k + 2
    ids: list[int] = []
    cols: list[list[int]] = [[] for _ in range(k)]
    # Digits are mostly below the size of a small factor, and a lookup costs
    # about a third of int() per token. The table is built per call (16 us):
    # kept at module level, it raised the peak RSS of `product-verify` runs
    # by 1.1-1.4 MB.
    small_ints = {str(i): i for i in range(256)}
    small = [True] * k  # every digit of the position so far in small_ints
    rows = re.compile("(?:c [0-9]+" + " [0-9]+" * k + "\n)*")
    for part in _slices(rows, text, c0, end):
        t = part.split()
        ids += map(int, t[1::w])
        for i, col in enumerate(cols):
            digits = t[i + 2 :: w]
            if small[i]:
                try:
                    col += list(map(small_ints.__getitem__, digits))
                    continue
                except KeyError:  # a large digit, or a leading zero
                    small[i] = False
            col += map(int, digits)
    return ids, cols


def _coord_columns(text: str) -> tuple[list[int], list[list[int]]] | None:
    """`_bulk_coords` of canonical text; None for any other text, which
    only the line parser reads."""
    try:
        return _bulk_coords(text)
    except (_NotCanonical, ValueError):  # ValueError: int() digit limit
        return None


def _parse_id(token: str, lineno: int, what: str) -> int:
    # str.isdigit alone also accepts non-ASCII digits such as '²' and '١'
    if not (token.isascii() and token.isdigit()):
        raise GraphFormatError(f"{what} must be a nonnegative decimal, got {token!r}", lineno)
    return int(token)


def parse_graph(text: str) -> DiGraph:
    """Parse graph text; raises GraphFormatError with a line number on bad input.

    Coordinate rows ('c ...') are tolerated and skipped; use parse_coords to
    read them. Canonical text is read in bulk; any other text, valid or not,
    is read by the line parser, with the same result or error.
    """
    try:
        return _bulk_graph(text)
    except (_NotCanonical, ValueError):  # ValueError: JSON or int() refuses an id
        pass
    return _parse_graph_lines(text)


def _parse_graph_lines(text: str) -> DiGraph:
    """The line parser behind parse_graph. One split per line; ids that are
    not plain ASCII decimals go through `_parse_id`, which raises."""
    n = None
    arcs: set[tuple[int, int]] = set()
    loops: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        kind = parts[0]
        if kind == "a":
            if n is None:
                raise GraphFormatError("arc line before n line", lineno)
            if len(parts) != 3:
                raise GraphFormatError("arc line takes exactly two ids", lineno)
            _, s, t = parts
            if s.isdigit() and t.isdigit() and s.isascii() and t.isascii():
                u, v = int(s), int(t)
            else:
                u = _parse_id(s, lineno, "arc endpoint")
                v = _parse_id(t, lineno, "arc endpoint")
            if u == v:
                raise GraphFormatError(f"arc ({u}, {v}) is a loop; use an l line", lineno)
            if u >= n or v >= n:
                raise GraphFormatError(f"arc ({u}, {v}) out of range for n={n}", lineno)
            size = len(arcs)
            arcs.add((u, v))
            if len(arcs) == size:
                raise GraphFormatError(f"duplicate arc ({u}, {v})", lineno)
        elif kind == "l":
            if n is None:
                raise GraphFormatError("loop line before n line", lineno)
            if len(parts) != 2:
                raise GraphFormatError("loop line takes exactly one id", lineno)
            v = _parse_id(parts[1], lineno, "loop vertex")
            if v >= n:
                raise GraphFormatError(f"loop at {v} out of range for n={n}", lineno)
            if v in loops:
                raise GraphFormatError(f"duplicate loop at {v}", lineno)
            loops.add(v)
        elif kind == "n":
            if n is not None:
                raise GraphFormatError("duplicate n line", lineno)
            if len(parts) != 2:
                raise GraphFormatError("n line takes exactly one value", lineno)
            n = _parse_id(parts[1], lineno, "vertex count")
            if n < 1:
                raise GraphFormatError("vertex count must be positive", lineno)
        elif kind != "c":
            raise GraphFormatError(f"unknown directive {kind!r}", lineno)
    if n is None:
        raise GraphFormatError("missing n line")
    return DiGraph._unchecked(n, arcs, loops)


def parse_coords(text: str) -> dict[int, tuple[int, ...]]:
    """Read the 'c <vertex> <c_1> ... <c_k>' rows of a coordinate table,
    skipping every other line.

    Canonical text (c rows of one width, after any canonical graph lines) is
    read in bulk; any other text is read by the line parser, with the same
    result or error.
    """
    read = _coord_columns(text)
    if read is not None:
        ids, cols = read
        table = dict(zip(ids, zip(*cols) if cols else repeat(())))
        if len(table) == len(ids):  # else a repeated id, which the line parser names
            return table
    return _parse_coords_lines(text)


def coords_codes(text: str, sizes: list[int]) -> list[int] | None:
    """The mixed-radix code (position 0 slowest) of every vertex's row of a
    coordinate table on the grid of `sizes`, listed by vertex, without a
    tuple per row. None unless the text is canonical and its rows cover
    0..n-1 once each, with len(sizes) digits on the grid; `parse_coords`
    reads every table and names the faults. Rows in vertex order are folded
    as they stand; any other row order is scattered by vertex id."""
    read = _coord_columns(text)
    if read is None:
        return None
    ids, cols = read
    n = prod(sizes)
    if len(ids) != n or len(cols) != len(sizes):
        return None
    if any(max(col) >= size for col, size in zip(cols, sizes)):
        return None
    codes = cols[0] if cols else [0] * n
    for col, size in zip(cols[1:], sizes[1:]):
        codes = [c * size + d for c, d in zip(codes, col)]
    if all(map(eq, ids, range(n))):
        return codes
    if max(ids) >= n:
        return None
    by_id = [-1] * n
    for v, c in zip(ids, codes):
        by_id[v] = c
    return None if -1 in by_id else by_id  # n ids in range: one is missing if one repeats


def _parse_coords_lines(text: str) -> dict[int, tuple[int, ...]]:
    """The line parser behind parse_coords. One split per line; a row whose
    ids are not all plain ASCII decimals goes through `_parse_id`, which
    raises."""
    table: dict[int, tuple[int, ...]] = {}
    width = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts or parts[0] != "c":
            continue
        if len(parts) < 2:
            raise GraphFormatError("coordinate line needs a vertex id", lineno)
        ids = "".join(parts[1:])  # all digits exactly when every id is
        if ids.isdigit() and ids.isascii():
            v = int(parts[1])
            cv = tuple(map(int, parts[2:]))
        else:
            v = _parse_id(parts[1], lineno, "vertex id")
            cv = tuple(_parse_id(t, lineno, "coordinate") for t in parts[2:])
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


def to_text(G: DiGraph) -> str:
    """Canonical serialization: n line, sorted arcs, sorted loops.

    Arcs are grouped by tail and each group's heads sorted, which orders
    them as sorting the arc pairs would: O(n + m) memory.
    """
    heads: list[list[int]] = [[] for _ in range(G.n)]
    for u, v in G.arcs:
        heads[u].append(v)
    return graph_text(G.n, heads, G.loops)


def graph_text(n: int, heads, loops) -> str:
    """The canonical text of the graph on n vertices whose vertex u has the
    heads `heads[u]` (in vertex order; each list is sorted in place) and
    the looped vertices `loops`. One id string per vertex; a tail's arcs
    are one `sep.join` of its heads' ids, so the work per arc is in C."""
    ids = list(map(str, range(n)))
    parts = [f"n {n}"]
    for u, hs in enumerate(heads):
        if hs:
            hs.sort()
            sep = f"\na {ids[u]} "
            parts.append(sep + sep.join(map(ids.__getitem__, hs)))
    parts += [f"\nl {v}" for v in sorted(loops)]
    parts.append("\n")
    return "".join(parts)
