"""Batch command-line front end.

Subcommands: `factor` (prime factorization of a graph file), `product`
(multiply graph files), `generate` (seeded random product instances),
`verify` (check a claimed factorization against a graph), and `bench`
(empirical scaling of `factor_full`'s merge entry, timed on the shadow
coordinates and BFS that `loop_factor._shadow_stage`, `factor_full`'s own
first stage, builds). `factor` runs
`factor_full` once and prints its report from the result: the root from
the coordinates, the merge count and the per-pass times from `stages`.
`product` writes the canonical text straight from the factors
(`product_text`), laid out by a coordinate table read into one mixed-radix
code per vertex (`_claim`). `verify` compares the graph file's text with
that text for the claimed factors and table; canonical text is unique, so
equal text proves equal graphs. Any other file, and any error while
building the text, goes to the parse-and-compare path, which alone prints
`false` and reports errors, the graph file's first. `main` runs each
command with the cyclic garbage collector paused.

Exit codes: 0 ok, 2 unreadable or malformed input (or bad arguments),
3 disconnected graph, 4 no unlooped vertex, 5 verification failure,
6 internal invariant failed (a FactorizationError: a bug, not a bad input),
7 out of memory.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import random
import statistics
import sys
import time
from pathlib import Path

from .core import (
    DiGraph,
    coords_codes,
    parse_coords,
    parse_graph,
    to_text,
)
from .errors import (
    DisconnectedGraphError,
    FactorizationError,
    GraphFormatError,
    NoUnloopedVertexError,
)
from .loop_factor import _merge_scans, _shadow_stage, factor_full
from .oracle import _orient, gen_product_instance, reconstruct_check, reconstruct_check_parts
from .product import Coordinatization, cartesian_product, coords_text, product_text

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DISCONNECTED = 3
EXIT_ALL_LOOPED = 4
EXIT_VERIFY = 5
EXIT_INTERNAL = 6
EXIT_MEMORY = 7


def _load_graph(path: str) -> DiGraph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def _load_table(path: str) -> str:
    """The text of a coordinate table file, read once per command."""
    return Path(path).read_text(encoding="utf-8")


def _table_rows(table: str, n: int) -> list[tuple[int, ...]]:
    """The rows of a coordinate table text, in vertex order; the table must
    cover vertices 0..n-1 exactly."""
    rows = parse_coords(table)
    # the keys are distinct nonnegative ids, so these two checks pin them down
    if len(rows) != n or max(rows, default=-1) != n - 1:
        raise GraphFormatError(f"coordinate table must cover vertices 0..{n - 1}")
    return [rows[v] for v in range(n)]


def _claim(factors: list[DiGraph], table: str | None) -> Coordinatization:
    """The coordinates that lay out the product of `factors`: those of the
    coordinate table text `table`, or row-major when it is None. A table
    that `coords_codes` reads and whose codes are a bijection is used as
    codes; any other goes through `_table_rows` and the tuple constructor,
    which alone raise, a GraphFormatError naming the first fault."""
    sizes = [F.n for F in factors]
    if table is None:
        return Coordinatization._of_codes(factors, range(math.prod(sizes)), 0)
    codes = coords_codes(table, sizes)
    if codes is not None:
        C = Coordinatization._of_codes(factors, codes, 0)
        try:
            C.vertex_at
        except FactorizationError:
            pass  # a code assigned twice: the rows path names it
        else:
            return C
    rows = _table_rows(table, math.prod(sizes))
    try:
        C = Coordinatization(factors, rows, 0)
        C.vertex_at
    except FactorizationError as exc:  # wrong width, off the grid, assigned twice
        raise GraphFormatError(f"coordinate table: {exc}") from exc
    return C


def _final_edge_colors(G: DiGraph, C: Coordinatization) -> dict[tuple[int, int], int]:
    # the color of a shadow edge is the one coordinate position c it
    # changes: its code difference is a step of digit c that does not
    # borrow, keeping u's code modulo the span st*size of digit c in range
    codes = C.codes
    digits = list(zip(C.strides, (F.n for F in C.factors)))
    span = [s * size for s, size in digits]
    step = C.steps
    out = {}
    for u, v in sorted({(u, v) if u < v else (v, u) for u, v in G.arcs}):
        d = codes[v] - codes[u]
        c = step.get(d)
        if c is None or not 0 <= codes[u] % span[c] + d < span[c]:
            changed = sum(codes[u] // s % size != codes[v] // s % size for s, size in digits)
            raise FactorizationError(f"edge ({u}, {v}) changes {changed} coordinates")
        out[(u, v)] = c
    return out


def cmd_factor(args) -> int:
    t_start = time.perf_counter()
    G = _load_graph(args.input)
    t_parse = time.perf_counter() - t_start

    F = factor_full(G, args.root)
    times = {name: seconds for name, seconds, _ in F.stages}
    merges = sum(m for _, _, m in F.stages)

    print(f"input: {args.input}")
    print(f"vertices: {G.n}")
    print(f"arcs: {len(G.arcs)}")
    print(f"loops: {len(G.loops)}")
    print(f"root: {F.coordin.root}")
    print(f"factors: {len(F.factors)}")
    print("sizes: " + " ".join(str(Fi.n) for Fi in F.factors))
    print(f"merges: {merges}")

    for i, Fi in enumerate(F.factors):
        path = f"{args.input}.factor{i}"
        Path(path).write_text(to_text(Fi), encoding="utf-8")
        print(f"factor_file: {path}")
    if args.emit_coords:
        path = f"{args.input}.coords"
        Path(path).write_text(coords_text(F.coordin), encoding="utf-8")
        print(f"coords_file: {path}")
    if args.emit_colors:
        path = f"{args.input}.colors"
        lines = [
            f"e {u} {v} {c}" for (u, v), c in _final_edge_colors(G, F.coordin).items()
        ]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        print(f"colors_file: {path}")

    ok = True
    if args.verify:
        ok = reconstruct_check(G, F)
        print(f"verified: {'true' if ok else 'false'}")

    t_total = time.perf_counter() - t_start
    print(f"time_parse: {t_parse:.6f}")
    for name in ("prepare", "shadow", "directed", "loops"):
        print(f"time_{name}: {times.get(name, 0.0):.6f}")
    print(f"time_total: {t_total:.6f}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_product(args) -> int:
    factors = [_load_graph(p) for p in args.inputs]
    table = None if args.coords is None else _load_table(args.coords)
    text = product_text(_claim(factors, table))
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_generate(args) -> int:
    G, factors = gen_product_instance(
        args.factors, (args.min, args.max), args.loops, args.seed
    )
    Path(args.output).write_text(to_text(G), encoding="utf-8")
    print(f"graph_file: {args.output}")
    for i, F in enumerate(factors):
        path = f"{args.output}.truth{i}"
        Path(path).write_text(to_text(F), encoding="utf-8")
        print(f"truth_file: {path}")
    print(f"vertices: {G.n}")
    print(f"arcs: {len(G.arcs)}")
    print(f"loops: {len(G.loops)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    text = Path(args.graph).read_text(encoding="utf-8")
    factors = table = C = None
    try:
        factors = [_load_graph(p) for p in args.factors]
        table = _load_table(args.coords)
        C = _claim(factors, table)
        # canonical text is unique, so equal text proves equal graphs
        ok = product_text(C) == text
    except (ValueError, OSError, FactorizationError, MemoryError):
        ok = False  # the path below reports the error, the graph file's first
    if not ok:
        G = parse_graph(text)
        if factors is None:
            factors = [_load_graph(p) for p in args.factors]
        if table is None:
            table = _load_table(args.coords)
        if C is not None and len(C.codes) == G.n:
            rows = C.coords
        else:
            rows = _table_rows(table, G.n)
        ok = reconstruct_check_parts(G, factors, rows)
    print(f"verified: {'true' if ok else 'false'}")
    return EXIT_OK if ok else EXIT_VERIFY


def _directed_path(n: int) -> DiGraph:
    loops = {n - 1} if n > 1 else set()
    return DiGraph(n, {(i, i + 1) for i in range(n - 1)}, loops)


def _bench_random_digraph(rng: random.Random, n: int) -> DiGraph:
    arcs = set()
    for v in range(1, n):
        arcs.update(_orient(rng, rng.randrange(v), v))
    for _ in range(n // 2):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            arcs.add((u, v))
    loops = {v for v in range(1, n) if rng.random() < 0.1}
    return DiGraph(n, arcs, loops)


def _bench_instance(family: str, target_arcs: int, rng: random.Random):
    """The family's largest instance with at most `target_arcs` arcs (the
    smallest instance when none fits)."""
    if family == "grid":
        # two directed paths, loops at the far ends: m = 2a^2 - 2a
        a = max(2, (math.isqrt(2 * target_arcs + 1) + 1) // 2)
        return cartesian_product([_directed_path(a), _directed_path(a)])
    if family == "cube":
        # looped K2 times q-1 plain K2: m = q * 2^q
        q = 1
        while (q + 1) * 2 ** (q + 1) <= target_arcs:
            q += 1
        k2 = DiGraph(2, {(0, 1), (1, 0)}, set())
        k2_loop = DiGraph(2, {(0, 1), (1, 0)}, {1})
        return cartesian_product([k2_loop] + [k2] * (q - 1))
    if family == "randprod":
        # about 3.3 n^2 arcs; shrink n until a draw fits
        n = max(2, int(math.sqrt(target_arcs / 3.3)))
        while True:
            A = _bench_random_digraph(rng, n)
            B = _bench_random_digraph(rng, n)
            if (len(A.arcs) + len(B.arcs)) * n <= target_arcs or n == 2:
                return cartesian_product([A, B])
            n -= 1
    raise ValueError(f"unknown family {family!r}")


def cmd_bench(args) -> int:
    if args.min_arcs < 4 or args.max_arcs < args.min_arcs:
        raise GraphFormatError("need 4 <= min-arcs <= max-arcs")
    if args.reps < 1:
        raise GraphFormatError(f"--reps must be at least 1, got {args.reps}")
    rng = random.Random(args.seed)
    # doubling targets, the last one --max-arcs itself
    targets = [args.min_arcs]
    while targets[-1] * 2 < args.max_arcs:
        targets.append(targets[-1] * 2)
    if targets[-1] < args.max_arcs:
        targets.append(args.max_arcs)

    rows = []
    seen = set()
    print("arcs,seconds,seconds_per_arc")
    for target in targets:
        G = _bench_instance(args.family, target, rng)[0]
        if len(G.arcs) in seen:
            continue  # an earlier row already timed this size
        seen.add(len(G.arcs))
        # set up with `factor_full`'s own stage; the reps time its merge entry
        B, C, _ = _shadow_stage(G)

        def run():
            return _merge_scans(G, C, B)

        run()  # warmup: caches, lazy tables
        times = []
        for _ in range(args.reps):
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
        sec = statistics.median(times)
        arcs = len(G.arcs)
        rows.append((arcs, sec, sec / arcs))
        print(f"{arcs},{sec:.6f},{sec / arcs:.6e}", flush=True)
        del G, C, B  # reference counting frees this size before the next

    if args.emit_csv:
        lines = ["arcs,seconds,seconds_per_arc"]
        lines += [f"{a},{s:.6f},{spa:.6e}" for a, s, spa in rows]
        Path(args.emit_csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxfactor",
        description="Prime factorization of directed graphs with loops "
        "under the Cartesian product.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor a graph file into primes")
    p.add_argument("--input", required=True, help="graph file to factor")
    p.add_argument("--root", type=int, default=None, help="unlooped root vertex id")
    p.add_argument("--emit-coords", action="store_true", help="write <input>.coords")
    p.add_argument("--emit-colors", action="store_true", help="write <input>.colors")
    p.add_argument(
        "--verify", action="store_true", help="rebuild the product and compare"
    )

    p = sub.add_parser("product", help="multiply graph files")
    p.add_argument("inputs", nargs="+", help="factor graph files, in order")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.add_argument(
        "--coords",
        default=None,
        help="coordinate table fixing the output vertex labels",
    )

    p = sub.add_parser("generate", help="seeded random product instance")
    p.add_argument("--factors", type=int, default=2, help="number of prime factors")
    p.add_argument("--min", type=int, default=2, help="smallest factor size")
    p.add_argument("--max", type=int, default=4, help="largest factor size")
    p.add_argument("--loops", type=float, default=0.0, help="loop probability")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("-o", "--output", required=True, help="output graph file")

    p = sub.add_parser("verify", help="check a claimed factorization")
    p.add_argument("graph", help="the graph file")
    p.add_argument("factors", nargs="+", help="claimed factor files, in order")
    p.add_argument("--coords", required=True, help="coordinate table file")

    p = sub.add_parser("bench", help="scaling benchmark of the two scans")
    p.add_argument(
        "--family",
        choices=("grid", "cube", "randprod"),
        default="grid",
        help="instance family",
    )
    p.add_argument("--min-arcs", type=int, default=1000)
    p.add_argument("--max-arcs", type=int, default=1000000)
    p.add_argument("--reps", type=int, default=5, help="timed repetitions per size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-csv", default=None, help="also write the CSV here")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # argparse set-up takes about 1 ms, most of a `factor` run on a tiny graph
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # the library makes no reference cycles, so the cyclic collector only
    # costs time here; it is paused for the command and restored as found
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # looked up per call, so a replaced cmd_* is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except DisconnectedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except NoUnloopedVertexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ALL_LOOPED
    except FactorizationError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (OSError, ValueError) as exc:  # GraphFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_MEMORY
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
