"""The benchmark's three workloads: seeded inputs, the timed job, the output check.

Every workload is a ladder of cases. A case is one input (or input set) with
the arc count it stands for, the files it reads and what a correct result
looks like. `prepare` builds all cases from the workload seed, `job`
is the timed call into the library, and `check` runs outside the timed region
and decides whether the job's output is right.

Each check verifies the first result of a case in full and remembers it; a
later result of the same case is correct exactly when it equals the verified
one, which keeps checking cheap enough to run after every job.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path

from boxfactor import cli, core, directed_factor, loop_factor, oracle, product, shadow_factor
from boxfactor.core import DiGraph


@dataclass(eq=False)
class Case:
    name: str
    arcs: int
    data: dict = field(default_factory=dict)
    verified: object = None


def _rng(workload: str, seed: int) -> random.Random:
    # string seeds go through sha512, so this is the same in every interpreter run
    return random.Random(f"{workload}/{seed}")


def scramble(G: DiGraph, rng: random.Random) -> tuple[DiGraph, list[int]]:
    """G relabeled by a random permutation; perm[old] is the new id."""
    perm = list(range(G.n))
    rng.shuffle(perm)
    return (
        DiGraph(G.n, {(perm[u], perm[v]) for u, v in G.arcs}, {perm[v] for v in G.loops}),
        perm,
    )


def both_ways(n: int, edges, loops=()) -> DiGraph:
    arcs = set()
    for u, v in edges:
        arcs.add((u, v))
        arcs.add((v, u))
    return DiGraph(n, arcs, set(loops))


def directed_path(a: int) -> DiGraph:
    """0 -> 1 -> ... -> a-1 with a loop at the far end: prime for a >= 2."""
    return DiGraph(a, {(i, i + 1) for i in range(a - 1)}, {a - 1})


K2 = both_ways(2, [(0, 1)])
K2_LOOPED = both_ways(2, [(0, 1)], [1])
# 0 -> 1 -> 3 -> 2 -> 0: the shadow is K2 x K2, the arcs are not a product
DCYCLE4 = DiGraph(4, {(0, 1), (1, 3), (3, 2), (2, 0)}, set())
# both-ways 4-cycle on the same square, looped only at the corner opposite 0
LOOPED_SQUARE = both_ways(4, [(0, 1), (1, 3), (3, 2), (2, 0)], [3])


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _report(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


# --- factor-mix -------------------------------------------------------------
#
# Whole `factor` runs on files of 10^3 to 10^4 arcs. The shadow factorization
# is quadratic and dominates every case; the merge passes are a small share.

# (arc target, factor count, prime size) per generated file. Fixed prime
# sizes and arc counts close to the target keep the cost of a case nearly the
# same for every seed; the targets are the median arc counts of these shapes.
# Each file is the draw closest to its target out of GEN_DRAWS. A fixed number
# of draws keeps set-up time the same for every seed; the number of draws a
# rejection loop needs depends on the seed.
_GENERATED = (
    (940, 3, 6),
    (1280, 4, 4),
    (1620, 3, 7),
    (3600, 4, 5),
)
GEN_DRAWS = 8
# grid a is two directed a-paths (2a^2 - 2a arcs), cube q is looped K2 x K2^(q-1).
# grid36 is slower than every generated file and faster than cube10, so the
# p80 of the job times falls on it and not on a seed-dependent file.
_FAMILIES = (("grid", 23), ("grid", 36), ("cube", 8), ("cube", 9), ("cube", 10))


class FactorMix:
    name = "factor-mix"

    def prepare(self, seed: int, workdir: Path) -> list[Case]:
        rng = _rng(self.name, seed)
        cases = []
        for target, nf, size in _GENERATED:
            draws = [
                oracle.gen_product_instance(nf, (size, size), 0.3, rng.randrange(2**31))
                for _ in range(GEN_DRAWS)
            ]
            G, truth = min(draws, key=lambda d: abs(len(d[0].arcs) - target))
            cases.append(self._case(workdir, f"gen{len(cases)}", G, [F.n for F in truth]))
        for kind, size in _FAMILIES:
            if kind == "grid":
                P, _ = product.cartesian_product([directed_path(size)] * 2)
                sizes = [size, size]
            else:
                P, _ = product.cartesian_product([K2_LOOPED] + [K2] * (size - 1))
                sizes = [2] * size
            G, _ = scramble(P, rng)
            cases.append(self._case(workdir, f"{kind}{size}", G, sizes))
        return cases

    @staticmethod
    def _case(workdir: Path, name: str, G: DiGraph, sizes) -> Case:
        path = workdir / f"{name}.dg"
        _write(path, core.to_text(G))
        return Case(name, len(G.arcs), {"path": str(path), "graph": G, "sizes": sorted(sizes)})

    def outputs(self, case: Case) -> list[Path]:
        path = case.data["path"]
        k = len(case.data["sizes"])
        return [Path(f"{path}.factor{i}") for i in range(k)] + [Path(f"{path}.coords")]

    def job(self, case: Case):
        return _run_cli(["factor", "--input", case.data["path"], "--emit-coords"])

    def check(self, case: Case, result) -> bool:
        rc, text = result
        report = _report(text)
        sizes = case.data["sizes"]
        if rc != 0 or report.get("factors") != str(len(sizes)):
            return False
        if sorted(int(s) for s in report.get("sizes", "").split()) != sizes:
            return False
        files = self.outputs(case)
        if not all(p.exists() for p in files):
            return False
        written = [p.read_bytes() for p in files]
        if case.verified is not None:
            return written == case.verified
        factors = [core.parse_graph(b.decode("utf-8")) for b in written[:-1]]
        table = core.parse_coords(written[-1].decode("utf-8"))
        G = case.data["graph"]
        if sorted(table) != list(range(G.n)):
            return False
        if not oracle.reconstruct_check_parts(G, factors, [table[v] for v in range(G.n)]):
            return False
        case.verified = written
        return True


# --- merge-passes -----------------------------------------------------------
#
# Only the direction and loop merge passes, on a shadow factorization and BFS
# order built in set-up. Every case holds two DCYCLE4 copies (one direction
# merge each), two LOOPED_SQUARE copies (one loop merge each), one looped K2
# and `b` plain K2 copies, so k0 = 9 + b, k1 = k0 - 2 and k2 = k1 - 2.

MERGE_LADDER = (1, 2, 3)  # plain K2 copies per case


def compose_shadow_factorization(factors, perm, root: int):
    """Prime shadow factorization of the product of `factors` relabeled by perm.

    Each factor's shadow is factored on its own and the colourings are
    stacked, so the product's quadratic shadow step never runs. `root` is the
    relabeled id of the product's all-zeros vertex.
    """
    subs = [shadow_factor.factor_shadow(core.shadow(F), 0) for F in factors]
    offsets = []
    total = 0
    for SFi in subs:
        offsets.append(total)
        total += len(SFi.factors)
    strides = [1] * len(factors)
    for i in range(len(factors) - 2, -1, -1):
        strides[i] = strides[i + 1] * factors[i + 1].n
    n = strides[0] * factors[0].n
    coords: list[tuple[int, ...]] = [()] * n
    for v in range(n):
        parts = []
        for i, SFi in enumerate(subs):
            parts.extend(SFi.coordin.coords[v // strides[i] % factors[i].n])
        coords[perm[v]] = tuple(parts)
    colors = {}
    for i, F in enumerate(factors):
        st = strides[i]
        for (a, b), c in subs[i].colors.items():
            for v in range(n):
                if v // st % F.n != a:
                    continue
                u, w = perm[v], perm[v + (b - a) * st]
                colors[(u, w) if u < w else (w, u)] = offsets[i] + c
    coordin = product.Coordinatization(
        tuple(Fj for SFi in subs for Fj in SFi.coordin.factors), tuple(coords), root
    )
    return shadow_factor.ShadowFactorization(
        root, colors, tuple(Z for SFi in subs for Z in SFi.factors), coordin
    )


class MergePasses:
    name = "merge-passes"

    def prepare(self, seed: int, workdir: Path) -> list[Case]:
        rng = _rng(self.name, seed)
        cases = []
        for b in MERGE_LADDER:
            factors = [DCYCLE4, DCYCLE4, LOOPED_SQUARE, LOOPED_SQUARE, K2_LOOPED] + [K2] * b
            rng.shuffle(factors)
            P, _ = product.cartesian_product(factors)
            G, perm = scramble(P, rng)
            root = perm[0]
            SF = compose_shadow_factorization(factors, perm, root)
            B = core.bfs(core.shadow(G), root)
            k0 = 9 + b
            expect = {"k0": k0, "k1": k0 - 2, "k2": k0 - 4, "directed": 2, "loops": 2}
            cases.append(
                Case(f"k{k0}", len(G.arcs), {"G": G, "SF": SF, "B": B, "expect": expect})
            )
        return cases

    def outputs(self, case: Case) -> list[Path]:
        return []

    def job(self, case: Case):
        d = case.data
        NF = directed_factor.factor_directed(core.strip_loops(d["G"]), d["SF"], d["B"])
        return NF, loop_factor.factor_with_loops(d["G"], NF, d["B"])

    def check(self, case: Case, result) -> bool:
        NF, F = result
        e = case.data["expect"]
        counts = (len(case.data["SF"].factors), len(NF.factors), len(F.factors), NF.merges, F.merges)
        if counts != (e["k0"], e["k1"], e["k2"], e["directed"], e["loops"]):
            return False
        fingerprint = (F.factors, F.coordin.coords)
        if case.verified is not None:
            return fingerprint == case.verified
        if not oracle.reconstruct_check(case.data["G"], F):
            return False
        case.verified = fingerprint
        return True


# --- product-verify ---------------------------------------------------------
#
# `product` then `verify` on random digraph pairs; nothing is factored, all
# time goes to reading, building, writing and comparing graphs.

PRODUCT_LADDER = (8_000, 20_000, 50_000)  # product arcs per case
ARC_WINDOW = 0.05


def random_digraph(rng: random.Random, n: int) -> DiGraph:
    """Random tree with random arc directions, n/2 extra arcs, 10 % loops."""
    arcs = set()
    for v in range(1, n):
        p = rng.randrange(v)
        roll = rng.random()
        if roll < 0.4:
            arcs.add((p, v))
        elif roll < 0.8:
            arcs.add((v, p))
        else:
            arcs.update(((p, v), (v, p)))
    for _ in range(n // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.add((u, v))
    return DiGraph(n, arcs, {v for v in range(1, n) if rng.random() < 0.1})


class ProductVerify:
    name = "product-verify"

    def prepare(self, seed: int, workdir: Path) -> list[Case]:
        rng = _rng(self.name, seed)
        cases = []
        for target in PRODUCT_LADDER:
            n = max(2, round((target / 3.3) ** 0.5))
            while True:
                A, B = random_digraph(rng, n), random_digraph(rng, n)
                arcs = len(A.arcs) * B.n + len(B.arcs) * A.n
                if abs(arcs - target) <= ARC_WINDOW * target:
                    break
            P, C = product.cartesian_product([A, B])
            relabeled, perm = scramble(P, rng)
            stem = workdir / f"rand{target}"
            paths = {key: f"{stem}.{key}" for key in ("a", "b", "t", "p")}
            _write(Path(paths["a"]), core.to_text(A))
            _write(Path(paths["b"]), core.to_text(B))
            rows = [None] * P.n
            for v, cv in enumerate(C.coords):
                rows[perm[v]] = "c " + " ".join(map(str, (perm[v], *cv)))
            _write(Path(paths["t"]), "\n".join(rows) + "\n")
            expected = core.to_text(relabeled).encode("utf-8")
            cases.append(Case(f"rand{target}", len(P.arcs), {**paths, "expected": expected}))
        return cases

    def outputs(self, case: Case) -> list[Path]:
        return [Path(case.data["p"])]

    def job(self, case: Case):
        d = case.data
        rc1, _ = _run_cli(["product", d["a"], d["b"], "--coords", d["t"], "-o", d["p"]])
        rc2, text = _run_cli(["verify", d["p"], d["a"], d["b"], "--coords", d["t"]])
        return rc1, rc2, text

    def check(self, case: Case, result) -> bool:
        rc1, rc2, text = result
        if rc1 != 0 or rc2 != 0 or _report(text).get("verified") != "true":
            return False
        p = Path(case.data["p"])
        return p.exists() and p.read_bytes() == case.data["expected"]


WORKLOADS = {w.name: w for w in (FactorMix(), MergePasses(), ProductVerify())}
