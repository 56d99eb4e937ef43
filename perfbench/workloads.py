"""The benchmark's workloads: generated inputs, CLI invocations, their
in-process equivalents, and the checks applied to every output.

Each workload is built from a seed.  The seed picks the prime p of
GF(p) (p = 1 mod 4, in [2^30, 2^31)), a permutation of the variables of
every generated document, and the parameters of the small queries.
Documents are written by :mod:`refmf`; mfkit only ever sees them as
files and arguments.  See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import refmf as R


@dataclass
class Invocation:
    """One ``python -m mfkit ARGV`` call and how to judge it."""

    name: str
    argv: list[str]
    exit: int = 0
    env: dict = field(default_factory=dict)
    artifact: str | None = None                   # path given to --output
    inputs: list[str] = field(default_factory=list)
    # check(stdout, stderr, artifact text or None) -> problems
    check: Callable[[str, str, str | None], list[str]] = lambda out, err, art: []
    # The same operation through the public API: returns a value that
    # must equal ``lib_expect``; None when the command is CLI-only.
    lib: Callable[[], object] | None = None
    lib_expect: object = None


@dataclass
class LibOp:
    """One timed in-process operation through the public API."""

    name: str
    run: Callable[[], object]
    expect: object


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    lib_ops: list[LibOp]
    # Passes over the invocations, over the lib ops, and traced rounds in
    # a 30-second run (scaled with --seconds); fixed, so that two commits
    # compared on one machine do the same work.
    cli_passes: int
    lib_passes: int
    trace_rounds: int


def lib_ops_of(invocations: list[Invocation]) -> list[LibOp]:
    return [LibOp(inv.name, inv.lib, inv.lib_expect) for inv in invocations if inv.lib is not None]


def _dump(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def binom(x: int, k: int) -> int:
    return math.comb(x, k) if 0 <= k <= x else 0


def bott_h(n: int, p: int, q: int, l: int) -> int:
    """Bott's formula for h^q(P^n, Omega^p(l))."""
    if not (0 <= p <= n and 0 <= q <= n):
        return 0
    if q == 0 and l > p:
        return binom(l + n - p, l) * binom(l - 1, p)
    if l == 0 and q == p:
        return 1
    if q == n and l < p - n:
        return binom(p - l, -l) * binom(-l - 1, n - p)
    return 0


def rho_o(n: int, d: int) -> int:
    return R.rho_structure_sheaf_table(n, d)[(n, d)]


# ---------------------------------------------------------------------------
# Check builders


def _report(fn) -> Callable:
    """Check a --json report on stdout with fn(report) -> problems."""
    def check(out, err, art):
        try:
            report = json.loads(out)
        except ValueError as exc:
            return [f"stdout is not a JSON report: {exc}"]
        return fn(report)
    return check


def _results(**want) -> Callable:
    def fn(report):
        got = report.get("results", {})
        return [f"results.{k} = {got.get(k)!r}, expected {v!r}" for k, v in want.items()
                if got.get(k) != v]
    return fn


def _both(*checks) -> Callable:
    return lambda out, err, art: [p for c in checks for p in c(out, err, art)]


def _mf_artifact(rng, **expect) -> Callable:
    def check(out, err, art):
        if art is None:
            return ["no artifact written"]
        try:
            doc = json.loads(art)
        except ValueError as exc:
            return [f"artifact is not JSON: {exc}"]
        return R.check_mf_document(doc, rng=rng, **expect)
    return check


def _table_artifact(schema: str, total: int, entries: list | None = None) -> Callable:
    def check(out, err, art):
        if art is None:
            return ["no artifact written"]
        try:
            doc = json.loads(art)
            got = sum(v for _, _, v in doc["entries"])
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable table artifact: {exc!r}"]
        problems = []
        if doc.get("schema") != schema:
            problems.append(f"artifact schema {doc.get('schema')!r}")
        if got != total:
            problems.append(f"artifact total {got}, expected {total}")
        if entries is not None and doc["entries"] != entries:
            problems.append("artifact entries differ from the expected table")
        return problems
    return check


def _text(expected: str) -> Callable:
    def check(out, err, art):
        return [] if out == expected + "\n" else [f"stdout {out[:80]!r}, expected {expected!r}"]
    return check


def _contains(needle: str, stream: str = "out") -> Callable:
    def check(out, err, art):
        text = out if stream == "out" else err
        return [] if needle in text else [f"{stream} lacks {needle!r}: {text[:120]!r}"]
    return check


def _sweep(n_max: int, d_max: int) -> Callable:
    return lambda out, err, art: R.check_sweep(out, n_max, d_max)


def _raises(fn) -> Callable:
    def run():
        try:
            fn()
        except ValueError:
            return "ValueError"
        return "no error"
    return run


def _vector_text(entries: dict) -> str:
    return ", ".join(f"h^{q}={v}" for q, v in sorted(entries.items()) if v) or "0"


# ---------------------------------------------------------------------------
# In-process helpers over the public API


class Lib:
    """Public-API operations shared by the workloads' lib ops."""

    def __init__(self, api):
        self.api = api

    def load(self, path: str):
        with open(path, "rb") as handle:
            return self.api.cli.document_to_mf(json.loads(handle.read()))

    def valid(self, path: str):
        return self.api.mf.require_valid(self.load(path))

    def dumps(self, F) -> int:
        json.dumps(self.api.cli.mf_to_document(F), indent=2)
        return F.rank0

    def ctx(self, n: int, d: int):
        return self.api.orlov.HypersurfaceContext(n, d)

    def table(self, path: str):
        with open(path, "rb") as handle:
            doc = json.loads(handle.read())
        counts = {(p, h): v for p, h, v in doc["entries"]}
        return self.api.orlov.CohomologyTable.from_mapping(doc["n"], counts)

    def sweep_rows(self, n_lo: int, n_hi: int, d_max: int) -> str:
        """The sweep's CSV rows for n_lo <= n <= n_hi, without header."""
        bott, ctx = self.api.bott, self.ctx
        lines = []
        for n in range(n_lo, n_hi + 1):
            for d in range(n + 1, d_max + 1):
                c = ctx(n, d)
                rho = bott.rho_structure_sheaf(n, d)
                bound = 2 ** (c.e + 1)
                lines.append(f"{n},{d},{c.a},{c.e},{rho},{bound},{'true' if rho >= bound else 'false'}")
        return "\n".join(lines)


def _fp_json(p: int) -> dict:
    return {"type": "Fp", "p": p}


# ---------------------------------------------------------------------------
# mf_large


def build_mf_large(seed: int, work: Path, api) -> Workload:
    rng = random.Random(seed)
    p = R.seeded_prime(rng)
    qi, fp = R.Ring("Qi"), R.Ring("Fp", p)
    perm12, perm10 = _perm(rng, 12), _perm(rng, 10)
    check_rng = random.Random(seed ^ 0x5EED)
    lib = Lib(api)
    QI = {"type": "Qi"}

    a32 = R.fermat(qi, 12, 6, 2, perm12)
    r64 = R.fermat(fp, 12, 6, 2, perm12, split_first=True, normalize=False)
    r64_reduced = R.fermat(fp, 12, 6, 2, perm12, normalize=False)
    r32 = R.fermat(qi, 10, 5, 2, perm10, split_first=True, normalize=False)
    c_qi = R.fermat(qi, 12, 6, 6, perm12)
    c_fp = R.fermat(fp, 12, 6, 6, perm12)
    t1 = R.fermat(qi, 12, 3, 2, perm12, normalize=False)
    t2 = R.fermat(qi, 12, 3, 2, perm12[6:] + perm12[:6], normalize=False)
    t12 = R.tensor(t1, t2)
    fermat_fp = R.fermat(fp, 12, 6, 2)

    files = {name: _dump(work / f"{name}.json", F.document()) for name, F in (
        ("A32_qi", a32), ("R64_fp", r64), ("R32_qi", r32), ("C66_qi", c_qi),
        ("C66_fp", c_fp), ("T1_qi", t1), ("T2_qi", t2))}
    out = lambda name: str(work / f"out_{name}.json")

    invs = [
        Invocation(
            "mf.fermat.fp",
            ["mf", "fermat", "--pairs", "6", "--half-degree", "2", "--field", "Fp",
             "--p", str(p), "--json", "--output", out("fermat")],
            artifact=out("fermat"),
            check=_both(_report(_results(rank=32, nvars=12, d=4)),
                        _mf_artifact(check_rng, field=_fp_json(p), nvars=12, d=4, rank=32,
                                     f0=fermat_fp.f0, f1=fermat_fp.f1)),
            lib=lambda: lib.dumps(api.mf.fermat(6, 2, field=api.algebra.GF(p))), lib_expect=32,
        ),
        Invocation(
            "mf.validate.qi", ["mf", "validate", files["A32_qi"], "--json"],
            inputs=[files["A32_qi"]],
            check=_report(_results(valid=True, rank=32, reduced=True)),
            lib=lambda: api.mf.validate(lib.load(files["A32_qi"])), lib_expect=[],
        ),
        Invocation(
            "mf.tensor.qi",
            ["mf", "tensor", files["T1_qi"], files["T2_qi"], "--json", "--output", out("tensor")],
            inputs=[files["T1_qi"], files["T2_qi"]], artifact=out("tensor"),
            check=_both(_report(_results(rank=32)),
                        _mf_artifact(check_rng, field=QI, nvars=12, d=4, rank=32,
                                     f0=t12.f0, f1=t12.f1)),
            lib=lambda: lib.dumps(api.mf.tensor(lib.valid(files["T1_qi"]), lib.valid(files["T2_qi"]))),
            lib_expect=32,
        ),
        Invocation(
            "mf.reduce.fp", ["mf", "reduce", files["R64_fp"], "--json", "--output", out("reduce")],
            inputs=[files["R64_fp"]], artifact=out("reduce"),
            check=_both(_report(_results(rank=32, rank_before=64, splits=32, reduced=True)),
                        _mf_artifact(check_rng, field=_fp_json(p), nvars=12, d=4, rank=32,
                                     f0=r64_reduced.f0, f1=r64_reduced.f1)),
            lib=lambda: lib.dumps(api.mf.reduce(lib.valid(files["R64_fp"]))), lib_expect=32,
        ),
        Invocation(
            "check.bgs.qi", ["check", "bgs", files["R32_qi"], "--json"],
            inputs=[files["R32_qi"]],
            check=_report(lambda rep: [] if [(v["value"], v["bound"], v["passed"], v["trivial"])
                                            for v in rep.get("verdicts", [])] == [(32, 16, True, False)]
                          else [f"verdicts {rep.get('verdicts')!r}"]),
            lib=lambda: api.orlov.check_bgs(lib.ctx(9, 4), lib.load(files["R32_qi"])).passed,
            lib_expect=True,
        ),
        Invocation(
            "orlov.translate.qi",
            ["orlov", "translate", files["C66_qi"], "--json", "--output", out("translate")],
            inputs=[files["C66_qi"]], artifact=out("translate"),
            check=_both(_report(lambda rep: _results(total=64)(rep) + (
                [] if rep.get("context", {}).get("a") == 0 else ["context a != 0"])),
                _table_artifact("mfkit/table-v1", 64)),
            lib=lambda: api.orlov.betti_to_table(
                lib.ctx(11, 12), api.mf.betti(lib.valid(files["C66_qi"]))).total(),
            lib_expect=64,
        ),
        Invocation(
            "rho.from_mf.fp", ["rho", "from-mf", files["C66_fp"]], inputs=[files["C66_fp"]],
            check=_text("64"),
            lib=lambda: api.orlov.rho_of_mf(lib.load(files["C66_fp"])), lib_expect=64,
        ),
    ]
    return Workload("mf_large", invs, lib_ops_of(invs), cli_passes=4, lib_passes=3, trace_rounds=2)


# ---------------------------------------------------------------------------
# cli_small


def build_cli_small(seed: int, work: Path, api) -> Workload:
    rng = random.Random(seed)
    p = R.seeded_prime(rng)
    qi, fp = R.Ring("Qi"), R.Ring("Fp", p)
    perm4, perm6 = _perm(rng, 4), _perm(rng, 6)
    check_rng = random.Random(seed ^ 0x5EED)
    lib = Lib(api)
    QI, FP = {"type": "Qi"}, _fp_json(p)

    s2 = R.fermat(qi, 4, 2, 2, perm4)                  # rank 2, n = 3, d = 4
    s4 = R.fermat(fp, 6, 3, 3, perm6)                  # rank 4, n = 5, d = 6
    rs = R.fermat(qi, 4, 2, 2, perm4, split_first=True, normalize=False)
    rs_reduced = R.fermat(qi, 4, 2, 2, perm4, normalize=False)
    ta = R.pair_factor(fp, 4, perm4[0], perm4[1], 1)
    tb = R.pair_factor(fp, 4, perm4[2], perm4[3], 1)
    tab_ = R.tensor(ta, tb)
    bad = s2.document()
    bad["s0"][0][0] = "x0^2 + y1"                      # unknown variable

    # A small in-support cohomology table for invert / dual-table / from-table.
    tn = rng.randint(2, 4)
    td = tn + 1 + rng.randint(0, 3)
    cells = rng.sample([(pp, h) for pp in range(tn + 1) for h in range(tn)], 3)
    entries = sorted([pp, h, rng.randint(1, 5)] for pp, h in cells)
    ttotal = sum(v for _, _, v in entries)
    dual_entries = sorted([tn - pp, tn - 1 - h, v] for pp, h, v in entries)

    files = {name: _dump(work / f"{name}.json", doc) for name, doc in (
        ("S2_qi", s2.document()), ("S4_fp", s4.document()), ("Rs_qi", rs.document()),
        ("Ta_fp", ta.document()), ("Tb_fp", tb.document()), ("bad", bad),
        ("table", {"schema": "mfkit/table-v1", "n": tn, "entries": entries}))}
    out = lambda name: str(work / f"out_{name}.json")

    # Scalar query parameters.
    bn = rng.randint(2, 6)
    bp, bq, bl = rng.randint(0, bn), rng.choice([0, bn, rng.randint(0, bn)]), rng.randint(-8, 8)
    vn = rng.randint(2, 6)
    vp, vl = rng.randint(0, vn), rng.randint(-8, 8)
    rn, rd = rng.randint(2, 5), rng.randint(1, 5)
    rr, rt = rng.randint(0, rn), rng.randint(-4, 4)
    sn = rng.randint(1, 5)
    sd = sn + 1 + rng.randint(0, 4)
    pn = rng.randint(2, 8)
    hn = rng.randint(2, 4)
    hd = hn + 1 + rng.randint(0, 3)
    hl = rng.randint(-10, 10)
    mn, md, mm = rng.randint(1, 4), rng.randint(2, 5), -rng.randint(0, 6)
    wn = rng.randint(3, 6)
    wd = wn + 1 + rng.randint(0, 6)
    half = rng.randint(1, 3)
    tw = rng.randint(-3, 3)

    # Expected values from the documented formulas.
    def restricted_check(out, err, art):
        # h^q values >= 0 in [0, n]; Euler characteristic additive on
        # 0 -> Omega^r(r+t-d) -> Omega^r(r+t) -> restriction -> 0.
        text = out.strip()
        try:
            got = {} if text == "0" else {
                int(k[2:]): int(v) for k, v in (part.split("=") for part in text.split(", "))}
        except ValueError:
            return [f"unreadable vector {text!r}"]
        chi = lambda vec: sum((-1) ** q * v for q, v in vec.items())
        amb = {q: bott_h(rn, rr, q, rr + rt) for q in range(rn + 1)}
        sub = {q: bott_h(rn, rr, q, rr + rt - rd) for q in range(rn + 1)}
        problems = [f"h^{q} out of range" for q, v in got.items() if not (0 <= q <= rn and v > 0)]
        if chi(got) != chi(amb) - chi(sub):
            problems.append("Euler characteristic of the restriction is not additive")
        return problems

    def phi0_text() -> str:
        a = hn + 1 - hd
        q = -((-hl) // hd)
        r = q * hd - hl
        if -r > a:
            return "0"
        e = r + a
        return f"i^*(wedge^{e} T)({-e})[{2 * q + hn - e - 1}]"

    def shamash_text() -> str:
        mult: dict[int, int] = {}
        j = 0
        while -mm - 2 * j >= 0:
            s = -mm - 2 * j
            if s <= mn + 1:
                mult[s + j * md] = mult.get(s + j * md, 0) + math.comb(mn + 1, s)
            j += 1
        return ", ".join(f"degree {k} x {v}" for k, v in sorted(mult.items())) or "(empty)"

    bott, orlov, mf = api.bott, api.orlov, api.mf
    invs = [
        Invocation("mf.validate", ["mf", "validate", files["S2_qi"], "--json"], inputs=[files["S2_qi"]],
                   check=_report(_results(valid=True, rank=2)),
                   lib=lambda: mf.validate(lib.load(files["S2_qi"])), lib_expect=[]),
        Invocation("mf.reduce", ["mf", "reduce", files["Rs_qi"], "--json", "--output", out("reduce")],
                   inputs=[files["Rs_qi"]], artifact=out("reduce"),
                   check=_both(_report(_results(rank=2, splits=2)),
                               _mf_artifact(check_rng, field=QI, nvars=4, d=4, rank=2,
                                            f0=rs_reduced.f0, f1=rs_reduced.f1)),
                   lib=lambda: lib.dumps(mf.reduce(lib.valid(files["Rs_qi"]))), lib_expect=2),
        Invocation("mf.tensor", ["mf", "tensor", files["Ta_fp"], files["Tb_fp"], "--output", out("tensor")],
                   inputs=[files["Ta_fp"], files["Tb_fp"]], artifact=out("tensor"),
                   check=_both(_contains("rank = 2"),
                               _mf_artifact(check_rng, field=FP, nvars=4, d=2, rank=2,
                                            f0=tab_.f0, f1=tab_.f1)),
                   lib=lambda: lib.dumps(mf.tensor(lib.valid(files["Ta_fp"]), lib.valid(files["Tb_fp"]))),
                   lib_expect=2),
        Invocation("mf.shift", ["mf", "shift", files["S2_qi"], "--output", out("shift")],
                   inputs=[files["S2_qi"]], artifact=out("shift"),
                   check=_mf_artifact(check_rng, field=QI, nvars=4, d=4, rank=2,
                                      f0=s2.f1, f1=[m - 4 for m in s2.f0]),
                   lib=lambda: lib.dumps(mf.shift(lib.valid(files["S2_qi"]))), lib_expect=2),
        Invocation("mf.twist", ["mf", "twist", files["S2_qi"], "--t", str(tw), "--output", out("twist")],
                   inputs=[files["S2_qi"]], artifact=out("twist"),
                   check=_mf_artifact(check_rng, field=QI, nvars=4, d=4, rank=2,
                                      f0=[m - tw for m in s2.f0], f1=[m - tw for m in s2.f1]),
                   lib=lambda: lib.dumps(mf.twist(lib.valid(files["S2_qi"]), tw)), lib_expect=2),
        Invocation("mf.dual", ["mf", "dual", files["S4_fp"], "--output", out("dual")],
                   inputs=[files["S4_fp"]], artifact=out("dual"),
                   check=_mf_artifact(check_rng, field=FP, nvars=6, d=6, rank=4,
                                      f0=sorted(-m for m in s4.f0), f1=sorted(-m - 6 for m in s4.f1)),
                   lib=lambda: lib.dumps(mf.dual(lib.valid(files["S4_fp"]))), lib_expect=4),
        Invocation("mf.betti", ["mf", "betti", files["S4_fp"], "--json"], inputs=[files["S4_fp"]],
                   check=_report(_results(total=8)),
                   lib=lambda: mf.betti(lib.valid(files["S4_fp"])).total(), lib_expect=8),
        Invocation("mf.fermat", ["mf", "fermat", "--pairs", "2", "--half-degree", str(half), "--field", "Fp",
                                 "--p", str(p), "--output", out("fermat")],
                   artifact=out("fermat"),
                   check=_mf_artifact(check_rng, field=FP, nvars=4, d=2 * half, rank=2),
                   lib=lambda: lib.dumps(mf.fermat(2, half, field=api.algebra.GF(p))), lib_expect=2),
        Invocation("bott.eval", ["bott", "eval", "--n", str(bn), "--p", str(bp), "--q", str(bq), "--l", str(bl)],
                   check=_text(str(bott_h(bn, bp, bq, bl))),
                   lib=lambda: bott.bott(bn, bp, bq, bl), lib_expect=bott_h(bn, bp, bq, bl)),
        Invocation("bott.vector", ["bott", "vector", "--n", str(vn), "--p", str(vp), "--l", str(vl)],
                   check=_text(_vector_text({q: bott_h(vn, vp, q, vl) for q in range(vn + 1)})),
                   lib=lambda: bott.bott_vector(vn, vp, vl).total(),
                   lib_expect=sum(bott_h(vn, vp, q, vl) for q in range(vn + 1))),
        Invocation("bott.restricted", ["bott", "restricted", "--n", str(rn), "--d", str(rd), "--r", str(rr),
                                       "--t", str(rt)],
                   check=restricted_check,
                   lib=lambda: bott.restricted_bott(rn, rd, rr, rt).euler(),
                   lib_expect=sum((-1) ** q * (bott_h(rn, rr, q, rr + rt) - bott_h(rn, rr, q, rr + rt - rd))
                                  for q in range(rn + 1))),
        Invocation("rho.structure_sheaf", ["rho", "structure-sheaf", "--n", str(sn), "--d", str(sd)],
                   check=_text(str(rho_o(sn, sd))),
                   lib=lambda: bott.rho_structure_sheaf(sn, sd), lib_expect=rho_o(sn, sd)),
        Invocation("rho.point", ["rho", "point", "--n", str(pn)], check=_text(str(2 ** pn)),
                   lib=lambda: bott.rho_point(pn), lib_expect=2 ** pn),
        Invocation("rho.line_bundle", ["rho", "line-bundle", "--n", str(sn), "--d", str(sd), "--j", "0"],
                   check=_text(str(rho_o(sn, sd))),
                   lib=lambda: bott.rho_line_bundle(sn, sd, 0), lib_expect=rho_o(sn, sd)),
        Invocation("rho.from_mf", ["rho", "from-mf", files["S2_qi"]], inputs=[files["S2_qi"]],
                   check=_text("4"), lib=lambda: orlov.rho_of_mf(lib.load(files["S2_qi"])), lib_expect=4),
        Invocation("rho.from_table", ["rho", "from-table", files["table"]], inputs=[files["table"]],
                   check=_text(str(ttotal)),
                   lib=lambda: orlov.rho_of_table(lib.table(files["table"])), lib_expect=ttotal),
        Invocation("orlov.translate", ["orlov", "translate", files["S2_qi"], "--json", "--output", out("translate")],
                   inputs=[files["S2_qi"]], artifact=out("translate"),
                   check=_both(_report(_results(total=4)), _table_artifact("mfkit/table-v1", 4)),
                   lib=lambda: orlov.betti_to_table(lib.ctx(3, 4), mf.betti(lib.valid(files["S2_qi"]))).total(),
                   lib_expect=4),
        Invocation("orlov.invert", ["orlov", "invert", files["table"], "--n", str(tn), "--d", str(td),
                                    "--output", out("invert")],
                   inputs=[files["table"]], artifact=out("invert"),
                   check=_table_artifact("mfkit/betti-v1", ttotal),
                   lib=lambda: orlov.table_to_betti(lib.ctx(tn, td), lib.table(files["table"])).total(),
                   lib_expect=ttotal),
        Invocation("orlov.phi0", ["orlov", "phi0", "--n", str(hn), "--d", str(hd), "--l", str(hl)],
                   check=_text(phi0_text()),
                   lib=lambda: str(orlov.phi0_residue(lib.ctx(hn, hd), hl) or 0), lib_expect=phi0_text()),
        Invocation("orlov.shamash", ["orlov", "shamash", "--n", str(mn), "--d", str(md), "--m", str(mm)],
                   check=_text(shamash_text()),
                   lib=lambda: len(orlov.shamash_degrees(mn, md, mm)),
                   lib_expect=sum(math.comb(mn + 1, -mm - 2 * j) for j in range(-mm // 2 + 1)
                                  if -mm - 2 * j <= mn + 1)),
        Invocation("orlov.dual_table", ["orlov", "dual-table", files["table"], "--n", str(tn), "--d", str(td),
                                        "--json", "--output", out("dual_table")],
                   inputs=[files["table"]], artifact=out("dual_table"),
                   check=_both(_report(_results(total=ttotal)),
                               _table_artifact("mfkit/table-v1", ttotal, dual_entries)),
                   lib=lambda: orlov.dual_table(lib.ctx(tn, td), lib.table(files["table"])).total(),
                   lib_expect=ttotal),
        Invocation("check.bgs", ["check", "bgs", files["S4_fp"]], inputs=[files["S4_fp"]],
                   check=_contains("value=4 bound=4 -> PASS"),
                   lib=lambda: orlov.check_bgs(lib.ctx(5, 6), lib.load(files["S4_fp"])).passed, lib_expect=True),
        Invocation("check.rho", ["check", "rho", "--n", str(sn), "--d", str(sd), "--value", str(rho_o(sn, sd))],
                   check=_contains(f"value={rho_o(sn, sd)} bound={2 ** (sn // 2 + 1)} -> PASS"),
                   lib=lambda: orlov.check_rho(lib.ctx(sn, sd), rho_o(sn, sd)).passed, lib_expect=True),
        Invocation("sweep.small", ["sweep", "rho-structure-sheaf", "--n-max", str(wn), "--d-max", str(wd)],
                   check=_sweep(wn, wd),
                   lib=lambda: lib.sweep_rows(1, wn, wd),
                   lib_expect="\n".join(R.sweep_csv(wn, wd).splitlines()[1:])),
        # Expected errors: each succeeds only with its documented exit code.
        Invocation("error.check_rho_fano", ["check", "rho", "--n", "2", "--d", "2", "--value", "2"], exit=2,
                   check=_contains("error [mfkit.", "err"),
                   lib=_raises(lambda: orlov.check_rho(lib.ctx(2, 2), 2)), lib_expect="ValueError"),
        Invocation("error.malformed_document", ["mf", "validate", str(work / "bad.json")], exit=2,
                   inputs=[str(work / "bad.json")], check=_contains("error [mfkit.cli]", "err"),
                   lib=_raises(lambda: lib.load(str(work / "bad.json"))), lib_expect="ValueError"),
        Invocation("error.threads_zero", ["sweep", "rho-structure-sheaf", "--n-max", "3", "--d-max", "6"],
                   exit=2, env={"MFKIT_THREADS": "0"}, check=_contains("MFKIT_THREADS", "err")),
        Invocation("error.usage", ["mf", "fermat", "--pairs"], exit=1, check=_contains("--pairs", "err")),
    ]
    return Workload("cli_small", invs, lib_ops_of(invs), cli_passes=4, lib_passes=20, trace_rounds=40)


# ---------------------------------------------------------------------------
# rho_sweep

SWEEP_N_MAX, SWEEP_D_MAX = 100, 200
SWEEP_BLOCK = 10


def build_rho_sweep(seed: int, work: Path, api) -> Workload:
    # The grid is fixed: its cost, not the seed, is what this workload
    # measures, and every row is checked against the reference formula.
    lib = Lib(api)
    n_max, d_max = SWEEP_N_MAX, SWEEP_D_MAX
    inv = Invocation(
        "sweep.rho_structure_sheaf",
        ["sweep", "rho-structure-sheaf", "--n-max", str(n_max), "--d-max", str(d_max)],
        check=_sweep(n_max, d_max),
    )
    # In-process, the same cells are timed in blocks of rows, so that each
    # timed piece is short enough for the speed probes around it to hold.
    rows = R.sweep_csv(n_max, d_max).splitlines()[1:]
    ops = []
    for lo in range(1, n_max + 1, SWEEP_BLOCK):
        hi = min(lo + SWEEP_BLOCK - 1, n_max)
        expect = "\n".join(row for row in rows if lo <= int(row.split(",", 1)[0]) <= hi)
        ops.append(LibOp(f"sweep.rows_{lo}_{hi}",
                         lambda lo=lo, hi=hi: lib.sweep_rows(lo, hi, d_max), expect))
    return Workload("rho_sweep", [inv], ops, cli_passes=24, lib_passes=10, trace_rounds=6)


BUILDERS = {
    "mf_large": build_mf_large,
    "cli_small": build_cli_small,
    "rho_sweep": build_rho_sweep,
}
