"""Command-line front end and JSON file formats.

Commands::

    mf      validate | reduce | tensor | shift | twist | dual | betti | fermat
    bott    eval | vector | restricted
    rho     structure-sheaf | point | line-bundle | from-mf | from-table
    orlov   translate | invert | phi0 | shamash | dual-table
    check   bgs | rho
    sweep   rho-structure-sheaf

Factorizations travel as JSON documents with polynomial entries written
in the expression grammar of :mod:`mfkit.algebra`; cohomology tables and
Betti tables have their own small schemas.  ``--json`` switches stdout to
a machine-readable report; scalar queries print the bare value in text
mode.  Exit codes: 0 success, 1 usage error, 2 validation failure or
domain error (diagnostics go to stderr).

``sweep rho-structure-sheaf`` streams its CSV rows, one block per n, from
the row recurrence of :func:`mfkit.bott.rho_structure_sheaf_rows`.
``MFKIT_THREADS`` is validated (a value that is not a positive integer
exits 2) but has no effect: the sweep runs in one thread.  Nothing else
reads the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from itertools import groupby

from . import mf as mf_ops
from . import orlov as orlov_ops
from .algebra import GF, QI, QQ, Field, ParseError, Polynomial, parse_poly
from . import bott as bott_ops
from .bott import CohomologyVector
from .graded import DegreeMultiset, HomogeneousMatrix
from .mf import BettiTable, MatrixFactorization
from .orlov import CohomologyTable, HypersurfaceContext, Verdict

MF_SCHEMA = "mfkit/mf-v1"
TABLE_SCHEMA = "mfkit/table-v1"
BETTI_SCHEMA = "mfkit/betti-v1"
REPORT_SCHEMA = "mfkit/report-v1"

FERMAT_NOTE = (
    "generator parameters (pairs, half-degree) fix nvars and degree; "
    "conjecture contexts (n, d) are supplied to the checkers independently"
)


class SchemaError(ValueError):
    """Malformed input document."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# Field and document (de)serialization


def field_to_json(field: Field) -> dict:
    if field.kind == "Fp":
        return {"type": "Fp", "p": field.p}
    return {"type": field.kind}


def field_from_json(obj) -> Field:
    if not isinstance(obj, dict) or "type" not in obj:
        raise SchemaError("field descriptor must be an object with a 'type' key")
    kind = obj["type"]
    if kind == "Q":
        return QQ
    if kind == "Qi":
        return QI
    if kind == "Fp":
        p = obj.get("p")
        if type(p) is not int:
            raise SchemaError("field descriptor of type 'Fp' needs an integer 'p'")
        try:
            return GF(p)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    raise SchemaError(f"unknown field type {kind!r}")


def mf_to_document(F: MatrixFactorization) -> dict:
    return {
        "schema": MF_SCHEMA,
        "field": field_to_json(F.field),
        "nvars": F.nvars,
        "f": str(F.f),
        "d": F.d,
        "F0_degrees": list(F.f0_degrees),
        "F1_degrees": list(F.f1_degrees),
        "s0": [[str(e) for e in row] for row in F.s0.entries],
        "s1": [[str(e) for e in row] for row in F.s1.entries],
    }


def _expect(doc: dict, key: str, types) -> object:
    if key not in doc:
        raise SchemaError(f"missing key {key!r}")
    value = doc[key]
    if not isinstance(value, types):
        raise SchemaError(f"key {key!r} has the wrong type")
    return value


def _expect_int(doc: dict, key: str) -> int:
    # JSON true/false load as bool, a subclass of int; the schemas do not
    # admit them where they ask for an integer.
    value = _expect(doc, key, int)
    if type(value) is not int:
        raise SchemaError(f"key {key!r} has the wrong type")
    return value


def _parse_degree_list(doc: dict, key: str) -> tuple[int, ...]:
    raw = _expect(doc, key, list)
    if any(type(m) is not int for m in raw):
        raise SchemaError(f"{key} must be a list of integers")
    if any(raw[k] > raw[k + 1] for k in range(len(raw) - 1)):
        raise SchemaError(f"{key} must be sorted ascending")
    return tuple(raw)


def _parse_matrix(doc: dict, key: str, field: Field, nvars: int,
                  source: tuple[int, ...], target: tuple[int, ...],
                  memo: dict[tuple[str, int], Polynomial]) -> tuple[tuple[Polynomial, ...], ...]:
    """Parse the entry strings of one matrix from ``source`` to ``target``
    degrees.  Entry ``[r][c]`` parses under the degree bound
    ``max(source[c] - target[r], 0)``.  ``memo`` maps (entry text, bound)
    pairs already parsed in this document to their polynomial; a string
    that fails to parse is never stored, so it raises wherever it appears."""
    nrows, ncols = len(target), len(source)
    raw = _expect(doc, key, list)
    if len(raw) != nrows:
        raise SchemaError(f"{key} must have {nrows} rows, got {len(raw)}")
    rows = []
    for r, raw_row in enumerate(raw):
        if not isinstance(raw_row, list) or len(raw_row) != ncols:
            raise SchemaError(f"{key} row {r} must be a list of {ncols} strings")
        row = []
        for c, text in enumerate(raw_row):
            if not isinstance(text, str):
                raise SchemaError(f"{key}[{r}][{c}] must be a polynomial string")
            bound = max(source[c] - target[r], 0)
            poly = memo.get((text, bound))
            if poly is None:
                try:
                    poly = memo[text, bound] = parse_poly(text, field, nvars, bound)
                except ParseError as exc:
                    raise SchemaError(f"{key}[{r}][{c}]: {exc}") from exc
            row.append(poly)
        rows.append(tuple(row))
    return tuple(rows)


def document_to_mf(doc: dict) -> MatrixFactorization:
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if doc.get("schema") != MF_SCHEMA:
        raise SchemaError(f"expected schema {MF_SCHEMA!r}, got {doc.get('schema')!r}")
    field = field_from_json(_expect(doc, "field", dict))
    nvars = _expect_int(doc, "nvars")
    if nvars < 1:
        raise SchemaError("nvars must be >= 1")
    d = _expect_int(doc, "d")
    try:
        f = parse_poly(_expect(doc, "f", str), field, nvars, d)
    except ParseError as exc:
        raise SchemaError(f"f: {exc}") from exc
    if f.is_zero or not f.is_homogeneous or f.total_degree != d:
        raise SchemaError(f"f must be homogeneous of the declared degree d = {d}")
    f0 = _parse_degree_list(doc, "F0_degrees")
    f1 = _parse_degree_list(doc, "F1_degrees")
    F0 = DegreeMultiset(f0)
    F1 = DegreeMultiset(f1)
    F1d = F1.twist(-d)
    memo: dict[tuple[str, int], Polynomial] = {}
    s0 = _parse_matrix(doc, "s0", field, nvars, F0.degrees, F1.degrees, memo)
    s1 = _parse_matrix(doc, "s1", field, nvars, F1d.degrees, F0.degrees, memo)
    return MatrixFactorization(
        f,
        HomogeneousMatrix(field, nvars, F0, F1, s0),
        HomogeneousMatrix(field, nvars, F1d, F0, s1),
    )


def table_to_document(table: CohomologyTable) -> dict:
    return {
        "schema": TABLE_SCHEMA,
        "n": table.n,
        "entries": [[p, h, v] for (p, h), v in table.entries],
    }


def document_to_table(doc: dict) -> CohomologyTable:
    if not isinstance(doc, dict) or doc.get("schema") != TABLE_SCHEMA:
        raise SchemaError(f"expected schema {TABLE_SCHEMA!r}")
    n = _expect_int(doc, "n")
    raw = _expect(doc, "entries", list)
    counts: dict[tuple[int, int], int] = {}
    for item in raw:
        if (not isinstance(item, list) or len(item) != 3
                or any(type(x) is not int for x in item)):
            raise SchemaError("table entries must be [p, h, count] integer triples")
        p, h, value = item
        counts[(p, h)] = counts.get((p, h), 0) + value
    try:
        return CohomologyTable.from_mapping(n, counts)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def betti_to_document(table: BettiTable) -> dict:
    return {
        "schema": BETTI_SCHEMA,
        "entries": [[i, j, v] for (i, j), v in table.entries],
    }


# ---------------------------------------------------------------------------
# Reports


def make_report(operation: str, *, context: HypersurfaceContext | None = None,
                inputs: dict | None = None, results: dict | None = None,
                verdicts: list | None = None, diagnostics: list | None = None,
                notes: list | None = None) -> dict:
    report = {"schema": REPORT_SCHEMA, "operation": operation}
    if context is not None:
        report["context"] = {"n": context.n, "d": context.d, "a": context.a, "e": context.e}
    report["inputs"] = inputs or {}
    report["results"] = results or {}
    report["diagnostics"] = diagnostics or []
    report["verdicts"] = [_verdict_to_json(v) for v in (verdicts or [])]
    report["notes"] = notes or []
    if verdicts:
        report["unchecked_hypotheses"] = sorted({note for v in verdicts for note in v.notes})
    else:
        report["unchecked_hypotheses"] = []
    return report


def _verdict_to_json(v: Verdict) -> dict:
    return {
        "check": v.check,
        "value": v.value,
        "bound": v.bound,
        "passed": v.passed,
        "applicable": v.applicable,
        "trivial": v.trivial,
    }


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value, separators=(", ", ": "))
    return str(value)


def report_to_text(report: dict) -> str:
    lines = [f"operation: {report['operation']}"]
    ctx = report.get("context")
    if ctx:
        lines.append(f"context: n={ctx['n']} d={ctx['d']} a={ctx['a']} e={ctx['e']}")
    for name in sorted(report.get("inputs", {})):
        lines.append(f"input {name}: sha256={report['inputs'][name]}")
    for key, value in report.get("results", {}).items():
        lines.append(f"{key} = {_fmt_value(value)}")
    for diag in report.get("diagnostics", []):
        lines.append(f"diagnostic: {diag}")
    for verdict in report.get("verdicts", []):
        status = "PASS" if verdict["passed"] else "FAIL"
        if verdict["trivial"]:
            status = "NOT APPLICABLE (trivial factorization)"
        lines.append(
            f"verdict[{verdict['check']}]: value={verdict['value']} "
            f"bound={verdict['bound']} -> {status}"
        )
    for note in report.get("notes", []):
        lines.append(f"note: {note}")
    hypotheses = report.get("unchecked_hypotheses", [])
    if hypotheses:
        lines.append("unchecked hypotheses: " + "; ".join(hypotheses))
    return "\n".join(lines) + "\n"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_json(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(data), _digest(data)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _emit(args, report: dict, *, artifact: dict | None = None,
          scalar=None) -> None:
    """Write the report (and optional JSON artifact) per the output flags.

    Text mode prints the bare value for scalar queries and the rendered
    report otherwise; ``--json`` always prints the full report.  When
    ``--output`` is given, the artifact (falling back to the report) is
    written there and stdout keeps the report/value."""
    if artifact is not None:
        payload = json.dumps(artifact, indent=2) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(payload)
        else:
            sys.stdout.write(payload)
            if not args.json:
                return
    elif args.output:
        body = json.dumps(report, indent=2) + "\n" if args.json else report_to_text(report)
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(body)
        return
    if args.json:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    elif scalar is not None:
        sys.stdout.write(f"{scalar}\n")
    else:
        sys.stdout.write(report_to_text(report))


def _context_of_document(F: MatrixFactorization) -> HypersurfaceContext:
    return HypersurfaceContext(n=F.nvars - 1, d=F.d)


# ---------------------------------------------------------------------------
# mf subcommands


def _load_mf(path: str) -> tuple[MatrixFactorization, str]:
    doc, digest = _read_json(path)
    return document_to_mf(doc), digest


def _mf_results(F: MatrixFactorization) -> dict:
    return {
        "rank": F.rank0,
        "d": F.d,
        "nvars": F.nvars,
        "field": str(F.field),
        "F0_degrees": list(F.f0_degrees),
        "F1_degrees": list(F.f1_degrees),
        "reduced": mf_ops.is_reduced(F),
    }


def cmd_mf_validate(args) -> int:
    F, digest = _load_mf(args.file)
    diagnostics = mf_ops.validate(F)
    report = make_report(
        "mf validate",
        inputs={os.path.basename(args.file): digest},
        results={**_mf_results(F), "valid": not diagnostics},
        diagnostics=diagnostics,
    )
    if diagnostics:
        if args.json:
            sys.stdout.write(json.dumps(report, indent=2) + "\n")
        for diag in diagnostics:
            sys.stderr.write(f"invalid: {diag}\n")
        return 2
    _emit(args, report)
    return 0


def _transformed(args, operation: str, digest: str,
                 result: MatrixFactorization, extra: dict | None = None) -> int:
    report = make_report(
        operation,
        inputs={os.path.basename(args.file): digest} if hasattr(args, "file") else {},
        results={**_mf_results(result), **(extra or {})},
    )
    _emit(args, report, artifact=mf_to_document(result))
    return 0


def cmd_mf_reduce(args) -> int:
    F, digest = _load_mf(args.file)
    mf_ops.require_valid(F)
    reduced = mf_ops.reduce(F)
    return _transformed(args, "mf reduce", digest, reduced,
                        extra={"rank_before": F.rank0, "splits": F.rank0 - reduced.rank0})


def cmd_mf_shift(args) -> int:
    F, digest = _load_mf(args.file)
    mf_ops.require_valid(F)
    return _transformed(args, "mf shift", digest, mf_ops.shift(F))


def cmd_mf_twist(args) -> int:
    F, digest = _load_mf(args.file)
    mf_ops.require_valid(F)
    return _transformed(args, "mf twist", digest, mf_ops.twist(F, args.t))


def cmd_mf_dual(args) -> int:
    F, digest = _load_mf(args.file)
    mf_ops.require_valid(F)
    return _transformed(args, "mf dual", digest, mf_ops.dual(F))


def cmd_mf_tensor(args) -> int:
    F, digest_f = _load_mf(args.file)
    G, digest_g = _load_mf(args.file2)
    mf_ops.require_valid(F)
    mf_ops.require_valid(G)
    T = mf_ops.tensor(F, G, normalize=args.normalize)
    report = make_report(
        "mf tensor",
        inputs={os.path.basename(args.file): digest_f, os.path.basename(args.file2): digest_g},
        results=_mf_results(T),
    )
    _emit(args, report, artifact=mf_to_document(T))
    return 0


def cmd_mf_betti(args) -> int:
    F, digest = _load_mf(args.file)
    mf_ops.require_valid(F)
    table = mf_ops.betti(F)
    report = make_report(
        "mf betti",
        inputs={os.path.basename(args.file): digest},
        results={
            "betti": [[i, j, v] for (i, j), v in table.entries],
            "total": table.total(),
        },
    )
    _emit(args, report)
    return 0


def cmd_mf_fermat(args) -> int:
    if args.field == "Qi":
        field = QI
    else:
        if args.p is None:
            raise SchemaError("--field Fp requires --p")
        field = GF(args.p)
    F = mf_ops.fermat(args.pairs, args.half_degree, solo=args.solo, field=field)
    report = make_report(
        "mf fermat",
        results=_mf_results(F),
        notes=[FERMAT_NOTE],
    )
    _emit(args, report, artifact=mf_to_document(F))
    return 0


# ---------------------------------------------------------------------------
# bott / rho subcommands


def _vector_results(vector: CohomologyVector) -> dict:
    return {"entries": [[q, v] for q, v in vector.entries], "total": vector.total()}


def cmd_bott_eval(args) -> int:
    value = bott_ops.bott(args.n, args.p, args.q, args.l)
    report = make_report("bott eval", results={"value": value})
    _emit(args, report, scalar=value)
    return 0


def cmd_bott_vector(args) -> int:
    vector = bott_ops.bott_vector(args.n, args.p, args.l)
    report = make_report("bott vector", results=_vector_results(vector))
    _emit(args, report, scalar=str(vector))
    return 0


def cmd_bott_restricted(args) -> int:
    vector = bott_ops.restricted_bott(args.n, args.d, args.r, args.t)
    report = make_report("bott restricted", results=_vector_results(vector))
    _emit(args, report, scalar=str(vector))
    return 0


def cmd_rho_structure_sheaf(args) -> int:
    value = bott_ops.rho_structure_sheaf(args.n, args.d)
    ctx = HypersurfaceContext(args.n, args.d)
    report = make_report("rho structure-sheaf", context=ctx, results={"value": value})
    _emit(args, report, scalar=value)
    return 0


def cmd_rho_point(args) -> int:
    value = bott_ops.rho_point(args.n)
    report = make_report("rho point", results={"value": value})
    _emit(args, report, scalar=value)
    return 0


def cmd_rho_line_bundle(args) -> int:
    value = bott_ops.rho_line_bundle(args.n, args.d, args.j)
    ctx = HypersurfaceContext(args.n, args.d)
    report = make_report("rho line-bundle", context=ctx, results={"value": value, "j": args.j})
    _emit(args, report, scalar=value)
    return 0


def cmd_rho_from_mf(args) -> int:
    F, digest = _load_mf(args.file)
    value = orlov_ops.rho_of_mf(F)
    ctx = _context_of_document(F)
    report = make_report(
        "rho from-mf",
        context=ctx,
        inputs={os.path.basename(args.file): digest},
        results={"value": value},
    )
    _emit(args, report, scalar=value)
    return 0


def cmd_rho_from_table(args) -> int:
    doc, digest = _read_json(args.file)
    table = document_to_table(doc)
    value = orlov_ops.rho_of_table(table)
    report = make_report(
        "rho from-table",
        inputs={os.path.basename(args.file): digest},
        results={"value": value},
    )
    _emit(args, report, scalar=value)
    return 0


# ---------------------------------------------------------------------------
# orlov subcommands


def cmd_orlov_translate(args) -> int:
    F, digest = _load_mf(args.file)
    mf_ops.require_valid(F)
    ctx = _context_of_document(F)
    table = orlov_ops.betti_to_table(ctx, mf_ops.betti(F))
    diagnostics = [f"out-of-support entry (p={p}, h={h})" for p, h in table.out_of_support()]
    report = make_report(
        "orlov translate",
        context=ctx,
        inputs={os.path.basename(args.file): digest},
        results={
            "table": [[p, h, v] for (p, h), v in table.entries],
            "total": table.total(),
        },
        diagnostics=diagnostics,
    )
    _emit(args, report, artifact=table_to_document(table))
    return 0


def cmd_orlov_invert(args) -> int:
    doc, digest = _read_json(args.file)
    table = document_to_table(doc)
    ctx = HypersurfaceContext(args.n, args.d)
    betti = orlov_ops.table_to_betti(ctx, table)
    report = make_report(
        "orlov invert",
        context=ctx,
        inputs={os.path.basename(args.file): digest},
        results={
            "betti": [[i, j, v] for (i, j), v in betti.entries],
            "total": betti.total(),
        },
    )
    _emit(args, report, artifact=betti_to_document(betti))
    return 0


def cmd_orlov_phi0(args) -> int:
    ctx = HypersurfaceContext(args.n, args.d)
    descriptor = orlov_ops.phi0_residue(ctx, args.l)
    if descriptor is None:
        results = {"zero": True}
        scalar = "0"
    else:
        results = {
            "zero": False,
            "exterior_power": descriptor.exterior_power,
            "twist": descriptor.twist,
            "shift": descriptor.shift,
        }
        scalar = str(descriptor)
    report = make_report("orlov phi0", context=ctx, results={"l": args.l, **results})
    _emit(args, report, scalar=scalar)
    return 0


def cmd_orlov_shamash(args) -> int:
    degrees = orlov_ops.shamash_degrees(args.n, args.d, args.m)
    multiplicities: dict[int, int] = {}
    for m in degrees:
        multiplicities[m] = multiplicities.get(m, 0) + 1
    report = make_report(
        "orlov shamash",
        results={
            "m": args.m,
            "degrees": [[deg, mult] for deg, mult in sorted(multiplicities.items())],
            "rank": len(degrees),
        },
    )
    scalar = ", ".join(f"degree {deg} x {mult}" for deg, mult in sorted(multiplicities.items()))
    _emit(args, report, scalar=scalar or "(empty)")
    return 0


def cmd_orlov_dual_table(args) -> int:
    doc, digest = _read_json(args.file)
    table = document_to_table(doc)
    ctx = HypersurfaceContext(args.n, args.d)
    dualized = orlov_ops.dual_table(ctx, table)
    report = make_report(
        "orlov dual-table",
        context=ctx,
        inputs={os.path.basename(args.file): digest},
        results={
            "table": [[p, h, v] for (p, h), v in dualized.entries],
            "total": dualized.total(),
        },
    )
    _emit(args, report, artifact=table_to_document(dualized))
    return 0


# ---------------------------------------------------------------------------
# check / sweep subcommands


def _emit_verdict(args, operation: str, ctx: HypersurfaceContext, verdict: Verdict,
                  inputs: dict | None = None) -> int:
    report = make_report(operation, context=ctx, inputs=inputs, verdicts=[verdict])
    _emit(args, report)
    if verdict.applicable and not verdict.passed:
        sys.stderr.write(
            f"check failed: value {verdict.value} < bound {verdict.bound}\n"
        )
        return 2
    return 0


def cmd_check_bgs(args) -> int:
    F, digest = _load_mf(args.file)
    ctx = _context_of_document(F)
    verdict = orlov_ops.check_bgs(ctx, F)
    return _emit_verdict(args, "check bgs", ctx, verdict,
                         inputs={os.path.basename(args.file): digest})


def cmd_check_rho(args) -> int:
    ctx = HypersurfaceContext(args.n, args.d)
    verdict = orlov_ops.check_rho(ctx, args.value)
    return _emit_verdict(args, "check rho", ctx, verdict)


def _sweep_threads() -> None:
    """Validate ``MFKIT_THREADS``.  The sweep runs in one thread whatever
    its value; a malformed value is still an error (exit 2)."""
    raw = os.environ.get("MFKIT_THREADS", "")
    if not raw:
        return
    try:
        threads = int(raw)
    except ValueError as exc:
        raise SchemaError(f"MFKIT_THREADS must be a positive integer, got {raw!r}") from exc
    if threads < 1:
        raise SchemaError(f"MFKIT_THREADS must be a positive integer, got {raw!r}")


def _sweep_csv_blocks(n_max: int, d_max: int):
    """The sweep's CSV text: the header, then one block of lines per n."""
    yield "n,d,a,e,rho,bound,pass\n"
    cells = bott_ops.rho_structure_sheaf_rows(n_max, d_max)
    for n, row in groupby(cells, key=lambda cell: cell[0]):
        e = n // 2  # e and a = n + 1 - d as in HypersurfaceContext
        bound = 2 ** (e + 1)
        yield "".join(
            f"{n},{d},{n + 1 - d},{e},{rho},{bound},{'true' if rho >= bound else 'false'}\n"
            for _, d, rho in row
        )


def cmd_sweep_rho_structure_sheaf(args) -> int:
    _sweep_threads()
    blocks = _sweep_csv_blocks(args.n_max, args.d_max)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.writelines(blocks)
    else:
        sys.stdout.writelines(blocks)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit a JSON report on stdout")
    parser.add_argument("--output", metavar="PATH", help="write the command's artifact to PATH")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized subcommands (accepted everywhere)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mfkit", description=__doc__.splitlines()[0])
    groups = parser.add_subparsers(dest="group", required=True, metavar="GROUP")

    def leaf(group, name: str, func, help_text: str):
        sub = group.add_parser(name, help=help_text)
        _add_common(sub)
        sub.set_defaults(func=func)
        return sub

    mf_group = groups.add_parser("mf", help="matrix factorization operations")
    mf_cmds = mf_group.add_subparsers(dest="command", required=True, metavar="CMD")
    sub = leaf(mf_cmds, "validate", cmd_mf_validate, "validate a factorization document")
    sub.add_argument("file")
    sub = leaf(mf_cmds, "reduce", cmd_mf_reduce, "split off trivial summands")
    sub.add_argument("file")
    sub = leaf(mf_cmds, "tensor", cmd_mf_tensor, "tensor two factorizations")
    sub.add_argument("file")
    sub.add_argument("file2")
    sub.add_argument("--normalize", action="store_true",
                     help="twist so the minimum F1 degree is 0")
    sub = leaf(mf_cmds, "shift", cmd_mf_shift, "triangulated shift [1]")
    sub.add_argument("file")
    sub = leaf(mf_cmds, "twist", cmd_mf_twist, "grading twist")
    sub.add_argument("file")
    sub.add_argument("--t", type=int, required=True)
    sub = leaf(mf_cmds, "dual", cmd_mf_dual, "transpose dual")
    sub.add_argument("file")
    sub = leaf(mf_cmds, "betti", cmd_mf_betti, "Betti table of a reduced factorization")
    sub.add_argument("file")
    sub = leaf(mf_cmds, "fermat", cmd_mf_fermat, "Fermat-type generator")
    sub.add_argument("--pairs", type=int, required=True)
    sub.add_argument("--half-degree", type=int, required=True, dest="half_degree")
    sub.add_argument("--solo", action="store_true")
    sub.add_argument("--field", choices=["Qi", "Fp"], default="Qi")
    sub.add_argument("--p", type=int, default=None, help="modulus for --field Fp")

    bott_group = groups.add_parser("bott", help="cohomology of twisted differentials")
    bott_cmds = bott_group.add_subparsers(dest="command", required=True, metavar="CMD")
    sub = leaf(bott_cmds, "eval", cmd_bott_eval, "one cohomology dimension")
    for flag in ("--n", "--p", "--q", "--l"):
        sub.add_argument(flag, type=int, required=True)
    sub = leaf(bott_cmds, "vector", cmd_bott_vector, "vector over all q")
    for flag in ("--n", "--p", "--l"):
        sub.add_argument(flag, type=int, required=True)
    sub = leaf(bott_cmds, "restricted", cmd_bott_restricted, "restriction to a hypersurface")
    for flag in ("--n", "--d", "--r", "--t"):
        sub.add_argument(flag, type=int, required=True)

    rho_group = groups.add_parser("rho", help="the rho invariant")
    rho_cmds = rho_group.add_subparsers(dest="command", required=True, metavar="CMD")
    sub = leaf(rho_cmds, "structure-sheaf", cmd_rho_structure_sheaf, "rho(O_X), closed form")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--d", type=int, required=True)
    sub = leaf(rho_cmds, "point", cmd_rho_point, "rho of a point sheaf")
    sub.add_argument("--n", type=int, required=True)
    sub = leaf(rho_cmds, "line-bundle", cmd_rho_line_bundle, "rho(O_X(j))")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--j", type=int, required=True)
    sub = leaf(rho_cmds, "from-mf", cmd_rho_from_mf, "rho from a reduced factorization")
    sub.add_argument("file")
    sub = leaf(rho_cmds, "from-table", cmd_rho_from_table, "rho as a table total")
    sub.add_argument("file")

    orlov_group = groups.add_parser("orlov", help="Betti/cohomology translation")
    orlov_cmds = orlov_group.add_subparsers(dest="command", required=True, metavar="CMD")
    sub = leaf(orlov_cmds, "translate", cmd_orlov_translate, "Betti table -> cohomology table")
    sub.add_argument("file")
    sub = leaf(orlov_cmds, "invert", cmd_orlov_invert, "cohomology table -> Betti table")
    sub.add_argument("file")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--d", type=int, required=True)
    sub = leaf(orlov_cmds, "phi0", cmd_orlov_phi0, "residue field image descriptor")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--l", type=int, required=True)
    sub = leaf(orlov_cmds, "shamash", cmd_orlov_shamash, "Shamash resolution degrees")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub = leaf(orlov_cmds, "dual-table", cmd_orlov_dual_table, "duality involution of a table")
    sub.add_argument("file")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--d", type=int, required=True)

    check_group = groups.add_parser("check", help="instance checks of the rank bounds")
    check_cmds = check_group.add_subparsers(dest="command", required=True, metavar="CMD")
    sub = leaf(check_cmds, "bgs", cmd_check_bgs, "rank(F0) >= 2^e on a factorization document")
    sub.add_argument("file")
    sub = leaf(check_cmds, "rho", cmd_check_rho, "rho >= 2^(e+1) for a supplied value")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--value", type=int, required=True)

    sweep_group = groups.add_parser("sweep", help="batch sweeps over (n, d) grids")
    sweep_cmds = sweep_group.add_subparsers(dest="command", required=True, metavar="CMD")
    sub = leaf(sweep_cmds, "rho-structure-sheaf", cmd_sweep_rho_structure_sheaf,
               "CSV of rho(O_X) against the 2^(e+1) bound")
    sub.add_argument("--n-max", type=int, required=True, dest="n_max")
    sub.add_argument("--d-max", type=int, required=True, dest="d_max")

    return parser


def _origin_module(exc: BaseException) -> str:
    # Deepest mfkit frame in the traceback: the module that raised.
    origin = "mfkit.cli"
    tb = exc.__traceback__
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("mfkit"):
            origin = name
        tb = tb.tb_next
    return origin


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        sys.stderr.write(f"error [{_origin_module(exc)}]: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
