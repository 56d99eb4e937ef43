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
domain error (diagnostics go to stderr).  Integers are read and printed
exactly up to MAX_DIGITS decimal digits each.

``sweep rho-structure-sheaf`` streams its CSV, one block per n, each
block formatted from one row of :func:`mfkit.bott.rho_sweep_rows`, a
running sum over the row before.
``MFKIT_THREADS`` is validated (a value that is not a positive integer
exits 2) but has no effect: the sweep runs in one thread.  Nothing else
reads the environment.

A command imports what it runs on first use.  It reads library names
through the package at call time (``mfkit.mf.reduce``): the package
imports a submodule on its first access and binds it as an attribute, so
each later read is a plain attribute load that sees a rebound function.
The functions that use ``json`` import it.  ``bott`` queries and ``rho
point`` load :mod:`mfkit.bott` alone, other scalar queries add orlov, and
document commands add algebra, graded, mf and json.  ``fractions`` loads
only where a QQ or QQ(i) value that is not an integer is built, a pivot
inverse included (those of +-1 and +-i are integers); so ``mf fermat``
over QQ(i), whose coefficients are integers, loads none.  An input's
SHA-256 comes from the interpreter's builtin module below
BUILTIN_SHA256_BELOW bytes, so hashlib loads only for larger inputs.
``main`` reads a plain, well-formed command line from ``COMMANDS``
itself.  It imports argparse and builds the parser, with the leaves of
the group named on the command line only, just for ``--help``, usage
errors and the spellings that only argparse reads (``--flag=value``,
abbreviated or repeated flags, ``--``).
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from importlib import import_module
from types import SimpleNamespace

import mfkit

from ._value import value_class

# Type checkers take this name for typing's; no command imports typing.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse

    from .algebra import Field, Polynomial
    from .bott import CohomologyVector
    from .graded import DegreeMultiset, HomogeneousMatrix
    from .mf import BettiTable, MatrixFactorization
    from .orlov import CohomologyTable, HypersurfaceContext, Verdict


MF_SCHEMA = "mfkit/mf-v1"
TABLE_SCHEMA = "mfkit/table-v1"
BETTI_SCHEMA = "mfkit/betti-v1"
REPORT_SCHEMA = "mfkit/report-v1"

# Most decimal digits of one integer that a command reads (JSON numbers,
# entry literals, integer options) or prints.  Converting between an int
# and its decimal string is quadratic before Python 3.12 (CPython issue
# 95778); printing an int of this many digits takes about 1.6 s on
# 2 vCPUs under Python 3.11, and reading one back about 0.7 s.  Reading
# and printing share the cap, so every document a command prints parses
# back.  Past it the command exits 2.
MAX_DIGITS = 300_000

FERMAT_NOTE = (
    "generator parameters (pairs, half-degree) fix nvars and degree; "
    "conjecture contexts (n, d) are supplied to the checkers independently"
)


class SchemaError(ValueError):
    """Malformed input document."""


class _UsageError(Exception):
    pass


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
        return mfkit.algebra.QQ
    if kind == "Qi":
        return mfkit.algebra.QI
    if kind == "Fp":
        p = obj.get("p")
        if type(p) is not int:
            raise SchemaError("field descriptor of type 'Fp' needs an integer 'p'")
        try:
            return mfkit.algebra.GF(p)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    raise SchemaError(f"unknown field type {kind!r}")


def mf_to_document(F: MatrixFactorization) -> dict:
    texts = {id(F.f): _printed(F.f)}
    return {
        "schema": MF_SCHEMA,
        "field": field_to_json(F.field),
        "nvars": F.nvars,
        "f": texts[id(F.f)],
        "d": F.d,
        "F0_degrees": list(F.f0_degrees),
        "F1_degrees": list(F.f1_degrees),
        "s0": _matrix_texts(F.s0, texts),
        "s1": _matrix_texts(F.s1, texts),
    }


def _matrix_texts(matrix: HomogeneousMatrix, texts: dict[int, str]) -> list[list[str]]:
    # A zero entry prints as "0"; each distinct nonzero entry object, f
    # included, is printed once per document.  ``texts`` maps id(entry) to
    # its text and arrives holding f's: the factorization holds f and
    # every entry until the document is built, so no id is reused
    # meanwhile.  Keying by the polynomial itself would hash it, which
    # builds a tuple of its view per cell.
    grid = [["0"] * matrix.ncols for _ in matrix.rows]
    for line, row in zip(grid, matrix.rows):
        for c, entry in row:
            text = texts.get(id(entry))
            if text is None:
                text = texts[id(entry)] = _printed(entry)
            line[c] = text
    return grid


def _printed(poly: Polynomial) -> str:
    # A text with an exponent past the parser's cap (read from the terms)
    # would not parse back; refused after printing, so the digit cap is met first.
    text, cap = str(poly), mfkit.algebra.MAX_EXPONENT
    if poly.total_degree > cap:
        exponent = max(max(exps) for exps, _ in poly.terms)
        if exponent > cap:
            raise ValueError(f"exponent {exponent} exceeds MAX_EXPONENT = {cap}")
    return text


def _expect(doc: dict, key: str, types) -> object:
    if key not in doc:
        raise SchemaError(f"missing key {key!r}")
    value = doc[key]
    # JSON true/false load as bool, a subclass of int; no schema key admits them.
    if not isinstance(value, types) or isinstance(value, bool):
        raise SchemaError(f"key {key!r} has the wrong type")
    return value


def _parse_degree_list(doc: dict, key: str) -> tuple[int, ...]:
    raw = _expect(doc, key, list)
    if any(type(m) is not int for m in raw):
        raise SchemaError(f"{key} must be a list of integers")
    if any(raw[k] > raw[k + 1] for k in range(len(raw) - 1)):
        raise SchemaError(f"{key} must be sorted ascending")
    return tuple(raw)


def _parse_entry(memo: dict, text: str, field: Field, nvars: int, bound: int, where: str):
    """Parse one entry text of a document, ``f`` or a cell, under
    ``bound``, and store and return its memo entry (see
    :func:`_parse_matrix`).  A ParseError becomes a SchemaError that
    names ``where``."""
    try:
        poly = mfkit.algebra.parse_poly(text, field, nvars, bound)
    except mfkit.algebra.ParseError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    bounded = bound > 0 and ("*" in text or "^" in text)
    memo[text] = hit = (None if poly.is_zero else poly, bound if bounded else float("-inf"))
    return hit


def _parse_matrix(doc: dict, key: str, field: Field, nvars: int,
                  source: DegreeMultiset, target: DegreeMultiset,
                  memo: dict[str, tuple[Polynomial | None, int | float]]) -> HomogeneousMatrix:
    """Parse the entry strings of one matrix from ``source`` to ``target``
    degrees into its sparse rows, the nonzero ``(column, polynomial)``
    pairs of each row.  Entry ``[r][c]`` parses under the degree bound
    ``max(source[c] - target[r], 0)``.  ``memo`` maps each entry text
    already parsed in this document, ``f``'s included, to its polynomial,
    None when it is zero, and the smallest bound known to admit it: the
    bound it parsed under, or -inf when that bound is 0 or the text
    holds no ``*`` or ``^`` (the only places the bound is checked).
    :func:`_parse_entry` fills it on a miss.  A text that parses under one
    bound parses to the same polynomial under any larger one, so a hit
    costs one comparison and a text is parsed again only under a smaller
    bound.  A string that fails to parse is never stored, so it raises
    wherever it appears.  The text ``"0"``, most cells of a Fermat-type
    document, is skipped before any other work: it holds no ``*`` or
    ``^`` and parses to zero under every bound, so skipping it changes no
    result and no error.  The memo pays although the reader reads a
    printed entry from its words: a hit costs one comparison, a read of an
    entry 6-30 us.  :func:`_parse_entry` reads ``mfkit.algebra.parse_poly``
    at each parse, so a rebound ``parse_poly`` is the one called."""
    sources, targets = source.degrees, target.degrees
    nrows, ncols = len(targets), len(sources)
    raw = _expect(doc, key, list)
    if len(raw) != nrows:
        raise SchemaError(f"{key} must have {nrows} rows, got {len(raw)}")
    rows = []
    for r, raw_row in enumerate(raw):
        if not isinstance(raw_row, list) or len(raw_row) != ncols:
            raise SchemaError(f"{key} row {r} must be a list of {ncols} strings")
        row = []
        for c, text in enumerate(raw_row):
            if text == "0":
                continue
            if not isinstance(text, str):
                raise SchemaError(f"{key}[{r}][{c}] must be a polynomial string")
            bound = sources[c] - targets[r]
            hit = memo.get(text)
            if hit is None or bound < hit[1]:
                hit = _parse_entry(memo, text, field, nvars, max(bound, 0), f"{key}[{r}][{c}]")
            if hit[0] is not None:
                row.append((c, hit[0]))
        rows.append(tuple(row))
    return mfkit.graded.HomogeneousMatrix._from_rows(field, nvars, source, target, tuple(rows))


def document_to_mf(doc: dict) -> MatrixFactorization:
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if doc.get("schema") != MF_SCHEMA:
        raise SchemaError(f"expected schema {MF_SCHEMA!r}, got {doc.get('schema')!r}")
    field = field_from_json(_expect(doc, "field", dict))
    nvars = _expect(doc, "nvars", int)
    if nvars < 1:
        raise SchemaError("nvars must be >= 1")
    if nvars > mfkit.algebra.MAX_NVARS:
        raise SchemaError(f"nvars must be <= {mfkit.algebra.MAX_NVARS}")
    d = _expect(doc, "d", int)
    # f is the document's first entry text, parsed under d itself; None when zero.
    memo: dict[str, tuple[Polynomial | None, int | float]] = {}
    f = _parse_entry(memo, _expect(doc, "f", str), field, nvars, d, "f")[0]
    if f is None or not f.is_homogeneous or f.total_degree != d:
        raise SchemaError(f"f must be homogeneous of the declared degree d = {d}")
    F0 = mfkit.graded.DegreeMultiset(_parse_degree_list(doc, "F0_degrees"))
    F1 = mfkit.graded.DegreeMultiset(_parse_degree_list(doc, "F1_degrees"))
    return mfkit.mf.MatrixFactorization(
        f,
        _parse_matrix(doc, "s0", field, nvars, F0, F1, memo),
        _parse_matrix(doc, "s1", field, nvars, F1.twist(-d), F0, memo),
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
    n = _expect(doc, "n", int)
    if n < 1:
        raise SchemaError("n must be >= 1")
    raw = _expect(doc, "entries", list)
    for item in raw:
        if (not isinstance(item, list) or len(item) != 3
                or any(type(x) is not int for x in item)):
            raise SchemaError("table entries must be [p, h, count] integer triples")
    try:
        return mfkit.orlov.CohomologyTable.from_pairs((((p, h), v) for p, h, v in raw), n)
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
    report["unchecked_hypotheses"] = sorted({note for v in verdicts or [] for note in v.notes})
    return report


def _verdict_to_json(v: Verdict) -> dict:
    return {key: getattr(v, key) for key in ("check", "value", "bound", "passed", "applicable", "trivial")}


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple, dict)):
        import json
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


def _read_json(path: str) -> tuple[dict, str]:
    import json
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    # One copy of the input at a time: the bytes are digested, decoded as
    # json.loads decodes bytes, and dropped before the tree is built.
    # JSONDecoder, not json.loads(str), reads the text, because the latter
    # refuses a text that still starts with a BOM with a message of its own.
    digest, text = _sha256_hex(data), data.decode(json.detect_encoding(data), "surrogatepass")
    del data
    try:
        return json.JSONDecoder().decode(text), digest
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


# Inputs shorter than this are digested by the interpreter's builtin
# SHA-256, which spares the import of hashlib (OpenSSL's _hashlib and
# _blake2, 2.4-4.6 ms); longer ones by hashlib.  On 2 vCPUs with the
# SHA-NI instructions under Python 3.11, OpenSSL digests the 23.4 MB
# rank-1024 Fermat document in 16 ms and the builtin in 91-100 ms, so
# about 1 MB of builtin hashing costs as much as the import.
BUILTIN_SHA256_BELOW = 1 << 20


def _sha256_hex(data: bytes) -> str:
    if len(data) < BUILTIN_SHA256_BELOW:
        try:
            # The builtin module is _sha2 from Python 3.12 on, _sha256 before.
            builtin = import_module("_sha2" if sys.version_info >= (3, 12) else "_sha256")
        except ImportError:  # an interpreter built without it
            pass
        else:
            return builtin.sha256(data).hexdigest()
    return import_module("hashlib").sha256(data).hexdigest()


def _dump(obj: dict, handle) -> None:
    # json.dump streams the encoder's chunks; json.dumps with indent holds
    # them all before the join, several times the document's size.
    import json
    json.dump(obj, handle, indent=2)
    handle.write("\n")


def _stdout():
    # sys.stdout is None when the interpreter started with fd 1 closed.
    if sys.stdout is None:
        raise OSError("cannot write to stdout: it is closed")
    return sys.stdout


def _diagnose(line: str) -> None:
    # One diagnostic line on stderr, dropped when stderr is closed, so that
    # the exit code stands: sys.stderr is None when the interpreter started
    # with fd 2 closed, and a write fails when fd 2 was reused for a file
    # opened for reading.
    if sys.stderr is not None:
        try:
            sys.stderr.write(f"{line}\n")
        except OSError:
            pass


def _emit(args, report: dict, *, artifact: dict | None = None,
          scalar=None) -> None:
    """Write the report (and optional JSON artifact) per the output flags.

    Text mode prints the bare value for scalar queries and the rendered
    report otherwise; ``--json`` always prints the full report.  When
    ``--output`` is given, the artifact (falling back to the report) is
    written there and stdout keeps the report/value, or nothing when the
    report itself went to ``--output``.  The text report is rendered only
    where it is written."""
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            if artifact is None and not args.json:
                handle.write(report_to_text(report))
            else:
                _dump(report if artifact is None else artifact, handle)
        if artifact is None:
            return
    elif artifact is not None:
        _dump(artifact, _stdout())
        if not args.json:
            return
    if args.json:
        _dump(report, _stdout())
    elif scalar is not None:
        _stdout().write(f"{scalar}\n")
    else:
        _stdout().write(report_to_text(report))


def _context_of_document(F: MatrixFactorization) -> HypersurfaceContext:
    return mfkit.orlov.HypersurfaceContext(n=F.nvars - 1, d=F.d)


# ---------------------------------------------------------------------------
# Commands: one row of COMMANDS per leaf command, run by _run


def _mf_results(F: MatrixFactorization) -> dict:
    return {
        "rank": F.rank0,
        "d": F.d,
        "nvars": F.nvars,
        "field": str(F.field),
        "F0_degrees": list(F.f0_degrees),
        "F1_degrees": list(F.f1_degrees),
        "reduced": mfkit.mf.is_reduced(F),
    }


def _factorization(F: MatrixFactorization, **extra) -> dict:
    return {"results": {**_mf_results(F), **extra}, "artifact": mf_to_document(F)}


def _entries(key: str, table: BettiTable | CohomologyTable) -> dict:
    return {key: [[i, j, v] for (i, j), v in table.entries], "total": table.total()}


def _value(value, context: HypersurfaceContext | None = None, **results) -> dict:
    return {"context": context, "results": {"value": value, **results}, "scalar": value}


def _mf_validate(args, F: MatrixFactorization) -> dict:
    diagnostics = mfkit.mf.validate(F)
    return {"results": {**_mf_results(F), "valid": not diagnostics},
            "diagnostics": diagnostics, "rejected": bool(diagnostics)}


def _mf_reduce(args, F: MatrixFactorization) -> dict:
    mfkit.mf.require_valid(F)
    reduced = mfkit.mf.reduce(F)
    return _factorization(reduced, rank_before=F.rank0, splits=F.rank0 - reduced.rank0)


def _mf_fermat(args) -> dict:
    if args.field == "Fp" and args.p is None:
        raise SchemaError("--field Fp requires --p")
    if args.field != "Fp" and args.p is not None:
        raise SchemaError("--p applies to --field Fp only")
    field = mfkit.algebra.QI if args.field == "Qi" else mfkit.algebra.GF(args.p)
    # f holds x^(2 * half_degree), which a document may not print.
    if 2 * args.half_degree > mfkit.algebra.MAX_EXPONENT:
        raise ValueError(f"2 * half_degree exceeds MAX_EXPONENT = {mfkit.algebra.MAX_EXPONENT}")
    F = mfkit.mf.fermat(args.pairs, args.half_degree, solo=args.solo, field=field)
    return {**_factorization(F), "notes": [FERMAT_NOTE]}


def _vector(vector: CohomologyVector) -> dict:
    return {"results": {"entries": [[q, v] for q, v in vector.entries], "total": vector.total()},
            "scalar": str(vector)}


def _orlov_translate(args, F: MatrixFactorization) -> dict:
    mfkit.mf.require_valid(F)
    ctx = _context_of_document(F)
    table = mfkit.orlov.betti_to_table(ctx, mfkit.mf.betti(F))
    diagnostics = [f"out-of-support entry (p={p}, h={h})" for p, h in table.out_of_support()]
    return {"context": ctx, "results": _entries("table", table), "diagnostics": diagnostics,
            "artifact": table_to_document(table)}


def _table_in_context(args, table: CohomologyTable, operation, key: str, to_document) -> dict:
    ctx = mfkit.orlov.HypersurfaceContext(args.n, args.d)
    result = operation(ctx, table)
    return {"context": ctx, "results": _entries(key, result), "artifact": to_document(result)}


def _orlov_phi0(args) -> dict:
    ctx = mfkit.orlov.HypersurfaceContext(args.n, args.d)
    descriptor = mfkit.orlov.phi0_residue(ctx, args.l)
    if descriptor is None:
        return {"context": ctx, "results": {"l": args.l, "zero": True}, "scalar": "0"}
    return {"context": ctx, "results": {"l": args.l, "zero": False,
                                        "exterior_power": descriptor.exterior_power,
                                        "twist": descriptor.twist, "shift": descriptor.shift},
            "scalar": str(descriptor)}


def _orlov_shamash(args) -> dict:
    pairs = mfkit.orlov.shamash_counts(args.n, args.d, args.m)
    return {
        "results": {"m": args.m, "degrees": [[deg, mult] for deg, mult in pairs],
                    "rank": sum(mult for _, mult in pairs)},
        "scalar": ", ".join(f"degree {deg} x {mult}" for deg, mult in pairs) or "(empty)",
    }


def _check(ctx: HypersurfaceContext, check, subject) -> dict:
    return {"context": ctx, "verdicts": [check(ctx, subject)]}


def _sweep_threads() -> None:
    """Validate ``MFKIT_THREADS``.  The sweep runs in one thread whatever
    its value; a malformed value is still an error (exit 2)."""
    raw = os.environ.get("MFKIT_THREADS", "")
    try:
        if not raw or int(raw) >= 1:
            return
    except ValueError:
        pass
    raise SchemaError(f"MFKIT_THREADS must be a positive integer, got {raw!r}")


def _sweep_csv_blocks(rows):
    """The sweep's CSV text: the header, then one block of lines per n,
    from the (n, rhos) rows of bott.rho_sweep_rows."""
    yield "n,d,a,e,rho,bound,pass\n"
    for n, rhos in rows:
        e = n // 2  # e and a = n + 1 - d as in HypersurfaceContext
        bound = 2 ** (e + 1)
        # The pieces that do not change along the row, formatted once.
        head, mid = f"{n},", f",{e},"
        passed, failed = f",{bound},true\n", f",{bound},false\n"
        yield "".join([f"{head}{d},{n + 1 - d}{mid}{rho}{passed if rho >= bound else failed}"
                       for d, rho in enumerate(rhos, n + 1)])


def _sweep_rho_structure_sheaf(args) -> None:
    _sweep_threads()
    # The rows are checked against their bounds here, before any output.
    blocks = _sweep_csv_blocks(mfkit.bott.rho_sweep_rows(args.n_max, args.d_max))
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.writelines(blocks)
    else:
        _stdout().writelines(blocks)


@value_class
class Command:
    """One leaf command.  ``compute(args, *documents)`` returns make_report
    keywords plus optional ``artifact`` (the JSON document for --output),
    ``scalar`` (the bare value of text mode) and ``rejected`` (invalid
    input), or None when it wrote its own output.  It calls library
    functions through the package at call time (``mfkit.mf.reduce(...)``),
    so that a rebound module attribute reaches every command."""

    group: str
    name: str
    help: str
    compute: Callable[..., dict | None]
    files: tuple[str, ...] = ()  # kind of each positional file: "mf" or "table"
    ints: tuple[str, ...] = ()  # required integer options
    options: tuple[tuple[str, dict], ...] = ()  # further (flag, add_argument keywords)


GROUPS = {
    "mf": "matrix factorization operations",
    "bott": "cohomology of twisted differentials",
    "rho": "the rho invariant",
    "orlov": "Betti/cohomology translation",
    "check": "instance checks of the rank bounds",
    "sweep": "batch sweeps over (n, d) grids",
}

COMMANDS = (
    Command("mf", "validate", "validate a factorization document", _mf_validate, ("mf",)),
    Command("mf", "reduce", "split off trivial summands", _mf_reduce, ("mf",)),
    Command("mf", "tensor", "tensor two factorizations",
            lambda args, F, G: _factorization(mfkit.mf.tensor(F, G, normalize=args.normalize)),
            ("mf", "mf"),
            options=(("--normalize", {"action": "store_true",
                                      "help": "twist so the minimum F1 degree is 0"}),)),
    Command("mf", "shift", "triangulated shift [1]",
            lambda args, F: _factorization(mfkit.mf.shift(mfkit.mf.require_valid(F))), ("mf",)),
    Command("mf", "twist", "grading twist",
            lambda args, F: _factorization(mfkit.mf.twist(mfkit.mf.require_valid(F), args.t)),
            ("mf",), ("--t",)),
    Command("mf", "dual", "transpose dual",
            lambda args, F: _factorization(mfkit.mf.dual(mfkit.mf.require_valid(F))), ("mf",)),
    Command("mf", "betti", "Betti table of a reduced factorization",
            lambda args, F: {"results": _entries("betti", mfkit.mf.betti(mfkit.mf.require_valid(F)))},
            ("mf",)),
    Command("mf", "fermat", "Fermat-type generator", _mf_fermat,
            ints=("--pairs", "--half-degree"),
            options=(("--solo", {"action": "store_true"}),
                     ("--field", {"choices": ["Qi", "Fp"], "default": "Qi"}),
                     ("--p", {"type": int, "default": None, "help": "modulus for --field Fp"}))),
    Command("bott", "eval", "one cohomology dimension",
            lambda args: _value(mfkit.bott.bott(args.n, args.p, args.q, args.l)),
            ints=("--n", "--p", "--q", "--l")),
    Command("bott", "vector", "vector over all q",
            lambda args: _vector(mfkit.bott.bott_vector(args.n, args.p, args.l)),
            ints=("--n", "--p", "--l")),
    Command("bott", "restricted", "restriction to a hypersurface",
            lambda args: _vector(mfkit.bott.restricted_bott(args.n, args.d, args.r, args.t)),
            ints=("--n", "--d", "--r", "--t")),
    Command("rho", "structure-sheaf", "rho(O_X), closed form",
            lambda args: _value(mfkit.bott.rho_structure_sheaf(args.n, args.d),
                                mfkit.orlov.HypersurfaceContext(args.n, args.d)),
            ints=("--n", "--d")),
    Command("rho", "point", "rho of a point sheaf",
            lambda args: _value(mfkit.bott.rho_point(args.n)), ints=("--n",)),
    Command("rho", "line-bundle", "rho(O_X(j))",
            lambda args: _value(mfkit.bott.rho_line_bundle(args.n, args.d, args.j),
                                mfkit.orlov.HypersurfaceContext(args.n, args.d), j=args.j),
            ints=("--n", "--d", "--j")),
    Command("rho", "from-mf", "rho from a reduced factorization",
            lambda args, F: _value(mfkit.orlov.rho_of_mf(F), _context_of_document(F)),
            ("mf",)),
    Command("rho", "from-table", "rho as a table total",
            lambda args, table: _value(mfkit.orlov.rho_of_table(table)), ("table",)),
    Command("orlov", "translate", "Betti table -> cohomology table", _orlov_translate, ("mf",)),
    Command("orlov", "invert", "cohomology table -> Betti table",
            lambda args, table: _table_in_context(args, table, mfkit.orlov.table_to_betti,
                                                  "betti", betti_to_document),
            ("table",), ("--n", "--d")),
    Command("orlov", "phi0", "residue field image descriptor", _orlov_phi0,
            ints=("--n", "--d", "--l")),
    Command("orlov", "shamash", "Shamash resolution degrees", _orlov_shamash,
            ints=("--n", "--d", "--m")),
    Command("orlov", "dual-table", "duality involution of a table",
            lambda args, table: _table_in_context(args, table, mfkit.orlov.dual_table,
                                                  "table", table_to_document),
            ("table",), ("--n", "--d")),
    Command("check", "bgs", "rank(F0) >= 2^e on a factorization document",
            lambda args, F: _check(_context_of_document(F), mfkit.orlov.check_bgs, F), ("mf",)),
    Command("check", "rho", "rho >= 2^(e+1) for a supplied value",
            lambda args: _check(mfkit.orlov.HypersurfaceContext(args.n, args.d),
                                mfkit.orlov.check_rho, args.value),
            ints=("--n", "--d", "--value")),
    Command("sweep", "rho-structure-sheaf", "CSV of rho(O_X) against the 2^(e+1) bound",
            _sweep_rho_structure_sheaf, ints=("--n-max", "--d-max")),
)


# The options of every leaf, before its own.
_COMMON_OPTIONS = (
    ("--json", {"action": "store_true", "help": "emit a JSON report on stdout"}),
    ("--output", {"metavar": "PATH", "help": "write the command's artifact to PATH"}),
    ("--seed", {"type": int, "default": 0,
                "help": "seed for randomized subcommands (accepted everywhere)"}),
)


def build_parser(group: str | None = None) -> argparse.ArgumentParser:
    """The argument parser: every group with its leaves, or with ``group``
    every group but only that group's leaves."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(f"{self.prog}: {message}")

    parser = _Parser(prog="mfkit", description=__doc__.splitlines()[0])
    groups = parser.add_subparsers(dest="group", required=True, metavar="GROUP")
    leaves = {}
    for name, help_text in GROUPS.items():
        sub = groups.add_parser(name, help=help_text)
        leaves[name] = sub.add_subparsers(dest="command", required=True, metavar="CMD")
    for row in COMMANDS:
        if group is not None and row.group != group:
            continue
        sub = leaves[row.group].add_parser(row.name, help=row.help)
        for flag, keywords in _COMMON_OPTIONS:
            sub.add_argument(flag, **keywords)
        for dest in ("file", "file2")[:len(row.files)]:
            sub.add_argument(dest)
        for flag in row.ints:
            sub.add_argument(flag, type=int, required=True)
        for flag, keywords in row.options:
            sub.add_argument(flag, **keywords)
        sub.set_defaults(row=row)
    return parser


_LEAVES = {(row.group, row.name): row for row in COMMANDS}


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns for a plain command
    line: a group, a leaf, each of the leaf's flags at most once and
    spelled in full, each value a separate nonempty token, and exactly the
    leaf's files.  None for any other command line (``--help``, ``--``,
    ``--flag=value``, an abbreviated, unknown or repeated flag, a value
    that starts with ``-`` other than a negative decimal integer, a value
    that its type or choices reject, a missing or extra argument), which
    argparse then reads or rejects."""
    row = _LEAVES.get(tuple(argv[:2]))
    if row is None:
        return None
    options = {**dict(_COMMON_OPTIONS), **{flag: {"type": int} for flag in row.ints},
               **dict(row.options)}
    values = {"group": row.group, "command": row.name, "row": row}
    for flag, keywords in options.items():
        store_true = keywords.get("action") == "store_true"
        values[flag[2:].replace("-", "_")] = keywords.get("default", False if store_true else None)
    seen, files = set(), []
    tokens = iter(argv[2:])
    for token in tokens:
        if not token or token in seen:
            return None
        if token[0] != "-":
            files.append(token)
            continue
        keywords = options.get(token)
        if keywords is None:
            return None
        seen.add(token)
        dest = token[2:].replace("-", "_")
        if keywords.get("action") == "store_true":
            values[dest] = True
            continue
        value = next(tokens, "")
        to_int = keywords.get("type") is int
        # Of the values that start with "-", every supported Python's
        # argparse reads "-" and ASCII digits as a negative number; which
        # other spellings it reads as a value differs between versions.
        negative = to_int and value[1:].isdecimal() and value.isascii()
        if not value or (value[0] == "-" and not negative):
            return None
        if to_int:
            try:
                value = int(value)
            except ValueError:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = value
    if len(files) != len(row.files) or not seen.issuperset(row.ints):
        return None
    values.update(zip(("file", "file2"), files))
    return SimpleNamespace(**values)


def _run(args) -> int:
    """Read and parse the row's input files, compute, write the report.
    A ``rejected`` input prints the JSON report only with --json and its
    diagnostics on stderr; a failing verdict is reported as usual, then
    named on stderr.  Both exit 2."""
    row = args.row
    paths = [getattr(args, dest) for dest in ("file", "file2")[:len(row.files)]]
    names = [os.path.basename(path) for path in paths]
    if len(set(names)) < len(names):
        # When two inputs share a base name, each is keyed by its path as given.
        names = paths
    inputs, documents = {}, []
    for path, name, kind in zip(paths, names, row.files):
        doc, digest = _read_json(path)
        inputs[name] = digest
        documents.append(document_to_mf(doc) if kind == "mf" else document_to_table(doc))
    out = row.compute(args, *documents)
    if out is None:
        return 0
    artifact, scalar = out.pop("artifact", None), out.pop("scalar", None)
    rejected = out.pop("rejected", False)
    report = make_report(f"{row.group} {row.name}", inputs=inputs, **out)
    if rejected:
        if args.json:
            _dump(report, _stdout())
        for diag in report["diagnostics"]:
            _diagnose(f"invalid: {diag}")
        return 2
    _emit(args, report, artifact=artifact, scalar=scalar)
    for verdict in out.get("verdicts", ()):
        if verdict.applicable and not verdict.passed:
            _diagnose(f"check failed: value {verdict.value} < bound {verdict.bound}")
            return 2
    return 0


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
    argv = sys.argv[1:] if argv is None else argv
    # One digit cap for every integer read or printed, restored on return.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_DIGITS)
    try:
        args = _plain_args(argv)
        if args is None:
            # A command line that starts with a group needs that group's leaves only.
            parser = build_parser(argv[0] if argv and argv[0] in GROUPS else None)
            try:
                args = parser.parse_args(argv)
            except _UsageError as exc:
                _diagnose(str(exc))
                return 1
        try:
            return _run(args)
        except (ValueError, ZeroDivisionError, OSError) as exc:
            _diagnose(f"error [{_origin_module(exc)}]: {exc}")
            return 2
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    from mfkit.__main__ import run
    run()
