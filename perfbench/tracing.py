"""Spans and counters recorded from outside mfkit.

A traced run replaces public functions of mfkit's modules with wrappers
that open a span around each call and count the work the call does.
Spans are kept in memory as (name, start, end, parent, run id) and
written out once the run ends.  A layer's time is its self time: the
span's duration minus the part of it that its child spans cover.

Counting that needs extra work (products in a matrix, digits of a
number) runs inside a ``trace.count`` span, so the time it takes is
charged neither to the wrapped call nor to its caller's self time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

FIELD_TAG = {"Q": "q", "Qi": "qi", "Fp": "fp"}


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []          # [name, start, end, parent index, run id]
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield len(self.spans) - 1
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def write(self, handle) -> None:
        """Append the spans to an open text file, one JSON object a line."""
        for name, start, end, parent, run in self.spans:
            handle.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[int]] = defaultdict(list)
    for k, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(k)
    out = []
    for k, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted((max(spans[c][1], start), min(spans[c][2], end))
                                     for c in children.get(k, ())):
            if c_end > reach:
                covered += c_end - max(c_start, reach)
                reach = c_end
        out.append((end - start) - covered)
    return out


def self_by_name(spans: list) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own
    return totals


# ---------------------------------------------------------------------------
# Instrumentation of mfkit


def _compose_counts(rec: Recorder, a, b) -> None:
    with rec.span("trace.count"):
        col_nnz = [sum(1 for row in a.entries if not row[m].is_zero) for m in range(a.ncols)]
        row_nnz = [sum(1 for e in row if not e.is_zero) for row in b.entries]
        rec.count("graded.compose_products", sum(x * y for x, y in zip(col_nnz, row_nnz)))
        rec.count("graded.compose_triples", a.nrows * b.ncols * a.ncols)


def _wrappers(rec: Recorder, api) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper factory) for every traced entry point."""

    def plain(name):
        def make(orig):
            def wrapper(*args, **kwargs):
                with rec.span(name):
                    return orig(*args, **kwargs)
            return wrapper
        return make

    def by_field(prefix, field_of):
        def make(orig):
            def wrapper(*args, **kwargs):
                with rec.span(f"{prefix}.{FIELD_TAG[field_of(*args).kind]}"):
                    return orig(*args, **kwargs)
            return wrapper
        return make

    def parse(orig):
        def wrapper(text, *args, **kwargs):
            with rec.span("algebra.parse"):
                poly = orig(text, *args, **kwargs)
            rec.count("algebra.parse_entries")
            rec.distinct["algebra.parse"].add(text)
            rec.count("algebra.terms_total", len(poly.terms))
            return poly
        return wrapper

    def print_(orig):
        def wrapper(self):
            with rec.span("algebra.print"):
                text = orig(self)
            rec.count("algebra.terms_total", len(self.terms))
            return text
        return wrapper

    def compose(orig):
        def wrapper(a, b):
            _compose_counts(rec, a, b)
            with rec.span(f"graded.compose.{FIELD_TAG[a.field.kind]}"):
                result = orig(a, b)
            with rec.span("trace.count"):
                rec.count("graded.compose_terms_out",
                          sum(len(e.terms) for row in result.entries for e in row))
            return result
        return wrapper

    def reduce(orig):
        def wrapper(F):
            with rec.span("mf.reduce"):
                result = orig(F)
            rec.count("mf.reduce_splits", F.rank0 - result.rank0)
            rec.count("mf.reduce_rank_out", result.rank0)
            return result
        return wrapper

    def rho(orig):
        def wrapper(n, d):
            with rec.span("bott.rho"):
                value = orig(n, d)
            with rec.span("trace.count"):
                rec.count("bott.rho_cells")
                rec.count("bott.rho_digits", len(str(abs(value))))
            return value
        return wrapper

    cli, algebra, graded, mf, orlov, bott = (
        api.cli, api.algebra, api.graded, api.mf, api.orlov, api.bott)
    table = [
        (cli, "main", plain("cli.main")),
        (cli, "build_parser", plain("cli.build_parser")),
        (cli, "_read_json", plain("cli.read_json")),
        (cli, "document_to_mf", plain("cli.document_to_mf")),
        (cli, "_emit", plain("cli.emit")),
        (algebra, "parse_poly", parse),
        (algebra.Polynomial, "__str__", print_),
        (graded, "compose", compose),
        (graded.HomogeneousMatrix, "validate", plain("graded.matrix_validate")),
        (mf, "validate", by_field("mf.validate", lambda F: F.field)),
        (mf, "fermat", plain("mf.fermat")),
        (mf, "tensor", plain("mf.tensor")),
        (mf, "reduce", reduce),
        (mf, "betti", plain("mf.betti")),
        (orlov, "betti_to_table", plain("orlov.translate")),
        (orlov, "table_to_betti", plain("orlov.invert")),
        (orlov, "check_bgs", plain("orlov.check_bgs")),
        (bott, "rho_structure_sheaf", rho),
        (bott, "restricted_bott", plain("bott.restricted")),
    ]
    table += [(mf, name, plain("mf.small_ops")) for name in ("shift", "twist", "dual")]
    table += [(orlov, name, plain("orlov.scalar")) for name in (
        "phi0_residue", "shamash_degrees", "dual_table", "check_rho", "rho_of_table", "rho_of_mf")]
    return table


@contextmanager
def instrumented(rec: Recorder, api):
    """Install the wrappers for the duration of the block.  A function is
    replaced in every mfkit module that binds it, so calls through
    ``from .x import f`` names are traced too; names that a version of
    mfkit lacks are skipped."""
    modules = [m for name, m in list(sys.modules.items())
               if (name == "mfkit" or name.startswith("mfkit.")) and m is not None]
    undo = []
    try:
        for owner, attr, make in _wrappers(rec, api):
            orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if orig is None:
                continue
            new = make(orig)
            targets = [owner] if isinstance(owner, type) else [
                m for m in modules if any(v is orig for v in vars(m).values())]
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is orig:
                        undo.append((target, key, orig))
                        setattr(target, key, new)
        yield rec
    finally:
        for target, key, orig in reversed(undo):
            setattr(target, key, orig)


def rho_call_overhead(api, reps: int = 5000) -> float:
    """Seconds that one traced ``rho_structure_sheaf`` call adds to its
    caller's self time: the wrapper and its spans outside their own clock
    readings.  Measured on a stub that returns at once, against the same
    calls to the bare stub."""
    rec = Recorder("calibration")
    make = next(make for _, attr, make in _wrappers(rec, api) if attr == "rho_structure_sheaf")
    stub = lambda n, d: 1
    traced_stub = make(stub)
    start = time.perf_counter()
    for _ in range(reps):
        stub(1, 2)
    bare = time.perf_counter() - start
    with rec.span("caller"):
        for _ in range(reps):
            traced_stub(1, 2)
    return (self_times(rec.spans)[0] - bare) / reps


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(rec: Recorder, sweep_main_spans: list[int], rho_overhead: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  Times are self times summed
    over the pass, except ``cli.main_s``, which is the inclusive time of
    the in-process ``cli.main`` calls.  ``bott.csv_s`` is the self time of
    the sweeps' ``cli.main`` less ``rho_overhead`` (see
    ``rho_call_overhead``) for each traced rho call it made."""
    own = self_by_name(rec.spans)
    selfs = self_times(rec.spans)
    c = rec.counts
    s = lambda *names: sum(own.get(n, 0.0) for n in names)
    entries = c["algebra.parse_entries"]
    cells = c["bott.rho_cells"]
    sweeps = set(sweep_main_spans)
    sweep_rho_calls = sum(1 for span in rec.spans if span[0] == "bott.rho" and span[3] in sweeps)
    return {
        "cli.main_s": sum(e - b for n, b, e, _, _ in rec.spans if n == "cli.main"),
        "cli.read_json_s": s("cli.read_json"),
        "cli.document_to_mf_s": s("cli.document_to_mf"),
        "cli.emit_s": s("cli.emit"),
        "algebra.parse_s": s("algebra.parse"),
        "algebra.parse_entries": entries,
        "algebra.parse_distinct_ratio": len(rec.distinct["algebra.parse"]) / entries if entries else 0.0,
        "algebra.print_s": s("algebra.print"),
        "algebra.terms_total": c["algebra.terms_total"],
        "graded.compose_s.qi": s("graded.compose.qi"),
        "graded.compose_s.fp": s("graded.compose.fp"),
        "graded.compose_products": c["graded.compose_products"],
        "graded.compose_useful_ratio": (c["graded.compose_products"] / c["graded.compose_triples"]
                                        if c["graded.compose_triples"] else 0.0),
        "graded.compose_terms_out": c["graded.compose_terms_out"],
        "graded.matrix_validate_s": s("graded.matrix_validate"),
        "mf.validate_s.qi": s("mf.validate.qi"),
        "mf.validate_s.fp": s("mf.validate.fp"),
        "mf.fermat_s": s("mf.fermat"),
        "mf.tensor_s": s("mf.tensor"),
        "mf.reduce_s": s("mf.reduce"),
        "mf.reduce_splits": c["mf.reduce_splits"],
        "mf.reduce_rank_out": c["mf.reduce_rank_out"],
        "mf.betti_s": s("mf.betti"),
        "mf.small_ops_s": s("mf.small_ops"),
        "orlov.translate_s": s("orlov.translate"),
        "orlov.invert_s": s("orlov.invert"),
        "orlov.check_bgs_s": s("orlov.check_bgs"),
        "orlov.scalar_s": s("orlov.scalar"),
        "bott.rho_s": s("bott.rho"),
        "bott.rho_cells": cells,
        "bott.rho_cell_us": s("bott.rho") / cells * 1e6 if cells else 0.0,
        "bott.rho_digits": c["bott.rho_digits"],
        "bott.csv_s": sum(selfs[k] for k in sweeps) - sweep_rho_calls * rho_overhead,
        "bott.restricted_s": s("bott.restricted"),
    }
