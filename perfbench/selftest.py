"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Self-time arithmetic of the span recorder on hand-made spans.
2. The output checks reject corrupted documents and sweep rows.
3. Generated documents equal mfkit's own canonical Fermat documents.
4. Every count metric of a traced run (--trace 1) repeats exactly when
   the run is repeated on the same seed.

Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import random
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import refmf as R      # noqa: E402
import tracing         # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        failures.append(what)


def test_self_times() -> None:
    spans = [
        ["root", 0.0, 10.0, None, "t"],
        ["a", 1.0, 4.0, 0, "t"],
        ["b", 3.0, 6.0, 0, "t"],       # overlaps a: the union counts once
        ["a.child", 1.5, 2.0, 1, "t"],
        ["late", 9.0, 12.0, 0, "t"],   # clipped to the parent's end
    ]
    got = tracing.self_times(spans)
    want = [10 - 5 - 1, 2.5, 3.0, 0.5, 3.0]
    expect(all(abs(g - w) < 1e-12 for g, w in zip(got, want)), f"self times {got} == {want}")
    by_name = tracing.self_by_name(spans + [["a", 20.0, 21.0, None, "t"]])
    expect(abs(by_name["a"] - 3.5) < 1e-12, "self times add up per span name")

    rec = tracing.Recorder("r")
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with rec.span("inner"):
            pass
    parents = [s[3] for s in rec.spans]
    own = tracing.self_times(rec.spans)
    outer = rec.spans[0][2] - rec.spans[0][1]
    inner = sum(s[2] - s[1] for s in rec.spans[1:])
    expect(parents == [None, 0, 0], "recorded spans point at their parent")
    expect(abs(own[0] - (outer - inner)) < 1e-12, "recorded self time is duration minus children")


def test_checks() -> None:
    rng = random.Random(7)
    p = R.seeded_prime(rng)
    for ring, field in ((R.Ring("Qi"), {"type": "Qi"}), (R.Ring("Fp", p), {"type": "Fp", "p": p})):
        F = R.fermat(ring, 6, 3, 2, [4, 0, 2, 5, 1, 3])
        doc = F.document()
        args = dict(field=field, nvars=6, d=4, rank=4, f0=F.f0, f1=F.f1, rng=rng)
        expect(R.check_mf_document(doc, **args) == [], f"valid {field['type']} document passes")
        mutations = {
            "entry": lambda d: d["s1"][1].__setitem__(2, "x0^4"),
            "sign": lambda d: d["s0"][0].__setitem__(0, "-" + d["s0"][0][0]),
            "degrees": lambda d: d["F0_degrees"].__setitem__(0, d["F0_degrees"][0] - 1),
            "polynomial": lambda d: d.__setitem__("f", d["f"] + " + x0^4"),
            "shape": lambda d: d["s0"].pop(),
        }
        for what, mutate in mutations.items():
            bad = copy.deepcopy(doc)
            mutate(bad)
            expect(R.check_mf_document(bad, **args) != [], f"corrupted {what} ({field['type']}) is caught")
    csv = R.sweep_csv(6, 12)
    expect(R.check_sweep(csv, 6, 12) == [], "reference sweep passes its own check")
    rows = csv.splitlines()
    rows[5] = rows[5].replace(rows[5].split(",")[4], str(int(rows[5].split(",")[4]) + 1), 1)
    expect(R.check_sweep("\n".join(rows) + "\n", 6, 12) != [], "a wrong rho row is caught")
    expect(R.check_sweep(csv.replace("true", "false", 1), 6, 12) != [], "a wrong pass column is caught")


def test_generator_matches_mfkit() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from mfkit import cli, mf
        from mfkit.algebra import GF
    except ImportError as exc:
        expect(False, f"mfkit importable from src ({exc})")
        return
    p = 1000000009
    expect(R.fermat(R.Ring("Qi"), 8, 4, 2).document() == cli.mf_to_document(mf.fermat(4, 2)),
           "generated QQ(i) Fermat document equals mfkit's")
    expect(R.fermat(R.Ring("Fp", p), 6, 3, 3).document()
           == cli.mf_to_document(mf.fermat(3, 3, field=GF(p))),
           "generated GF(p) Fermat document equals mfkit's")


def traced_counts(workload: str) -> tuple[dict, bool]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    result = json.loads(out.stdout.strip().splitlines()[-1]) if out.returncode == 0 else None
    if result is None:
        return {}, False
    counts = {k: v["value"] for k, v in result["metrics"].items()
              if v["unit"] in ("count", "bytes") or (v["unit"] == "ratio" and k != "trace.overhead_ratio")}
    return counts, result["correct"]


def test_counts_repeat() -> None:
    for workload in ("cli_small", "rho_sweep", "mf_large"):
        first, ok1 = traced_counts(workload)
        second, ok2 = traced_counts(workload)
        expect(ok1 and ok2, f"{workload}: traced runs succeed and check out")
        differ = sorted(k for k in first if first[k] != second.get(k))
        expect(bool(first) and not differ, f"{workload}: {len(first)} count metrics repeat exactly {differ}")


if __name__ == "__main__":
    test_self_times()
    test_checks()
    test_generator_matches_mfkit()
    test_counts_repeat()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
