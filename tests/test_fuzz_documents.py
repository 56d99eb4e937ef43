"""Fuzz oracle for the document commands.

Random Fermat, split-first and tensor factorizations over QQ(i) and GF(p)
are built by ``perfbench/refmf.py``, the benchmark's reference, which
does not import mfkit; it is loaded here from its file and only read.
``mf validate``, ``reduce``, ``tensor`` and ``betti`` run through
``cli.main`` in-process, and every artifact is checked with
``refmf.check_mf_document`` (random-point and Freivalds checks of the
printed entries).  Then one entry, one degree or one row of a document is
changed: each command must exit 0 or 2 within a time budget, never 1 and
never with an exception (QuickCheck, Claessen and Hughes, ICFP 2000).
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import random
import tempfile
import time
from collections import Counter
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from mfkit import cli


def _load_refmf():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "refmf.py"
    spec = importlib.util.spec_from_file_location("refmf", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


refmf = _load_refmf()

# Seconds one command may take on a document of rank <= 8.
TIME_BUDGET_S = 10.0
# Primes p = 1 (mod 4), so that GF(p) holds a square root of -1.
PRIMES = [5, 13, 10009, 1000000009, 2147483629]


def run(*argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``, timed."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    elapsed = time.perf_counter() - start
    assert elapsed < TIME_BUDGET_S, (argv, elapsed)
    return code, out.getvalue(), err.getvalue()


def results(stdout):
    return json.loads(stdout)["results"]


@st.composite
def cases(draw):
    """A ring, a Fermat or split-first document on all its variables, and
    two factors on complementary variables whose tensor factors the same
    polynomial (None with one variable pair)."""
    if draw(st.booleans()):
        ring = refmf.Ring("Qi")
    else:
        ring = refmf.Ring("Fp", draw(st.sampled_from(PRIMES)))
    pairs = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    nvars = 2 * pairs
    perm = draw(st.permutations(range(nvars)))
    split = draw(st.booleans())
    main = refmf.fermat(ring, nvars, pairs, m, perm, split_first=split, normalize=not split)
    reduced = refmf.fermat(ring, nvars, pairs, m, perm, normalize=not split)
    factors = None
    if pairs > 1:
        k = draw(st.integers(1, pairs - 1))
        factors = (refmf.fermat(ring, nvars, k, m, perm, normalize=False),
                   refmf.fermat(ring, nvars, pairs - k, m, perm[2 * k:] + perm[:2 * k],
                                normalize=False))
    return ring, nvars, 2 * m, main, reduced, factors


def expect(ring, nvars, d, F):
    return {"field": ring.field_json(), "nvars": nvars, "d": d, "rank": F.rank,
            "f0": F.f0, "f1": F.f1}


def write(folder, name, doc):
    path = str(Path(folder) / f"{name}.json")
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return path


def check_commands(folder, ring, nvars, d, main, reduced, factors, rng):
    doc = write(folder, "main", main.document())
    code, out, err = run("mf", "validate", doc, "--json")
    assert code == 0, err
    assert (results(out)["valid"], results(out)["rank"]) == (True, main.rank)

    artifact = str(Path(folder) / "reduced.json")
    code, out, err = run("mf", "reduce", doc, "--json", "--output", artifact)
    assert code == 0, err
    assert results(out)["rank"] == reduced.rank
    with open(artifact) as handle:
        assert refmf.check_mf_document(json.load(handle), rng=rng,
                                       **expect(ring, nvars, d, reduced)) == []

    code, out, err = run("mf", "betti", doc, "--json")
    if main.rank == reduced.rank:
        assert code == 0, err
        counts = Counter((0, m) for m in main.f0) + Counter((1, m) for m in main.f1)
        assert results(out)["betti"] == [[i, j, v] for (i, j), v in sorted(counts.items())]
    else:
        assert (code, out) == (2, "")
        assert "reduced" in err

    if factors is not None:
        t1, t2 = (write(folder, f"t{k}", F.document()) for k, F in enumerate(factors, 1))
        artifact = str(Path(folder) / "tensor.json")
        code, out, err = run("mf", "tensor", t1, t2, "--json", "--output", artifact)
        assert code == 0, err
        product = refmf.tensor(*factors)
        with open(artifact) as handle:
            assert refmf.check_mf_document(json.load(handle), rng=rng,
                                           **expect(ring, nvars, d, product)) == []


def entry_texts(nvars, d):
    # Replacement entries: zero, a wrong degree, out of scope, malformed,
    # the wrong type, and expansions that only the parse budgets stop.
    every = " + ".join(f"x{k}" for k in range(nvars))
    return ["0", "1", "i", "x0", f"x0^{d + 1}", f"x{nvars}", "x0 +", "(x0", "1/0", "y",
            f"({every})^400", "((((2*x0)^1024)^1024)^1024)^1024", "9" * (cli.MAX_DIGITS + 1),
            "(x0^1048576)^1048576", 7, None, ["x0"]]


@st.composite
def mutations(draw, doc, nvars, d):
    """``doc`` with one entry, one degree or one row changed."""
    doc = json.loads(json.dumps(doc))
    kind = draw(st.sampled_from(["entry", "degree", "row"]))
    if kind == "degree":
        key = draw(st.sampled_from(["F0_degrees", "F1_degrees", "d", "nvars"]))
        value = draw(st.sampled_from([1, -1, 2**40, "2", 1.5, True, None]))
        if key in ("d", "nvars"):
            doc[key] = doc[key] + value if type(value) is int else value
        else:
            k = draw(st.integers(0, len(doc[key]) - 1))
            doc[key][k] = doc[key][k] + value if type(value) is int else value
        return doc
    grid = doc[draw(st.sampled_from(["s0", "s1"]))]
    r = draw(st.integers(0, len(grid) - 1))
    if kind == "entry":
        c = draw(st.integers(0, len(grid[r]) - 1))
        other = [text for row in grid for text in row]
        grid[r][c] = draw(st.sampled_from(entry_texts(nvars, d) + other))
        return doc
    change = draw(st.sampled_from(["drop", "repeat", "shorten", "extend", "replace"]))
    if change == "drop":
        del grid[r]
    elif change == "repeat":
        grid.insert(r, list(grid[r]))
    elif change == "shorten":
        grid[r] = grid[r][:-1]
    elif change == "extend":
        grid[r] = grid[r] + ["0"]
    else:
        grid[r] = "x0"
    return doc


@given(data=st.data())
def test_document_commands_against_reference(data):
    ring, nvars, d, main, reduced, factors = data.draw(cases())
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    with tempfile.TemporaryDirectory() as folder:
        check_commands(folder, ring, nvars, d, main, reduced, factors, rng)

        # One change to the main document or to the first tensor factor.
        targets = [main] if factors is None else [main, factors[0]]
        target = data.draw(st.sampled_from(targets))
        doc = write(folder, "changed", data.draw(mutations(target.document(), nvars, d)))
        partner = write(folder, "partner", (main if factors is None else factors[1]).document())
        for argv in (("mf", "validate", doc), ("mf", "reduce", doc), ("mf", "betti", doc),
                     ("mf", "tensor", doc, partner)):
            code, _, err = run(*argv, "--json")
            assert code in (0, 2), (argv, code, err)
            assert "Traceback" not in err
