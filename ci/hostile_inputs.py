"""Hostile documents and queries under a 1 GiB address-space cap.

Each case runs ``python -m mfkit`` under ``timeout 60`` with RLIMIT_AS
set to 1 GiB in the child, and must exit with its expected code and
without a traceback; the script prints every case's exit code and
stderr, and exits 1 if any case fails.

Run from the root of a checkout, with an absolute PYTHONPATH, since the
script works in a temporary directory, removed on exit::

    PYTHONPATH=$PWD/src python ci/hostile_inputs.py
"""
import json, os, resource, subprocess, sys, tempfile
from mfkit import algebra, cli, mf


def cap():
    # Applied in the child only, before it runs timeout and mfkit.
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def main() -> bool:
    """Write the documents into the working directory, run every case and
    return True if any failed."""
    # A 2^40-bit coefficient within the declared degree 2^40.
    tower = {"schema": "mfkit/mf-v1", "field": {"type": "Q"}, "nvars": 1, "d": 2**40,
             "f": "(x0^1048576)^1048576", "F0_degrees": [2**40], "F1_degrees": [0],
             "s0": [["((((2*x0)^1024)^1024)^1024)^1024"]], "s1": [["1"]]}
    # About 10^20 terms within the declared degree 400.
    entry = "(" + " + ".join(f"x{k}" for k in range(12)) + ")^400"
    expansion = {"schema": "mfkit/mf-v1", "field": {"type": "Q"}, "nvars": 12, "d": 400,
                 "f": "x0^400", "F0_degrees": [400], "F1_degrees": [0],
                 "s0": [[entry]], "s1": [["1"]]}
    # The trivial factorization (1, f) of a printed 8,000-term sum.
    f = algebra.Polynomial.from_pairs(
        algebra.QQ, 2, [((8000 - k, k), k % 7 - 3 or 1) for k in range(8000)])
    long_sum = cli.mf_to_document(mf.trivial_one_f(f))
    # The same with one more " +" at the end of its f: printed text
    # up to the last term, which only the recursive parser rejects.
    long_sum_open = dict(long_sum, f=long_sum["f"] + " +")
    # The same written without spaces, which only the recursive
    # parser reads.
    long_sum_tight = json.loads(json.dumps(long_sum).replace(" ", ""))
    # The valid trivial factorization (1, f) of f = x0 + ... + x1023,
    # written without spaces, in algebra.MAX_NVARS variables.
    every = "+".join(f"x{k}" for k in range(algebra.MAX_NVARS))
    every_variable = {"schema": "mfkit/mf-v1", "field": {"type": "Q"},
                      "nvars": algebra.MAX_NVARS, "d": 1, "f": every, "F0_degrees": [0],
                      "F1_degrees": [0], "s0": [["1"]], "s1": [[every]]}
    # The valid factorization (f, 1) of a two-term f of degree 2^40.
    g = "(x0^1048576)^1048576 + (x1^1048576)^1048576"
    wide = {"schema": "mfkit/mf-v1", "field": {"type": "Q"}, "nvars": 2, "d": 2**40,
            "f": g, "F0_degrees": [2**40], "F1_degrees": [0], "s0": [[g]], "s1": [["1"]]}
    # The valid factorization (h, 1) of h = x0^(2^64), in 128-bit
    # fields, and the invalid (h, 2).
    h = "(((x0^1048576)^1048576)^1048576)^16"
    wider = {"schema": "mfkit/mf-v1", "field": {"type": "Q"}, "nvars": 1, "d": 2**64,
             "f": h, "F0_degrees": [2**64], "F1_degrees": [0], "s0": [[h]], "s1": [["1"]]}

    # The valid trivial factorization (1, f) of f = (x0 + ... + x{n-1})^2
    # written as a product: 256^2 = algebra.MAX_PARSE_PRODUCTS term
    # products, and 257^2, past it.
    def square(n):
        s = "(" + " + ".join(f"x{k}" for k in range(n)) + ")"
        return {"schema": "mfkit/mf-v1", "field": {"type": "Q"}, "nvars": n, "d": 2,
                "f": f"{s}*{s}", "F0_degrees": [0], "F1_degrees": [0],
                "s0": [["1"]], "s1": [[f"{s}*{s}"]]}

    assert square(256)["f"].count("+") == 2 * 255 and 256**2 == algebra.MAX_PARSE_PRODUCTS
    failed = False
    for name, doc, expected in (("tower", tower, 2), ("expansion", expansion, 2),
                                ("long_sum", long_sum, 0), ("long_sum_open", long_sum_open, 2),
                                ("long_sum_tight", long_sum_tight, 0),
                                ("every_variable", every_variable, 0),
                                ("wide", wide, 0),
                                ("wider", wider, 0), ("wider_twice", dict(wider, s1=[["2"]]), 2),
                                ("square", square(256), 0),
                                ("square_past", square(257), 2)):
        with open(f"{name}.json", "w") as out:
            json.dump(doc, out)
        run = subprocess.run(["timeout", "60", sys.executable, "-m", "mfkit", "mf",
                              "validate", f"{name}.json"],
                             capture_output=True, text=True, preexec_fn=cap)
        print(f"{name}: exit {run.returncode} (expected {expected})\n{run.stderr}")
        failed |= run.returncode != expected or "Traceback" in run.stderr
    # The valid factorization (1, (2*x0)^20000), whose printed entries
    # need 6,021 digits; the same with an entry literal one digit past
    # cli.MAX_DIGITS; and the valid (1, ((2*x0)^4095)^4096), whose
    # coefficient needs 5,049,213 digits.
    power = {"schema": "mfkit/mf-v1", "field": {"type": "Q"}, "nvars": 1, "d": 20000,
             "f": "(2*x0)^20000", "F0_degrees": [0], "F1_degrees": [0],
             "s0": [["1"]], "s1": [["(2*x0)^20000"]]}
    literal = dict(power, d=1, f="9" * (cli.MAX_DIGITS + 1) + "*x0",
                   s1=[["9" * (cli.MAX_DIGITS + 1) + "*x0"]])
    budget = dict(power, d=4095 * 4096, f="((2*x0)^4095)^4096",
                  s1=[["((2*x0)^4095)^4096"]])
    # An entry literal past cli.MAX_DIGITS followed by a bad
    # character: the parser reports the character, not the digit cap.
    literal_at = dict(power, d=1, f="x0", s1=[["9" * (cli.MAX_DIGITS + 1) + "*x0 + @"]])
    # The invalid dense factorization of f = x0^2 at rank 256 with
    # every entry x0 (790 KB): s1*s0 forms 256^3 products before it
    # finds row 0 wrong.
    rank = 256
    dense = {"schema": "mfkit/mf-v1", "field": {"type": "Q"}, "nvars": 1, "d": 2,
             "f": "x0^2", "F0_degrees": [1] * rank, "F1_degrees": [0] * rank,
             "s0": [["x0"] * rank] * rank, "s1": [["x0"] * rank] * rank}
    for name, doc in (("power", power), ("literal", literal), ("budget", budget),
                      ("literal_at", literal_at), ("dense", dense)):
        with open(f"{name}.json", "w") as out:
            json.dump(doc, out)
    run = subprocess.run(["timeout", "60", sys.executable, "-m", "mfkit", "mf", "validate",
                          "literal_at.json"], capture_output=True, text=True, preexec_fn=cap)
    print(f"literal_at: exit {run.returncode} (expected 2)\n{run.stderr}")
    failed |= run.returncode != 2 or "unexpected character '@'" not in run.stderr
    # An s0 entry whose exponent, and one whose variable index, has one
    # digit past cli.MAX_DIGITS: int() alone meets the cap, in either reader.
    for name, entry in (("exponent_digits", "x0^"), ("index_digits", "x")):
        with open(f"{name}.json", "w") as out:
            json.dump(dict(power, d=1, f="x0", s0=[[entry + "9" * (cli.MAX_DIGITS + 1)]],
                           s1=[["x0"]]), out)
        run = subprocess.run(["timeout", "60", sys.executable, "-m", "mfkit", "mf",
                              "validate", f"{name}.json"],
                             capture_output=True, text=True, preexec_fn=cap)
        print(f"{name}: exit {run.returncode} (expected 2)\n{run.stderr}")
        failed |= (run.returncode != 2 or "Traceback" in run.stderr
                   or "Exceeds the limit (300000 digits)" not in run.stderr)
    # A Shamash term of rank 614,429,672, past MAX_SHAMASH_RANK;
    # 2^30000000, whose 9,030,900 digits are past cli.MAX_DIGITS; three
    # Bott queries past bott.MAX_BOTT_N, which ran 7-208 s unbounded; and
    # rho(O_X) at n = d/2 on bott.MAX_RHO_DEGREE, its widest case;
    # documents whose exponents would pass algebra.MAX_EXPONENT, which
    # exit 2 at once, and a Fermat document at that cap, which reads back.
    # Powers of two past bott.MAX_POWER_BITS, which ran out of memory or
    # overflowed, and a Shamash term whose C(n+1, 2) alone passes the
    # rank bound, which summed 10,001 binomials for over 30 s; and the
    # one-degree term at MAX_SHAMASH_RANK, which still answers.  Each
    # rho query one past its bott bound, and the dense document.
    for argv, expected in ((["mf", "validate", "literal.json"], 2),
                           (["orlov", "shamash", "--n", "30", "--d", "4", "--m", "-15"], 2),
                           (["rho", "point", "--n", "30000000"], 2),
                           (["rho", "point", "--n", "100000000000"], 2),
                           (["rho", "point", "--n", "9" * 40], 2),
                           (["check", "rho", "--n", "100000000000", "--d", "100000000001",
                             "--value", "1"], 2),
                           (["orlov", "shamash", "--n", "20000", "--d", "4", "--m", "-20000"], 2),
                           (["orlov", "shamash", "--n", "4194303", "--d", "4", "--m", "-1"], 0),
                           (["bott", "restricted", "--n", "1000000", "--d", "1", "--r", "500000",
                             "--t", "1000000"], 2),
                           (["bott", "vector", "--n", "3000000", "--p", "1000000", "--l", "3000000"], 2),
                           (["bott", "eval", "--n", "400000", "--p", "200000", "--q", "0",
                             "--l", "400000"], 2),
                           (["rho", "structure-sheaf", "--n", "32000", "--d", "64000"], 0),
                           (["mf", "shift", "budget.json"], 2),
                           (["mf", "shift", "power.json", "--output", "shifted.json"], 0),
                           (["mf", "validate", "shifted.json"], 0),
                           (["mf", "shift", "wide.json"], 2),
                           (["mf", "shift", "wider.json"], 2),
                           (["mf", "fermat", "--pairs", "1", "--half-degree", "524289"], 2),
                           (["mf", "fermat", "--pairs", "1", "--half-degree", "524288",
                             "--output", "cap.json"], 0),
                           (["mf", "validate", "cap.json"], 0),
                           (["rho", "line-bundle", "--n", "1501", "--d", "2", "--j", "0"], 2),
                           (["rho", "line-bundle", "--n", "2", "--d", "10001", "--j", "0"], 2),
                           (["rho", "line-bundle", "--n", "2", "--d", "3", "--j", "-10001"], 2),
                           (["rho", "structure-sheaf", "--n", "2", "--d", "64001"], 2),
                           (["sweep", "rho-structure-sheaf", "--n-max", "2", "--d-max", "1001"], 2),
                           (["mf", "validate", "dense.json"], 2)):
        run = subprocess.run(["timeout", "60", sys.executable, "-m", "mfkit", *argv],
                             capture_output=True, text=True, preexec_fn=cap)
        print(f"{' '.join(argv)}: exit {run.returncode} (expected {expected})\n{run.stderr}")
        failed |= run.returncode != expected or "Traceback" in run.stderr
    return failed


# The documents this writes stay out of the checkout.
with tempfile.TemporaryDirectory() as work:
    os.chdir(work)
    failed = main()
sys.exit(failed)
