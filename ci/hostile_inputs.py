"""Hostile documents and queries under a 1 GiB address-space cap.

Every case is one row of ``CASES``: a name, the argv of ``python -m
mfkit``, the expected exit code and the fragments its stderr must
contain.  All documents are written first; then each case runs under
``timeout 60`` with RLIMIT_AS set to 1 GiB in the child, and must exit
with its expected code, with every fragment and without a traceback in
its stderr.  The script prints each case's exit code, wall time, peak
RSS and stderr, and exits 1 if any case fails.

Run from the root of a checkout::

    PYTHONPATH=src python ci/hostile_inputs.py

The script works in a temporary directory, removed on exit, so it makes
each PYTHONPATH entry absolute for its children first; a relative or an
absolute PYTHONPATH works alike.
"""
import json, os, resource, subprocess, sys, tempfile, time
from mfkit import algebra, cli, mf


def documents() -> dict[str, dict]:
    """Every document a case reads, by name; each is written to name.json."""
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
    # The valid factorization (h, 1) of h = x0^(2^64), in 128-bit fields.
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
    # The valid factorization (1, (2*x0)^20000), whose printed entries
    # need 6,021 digits.
    power = {"schema": "mfkit/mf-v1", "field": {"type": "Q"}, "nvars": 1, "d": 20000,
             "f": "(2*x0)^20000", "F0_degrees": [0], "F1_degrees": [0],
             "s0": [["1"]], "s1": [["(2*x0)^20000"]]}
    past_digits = "9" * (cli.MAX_DIGITS + 1)
    # The invalid dense factorization of f = x0^2 at rank 256 with
    # every entry x0 (790 KB): s1*s0 forms 256^3 products before it
    # finds row 0 wrong.
    rank = 256
    dense = {"schema": "mfkit/mf-v1", "field": {"type": "Q"}, "nvars": 1, "d": 2,
             "f": "x0^2", "F0_degrees": [1] * rank, "F1_degrees": [0] * rank,
             "s0": [["x0"] * rank] * rank, "s1": [["x0"] * rank] * rank}
    # The trivial factorization (1, f) of f = x0 + ... + x1023, printed,
    # in algebra.MAX_NVARS variables, declaring a 4,000-digit degree: the
    # reader packs f at the width of its terms, 8 bits, not at that of its
    # bound, in fields of 16,384 bits (1,024 keys of 2 MB).
    printed_every = " + ".join(f"x{k}" for k in range(algebra.MAX_NVARS))
    huge_degree = dict(every_variable, d=10**3999, f=printed_every, s1=[[printed_every]])
    # mixed1024: the valid rank-1 factorization (x0 + ... + x1023, x0^200)
    # of their printed product, in algebra.MAX_NVARS variables.  The
    # entries pack at 8 and 16 bits, so the product repacks every key of
    # the sum; with one big-int shift per field that took 0.7 s.
    ring = algebra.QQ, algebra.MAX_NVARS
    product = algebra.parse_poly(printed_every, *ring) * algebra.parse_poly("x0^200", *ring)
    mixed1024 = dict(every_variable, d=201, f=str(product), F0_degrees=[1], F1_degrees=[0],
                     s0=[[printed_every]], s1=[["x0^200"]])
    return {
        "tower": tower, "expansion": expansion, "long_sum": long_sum,
        # long_sum with one more " +" at the end of its f: printed text up
        # to the last term, where the read fails and the text is read from
        # its tokens, which report the error.
        "long_sum_open": dict(long_sum, f=long_sum["f"] + " +"),
        # long_sum with every space removed from its entries, read as
        # fast as the printed one.
        "long_sum_tight": json.loads(json.dumps(long_sum).replace(" ", "")),
        "every_variable": every_variable, "wide": wide, "wider": wider,
        # The invalid (h, 2).
        "wider_twice": dict(wider, s1=[["2"]]),
        "square": square(256), "square_past": square(257), "power": power,
        # power with an entry literal one digit past cli.MAX_DIGITS.
        "literal": dict(power, d=1, f=past_digits + "*x0", s1=[[past_digits + "*x0"]]),
        # The valid (1, ((2*x0)^4095)^4096), whose coefficient needs
        # 5,049,213 digits.
        "budget": dict(power, d=4095 * 4096, f="((2*x0)^4095)^4096",
                       s1=[["((2*x0)^4095)^4096"]]),
        # An entry literal past cli.MAX_DIGITS followed by a bad
        # character: the reader reports the character, not the digit cap.
        "literal_at": dict(power, d=1, f="x0", s1=[[past_digits + "*x0 + @"]]),
        # An s0 entry whose exponent, and one whose variable index, has one
        # digit past cli.MAX_DIGITS: int() alone meets the cap.
        "exponent_digits": dict(power, d=1, f="x0", s0=[["x0^" + past_digits]], s1=[["x0"]]),
        "index_digits": dict(power, d=1, f="x0", s0=[["x" + past_digits]], s1=[["x0"]]),
        "dense": dense, "huge_degree": huge_degree, "mixed1024": mixed1024,
    }


def validating(name: str, expected: int, *fragments: str) -> tuple:
    """The row of the case that validates name.json."""
    return name, ["mf", "validate", f"{name}.json"], expected, fragments


def running(expected: int, *argv: str) -> tuple:
    """The row of the case that runs argv, named by it."""
    return " ".join(argv), list(argv), expected, ()


DIGIT_LIMIT = "Exceeds the limit (300000 digits)"

# (name, argv, expected exit code, stderr fragments), run in this order.
CASES = [
    validating("tower", 2),
    validating("expansion", 2),
    validating("long_sum", 0),
    validating("long_sum_open", 2),
    validating("long_sum_tight", 0),
    validating("every_variable", 0),
    validating("wide", 0),
    validating("wider", 0),
    validating("wider_twice", 2),
    validating("square", 0),
    validating("square_past", 2),
    validating("literal_at", 2, "unexpected character '@'"),
    validating("exponent_digits", 2, DIGIT_LIMIT),
    validating("index_digits", 2, DIGIT_LIMIT),
    running(2, "mf", "validate", "literal.json"),
    # A Shamash term of rank 614,429,672, past MAX_SHAMASH_RANK.
    running(2, "orlov", "shamash", "--n", "30", "--d", "4", "--m", "-15"),
    # 2^30000000, whose 9,030,900 digits are past cli.MAX_DIGITS, and
    # powers of two past bott.MAX_POWER_BITS, which ran out of memory or
    # overflowed.
    running(2, "rho", "point", "--n", "30000000"),
    running(2, "rho", "point", "--n", "100000000000"),
    running(2, "rho", "point", "--n", "9" * 40),
    running(2, "check", "rho", "--n", "100000000000", "--d", "100000000001", "--value", "1"),
    # A Shamash term whose C(n+1, 2) alone passes the rank bound, which
    # summed 10,001 binomials for over 30 s, and the one-degree term at
    # MAX_SHAMASH_RANK, which still answers.
    running(2, "orlov", "shamash", "--n", "20000", "--d", "4", "--m", "-20000"),
    running(0, "orlov", "shamash", "--n", "4194303", "--d", "4", "--m", "-1"),
    # Three Bott queries past bott.MAX_BOTT_N, which ran 7-208 s unbounded.
    running(2, "bott", "restricted", "--n", "1000000", "--d", "1", "--r", "500000",
            "--t", "1000000"),
    running(2, "bott", "vector", "--n", "3000000", "--p", "1000000", "--l", "3000000"),
    running(2, "bott", "eval", "--n", "400000", "--p", "200000", "--q", "0", "--l", "400000"),
    # rho(O_X) at n = d/2 on bott.MAX_RHO_DEGREE, its widest case.
    running(0, "rho", "structure-sheaf", "--n", "32000", "--d", "64000"),
    # Documents whose exponents would pass algebra.MAX_EXPONENT, which
    # exit 2 at once, and documents at that cap, which read back.
    running(2, "mf", "shift", "budget.json"),
    running(0, "mf", "shift", "power.json", "--output", "shifted.json"),
    running(0, "mf", "validate", "shifted.json"),
    running(2, "mf", "shift", "wide.json"),
    running(2, "mf", "shift", "wider.json"),
    running(2, "mf", "fermat", "--pairs", "1", "--half-degree", "524289"),
    running(0, "mf", "fermat", "--pairs", "1", "--half-degree", "524288", "--output", "cap.json"),
    running(0, "mf", "validate", "cap.json"),
    # Each rho query one past its bott bound.
    running(2, "rho", "line-bundle", "--n", "1501", "--d", "2", "--j", "0"),
    running(2, "rho", "line-bundle", "--n", "2", "--d", "10001", "--j", "0"),
    running(2, "rho", "line-bundle", "--n", "2", "--d", "3", "--j", "-10001"),
    running(2, "rho", "structure-sheaf", "--n", "2", "--d", "64001"),
    running(2, "sweep", "rho-structure-sheaf", "--n-max", "2", "--d-max", "1001"),
    running(2, "mf", "validate", "dense.json"),
    validating("huge_degree", 2, "f must be homogeneous of the declared degree d = 1000"),
    validating("mixed1024", 0),
]


def cap():
    # Applied in the child only, before it runs timeout and mfkit.
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def run(name: str, argv: list[str], expected: int, fragments: tuple[str, ...]) -> bool:
    """Run one case, print its exit code, wall time, peak RSS and stderr,
    and return True if it failed."""
    start = time.perf_counter()
    child = subprocess.Popen(["timeout", "60", sys.executable, "-m", "mfkit", *argv],
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                             preexec_fn=cap)
    stderr = child.stderr.read()
    child.stderr.close()
    # The child's own peak RSS, from its rusage through os.wait4, as in
    # ci/large_rank.py.  Its exit code is set on the Popen, which reaped
    # nothing itself, so that it does not warn that the child still runs.
    _, status, usage = os.wait4(child.pid, 0)
    elapsed = time.perf_counter() - start
    code = child.returncode = os.waitstatus_to_exitcode(status)
    print(f"{name}: exit {code} (expected {expected}), {elapsed:.2f} s, "
          f"peak RSS {usage.ru_maxrss / 1024:.0f} MB\n{stderr}")
    return (code != expected or "Traceback" in stderr
            or not all(fragment in stderr for fragment in fragments))


def write_documents() -> None:
    """Write every document into the working directory as name.json."""
    for name, doc in documents().items():
        with open(f"{name}.json", "w") as out:
            json.dump(doc, out)


def main() -> bool:
    """Write the documents into the working directory, run every case and
    return True if any failed."""
    write_documents()
    failed = False
    for case in CASES:
        failed |= run(*case)
    return failed


if __name__ == "__main__":
    # The children run in the temporary directory, so a relative entry
    # such as src is resolved against the directory the script started in.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        entry and os.path.abspath(entry) for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep))
    # The documents this writes stay out of the checkout.
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        failed = main()
    sys.exit(failed)
