"""Rank 1024: build the Fermat factorization fermat(11, 2) over GF(13),
validate it, shift it and validate the shift; then tensor fermat(9, 2)
with a rank-2 factorization of x0^4 + x1^4 over GF(13), the trivial
summand (1, f) beside (x0^2 + 8*x1^2, x0^2 + 5*x1^2), and reduce the
rank-1024 product, whose 512 splits leave rank 512.  Each command runs
through ``python -m mfkit``; print each one's wall time and peak RSS,
and check the four documents against their pinned SHA-256 digests.
Exits nonzero on the first failing command or digest.

Run from the root of a checkout::

    PYTHONPATH=src python ci/large_rank.py

The script works in a temporary directory, removed on exit, so it makes
each PYTHONPATH entry absolute for its children first; a relative or an
absolute PYTHONPATH works alike.
"""
import hashlib, json, os, subprocess, sys, tempfile, time

# The rank-2 factor; (x0^2 + 8*x1^2)(x0^2 + 5*x1^2) = x0^4 + x1^4 modulo 13.
RANK_TWO = {"schema": "mfkit/mf-v1", "field": {"type": "Fp", "p": 13}, "nvars": 18,
            "f": "x0^4 + x1^4", "d": 4, "F0_degrees": [0, 2], "F1_degrees": [0, 0],
            "s0": [["0", "x0^2 + 8*x1^2"], ["1", "0"]],
            "s1": [["0", "x0^4 + x1^4"], ["x0^2 + 5*x1^2", "0"]]}


def main() -> None:
    """Write the rank-2 document, run the seven commands and check the
    four documents in the working directory; exit nonzero on the first
    failure."""
    with open("a.json", "w") as handle:
        json.dump(RANK_TWO, handle)
    # Each child's own peak RSS, from its rusage through os.wait4:
    # RUSAGE_CHILDREN keeps the maximum over all children so far.  The
    # exit code is set on the Popen, which reaped nothing itself, so that
    # it does not warn that the child still runs.
    for argv in (["mf", "fermat", "--pairs", "11", "--half-degree", "2",
                  "--field", "Fp", "--p", "13", "--output", "r1024.json"],
                 ["mf", "validate", "r1024.json", "--json"],
                 ["mf", "shift", "r1024.json", "--output", "s1024.json"],
                 ["mf", "validate", "s1024.json", "--json"],
                 ["mf", "fermat", "--pairs", "9", "--half-degree", "2",
                  "--field", "Fp", "--p", "13", "--output", "b.json"],
                 ["mf", "tensor", "a.json", "b.json", "--output", "t.json"],
                 ["mf", "reduce", "t.json", "--json", "--output", "r.json"]):
        start = time.perf_counter()
        child = subprocess.Popen(["timeout", "600", sys.executable, "-m", "mfkit", *argv],
                                 stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        elapsed = time.perf_counter() - start
        code = child.returncode = os.waitstatus_to_exitcode(status)
        print(f"{' '.join(argv)}: exit {code}, {elapsed:.2f} s, "
              f"peak RSS {usage.ru_maxrss / 1024:.0f} MB")
        if code:
            sys.exit(code)
    # The goldens never print a document this large, so pin the
    # artifacts by digest.
    for name, digest in (
            ("r1024.json", "0d948a363a1b4f65e67fe709dd3c3c4486ac0f22b518ef150f5113fce2cfa0b9"),
            ("s1024.json", "f5f3d6e2474d8ba3ba822c77f262ebc60aa69896833bfe5aef4f53ef1aee87c8"),
            ("t.json", "2029b8c449b13f90d9a67c11efd602f77640e3b41a4ff0a0b430ae4e2e22ed90"),
            ("r.json", "937fc54f0e92a06744493dbe07890a50e67d4eefd9c05fab6108f1fd6549735c")):
        with open(name, "rb") as handle:
            got = hashlib.sha256(handle.read()).hexdigest()
        print(f"{name}: sha256 {got}")
        if got != digest:
            sys.exit(f"{name}: sha256 {got}, expected {digest}")


if __name__ == "__main__":
    # The children run in the temporary directory, so a relative entry
    # such as src is resolved against the directory the script started in.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        entry and os.path.abspath(entry) for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep))
    # The documents this writes stay out of the checkout.
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        main()
