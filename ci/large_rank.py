"""Rank 1024: build the Fermat factorization fermat(11, 2) over GF(13),
validate it, shift it and validate the shift, each through
``python -m mfkit``; print each command's wall time and peak RSS, and
check both documents against their pinned SHA-256 digests.  Exits
nonzero on the first failing command or digest.

Run from the root of a checkout::

    PYTHONPATH=src python ci/large_rank.py

The script works in a temporary directory, removed on exit, so it makes
each PYTHONPATH entry absolute for its children first; a relative or an
absolute PYTHONPATH works alike.
"""
import hashlib, os, subprocess, sys, tempfile, time


def main() -> None:
    """Run the four commands and check both documents in the working
    directory; exit nonzero on the first failure."""
    # Each child's own peak RSS, from its rusage through os.wait4:
    # RUSAGE_CHILDREN keeps the maximum over all children so far.  The
    # exit code is set on the Popen, which reaped nothing itself, so that
    # it does not warn that the child still runs.
    for argv in (["mf", "fermat", "--pairs", "11", "--half-degree", "2",
                  "--field", "Fp", "--p", "13", "--output", "r1024.json"],
                 ["mf", "validate", "r1024.json", "--json"],
                 ["mf", "shift", "r1024.json", "--output", "s1024.json"],
                 ["mf", "validate", "s1024.json", "--json"]):
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
    # The goldens never print a document this large, so pin both
    # artifacts by digest.
    for name, digest in (
            ("r1024.json", "0d948a363a1b4f65e67fe709dd3c3c4486ac0f22b518ef150f5113fce2cfa0b9"),
            ("s1024.json", "f5f3d6e2474d8ba3ba822c77f262ebc60aa69896833bfe5aef4f53ef1aee87c8")):
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
