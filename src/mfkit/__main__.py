"""The program entry: ``python -m mfkit`` and the installed ``mfkit`` script.

``run`` is the one place where an mfkit process ends.  It runs
``cli.main`` on ``sys.argv``, flushes stdout, calls ``gc.freeze()`` and
exits with the command's code.  ``cli.main`` itself never freezes, so
tests, the benchmark's in-process passes and library callers keep their
collector as it was.

Why the freeze: once the command has returned, the interpreter's
shutdown runs full garbage collections over every object the process
still holds (what ``site`` imported, mfkit's modules, the document).
``gc.freeze()`` moves them all to the permanent generation, which no
later collection visits; the interpreter still flushes, runs the atexit
hooks and frees the memory as before.  On 2 vCPUs under Python 3.11.7,
pinned to one CPU with bytecode compiled, the median of 150 alternating
runs of ``rho point --n 3`` drops from 44.2 to 38.8 ms.  A bare
``sys.exit(0)`` takes about 6 ms more than ending at once with the
``_exit`` system call.

Rejected, measured:
- ending with the ``_exit`` system call after a flush saves a further
  1.9 ms (38.8 to 36.9 ms above), but it skips the atexit hooks, so
  coverage loses its data and ``python -m cProfile -m mfkit`` its
  report;
- switching the collector off for the whole command frees no
  ``Polynomial._neg`` pair (the two polynomials link each other, a
  cycle only the collector frees), so peak memory would hang on how
  many negations a command drops: one measurement of a rank-1024
  ``mf validate`` saw 66.3 MB against 61.8 MB, though the GF(13) Fermat
  document of ``ci/large_rank.py`` shows 61.7 MB both ways;
- a second ``gc.freeze()`` before ``main`` gains nothing: ``mf validate``
  on the rank-32 Fermat document takes 43.8 ms either way (median of
  60) and on the rank-1024 one 386-387 ms (median of 6).

A failed flush of stdout (a full disk, a reader that has closed the
pipe) is reported like every other write failure: one ``error`` line on
stderr and exit 2.  The unwritten bytes then go to ``os.devnull``, so
the interpreter's own exit flush cannot fail again and turn the 2 into
120.
"""
import gc
import os
import sys

from . import cli


def run() -> None:
    code = cli.main()
    # sys.stdout is None when the interpreter started with fd 1 closed.
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            cli._diagnose(f"error [mfkit.cli]: {exc}")
            code = 2
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
