"""The program entry ``mfkit.__main__.run``: the one place where a process
ends.  It gives the bytes and exit codes of ``cli.main``, reports a failed
final flush of stdout like any other write failure, and freezes the
collector's objects only after the command has returned."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mfkit import mf
from mfkit.cli import COMMANDS, main, mf_to_document
from test_cli import GOLDEN_LEAVES, golden_inputs

SRC = Path(__file__).resolve().parent.parent / "src"

# The entry before it froze: cli.main's code handed to sys.exit.
OLD_ENTRY = ["-c", "import sys; from mfkit.cli import main; sys.exit(main())"]
NEW_ENTRY = ["-m", "mfkit"]


def child_env() -> dict:
    # Buffered stdout, as a plain interpreter has it: with PYTHONUNBUFFERED
    # every write reaches fd 1 inside the command and none is left for the
    # final flush.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for name in ("MFKIT_THREADS", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    return env


def start(entry, argv, cwd, **kwargs) -> subprocess.Popen:
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.Popen([sys.executable, *entry, *argv], cwd=cwd, env=child_env(), **kwargs)


def python(entry, argv, cwd, **kwargs) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of one child."""
    with start(entry, argv, cwd, **kwargs) as child:
        out, err = child.communicate(timeout=120)
    return child.returncode, out, err


# One command of each of the 24 leaves, once with its text on stdout and
# once with its JSON report on stdout and its artifact (or, for a leaf
# without one, its report) in a file; then a usage error, help and a
# malformed document.
LEAVES = [case.split() for case in GOLDEN_LEAVES[:24]]
DIFFERENTIAL = LEAVES + [argv + ["--json", "--output", "out.txt"] for argv in LEAVES]
DIFFERENTIAL += [["mf", "fermat", "--pairs", "x", "--half-degree", "2"],
                 ["mf", "--help"],
                 ["mf", "validate", "junk.json"]]


def test_differential_cases_cover_every_leaf():
    leaves = {f"{row.group} {row.name}" for row in COMMANDS}
    assert {" ".join(argv[:2]) for argv in LEAVES} == leaves


@pytest.mark.parametrize("closed", [None, 1, 2], ids=["open", "closed-stdout", "closed-stderr"])
def test_entry_matches_old_entry(tmp_path, closed):
    """Exit code, stdout, stderr and artifact bytes of ``python -m mfkit``
    equal those of the entry that exited with ``cli.main``'s code."""
    cases = DIFFERENTIAL if closed is None else [["mf", "shift", "g.json"], ["rho", "point"],
                                                 ["check", "rho", "--n", "4", "--d", "5",
                                                  "--value", "3"]]
    preexec = None if closed is None else (lambda: os.close(closed))
    for entry in (OLD_ENTRY, NEW_ENTRY):
        (tmp_path / entry[0]).mkdir()
        golden_inputs(tmp_path / entry[0])
    for argv in cases:
        # The two entries run side by side, each in its own directory.
        children = []
        for entry in (OLD_ENTRY, NEW_ENTRY):
            (tmp_path / entry[0] / "out.txt").unlink(missing_ok=True)
            children.append(start(entry, argv, tmp_path / entry[0], preexec_fn=preexec))
        seen = []
        for entry, child in zip((OLD_ENTRY, NEW_ENTRY), children):
            with child:
                out, err = child.communicate(timeout=120)
            written = tmp_path / entry[0] / "out.txt"
            seen.append((child.returncode, out, err,
                         written.read_bytes() if written.exists() else None))
        assert seen[0] == seen[1], argv


FULL = (2, b"error [mfkit.cli]: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["rho", "point", "--n", "8"],
                                  ["mf", "fermat", "--pairs", "2", "--half-degree", "2"]])
def test_final_flush_to_full_device_exits_2(tmp_path, argv):
    # The whole output waits in stdout's buffer until the final flush.
    with open("/dev/full", "wb") as full:
        code, _, err = python(NEW_ENTRY, argv, tmp_path, stdout=full)
    assert (code, err) == FULL


def closed_pipe(argv, cwd) -> tuple[int, bytes]:
    # The reader closes its end before the child writes.
    read, write = os.pipe()
    os.close(read)
    try:
        code, _, err = python(NEW_ENTRY, argv, cwd, stdout=write)
    finally:
        os.close(write)
    return code, err


def test_final_flush_to_closed_pipe_exits_2(tmp_path):
    broken = (2, b"error [mfkit.cli]: [Errno 32] Broken pipe\n")
    assert closed_pipe(["rho", "point", "--n", "8"], tmp_path) == broken
    # A sweep larger than the buffer fails inside the command, as before.
    assert closed_pipe(["sweep", "rho-structure-sheaf", "--n-max", "100", "--d-max", "200"],
                       tmp_path) == broken


@pytest.mark.parametrize("argv", [["mf", "validate", "g.json"], ["rho", "point", "--n", "3"]])
def test_main_in_process_does_not_freeze(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text(json.dumps(mf_to_document(mf.fermat(2, 2))))
    frozen = gc.get_freeze_count()
    assert main(argv) == 0
    assert gc.get_freeze_count() == frozen


FREEZE_CHILD = """\
import gc, sys
from mfkit.__main__ import run
sys.argv = ["mfkit", "rho", "point", "--n", "3"]
try:
    run()
except SystemExit as exc:
    print(exc.code, gc.get_freeze_count() > 0)
"""


def test_entry_freezes_before_exit(tmp_path):
    assert python(["-S", "-c", FREEZE_CHILD], [], tmp_path) == (0, b"8\n0 True\n", b"")
