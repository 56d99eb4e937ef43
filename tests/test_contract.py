"""The robustness contract of ``ci/``, run in tier-1.

Each row of ``ci/hostile_inputs.py``'s ``CASES`` is one test, run by that
script's own ``run``: ``python -m mfkit`` in a child under ``timeout 60``
with RLIMIT_AS set to 1 GiB, which must exit with the row's code, with
each of its stderr fragments and without a traceback.  One more test runs
``ci/large_rank.py``'s ``main``: its four rank-1024 commands and its two
pinned digests.  The children run in a temporary directory, so their
PYTHONPATH is the absolute directory that holds the ``mfkit`` under test.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import mfkit

CI = Path(__file__).resolve().parents[1] / "ci"
SOURCE = str(Path(mfkit.__file__).resolve().parents[1])


def script(name):
    # The module of ci/name.py, imported without running its __main__ part.
    spec = importlib.util.spec_from_file_location(name, CI / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


hostile = script("hostile_inputs")
large_rank = script("large_rank")


@pytest.fixture(scope="module")
def hostile_documents(tmp_path_factory):
    """A directory that holds every document of the hostile cases."""
    work = tmp_path_factory.mktemp("hostile")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(work)
        hostile.write_documents()
    return work


def outputs(argv):
    # The files that a case's argv writes.
    return [argv[k + 1] for k, arg in enumerate(argv) if arg == "--output"]


@pytest.mark.parametrize("index", range(len(hostile.CASES)), ids=[case[0] for case in hostile.CASES])
def test_hostile_case(hostile_documents, monkeypatch, index):
    monkeypatch.chdir(hostile_documents)
    monkeypatch.setenv("PYTHONPATH", SOURCE)
    case = hostile.CASES[index]
    # A case that reads what an earlier case writes runs that case first
    # where its file is missing, as when it runs alone.
    for earlier in hostile.CASES[:index]:
        if any(name in case[1] and not Path(name).exists() for name in outputs(earlier[1])):
            assert not hostile.run(*earlier)
    assert not hostile.run(*case)


def test_large_rank_commands_and_digests(tmp_path, monkeypatch):
    # main exits nonzero (SystemExit) on the first failing command or digest.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", SOURCE)
    large_rank.main()
