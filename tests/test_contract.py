"""The scripts of ``ci/``, run in tier-1: the robustness contract and
the code-line count.

Each row of ``ci/hostile_inputs.py``'s ``CASES`` is one test, run by that
script's own ``run``: ``python -m mfkit`` in a child under ``timeout 60``
with RLIMIT_AS set to 1 GiB, which must exit with the row's code, with
each of its stderr fragments and without a traceback.  One more test runs
``ci/large_rank.py``'s ``main``: its seven commands, which build,
validate, shift, tensor and reduce factorizations of rank 1024, and its
four pinned digests.  The children run in a temporary directory, so their
PYTHONPATH is the absolute directory that holds the ``mfkit`` under test.
The last tests run ``ci/code_lines.py`` on a fixed source whose code
lines are known.
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
code_lines = script("code_lines")


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


# Six code lines: the import, the class and def lines, both lines of the
# string that is no docstring, and the return.  Docstrings, comments and
# blank lines are not counted.
COUNTED = '''\
"""Module docstring,
on two lines."""

import os  # a comment


class Shape:
    """Class docstring."""

    # A comment line.

    def area(self):
        """Function
        docstring."""
        text = """not a
docstring"""
        return text
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    assert code_lines.code_lines(COUNTED) == 6


def test_code_lines_total_is_the_sum_of_the_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text(COUNTED)
    (tmp_path / "b.py").write_text("x = 1\n\ny = [\n    2,\n]\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    code_lines.main(str(tmp_path))
    assert capsys.readouterr().out == "     6 a.py\n     4 b.py\n    10 total\n"
