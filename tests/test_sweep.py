"""The rho(O_X) sweep: its rows against single cells, and its CSV
against the per-cell formatting it replaced."""

import hashlib

from hypothesis import example, given
from hypothesis import strategies as st

from mfkit import bott
from mfkit.cli import main


@given(st.integers(-2, 60), st.integers(-2, 60))
@example(5, 0)
@example(5, 1)
@example(5, 2)
@example(1, 2)
@example(60, 60)
@example(59, 60)
@example(1, 60)
def test_rows_match_single_cells(n_max, d_max):
    expected = [(n, d, bott.rho_structure_sheaf(n, d))
                for n in range(1, n_max + 1) for d in range(n + 1, d_max + 1)]
    rows = list(bott.rho_sweep_rows(n_max, d_max))
    assert [n for n, _ in rows] == list(range(1, min(n_max, d_max - 1) + 1))
    assert [(n, d, rho) for n, rhos in rows for d, rho in enumerate(rhos, n + 1)] == expected


def reference_csv(n_max, d_max):
    # One f-string per cell, each rho computed on its own.
    lines = ["n,d,a,e,rho,bound,pass\n"]
    for n in range(1, n_max + 1):
        e = n // 2
        bound = 2 ** (e + 1)
        for d in range(n + 1, d_max + 1):
            rho = bott.rho_structure_sheaf(n, d)
            lines.append(f"{n},{d},{n + 1 - d},{e},{rho},{bound},"
                         f"{'true' if rho >= bound else 'false'}\n")
    return "".join(lines)


def sweep(capsys, n_max, d_max, *extra):
    code = main(["sweep", "rho-structure-sheaf", "--n-max", str(n_max), "--d-max", str(d_max),
                 *extra])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return captured.out


def test_sweep_prints_the_per_cell_csv(capsys, tmp_path):
    for n_max, d_max in ((0, 10), (5, 2), (1, 2), (7, 7), (12, 30), (40, 41)):
        assert sweep(capsys, n_max, d_max) == reference_csv(n_max, d_max), (n_max, d_max)
    path = tmp_path / "sweep.csv"
    assert sweep(capsys, 12, 30, "--output", str(path)) == ""
    assert path.read_text(encoding="utf-8") == reference_csv(12, 30)
    # The benchmark's grid, whose stdout is also pinned by digest.
    text = sweep(capsys, 100, 200)
    assert text == reference_csv(100, 200)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0ccc6399e40fdde2b3437ece659d362e38838824a21708195e064555a8a22f9d")
