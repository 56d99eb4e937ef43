"""What a command loads: the package resolves its names on access, and
the CLI imports and builds only what the command runs."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mfkit
from mfkit import algebra, mf
from mfkit.cli import COMMANDS, GROUPS, _UsageError, build_parser, main, mf_to_document
from test_cli import GOLDEN, GOLDEN_USAGE_ERRORS

SRC = Path(__file__).resolve().parent.parent / "src"

# The names that mfkit/__init__ imported from each module before it
# resolved them on access.
OLD_EXPORTS = {
    "algebra": ["GF", "QI", "QQ", "Field", "FpElement", "GaussianRational", "NEG_INFINITY",
                "ParseError", "Polynomial", "degree_info", "parse_poly"],
    "graded": ["DegreeMultiset", "HomogeneousMatrix", "compose"],
    "mf": ["BettiTable", "MatrixFactorization", "betti", "direct_sum", "dual", "fermat",
           "is_reduced", "is_valid", "presentation_equivalent", "rank_one", "reduce",
           "require_valid", "shift", "tensor", "trivial_f_one", "trivial_one_f", "twist",
           "validate", "zero_mf"],
    "bott": ["CohomologyVector", "binom", "bott_vector", "restricted_bott", "rho_line_bundle",
             "rho_point", "rho_structure_sheaf"],
    "orlov": ["CohomologyTable", "HypersurfaceContext", "Phi0Descriptor", "Verdict",
              "betti_to_table", "check_bgs", "check_rho", "dual_table", "euclid_split",
              "phi0_residue", "rho_of_mf", "rho_of_table", "shamash_degrees", "table_to_betti"],
}

# Run cli.main in a fresh interpreter without site (so that nothing but
# the command loads modules), then print the exit code and the loaded
# module names.
CHILD = """\
import sys
from mfkit import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stdout.write(f"\\n{code} " + " ".join(sorted(sys.modules)) + "\\n")
"""

HEAVY = {"dataclasses", "inspect", "fractions", "json", "hashlib",
         "mfkit.algebra", "mfkit.graded", "mfkit.mf"}


def child_run(*argv, cwd=None, expected=0) -> tuple[str, set[str]]:
    """The command's stdout and the modules loaded, in the -S child."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("MFKIT_THREADS", None)
    done = subprocess.run([sys.executable, "-S", "-c", CHILD, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    output, last = done.stdout[:-1].rsplit("\n", 1)
    code, *modules = last.split()
    assert (done.returncode, code) == (0, str(expected)), done.stderr
    return output, set(modules)


def loaded_modules(*argv, cwd=None, expected=0) -> set[str]:
    return child_run(*argv, cwd=cwd, expected=expected)[1]


ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv", [
    ("rho", "point", "--n", "3"),
    ("bott", "eval", "--n", "3", "--p", "1", "--q", "0", "--l", "2"),
    ("orlov", "shamash", "--n", "3", "--d", "4", "--m", "-2"),
])
def test_scalar_commands_load_no_algebra(argv):
    modules = loaded_modules(*argv)
    assert "mfkit.bott" in modules
    assert not HEAVY & modules


@pytest.mark.parametrize("argv", [
    ("rho", "point", "--n", "3"),
    ("bott", "eval", "--n", "3", "--p", "1", "--q", "0", "--l", "2"),
    ("orlov", "phi0", "--n", "3", "--d", "4", "--l", "-2"),
])
def test_scalar_commands_load_no_typing(argv):
    assert "typing" not in loaded_modules(*argv)


def test_validate_loads_no_dataclasses(tmp_path):
    (tmp_path / "g.json").write_text(json.dumps(mf_to_document(mf.fermat(2, 2))))
    modules = loaded_modules("mf", "validate", "g.json", cwd=tmp_path)
    assert {"mfkit.algebra", "mfkit.mf"} <= modules
    assert not {"dataclasses", "inspect"} & modules
    assert "typing" not in modules


# What a command loads only for rationals (fractions, and the decimal and
# numbers modules it imports) or for inputs past cli.BUILTIN_SHA256_BELOW
# (hashlib, with OpenSSL's _hashlib and _blake2).
RATIONALS = {"fractions", "decimal", "numbers"}
HASHLIB = {"hashlib", "_hashlib", "_blake2"}


# A reduced Fermat document has integral coefficients, and reduce splits
# nothing off it, so over QQ(i) too no Fraction is built.
@pytest.mark.parametrize("field", [algebra.GF(13), algebra.QI], ids=str)
@pytest.mark.parametrize("argv", [("mf", "validate"), ("mf", "reduce"), ("rho", "from-mf"),
                                  ("orlov", "translate")])
def test_integral_document_commands_load_no_fractions_or_hashlib(tmp_path, argv, field):
    (tmp_path / "g.json").write_text(json.dumps(mf_to_document(mf.fermat(2, 2, field=field))))
    modules = loaded_modules(*argv, "g.json", cwd=tmp_path)
    assert {"mfkit.algebra", "mfkit.mf"} <= modules
    assert not (RATIONALS | HASHLIB) & modules


def split_first_fermat():
    """The QQ(i) rank-4 tensor of (x0^2 + i*x1^2, x0^2 - i*x1^2) plus its
    trivial factor (1, f0) with (x2^2 + i*x3^2, x2^2 - i*x3^2): the unit
    entries 1 and -1 that reduce splits off first."""
    def factor(k):
        u, v = (algebra.parse_poly(f"x{k}^2 {sign} i*x{k + 1}^2", algebra.QI, 4) for sign in "+-")
        return mf.rank_one(u * v, u, v)

    first = factor(0)
    return mf.tensor(mf.direct_sum(first, mf.trivial_one_f(first.f)), factor(2))


# What reduce printed for it when the pivot inverse went through Field.inv.
SPLIT_FIRST_REDUCED = {
    "schema": "mfkit/mf-v1", "field": {"type": "Qi"}, "nvars": 4,
    "f": "x0^4 + x1^4 + x2^4 + x3^4", "d": 4, "F0_degrees": [4, 4], "F1_degrees": [2, 2],
    "s0": [["x0^2 + (0 + 1*i)*x1^2", "x2^2 + (0 - 1*i)*x3^2"],
           ["x2^2 + (0 + 1*i)*x3^2", "-x0^2 + (0 + 1*i)*x1^2"]],
    "s1": [["x0^2 + (0 - 1*i)*x1^2", "x2^2 + (0 - 1*i)*x3^2"],
           ["x2^2 + (0 + 1*i)*x3^2", "-x0^2 + (0 - 1*i)*x1^2"]],
}


def test_reduce_over_gaussian_units_loads_no_fractions(tmp_path):
    # The pivots are +-1, so -1/u is built from the raw unit in ints.
    F = split_first_fermat()
    (tmp_path / "rs.json").write_text(json.dumps(mf_to_document(F)))
    output, modules = child_run("mf", "reduce", "rs.json", cwd=tmp_path)
    assert output == json.dumps(SPLIT_FIRST_REDUCED, indent=2) + "\n"
    assert not (RATIONALS | HASHLIB) & modules


def split_first_monomials():
    """The QQ rank-4 tensor of (x0, x1) plus its trivial factor (1, x0*x1)
    with (x2, x3): the unit entries 1 and -1 that reduce splits off first."""
    x = [algebra.Polynomial.variable(algebra.QQ, 4, k) for k in range(4)]
    first = mf.rank_one(x[0] * x[1], x[0], x[1])
    return mf.tensor(mf.direct_sum(first, mf.trivial_one_f(first.f)),
                     mf.rank_one(x[2] * x[3], x[2], x[3]))


# What reduce printed for it when the pivot inverse went through Field.inv.
SPLIT_FIRST_MONOMIALS_REDUCED = {
    "schema": "mfkit/mf-v1", "field": {"type": "Q"}, "nvars": 4,
    "f": "x0*x1 + x2*x3", "d": 2, "F0_degrees": [2, 2], "F1_degrees": [1, 1],
    "s0": [["x0", "x3"], ["x2", "-x1"]],
    "s1": [["x1", "x3"], ["x2", "-x0"]],
}


def test_reduce_over_rational_units_loads_no_fractions(tmp_path):
    # The pivots are +-1 over QQ, whose inverses are integers.
    F = split_first_monomials()
    (tmp_path / "rs.json").write_text(json.dumps(mf_to_document(F)))
    output, modules = child_run("mf", "reduce", "rs.json", cwd=tmp_path)
    assert output == json.dumps(SPLIT_FIRST_MONOMIALS_REDUCED, indent=2) + "\n"
    assert not (RATIONALS | HASHLIB) & modules


# Every coefficient these build is an integer: 1, i and the variables.
@pytest.mark.parametrize("case", ["mf fermat --pairs 2 --half-degree 2",
                                  "mf fermat --pairs 1 --half-degree 2 --solo"])
def test_fermat_over_gaussian_rationals_loads_no_fractions(case):
    output, modules = child_run(*case.split())
    assert hashlib.sha256(output.encode()).hexdigest() == GOLDEN[f"{case} [text]"]["stdout"]
    assert not RATIONALS & modules


CONSTRUCTORS = """\
import sys
from mfkit import algebra, graded, mf
for field in (algebra.QQ, algebra.QI):
    f = algebra.parse_poly("x0^2 + x1^2", field, 2)
    mf.trivial_one_f(f)
    mf.trivial_f_one(f)
    graded.HomogeneousMatrix.identity(field, 2, graded.DegreeMultiset((0, 1)))
print("fractions" in sys.modules)
"""


def test_constructors_of_integral_factorizations_load_no_fractions():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-S", "-c", CONSTRUCTORS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


HALF = """{"schema": "mfkit/mf-v1", "field": {"type": "Q"}, "nvars": 1, "d": 2, \
"f": "x0^2", "F0_degrees": [1], "F1_degrees": [0], "s0": [["1/2*x0"]], "s1": [["2*x0"]]}"""

HALF_VALIDATED = """\
operation: mf validate
input half.json: sha256=39cb4ed0a59153abc5005c9a5bf2a675bcf64a276d78b5b22a4fe97192576972
rank = 1
d = 2
nvars = 1
field = QQ
F0_degrees = [1]
F1_degrees = [0]
reduced = true
valid = true
"""


def test_a_rational_entry_loads_fractions_and_prints_as_before(tmp_path):
    (tmp_path / "half.json").write_text(HALF)
    output, modules = child_run("mf", "validate", "half.json", cwd=tmp_path)
    assert output == HALF_VALIDATED
    assert "fractions" in modules
    assert not HASHLIB & modules


def test_package_names_resolve():
    for module, names in OLD_EXPORTS.items():
        assert getattr(mfkit, module) is sys.modules[f"mfkit.{module}"]
        for name in names:
            assert getattr(mfkit, name) is getattr(sys.modules[f"mfkit.{module}"], name), name
    every = {name for names in OLD_EXPORTS.values() for name in names}
    namespace = {}
    exec("from mfkit import *", namespace)
    assert every | set(OLD_EXPORTS) == set(namespace) - {"__builtins__"}
    assert every | set(OLD_EXPORTS) <= set(dir(mfkit))
    with pytest.raises(AttributeError, match="no_such_name"):
        mfkit.no_such_name


def test_package_names_follow_a_rebound_attribute(monkeypatch):
    sentinel = object()
    monkeypatch.setattr(mf, "fermat", sentinel)
    assert mfkit.fermat is sentinel


def parser_output(parser, argv) -> str:
    """What parsing argv prints or raises: a --help text or a usage error."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            parser.parse_args(argv)
        except _UsageError as exc:
            return f"usage error: {exc}"
        except SystemExit:
            pass
    return out.getvalue()


@pytest.mark.parametrize("group", list(GROUPS))
def test_group_parser_matches_full_tree(group):
    cases = [[group, "--help"], [group], [group, "no-such-command"]]
    cases += [[group, row.name, "--help"] for row in COMMANDS if row.group == group]
    cases += [[group, row.name] for row in COMMANDS if row.group == group]
    full, alone = build_parser(), build_parser(group)
    for argv in cases:
        assert parser_output(alone, argv) == parser_output(full, argv), argv


# One well-formed command line per group.
@pytest.mark.parametrize("argv", [
    ("mf", "fermat", "--pairs", "1", "--half-degree", "1", "--json"),
    ("bott", "eval", "--n", "3", "--p", "1", "--q", "0", "--l", "-2"),
    ("rho", "point", "--n", "3", "--seed", "7"),
    ("orlov", "shamash", "--n", "3", "--d", "4", "--m", "-2"),
    ("check", "rho", "--n", "3", "--d", "4", "--value", "4"),
    ("sweep", "rho-structure-sheaf", "--n-max", "2", "--d-max", "4"),
])
def test_well_formed_commands_load_no_argparse(argv):
    assert not ARGPARSE & loaded_modules(*argv)


@pytest.mark.parametrize("argv, expected", [
    (("--help",), 0), (("mf", "--help"), 0), (("rho", "point", "--help"), 0),
    (("rho", "point"), 1), (("rho", "point", "--n=3"), 0),
])
def test_help_usage_errors_and_equals_forms_load_argparse(argv, expected):
    assert "argparse" in loaded_modules(*argv, expected=expected)


def main_output(argv) -> tuple[int, str, str]:
    """cli.main's exit code, stdout and stderr, a --help exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    *([row.group, row.name, "--help"] for row in COMMANDS),
    *([row.group, row.name] for row in COMMANDS),
    *(case.split() for case in GOLDEN_USAGE_ERRORS),
], ids=" ".join)
def test_main_prints_what_argparse_prints(argv):
    # The --help texts and usage errors of the running interpreter's argparse.
    expected = parser_output(build_parser(), argv)
    if expected.startswith("usage error: "):
        assert main_output(argv) == (1, "", expected.removeprefix("usage error: ") + "\n")
    else:
        assert main_output(argv) == (0, expected, "")
