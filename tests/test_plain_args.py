"""The plain command-line reader against argparse.

``cli._plain_args`` reads a well-formed command line from ``COMMANDS``
without argparse; anything else it leaves to ``build_parser``.  On every
command line it must return None or the namespace that
``build_parser().parse_args`` returns, key for key.  The command lines
drawn are each leaf's well-formed ones, changed at most once: a flag's
value replaced by another token or left out (empty, negative,
underscored, non-ASCII-digit and over-cap integers among them), a token
inserted (a help or ``--`` token, a flag of this or another leaf, a
``=`` form, a prefix of a flag, an empty string or an extra file), a
token dropped, or the group and leaf replaced.
"""

import contextlib
import io
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfkit.cli import (_COMMON_OPTIONS, COMMANDS, GROUPS, MAX_DIGITS, _plain_args, _UsageError,
                       build_parser)
from test_cli import GOLDEN_LEAVES, GOLDEN_MODES

EVERY_FLAG = sorted({"--json", "--output", "--seed", "--help", "-h"}
                    | {flag for row in COMMANDS for flag in row.ints}
                    | {flag for row in COMMANDS for flag, _ in row.options})

# Values that int(), argparse or both read in a way of their own.
VALUES = ["0", "3", "-2", "-0", "007", "+5", " 7", "7 ", "1_000", "-1_000", "-0_1", "1__0",
          "٣", "-٣", "-١٢", "-𝟘", "1.5", "-.5", "-1e3", "0x10", "x", "", "-", "--", "-x",
          "Qi", "Fp", "qi", "g.json", "-g.json", "a=b", "9" * 5000, "-" + "9" * 5000,
          "9" * (MAX_DIGITS + 1), "-" + "9" * (MAX_DIGITS + 1)]


PARSER = build_parser()


@contextlib.contextmanager
def digit_cap():
    # The cap that cli.main reads every command line under.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_DIGITS)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def both(argv):
    """vars() of what _plain_args and argparse read from argv; None where
    _plain_args defers, or where argparse exits or reports a usage error."""
    with digit_cap():
        plain = _plain_args(argv)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                parsed = vars(PARSER.parse_args(argv))
            except (_UsageError, SystemExit):
                parsed = None
    return None if plain is None else vars(plain), parsed


def plain_value(keywords):
    """A value that the flag takes, as the tokens that follow the flag."""
    if keywords.get("action") == "store_true":
        return st.just([])
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"]).map(lambda v: [v])
    if keywords.get("type") is int:
        return st.sampled_from(["0", "3", "-2", "17"]).map(lambda v: [v])
    return st.sampled_from(["out.txt", "g.json"]).map(lambda v: [v])


def leaf_strategies(row):
    options = {**dict(_COMMON_OPTIONS), **{flag: {"type": int} for flag in row.ints},
               **dict(row.options)}
    own = list(options)
    value = st.sampled_from(VALUES)
    hostile = st.one_of(
        st.builds(lambda flag: [flag], st.sampled_from(own + EVERY_FLAG + ["--"])),
        st.builds(lambda flag, v: [f"{flag}={v}"], st.sampled_from(own), value),
        st.builds(lambda flag, k: [flag[:k]], st.sampled_from(own), st.integers(1, 8)),
        st.builds(lambda v: [v], st.sampled_from(["g.json", "t.json", "", "-", "-3", "Qi"])),
    )
    return (row, {flag: plain_value(keywords) for flag, keywords in options.items()},
            st.lists(st.sampled_from(own), unique=True, max_size=3),
            st.sampled_from([flag for flag in own if options[flag].get("action") != "store_true"]),
            hostile)


# Built once: hypothesis validates a strategy on its first draw.
LEAVES = [leaf_strategies(row) for row in COMMANDS]
ANY_GROUP = st.sampled_from(list(GROUPS))
ANY_VALUE = st.sampled_from([[v] for v in VALUES] + [[]])


@st.composite
def command_lines(draw):
    """A leaf's well-formed command line, changed at most once: one flag
    given any value or none, hostile tokens inserted, a token dropped, or
    the group and leaf replaced."""
    row, values, flags, valued, hostile = draw(st.sampled_from(LEAVES))
    chunks = {flag: [flag, *draw(values[flag])] for flag in (*row.ints, *draw(flags))}
    change = draw(st.sampled_from(["none", "value", "value", "insert", "drop", "head"]))
    if change == "value":
        flag = draw(valued)
        chunks[flag] = [flag, *draw(ANY_VALUE)]
    ordered = draw(st.permutations([["g.json"] for _ in row.files] + list(chunks.values())))
    argv = [row.group, row.name] + [token for chunk in ordered for token in chunk]
    if change == "insert":
        at = draw(st.integers(2, len(argv)))
        argv[at:at] = draw(hostile)
    elif change == "drop":
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif change == "head":
        argv[:2] = draw(st.sampled_from([
            [row.group], [row.name, row.group], [row.group, row.name[:-1]],
            [draw(ANY_GROUP), row.name], ["-h", row.group, row.name]]))
    return argv


@given(argv=command_lines())
def test_plain_args_agrees_with_argparse(argv):
    plain, parsed = both(argv)
    assert plain is None or plain == parsed, argv


@pytest.mark.parametrize("case", GOLDEN_LEAVES)
@pytest.mark.parametrize("mode", list(GOLDEN_MODES))
def test_golden_command_lines_take_the_plain_path(case, mode):
    # A leading VAR=value sets the environment of the case.
    argv = [token for token in case.split() if "=" not in token] + GOLDEN_MODES[mode]
    plain, parsed = both(argv)
    assert plain is not None and plain == parsed, argv


@pytest.mark.parametrize("argv", [
    ["-h"], ["mf", "--help"], ["rho", "point", "--help"], ["rho", "point", "-h", "--n", "3"],
    ["rho", "point", "--n=3"], ["rho", "point", "--n", "3", "--js"], ["rho", "point", "--"],
    ["rho", "point", "--n", "3", "--n", "4"], ["rho", "point", "--n", "3", ""],
    ["rho", "point"], ["mf", "validate"], ["mf", "validate", "a.json", "b.json"],
    ["rho", "point", "--n", "-1_000"], ["rho", "point", "--n", "-٣"],
    ["rho", "point", "--n", "x"], ["rho", "point", "--n", "9" * (MAX_DIGITS + 1)],
    ["mf", "fermat", "--pairs", "1", "--half-degree", "1", "--field", "qi"],
    ["rho", "point", "--n", "3", "--output", ""], ["rho", "point", "--n", "3", "--output", "-"],
    ["rho", "poin", "--n", "3"], ["mf", "validate", "-g.json"],
], ids=lambda argv: repr(" ".join(argv)[:40]))
def test_plain_args_defers(argv):
    assert both(argv)[0] is None


@pytest.mark.parametrize("value, expected", [
    ("-2", -2), ("٣", 3), ("1_000", 1000), (" 7", 7), ("+5", 5),
    pytest.param("9" * 5000, 10**5000 - 1, id="past the default digit cap")])
def test_integers_are_read_like_argparse(value, expected):
    plain, parsed = both(["rho", "point", "--n", value])
    assert plain["n"] == expected
    assert plain == parsed


def test_options_use_only_what_plain_args_reads():
    # _plain_args reads these add_argument keywords; a row with another
    # (nargs, a type other than int, ...) needs it taught first.
    for row in COMMANDS:
        for flag, keywords in (*_COMMON_OPTIONS, *row.options):
            assert flag.startswith("--") and set(keywords) <= {
                "action", "type", "choices", "default", "help", "metavar"}, (row.name, flag)
            assert keywords.get("action", "store_true") == "store_true"
            assert keywords.get("type", int) is int
