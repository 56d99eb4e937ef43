import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mfkit
from mfkit import algebra, bott, cli, mf
from mfkit.algebra import GF, QI, QQ, parse_poly
from mfkit.cli import MAX_DIGITS, SchemaError, document_to_mf, main, mf_to_document
from mfkit.graded import DegreeMultiset
from mfkit.orlov import MAX_SHAMASH_RANK
import test_value_class
from _factories import reference_read

FERMAT_REPORT = """\
operation: mf fermat
rank = 2
d = 4
nvars = 4
field = QQ(i)
F0_degrees = [2, 2]
F1_degrees = [0, 0]
reduced = true
note: generator parameters (pairs, half-degree) fix nvars and degree; conjecture contexts (n, d) are supplied to the checkers independently
"""

CHECK_RHO_PASS = """\
operation: check rho
context: n=3 d=4 a=0 e=1
verdict[rho >= 2^(e+1)]: value=4 bound=4 -> PASS
unchecked hypotheses: X = V(f) is assumed smooth (not verified); f is assumed irreducible (not verified)
"""

SWEEP_CSV = """\
n,d,a,e,rho,bound,pass
1,2,0,0,4,2,true
1,3,-1,0,6,2,true
2,3,0,1,8,4,true
"""


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_fermat(capsys, path="g.json"):
    code, _, err = run(capsys, "mf", "fermat", "--pairs", "2", "--half-degree", "2",
                       "--output", path)
    assert code == 0, err
    return path


class TestPipelines:
    def test_fermat_then_validate(self, workdir, capsys):
        code, out, _ = run(capsys, "mf", "fermat", "--pairs", "2", "--half-degree", "2",
                           "--field", "Qi", "--output", "g.json")
        assert code == 0
        assert out == FERMAT_REPORT
        digest = hashlib.sha256((workdir / "g.json").read_bytes()).hexdigest()
        code, out, _ = run(capsys, "mf", "validate", "g.json")
        assert code == 0
        assert f"input g.json: sha256={digest}" in out
        assert "rank = 2" in out and "valid = true" in out

    def test_written_document_rereads_equivalently(self, workdir, capsys):
        write_fermat(capsys)
        doc = json.loads((workdir / "g.json").read_text())
        F = document_to_mf(doc)
        assert mf.presentation_equivalent(F, mf.fermat(2, 2))

    def test_reduce_strips_trivial_summands(self, workdir, capsys):
        F = mf.fermat(2, 2)
        padded = mf.direct_sum(F, mf.trivial_one_f(F.f))
        (workdir / "p.json").write_text(json.dumps(mf_to_document(padded)))
        code, out, _ = run(capsys, "mf", "reduce", "p.json", "--output", "r.json")
        assert code == 0
        assert "rank = 2" in out and "splits = 1" in out
        reduced = document_to_mf(json.loads((workdir / "r.json").read_text()))
        assert mf.validate(reduced) == [] and reduced.rank0 == 2

    def test_tensor_command(self, workdir, capsys):
        a = mf.rank_one(parse_poly("x0^4", QI, 2), parse_poly("x0^2", QI, 2),
                        parse_poly("x0^2", QI, 2))
        b = mf.rank_one(parse_poly("x1^4", QI, 2), parse_poly("x1^2", QI, 2),
                        parse_poly("x1^2", QI, 2))
        (workdir / "a.json").write_text(json.dumps(mf_to_document(a)))
        (workdir / "b.json").write_text(json.dumps(mf_to_document(b)))
        code, out, _ = run(capsys, "mf", "tensor", "a.json", "b.json", "--output", "t.json")
        assert code == 0 and "rank = 2" in out
        T = document_to_mf(json.loads((workdir / "t.json").read_text()))
        assert mf.validate(T) == []

    def test_shift_twist_dual_roundtrip(self, workdir, capsys):
        write_fermat(capsys)
        for cmd in (["mf", "shift", "g.json"], ["mf", "twist", "g.json", "--t", "3"],
                    ["mf", "dual", "g.json"]):
            code, out, _ = run(capsys, *cmd, "--output", "out.json")
            assert code == 0
            F = document_to_mf(json.loads((workdir / "out.json").read_text()))
            assert mf.validate(F) == []

    def test_betti_and_translate(self, workdir, capsys):
        write_fermat(capsys)
        code, out, _ = run(capsys, "mf", "betti", "g.json")
        assert code == 0
        assert "betti = [[0, 2, 2], [1, 0, 2]]" in out
        code, out, _ = run(capsys, "orlov", "translate", "g.json", "--output", "t.json")
        assert code == 0
        assert "table = [[0, 0, 2], [2, 3, 2]]" in out
        assert "diagnostic: out-of-support entry (p=2, h=3)" in out
        code, out, _ = run(capsys, "orlov", "invert", "t.json", "--n", "3", "--d", "4")
        assert code == 0
        assert json.loads(out)["entries"] == [[0, 2, 2], [1, 0, 2]]

    def test_rho_from_mf_and_table(self, workdir, capsys):
        write_fermat(capsys)
        run(capsys, "orlov", "translate", "g.json", "--output", "t.json")
        assert run(capsys, "rho", "from-mf", "g.json")[:2] == (0, "4\n")
        assert run(capsys, "rho", "from-table", "t.json")[:2] == (0, "4\n")


class TestScalarCommands:
    def test_rho_line_bundle_prints_bare_value(self, capsys):
        code, out, _ = run(capsys, "rho", "line-bundle", "--n", "2", "--d", "1", "--j", "-1")
        assert (code, out) == (0, "2\n")

    def test_rho_structure_sheaf(self, capsys):
        assert run(capsys, "rho", "structure-sheaf", "--n", "3", "--d", "4")[:2] == (0, "16\n")

    def test_rho_point(self, capsys):
        assert run(capsys, "rho", "point", "--n", "3")[:2] == (0, "8\n")

    def test_bott_eval_and_vectors(self, capsys):
        assert run(capsys, "bott", "eval", "--n", "3", "--p", "2", "--q", "3", "--l", "-2")[:2] == (0, "6\n")
        assert run(capsys, "bott", "vector", "--n", "3", "--p", "2", "--l", "-2")[:2] == (0, "h^3=6\n")
        code, out, _ = run(capsys, "bott", "restricted", "--n", "3", "--d", "4", "--r", "0", "--t", "0")
        assert (code, out) == (0, "h^0=1, h^2=1\n")

    def test_orlov_phi0_and_shamash(self, capsys):
        assert run(capsys, "orlov", "phi0", "--n", "3", "--d", "4", "--l", "-2")[:2] == \
            (0, "i^*(wedge^2 T)(-2)[0]\n")
        assert run(capsys, "orlov", "phi0", "--n", "3", "--d", "5", "--l", "0")[:2] == (0, "0\n")
        assert run(capsys, "orlov", "shamash", "--n", "3", "--d", "4", "--m", "-2")[:2] == \
            (0, "degree 2 x 6, degree 4 x 1\n")


class TestChecks:
    def test_check_rho_pass_report(self, capsys):
        code, out, _ = run(capsys, "check", "rho", "--n", "3", "--d", "4", "--value", "4")
        assert code == 0
        assert out == CHECK_RHO_PASS

    def test_check_rho_fano_rejected(self, capsys):
        code, out, err = run(capsys, "check", "rho", "--n", "2", "--d", "2", "--value", "2")
        assert code == 2
        assert out == ""
        assert "error [mfkit.orlov]" in err and "Fano" in err

    def test_check_rho_failing_bound(self, capsys):
        code, _, err = run(capsys, "check", "rho", "--n", "4", "--d", "5", "--value", "3")
        assert code == 2
        assert "check failed" in err

    def test_check_bgs_json_report(self, workdir, capsys):
        write_fermat(capsys)
        code, out, _ = run(capsys, "check", "bgs", "g.json", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "mfkit/report-v1"
        assert report["context"] == {"n": 3, "d": 4, "a": 0, "e": 1}
        verdict = report["verdicts"][0]
        assert verdict["value"] == 2 and verdict["bound"] == 2 and verdict["passed"]
        assert report["unchecked_hypotheses"]

    def test_check_bgs_trivial(self, workdir, capsys):
        f = parse_poly("x0^4 + x1^4 + x2^4 + x3^4", QI, 4)
        (workdir / "triv.json").write_text(json.dumps(mf_to_document(mf.trivial_one_f(f))))
        code, out, _ = run(capsys, "check", "bgs", "triv.json")
        assert code == 0
        assert "NOT APPLICABLE (trivial factorization)" in out


class TestSweep:
    def test_csv_golden(self, capsys):
        code, out, _ = run(capsys, "sweep", "rho-structure-sheaf", "--n-max", "2", "--d-max", "3")
        assert code == 0
        assert out == SWEEP_CSV

    def test_threads_do_not_change_output(self, capsys, monkeypatch):
        _, base, _ = run(capsys, "sweep", "rho-structure-sheaf", "--n-max", "3", "--d-max", "6")
        monkeypatch.setenv("MFKIT_THREADS", "4")
        _, threaded, _ = run(capsys, "sweep", "rho-structure-sheaf", "--n-max", "3", "--d-max", "6")
        assert threaded == base

    def test_bad_thread_setting(self, capsys, monkeypatch):
        monkeypatch.setenv("MFKIT_THREADS", "zero")
        code, _, err = run(capsys, "sweep", "rho-structure-sheaf", "--n-max", "1", "--d-max", "2")
        assert code == 2 and "MFKIT_THREADS" in err

    def test_output_file(self, workdir, capsys):
        code, out, _ = run(capsys, "sweep", "rho-structure-sheaf", "--n-max", "2",
                           "--d-max", "3", "--output", "sweep.csv")
        assert code == 0 and out == ""
        assert (workdir / "sweep.csv").read_text() == SWEEP_CSV


def reference_sweep_csv(n_max, d_max):
    # Rows from the binomial sum rho(O_X) = 1 + sum_r C(d, d-r) * C(d-r-1, n-r).
    lines = ["n,d,a,e,rho,bound,pass"]
    for n in range(1, n_max + 1):
        for d in range(n + 1, d_max + 1):
            rho = 1 + sum(math.comb(d, d - r) * math.comb(d - r - 1, n - r) for r in range(n + 1))
            bound = 2 ** (n // 2 + 1)
            lines.append(f"{n},{d},{n + 1 - d},{n // 2},{rho},{bound},{str(rho >= bound).lower()}")
    return "\n".join(lines) + "\n"


class TestStreamedSweep:
    def test_no_rows_prints_header_only(self, capsys):
        code, out, _ = run(capsys, "sweep", "rho-structure-sheaf", "--n-max", "0", "--d-max", "5")
        assert code == 0 and out == "n,d,a,e,rho,bound,pass\n"

    def test_rows_stop_at_d_max(self, capsys):
        code, out, _ = run(capsys, "sweep", "rho-structure-sheaf", "--n-max", "5", "--d-max", "2")
        assert code == 0 and out == "n,d,a,e,rho,bound,pass\n1,2,0,0,4,2,true\n"

    def test_matches_reference_sum(self, workdir, capsys):
        expected = reference_sweep_csv(20, 40)
        argv = ("sweep", "rho-structure-sheaf", "--n-max", "20", "--d-max", "40")
        assert run(capsys, *argv) == (0, expected, "")
        assert run(capsys, *argv, "--output", "sweep.csv") == (0, "", "")
        assert (workdir / "sweep.csv").read_text() == expected

    def test_bad_thread_setting_writes_nothing(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("MFKIT_THREADS", "zero")
        argv = ("sweep", "rho-structure-sheaf", "--n-max", "20", "--d-max", "40")
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "MFKIT_THREADS" in err
        code, out, _ = run(capsys, *argv, "--output", "sweep.csv")
        assert code == 2 and out == "" and not (workdir / "sweep.csv").exists()


class TestFailureModes:
    def test_usage_error_exit_1(self, capsys):
        assert run(capsys, "nonsense")[0] == 1
        assert run(capsys, "mf")[0] == 1
        assert run(capsys, "rho", "point")[0] == 1  # missing --n

    def test_invalid_document_exit_2(self, workdir, capsys):
        F = mf.fermat(2, 2)
        doc = mf_to_document(F)
        doc["s0"][0][0] = "x0^2"  # breaks the composite identity
        (workdir / "bad.json").write_text(json.dumps(doc))
        code, _, err = run(capsys, "mf", "validate", "bad.json")
        assert code == 2
        assert "invalid:" in err

    def test_unreadable_file(self, capsys):
        code, _, err = run(capsys, "mf", "validate", "missing.json")
        assert code == 2 and "cannot read" in err

    def test_malformed_json(self, workdir, capsys):
        (workdir / "junk.json").write_text("{not json")
        code, _, err = run(capsys, "mf", "validate", "junk.json")
        assert code == 2 and "not valid JSON" in err

    def test_schema_violations(self, workdir, capsys):
        doc = mf_to_document(mf.fermat(2, 2))
        doc["schema"] = "other"
        (workdir / "s.json").write_text(json.dumps(doc))
        assert run(capsys, "mf", "validate", "s.json")[0] == 2

        doc = mf_to_document(mf.fermat(2, 2))
        doc["F0_degrees"] = [2, 1]
        (workdir / "u.json").write_text(json.dumps(doc))
        code, _, err = run(capsys, "mf", "validate", "u.json")
        assert code == 2 and "sorted" in err

    @pytest.mark.parametrize("key, value, message", [
        ("nvars", True, "'nvars' has the wrong type"),
        ("d", True, "'d' has the wrong type"),
        ("F0_degrees", [True], "F0_degrees must be a list of integers"),
    ])
    def test_json_booleans_are_not_integers(self, workdir, capsys, key, value, message):
        doc = mf_to_document(mf.fermat(1, 1))
        doc[key] = value
        (workdir / "b.json").write_text(json.dumps(doc))
        code, _, err = run(capsys, "mf", "validate", "b.json")
        assert code == 2 and message in err
        with pytest.raises(SchemaError, match=message):
            document_to_mf(doc)

    def test_entry_degree_bound(self, workdir, capsys):
        doc = mf_to_document(mf.fermat(1, 1))  # s0 and s1 entries have degree 1
        doc["s0"][0][0] = "(x0+x1)^200"
        (workdir / "p.json").write_text(json.dumps(doc))
        code, out, err = run(capsys, "mf", "validate", "p.json")
        assert code == 2 and out == ""
        assert "s0[0][0]: degree 200 exceeds the bound 1" in err
        doc = mf_to_document(mf.fermat(1, 1))
        doc["f"] = "(x0+x1)^2*x0"
        with pytest.raises(SchemaError, match=r"^f: degree 3 exceeds the bound 2"):
            document_to_mf(doc)

    def test_deeply_nested_json(self, workdir, capsys):
        # The JSON decoder recurses once per level.
        (workdir / "deep.json").write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run(capsys, "mf", "validate", "deep.json")
        assert code == 2 and out == ""
        assert err.startswith("error [mfkit.cli]: deep.json is not valid JSON: ")

    def test_deeply_nested_entry(self, workdir, capsys):
        doc = mf_to_document(mf.fermat(1, 1))
        doc["s0"][0][0] = "(" * 1000 + "x0" + ")" * 1000
        (workdir / "n.json").write_text(json.dumps(doc))
        code, out, err = run(capsys, "mf", "validate", "n.json")
        assert code == 2 and out == ""
        assert err == ("error [mfkit.cli]: s0[0][0]: parentheses nested deeper than 64 "
                       "(at position 64)\n")

    @pytest.mark.parametrize("command", ["dual-table", "invert"])
    @pytest.mark.parametrize("entry", [[5, 4, 1], [1, 0, 1]])
    def test_table_of_another_n_exit_2(self, workdir, capsys, command, entry):
        doc = {"schema": "mfkit/table-v1", "n": 5, "entries": [entry]}
        (workdir / "t5.json").write_text(json.dumps(doc))
        code, out, err = run(capsys, "orlov", command, "t5.json", "--n", "3", "--d", "4")
        assert (code, out) == (2, "")
        assert err == "error [mfkit.orlov]: table has n = 5, but the context has n = 3\n"

    def test_degree_two_to_the_40_factorization(self, workdir, capsys):
        # The trivial factorization (f, 1) of a two-term f of degree 2^40:
        # the kernel packs its monomials into 64-bit fields.
        f = "(x0^1048576)^1048576 + (x1^1048576)^1048576"
        doc = {"schema": "mfkit/mf-v1", "field": {"type": "Q"}, "nvars": 2, "d": 2**40,
               "f": f, "F0_degrees": [2**40], "F1_degrees": [0], "s0": [[f]], "s1": [["1"]]}
        (workdir / "wide.json").write_text(json.dumps(doc))
        code, out, err = run(capsys, "mf", "validate", "wide.json")
        assert (code, err) == (0, "")
        assert "valid = true" in out and "d = 1099511627776" in out

    def test_degree_two_to_the_64_factorization(self, workdir, capsys):
        # The trivial factorization (g, 1) of g = x0^(2^64): the kernel
        # packs its monomials into 128-bit fields.
        g = "(((x0^1048576)^1048576)^1048576)^16"
        doc = {"schema": "mfkit/mf-v1", "field": {"type": "Q"}, "nvars": 1, "d": 2**64,
               "f": g, "F0_degrees": [2**64], "F1_degrees": [0], "s0": [[g]], "s1": [["1"]]}
        (workdir / "wider.json").write_text(json.dumps(doc))
        code, out, err = run(capsys, "mf", "validate", "wider.json")
        assert (code, err) == (0, "")
        assert "valid = true" in out and "d = 18446744073709551616" in out
        (workdir / "twice.json").write_text(json.dumps(dict(doc, s1=[["2"]])))
        code, out, err = run(capsys, "mf", "validate", "twice.json")
        assert (code, out) == (2, "")
        assert "got 2*x0^18446744073709551616" in err
        code, out, err = run(capsys, "mf", "shift", "wider.json")
        assert (code, out) == (2, "")
        assert err == ("error [mfkit.cli]: exponent 18446744073709551616 exceeds "
                       "MAX_EXPONENT = 1048576\n")

    def test_json_booleans_in_table_documents(self, workdir, capsys):
        for doc in ({"schema": "mfkit/table-v1", "n": True, "entries": [[0, 0, 2]]},
                    {"schema": "mfkit/table-v1", "n": 3, "entries": [[True, 0, 2]]}):
            (workdir / "t.json").write_text(json.dumps(doc))
            code, _, err = run(capsys, "rho", "from-table", "t.json")
            assert code == 2 and "error [mfkit.cli]" in err

    def test_fermat_field_errors(self, capsys):
        code, _, err = run(capsys, "mf", "fermat", "--pairs", "1", "--half-degree", "2",
                           "--field", "Fp")
        assert code == 2 and "--p" in err
        code, _, err = run(capsys, "mf", "fermat", "--pairs", "1", "--half-degree", "2",
                           "--field", "Fp", "--p", "7")
        assert code == 2 and "square root" in err

    def test_fermat_over_prime_field(self, workdir, capsys):
        code, _, _ = run(capsys, "mf", "fermat", "--pairs", "2", "--half-degree", "1",
                         "--field", "Fp", "--p", "13", "--output", "fp.json")
        assert code == 0
        F = document_to_mf(json.loads((workdir / "fp.json").read_text()))
        assert mf.validate(F) == [] and F.field == GF(13)


class TestDocumentRoundtrip:
    def test_exact_roundtrip_for_all_transformations(self, workdir, capsys):
        F = mf.fermat(2, 2)
        variants = [
            F,
            mf.shift(F),
            mf.twist(F, -3),
            mf.dual(F),
            mf.direct_sum(F, mf.trivial_one_f(F.f)),
            mf.fermat(2, 1, field=GF(13)),
        ]
        for variant in variants:
            doc = mf_to_document(variant)
            again = document_to_mf(json.loads(json.dumps(doc)))
            assert again == variant
            assert mf.presentation_equivalent(again, variant)

    @pytest.mark.parametrize("field", [QQ, QI, GF(13), GF(1282972393)], ids=str)
    def test_printed_documents_read_back_in_one_scan(self, monkeypatch, field):
        # Entries with rational, Gaussian and residue coefficients; fermat
        # needs a square root of -1, which QQ lacks.  Every entry is read
        # from its words: none is read again from its tokens.
        extra = " + (1/2 - 2/3*i)*x1^2" if field == QI else ""
        u = parse_poly("1/2*x0^2 - 3*x1*x2 + 5/7*x2^2" + extra, field, 3)
        v = parse_poly("x0^2 + 2/3*x1^2 - x0*x2", field, 3)
        F = mf.rank_one(u * v, u, v)
        variants = [F, mf.tensor(F, mf.rank_one(u * v, v, u)),
                    mf.reduce(mf.direct_sum(F, mf.trivial_one_f(F.f))),
                    mf.shift(F), mf.twist(F, 2), mf.dual(F)]
        if field.has_sqrt_minus_one():
            G = mf.fermat(2, 2, field=field)
            variants += [G, mf.tensor(G, G), mf.reduce(mf.direct_sum(G, mf.trivial_one_f(G.f))),
                         mf.shift(G), mf.twist(G, -3), mf.dual(G)]
        calls = []
        tokens = algebra._tokens
        monkeypatch.setattr(algebra, "_tokens", lambda text: calls.append(text) or tokens(text))
        for variant in variants:
            again = document_to_mf(json.loads(json.dumps(mf_to_document(variant))))
            assert again == variant
        assert calls == []

    @pytest.mark.parametrize("entry, message", [
        ("x0 + @", "s0[0][0]: unexpected character '@' (at position 5)"),
        ("x0 +", "s0[0][0]: unexpected end of input (at position 4)"),
        ("x0 + 1/0", "s0[0][0]: zero denominator in rational literal (at position 7)"),
        ("x0^2", "s0[0][0]: degree 2 exceeds the bound 1 (at position 2)"),
    ])
    def test_malformed_entry_reaches_the_recursive_parser(self, monkeypatch, entry, message):
        doc = mf_to_document(mf.fermat(1, 1))
        doc["s0"][0][0] = entry
        with pytest.raises(SchemaError) as got:
            document_to_mf(doc)
        monkeypatch.setattr(algebra, "parse_poly", reference_read)
        with pytest.raises(SchemaError) as want:
            document_to_mf(doc)
        assert str(got.value) == str(want.value) == message

    def test_translate_rejects_fano_context(self, workdir, capsys):
        # nvars = 4 and d = 2 give n = 3, a = 2 > 0.
        f = parse_poly("x0*x1", QI, 4)
        F = mf.rank_one(f, parse_poly("x0", QI, 4), parse_poly("x1", QI, 4))
        (workdir / "fano.json").write_text(json.dumps(mf_to_document(F)))
        code, _, err = run(capsys, "orlov", "translate", "fano.json")
        assert code == 2 and "Fano" in err

    def test_rho_from_mf_requires_reduced(self, workdir, capsys):
        F = mf.fermat(2, 2)
        padded = mf.direct_sum(F, mf.trivial_one_f(F.f))
        (workdir / "p.json").write_text(json.dumps(mf_to_document(padded)))
        code, _, err = run(capsys, "rho", "from-mf", "p.json")
        assert code == 2 and "reduced" in err


class TestDeterminism:
    def test_reports_byte_stable_across_runs(self, workdir, capsys):
        write_fermat(capsys)
        first = run(capsys, "orlov", "translate", "g.json", "--output", "t1.json")
        second = run(capsys, "orlov", "translate", "g.json", "--output", "t2.json")
        assert first == second
        assert (workdir / "t1.json").read_bytes() == (workdir / "t2.json").read_bytes()

    def test_seed_flag_accepted(self, capsys):
        assert run(capsys, "rho", "point", "--n", "2", "--seed", "7")[:2] == (0, "4\n")

    def test_json_and_text_agree_numerically(self, workdir, capsys):
        write_fermat(capsys)
        _, text_out, _ = run(capsys, "check", "bgs", "g.json")
        _, json_out, _ = run(capsys, "check", "bgs", "g.json", "--json")
        verdict = json.loads(json_out)["verdicts"][0]
        assert f"value={verdict['value']} bound={verdict['bound']}" in text_out


# ---------------------------------------------------------------------------
# Golden bytes of every leaf command and failure path.  For each case,
# cli_golden.json holds the exit code and the SHA-256 of stdout, stderr and
# the --output file (null when no file is written).  argparse usage and
# help text are left out: their wording differs between Python versions,
# so usage errors check the exit code only.

GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())

GOLDEN_MODES = {"text": [], "json": ["--json"], "output": ["--output", "out.txt"],
                "json+output": ["--json", "--output", "out.txt"]}

GOLDEN_LEAVES = [
    "mf validate g.json",
    "mf reduce p.json",
    "mf tensor g.json g.json",
    "mf shift g.json",
    "mf twist g.json --t 3",
    "mf dual g.json",
    "mf betti g.json",
    "mf fermat --pairs 2 --half-degree 2",
    "bott eval --n 3 --p 2 --q 3 --l -2",
    "bott vector --n 3 --p 2 --l -2",
    "bott restricted --n 3 --d 4 --r 0 --t 0",
    "rho structure-sheaf --n 3 --d 4",
    "rho point --n 3",
    "rho line-bundle --n 2 --d 1 --j -1",
    "rho from-mf g.json",
    "rho from-table t.json",
    "orlov translate g.json",
    "orlov invert t.json --n 3 --d 4",
    "orlov phi0 --n 3 --d 4 --l -2",
    "orlov shamash --n 3 --d 4 --m -2",
    "orlov dual-table s.json --n 3 --d 4",
    "check bgs g.json",
    "check rho --n 3 --d 4 --value 4",
    "sweep rho-structure-sheaf --n-max 3 --d-max 6",
    # Further inputs and options.
    "mf validate p.json",
    "mf tensor g.json p.json --normalize",
    "mf fermat --pairs 2 --half-degree 1 --field Fp --p 13",
    "mf fermat --pairs 1 --half-degree 2 --solo",
    "orlov phi0 --n 3 --d 5 --l 0",
    "check bgs triv.json",
    "rho point --n 2 --seed 7",
    "MFKIT_THREADS=4 sweep rho-structure-sheaf --n-max 2 --d-max 4",
    # Failure paths.
    "mf validate bad.json",
    "check rho --n 4 --d 5 --value 3",
    "check rho --n 2 --d 2 --value 2",
    "mf fermat --pairs 1 --half-degree 2 --field Fp",
    "mf fermat --pairs 1 --half-degree 2 --field Fp --p 7",
    "MFKIT_THREADS=zero sweep rho-structure-sheaf --n-max 2 --d-max 4",
    "mf validate missing.json",
    "mf validate junk.json",
    "mf reduce bad.json",
    "mf tensor g.json junk.json",
    "rho from-mf p.json",
    "rho from-table g.json",
    "orlov shamash --n 3 --d 4 --m 1",
    "orlov dual-table t.json --n 3 --d 4",
]

GOLDEN_USAGE_ERRORS = [
    "nonsense",
    "mf",
    "rho point",
    "mf validate",
    "mf fermat --pairs x --half-degree 2",
    "orlov invert t.json --n 3",
]


def golden_inputs(root: Path) -> None:
    F = mf.fermat(2, 2)
    bad = mf_to_document(F)
    bad["s0"][0][0] = "x0^2"  # breaks the composite identity
    docs = {
        "g.json": mf_to_document(F),
        "p.json": mf_to_document(mf.direct_sum(F, mf.trivial_one_f(F.f))),
        "triv.json": mf_to_document(mf.trivial_one_f(F.f)),
        "bad.json": bad,
        "t.json": {"schema": "mfkit/table-v1", "n": 3, "entries": [[0, 0, 2], [2, 3, 2]]},
        "s.json": {"schema": "mfkit/table-v1", "n": 3, "entries": [[0, 0, 2], [2, 1, 2]]},
    }
    for name, doc in docs.items():
        (root / name).write_text(json.dumps(doc))
    (root / "junk.json").write_text("{not json")


def golden_run(root, capsys, monkeypatch, case, extra):
    monkeypatch.delenv("MFKIT_THREADS", raising=False)
    argv = case.split()
    while "=" in argv[0]:
        key, value = argv.pop(0).split("=", 1)
        monkeypatch.setenv(key, value)
    golden_inputs(root)
    code = main(argv + extra)
    captured = capsys.readouterr()
    out_file = root / "out.txt"
    return code, captured.out, captured.err, out_file.read_bytes() if out_file.exists() else None


def _sha(data):
    return None if data is None else hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("key", [f"{case} [{mode}]" for case in GOLDEN_LEAVES for mode in GOLDEN_MODES])
def test_golden_cli_bytes(workdir, capsys, monkeypatch, key):
    case, mode = key[:-1].rsplit(" [", 1)
    code, out, err, written = golden_run(workdir, capsys, monkeypatch, case, GOLDEN_MODES[mode])
    actual = {"exit": code, "stdout": _sha(out.encode()), "stderr": _sha(err.encode()),
              "output": _sha(written)}
    assert actual == GOLDEN[key], (
        f"exit {code}\n--- stdout\n{out}--- stderr\n{err}--- output file\n"
        f"{written.decode() if written is not None else '(not written)'}"
    )


@pytest.mark.parametrize("case", GOLDEN_USAGE_ERRORS)
def test_golden_usage_errors(workdir, capsys, monkeypatch, case):
    code, out, _, written = golden_run(workdir, capsys, monkeypatch, case, [])
    assert (code, out, written) == (1, "", None)


def test_fermat_rank_bound_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "mf", "fermat", "--pairs", "40", "--half-degree", "2")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and err.startswith("error [mfkit.mf]")


def test_tensor_rank_bound_exits_2(workdir, capsys):
    (workdir / "big.json").write_text(json.dumps(mf_to_document(mf.fermat(7, 2))))
    code, out, err = run(capsys, "mf", "tensor", "big.json", "big.json")
    assert code == 2 and out == ""
    assert err.startswith("error [mfkit.mf]") and "rank 8192 exceeds MAX_FERMAT_RANK" in err


def test_module_entry_point(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("MFKIT_THREADS", None)

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", "mfkit", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    done = python_m("rho", "point", "--n", "3")
    assert (done.returncode, done.stdout, done.stderr) == (0, "8\n", "")
    done = python_m("check", "rho", "--n", "4", "--d", "5", "--value", "3")
    assert done.returncode == 2 and "check failed" in done.stderr
    assert python_m("rho", "point").returncode == 1


def test_closed_stdout_exits_2(tmp_path):
    # The child starts with fd 1 closed, so its sys.stdout is None.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("MFKIT_THREADS", None)
    (tmp_path / "g.json").write_text(json.dumps(mf_to_document(mf.fermat(2, 2))))

    def closed_stdout(*argv):
        done = subprocess.run([sys.executable, "-m", "mfkit", *argv], cwd=tmp_path, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=120, preexec_fn=lambda: os.close(1))
        return done.returncode, done.stderr

    closed = (2, "error [mfkit.cli]: cannot write to stdout: it is closed\n")
    for argv in (["rho", "point", "--n", "3"],
                 ["rho", "point", "--n", "3", "--json"],
                 ["mf", "validate", "g.json"],
                 ["mf", "shift", "g.json"],
                 ["mf", "shift", "g.json", "--output", "s.json"],
                 ["check", "rho", "--n", "4", "--d", "5", "--value", "3"],
                 ["sweep", "rho-structure-sheaf", "--n-max", "2", "--d-max", "4"]):
        assert closed_stdout(*argv) == closed, argv
    assert closed_stdout("sweep", "rho-structure-sheaf", "--n-max", "2", "--d-max", "3",
                         "--output", "sweep.csv") == (0, "")
    assert (tmp_path / "sweep.csv").read_text() == SWEEP_CSV


def test_closed_stderr_keeps_exit_codes(tmp_path):
    # The child starts with fd 2 closed, so its sys.stderr is None and its
    # diagnostics are dropped.  Run through ``-c``, main must return the
    # code, not raise: an uncaught exception would also exit 1.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("MFKIT_THREADS", None)
    returned = "import sys; from mfkit import cli; print(cli.main(sys.argv[1:]))"

    def closed_stderr(*argv):
        runs = [subprocess.run([sys.executable, *command, *argv], cwd=tmp_path, env=env,
                               stdout=subprocess.PIPE, text=True, timeout=120,
                               preexec_fn=lambda: os.close(2))
                for command in (["-m", "mfkit"], ["-c", returned])]
        module, direct = runs
        assert direct.returncode == 0
        assert direct.stdout.splitlines()[-1] == str(module.returncode)
        return module.returncode, module.stdout

    assert closed_stderr("mf", "validate", "missing.json") == (2, "")
    code, out = closed_stderr("check", "rho", "--n", "4", "--d", "5", "--value", "3")
    assert code == 2 and "-> FAIL" in out
    assert closed_stderr("rho", "point") == (1, "")
    assert closed_stderr("rho", "point", "--n", "3", "--bogus") == (1, "")


@pytest.mark.parametrize("argv", [
    ["mf", "fermat", "--pairs", "1", "--half-degree", "1"],
    ["mf", "fermat", "--pairs", "1", "--half-degree", "1", "--json"],
    ["sweep", "rho-structure-sheaf", "--n-max", "2", "--d-max", "4"],
    ["rho", "point", "--n", "3"],
    ["rho", "point", "--n", "3", "--json"],
])
def test_empty_output_path_exits_2(workdir, capsys, argv):
    code, out, err = run(capsys, *argv, "--output", "")
    assert (code, out) == (2, "")
    assert err.startswith("error [mfkit.cli]: ") and err.count("\n") == 1
    assert list(workdir.iterdir()) == []


def test_inputs_sharing_a_base_name_keep_both_digests(workdir, capsys):
    F = mf.fermat(2, 2)
    docs = {"a/g.json": mf_to_document(F), "b/g.json": mf_to_document(mf.trivial_one_f(F.f))}
    digests = {}
    for path, doc in docs.items():
        (workdir / path).parent.mkdir()
        (workdir / path).write_text(json.dumps(doc))
        digests[path] = hashlib.sha256((workdir / path).read_bytes()).hexdigest()
    assert len(set(digests.values())) == 2
    code, out, err = run(capsys, "mf", "tensor", "a/g.json", "b/g.json", "--json",
                         "--output", "t.json")
    assert code == 0, err
    assert json.loads(out)["inputs"] == digests
    code, out, _ = run(capsys, "mf", "tensor", "a/g.json", "b/g.json", "--output", "t.json")
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("input ")] == [
        f"input {path}: sha256={digest}" for path, digest in sorted(digests.items())]
    # Distinct base names keep their base-name keys.
    (workdir / "b/g.json").rename(workdir / "b/h.json")
    code, out, _ = run(capsys, "mf", "tensor", "a/g.json", "b/h.json", "--json",
                       "--output", "t.json")
    assert code == 0
    assert json.loads(out)["inputs"] == {"g.json": digests["a/g.json"],
                                         "h.json": digests["b/g.json"]}


def test_huge_nvars_fails_fast(workdir, capsys):
    doc = mf_to_document(mf.fermat(1, 1))
    doc["nvars"] = 1000000000
    (workdir / "v.json").write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "mf", "validate", "v.json")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == "error [mfkit.cli]: nvars must be <= 1024\n"


# -- rejected documents: exit 2, "error [module]: message" on stderr ----------

DROP = object()


def fermat_document(**changes):
    doc = mf_to_document(mf.fermat(2, 1))  # rank 2 in four variables, d = 2
    for key, value in changes.items():
        if value is DROP:
            del doc[key]
        else:
            doc[key] = value
    return doc


def rejected_documents():
    s0, s1 = fermat_document()["s0"], fermat_document()["s1"]
    invalid = fermat_document()
    invalid["s0"][0][0] = "x0"
    mismatch = ("invalid matrix factorization: s1*s0 disagrees with f*id at entry (0,0): "
                "got x0^2 + (0 - 1*i)*x0*x1 + x2^2 + x3^2, expected x0^2 + x1^2 + x2^2 + x3^2, "
                "difference (0 - 1*i)*x0*x1 - x1^2")
    return {
        "field not an object": ("mf validate", fermat_document(field="Qi"),
                                "mfkit.cli", "key 'field' has the wrong type"),
        "field without type": ("mf validate", fermat_document(field={"p": 13}),
                               "mfkit.cli", "field descriptor must be an object with a 'type' key"),
        "Fp without p": ("mf validate", fermat_document(field={"type": "Fp"}),
                         "mfkit.cli", "field descriptor of type 'Fp' needs an integer 'p'"),
        "Fp with text p": ("mf validate", fermat_document(field={"type": "Fp", "p": "13"}),
                           "mfkit.cli", "field descriptor of type 'Fp' needs an integer 'p'"),
        "Fp composite": ("mf validate", fermat_document(field={"type": "Fp", "p": 15}),
                         "mfkit.cli", "15 is not prime"),
        "unknown field": ("mf validate", fermat_document(field={"type": "R"}),
                          "mfkit.cli", "unknown field type 'R'"),
        "missing key": ("mf validate", fermat_document(nvars=DROP),
                        "mfkit.cli", "missing key 'nvars'"),
        "text nvars": ("mf validate", fermat_document(nvars="4"),
                       "mfkit.cli", "key 'nvars' has the wrong type"),
        "row count": ("mf validate", fermat_document(s0=s0[:1]),
                      "mfkit.cli", "s0 must have 2 rows, got 1"),
        "short row": ("mf validate", fermat_document(s1=[s1[0], s1[1][:1]]),
                      "mfkit.cli", "s1 row 1 must be a list of 2 strings"),
        "row not a list": ("mf validate", fermat_document(s1=[s1[0], "x0"]),
                           "mfkit.cli", "s1 row 1 must be a list of 2 strings"),
        "entry not a string": ("mf validate", fermat_document(s0=[[s0[0][0], 0], s0[1]]),
                               "mfkit.cli", "s0[0][1] must be a polynomial string"),
        "document not an object": ("mf validate", [], "mfkit.cli",
                                   "document must be a JSON object"),
        "nvars 0": ("mf validate", fermat_document(nvars=0), "mfkit.cli", "nvars must be >= 1"),
        "f inhomogeneous": ("mf validate", fermat_document(f="x0^2 + x1"), "mfkit.cli",
                            "f must be homogeneous of the declared degree d = 2"),
        "f of lower degree": ("mf validate", fermat_document(f="x0 + x1"), "mfkit.cli",
                              "f must be homogeneous of the declared degree d = 2"),
        "negative table count": (
            "rho from-table",
            {"schema": "mfkit/table-v1", "n": 3, "entries": [[0, 0, 2], [0, 0, -3]]},
            "mfkit.cli", "negative count -1 at (0, 0)"),
        "rho of an invalid factorization": ("rho from-mf", invalid, "mfkit.orlov", mismatch),
        "bgs of an invalid factorization": ("check bgs", invalid, "mfkit.orlov", mismatch),
    }


@pytest.mark.parametrize("case", list(rejected_documents()))
def test_rejected_document_exits_2(workdir, capsys, case):
    command, doc, module, message = rejected_documents()[case]
    (workdir / "in.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, *command.split(), "in.json")
    assert (code, out, err) == (2, "", f"error [{module}]: {message}\n")


def test_expansion_past_the_product_budget_exits_2(workdir, capsys):
    # 200 bytes whose one entry has degree 400, within its bound, and
    # expands to about 10^20 terms.
    entry = "(" + " + ".join(f"x{k}" for k in range(12)) + ")^400"
    doc = {"schema": "mfkit/mf-v1", "field": {"type": "Q"}, "nvars": 12, "d": 400,
           "f": "x0^400", "F0_degrees": [400], "F1_degrees": [0], "s0": [[entry]], "s1": [["1"]]}
    (workdir / "h.json").write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "mf", "validate", "h.json")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error [mfkit.cli]: s0[0][0]: expansion needs more than 65536 term products "
                   "(at position 61)\n")


def test_coefficient_growth_past_the_bits_budget_exits_2(workdir, capsys):
    # 221 bytes whose entries have the declared degree 2^40; the s0 entry's
    # coefficient would need 2^40 bits.
    doc = {"schema": "mfkit/mf-v1", "field": {"type": "Q"}, "nvars": 1, "d": 2**40,
           "f": "(x0^1048576)^1048576", "F0_degrees": [2**40], "F1_degrees": [0],
           "s0": [["((((2*x0)^1024)^1024)^1024)^1024"]], "s1": [["1"]]}
    (workdir / "b.json").write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "mf", "validate", "b.json")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error [mfkit.cli]: s0[0][0]: powers need more than 16777216 coefficient bits "
                   "(at position 21)\n")


# -- one digit cap for every integer read or printed --------------------------


def exact_decimal(value: int) -> str:
    # str(value) past the interpreter's digit limit, which stays as it was.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def exact_int(text: str) -> int:
    # int(text) past the interpreter's digit limit, which stays as it was.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        sys.set_int_max_str_digits(limit)


def test_rho_point_prints_every_digit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "rho", "point", "--n", "14400")
    assert (code, err) == (0, "")
    assert out == exact_decimal(1 << 14400) + "\n"
    assert sys.get_int_max_str_digits() == limit


def test_rho_point_at_and_past_the_digit_cap(capsys, monkeypatch):
    # 2^14400 has 4,335 digits and 2^14402 has 4,336.
    monkeypatch.setattr(cli, "MAX_DIGITS", 4335)
    assert run(capsys, "rho", "point", "--n", "14400") == (0, exact_decimal(1 << 14400) + "\n", "")
    code, out, err = run(capsys, "rho", "point", "--n", "14402")
    assert (code, out) == (2, "")
    assert err.startswith("error [mfkit.cli]: Exceeds the limit (4335 digits)")


def test_rho_point_far_past_the_digit_cap_exits_2(capsys):
    # 9,030,900 digits: the interpreter refuses before converting.
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "rho", "point", "--n", "30000000")
    assert (code, out) == (2, "")
    assert err.startswith(f"error [mfkit.cli]: Exceeds the limit ({MAX_DIGITS} digits)")
    assert sys.get_int_max_str_digits() == limit


POWER_DOCUMENT = {"schema": "mfkit/mf-v1", "field": {"type": "Q"}, "nvars": 1, "d": 20000,
                  "f": "(2*x0)^20000", "F0_degrees": [0], "F1_degrees": [0],
                  "s0": [["1"]], "s1": [["(2*x0)^20000"]]}


def test_shift_prints_a_coefficient_of_6021_digits_that_parses_back(workdir, capsys):
    # The factorization (1, (2*x0)^20000): its printed entries need every
    # digit of 2^20000, and the shifted document reads back.
    limit = sys.get_int_max_str_digits()
    (workdir / "power.json").write_text(json.dumps(POWER_DOCUMENT))
    assert run(capsys, "mf", "validate", "power.json")[0] == 0
    code, out, err = run(capsys, "mf", "shift", "power.json")
    assert (code, err) == (0, "")
    power = exact_decimal(2**20000) + "*x0^20000"
    doc = json.loads(out)
    assert (doc["f"], doc["s0"], doc["s1"]) == (power, [["-" + power]], [["-1"]])
    (workdir / "shifted.json").write_text(out)
    assert run(capsys, "mf", "validate", "shifted.json")[::2] == (0, "")
    assert sys.get_int_max_str_digits() == limit


def literal_document(digits: int) -> dict:
    # The factorization (1, c*x0) with a literal c of ``digits`` digits.
    entry = "9" * digits + "*x0"
    return dict(POWER_DOCUMENT, d=1, f=entry, s1=[[entry]])


def test_literal_at_and_past_the_digit_cap(workdir, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_DIGITS", 5000)
    (workdir / "literal.json").write_text(json.dumps(literal_document(5000)))
    assert run(capsys, "mf", "validate", "literal.json")[::2] == (0, "")
    (workdir / "literal.json").write_text(json.dumps(literal_document(5001)))
    code, out, err = run(capsys, "mf", "validate", "literal.json")
    assert (code, out) == (2, "")
    assert err.startswith("error [mfkit.algebra]: Exceeds the limit (5000 digits)")


def test_literal_past_the_digit_cap_exits_2(workdir, capsys):
    # The interpreter compares the literal's length with the cap before
    # converting it.
    limit = sys.get_int_max_str_digits()
    (workdir / "literal.json").write_text(json.dumps(literal_document(MAX_DIGITS + 1)))
    code, out, err = run(capsys, "mf", "validate", "literal.json")
    assert (code, out) == (2, "")
    assert err.startswith(f"error [mfkit.algebra]: Exceeds the limit ({MAX_DIGITS} digits)")
    assert sys.get_int_max_str_digits() == limit


def test_coefficient_within_the_bits_budget_past_the_digit_cap_exits_2(workdir, capsys):
    # The coefficient 2^16773120 (5,049,213 digits) parses within
    # MAX_PARSE_BITS; printing it exits 2, the interpreter refusing before
    # converting.
    entry = "((2*x0)^4095)^4096"
    doc = dict(POWER_DOCUMENT, d=4095 * 4096, f=entry, s1=[[entry]])
    (workdir / "budget.json").write_text(json.dumps(doc))
    assert run(capsys, "mf", "validate", "budget.json")[0] == 0
    code, out, err = run(capsys, "mf", "shift", "budget.json")
    assert (code, out) == (2, "")
    assert err.startswith(f"error [mfkit.algebra]: Exceeds the limit ({MAX_DIGITS} digits)")


# -- one exponent cap for every exponent read or printed ----------------------


def test_fermat_at_and_past_the_exponent_cap(workdir, capsys):
    # f = x0^(2m) + x1^(2m): m = 2^19 prints exponents at the cap and
    # reads back; m = 2^19 + 1 exits 2 and writes nothing.
    code, _, err = run(capsys, "mf", "fermat", "--pairs", "1", "--half-degree", "524288",
                       "--output", "fm.json")
    assert (code, err) == (0, "")
    assert json.loads((workdir / "fm.json").read_text())["f"] == "x0^1048576 + x1^1048576"
    assert run(capsys, "mf", "validate", "fm.json")[::2] == (0, "")
    code, out, err = run(capsys, "mf", "fermat", "--pairs", "1", "--half-degree", "524289",
                         "--output", "past.json")
    assert (code, out, err) == (2, "", "error [mfkit.cli]: 2 * half_degree exceeds "
                                       "MAX_EXPONENT = 1048576\n")
    assert not (workdir / "past.json").exists()


def test_fermat_far_past_the_exponent_cap_builds_nothing(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a factorization past the cap was built")

    monkeypatch.setattr(mf, "fermat", unreachable)
    code, out, err = run(capsys, "mf", "fermat", "--pairs", "3", "--half-degree", "9" * 100_000)
    assert (code, out) == (2, "")
    assert err == "error [mfkit.cli]: 2 * half_degree exceeds MAX_EXPONENT = 1048576\n"


@pytest.mark.parametrize("module, name, argv", [
    ("algebra", "parse_poly", ("mf", "validate", "g.json")),
    ("mf", "validate", ("mf", "validate", "g.json")),
    ("orlov", "betti_to_table", ("orlov", "translate", "g.json")),
    ("bott", "rho_point", ("rho", "point", "--n", "3")),
])
def test_commands_call_a_library_function_rebound_on_its_module(workdir, capsys, monkeypatch,
                                                                   module, name, argv):
    # The CLI reads library names through the package at call time, so a
    # wrapper set on the module, as a tracer sets one, sees every call.
    write_fermat(capsys)
    expected = run(capsys, *argv)
    owner = getattr(mfkit, module)
    original, calls = getattr(owner, name), []

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    assert run(capsys, *argv) == expected
    assert calls if name == "parse_poly" else len(calls) == 1


@pytest.mark.parametrize("entry, exponent", [("x0^1048576", 2**20), ("x0^1048576*x0", 2**20 + 1)])
def test_shift_at_and_past_the_exponent_cap(workdir, capsys, entry, exponent):
    # The valid factorization (1, x0^e): its shift prints x0^e, which reads
    # back at the cap and exits 2 one past it, writing nothing.
    doc = dict(POWER_DOCUMENT, d=exponent, f=entry, s1=[[entry]])
    (workdir / "cap.json").write_text(json.dumps(doc))
    assert run(capsys, "mf", "validate", "cap.json")[::2] == (0, "")
    code, out, err = run(capsys, "mf", "shift", "cap.json", "--output", "shifted.json")
    if exponent == 2**20:
        assert (code, err) == (0, "")
        shifted = json.loads((workdir / "shifted.json").read_text())
        assert shifted["s0"] == [["-x0^1048576"]]
        assert run(capsys, "mf", "validate", "shifted.json")[::2] == (0, "")
    else:
        assert (code, out) == (2, "")
        assert err == "error [mfkit.cli]: exponent 1048577 exceeds MAX_EXPONENT = 1048576\n"
        assert not (workdir / "shifted.json").exists()


def test_shift_with_every_exponent_at_the_cap_and_the_degree_past_it(workdir, capsys):
    # The valid factorization (1, x0^e*x1^e) with e = MAX_EXPONENT: its
    # degree 2e passes the cap, each exponent meets it, so the shift prints
    # and reads back.
    entry = "x0^1048576*x1^1048576"
    doc = dict(POWER_DOCUMENT, nvars=2, d=2**21, f=entry, s1=[[entry]])
    (workdir / "cap2.json").write_text(json.dumps(doc))
    assert run(capsys, "mf", "validate", "cap2.json")[::2] == (0, "")
    code, _, err = run(capsys, "mf", "shift", "cap2.json", "--output", "shifted.json")
    assert (code, err) == (0, "")
    shifted = json.loads((workdir / "shifted.json").read_text())
    assert shifted["s0"] == [["-x0^1048576*x1^1048576"]]
    assert run(capsys, "mf", "validate", "shifted.json")[::2] == (0, "")


def test_shift_of_degree_two_to_the_40_exits_2(workdir, capsys):
    # The valid factorization (f, 1) of f = x0^(2^40) + x1^(2^40): its shift
    # would print exponents that no command reads.
    f = "(x0^1048576)^1048576 + (x1^1048576)^1048576"
    doc = {"schema": "mfkit/mf-v1", "field": {"type": "Q"}, "nvars": 2, "d": 2**40,
           "f": f, "F0_degrees": [2**40], "F1_degrees": [0], "s0": [[f]], "s1": [["1"]]}
    (workdir / "wide.json").write_text(json.dumps(doc))
    assert run(capsys, "mf", "validate", "wide.json")[::2] == (0, "")
    code, out, err = run(capsys, "mf", "shift", "wide.json")
    assert (code, out) == (2, "")
    assert err == "error [mfkit.cli]: exponent 1099511627776 exceeds MAX_EXPONENT = 1048576\n"


# -- the Shamash rank bound ---------------------------------------------------


def test_shamash_at_the_rank_bound_lists_no_degree(capsys, monkeypatch):
    # The command reads the (degree, count) pairs; it never lists the
    # 4,194,304 degrees of the term.
    def unreachable(degrees):
        raise AssertionError("the command lists the degrees of the term")

    monkeypatch.setattr(DegreeMultiset, "from_iterable", unreachable)
    code, out, _ = run(capsys, "orlov", "shamash", "--n", "23", "--d", "4", "--m", "-11", "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["rank"] == MAX_SHAMASH_RANK
    assert results["degrees"] == [[11 + 2 * j, math.comb(24, 11 - 2 * j)] for j in range(6)]


def test_shamash_past_the_rank_bound_exits_2(capsys, monkeypatch):
    def unreachable(degrees):
        raise AssertionError("a term past the bound lists its degrees")

    monkeypatch.setattr(DegreeMultiset, "from_iterable", unreachable)
    code, out, err = run(capsys, "orlov", "shamash", "--n", "30", "--d", "4", "--m", "-15")
    assert (code, out) == (2, "")
    assert err == ("error [mfkit.orlov]: Shamash term -15 has rank 614429672, "
                   "above MAX_SHAMASH_RANK = 4194304\n")


def test_shamash_at_the_rank_bound_in_one_degree(capsys):
    assert run(capsys, "orlov", "shamash", "--n", "4194303", "--d", "4", "--m", "-1") == (
        0, "degree 1 x 4194304\n", "")


# -- the rho argument bounds --------------------------------------------------


@pytest.mark.parametrize("argv, message", [
    (["rho", "point", "--n", "100000000000"],
     "[mfkit.bott]: n = 100000000000 exceeds MAX_POWER_BITS = 67108864"),
    (["rho", "point", "--n", "9" * 40],
     f"[mfkit.bott]: n = {'9' * 40} exceeds MAX_POWER_BITS = 67108864"),
    (["check", "rho", "--n", "100000000000", "--d", "100000000001", "--value", "1"],
     "[mfkit.orlov]: e + 1 = 50000000001 exceeds MAX_POWER_BITS = 67108864"),
    (["orlov", "shamash", "--n", "20000", "--d", "4", "--m", "-20000"],
     "[mfkit.orlov]: Shamash term -20000 has rank at least 200010000, "
     "above MAX_SHAMASH_RANK = 4194304"),
])
def test_scalar_queries_past_their_size_bounds_exit_2(capsys, argv, message):
    # Each ran out of time or memory, or crashed, before it was bounded.
    assert run(capsys, *argv) == (2, "", f"error {message}\n")


@pytest.fixture
def no_bott_loop(monkeypatch):
    """Every loop of the rho queries fails if reached: past a bound, a
    command must exit before any work."""
    def unreachable(*args):
        raise AssertionError("the work past the bound was reached")

    monkeypatch.setattr(bott, "range", unreachable, raising=False)


def test_rho_structure_sheaf_at_the_degree_bound(capsys):
    # a = 0, where rho(O_X) = 2^(n+1): the one tail step, on the widest power of two.
    d = bott.MAX_RHO_DEGREE
    code, out, err = run(capsys, "rho", "structure-sheaf", "--n", str(d - 1), "--d", str(d))
    assert (code, out, err) == (0, exact_decimal(1 << d) + "\n", "")


def binomial_sum_mod(n: int, d: int, prime: int) -> int:
    # rho(O_X) = 1 + sum_r C(d, d-r) * C(d-r-1, n-r) modulo a prime above d,
    # in O(n) small-integer steps: C(d, r+1) = C(d, r) * (d-r) / (r+1), and
    # with a = d-n-1 and m = n-r, C(a+m+1, m+1) = C(a+m, m) * (a+m+1) / (m+1).
    a = d - n - 1
    lower = [1]  # lower[m] = C(a+m, m)
    for m in range(n):
        lower.append(lower[-1] * (a + m + 1) * pow(m + 1, -1, prime) % prime)
    total, upper = 1, 1  # upper = C(d, r) = C(d, d-r)
    for r in range(n + 1):
        total += upper * lower[n - r]
        upper = upper * (d - r) * pow(r + 1, -1, prime) % prime
    return total % prime


def test_rho_structure_sheaf_at_the_degree_bound_widest_case(capsys):
    # n = d/2: about d/2 steps on either side, the most the bound allows.
    d = bott.MAX_RHO_DEGREE
    n = d // 2
    code, out, err = run(capsys, "rho", "structure-sheaf", "--n", str(n), "--d", str(d))
    assert (code, err) == (0, "")
    value = exact_int(out)
    for prime in (2**61 - 1, 2**31 - 1, 10**9 + 7):
        assert value % prime == binomial_sum_mod(n, d, prime)


@pytest.mark.parametrize("argv, message", [
    (["--n", "63999", "--d", "64001"], "d = 64001 exceeds MAX_RHO_DEGREE = 64000"),
    (["--n", "10", "--d", "10000000000"], "d = 10000000000 exceeds MAX_RHO_DEGREE = 64000"),
])
def test_rho_structure_sheaf_past_the_degree_bound_exits_2(capsys, no_bott_loop, argv, message):
    assert bott.MAX_RHO_DEGREE == 64000
    assert run(capsys, "rho", "structure-sheaf", *argv) == (2, "", f"error [mfkit.bott]: {message}\n")


def test_rho_line_bundle_at_its_bounds(capsys):
    n, twist = bott.MAX_LINE_BUNDLE_N, bott.MAX_LINE_BUNDLE_TWIST
    # Every restricted Bott vector it takes is within the bott bounds.
    assert n <= bott.MAX_BOTT_N and n + 2 * twist <= bott.MAX_BOTT_TWIST
    code, out, _ = run(capsys, "rho", "line-bundle", "--n", str(n), "--d", str(twist), "--j", "0")
    assert (code, out) == (0, exact_decimal(bott.rho_structure_sheaf(n, twist)) + "\n")
    code, out, _ = run(capsys, "rho", "line-bundle", "--n", str(n), "--d", str(twist),
                       "--j", str(-twist))
    assert code == 0 and int(out) > 0


@pytest.mark.parametrize("argv, message", [
    (["--n", "1501", "--d", "1", "--j", "0"], "n = 1501 exceeds MAX_LINE_BUNDLE_N = 1500"),
    (["--n", "2", "--d", "10001", "--j", "0"], "d = 10001 exceeds MAX_LINE_BUNDLE_TWIST = 10000"),
    (["--n", "2", "--d", "1", "--j", "10001"], "|j| = 10001 exceeds MAX_LINE_BUNDLE_TWIST = 10000"),
    (["--n", "2", "--d", "1", "--j", "-10001"], "|j| = 10001 exceeds MAX_LINE_BUNDLE_TWIST = 10000"),
])
def test_rho_line_bundle_past_its_bounds_exits_2(capsys, no_bott_loop, argv, message):
    assert (bott.MAX_LINE_BUNDLE_N, bott.MAX_LINE_BUNDLE_TWIST) == (1500, 10000)
    assert run(capsys, "rho", "line-bundle", *argv) == (2, "", f"error [mfkit.bott]: {message}\n")


def test_bott_queries_at_their_bounds(capsys):
    # The widest binomials: C(l+n, n) at p = 0, l = MAX_BOTT_TWIST, and its
    # Serre dual h^n(Omega^n(-l)).
    n, twist = bott.MAX_BOTT_N, bott.MAX_BOTT_TWIST
    code, out, err = run(capsys, "bott", "eval", "--n", str(n), "--p", "0", "--q", "0",
                         "--l", str(twist))
    assert (code, err) == (0, "")
    h0 = out.strip()
    assert exact_int(h0) % (2**61 - 1) == math.comb(twist + n, n) % (2**61 - 1)
    code, out, err = run(capsys, "bott", "vector", "--n", str(n), "--p", str(n), "--l", str(-twist))
    assert (code, out, err) == (0, f"h^{n}={h0}\n", "")
    # Both twists at the bound: Omega^0(l) contributes h^0, and the subsheaf
    # Omega^0(-l) its h^n, moved to h^(n-1).
    code, out, err = run(capsys, "bott", "restricted", "--n", str(n), "--d", str(2 * twist),
                         "--r", "0", "--t", str(twist))
    assert (code, err) == (0, "")
    assert out == f"h^0={h0}, h^{n - 1}={exact_decimal(math.comb(twist - 1, n))}\n"


@pytest.mark.parametrize("argv, message", [
    (["eval", "--n", "80001", "--p", "0", "--q", "0", "--l", "1"], "n = 80001 exceeds MAX_BOTT_N = 80000"),
    (["eval", "--n", "2", "--p", "2", "--q", "2", "--l", "-200001"],
     "|l| = 200001 exceeds MAX_BOTT_TWIST = 200000"),
    (["vector", "--n", "2", "--p", "0", "--l", "200001"], "|l| = 200001 exceeds MAX_BOTT_TWIST = 200000"),
    (["restricted", "--n", "2", "--d", "1", "--r", "0", "--t", "200001"],
     "|r+t| = 200001 exceeds MAX_BOTT_TWIST = 200000"),
    (["restricted", "--n", "2", "--d", "200002", "--r", "1", "--t", "0"],
     "|r+t-d| = 200001 exceeds MAX_BOTT_TWIST = 200000"),
    (["restricted", "--n", "1000000", "--d", "1", "--r", "500000", "--t", "1000000"],
     "n = 1000000 exceeds MAX_BOTT_N = 80000"),
    (["vector", "--n", "3000000", "--p", "1000000", "--l", "3000000"],
     "n = 3000000 exceeds MAX_BOTT_N = 80000"),
    (["eval", "--n", "400000", "--p", "200000", "--q", "0", "--l", "400000"],
     "n = 400000 exceeds MAX_BOTT_N = 80000"),
])
def test_bott_queries_past_their_bounds_exit_2(capsys, monkeypatch, argv, message):
    def unreachable(*args):
        raise AssertionError("a binomial past the bound was reached")

    monkeypatch.setattr(bott, "binom", unreachable)
    assert (bott.MAX_BOTT_N, bott.MAX_BOTT_TWIST) == (80000, 200000)
    assert run(capsys, "bott", *argv) == (2, "", f"error [mfkit.bott]: {message}\n")


def test_sweep_rows_at_the_degree_bound():
    # The command prints 159 MB here; the rows it prints are checked in-process.
    d_max = bott.MAX_SWEEP_DEGREE
    cells = 0
    for n, rhos in bott.rho_sweep_rows(d_max + 5, d_max):
        for d, rho in enumerate(rhos, n + 1):
            cells += 1
            if d == n + 1:
                assert rho == 2 ** (n + 1)
            elif d == d_max and n % 97 == 0:
                assert rho == bott.rho_structure_sheaf(n, d)
    assert cells == d_max * (d_max - 1) // 2


@pytest.mark.parametrize("output", [False, True])
def test_sweep_past_the_degree_bound_exits_2_before_any_output(workdir, capsys, no_bott_loop, output):
    argv = ["sweep", "rho-structure-sheaf", "--n-max", "1", "--d-max", "1001"]
    assert run(capsys, *argv, *(["--output", "sweep.csv"] if output else [])) == (
        2, "", "error [mfkit.bott]: d_max = 1001 exceeds MAX_SWEEP_DEGREE = 1000\n")
    assert not (workdir / "sweep.csv").exists()


@pytest.mark.parametrize("field", [[], ["--field", "Qi"]])
def test_fermat_prime_outside_a_prime_field_exits_2(capsys, field):
    # --p names the modulus of --field Fp, and no other field takes one.
    argv = ["mf", "fermat", "--pairs", "1", "--half-degree", "1", *field, "--p", "13"]
    assert run(capsys, *argv) == (2, "", "error [mfkit.cli]: --p applies to --field Fp only\n")


@pytest.mark.parametrize("n", [0, -3])
def test_table_document_with_n_below_1_exits_2(workdir, capsys, n):
    doc = {"schema": "mfkit/table-v1", "n": n, "entries": [[0, 0, 1]]}
    (workdir / "t.json").write_text(json.dumps(doc))
    assert run(capsys, "rho", "from-table", "t.json") == (
        2, "", "error [mfkit.cli]: n must be >= 1\n")
    with pytest.raises(SchemaError, match="^n must be >= 1$"):
        cli.document_to_table(doc)


@pytest.mark.parametrize("raw, accepted", [
    ("", True), ("1", True), (" 4 ", True), ("+4", True), ("4_0", True), ("٤", True),
    ("0", False), ("-1", False), ("1.0", False), ("four", False),
])
def test_thread_setting_accepted_when_int_reads_at_least_1(capsys, monkeypatch, raw, accepted):
    # Unset or empty, or any text that int() reads as 1 or more; "٤" is
    # the Arabic-Indic digit four.
    monkeypatch.setenv("MFKIT_THREADS", raw)
    refusal = f"error [mfkit.cli]: MFKIT_THREADS must be a positive integer, got {raw!r}\n"
    argv = ("sweep", "rho-structure-sheaf", "--n-max", "2", "--d-max", "3")
    assert run(capsys, *argv) == ((0, SWEEP_CSV, "") if accepted else (2, "", refusal))


@pytest.mark.parametrize("command, doc, key", [
    ("mf validate", fermat_document(nvars=True), "nvars"),
    ("mf validate", fermat_document(d=True), "d"),
    ("mf validate", fermat_document(d=False), "d"),
    ("mf validate", fermat_document(field=True), "field"),
    ("mf validate", fermat_document(f=True), "f"),
    ("mf validate", fermat_document(s0=True), "s0"),
    ("rho from-table", {"schema": "mfkit/table-v1", "n": True, "entries": []}, "n"),
    ("rho from-table", {"schema": "mfkit/table-v1", "n": 3, "entries": False}, "entries"),
])
def test_json_boolean_for_any_key_exits_2(workdir, capsys, command, doc, key):
    (workdir / "in.json").write_text(json.dumps(doc))
    assert run(capsys, *command.split(), "in.json") == (
        2, "", f"error [mfkit.cli]: key {key!r} has the wrong type\n")


# The input digest against hashlib: inputs below cli.BUILTIN_SHA256_BELOW
# take the interpreter's builtin module (_sha256 before Python 3.12,
# _sha2 from it on), longer ones hashlib.
@given(st.binary(max_size=4096))
def test_input_digest_matches_hashlib(data):
    assert cli._sha256_hex(data) == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("size", [0, cli.BUILTIN_SHA256_BELOW - 1, cli.BUILTIN_SHA256_BELOW,
                                  cli.BUILTIN_SHA256_BELOW + 1, 3 * cli.BUILTIN_SHA256_BELOW + 5])
def test_input_digest_matches_hashlib_across_the_switch(size):
    assert cli.BUILTIN_SHA256_BELOW == 1 << 20
    data = bytes(range(251)) * (size // 251) + b"x" * (size % 251)
    assert cli._sha256_hex(data) == hashlib.sha256(data).hexdigest()


def test_input_digest_without_the_builtin_module(monkeypatch):
    # An interpreter built without it: importing the name fails.
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)
    assert cli._sha256_hex(b"mfkit") == hashlib.sha256(b"mfkit").hexdigest()


def test_command_matches_a_frozen_dataclass(monkeypatch):
    # cli.Command is the fourteenth value class, beside the thirteen that
    # tests/test_value_class.py samples: its twin check, run on Command.
    validate = cli.COMMANDS[0]
    monkeypatch.setitem(test_value_class.SAMPLES, cli.Command, lambda: [
        validate, cli.Command(**test_value_class.field_values(validate)), cli.COMMANDS[-1],
        cli.Command("mf", "validate", "", validate.compute)])
    test_value_class.test_matches_a_frozen_dataclass(cli.Command)
    args = ("mf", "validate", "", validate.compute)
    twin = test_value_class.twin(cli.Command)(*args)
    assert test_value_class.field_values(cli.Command(*args)) == test_value_class.field_values(twin)
