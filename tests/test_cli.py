import hashlib
import json
import math

import pytest

from mfkit import mf
from mfkit.algebra import GF, QI, parse_poly
from mfkit.cli import SchemaError, document_to_mf, main, mf_to_document

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
