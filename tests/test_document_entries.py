"""f is one more entry text of its document.

``cli.document_to_mf`` parses f through the entry memo's fill function
and ``cli.mf_to_document`` prints it through the id-keyed text memo, so a
trivial summand's f is parsed once and printed once.  Both are checked
against the paths they replaced (``_factories.reference_document_to_mf``
and ``reference_mf_to_document``), and ``cli._read_json``, which holds one
copy of its input at a time, against ``json.loads`` of the bytes."""

import codecs
import hashlib
import json
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfkit import cli, mf
from mfkit.algebra import QI, QQ, Polynomial, parse_poly
from mfkit.cli import SchemaError, document_to_mf, main, mf_to_document

from _factories import FP13, reference_document_to_mf, reference_mf_to_document

FIELDS = {"QQ": QQ, "QQ(i)": QI, "GF(13)": FP13}


def nontrivial(field, m):
    """A Fermat factorization of sum x_k^(2m) in four variables where the
    field has a square root of -1; over QQ, the solo factor (x0^m, x0^m)
    of x0^(2m) in as many variables."""
    if field.has_sqrt_minus_one():
        return mf.fermat(2, m, field=field)
    w = Polynomial.variable(field, 4, 0) ** m
    return mf.rank_one(w * w, w, w)


@st.composite
def factorizations(draw):
    """A trivial summand (1, f) or (f, 1), alone or in a direct sum, in
    either order, with a Fermat factorization of the same f."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    G = nontrivial(field, draw(st.integers(1, 2)))
    trivial = draw(st.sampled_from([mf.trivial_one_f, mf.trivial_f_one]))(G.f)
    parts = draw(st.sampled_from([[trivial], [trivial, G], [G, trivial], [trivial, G, trivial]]))
    F = parts[0]
    for part in parts[1:]:
        F = mf.direct_sum(F, part)
    return F


def outcome(read, doc):
    """``read(doc)``, or the type and message of what it raised."""
    try:
        return read(doc)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@st.composite
def documents(draw):
    """The document of a drawn factorization, perturbed: cells that repeat
    one text (f's among them) under other bounds, degree lists moved so
    that a bound shrinks below a product, an unparseable f that is also a
    cell, or a negative d."""
    doc = mf_to_document(draw(factorizations()))
    texts = sorted({doc["f"], "1", "0", "x0*x1", "x1^2", "2*x0 + x3"}
                   | {text for key in ("s0", "s1") for row in doc[key] for text in row})
    for _ in range(draw(st.integers(0, 4))):
        key = draw(st.sampled_from(["s0", "s1"]))
        r = draw(st.integers(0, len(doc[key]) - 1))
        c = draw(st.integers(0, len(doc[key][r]) - 1))
        doc[key][r][c] = draw(st.sampled_from(texts))
    for key in ("F0_degrees", "F1_degrees"):
        shift = draw(st.integers(-2, 2))
        doc[key] = [m + shift for m in doc[key]]
    change = draw(st.sampled_from(["none", "unparseable f", "negative d"]))
    if change == "unparseable f":
        doc["f"] = draw(st.sampled_from(["x0^^2", "x9", "x0 +", "(x0"]))
        doc["s0"][0][0] = doc["f"]
    elif change == "negative d":
        doc["d"] = draw(st.integers(-3, -1))
    return doc


@given(documents())
def test_reading_matches_the_separate_f_path(doc):
    assert outcome(document_to_mf, doc) == outcome(reference_document_to_mf, doc)


@given(factorizations())
def test_writing_matches_the_separate_f_path(F):
    assert json.dumps(mf_to_document(F), indent=2) == json.dumps(reference_mf_to_document(F), indent=2)


@given(documents())
def test_rewriting_read_documents_matches(doc):
    F = outcome(document_to_mf, doc)
    if isinstance(F, mf.MatrixFactorization):
        assert json.dumps(mf_to_document(F), indent=2) == json.dumps(reference_mf_to_document(F), indent=2)


def test_a_negative_d_keeps_the_bound_message_of_f():
    doc = mf_to_document(mf.trivial_one_f(parse_poly("x0^2 + x1^2", QQ, 2)))
    doc["d"] = -1
    with pytest.raises(SchemaError, match=r"^f: degree 2 exceeds the bound -1"):
        document_to_mf(doc)


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("trivial", [mf.trivial_one_f, mf.trivial_f_one])
def test_f_of_a_trivial_summand_is_parsed_once(name, trivial):
    F = trivial(nontrivial(FIELDS[name], 2).f)
    doc = mf_to_document(F)
    with mock.patch("mfkit.algebra.parse_poly", wraps=parse_poly) as parse:
        G = document_to_mf(doc)
    assert [call.args[0] for call in parse.call_args_list].count(doc["f"]) == 1
    assert G == F and (G.s1 if trivial is mf.trivial_one_f else G.s0).rows[0][0][1] is G.f


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("trivial", [mf.trivial_one_f, mf.trivial_f_one])
def test_f_of_a_trivial_summand_is_printed_once(monkeypatch, name, trivial):
    F = trivial(nontrivial(FIELDS[name], 2).f)
    printed, to_text = [], Polynomial.__str__

    def counting(poly):
        printed.append(poly)
        return to_text(poly)
    monkeypatch.setattr(Polynomial, "__str__", counting)
    doc = mf_to_document(F)
    assert sum(poly is F.f for poly in printed) == 1
    assert doc == reference_mf_to_document(F)


# -- reading the input with one copy ------------------------------------------


TEXT = json.dumps(mf_to_document(mf.fermat(2, 1)))


@pytest.mark.parametrize("data", [
    TEXT.encode(),
    codecs.BOM_UTF8 + TEXT.encode(),
    codecs.BOM_UTF8 * 2 + TEXT.encode(),  # the second BOM is text, refused as json.loads refuses it
    TEXT.encode("utf-16"),
    TEXT.encode("utf-16-le"),
    TEXT.encode("utf-16-be"),
    TEXT.encode("utf-32"),
    b'{"schema": "\xff"}',
    b"[" * 100_000 + b"]" * 100_000,
    b"",
], ids=["utf-8", "utf-8 BOM", "two BOMs", "utf-16", "utf-16-le", "utf-16-be", "utf-32",
        "invalid utf-8", "deep", "empty"])
def test_read_json_reads_as_json_loads_reads_bytes(tmp_path, data):
    path = tmp_path / "in.json"
    path.write_bytes(data)

    def reference(path):
        try:
            return json.loads(data), hashlib.sha256(data).hexdigest()
        except (json.JSONDecodeError, RecursionError) as exc:
            raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    assert outcome(cli._read_json, str(path)) == outcome(reference, str(path))


def test_invalid_utf8_exits_2_naming_the_byte(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_bytes(b'{"schema": "\xff"}')
    assert main(["mf", "validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error [mfkit.cli]: 'utf-8' codec can't decode byte 0xff in position 12: "
                            "invalid start byte\n")


@pytest.mark.parametrize("encode", [
    lambda text: codecs.BOM_UTF8 + text.encode(),
    lambda text: text.encode("utf-16"),
], ids=["utf-8 BOM", "utf-16"])
def test_bom_and_utf16_documents_validate(tmp_path, capsys, encode):
    path = tmp_path / "in.json"
    path.write_bytes(encode(TEXT))
    assert main(["mf", "validate", "--json", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["inputs"] == {"in.json": hashlib.sha256(path.read_bytes()).hexdigest()}
    assert report["results"]["valid"] is True
