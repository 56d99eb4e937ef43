"""The value classes against stdlib frozen dataclasses with the same
fields, defaults and ``__post_init__``."""

import dataclasses
from fractions import Fraction
from itertools import product

import pytest

from mfkit import algebra, bott, graded, mf, orlov
from mfkit.algebra import GF, QI, QQ, parse_poly

CONTEXT = orlov.HypersurfaceContext(3, 4)
F = mf.fermat(2, 2)

# Each class with instances to compare, equal pairs among them.
SAMPLES = {
    algebra.GaussianRational: lambda: [
        algebra.GaussianRational(Fraction(1, 2), Fraction(0)),
        algebra.GaussianRational(Fraction(1, 2), 0),
        algebra.GaussianRational(1, 2), algebra.GaussianRational(1, -2)],
    algebra.FpElement: lambda: [
        algebra.FpElement(3, 13), algebra.FpElement(3, 13), algebra.FpElement(4, 13),
        algebra.FpElement(3, 7)],
    algebra.Field: lambda: [QQ, algebra.Field("Q"), QI, GF(13), GF(13), GF(7)],
    algebra.Polynomial: lambda: [
        parse_poly("x0 + 2*x1", QQ, 2), parse_poly("2*x1 + x0", QQ, 2),
        parse_poly("x0 + 2*x1", GF(13), 2), parse_poly("x0 + i*x1", QI, 2),
        algebra.Polynomial.zero(QQ, 2)],
    graded.DegreeMultiset: lambda: [
        graded.DegreeMultiset((0, 1, 1)), graded.DegreeMultiset([0, 1, 1]),
        graded.DegreeMultiset(()), graded.DegreeMultiset((2,))],
    graded.HomogeneousMatrix: lambda: [
        F.s0, mf.fermat(2, 2).s0, F.s1, F.s0.twist(1),
        graded.HomogeneousMatrix.identity(QI, 4, F.f0_degrees)],
    mf.MatrixFactorization: lambda: [F, mf.fermat(2, 2), mf.shift(F), mf.fermat(1, 1)],
    mf.BettiTable: lambda: [
        mf.betti(F), mf.betti(mf.fermat(2, 2)), mf.BettiTable.from_mapping({(0, 1): 2}),
        mf.BettiTable(())],
    bott.CohomologyVector: lambda: [
        bott.bott_vector(3, 1, 2), bott.bott_vector(3, 1, 2), bott.restricted_bott(3, 4, 1, 0),
        bott.CohomologyVector(2, ())],
    orlov.HypersurfaceContext: lambda: [
        CONTEXT, orlov.HypersurfaceContext(n=3, d=4), orlov.HypersurfaceContext(4, 5)],
    orlov.CohomologyTable: lambda: [
        orlov.CohomologyTable.from_mapping(3, {(0, 1): 2, (1, 0): 1}),
        orlov.CohomologyTable(3, (((0, 1), 2), ((1, 0), 1))),
        orlov.CohomologyTable(4, (((0, 1), 2), ((1, 0), 1)))],
    orlov.Phi0Descriptor: lambda: [
        orlov.Phi0Descriptor(1, -1, 2), orlov.phi0_residue(CONTEXT, 0),
        orlov.Phi0Descriptor(exterior_power=1, twist=-1, shift=2)],
    orlov.Verdict: lambda: [
        orlov.check_rho(CONTEXT, 4), orlov.check_rho(CONTEXT, 4), orlov.check_rho(CONTEXT, 3),
        orlov.Verdict("c", 3, 4, 0, 1, 4, 4, True, notes=())],
}

# Arguments whose __post_init__ raises, by class.
REJECTED = {
    algebra.Field: [("X",), ("Fp", 4), ("Fp", None), ("Fp", 2**31), ("Q", 3)],
    graded.DegreeMultiset: [((2, 1),), ((True,),), ((0, 1.5),)],
    bott.CohomologyVector: [(2, ((3, 1),)), (2, ((0, 0),)), (2, ((1, 1), (0, 1)))],
    orlov.HypersurfaceContext: [(0, 2), (1, 0)],
}


def twin(cls):
    """A stdlib frozen dataclass with the fields, defaults and
    ``__post_init__`` of ``cls``."""
    fields = [(name, object, dataclasses.field(default=cls.__dict__[name]))
              if name in cls.__dict__ else (name, object) for name in cls.__annotations__]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace, frozen=True)


def field_values(value) -> dict:
    return {name: getattr(value, name) for name in type(value).__annotations__}


def test_every_value_class_is_sampled():
    modules = (algebra, bott, graded, mf, orlov)
    classes = {value for module in modules for value in vars(module).values()
               if isinstance(value, type) and value.__module__ == module.__name__
               and value.__setattr__ is algebra.Field.__setattr__}
    assert classes == set(SAMPLES)
    assert len(classes) == 13


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_matches_a_frozen_dataclass(cls):
    Twin = twin(cls)
    values = SAMPLES[cls]()
    twins = [Twin(**field_values(value)) for value in values]
    assert len(set(values)) < len(values)  # an equal pair is sampled
    for value, other in zip(values, twins):
        assert type(value) is cls
        assert repr(value) == repr(other)
        if cls is not algebra.Polynomial:
            assert hash(value) == hash(other)
        assert value != other and other != value  # different classes
        for name in cls.__annotations__:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert field_values(value) == field_values(other)
    for (a, b), (ta, tb) in zip(product(values, repeat=2), product(twins, repeat=2)):
        assert (a == b, a != b) == (ta == tb, ta != tb)
        # A Polynomial hashes its packed view, not its terms, so its hash
        # is not the twin's; equal values must still hash equal.
        assert a != b or hash(a) == hash(b)


def test_defaults():
    assert algebra.Field("Q").p is None and twin(algebra.Field)("Q").p is None
    args = ("c", 3, 4, 0, 1, 4, 4, True)
    verdict, other = orlov.Verdict(*args), twin(orlov.Verdict)(*args)
    assert (verdict.applicable, verdict.trivial, verdict.notes) == (
        other.applicable, other.trivial, other.notes) == (True, False, orlov.UNCHECKED_HYPOTHESES)
    assert repr(verdict) == repr(other)


@pytest.mark.parametrize("cls", list(REJECTED), ids=lambda cls: cls.__name__)
def test_post_init_errors(cls):
    Twin = twin(cls)
    for args in REJECTED[cls]:
        with pytest.raises(ValueError) as ours:
            cls(*args)
        with pytest.raises(ValueError) as theirs:
            Twin(*args)
        assert str(ours.value) == str(theirs.value), args
    coerced = algebra.GaussianRational(1, 2)
    assert type(coerced.re) is type(coerced.im) is Fraction
    assert repr(coerced) == repr(twin(algebra.GaussianRational)(1, 2))
