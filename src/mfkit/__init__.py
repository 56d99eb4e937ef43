"""mfkit: graded matrix factorizations of hypersurface polynomials,
Bott-formula sheaf cohomology, and the translation between Betti tables
and Beilinson-type cohomology tables, with instance checkers for the
2^e rank bound and the 2^(e+1) cohomology bound.

The submodules and public names below are looked up on each access
(PEP 562), so importing the package, or one command of its CLI, loads
only the modules in use."""

from importlib import import_module

# The function bott() itself stays namespaced (mfkit.bott.bott) so the
# submodule attribute is not shadowed.
_EXPORTS = {
    "algebra": "GF QI QQ Field FpElement GaussianRational NEG_INFINITY ParseError "
               "Polynomial degree_info parse_poly",
    "graded": "DegreeMultiset HomogeneousMatrix compose",
    "mf": "BettiTable MatrixFactorization betti direct_sum dual fermat is_reduced is_valid "
          "presentation_equivalent rank_one reduce require_valid shift tensor trivial_f_one "
          "trivial_one_f twist validate zero_mf",
    "bott": "CohomologyVector binom bott_vector restricted_bott rho_line_bundle rho_point "
            "rho_structure_sheaf",
    "orlov": "CohomologyTable HypersurfaceContext Phi0Descriptor Verdict betti_to_table "
             "check_bgs check_rho dual_table euclid_split phi0_residue rho_of_mf rho_of_table "
             "shamash_degrees table_to_betti",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_EXPORTS, *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
