"""Codivergences, divergence matrices and their structural guarantees.

A codivergence D(p0 | p1, p2) measures the relative position of two
probability measures around a reference measure; this package evaluates the
covariance- and correlation-type constructions exactly on finite discrete
measures, provides closed forms for common parametric families together with
independent quadrature/series oracles, and verifies the structural
guarantees (positive semi-definiteness, rank identities, data-processing
inequality, local bilinear expansion) of the associated divergence matrices.

Extended-real results are plain floats; ``math.inf`` is the infinite value.
Each submodule loads on first use of one of the names below (PEP 562).
"""

import importlib

_EXPORTS = {  # module -> the names it exports through the package
    "codivergence": "PHI_IDENTITY PHI_SQRT Features PhiFunction chi2_codiv features "
                    "hellinger_codiv phi_alpha r_phi v_phi",
    "errors": "CodivError DegeneratePhiError DimensionMismatchError DominationError "
              "KindMismatchError OracleFailureError PreconditionError",
    "families": "BernoulliProd ExponentialProd GammaProd GaussianIso ParamFamily PoissonProd "
                "family_from_json_dict gamma_first_order r_alpha_closed r_alpha_closed_log1p",
    "local": "ExpansionReport OffSupportReport PerturbationPair expansion_check fisher_gram "
             "fisher_inner geometric_decay_ok hellinger_off_support_check",
    "matrices": "DivMatrix DpiReport EigenSummary MarkovKernel RankReport "
                "chi2_signed chi2_signed_decomposition_check divergence_matrix dpi_check "
                "eigen_summary jacobi_eigenvalues link_identity_check phi_normalizers "
                "push_forward quadratic_form_check rank_with_identity",
    "measures": "DiscreteMeasure JordanDecomposition SignedMeasure dominated_by ess_sup_ratio "
                "jordan_decompose perturb validity_radius",
    "oracles": "adaptive_gauss_legendre oracle_divergence_matrix oracle_r_alpha trapezoid",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
