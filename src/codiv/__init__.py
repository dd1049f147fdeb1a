"""Codivergences, divergence matrices and their structural guarantees.

A codivergence D(p0 | p1, p2) measures the relative position of two
probability measures around a reference measure; this package evaluates the
covariance- and correlation-type constructions exactly on finite discrete
measures, provides closed forms for common parametric families together with
independent quadrature/series oracles, and verifies the structural
guarantees (positive semi-definiteness, rank identities, data-processing
inequality, local bilinear expansion) of the associated divergence matrices.

Extended-real results are plain floats; ``math.inf`` is the infinite value.
"""

from .codivergence import (PHI_IDENTITY, PHI_SQRT, Features, PhiFunction, chi2_codiv,
                           features, hellinger_codiv, phi_alpha, r_phi, v_phi)
from .errors import (CodivError, DegeneratePhiError, DimensionMismatchError,
                     DominationError, KindMismatchError, OracleFailureError,
                     PreconditionError)
from .families import (BernoulliProd, ExponentialProd, GammaProd, GaussianIso, ParamFamily,
                       PoissonProd, family_from_json_dict, gamma_first_order, r_alpha_closed,
                       r_alpha_closed_log1p)
from .local import (ExpansionReport, OffSupportReport, PerturbationPair,
                    expansion_check, fisher_gram, fisher_inner,
                    geometric_decay_ok, hellinger_off_support_check)
from .matrices import (DiagnosticStatus, DivMatrix, DpiReport, EigenSummary,
                       MarkovKernel, RankReport, chi2_signed,
                       chi2_signed_decomposition_check, divergence_matrix,
                       dpi_check, eigen_summary, jacobi_eigenvalues,
                       link_identity_check, phi_normalizers, push_forward,
                       quadratic_form_check, rank_with_identity)
from .measures import (DiscreteMeasure, JordanDecomposition, SignedMeasure,
                       dominated_by, ess_sup_ratio, jordan_decompose, perturb,
                       validity_radius)
from .oracles import (adaptive_gauss_legendre, oracle_divergence_matrix,
                      oracle_natural_r_alpha, oracle_r_alpha, r_alpha_product)

__version__ = "0.1.0"
