"""Extremal one-sided band-limited approximations of sgn and weighted
Hilbert-type inequalities.

The package builds the monotone extremal majorant M of the sign function
(exponential type 2 pi, deficit integral 2), the classical interpolating
majorant B, their Fourier transforms, and uses the frequency-domain
telescoping identity to verify the weighted Hilbert-type inequality
|sum_{m != n} a_m conj(a_n)/(lambda_m - lambda_n)| <= C sum |a_n|^2/delta_n
with C = 2 pi, alongside spectral computation of per-configuration sharp
constants.
"""

from .specfun import sinc, triangle, trigamma
from .quadrature import (
    QuadResult,
    BudgetExceededError,
    ToleranceNotMetError,
    integrate_adaptive,
)
from .majorants import (
    G_closed,
    M_closed,
    beurling_b,
    eval_G,
    eval_deficit,
    eval_kernel,
    eval_majorant,
    phi_closed,
    psi_beurling_closed,
    psi_closed,
)
from .integrals import integrate_with_tails, poisson_check
from .fourier import (
    band_limit_check,
    g_hat,
    numeric_ft,
    psi_beurling_hat,
    psi_hat,
    psi_hat_scaled,
)
from .hilbert import (
    BOUND_FOURIER,
    BOUND_MONTGOMERY_VAUGHAN,
    BOUND_PREISSMANN,
    BOUND_SCHUR,
    CONJECTURED_SHARP,
    SELBERG_REPORTED,
    DuplicateNodesError,
    NodeSystem,
    PowerIterationError,
    SpectralEstimate,
    bilinear_form,
    compute_deltas,
    constant_search,
    remark_experiment,
    sharp_constant,
    telescoping_identity,
    telescoping_sum,
    verify_inequality,
    weighted_norm,
)

__version__ = "0.1.0"

__all__ = [
    "sinc",
    "triangle",
    "trigamma",
    "QuadResult",
    "BudgetExceededError",
    "ToleranceNotMetError",
    "integrate_adaptive",
    "G_closed",
    "M_closed",
    "beurling_b",
    "eval_G",
    "eval_deficit",
    "eval_kernel",
    "eval_majorant",
    "phi_closed",
    "psi_beurling_closed",
    "psi_closed",
    "integrate_with_tails",
    "poisson_check",
    "band_limit_check",
    "g_hat",
    "numeric_ft",
    "psi_beurling_hat",
    "psi_hat",
    "psi_hat_scaled",
    "BOUND_FOURIER",
    "BOUND_MONTGOMERY_VAUGHAN",
    "BOUND_PREISSMANN",
    "BOUND_SCHUR",
    "CONJECTURED_SHARP",
    "SELBERG_REPORTED",
    "DuplicateNodesError",
    "NodeSystem",
    "PowerIterationError",
    "SpectralEstimate",
    "bilinear_form",
    "compute_deltas",
    "constant_search",
    "remark_experiment",
    "sharp_constant",
    "telescoping_identity",
    "telescoping_sum",
    "verify_inequality",
    "weighted_norm",
    "__version__",
]
