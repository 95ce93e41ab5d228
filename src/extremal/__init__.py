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

from .specfun import sinc, trigamma
from .quadrature import (
    QuadResult,
    ToleranceNotMetError,
    integrate_adaptive,
)
from .majorants import (
    G_closed,
    M_closed,
    beurling_b,
    line_integral,
    psi_beurling_closed,
    psi_closed,
)
from .fourier import (
    g_hat,
    numeric_ft,
    psi_beurling_hat,
    psi_hat,
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
    SpectralEstimate,
    bilinear_form,
    compute_deltas,
    constant_search,
    remark_experiment,
    sharp_constant,
    telescoping_identity,
    telescoping_sum,
    weighted_norm,
)

__version__ = "0.1.0"

__all__ = [
    "sinc",
    "trigamma",
    "QuadResult",
    "ToleranceNotMetError",
    "integrate_adaptive",
    "G_closed",
    "M_closed",
    "beurling_b",
    "line_integral",
    "psi_beurling_closed",
    "psi_closed",
    "g_hat",
    "numeric_ft",
    "psi_beurling_hat",
    "psi_hat",
    "BOUND_FOURIER",
    "BOUND_MONTGOMERY_VAUGHAN",
    "BOUND_PREISSMANN",
    "BOUND_SCHUR",
    "CONJECTURED_SHARP",
    "SELBERG_REPORTED",
    "DuplicateNodesError",
    "NodeSystem",
    "SpectralEstimate",
    "bilinear_form",
    "compute_deltas",
    "constant_search",
    "remark_experiment",
    "sharp_constant",
    "telescoping_identity",
    "telescoping_sum",
    "weighted_norm",
    "__version__",
]
