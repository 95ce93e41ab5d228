"""The package's public names: a change to them is a contract change and
shows up here as a test diff."""

import pytest

import extremal
from extremal import fourier, hilbert, majorants, quadrature, specfun


def test_public_names():
    assert extremal.__all__ == [
        "sinc",
        "trigamma",
        "QuadResult",
        "ToleranceNotMetError",
        "integrate_adaptive",
        "G_closed",
        "M_closed",
        "beurling_b",
        "eval_kernel",
        "line_integral",
        "psi_beurling_closed",
        "psi_closed",
        "band_limit_check",
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
        "verify_inequality",
        "weighted_norm",
        "__version__",
    ]
    for name in extremal.__all__:
        assert hasattr(extremal, name)


@pytest.mark.parametrize(
    "module", [majorants, specfun, fourier, hilbert, quadrature],
    ids=lambda module: module.__name__,
)
def test_submodule_names_exist(module):
    # A stale entry would break ``from module import *``.
    for name in module.__all__:
        assert hasattr(module, name), name
