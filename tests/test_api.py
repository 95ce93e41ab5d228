"""The package's public names: a change to them is a contract change and
shows up here as a test diff."""

import extremal


def test_public_names():
    assert extremal.__all__ == [
        "sinc",
        "triangle",
        "trigamma",
        "QuadResult",
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
