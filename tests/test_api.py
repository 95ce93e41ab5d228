"""The package's public names: a change to them is a contract change and
shows up here as a test diff."""

import inspect
import pathlib
import re

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


def test_public_functions_have_callers():
    # Every public function is named in the package's own modules or its
    # scripts, so none is kept for the tests alone.  The function's ``def``
    # line and its ``"name",`` entry in an ``__all__`` list do not count;
    # classes and constants are exempt.
    root = pathlib.Path(__file__).resolve().parents[1]
    files = [p for p in (root / "src" / "extremal").glob("*.py")
             if p.name != "__init__.py"]
    files += (root / "scripts").glob("*.py")
    lines = [line.strip() for p in files
             for line in p.read_text(encoding="utf-8").splitlines()]
    uncalled = []
    for name in extremal.__all__:
        if not inspect.isfunction(getattr(extremal, name)):
            continue
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(line) for line in lines
                   if not line.startswith(f"def {name}(") and line != f'"{name}",'):
            uncalled.append(name)
    assert uncalled == []
