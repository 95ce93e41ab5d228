"""The package's public names: a change to them is a contract change and
shows up here as a test diff."""

import functools
import inspect
import pathlib
import re
import tracemalloc

import numpy as np
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


def test_public_functions_take_no_budget():
    # A certified routine takes a tolerance; its evaluation or product
    # budget is a module constant, not a ``max_...`` parameter.
    budgets = [
        f"{name}({param})"
        for name in extremal.__all__
        if inspect.isfunction(getattr(extremal, name))
        for param in inspect.signature(getattr(extremal, name)).parameters
        if param.startswith("max_")
    ]
    assert budgets == []


# The closed forms of one argument, each behind specfun._elementwise, with
# their parameter names and the length of their tuple result (None for a
# single array).
ELEMENTWISE = [
    (specfun.sinc, ["x"], None),
    (specfun.trigamma, ["x"], None),
    (specfun.si_cin, ["x"], 2),
    (majorants.kernel_g, ["u"], None),
    (majorants.kernel_H, ["u"], None),
    (majorants.kernel_h, ["u"], None),
    (majorants.G_closed, ["x", "reflect"], None),
    (majorants.M_closed, ["x"], None),
    (majorants.psi_closed, ["x"], None),
    (majorants.beurling_b, ["x"], None),
    (majorants.psi_beurling_closed, ["x"], None),
    (majorants.closed_columns, ["x"], 5),
    (fourier.g_hat, ["t"], None),
    (fourier.psi_hat, ["t"], None),
    (fourier.psi_beurling_hat, ["t"], None),
]


def test_closed_forms_share_one_elementwise_wrapper():
    # The scalar/array rule lives in specfun._elementwise alone: each closed
    # form of one argument is wrapped by it and keeps its parameter names.
    for fn, params, _ in ELEMENTWISE:
        assert hasattr(fn, "__wrapped__"), fn.__name__
        assert list(inspect.signature(fn).parameters) == params, fn.__name__
    assert not hasattr(specfun, "_as_array")


def test_remark_chunks_take_the_closed_form_block():
    # A remark chunk is one specfun._BLOCK of kernel entries: hilbert keeps
    # no chunk size of its own.
    assert not hasattr(hilbert, "_KERNEL_ENTRIES")


def _results(out, count):
    if count is None:
        assert not isinstance(out, tuple)
        return (out,)
    assert isinstance(out, tuple) and len(out) == count
    return out


@pytest.mark.parametrize(
    "fn, params, count",
    ELEMENTWISE + [(functools.partial(majorants.G_closed, reflect=True), ["x"], 2)],
    ids=[fn.__name__ for fn, _, _ in ELEMENTWISE] + ["G_closed_reflect"],
)
def test_elementwise_convention(fn, params, count):
    # Points inside and outside the band |t| < 1, all positive for trigamma.
    grid = np.linspace(0.1, 2.3, 12).reshape(3, 4)
    flat = _results(fn(grid.ravel()), count)
    for value, whole in zip(_results(fn(grid), count), flat):
        assert value.shape == (3, 4)
        assert value.tobytes() == whole.reshape(3, 4).tobytes()
    # A scalar of any kind gives Python floats or complexes, bit for bit the
    # entries of an array call.
    for x in (0.3, np.float64(0.3), np.array(0.3)):
        out = _results(fn(x), count)
        assert all(type(v) in (float, complex) for v in out)
        assert out == tuple(v[0] for v in _results(fn(np.array([0.3])), count))
    assert _results(fn(**{params[0]: 0.3}), count) == out
    assert all(v.shape == (2,) for v in _results(fn([0.3, 0.7]), count))
    # Past specfun._BLOCK points the input goes through fn a block at a
    # time: bit for bit, dtype and order of a tuple included, the results
    # of calls on 1,000-point slices.
    long = np.linspace(0.1, 40.0, 2 * specfun._BLOCK + 3)
    pieces = [_results(fn(long[i : i + 1000]), count)
              for i in range(0, long.size, 1000)]
    for k, value in enumerate(_results(fn(long), count)):
        want = np.concatenate([piece[k] for piece in pieces])
        assert value.dtype == want.dtype
        assert value.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "fn",
    [majorants.closed_columns, majorants.psi_closed, majorants.beurling_b,
     fourier.psi_hat],
    ids=lambda fn: fn.__name__,
)
def test_closed_form_memory_is_bounded(fn):
    # The blocks bound a closed form's temporaries: on 200,000 points it
    # traces at most its outputs plus 4 MB.
    x = np.linspace(-1e4, 1e4, 200_000)
    fn(x[:10])  # anything loaded on first use
    tracemalloc.start()
    try:
        out = fn(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(v.nbytes for v in (out if isinstance(out, tuple) else (out,)))
    assert peak <= outputs + 4_000_000
