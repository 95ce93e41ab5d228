"""Weighted Hilbert-type bilinear form: inequality checks and sharp constants.

Given distinct reals ``lambda_n`` with nearest-neighbor separations
``delta_n``, the object of study is

    Phi(a) = sum_{m != n} a_m conj(a_n) / (lambda_m - lambda_n),

which is purely imaginary, and the inequality |Phi(a)| <= C sum |a_n|^2 / delta_n.
The best constant for a fixed node set is the spectral radius of the
Hermitian matrix i * [sqrt(delta_n delta_m) / (lambda_m - lambda_n)], computed
here by one Lanczos process on the underlying antisymmetric matrix itself
and certified by a Hermitian residual bound; a solve that cannot
meet its ``tol`` raises :class:`extremal.quadrature.ToleranceNotMetError`,
like every certified routine of the package.  The frequency-domain
telescoping sum that proves the C = 2*pi bound is implemented as an
executable identity, for both the monotone majorant M and the interpolating
majorant B, each through its closed-form deficit transform.  Its steps
collapse to one n x n kernel,

    S = sum_{m,n} a_m conj(a_n) F_{max(delta_m, delta_n)}(lambda_m - lambda_n),

with F_delta the delta-rescaled deficit transform.  Off the diagonal every
frequency lies in the band (|lambda_m - lambda_n| >= max(delta_m, delta_n)),
so S = c sum |a_n|^2/delta_n - Phi(a)/(pi i), with c = 2 for M, 1 for B.
Two randomized experiments sit on top: minimizing the B-telescoping value
(an open sign question) and maximizing the sharp constant over node systems.

Named constants, for reference against the searches:

* ``BOUND_SCHUR`` = pi — sharp for the unweighted equally-spaced form and
  conjectured sharp in general (``CONJECTURED_SHARP``).
* ``BOUND_MONTGOMERY_VAUGHAN`` = 3*pi/2.
* ``BOUND_PREISSMANN`` = sqrt(1 + (2/3) sqrt(6/5)) * pi ~ 4.1325, the best
  published bound.
* ``SELBERG_REPORTED`` = 3.2 — a constant Selberg is reported to have
  obtained without ever publishing a proof; recorded as a historical note
  only and never used as a target.
* ``BOUND_FOURIER`` = 2*pi — the constant delivered by the telescoping
  argument implemented in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._draws import Draws, box_muller
from .fourier import psi_beurling_hat, psi_hat
from .quadrature import ToleranceNotMetError, check_tol
from .specfun import _BLOCK, _finite

__all__ = [
    "NodeSystem",
    "SpectralEstimate",
    "DuplicateNodesError",
    "compute_deltas",
    "bilinear_form",
    "weighted_norm",
    "sharp_constant",
    "telescoping_sum",
    "telescoping_identity",
    "remark_experiment",
    "constant_search",
    "BOUND_SCHUR",
    "BOUND_MONTGOMERY_VAUGHAN",
    "BOUND_PREISSMANN",
    "BOUND_FOURIER",
    "SELBERG_REPORTED",
    "CONJECTURED_SHARP",
]

BOUND_SCHUR = math.pi
BOUND_MONTGOMERY_VAUGHAN = 1.5 * math.pi
BOUND_PREISSMANN = math.sqrt(1.0 + (2.0 / 3.0) * math.sqrt(6.0 / 5.0)) * math.pi
BOUND_FOURIER = 2.0 * math.pi
SELBERG_REPORTED = 3.2
CONJECTURED_SHARP = math.pi

_CACHE_LIMIT = 8192
_CHUNK = 64
# Lanczos vectors held at once, and steps between convergence checks (even).
_BASIS_ROWS = 512
_CHECK_EVERY = 8
_EPS = float(np.finfo(float).eps)
# Products with A one sharp_constant solve may spend.
_MAX_PRODUCTS = 100_000


class DuplicateNodesError(ValueError):
    """Two nodes closer than 1e-9 times the node range; carries the pair."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(
            f"nodes {pair[0]!r} and {pair[1]!r} are too close to separate"
        )


@dataclass(frozen=True)
class NodeSystem:
    """Distinct nodes, their nearest-neighbor separations, and the
    permutation putting the separations in non-increasing order."""

    lambdas: np.ndarray
    deltas: np.ndarray
    order: np.ndarray

    def __post_init__(self):
        self.lambdas.setflags(write=False)
        self.deltas.setflags(write=False)
        self.order.setflags(write=False)

    def __len__(self):
        return self.lambdas.size


@dataclass(frozen=True)
class SpectralEstimate:
    """Sharp-constant estimate with convergence metadata and a witness
    coefficient vector achieving (up to ``residual``) the reported ratio."""

    constant: float
    iterations: int
    residual: float
    witness: np.ndarray = field(repr=False)


def _separations(lam):
    """Nearest-neighbor separations along the last axis, in the nodes' order;
    the first gap below 1e-9 of its system's span raises DuplicateNodesError,
    and a span past the largest double ValueError."""
    _finite(lam, "nodes")
    idx = np.argsort(lam, axis=-1, kind="stable")
    lam_sorted = np.take_along_axis(lam, idx, axis=-1)
    with np.errstate(over="ignore"):
        span = _finite(lam_sorted[..., -1:] - lam_sorted[..., :1], "node span")
    gaps = lam_sorted[..., 1:] - lam_sorted[..., :-1]
    bad = (gaps < 1e-9 * span) | (span == 0.0)
    if bad.any():
        *system, i = np.argwhere(bad)[0]
        row = lam_sorted[tuple(system)]
        raise DuplicateNodesError((float(row[i]), float(row[i + 1])))

    ends = np.concatenate([gaps[..., :1], gaps, gaps[..., -1:]], axis=-1)
    d_sorted = np.minimum(ends[..., :-1], ends[..., 1:])
    return np.take_along_axis(d_sorted, np.argsort(idx, axis=-1), axis=-1)


def compute_deltas(lambdas):
    """Build a NodeSystem from raw nodes: separations + sorting permutation."""
    lam = np.asarray(lambdas, dtype=float).reshape(-1)
    if lam.size < 2:
        raise ValueError("need at least 2 nodes")
    deltas = _separations(lam)
    order = np.argsort(-deltas, kind="stable")
    return NodeSystem(lam.copy(), deltas, order)


def _coefficients(nodes, a):
    arr = np.asarray(a, dtype=complex).reshape(-1)
    if arr.size != len(nodes):
        raise ValueError(
            f"coefficient count {arr.size} does not match node count "
            f"{len(nodes)}"
        )
    return _finite(arr, "coefficients")


def bilinear_form(nodes, a):
    """Phi(a) = sum_{m != n} a_m conj(a_n) / (lambda_m - lambda_n).

    With d = a / sqrt(delta), Phi(a) = d^H A d for the matrix A of
    :func:`sharp_constant`, taken as two real products (of the real and
    the imaginary part of d), so no complex n x n array is made."""
    d = _coefficients(nodes, a) / np.sqrt(nodes.deltas)
    apply_A = _antisym_apply(nodes)
    return complex(np.vdot(d, apply_A(d.real) + 1j * apply_A(d.imag)))


def weighted_norm(nodes, a):
    """sum |a_n|^2 / delta_n."""
    arr = _coefficients(nodes, a)
    return float(np.sum(np.abs(arr) ** 2 / nodes.deltas))


# ---------------------------------------------------------------------------
# Sharp constant by one Lanczos process on the antisymmetric matrix.

def _antisym_apply(nodes):
    """Return v -> A v with A_{nm} = sqrt(delta_n delta_m)/(lambda_m - lambda_n)
    and zero diagonal.  A is held densely up to ``_CACHE_LIMIT`` nodes;
    above that its row blocks are rebuilt on every application.  Either way
    rows are built ``_CHUNK`` at a time in place, so the dense build peaks
    at A plus one block of temporaries."""
    lam = nodes.lambdas
    root = np.sqrt(nodes.deltas)
    n = lam.size
    spans = [(start, min(start + _CHUNK, n)) for start in range(0, n, _CHUNK)]

    def build_rows(start, stop, rows):
        diagonal = (np.arange(stop - start), np.arange(start, stop))
        np.subtract(lam, lam[start:stop, None], out=rows)
        rows[diagonal] = 1.0
        np.divide(np.outer(root[start:stop], root), rows, out=rows)
        rows[diagonal] = 0.0
        return rows

    if n <= _CACHE_LIMIT:
        A = np.empty((n, n))
        for start, stop in spans:
            build_rows(start, stop, A[start:stop])
        return lambda v: A @ v

    block = np.empty((_CHUNK, n))

    def apply_A(v):
        out = np.empty_like(v)
        for start, stop in spans:
            out[start:stop] = build_rows(start, stop, block[:stop - start]) @ v
        return out

    return apply_A


def _top_ritz(betas):
    """Top eigenvalue theta of the tridiagonal S with zero diagonal and
    ``betas`` off it, and the even-indexed half u of its eigenvector.  S is
    bipartite: (theta^2, u) is the top eigenpair of M = B B^T, B = S[even,
    odd], which is tridiagonal with u > 0 (Perron), found by two inverse
    iterations shifted just above theta^2.  With OpenBLAS, ``eigh`` starts a
    second thread from 26 rows on; ``eigvalsh`` and ``solve`` stay on one
    up to 64."""
    B = (np.diag(betas, 1) + np.diag(betas, -1))[::2, 1::2]
    M = B @ B.T
    top = float(np.linalg.eigvalsh(M)[-1])
    M -= top * (1.0 + 8.0 * _EPS) * np.eye(len(M))
    u = np.abs(np.linalg.solve(M, np.linalg.solve(M, np.ones(len(M)))))
    return math.sqrt(top), u / np.linalg.norm(u)


def sharp_constant(nodes, tol=1e-10):
    """Best constant C*(lambda) = sup |Phi(a)| / sum |a_n|^2/delta_n.

    C* is the spectral radius mu of the Hermitian iA, A real antisymmetric.
    A Lanczos process on A with full reorthogonalisation (Golub-Kahan in
    skew form) gives a skew-tridiagonal T = Q^T A Q, and diag(i^k) takes iT
    to the symmetric S with T's subdiagonal beta off the diagonal.  The top
    eigenpair (theta, y) of S gives the direction b = sum_k Re(i^k) y_k q_k.
    The process stops once beta_m |y_m| <= eps * theta, on an invariant
    subspace, or when the basis spans the space; a full basis of
    ``_BASIS_ROWS`` vectors restarts it from b.  The start vector is fixed,
    so C* depends on the nodes alone.  ``iterations`` counts products with A.

    With b normalised, c = b - i A b / mu is the witness, and ``residual``
    is the Hermitian residual bound |mu - lambda| <= ||(iA) c + mu c|| / ||c||
    (Parlett) from two fresh products, plus a floor n * eps * mu for their
    rounding.  Raises :class:`extremal.quadrature.ToleranceNotMetError` when
    the solve needs more than ``_MAX_PRODUCTS`` products or the bound is not
    at most ``tol`` (NaN included), carrying the latest ||A v|| / ||v|| as
    ``value``, the bound as ``err_estimate`` (``inf`` if none was taken) and
    the products as ``evaluations``: no uncertified value is returned.
    """
    tol = check_tol(tol, 1e-12)
    n = len(nodes)
    apply_A = _antisym_apply(nodes)
    products = 0
    estimate = 0.0

    def fail(message, residual=math.inf):
        message = f"{message} (last estimate {estimate:.12g})"
        return ToleranceNotMetError(message, estimate, residual, products)

    def product(v):
        nonlocal products, estimate
        if products >= _MAX_PRODUCTS:
            raise fail(f"no convergence within {_MAX_PRODUCTS} products")
        products += 1
        Av = apply_A(v)
        estimate = math.sqrt(float(Av @ Av) / float(v @ v))
        return Av

    size = min(n, _BASIS_ROWS)
    Q = np.empty((size, n))
    b = Draws(0).standard_normal(n)
    converged = False
    while not converged:
        Q[0] = b / np.linalg.norm(b)
        betas = []
        for m in range(1, size + 1):
            w = product(Q[m - 1])
            for _ in range(2):  # one pass leaves errors near eps ||A q|| / beta
                w -= Q[:m].T @ (Q[:m] @ w)
            beta = float(np.linalg.norm(w))
            invariant = beta <= _EPS * estimate
            if m == size or invariant or m % _CHECK_EVERY == _CHECK_EVERY - 1:
                theta, u = _top_ritz(betas)
                # For odd m the last vector has an even index: y_{m-1} = u[-1]/sqrt 2.
                converged = m == n or invariant or (
                    m % 2 == 1 and beta * u[-1] <= math.sqrt(2.0) * _EPS * theta)
                if converged or m == size:
                    break
            betas.append(beta)
            Q[m] = w / beta
        b = (u * (-1.0) ** np.arange(u.size)) @ Q[:m:2]

    b /= np.linalg.norm(b)
    Ab = product(b)
    mu = estimate
    # For c = b - i A b / mu: (iA) c + mu c = (A^2 b + mu^2 b) / mu, ||c|| = sqrt(2).
    residual = (float(np.linalg.norm(product(Ab) + mu * mu * b)) / (mu * math.sqrt(2.0))
                + n * _EPS * mu)
    if not residual <= tol:
        raise fail(f"residual bound {residual:.3g} exceeds tol {tol:.3g}", residual)

    return SpectralEstimate(
        constant=mu,
        iterations=products,
        residual=residual,
        witness=(b - 1j * Ab / mu) * np.sqrt(nodes.deltas),
    )


# ---------------------------------------------------------------------------
# Telescoping sums (frequency domain).

def _deficit_hat_matrix(majorant, delta, freq):
    """Rescaled deficit transform delta^{-1} f_hat(freq / delta), elementwise
    (``delta`` a scalar or an array broadcasting against ``freq``)."""
    transform = psi_hat if majorant == "M" else psi_beurling_hat
    return transform(freq / delta) / delta


def _telescoping_complex(lambdas, deltas, a, majorant):
    """The kernel sum of :func:`telescoping_sum` for systems stacked along
    leading axes: arrays of shape (..., n) give one complex per system.

    The kernel is built and summed ``max(1, _BLOCK // a.size)`` rows of every
    system at a time, at most ``max(_BLOCK, a.size)`` entries (64 B each); a
    remark chunk, or one system up to 90 nodes, is one block."""
    if majorant not in ("M", "BeurlingB"):
        raise ValueError("majorant must be 'M' or 'BeurlingB'")
    rows = max(1, _BLOCK // a.size)
    total = None
    for start in range(0, a.shape[-1], rows):
        block = slice(start, start + rows)
        pair_delta = np.maximum(deltas[..., block, None], deltas[..., None, :])
        diff = lambdas[..., block, None] - lambdas[..., None, :]
        kernel = _deficit_hat_matrix(majorant, pair_delta, diff)
        pairs = a[..., block, None] * a.conj()[..., None, :]
        part = np.sum(pairs * kernel, axis=(-2, -1))
        total = part if total is None else total + part
    return total


def telescoping_sum(nodes, a, majorant="M"):
    """The frequency-domain telescoping sum S (real by Hermitian symmetry).

    S = sum_j sum_{m,n >= j in delta-sorted order} a_m conj(a_n)
        [F_{delta_j} - F_{delta_{j-1}}](lambda_m - lambda_n),

    with F_delta(t) = delta^{-1} f_hat(t / delta) the rescaled deficit
    transform and F_{delta_0} = 0.  The pair (m, n) enters step j exactly
    when j <= min(pos_m, pos_n), so the increments collapse to one kernel
    matrix,

    S = sum_{m,n} a_m conj(a_n) F_{max(delta_m, delta_n)}(lambda_m - lambda_n),

    which is what is evaluated, through ``psi_hat`` (M) or
    ``psi_beurling_hat`` (BeurlingB); off the diagonal both are in the band,
    so S = c sum |a_n|^2/delta_n - Phi(a)/(pi i) with c = 2 or 1.  The
    kernel is summed a block of rows at a time (see
    :func:`_telescoping_complex`), so memory stays bounded for any n.  Every
    entry is computed, so the imaginary residue measures the rounding
    asymmetry; it is checked against 1e-8 times the sum's own scale
    W = sum |a_n|^2/delta_n (|Phi(a)| <= 2 pi W), and the real part returned.
    """
    arr = _coefficients(nodes, a)
    total = complex(_telescoping_complex(nodes.lambdas, nodes.deltas, arr, majorant))
    limit = 1e-8
    scale = weighted_norm(nodes, arr)
    if abs(total.imag) > limit * scale:
        raise ArithmeticError(
            f"telescoping sum has imaginary residue {total.imag:g} "
            f"(limit {limit:g} at scale {scale:g})"
        )
    return float(total.real)


def telescoping_identity(nodes, a):
    """Closed-form value of the telescoping sum for the monotone majorant:
    -Phi(a)/(pi i) + 2 sum |a_n|^2/delta_n (real since Phi is imaginary)."""
    arr = _coefficients(nodes, a)
    phi = bilinear_form(nodes, arr)
    return float((-phi / (1j * math.pi)).real) + 2.0 * weighted_norm(nodes, arr)


# ---------------------------------------------------------------------------
# Randomized experiments.

# The interval and least gap of the random node systems of the search and
# verify experiments.
_NODES_LOW, _NODES_HIGH, _NODES_MIN_GAP = 0.0, 10.0, 0.05


def _gapped_nodes(u, low, high, min_gap):
    """n sorted uniform draws on [low, high] with every gap at least
    ``min_gap``, from uniforms ``u`` on [0, 1) along the last axis.  Less
    the forced gaps they are sorted draws from a shorter interval (by a
    volume-preserving bijection), so the sample is exact, with no rejection."""
    n = u.shape[-1]
    free = np.sort((high - low - (n - 1) * min_gap) * u, axis=-1)
    return low + free + min_gap * np.arange(n)


def _random_systems(draws, count, n):
    """``count`` node systems of :func:`_gapped_nodes` on [0, 10] with gap
    0.05 and complex Gaussian coefficients, as arrays of shape (count, n),
    from one draw of 3n uniforms per system: n place the nodes and 2n give
    the coefficients by Box-Muller (radius and angle).  A system depends on
    its position in the stream alone, not on ``count``."""
    u = draws.random((count, 3 * n))
    z = box_muller(u[:, n:])
    lam = _gapped_nodes(u[:, :n], _NODES_LOW, _NODES_HIGH, _NODES_MIN_GAP)
    return lam, z[:, :n] + 1j * z[:, n:]


def remark_experiment(n_nodes, trials, seed):
    """Randomized probe of the sign of the BeurlingB telescoping sum.

    Draws ``trials`` node systems (uniform on [0, 10] conditioned on a
    minimum gap) and complex Gaussian coefficients, records the telescoping
    value for the interpolating majorant, and reports the minimum with its
    configuration plus summary statistics.  Every off-diagonal kernel entry
    lies in the band, so each value is sum |a_n|^2/delta_n - Phi(a)/(pi i):
    a negative one would mean |Phi(a)| > pi sum |a_n|^2/delta_n on that
    system.  The report states data only: whether the expression can go
    negative is an open question and no sign claim is made or checked.

    Trials are drawn and evaluated in chunks whose kernel is one closed-form
    block (``specfun._BLOCK`` entries, at least 8 trials at N = 32), which
    :func:`_telescoping_complex` sums in one row block, each system and value
    bit for bit that of the system alone (see :func:`_random_systems`).  Only
    the running minimum's configuration is kept (the first on ties).
    """
    n_nodes = int(n_nodes)
    trials = int(trials)
    if not 2 <= n_nodes <= 32:
        raise ValueError("remark experiment supports 2 <= n_nodes <= 32")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = Draws(seed)

    chunk = _BLOCK // (n_nodes * n_nodes)
    values = np.empty(trials)
    max_residue = 0.0
    arg_min = None
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        lam, coeffs = _random_systems(rng, count, n_nodes)
        total = _telescoping_complex(
            lam, _separations(lam), _finite(coeffs, "coefficients"), "BeurlingB"
        )
        values[start:start + count] = total.real
        max_residue = max(max_residue, float(np.max(np.abs(total.imag))))
        j = int(np.argmin(total.real))
        if arg_min is None or total.real[j] < values[arg_min]:
            arg_min, lam_min, coeff_min = start + j, lam[j].copy(), coeffs[j].copy()

    return {
        "experiment": "remark",
        "n_nodes": n_nodes,
        "trials": trials,
        "seed": int(seed),
        "min_value": float(values[arg_min]),
        "argmin_trial": arg_min,
        "min_config": {
            "lambdas": [float(v) for v in lam_min],
            "coeffs_re": [float(v.real) for v in coeff_min],
            "coeffs_im": [float(v.imag) for v in coeff_min],
        },
        "mean_value": float(np.mean(values)),
        "std_value": float(np.std(values)),
        "negative_count": int(np.sum(values < 0.0)),
        "max_imag_residue": max_residue,
        "trial_values": values.tolist(),
    }


def constant_search(n_nodes, trials, seed):
    """Randomized + local-perturbation search for large sharp constants.

    Starts from the equally spaced baseline, alternates fresh uniform draws
    with Gaussian perturbations of the incumbent, and reports the best
    configuration found.  The only assertion is that the maximum stays
    below the Preissmann bound (up to solver tolerance); exceeding it would
    signal a numerical bug, since that bound is proved.
    """
    n_nodes = int(n_nodes)
    trials = int(trials)
    if not 2 <= n_nodes <= 2048:
        raise ValueError("constant search supports 2 <= n_nodes <= 2048")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = Draws(seed)

    def evaluate(lam):
        ns = compute_deltas(lam)
        return sharp_constant(ns, tol=1e-9).constant

    baseline_lam = np.arange(1.0, n_nodes + 1.0)
    baseline = evaluate(baseline_lam)
    best_val = baseline
    best_lam = baseline_lam
    history = [baseline]

    sigma = 0.25
    for k in range(trials):
        if k % 2 == 0:
            lam = _gapped_nodes(rng.random(n_nodes), _NODES_LOW, _NODES_HIGH, 1e-4)
        else:
            span = best_lam[-1] - best_lam[0]
            for _ in range(100):
                lam = np.sort(
                    best_lam + rng.normal(0.0, sigma * span / n_nodes, n_nodes)
                )
                if np.min(np.diff(lam)) > 1e-8 * (lam[-1] - lam[0]):
                    break
            else:
                lam = _gapped_nodes(rng.random(n_nodes), _NODES_LOW, _NODES_HIGH, 1e-4)
            sigma *= 0.95
        val = evaluate(lam)
        history.append(val)
        if val > best_val:
            best_val = val
            best_lam = lam

    if best_val > BOUND_PREISSMANN + 1e-6:
        raise ArithmeticError(
            f"search produced {best_val}, above the proved bound "
            f"{BOUND_PREISSMANN}; numerical failure"
        )
    return {
        "experiment": "constant",
        "n_nodes": n_nodes,
        "trials": trials,
        "seed": int(seed),
        "baseline_equally_spaced": baseline,
        "best_constant": best_val,
        "best_lambdas": [float(v) for v in best_lam],
        "trial_values": history,
        "bound_preissmann": BOUND_PREISSMANN,
    }
