"""Weighted Hilbert-type bilinear form: inequality checks and sharp constants.

Given distinct reals ``lambda_n`` with nearest-neighbor separations
``delta_n``, the object of study is

    Phi(a) = sum_{m != n} a_m conj(a_n) / (lambda_m - lambda_n),

which is purely imaginary, and the inequality |Phi(a)| <= C sum |a_n|^2 / delta_n.
The best constant for a fixed node set is the spectral radius of the
Hermitian matrix i * [sqrt(delta_n delta_m) / (lambda_m - lambda_n)], computed
here by power iteration on the square of the underlying antisymmetric
matrix.  The frequency-domain telescoping sum that proves the C = 2*pi bound
is implemented as an executable identity, for both the monotone majorant M
and the interpolating majorant B (numerically transformed).  Its steps
collapse to one n x n kernel,

    S = sum_{m,n} a_m conj(a_n) F_{max(delta_m, delta_n)}(lambda_m - lambda_n),

with F_delta the delta-rescaled deficit transform.  Two randomized
experiments sit on top: minimizing the B-telescoping value (an open
sign question) and maximizing the sharp constant over node systems.

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

from .fourier import numeric_ft, psi_hat

__all__ = [
    "NodeSystem",
    "SpectralEstimate",
    "DuplicateNodesError",
    "PowerIterationError",
    "compute_deltas",
    "bilinear_form",
    "weighted_norm",
    "verify_inequality",
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

_DENSE_LIMIT = 2048
_CACHE_LIMIT = 8192
_CHUNK = 128


class DuplicateNodesError(ValueError):
    """Two nodes closer than 1e-9 times the node range; carries the pair."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(
            f"nodes {pair[0]!r} and {pair[1]!r} are too close to separate"
        )


class PowerIterationError(RuntimeError):
    """Power iteration ran out of iterations; carries the best estimate."""

    def __init__(self, message, estimate, iterations):
        super().__init__(message)
        self.estimate = estimate
        self.iterations = iterations


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
    restarts: int = 0


def compute_deltas(lambdas):
    """Build a NodeSystem from raw nodes: separations + sorting permutation."""
    lam = np.asarray(lambdas, dtype=float).reshape(-1)
    if lam.size < 2:
        raise ValueError("need at least 2 nodes")
    if not np.all(np.isfinite(lam)):
        raise ValueError("nodes must be finite")

    idx = np.argsort(lam, kind="stable")
    lam_sorted = lam[idx]
    gaps = np.diff(lam_sorted)
    span = lam_sorted[-1] - lam_sorted[0]
    threshold = 1e-9 * span
    bad = np.flatnonzero(gaps < threshold) if span > 0 else np.array([0])
    if bad.size:
        i = int(bad[0])
        raise DuplicateNodesError((float(lam_sorted[i]), float(lam_sorted[i + 1])))

    d_sorted = np.empty_like(lam_sorted)
    d_sorted[0] = gaps[0]
    d_sorted[-1] = gaps[-1]
    if lam.size > 2:
        d_sorted[1:-1] = np.minimum(gaps[:-1], gaps[1:])
    deltas = np.empty_like(d_sorted)
    deltas[idx] = d_sorted

    order = np.argsort(-deltas, kind="stable")
    return NodeSystem(lam.copy(), deltas, order)


def _coefficients(nodes, a):
    arr = np.asarray(a, dtype=complex).reshape(-1)
    if arr.size != len(nodes):
        raise ValueError(
            f"coefficient count {arr.size} does not match node count "
            f"{len(nodes)}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("coefficients must be finite")
    return arr


def _difference_matrix(lam):
    return lam[:, None] - lam[None, :]


def bilinear_form(nodes, a):
    """Phi(a) = sum_{m != n} a_m conj(a_n) / (lambda_m - lambda_n)."""
    arr = _coefficients(nodes, a)
    lam = nodes.lambdas
    diff = _difference_matrix(lam)
    np.fill_diagonal(diff, 1.0)
    weights = np.outer(arr, arr.conj()) / diff
    np.fill_diagonal(weights, 0.0)
    return complex(weights.sum())


def weighted_norm(nodes, a):
    """sum |a_n|^2 / delta_n."""
    arr = _coefficients(nodes, a)
    return float(np.sum(np.abs(arr) ** 2 / nodes.deltas))


def verify_inequality(nodes, a, C):
    """Margin C * sum |a_n|^2/delta_n - |Phi(a)| (nonnegative = holds)."""
    C = float(C)
    if not (C > 0.0 and math.isfinite(C)):
        raise ValueError("C must be a positive finite real")
    return C * weighted_norm(nodes, a) - abs(bilinear_form(nodes, a))


# ---------------------------------------------------------------------------
# Sharp constant by power iteration on the square of the antisymmetric matrix.

def _antisym_apply_factory(nodes):
    """Return (apply_AtA, apply_A): y = A^T A v and y = A v, with
    A_{nm} = sqrt(delta_n delta_m)/(lambda_m - lambda_n), zero diagonal.
    A is real antisymmetric, so A^T A = -A^2 is symmetric PSD and its top
    eigenvalue is the squared spectral radius of the Hermitian iA."""
    lam = nodes.lambdas
    root = np.sqrt(nodes.deltas)
    n = lam.size

    def build_rows(start, stop):
        block = lam[None, :] - lam[start:stop, None]
        block[block == 0.0] = 1.0
        rows = np.outer(root[start:stop], root) / block
        for i in range(start, stop):
            rows[i - start, i] = 0.0
        return rows

    if n <= _CACHE_LIMIT:
        A = build_rows(0, n)
        if n <= _DENSE_LIMIT:
            # One symmetric matvec per step instead of two antisymmetric ones.
            AtA = A.T @ A
            return (lambda v: AtA @ v), (lambda v: A @ v)
        return (lambda v: -(A @ (A @ v))), (lambda v: A @ v)

    # Too large to hold A: rebuild row blocks on every application.
    def apply_A(v):
        out = np.empty_like(v)
        for start in range(0, n, _CHUNK):
            stop = min(start + _CHUNK, n)
            out[start:stop] = build_rows(start, stop) @ v
        return out

    return (lambda v: -apply_A(apply_A(v))), apply_A


def sharp_constant(nodes, tol=1e-10, seed=0, max_iterations=100_000):
    """Best constant C*(lambda) = sup |Phi(a)| / sum |a_n|^2/delta_n.

    Power iteration on the PSD square (two antisymmetric applications per
    step), deterministic seeded start, convergence once successive radius
    estimates differ by less than ``tol``.  If the estimate stagnates near
    convergence while the eigen-residual stays large, the start vector is
    redrawn (at most 5 times).  Raises :class:`PowerIterationError` after
    ``max_iterations`` steps, carrying the best estimate so far.
    """
    tol = float(tol)
    if tol < 1e-12:
        raise ValueError("tol must be >= 1e-12")
    n = len(nodes)
    apply_sq, apply_A = _antisym_apply_factory(nodes)

    rng = np.random.default_rng(seed)

    def draw():
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return v / np.linalg.norm(v)

    b = draw()

    est = 0.0
    prev = math.inf
    stagnation = 0
    restarts = 0
    iterations = 0

    while iterations < max_iterations:
        iterations += 1
        y = apply_sq(b)
        theta = float(np.real(np.vdot(b, y)))
        est = math.sqrt(max(theta, 0.0))
        resid_sq = float(np.linalg.norm(y - theta * b))
        rel_resid = resid_sq / max(theta, 1e-300)

        diff = abs(est - prev)
        if iterations >= 2 and diff < tol:
            break

        if diff < 10.0 * tol:
            stagnation += 1
        else:
            stagnation = 0
        if stagnation >= 50 and rel_resid > tol and restarts < 5:
            b = draw()
            prev = math.inf
            stagnation = 0
            restarts += 1
            continue

        prev = est
        norm_y = np.linalg.norm(y)
        if norm_y == 0.0:
            # A = 0 cannot happen for distinct nodes, but stay defensive.
            break
        b = y / norm_y
    else:
        raise PowerIterationError(
            f"no convergence within {max_iterations} iterations "
            f"(last estimate {est:.12g})",
            estimate=est,
            iterations=iterations,
        )

    # Rotate the converged real vector into a complex eigenvector of the
    # Hermitian iA: on the dominant plane, c = b - i A b / mu satisfies
    # (iA) c = -mu c, so |Phi| / weighted norm hits mu exactly.
    if est > 0.0:
        c = b - 1j * apply_A(b) / est
    else:
        c = b.astype(complex)
    witness = c * np.sqrt(nodes.deltas)
    ratio = abs(bilinear_form(nodes, witness)) / weighted_norm(nodes, witness)
    residual = max(abs(est - prev) if math.isfinite(prev) else tol,
                   abs(est - ratio))

    return SpectralEstimate(
        constant=est,
        iterations=iterations,
        residual=residual,
        witness=witness,
        restarts=restarts,
    )


# ---------------------------------------------------------------------------
# Telescoping sums (frequency domain).

def _deficit_hat_matrix(majorant, delta, freq):
    """Rescaled deficit transform delta^{-1} f_hat(freq / delta), elementwise
    (``delta`` a scalar or an array broadcasting against ``freq``)."""
    scaled = freq / delta
    if majorant == "M":
        return psi_hat(scaled) / delta
    return numeric_ft("psi_beurling", scaled, tol=1e-6) / delta


def _telescoping_complex(nodes, a, majorant):
    if majorant not in ("M", "BeurlingB"):
        raise ValueError("majorant must be 'M' or 'BeurlingB'")
    arr = _coefficients(nodes, a)
    pair_delta = np.maximum.outer(nodes.deltas, nodes.deltas)
    kernel = _deficit_hat_matrix(
        majorant, pair_delta, _difference_matrix(nodes.lambdas)
    )
    return complex(np.sum(np.outer(arr, arr.conj()) * kernel))


def telescoping_sum(nodes, a, majorant="M"):
    """The frequency-domain telescoping sum S (real by Hermitian symmetry).

    S = sum_j sum_{m,n >= j in delta-sorted order} a_m conj(a_n)
        [F_{delta_j} - F_{delta_{j-1}}](lambda_m - lambda_n),

    with F_delta(t) = delta^{-1} f_hat(t / delta) the rescaled deficit
    transform and F_{delta_0} = 0.  The pair (m, n) enters step j exactly
    when j <= min(pos_m, pos_n), so the increments collapse to one kernel
    matrix,

    S = sum_{m,n} a_m conj(a_n) F_{max(delta_m, delta_n)}(lambda_m - lambda_n),

    which is what is evaluated: the closed form ``psi_hat`` for M, one
    array call of ``numeric_ft("psi_beurling", ...)`` on all n^2
    frequencies for BeurlingB.  Every entry is computed, so the imaginary
    residue measures the numerical asymmetry; it is checked (1e-8 for M,
    1e-6 for the numerically transformed BeurlingB) and the real part
    returned.
    """
    total = _telescoping_complex(nodes, a, majorant)
    limit = 1e-8 if majorant == "M" else 1e-6
    scale = max(1.0, float(np.sum(np.abs(np.asarray(a)) ** 2)))
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

def _random_nodes(rng, n, low=0.0, high=10.0, min_gap=0.05):
    for _ in range(10_000):
        lam = rng.uniform(low, high, size=n)
        lam.sort()
        if n < 2 or np.min(np.diff(lam)) >= min_gap:
            return lam
    raise RuntimeError("failed to sample a node system with the required gap")


def remark_experiment(n_nodes, trials, seed):
    """Randomized probe of the sign of the BeurlingB telescoping sum.

    Draws ``trials`` node systems (uniform on [0, 10] with min-gap
    rejection) and complex Gaussian coefficients, records the telescoping
    value for the interpolating majorant, and reports the minimum with its
    configuration plus summary statistics.  The report states data only:
    whether the expression can go negative is an open question and no sign
    claim is made or checked.
    """
    n_nodes = int(n_nodes)
    trials = int(trials)
    if not 2 <= n_nodes <= 32:
        raise ValueError("remark experiment supports 2 <= n_nodes <= 32")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(int(seed))

    values = []
    residues = []
    configs = []
    for _ in range(trials):
        lam = _random_nodes(rng, n_nodes)
        coeffs = rng.standard_normal(n_nodes) + 1j * rng.standard_normal(n_nodes)
        ns = compute_deltas(lam)
        total = _telescoping_complex(ns, coeffs, "BeurlingB")
        values.append(float(total.real))
        residues.append(abs(float(total.imag)))
        configs.append((lam, coeffs))

    arg_min = int(np.argmin(values))
    lam_min, coeff_min = configs[arg_min]
    return {
        "experiment": "remark",
        "n_nodes": n_nodes,
        "trials": trials,
        "seed": int(seed),
        "min_value": values[arg_min],
        "argmin_trial": arg_min,
        "min_config": {
            "lambdas": [float(v) for v in lam_min],
            "coeffs_re": [float(v.real) for v in coeff_min],
            "coeffs_im": [float(v.imag) for v in coeff_min],
        },
        "mean_value": float(np.mean(values)),
        "std_value": float(np.std(values)),
        "negative_count": int(np.sum(np.asarray(values) < 0.0)),
        "max_imag_residue": max(residues),
        "trial_values": values,
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
    rng = np.random.default_rng(int(seed))

    def evaluate(lam):
        ns = compute_deltas(lam)
        return sharp_constant(ns, tol=1e-9, seed=int(seed)).constant

    baseline_lam = np.arange(1.0, n_nodes + 1.0)
    baseline = evaluate(baseline_lam)
    best_val = baseline
    best_lam = baseline_lam
    history = [baseline]

    sigma = 0.25
    for k in range(trials):
        if k % 2 == 0:
            lam = _random_nodes(rng, n_nodes, min_gap=1e-4)
        else:
            span = best_lam[-1] - best_lam[0]
            for _ in range(100):
                lam = np.sort(
                    best_lam + rng.normal(0.0, sigma * span / n_nodes, n_nodes)
                )
                if np.min(np.diff(lam)) > 1e-8 * (lam[-1] - lam[0]):
                    break
            else:
                lam = _random_nodes(rng, n_nodes, min_gap=1e-4)
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
