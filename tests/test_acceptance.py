"""End-to-end acceptance checks, one test per headline claim.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail line
per criterion together with the measured quantities.  Each test pins the
tolerance it must meet; timing-sensitive checks assert their budget too.
"""

import math
import time

import numpy as np
import pytest

from extremal.fourier import numeric_ft, psi_beurling_hat, psi_hat
from extremal.hilbert import (
    BOUND_FOURIER,
    BOUND_SCHUR,
    bilinear_form,
    compute_deltas,
    remark_experiment,
    sharp_constant,
    telescoping_identity,
    telescoping_sum,
    weighted_norm,
)
from extremal.majorants import M_closed, kernel_H, kernel_g, line_integral
from test_hilbert import brute_constant


def report(line):
    print(f"PASS  {line}")


def whole_line(kind, tol):
    return line_integral(kind, -math.inf, math.inf, tol)


def test_01_deficit_integral_of_monotone_majorant():
    start = time.perf_counter()
    res = whole_line("psi", 1e-9)
    elapsed = time.perf_counter() - start
    assert res.value == pytest.approx(2.0, abs=1e-8)
    assert elapsed < 5.0
    report(
        f"01 whole-line integral of (M - sgn) = {res.value:.12f} "
        f"(target 2, tol 1e-8) in {elapsed:.2f}s"
    )


def test_02_deficit_integral_of_heaviside_majorant():
    # G - x_+^0 = psi / 2 off the origin (M = 2G - 1)
    value = whole_line("psi", 1e-9).value / 2.0
    assert value == pytest.approx(1.0, abs=1e-8)
    report(f"02 whole-line integral of (G - step) = {value:.12f} (target 1, tol 1e-8)")


def test_03_value_at_origin():
    got = line_integral("g", -math.inf, 0.0, 1e-9).value
    assert got == pytest.approx(1.0749, abs=5e-4)
    report(f"03 G(0) = {got:.10f} (target 1.0749, tol 5e-4)")


def test_04_kernel_normalization_and_poisson():
    res = whole_line("g", 1e-9)
    assert res.value == pytest.approx(1.0, abs=1e-8)
    n = np.arange(-100.0, 101.0)
    sum_g, int_g = math.fsum(kernel_g(n).tolist()), res.value
    sum_H, int_H = math.fsum(kernel_H(n).tolist()), whole_line("H", 1e-9).value
    assert sum_g == 1.0  # exact: only the n = -1 lattice point is nonzero
    assert sum_H == 1.0
    assert int_g == pytest.approx(1.0, abs=1e-8)
    assert int_H == pytest.approx(1.0, abs=1e-8)
    report(
        f"04 integral of g = {res.value:.12f} (tol 1e-8); "
        f"lattice sums g -> {sum_g}, H -> {sum_H} (exact)"
    )


def test_05_band_identity_outside_unit_interval():
    ts = [1.25, 2.0, 3.5, 5.0, 10.0, -1.25, -2.0, -3.5, -5.0, -10.0]
    closed = max(abs(psi_hat(t) + 1.0 / (1j * math.pi * t)) for t in ts)
    numeric_m = np.max(np.abs(numeric_ft("psi", ts) - psi_hat(ts)))
    numeric_b = np.max(np.abs(numeric_ft("psi_beurling", ts) - psi_beurling_hat(ts)))
    assert closed <= 1e-12
    assert numeric_m <= 1e-5
    assert numeric_b <= 1e-5
    report(
        f"05 band residual |f_hat(t) + 1/(pi i t)|: closed {closed:.2e} (<=1e-12), "
        f"numeric monotone {numeric_m:.2e}, interpolating {numeric_b:.2e} (<=1e-5)"
    )


def test_06_deficit_transform_at_zero():
    closed = psi_hat(0.0)
    numeric = numeric_ft("psi", 0.0)
    assert closed == pytest.approx(2.0, abs=1e-7)
    assert abs(numeric - 2.0) <= 1e-7
    report(f"06 deficit transform at 0: closed {closed}, numeric {numeric:.12f} (tol 1e-7)")


def test_07_majorant_and_one_sided_monotonicity():
    x = np.linspace(-50.0, 50.0, 100_001)
    m = M_closed(x)
    margin = np.min(m - np.sign(x))
    assert margin >= -1e-9
    g = kernel_g(x)
    worst_pos = float(np.max(g[x > 0.0]))   # should be <= 0
    worst_neg = float(np.min(g[x < 0.0]))   # should be >= 0
    assert worst_pos <= 1e-9
    assert worst_neg >= -1e-9
    report(
        f"07 min(M - sgn) = {margin:.3e} on 1e5 points (slack 1e-9); "
        f"derivative sign pattern: max 2g on x>0 {2*worst_pos:.2e}, "
        f"min 2g on x<0 {2*worst_neg:.2e}"
    )


def test_08_telescoping_identity_random_instances():
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    worst_value = math.inf
    for _ in range(100):
        n = int(rng.integers(2, 7))
        lam = np.sort(rng.uniform(0.0, 10.0, n))
        while np.min(np.diff(lam)) < 0.05:
            lam = np.sort(rng.uniform(0.0, 10.0, n))
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ns = compute_deltas(lam)
        s = telescoping_sum(ns, a, majorant="M")
        ident = telescoping_identity(ns, a)
        worst_gap = max(worst_gap, abs(s - ident))
        worst_value = min(worst_value, s)
        assert abs(s - ident) <= 1e-8
        assert s >= -1e-8
    report(
        f"08 telescoping sum vs identity over 100 instances (N<=6): "
        f"max |difference| {worst_gap:.2e} (tol 1e-8), min value {worst_value:.4f} (>= -1e-8)"
    )


def test_09_inequality_margins_random_instances():
    rng = np.random.default_rng(77)
    cap = 1.3154 * math.pi + 1e-6
    worst_margin = math.inf
    largest_constant = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        lam = np.sort(rng.uniform(0.0, 10.0, n))
        while np.min(np.diff(lam)) < 1e-3:
            lam = np.sort(rng.uniform(0.0, 10.0, n))
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ns = compute_deltas(lam)
        phi, weighted = bilinear_form(ns, a), weighted_norm(ns, a)
        margin = BOUND_FOURIER * weighted - abs(phi)
        worst_margin = min(worst_margin, margin)
        assert margin >= 0.0
        est = sharp_constant(ns, tol=1e-9)
        largest_constant = max(largest_constant, est.constant)
        assert est.constant <= cap
        assert abs(phi) <= est.constant * weighted + 1e-9
    report(
        f"09 margins over 1000 instances (N<=64): min margin at 2*pi {worst_margin:.4f} (>=0); "
        f"largest per-system constant {largest_constant:.6f} <= {cap:.6f}"
    )


def test_10_spectral_oracle_and_ladder():
    assert sharp_constant(compute_deltas([0.0, 1.0]), tol=1e-11).constant == pytest.approx(
        1.0, abs=1e-9
    )
    assert sharp_constant(compute_deltas([1.0, 2.0, 3.0]), tol=1e-11).constant == pytest.approx(
        1.5, abs=1e-9
    )
    for n in range(2, 13):
        lam = np.arange(1.0, n + 1.0)
        got = sharp_constant(compute_deltas(lam), tol=1e-11).constant
        assert got == pytest.approx(brute_constant(lam), abs=1e-9)

    ladder = []
    for n in (2, 4, 8, 16, 64, 256):
        ladder.append(sharp_constant(compute_deltas(np.arange(1.0, n + 1.0)), tol=1e-10).constant)
    start = time.perf_counter()
    big = sharp_constant(compute_deltas(np.arange(1.0, 1025.0)), tol=1e-10)
    elapsed = time.perf_counter() - start
    ladder.append(big.constant)
    assert all(b >= a - 1e-10 for a, b in zip(ladder, ladder[1:]))
    assert all(v < BOUND_SCHUR for v in ladder)
    assert big.constant > 2.9
    assert elapsed < 60.0
    report(
        f"10 spectral oracle: eigensolver match N<=12 (tol 1e-9); ladder "
        f"{[round(v, 6) for v in ladder]} non-decreasing, < pi; "
        f"N=1024 -> {big.constant:.9f} in {elapsed:.1f}s (< 60s)"
    )


def test_11_interpolating_majorant_sign_probe():
    rep1 = remark_experiment(4, trials=50, seed=123)
    rep2 = remark_experiment(4, trials=50, seed=123)
    assert rep1 == rep2  # bit-for-bit reproducible
    assert rep1["max_imag_residue"] <= 1e-6
    assert len(rep1["trial_values"]) == 50
    # Data only: the minimum is reported, no sign is asserted either way.
    report(
        f"11 sign probe (N=4, 50 trials, seed 123): min value {rep1['min_value']:.6f}, "
        f"negative draws {rep1['negative_count']}, max imag residue "
        f"{rep1['max_imag_residue']:.2e} (<=1e-6), reproducible"
    )
