"""Weighted Hilbert-type bilinear form: node systems, the sharp per-system
constant, telescoping sums, and the randomized experiments."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import extremal.hilbert as hb
from extremal._draws import Draws
from extremal import (
    BOUND_FOURIER,
    BOUND_MONTGOMERY_VAUGHAN,
    BOUND_PREISSMANN,
    BOUND_SCHUR,
    DuplicateNodesError,
    NodeSystem,
    SpectralEstimate,
    ToleranceNotMetError,
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
from extremal.fourier import numeric_ft, psi_hat

# numpy.linalg.eigvalsh on the dense squared matrix (independent of the
# Lanczos implementation under test).
LADDER_EIG = {
    2: 1.0,
    3: 1.5,
    4: 1.802775637731995,
    8: 2.354293366779299,
    12: 2.5754581441817694,
    64: 3.00805439082439,
    256: 3.1032824458634125,
}


def coupling_matrix(ns):
    """Dense A_{mn} = sqrt(delta_m delta_n) / (lambda_m - lambda_n), zero
    diagonal; C* is the top eigenvalue of the Hermitian iA."""
    lam, root = ns.lambdas, np.sqrt(ns.deltas)
    diff = lam[:, None] - lam[None, :]
    np.fill_diagonal(diff, 1.0)
    A = np.outer(root, root) / diff
    np.fill_diagonal(A, 0.0)
    return A


def brute_constant(lambdas):
    A = coupling_matrix(compute_deltas(lambdas))
    top = np.linalg.eigvalsh(-(A @ A))[-1]
    return math.sqrt(max(top, 0.0))


def brute_bilinear(lambdas, a):
    total = 0.0 + 0.0j
    for m in range(len(lambdas)):
        for n in range(len(lambdas)):
            if m != n:
                total += a[m] * np.conj(a[n]) / (lambdas[m] - lambdas[n])
    return total


def random_instance(rng, n, min_gap=0.05):
    lam = np.sort(rng.uniform(0.0, 10.0, n))
    while np.min(np.diff(lam)) < min_gap:
        lam = np.sort(rng.uniform(0.0, 10.0, n))
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return lam, a


def telescoping_step_loop(nodes, a, majorant):
    """The telescoping sum step by step, as in the proof: in delta-sorted
    order, step j adds a_m conj(a_n) [F_{delta_j} - F_{delta_{j-1}}] over the
    pairs with both indices >= j (F_{delta_0} = 0), one n x n transform per
    step."""

    def rescaled(delta, freq):
        if majorant == "M":
            return psi_hat(freq / delta) / delta
        return numeric_ft("psi_beurling", freq / delta, tol=1e-6) / delta

    order = nodes.order
    lam = nodes.lambdas[order]
    dd = nodes.deltas[order]
    aa = np.asarray(a, dtype=complex)[order]
    n = lam.size
    diff = lam[:, None] - lam[None, :]
    pair = np.outer(aa, aa.conj())
    total = 0.0 + 0.0j
    prev = np.zeros((n, n), dtype=complex)
    for j in range(n):
        cur = rescaled(dd[j], diff)
        block = slice(j, n)
        total += np.sum(pair[block, block] * (cur[block, block] - prev[block, block]))
        prev = cur
    return total


class TestComputeDeltas:
    def test_example_three_nodes(self):
        ns = compute_deltas([0.0, 1.0, 3.0])
        np.testing.assert_array_equal(ns.deltas, [1.0, 1.0, 2.0])
        assert ns.order[0] == 2  # largest separation first

    def test_example_uneven(self):
        ns = compute_deltas([0.0, 0.1, 10.0])
        np.testing.assert_allclose(ns.deltas, [0.1, 0.1, 9.9])

    def test_input_order_preserved(self):
        ns = compute_deltas([3.0, 0.0, 1.0])
        np.testing.assert_array_equal(ns.lambdas, [3.0, 0.0, 1.0])
        np.testing.assert_array_equal(ns.deltas, [2.0, 1.0, 1.0])

    def test_order_sorts_deltas_nonincreasing(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            lam, _ = random_instance(rng, 7)
            ns = compute_deltas(lam)
            sorted_d = ns.deltas[ns.order]
            assert np.all(np.diff(sorted_d) <= 0.0)

    def test_two_nodes(self):
        ns = compute_deltas([4.0, 6.5])
        np.testing.assert_array_equal(ns.deltas, [2.5, 2.5])
        assert len(ns) == 2

    def test_duplicate_error_carries_pair(self):
        with pytest.raises(DuplicateNodesError) as info:
            compute_deltas([0.0, 1e-12, 5.0])
        assert info.value.pair == (0.0, 1e-12)

    def test_relative_threshold(self):
        # Gap 1e-6 is fine on a range of 1, fatal on a range of 1e4.
        compute_deltas([0.0, 1e-6, 1.0])
        with pytest.raises(DuplicateNodesError):
            compute_deltas([0.0, 1e-6, 1e4])

    def test_identical_nodes(self):
        with pytest.raises(DuplicateNodesError):
            compute_deltas([2.0, 2.0])

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            compute_deltas([1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            compute_deltas([0.0, math.inf])

    def test_frozen_arrays(self):
        ns = compute_deltas([0.0, 1.0])
        with pytest.raises(ValueError):
            ns.deltas[0] = 7.0


class TestBilinearForm:
    def test_two_node_example(self):
        ns = compute_deltas([0.0, 0.25])
        assert bilinear_form(ns, [1.0, 1j]) == 8j

    def test_purely_imaginary(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            lam, a = random_instance(rng, 6)
            phi = bilinear_form(compute_deltas(lam), a)
            assert abs(phi.real) < 1e-12 * max(1.0, abs(phi))

    def test_matches_brute_loop(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 5, 8):
            lam, a = random_instance(rng, n)
            got = bilinear_form(compute_deltas(lam), a)
            want = brute_bilinear(lam, a)
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    def test_real_coefficients_give_zero(self):
        # With real a the form is antisymmetric under m <-> n and cancels.
        ns = compute_deltas([0.0, 1.0, 2.5, 4.0])
        assert abs(bilinear_form(ns, [1.0, -2.0, 0.5, 3.0])) < 1e-14

    def test_length_mismatch(self):
        ns = compute_deltas([0.0, 1.0])
        with pytest.raises(ValueError):
            bilinear_form(ns, [1.0, 2.0, 3.0])

    def test_nonfinite_coefficients(self):
        ns = compute_deltas([0.0, 1.0])
        with pytest.raises(ValueError):
            bilinear_form(ns, [1.0, complex(math.nan, 0.0)])


class TestWeightedNormAndMargin:
    def test_weighted_norm(self):
        ns = compute_deltas([0.0, 1.0, 3.0])
        assert weighted_norm(ns, [1.0, 1j, 2.0]) == pytest.approx(1.0 + 1.0 + 2.0, rel=1e-15)

    def test_margin_formula(self):
        ns = compute_deltas([1.0, 2.0, 3.0])
        a = [1.0, -1.0 + 0.5j, 0.25j]
        margin = verify_inequality(ns, a, BOUND_FOURIER)
        expected = BOUND_FOURIER * weighted_norm(ns, a) - abs(bilinear_form(ns, a))
        assert margin == pytest.approx(expected, rel=1e-15)
        assert margin > 0.0

    @pytest.mark.parametrize("bad", [0.0, -3.0, math.inf, math.nan])
    def test_constant_validation(self, bad):
        ns = compute_deltas([0.0, 1.0])
        with pytest.raises(ValueError):
            verify_inequality(ns, [1.0, 1.0], bad)


@pytest.fixture(
    scope="module",
    params=[(64, 0.0), (256, 0.0), (1024, 0.0), (2048, 0.0), (384, 0.3)],
    ids=["equal64", "equal256", "equal1024", "equal2048", "jittered384"],
)
def dense_oracle(request):
    """A node system and its C* from the dense Hermitian eigensolver."""
    n, jitter = request.param
    lam = np.arange(float(n)) + np.random.default_rng(n).uniform(-jitter, jitter, n)
    ns = compute_deltas(lam)
    return ns, scipy.linalg.eigvalsh(1j * coupling_matrix(ns))[-1]


class TestSharpConstant:
    def test_two_nodes_always_one(self):
        for lam in ([0.0, 0.3], [1.0, 2.0], [-5.0, 17.0]):
            est = sharp_constant(compute_deltas(lam), tol=1e-11)
            assert est.constant == pytest.approx(1.0, abs=1e-10)

    def test_three_equal_gaps(self):
        est = sharp_constant(compute_deltas([1.0, 2.0, 3.0]), tol=1e-11)
        assert est.constant == pytest.approx(1.5, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 12])
    def test_matches_eigensolver_small(self, n):
        lam = np.arange(1.0, n + 1.0)
        est = sharp_constant(compute_deltas(lam), tol=1e-11)
        assert est.constant == pytest.approx(LADDER_EIG[n], abs=1e-9)

    def test_matches_eigensolver_random(self):
        rng = np.random.default_rng(17)
        for n in (3, 6, 10, 12):
            lam, _ = random_instance(rng, n)
            est = sharp_constant(compute_deltas(lam), tol=1e-11)
            assert est.constant == pytest.approx(brute_constant(lam), abs=1e-8)

    @pytest.mark.parametrize("n", [64, 256])
    def test_frozen_ladder_larger(self, n):
        est = sharp_constant(compute_deltas(np.arange(1.0, n + 1.0)), tol=1e-10)
        assert est.constant == pytest.approx(LADDER_EIG[n], abs=5e-8)

    def test_witness_achieves_constant(self):
        rng = np.random.default_rng(19)
        for n in (2, 5, 30):
            lam, _ = random_instance(rng, n)
            ns = compute_deltas(lam)
            est = sharp_constant(ns, tol=1e-11)
            ratio = abs(bilinear_form(ns, est.witness)) / weighted_norm(ns, est.witness)
            assert ratio >= est.constant - est.residual - 1e-12

    def test_witness_is_sharp_not_just_feasible(self):
        # No coefficient vector can beat the constant either.
        rng = np.random.default_rng(23)
        lam, a = random_instance(rng, 9)
        ns = compute_deltas(lam)
        est = sharp_constant(ns, tol=1e-11)
        ratio = abs(bilinear_form(ns, a)) / weighted_norm(ns, a)
        assert ratio <= est.constant + 1e-8

    def test_scaling_invariance(self):
        lam = np.array([0.0, 0.7, 1.9, 4.0])
        base = sharp_constant(compute_deltas(lam), tol=1e-11).constant
        for c in (0.01, 3.0, 250.0):
            scaled = sharp_constant(compute_deltas(c * lam), tol=1e-11).constant
            assert scaled == pytest.approx(base, rel=1e-9)

    def test_translation_invariance(self):
        lam = np.array([0.0, 0.7, 1.9, 4.0])
        base = sharp_constant(compute_deltas(lam), tol=1e-11).constant
        shifted = sharp_constant(compute_deltas(lam - 123.0), tol=1e-11).constant
        assert shifted == pytest.approx(base, rel=1e-10)

    def test_estimate_metadata(self):
        est = sharp_constant(compute_deltas([1.0, 2.0, 3.0]))
        assert isinstance(est, SpectralEstimate)
        assert est.iterations >= 1
        assert est.residual >= 0.0
        assert est.witness.shape == (3,)

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            sharp_constant(compute_deltas([0.0, 1.0]), tol=1e-13)
        with pytest.raises(ValueError):
            sharp_constant(compute_deltas([0.0, 1.0]), tol=math.nan)

    def test_max_iteration_error(self):
        ns = compute_deltas(np.arange(1.0, 65.0))
        with pytest.raises(ToleranceNotMetError) as info:
            sharp_constant(ns, tol=1e-12, max_iterations=3)
        err = info.value
        assert err.evaluations == 3
        assert 0.0 < err.value < math.pi
        assert err.err_estimate == math.inf

    def test_deterministic(self):
        ns = compute_deltas(np.arange(1.0, 20.0))
        a = sharp_constant(ns)
        b = sharp_constant(ns)
        assert a.constant == b.constant and a.iterations == b.iterations

    @pytest.mark.parametrize("tol", [1e-10, 1e-9])
    def test_residual_bounds_dense_error(self, dense_oracle, tol):
        ns, top = dense_oracle
        est = sharp_constant(ns, tol=tol)
        assert abs(est.constant - top) <= est.residual <= tol

    @pytest.mark.parametrize("seed", [7, 17, 58])
    def test_small_system_certified(self, seed):
        # The top eigenvalue of -A^2 is double; a solve for one copy of it left
        # vector residuals near 1e-9 on these N = 24 systems.
        lam, _ = random_instance(np.random.default_rng(seed), 24)
        ns = compute_deltas(lam)
        est = sharp_constant(ns, tol=1e-12)
        top = scipy.linalg.eigvalsh(1j * coupling_matrix(ns))[-1]
        assert abs(est.constant - top) <= est.residual <= 1e-12

    def test_witness_reproducible(self):
        # At N = 2, -A^2 is a multiple of I: the Lanczos process breaks down at
        # once and ARPACK draws a fresh vector, which must come from ``seed``.
        ns = compute_deltas([1.0, 2.0])
        first = sharp_constant(ns).witness
        for _ in range(8):
            assert np.array_equal(sharp_constant(ns).witness, first)

    def test_uncertified_value_raises(self):
        # At N = 2048 the floating-point floor n * eps * C* alone is 1.4e-12.
        ns = compute_deltas(np.arange(1.0, 2049.0))
        with pytest.raises(ToleranceNotMetError, match="exceeds tol") as info:
            sharp_constant(ns, tol=1e-12)
        err = info.value
        assert err.value == pytest.approx(3.1359446950367706, abs=1e-11)
        assert 1e-12 < err.err_estimate < math.inf
        assert err.evaluations > 0

    def test_row_block_operator(self, monkeypatch):
        # Above the cache limit A is rebuilt in row blocks (here 128, 128, 44).
        lam = np.arange(300.0) + np.random.default_rng(31).uniform(-0.3, 0.3, 300)
        ns = compute_deltas(lam)
        dense = sharp_constant(ns, tol=1e-10)
        monkeypatch.setattr(hb, "_CACHE_LIMIT", 100)
        blocked = sharp_constant(ns, tol=1e-10)
        assert blocked.constant == pytest.approx(brute_constant(lam), abs=blocked.residual)
        assert blocked.constant == pytest.approx(dense.constant, abs=1e-12)

    def test_dense_build_peak_memory(self):
        # The dense A is filled in row blocks: the build's transient peak
        # stays near A itself (a one-shot outer-product quotient doubles it).
        n = 2048
        ns = compute_deltas(np.arange(1.0, n + 1.0))
        tracemalloc.start()
        try:
            apply_A = hb._antisym_apply(ns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * n * 8
        # Same entries, bit for bit, as the one-shot formula (the solver's A
        # is the transpose of coupling_matrix).
        expected = coupling_matrix(ns)
        for j in (0, 1, 777, n - 1):
            unit = np.zeros(n)
            unit[j] = 1.0
            assert np.array_equal(apply_A(unit), expected[j])

    def test_import_leaves_sparse_linalg_unloaded(self):
        # The solver imports scipy.sparse.linalg on first use, which keeps it
        # out of the start-up cost of every other command.
        src = os.path.dirname(os.path.dirname(hb.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, extremal; sys.exit('scipy.sparse.linalg' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestBounds:
    def test_constant_values(self):
        assert BOUND_SCHUR == pytest.approx(math.pi, rel=1e-15)
        assert BOUND_MONTGOMERY_VAUGHAN == pytest.approx(1.5 * math.pi, rel=1e-15)
        assert BOUND_FOURIER == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert BOUND_PREISSMANN == pytest.approx(4.1324743620815404, rel=1e-15)
        assert hb.SELBERG_REPORTED == 3.2
        assert hb.CONJECTURED_SHARP == BOUND_SCHUR

    def test_ordering(self):
        assert BOUND_SCHUR < BOUND_PREISSMANN < BOUND_MONTGOMERY_VAUGHAN < BOUND_FOURIER

    @given(st.integers(2, 24), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_property_sharp_constant_below_schur(self, n, seed):
        # Every finite configuration sits under pi (the conjectured sharp
        # bound is proved for, e.g., well-separated systems; numerically it
        # holds across all random draws we make).
        rng = np.random.default_rng(seed)
        lam, _ = random_instance(rng, n)
        est = sharp_constant(compute_deltas(lam), tol=1e-10)
        assert est.constant < BOUND_SCHUR + 1e-9

    @given(st.integers(2, 16), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_property_margin_at_two_pi(self, n, seed):
        rng = np.random.default_rng(seed)
        lam, a = random_instance(rng, n)
        assert verify_inequality(compute_deltas(lam), a, BOUND_FOURIER) >= 0.0


class TestTelescoping:
    def test_matches_identity_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            lam, a = random_instance(rng, n, min_gap=0.1)
            ns = compute_deltas(lam)
            s = telescoping_sum(ns, a, majorant="M")
            ident = telescoping_identity(ns, a)
            assert s == pytest.approx(ident, abs=1e-10)
            assert s >= -1e-8

    def test_identity_closed_form(self):
        ns = compute_deltas([0.0, 1.3, 2.1])
        a = np.array([0.7, -0.4 + 0.9j, 0.2 - 0.3j])
        phi = bilinear_form(ns, a)
        expected = float((-phi / (1j * math.pi)).real) + 2.0 * weighted_norm(ns, a)
        assert telescoping_identity(ns, a) == pytest.approx(expected, rel=1e-14)

    def test_beurling_closed_value(self):
        # The interpolating majorant telescopes to the same form with the
        # deficit integral 1 instead of 2: every off-diagonal frequency has
        # |lambda_m - lambda_n| >= max(delta_m, delta_n), where the band
        # identity pins the transform to -1/(pi i t).
        ns = compute_deltas([0.0, 1.3, 2.1])
        a = np.array([0.7, -0.4 + 0.9j, 0.2 - 0.3j])
        got = telescoping_sum(ns, a, majorant="BeurlingB")
        phi = bilinear_form(ns, a)
        expected = float((-phi / (1j * math.pi)).real) + weighted_norm(ns, a)
        assert got == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("n", [2, 5, 9, 16, 24, 32])
    def test_beurling_closed_value_seeded(self, n):
        rng = np.random.default_rng(100 + n)
        lam, a = random_instance(rng, n)
        ns = compute_deltas(lam)
        got = telescoping_sum(ns, a, majorant="BeurlingB")
        phi = bilinear_form(ns, a)
        expected = weighted_norm(ns, a) + float((-phi / (1j * math.pi)).real)
        assert got == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("majorant", ["M", "BeurlingB"])
    def test_collapsed_kernel_matches_step_loop(self, majorant):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            lam, a = random_instance(rng, n)
            ns = compute_deltas(lam)
            got = hb._telescoping_complex(ns.lambdas, ns.deltas, a, majorant)
            ref = telescoping_step_loop(ns, a, majorant)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_step_loop_reference_agrees_with_identity(self):
        # Anchor the loop reference itself to the closed form for M.
        rng = np.random.default_rng(12)
        lam, a = random_instance(rng, 6)
        ns = compute_deltas(lam)
        ref = telescoping_step_loop(ns, a, "M")
        assert ref.real == pytest.approx(telescoping_identity(ns, a), abs=1e-10)

    def test_majorant_validation(self):
        ns = compute_deltas([0.0, 1.0])
        with pytest.raises(ValueError):
            telescoping_sum(ns, [1.0, 1.0], majorant="Q")

    def test_imag_residue_guard(self, monkeypatch):
        ns = compute_deltas([0.0, 1.0])

        def poisoned(majorant, delta, freq):
            return np.full(freq.shape, 1.0 + 1.0j)

        monkeypatch.setattr(hb, "_deficit_hat_matrix", poisoned)
        with pytest.raises(ArithmeticError):
            telescoping_sum(ns, [1.0, 1.0], majorant="M")


class TestRemarkExperiment:
    def test_reproducible(self):
        a = remark_experiment(3, trials=5, seed=42)
        b = remark_experiment(3, trials=5, seed=42)
        assert a == b

    def test_seed_changes_results(self):
        a = remark_experiment(2, trials=4, seed=1)
        b = remark_experiment(2, trials=4, seed=2)
        assert a["trial_values"] != b["trial_values"]

    def test_report_structure(self):
        rep = remark_experiment(4, trials=6, seed=9)
        assert rep["experiment"] == "remark"
        assert rep["n_nodes"] == 4 and rep["trials"] == 6 and rep["seed"] == 9
        assert len(rep["trial_values"]) == 6
        assert rep["min_value"] == min(rep["trial_values"])
        am = rep["argmin_trial"]
        assert rep["trial_values"][am] == rep["min_value"]
        assert len(rep["min_config"]["lambdas"]) == 4
        assert len(rep["min_config"]["coeffs_re"]) == 4
        assert rep["negative_count"] == sum(v < 0.0 for v in rep["trial_values"])
        assert rep["max_imag_residue"] <= 1e-6

    def test_no_sign_assertion(self):
        # The report never claims a sign; it simply records the minimum.
        rep = remark_experiment(2, trials=3, seed=0)
        assert "min_value" in rep and "negative_count" in rep
        assert not any("assert" in str(k) for k in rep)

    @pytest.mark.parametrize("bad_n", [1, 33, 0])
    def test_node_bounds(self, bad_n):
        with pytest.raises(ValueError):
            remark_experiment(bad_n, trials=2, seed=0)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            remark_experiment(2, trials=0, seed=0)

    @pytest.mark.parametrize("n", [2, 3, 8, 32])
    def test_chunked_trials_match_single_systems(self, n):
        # Each chunk's stacked kernel sum gives, bit for bit, what the
        # one-system call gives on the same draw, for trial counts one below,
        # at and one above the chunk size.  The draws do not depend on the
        # trial count, so one pass of single-system calls serves all three.
        chunk = hb._KERNEL_ENTRIES // (n * n)
        rng = Draws(n)
        values, residues = [], []
        for _ in range(chunk + 1):
            lam, coeffs = hb._random_systems(rng, 1, n)
            ns = compute_deltas(lam[0])
            total = hb._telescoping_complex(ns.lambdas, ns.deltas, coeffs[0], "BeurlingB")
            values.append(float(total.real))
            residues.append(abs(float(total.imag)))
        for trials in (chunk - 1, chunk, chunk + 1):
            rep = remark_experiment(n, trials=trials, seed=n)
            assert rep["trial_values"] == values[:trials]
            assert rep["max_imag_residue"] == max(residues[:trials])

    def test_memory_does_not_grow_with_trials(self):
        # Only the running minimum's system is kept: eight chunks of trials
        # at N = 32 peak above one chunk by no more than the extra trial
        # values, as the report's floats (kept systems would add about 1 kB
        # a trial).
        chunk = hb._KERNEL_ENTRIES // (32 * 32)
        peaks = []
        for trials in (chunk, 8 * chunk):
            tracemalloc.start()
            try:
                remark_experiment(32, trials=trials, seed=4)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 7 * chunk * (sys.getsizeof(1.0) + 8)

    def test_duplicate_nodes_in_a_chunk(self, monkeypatch):
        # Safety check kept on the batch: the exact sampler never draws two
        # equal nodes, so plant them in the third trial of a chunk.
        sampler = hb._random_systems
        draws = []

        def planted(rng, count, n):
            lam, coeffs = sampler(rng, count, n)
            lam[2, 2] = lam[2, 1]
            draws.append(lam)
            return lam, coeffs

        monkeypatch.setattr(hb, "_random_systems", planted)
        with pytest.raises(DuplicateNodesError) as info:
            remark_experiment(5, trials=6, seed=0)
        assert info.value.pair == (draws[0][2, 1], draws[0][2, 1])


class TestConstantSearch:
    def test_deterministic(self):
        a = constant_search(8, 10, 3)
        b = constant_search(8, 10, 3)
        assert a == b

    def test_baseline_and_best(self):
        rep = constant_search(8, 10, 3)
        assert rep["baseline_equally_spaced"] == pytest.approx(LADDER_EIG[8], abs=1e-7)
        assert rep["best_constant"] >= rep["baseline_equally_spaced"] - 1e-12
        assert rep["best_constant"] <= BOUND_PREISSMANN + 1e-6
        # Baseline occupies slot 0, followed by one entry per trial.
        assert len(rep["trial_values"]) == 10 + 1
        assert rep["trial_values"][0] == rep["baseline_equally_spaced"]
        assert rep["bound_preissmann"] == BOUND_PREISSMANN

    def test_best_lambdas_reproduce_best_constant(self):
        rep = constant_search(6, 12, 11)
        redo = sharp_constant(compute_deltas(rep["best_lambdas"]), tol=1e-10)
        assert redo.constant == pytest.approx(rep["best_constant"], abs=1e-8)

    def test_node_sampler_at_size_cap(self):
        # 2048 nodes on [0, 10] with gap 1e-4: rejection sampling never succeeds.
        lam = hb._random_nodes(np.random.default_rng(0), 2048, min_gap=1e-4)
        assert lam.shape == (2048,)
        assert 0.0 <= lam[0] and lam[-1] <= 10.0
        assert np.min(np.diff(lam)) >= 1e-4 - 1e-12

    def test_node_sampler_distribution(self):
        # Conditioned on gaps >= g, x_i - (i-1) g are uniform order statistics
        # on [0, L - (n-1) g]: E[x_i] = i (L - (n-1) g) / (n+1) + (i-1) g.
        rng = np.random.default_rng(37)
        draws = np.array([hb._random_nodes(rng, 3, min_gap=2.0) for _ in range(20_000)])
        assert np.min(np.diff(draws, axis=1)) >= 2.0 - 1e-12
        expected = np.arange(1, 4) * 6.0 / 4.0 + 2.0 * np.arange(3)
        assert np.max(np.abs(draws.mean(axis=0) - expected)) < 0.05

    def test_node_bounds(self):
        with pytest.raises(ValueError):
            constant_search(1, 5, 0)
        with pytest.raises(ValueError):
            constant_search(4096, 5, 0)
