"""Scalar special functions: normalized sinc, triangle, trigamma, Si/Cin, E_1."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal import fourier, majorants, specfun
from extremal.specfun import EULER_GAMMA, expint_en, si_cin, sinc, trigamma

# mpmath polygamma(1, x) at 50 digits.
TRIGAMMA_TABLE = {
    0.5: 4.9348022005446793094,
    1.0: 1.6449340668482264365,
    2.0: 0.64493406684822643647,
    3.25: 0.35979829030957987507,
    10.75: 0.097483848201852104396,
    0.001: 1000001.6425331958273,
    37.5: 0.027025382266785013993,
}


class TestSinc:
    def test_zero(self):
        assert sinc(0.0) == 1.0

    def test_half(self):
        assert sinc(0.5) == pytest.approx(2.0 / math.pi, abs=1e-16)

    def test_exact_zeros_at_integers(self):
        n = np.arange(-300, 301)
        n = n[n != 0]
        assert np.all(sinc(n.astype(float)) == 0.0)

    def test_even(self):
        x = np.linspace(0.05, 12.3, 101)
        np.testing.assert_array_equal(sinc(x), sinc(-x))

    def test_matches_numpy_away_from_integers(self):
        x = np.linspace(0.13, 25.13, 400)
        np.testing.assert_allclose(sinc(x), np.sinc(x), rtol=0, atol=5e-16)

    def test_taylor_branch_continuity(self):
        # The series branch hands over at |x| = 1e-4.
        for x in (1e-4 - 1e-12, 1e-4 + 1e-12, 9.9e-5, 1.01e-4):
            assert sinc(x) == pytest.approx(np.sinc(x), abs=1e-15)

    def test_large_argument_accuracy(self):
        # Argument reduction keeps full precision far from the origin.
        x = 1e6 + 0.25
        assert sinc(x) == pytest.approx(math.sin(math.pi * x) / (math.pi * x), rel=1e-13)

    @pytest.mark.parametrize("x", [1e60, -1e60, 1e200, -1e300])
    def test_huge_argument_is_quiet(self, x):
        # The discarded Taylor branch must not overflow far from the origin.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sinc(x) == 0.0
            huge, small = sinc(np.array([x, 5e-5]))
        assert huge == 0.0
        assert small == pytest.approx(np.sinc(5e-5), abs=1e-15)

    def test_largest_arguments_are_quiet(self):
        # pi x overflows past 5.7e307, where every double is an integer.
        xs = np.array([1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sinc(1e308) == 0.0 and sinc(-1e308) == 0.0
            assert list(sinc(xs)) == [0.0, 0.0, 0.0, 0.0]

    @given(st.floats(-50, 50).filter(lambda x: abs(x - round(x)) > 1e-3))
    def test_property_matches_direct_formula(self, x):
        assert sinc(x) == pytest.approx(math.sin(math.pi * x) / (math.pi * x), rel=1e-12, abs=1e-14)


def triangle(t):
    """The unit hat max(1 - |t|, 0), the transform of sinc^2: the oracle of
    the transform tests in tests/test_fourier.py."""
    return np.maximum(1.0 - np.abs(t), 0.0)


class TestTriangle:
    def test_peak(self):
        assert triangle(0.0) == 1.0

    def test_support(self):
        assert triangle(1.0) == 0.0
        assert triangle(-1.0) == 0.0
        assert triangle(1.5) == 0.0
        assert triangle(-7.0) == 0.0

    def test_slope(self):
        assert triangle(0.25) == 0.75
        assert triangle(-0.5) == 0.5

    @given(st.floats(-3, 3))
    def test_property_hat_shape(self, t):
        val = triangle(t)
        assert val == max(0.0, 1.0 - abs(t))


class TestTrigamma:
    @pytest.mark.parametrize("x,expected", sorted(TRIGAMMA_TABLE.items()))
    def test_frozen_values(self, x, expected):
        assert trigamma(x) == pytest.approx(expected, rel=5e-15)

    def test_basel_value(self):
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-15)

    def test_half_value(self):
        assert trigamma(0.5) == pytest.approx(math.pi**2 / 2.0, rel=1e-15)

    def test_vectorized(self):
        x = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(
            trigamma(x), [math.pi**2 / 2, math.pi**2 / 6, math.pi**2 / 6 - 1.0], rtol=1e-14
        )

    @given(st.floats(0.01, 80.0))
    @settings(max_examples=200)
    def test_property_recurrence(self, x):
        # psi'(x) = psi'(x+1) + 1/x^2
        assert trigamma(x) == pytest.approx(trigamma(x + 1.0) + 1.0 / x**2, rel=1e-12)

    @given(st.floats(0.05, 40.0))
    def test_property_duplication(self, x):
        # psi'(2x) = (psi'(x) + psi'(x + 1/2)) / 4
        lhs = trigamma(2.0 * x)
        rhs = 0.25 * (trigamma(x) + trigamma(x + 0.5))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(st.floats(0.2, 0.8))
    def test_property_reflection(self, x):
        # psi'(x) + psi'(1-x) = pi^2 / sin^2(pi x)
        lhs = trigamma(x) + trigamma(1.0 - x)
        rhs = (math.pi / math.sin(math.pi * x)) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_monotone_decreasing(self):
        x = np.linspace(0.1, 30.0, 500)
        vals = trigamma(x)
        assert np.all(np.diff(vals) < 0.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            trigamma(bad)


# The Bernoulli-based coefficients as literals, each a correctly rounded
# quotient; those derived from specfun._BERNOULLI must hold these bits, the
# zeros +0.0 included.  trigamma sums p / q for B_2, ..., B_12.
BERNOULLI_LITERALS = {
    "trigamma": (
        tuple(p / q for p, q in specfun._BERNOULLI[:6]),
        (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0, -691.0 / 2730.0)),
    "_R_RIGHT": (
        majorants._R_RIGHT,
        (0.5, -1.0 / 6.0, 0.0, 1.0 / 30.0, 0.0, -1.0 / 42.0,
         0.0, 1.0 / 30.0, 0.0, -5.0 / 66.0)),
    "_S_LEFT": (
        majorants._S_LEFT,
        (0.5, 1.0 / 6.0, 0.0, -1.0 / 30.0, 0.0, 1.0 / 42.0,
         0.0, -1.0 / 30.0, 0.0, 5.0 / 66.0)),
    "_COT_SERIES": (
        fourier._COT_SERIES,
        (-1 / 3, -1 / 45, -2 / 945, -1 / 4725, -2 / 93555,
         -1382 / 638512875, -4 / 18243225)),
}


@pytest.mark.parametrize("name", BERNOULLI_LITERALS)
def test_bernoulli_tables_bit_for_bit(name):
    derived, literal = BERNOULLI_LITERALS[name]
    assert np.array(derived).tobytes() == np.array(literal).tobytes()


def sici_sweep():
    """Seeded points on (0, 1e4], dense around the seams at 4 and 8."""
    rng = np.random.default_rng(2023)
    return np.concatenate([
        rng.uniform(0.0, 4.5, 300), rng.uniform(3.5, 9.0, 300),
        rng.uniform(8.0, 100.0, 200), rng.uniform(100.0, 1e4, 200),
        [1e-300, 1e-9, 0.25, 4.0, np.nextafter(4.0, 5.0), 8.0, np.nextafter(8.0, 0.0)],
    ])


# The Chebyshev rows of x f and x^2 g behind Si and Cin, as
# ``python3 scripts/sici_tables.py`` prints them after the monomial tables
# that specfun embeds (tests/test_scripts.py checks both).
AUX_MID_CHEBYSHEV = (
    (  # x f(x)
        0.9575366091229092, -0.03840362525328632, -0.002848274744837164,
        0.0005294014335045227, -4.4892984147873624e-05, 5.504824340356468e-07,
        6.346676076900526e-07, -1.5097938474922548e-07, 2.244235352735468e-08,
        -2.1234359652782466e-09, -1.526792666389295e-11, 6.569069361394525e-11,
        -1.9459336105321173e-11, 3.996469486925952e-12, -6.375747412041166e-13,
        7.136118589335889e-14, -9.201623576853225e-16, -2.4228228748252193e-15,
        9.111488196328028e-16, -2.3607131730565077e-16, 4.8922219088743026e-17,
    ),
    (  # x^2 g(x)
        0.8903082352932643, -0.09320126838630677, -0.0035963887368313688,
        0.001535677552171243, -0.00021089988492148273, 1.4443010388657957e-05,
        1.216990545507676e-06, -6.473600608616226e-07, 1.4007312780108633e-07,
        -2.100025587505082e-08, 1.9324363532166503e-09, 8.612773038857948e-11,
        -9.422252216643398e-11, 2.8255217389966638e-11, -6.143025590994624e-12,
        1.0590758793497699e-12, -1.3366129710225154e-13, 5.1373907817933454e-15,
        3.7845245709595785e-15, -1.665163295208877e-15, 4.549592938277613e-16,
    ),
)
AUX_FAR_CHEBYSHEV = (
    (  # x f(x)
        0.9971622020137517, -0.0037600911504702367, -0.0009050789538941268,
        1.9201946508589948e-05, 1.8424922745215255e-06, -1.497321988354541e-07,
        -3.055575091947361e-09, 1.3645558077649746e-09, -7.914460204562491e-11,
        -8.823446120938002e-12, 2.078024435089833e-12, -1.1108069749490496e-13,
        -2.3490978640315254e-14, 5.859324618162656e-15, -4.411352510167634e-16,
    ),
    (  # x^2 g(x)
        0.9916561706283412, -0.011012062770821058, -0.002586801515986458,
        9.00314526787421e-05, 7.696189820817732e-06, -9.173427564480789e-07,
        -3.6716879756187674e-09, 9.530002821429883e-09, -8.324314263874442e-10,
        -4.954243906676142e-11, 1.9989803012016006e-11, -1.7576623702884676e-12,
        -1.6629160388184555e-13, 6.887354763725743e-14, -8.1078623996077e-15,
    ),
)


class TestSiCin:
    @pytest.mark.parametrize("name", ["MID", "FAR"])
    def test_monomial_tables_are_cheb2poly_of_the_chebyshev_rows(self, name):
        # Bit for bit what numpy's cheb2poly made of the rows at import
        # before the tables were embedded in the monomial basis.
        from numpy.polynomial.chebyshev import cheb2poly

        rows = globals()[f"AUX_{name}_CHEBYSHEV"]
        tables = getattr(specfun, f"_AUX_{name}")
        assert len(tables) == len(rows) == 2
        for table, row in zip(tables, rows):
            want = cheb2poly(np.array(row))
            assert np.asarray(table).tobytes() == want.tobytes()

    def test_matches_mpmath_no_worse_than_scipy(self):
        # Cin from scipy is gamma + log x - Ci, as the closed form of G used
        # it before; on [0, 4] that difference cancels, so the power series
        # must win there, and beyond 4 both end in the rounding of log x.
        mpmath = pytest.importorskip("mpmath")
        special = pytest.importorskip("scipy.special")
        x = sici_sweep()
        with mpmath.workdps(30):
            ref_si = np.array([float(mpmath.si(v)) for v in x])
            ref_cin = np.array([
                float(mpmath.euler + mpmath.log(v) - mpmath.ci(v)) for v in x
            ])
        si, cin = si_cin(x)
        scipy_si, scipy_ci = special.sici(x)
        scipy_cin = EULER_GAMMA + np.log(x) - scipy_ci
        for part in (x <= 4.0, x > 4.0):
            for got, scipy_val, ref in ((si, scipy_si, ref_si), (cin, scipy_cin, ref_cin)):
                err = np.max(np.abs(got[part] - ref[part]))
                assert err <= np.max(np.abs(scipy_val[part] - ref[part]))
        small = x <= 4.0
        assert np.max(np.abs(si - ref_si)) <= 1e-15
        assert np.max(np.abs(cin - ref_cin)[small]) <= 1e-15

    def test_parity_and_origin(self):
        assert si_cin(0.0) == (0.0, 0.0)
        x = np.array([0.3, 3.99, 4.5, 7.2, 12.0, 900.0])
        si, cin = si_cin(x)
        neg_si, neg_cin = si_cin(-x)
        np.testing.assert_array_equal(neg_si, -si)
        np.testing.assert_array_equal(neg_cin, cin)
        scalar = si_cin(4.5)
        assert isinstance(scalar[0], float) and scalar == (si[2], cin[2])


    def test_blocks_match_single_points(self):
        # Arrays are evaluated in blocks; entries at the block seams and in
        # a short last block equal the scalar evaluation.
        x = np.linspace(-300.0, 300.0, 3 * 8192 + 3).reshape(3, -1)
        si, cin = si_cin(x)
        assert si.shape == cin.shape == x.shape
        for i in (0, 8191, 8192, 16383, 16384, 24575, 24576, x.size - 1):
            assert (si.flat[i], cin.flat[i]) == si_cin(x.flat[i])


class TestE1:
    @pytest.mark.parametrize("angle", [0.0, 0.25, 0.4, 0.5, -0.25, -0.5])
    def test_matches_mpmath(self, angle):
        # The series below |z| = 2 and the continued fraction above, on rays
        # of the closed right half-plane.
        mpmath = pytest.importorskip("mpmath")
        r = np.concatenate([np.geomspace(1e-6, 1.0, 13), np.linspace(1.0, 10.0, 46)])
        z = r * np.exp(1j * np.pi * angle)
        got = expint_en(1, z)
        with mpmath.workdps(30):
            ref = np.array([complex(mpmath.e1(mpmath.mpc(v.real, v.imag))) for v in z])
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
        assert expint_en(1, complex(z[20])) == got[20]

    def test_domain(self):
        for z in (0.0, -1.0, -0.5 + 1.0j):
            with pytest.raises(ValueError):
                expint_en(1, z)


def expint_reference(mpmath, orders, z):
    """mpmath's E_1 at z, then the upward recurrence at 120 digits; it loses
    at most log10(|z|^30 / 30!) < 55 of them for |z| <= 804, and runs far
    faster than mpmath's own E_n, which takes up to 0.2 s at |z| ~ 50."""
    out = {}
    with mpmath.workdps(120):
        w = mpmath.mpc(z.real, z.imag)
        e, ew = mpmath.e1(w), mpmath.exp(-w)
        for k in range(1, max(orders) + 1):
            if k in orders:
                out[k] = complex(e)
            e = (ew - w * e) / k
    return [out[n] for n in orders]


class TestExpintEn:
    ORDERS = (1, 2, 11, 15, 31)

    def test_matches_mpmath_on_rays(self):
        # 1e-8 <= |z| <= 804 covers the tail channels at T = 64 up to
        # |t| = 2; the rays are the imaginary axis and the diagonals, and
        # the radii include the series cut 2 and the old switch 10.
        mpmath = pytest.importorskip("mpmath")
        r = np.unique(np.concatenate([
            np.geomspace(1e-8, 804.0, 41), np.linspace(1.5, 2.5, 11), [10.0],
        ]))
        z = np.concatenate([
            r * np.exp(1j * np.pi * angle) for angle in (0.5, -0.5, 0.25, -0.25)
        ])
        ref = np.array([expint_reference(mpmath, self.ORDERS, v) for v in z]).T
        for n, ref_n in zip(self.ORDERS, ref):
            got = expint_en(n, z)
            assert np.all(np.abs(got - ref_n) <= 1e-14 * np.abs(ref_n)), n

    def test_real_axis_below_series_cut(self):
        # Where the E_1 series cancels to a few percent of its terms and the
        # recurrence to E_2 and E_3 amplifies that.
        mpmath = pytest.importorskip("mpmath")
        x = np.linspace(1.5, 2.0, 26)
        ref = np.array([expint_reference(mpmath, (2, 3), v + 0j) for v in x]).T
        for n, ref_n in zip((2, 3), ref):
            assert np.all(np.abs(expint_en(n, x) - ref_n) <= 1e-14 * np.abs(ref_n))

    def test_zero_and_domain(self):
        assert expint_en(2, 0.0) == 1.0 and expint_en(31, 0.0) == 1.0 / 30.0
        for bad in ((0, 1.0), (1, 0.0), (2, -1e-3)):
            with pytest.raises(ValueError):
                expint_en(*bad)
