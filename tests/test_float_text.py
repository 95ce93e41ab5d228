"""The bulk float formatter behind ``extremal eval``'s CSV, against ``repr``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal._float_text import _ROWS, csv_rows


def assert_repr(values):
    """Each value formats as ``repr(float(v))``, one per line."""
    values = np.asarray(values, dtype=np.float64)
    got = "".join(csv_rows([values]))
    want = "".join(f"{v!r}\n" for v in values.tolist())
    if got != want:
        pairs = [(w, g) for w, g in zip(want.splitlines(), got.splitlines()) if w != g]
        pytest.fail(f"{len(pairs)} of {values.size} differ from repr "
                    f"(repr, got): {pairs[:5]}")


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, np.nextafter(values, 0.0),
                             np.nextafter(values, np.inf)])
    return np.concatenate([values, -values])


def test_random_bit_patterns():
    # Every sign, exponent and mantissa alike: subnormals, infinities and
    # NaN payloads included.
    bits = np.random.default_rng(20181).integers(
        0, 2**64, size=1_000_000, dtype=np.uint64, endpoint=False)
    for part in np.array_split(bits, 8):
        assert_repr(part.view(np.float64))


def test_powers_of_two_and_neighbours():
    # One value per binary exponent, subnormals to the largest.
    assert_repr(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_powers_of_ten_and_neighbours():
    assert_repr(with_neighbours([float(f"1e{k}") for k in range(-323, 309)]))


def test_zeros_infinities_nan_and_extremes():
    assert_repr([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                 5e-324, -5e-324, 2.2250738585072014e-308,
                 1.7976931348623157e308, -1.7976931348623157e308])


def test_integers():
    assert_repr(np.arange(-2000, 2001))


@pytest.mark.parametrize(
    "value", [1e-4, 1e-5, 1e15, 1e16, 9999999999999998.0, 1e22, 1e23, 0.1, 0.3]
)
def test_where_repr_switches_layout(value):
    assert_repr(with_neighbours([value]))


def test_short_mantissas_and_ties():
    # Values with few significant bits take Ryū's exact-tail branches; the
    # dyadic 1 + k / 2**17 lie exactly halfway between two shortest
    # candidates and round to even.
    rng = np.random.default_rng(5)
    odd = rng.integers(1, 2**20, size=100_000) | 1
    assert_repr(np.ldexp(odd.astype(float), rng.integers(-80, 80, size=odd.size)))
    assert_repr(1.0 + np.arange(1, 2**17, 2) * 2.0**-17)


def test_rows_across_blocks():
    rng = np.random.default_rng(7)
    rows = 2 * _ROWS + 3
    columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, size=rows)
               for _ in range(3)]
    columns[1][::7] = 0.0
    got = list(csv_rows(columns))
    assert len(got) == 3
    want = "".join(",".join(map(repr, row)) + "\n"
                   for row in zip(*(c.tolist() for c in columns)))
    assert "".join(got) == want


@given(st.lists(st.floats(), min_size=1, max_size=20))
@settings(max_examples=300)
def test_property_matches_repr(values):
    assert_repr(values)
