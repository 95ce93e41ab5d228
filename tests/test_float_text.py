"""The bulk float formatter behind ``extremal eval``'s CSV, against ``repr``."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal._float_text import _ROWS, _TABLES, csv_bytes


def assert_repr(values):
    """Each value formats as ``repr(float(v))``, one per line."""
    values = np.asarray(values, dtype=np.float64)
    got = b"".join(csv_bytes([[values]])).decode("ascii")
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
    got = [text.decode("ascii") for text in csv_bytes([columns])]
    assert len(got) == 3
    want = "".join(",".join(map(repr, row)) + "\n"
                   for row in zip(*(c.tolist() for c in columns)))
    assert "".join(got) == want


def test_tables_share_one_workspace():
    # Tables of any length, blocks cut short included, give the rows of
    # all the tables, formatted in the workspace of the first.
    rng = np.random.default_rng(11)
    rows = 3 * _ROWS + 5
    columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, size=rows)
               for _ in range(2)]
    cuts = [0, 7, _ROWS + 7, _ROWS + 8, rows]
    tables = ([c[a:b] for c in columns] for a, b in zip(cuts, cuts[1:]))
    blocks = list(csv_bytes(tables))
    assert [len(b.splitlines()) for b in blocks] == [7, _ROWS, 1, _ROWS, _ROWS - 3]
    want = "".join(f"{a!r},{b!r}\n" for a, b in zip(*(c.tolist() for c in columns)))
    assert b"".join(blocks).decode("ascii") == want
    with pytest.raises(ValueError, match="same number of columns"):
        list(csv_bytes([columns, columns[:1]]))


def test_yielded_block_is_not_overwritten():
    # A block's text stays as it was after the next block is formatted in
    # the same workspace.
    values = np.arange(2 * _ROWS, dtype=np.float64)
    blocks = csv_bytes([[values]])
    first = next(blocks)
    kept = bytes(first)
    second = next(blocks)
    assert first == kept and first != second
    assert kept.startswith(b"0.0\n1.0\n")


def test_memory_does_not_grow_with_the_blocks():
    # Past the first block every block is computed in the same workspace:
    # three times the blocks peak within one text of the same memory.
    values = np.random.default_rng(13).standard_normal(3 * 8 * _ROWS)
    list(csv_bytes([[values[:_ROWS]]]))  # anything loaded on first use

    def peak(blocks):
        tracemalloc.start()
        try:
            size = max(len(text) for text in csv_bytes([[values[:blocks * _ROWS]]]))
            return tracemalloc.get_traced_memory()[1], size
        finally:
            tracemalloc.stop()

    (few, size), (many, _) = peak(8), peak(3 * 8)
    assert abs(many - few) <= size


def test_digit_removal_tables_are_exact():
    # The float64 shortcut that builds the count of digits that the
    # rounding interval frees gives, for every exponent, the count from the
    # exact 125-bit multiplier.
    tables = _TABLES
    for e in range(2047):
        mult = sum(int(tables.limbs[k][e]) << (32 * k) for k in range(4))
        shift = int(tables.shift[e]) + 96
        for width, table in ((4, tables.r0), (3, tables.r0_pow2)):
            floor = max((width * mult >> shift) - 1, 1)
            assert table[e] == len(str(floor)) - 1, (e, width)


def eval_blocks():
    from extremal.majorants import closed_columns

    x = np.linspace(-50.345678, 50.345678, _ROWS)
    return [[x, *closed_columns(x)]]


def sparse_blocks():
    # Every value takes the sparse cases: integers, halves and zeros.
    k = np.arange(_ROWS * 6, dtype=np.float64).reshape(6, _ROWS) - 3 * _ROWS
    return [list(k), list(k + 0.5), list(np.zeros_like(k))]


@pytest.mark.parametrize("blocks, bound", [
    (eval_blocks, 160), (sparse_blocks, 225),
], ids=["eval", "sparse"])
def test_block_memory_is_bounded(blocks, bound):
    # One full block of six columns peaks within the bytes a value that
    # the module docstring states: the workspace, translate's result and
    # the sparse branches' index arrays.
    for columns in blocks():
        list(csv_bytes([columns]))  # builds the lookup tables
        tracemalloc.start()
        try:
            for _ in csv_bytes([columns]):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * len(columns) * _ROWS


@given(st.lists(st.floats(), min_size=1, max_size=20))
@settings(max_examples=300)
def test_property_matches_repr(values):
    assert_repr(values)
