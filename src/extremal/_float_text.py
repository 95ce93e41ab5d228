"""Shortest round-trip text of float64 arrays, formatted in bulk.

:func:`csv_rows` turns equal-length float64 columns into CSV rows whose
fields are byte-identical to ``repr(float(v))``: the shortest decimal that
reads back as the same double, the nearest one when several are that
short, ties to even, laid out as ``repr`` lays it out (``-0.0``, ``inf``,
``nan``, ``1e-05`` but ``0.0001``, ``1e+16`` but ``1000000000000000.0``).

The digits come from Ryū (Adams, "Ryū: fast float-to-string conversion",
PLDI 2018, doi:10.1145/3192366.3192369).  Per value it takes one product
of the scaled mantissa with a 125-bit power of five looked up by binary
exponent, a shift, and the removal of the digits that the rounding
interval leaves free.  All of it is fixed-width integer arithmetic, so it
runs on whole arrays here: the products in 32-bit limbs held in uint64,
the digit removal as counts rather than a loop per value, and the text
as bytes shifted within uint64 words.
"""

from __future__ import annotations

import functools
import types

import numpy as np

__all__ = ["csv_rows"]

# Rows formatted at a time.  The work arrays of a block take about 1.8 MB;
# at 2048 rows the peak RSS of `extremal eval` on 100,001 points rose above
# that of per-value repr (43.2 against 41.6 MB).
_ROWS = 1024

_MANT_BITS = 52
_POW5_BITS = 125  # bits of every multiplier, as in Ryū's double tables
_M32 = 0xFFFFFFFF
_ZEROS = 0x3030303030303030  # eight ASCII '0's in a uint64
_POINTS = 0x2E2E2E2E2E2E2E2E  # eight ASCII '.'s

_POW10 = 10 ** np.arange(20, dtype=np.uint64)  # 10**19 is the last in uint64
_POW5 = 5 ** np.arange(22, dtype=np.uint64)
# _BELOW[k, p]: the bytes of word k of a text that lie below its byte p.
_BELOW = np.array([(1 << (8 * b)) - 1 for b in range(9)], dtype=np.uint64)[
    np.clip(np.arange(26) - 8 * np.arange(3)[:, None], 0, 8)]
_COLUMNS = np.arange(32, dtype=np.uint8)


@functools.cache
def _tables():
    """The lookup tables, built on first use, so that a command which writes
    no CSV goes without their 0.3 MB and 2 ms.

    By biased exponent: ``limbs[k]``, limb k (32 bits, low first) of Ryū's
    multiplier, which is ``floor(2**k / 5**q) + 1`` where ``e2 >= 0`` and
    the top 125 bits of ``5**i`` where ``e2 < 0`` (the reference
    implementation's DOUBLE_POW5_INV_SPLIT and DOUBLE_POW5_SPLIT);
    ``shift``, the bit of the product where the result starts, in
    [118, 125]; ``e10``, the decimal exponent of the result; and Ryū's
    ``q``.  By i < 10**4: ``tz4``, the trailing decimal zeros of i (4 for
    0), and ``digits4``, the ASCII digits of i in a uint64, first digit in
    the lowest byte.
    """
    pow5 = [5**i for i in range(342)]
    inv = [(1 << (p.bit_length() - 1 + _POW5_BITS)) // p + 1 for p in pow5]
    split = [p >> (p.bit_length() - _POW5_BITS) if p.bit_length() > _POW5_BITS
             else p << (_POW5_BITS - p.bit_length()) for p in pow5[:326]]
    limbs = np.array([[(m >> (32 * k)) & _M32 for m in inv + split]
                      for k in range(4)], dtype=np.uint64)

    # e2 is the binary exponent of 4 * m2; subnormals share exponent 1's.
    e2 = np.maximum(np.arange(2047), 1) - (1023 + _MANT_BITS + 2)
    pos = e2 >= 0
    pos_e2, neg_e2 = np.maximum(e2, 0), np.maximum(-e2, 0)
    # floor(log10(2**e)), floor(log10(5**e)) and the bit length of 5**e,
    # exact on these ranges (Ryū's log10Pow2, log10Pow5 and pow5bits).
    q = np.where(pos, ((pos_e2 * 78913) >> 18) - (e2 > 3),
                 ((neg_e2 * 732923) >> 20) - (neg_e2 > 1))
    i = neg_e2 - q

    def pow5bits(e):
        return ((e * 1217359) >> 19) + 1

    shift = np.where(pos, q - e2 + _POW5_BITS + pow5bits(q) - 1,
                     q - pow5bits(i) + _POW5_BITS)
    row = np.where(pos, q, len(inv) + i)
    group = np.arange(10**4, dtype=np.uint64)
    return types.SimpleNamespace(
        limbs=limbs[:, row],
        shift=shift.astype(np.uint64),
        e10=np.where(pos, q, q + e2),
        q=q,
        tz4=sum((group % 10**k == 0) for k in range(1, 5)).astype(np.intp),
        digits4=sum((group // 10**k % 10 + ord("0")) << np.uint64(8 * (3 - k))
                    for k in range(4)),
    )


def _mul_shift(x, mul, s):
    """``floor(x * m / 2**(96 + s))`` for ``x < 2**55``, ``0 < s < 32`` and
    the 126-bit multiplier ``m`` in the 32-bit limbs ``mul``.

    x is split at bit 32 into ``a0 + a1 * 2**32``.  Column c of the product
    (weight ``2**(32 c)``) sums the low half of ``a0 * m_c``, the high half
    of ``a0 * m_(c-1)``, the whole ``a1 * m_(c-1) < 2**55`` and the carry,
    so no sum leaves uint64.  Column 0 adds nothing at or above 2**32;
    columns 3 and 4 hold the result, which fits in 64 bits.
    """
    a0, a1 = x & _M32, x >> 32
    p = [a0 * mul[k] for k in range(4)]
    c = np.uint64(0)
    for k in range(1, 4):
        c = (c >> 32) + (p[k] & _M32) + (p[k - 1] >> 32) + a1 * mul[k - 1]
    c4 = (c >> 32) + (p[3] >> 32) + a1 * mul[3]
    return ((c & _M32) >> s) | (c4 << (32 - s))


def _trailing_zeros(t):
    """Trailing decimal zeros of each ``t``, up to 20 (so 20 for 0)."""
    tz4 = _tables().tz4
    zeros = tz4[t % _POW10[4]]
    idx = np.flatnonzero(zeros == 4)  # rare: look past the last four
    rest = t[idx]
    for _ in range(4):
        if not idx.size:
            break
        rest = rest // _POW10[4]
        z = tz4[rest % _POW10[4]]
        zeros[idx] += z
        idx, rest = idx[z == 4], rest[z == 4]
    return zeros


def _shortest(bits):
    """Ryū's shortest digits ``(out, exp10)`` of nonzero finite doubles given
    as uint64 bit patterns: ``out * 10**exp10`` is the value ``repr``
    prints, with ``out < 10**17``."""
    exponent = ((bits >> _MANT_BITS) & 0x7FF).astype(np.intp)
    mant = bits & ((1 << _MANT_BITS) - 1)
    m2 = mant | ((exponent != 0).astype(np.uint64) << _MANT_BITS)
    accept = (m2 & 1) == 0  # round-half-even reads the bounds back to m2
    mm_shift = ((mant != 0) | (exponent <= 1)).astype(np.uint64)
    mv = m2 << 2

    # vr, vp and vm: the value and the ends of its rounding interval,
    # times 10**-e10, truncated.
    tables = _tables()
    mul = [limb[exponent] for limb in tables.limbs]
    shift = tables.shift[exponent] - 96
    vr = _mul_shift(mv, mul, shift)
    vp = _mul_shift(mv + 2, mul, shift)
    vm = _mul_shift(mv - 1 - mm_shift, mul, shift)

    # Whether a truncation dropped only zeros, on the branches where it
    # can (Ryū's vrIsTrailingZeros and vmIsTrailingZeros).
    q = tables.q[exponent]
    pos = exponent >= 1023 + _MANT_BITS + 2
    vr_exact = np.zeros(bits.shape, bool)
    vm_exact = np.zeros(bits.shape, bool)
    idx = np.flatnonzero(pos & (q <= 21))
    if idx.size:
        p5 = _POW5[q[idx]]
        mvi, acc = mv[idx], accept[idx]
        five = mvi % 5 == 0
        vr_exact[idx] = five & (mvi % p5 == 0)
        vm_exact[idx] = ~five & acc & ((mvi - 1 - mm_shift[idx]) % p5 == 0)
        vp[idx] -= (~five & ~acc & ((mvi + 2) % p5 == 0)).astype(np.uint64)
    low = ~pos & (q <= 1)
    vm_exact |= low & accept & (mm_shift == 1)
    vp -= (low & ~accept).astype(np.uint64)
    q_bits = np.minimum(q, 63).astype(np.uint64)
    vr_exact |= ~pos & (q < 63) & ((mv & ((np.uint64(1) << q_bits) - 1)) == 0)

    # Digit r can go while a multiple of 10**r lies in (vm, vp], that is
    # while vp % 10**r < vp - vm.  Every r with 10**r <= vp - vm can; past
    # those, the next one may, and then one more for each zero digit of vp
    # above it.
    width = vp - vm
    removed = np.searchsorted(_POW10, width, side="right") - 1
    step = _POW10[removed + 1]
    above = vp // step
    removed += (vp - above * step < width) * (1 + _trailing_zeros(above))
    # With vm exact, the trailing zeros of its remaining digits go too.
    idx = np.flatnonzero(vm_exact)
    vm_exact[idx] = vm[idx] % _POW10[removed[idx]] == 0
    idx = idx[vm_exact[idx]]
    removed[idx] += _trailing_zeros(vm[idx] // _POW10[removed[idx]])

    head = vr // _POW10[np.maximum(removed - 1, 0)]
    last = np.where(removed > 0, head % 10, 0)  # the last digit removed
    vr_out = np.where(removed > 0, head // 10, vr)
    idx = np.flatnonzero(vr_exact)
    vr_exact[idx] = vr[idx] % _POW10[np.maximum(removed[idx] - 1, 0)] == 0
    # An exact ...5000 tail rounds to even.
    last[vr_exact & (last == 5) & (vr_out % 2 == 0)] = 4
    # Where vr_out is vm's remaining digits it reads back only if that
    # bound is exact and admitted; else the next number up is taken.
    at_vm = vm >= vr_out * _POW10[removed]
    up = (at_vm & (~accept | ~vm_exact)) | (last >= 5)
    return vr_out + up.astype(np.uint64), tables.e10[exponent] + removed


def _digits8(v):
    """The eight ASCII digits of each ``v < 10**8`` in one uint64."""
    hi = v // _POW10[4]
    digits4 = _tables().digits4
    return digits4[hi] | digits4[v - hi * _POW10[4]] << 32


def _words(out, n, decpt, sign, frac, sci):
    """The text of each value but its exponent, in the first three uint64
    words of a row of four: byte p of the text in byte p % 8 (counted from
    the low end) of word p // 8."""
    # First the digits, left-aligned to 17 and padded with '0's: eight,
    # eight, one.
    lead = out * _POW10[17 - n]
    head = lead // 10
    hi8 = head // _POW10[8]
    w = [_digits8(hi8), _digits8(head - hi8 * _POW10[8]),
         (lead - head * 10) | _ZEROS]

    # Then the sign, and for 0.000ddd the 1 - decpt zeros, go in front: the
    # text moves up that many bytes over '0's, the first one a '-' if the
    # value is negative.
    pad = np.where(frac, 1 - decpt, 0) + sign
    sh = (8 * pad).astype(np.uint64)
    fill = (_ZEROS & _BELOW[0, pad]) ^ sign.astype(np.uint64) * (ord("0") ^ ord("-"))
    w = [w[0] << sh | fill] + [w[k] << sh | (w[k - 1] >> 1) >> (63 - sh)
                               for k in (1, 2)]

    # Then the point after the first dpos bytes, which stay; the rest move
    # up one.
    dpos = sign + np.where(frac | sci, 1, decpt)
    moved = [w[0] << 8] + [w[k] << 8 | w[k - 1] >> 56 for k in (1, 2)]
    rows = np.empty((out.size, 4), "<u8")
    for k in range(3):
        stay, upto = _BELOW[k, dpos], _BELOW[k, dpos + 1]
        rows[:, k] = (w[k] & stay) | (_POINTS & upto & ~stay) | (moved[k] & ~upto)
    return rows


def _fields(values, seps):
    """The bytes of ``repr(float(v)) + sep`` for each value and separator,
    concatenated, as a uint8 array."""
    size = values.size
    bits = values.view(np.uint64)
    special = (bits << 1) >= 0x7FF << 53  # inf, nan
    plain = ~special & ((bits << 1) != 0)
    nan = np.isnan(values)
    sign = ((bits >> 63) & ~nan).astype(np.intp)

    # Zero and the specials are laid out as "0.0", the specials then
    # overwritten.
    out = np.zeros(size, np.uint64)
    exp10 = np.zeros(size, np.intp)
    out[plain], exp10[plain] = _shortest(bits[plain])
    n = np.maximum(np.searchsorted(_POW10, out, side="right"), 1)  # digits
    decpt = exp10 + n  # the value is 0.d1d2...dn * 10**decpt
    sci = (decpt <= -4) | (decpt > 16)
    frac = ~sci & (decpt <= 0)  # 0.000ddd
    length = sign + np.where(
        sci,
        n + (n > 1) + 4 + (np.abs(decpt - 1) >= 100),
        n + 1 + np.maximum(1 - decpt, 0) + np.maximum(decpt + 1 - n, 0),
    )

    rows = _words(out, n, decpt, sign, frac, sci)
    flat = rows.view(np.uint8).reshape(-1)
    start = np.arange(size) * 32

    # The exponent: 'e', its sign, then two digits or three; for one digit
    # the 'e' takes the place of the point.
    idx = np.flatnonzero(sci)
    if idx.size:
        a = np.abs(decpt[idx] - 1)
        e = start[idx] + sign[idx] + n[idx] + (n[idx] > 1)
        flat[e] = ord("e")
        flat[e + 1] = np.where(decpt[idx] > 0, ord("+"), ord("-"))
        units = start[idx] + length[idx] - 1
        flat[units] = a % 10 + ord("0")
        flat[units - 1] = a // 10 % 10 + ord("0")
        flat[units[a >= 100] - 2] = a[a >= 100] // 100 + ord("0")

    for word, which in ((b"inf", special & ~nan), (b"nan", nan)):
        for j, char in enumerate(word):
            flat[start[which] + sign[which] + j] = char

    flat[start + length] = seps
    return rows.view(np.uint8)[_COLUMNS <= length[:, None].astype(np.uint8)]


def csv_rows(columns):
    """Yield the CSV text of the rows of ``columns``, equal-length 1-d
    float64 arrays, a block of rows at a time.  Each field is
    ``repr(float(v))``; each row ends in a newline."""
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    seps = np.full(len(columns), ord(","), np.uint8)
    seps[-1] = ord("\n")
    for start in range(0, len(columns[0]), _ROWS):
        block = np.stack([c[start:start + _ROWS] for c in columns], axis=1)
        text = _fields(block.reshape(-1), np.tile(seps, len(block))).tobytes()
        yield text.decode("ascii")
