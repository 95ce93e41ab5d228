"""Shortest round-trip text of float64 arrays, formatted in bulk.

:func:`csv_bytes` turns tables of equal-length float64 columns into CSV
rows whose fields are byte-identical to ``repr(float(v))``: the shortest
decimal that reads back as the same double, the nearest one when several
are that short, ties to even, laid out as ``repr`` lays it out (``-0.0``,
``inf``, ``nan``, ``1e-05`` but ``0.0001``, ``1e+16`` but
``1000000000000000.0``).

The digits come from Ryū (Adams, "Ryū: fast float-to-string conversion",
PLDI 2018, doi:10.1145/3192366.3192369).  Per value it takes one product
of the scaled mantissa with a 125-bit power of five looked up by binary
exponent, a shift, and the removal of the digits that the rounding
interval leaves free.  All of it is fixed-width integer arithmetic, so it
runs on whole arrays here: the product in 32-bit limbs held in uint64,
the digit removal as counts rather than a loop per value, and the cases
that need more (exact bounds, powers of two, long runs of zeros) on the
few indices where they occur.

The text of a value goes into a 32-byte slot of four words: the sign and
any ``0.000`` in the first, the digits with their point in the next two
and a bit, and the exponent and separator at the end of the last, with
NUL bytes between that the final ``translate`` drops.  Where each byte
goes depends only on the decimal exponent, the digit count and the sign,
so the prefix, the masks that place the point and cut the digits, and the
exponent come from tables, one key a value.

Every block of rows of a call is computed in one workspace through
``out=`` and in-place operations: arrays freed after each block would
have the C allocator hand their pages back to the operating system and
the next block fault them in again.  The workspace takes 116 bytes a
value: 0.71 MB for eval's CSV blocks of 1,024 rows and six columns,
0.12 MB for its JSON blocks of one column.  With the 32 bytes a value of
``translate``'s result and the index arrays of the sparse cases, a block
of eval's columns peaks below 160 bytes a value (all-sparse blocks, such
as integers or zeros, up to 225).  A value of eval's columns costs about
190 ns (2-core x86-64, numpy 2.4).
"""

from __future__ import annotations

import math
import types

import numpy as np

__all__ = ["csv_bytes"]

# Rows formatted at a time, and the rows of each block eval evaluates.
# At 2048 the formatter ran about a tenth faster, but the peak RSS of
# `extremal eval` on 100,001 points rose by 1.6 MB (the workspace and the
# closed forms' block temporaries double).
_ROWS = 1024

_MANT_BITS = 52
_POW5_BITS = 125  # bits of every multiplier, as in Ryū's double tables
_M32 = 0xFFFFFFFF
_ODD = 0xFFDFFFFFFFFFFFFF  # (bits << 1) - 1 from here up: zero, inf or nan
_INFBITS = np.uint64(0x7FF << 53)  # bits << 1 of inf; above it, nan

_POW10 = 10 ** np.arange(20, dtype=np.uint64)  # 10**19 is the last in uint64
_POW5 = 5 ** np.arange(22, dtype=np.uint64)
_LEAD = _POW10[17 - np.arange(18)]  # by digit count n: 10**(17 - n)

# Decimal exponents as indices: decpt + _DOFF lies in [7, 639] for every
# finite double; the specials get two indices of their own.
_DOFF = 330
_INF, _NAN = 650, 651
_NDEC = 652
_NKEY = 18 * 2  # keys per class: digit count (1 to 17) and sign


def _nonzero(flags):
    """The indices where ``flags`` is true."""
    return flags.nonzero()[0]


def _word(text, at=0):
    """The uint64 holding the ASCII ``text`` from its byte ``at`` up."""
    return int.from_bytes(bytes(at) + text.encode("ascii"), "little")


def _tables():
    """The lookup tables, built once at import as ``_TABLES`` (0.45 MB).

    By biased exponent: ``limbs[k]``, limb k (32 bits, low first) of Ryū's
    multiplier, which is ``floor(2**k / 5**q) + 1`` where ``e2 >= 0`` and
    the top 125 bits of ``5**i`` where ``e2 < 0`` (the reference
    implementation's DOUBLE_POW5_INV_SPLIT and DOUBLE_POW5_SPLIT);
    ``shift``, the bit of the product where the result starts, less 96;
    ``hidden``, the implicit mantissa bit; ``e10``, the decimal exponent of
    the result plus ``_DOFF``; Ryū's ``q``; ``five`` and ``low``, the
    exponents where a bound can be exact by a power of five or of two; and
    ``tz_mask``, the bits below 2**q, mv's trailing zeros test (all bits
    where there is none).  By i < 10**4: ``tz4``, the trailing decimal zeros
    of i (4 for 0), and ``digits4``, the ASCII digits of i in a uint64,
    first digit in the lowest byte.  By the biased exponent of a double
    2**k: ``ndig``, the digit count of 2**k.  By biased exponent again:
    ``r0`` and, for the powers of two (mm = 0), ``r0_pow2``, the digits
    that the rounding interval frees for sure, less the one it may free
    more.  Then the layout (see :func:`_layout`).
    """
    pow5 = [5**i for i in range(342)]
    inv = [(1 << (p.bit_length() - 1 + _POW5_BITS)) // p + 1 for p in pow5]
    split = [p >> (p.bit_length() - _POW5_BITS) if p.bit_length() > _POW5_BITS
             else p << (_POW5_BITS - p.bit_length()) for p in pow5[:326]]
    limbs = np.array([[(m >> (32 * k)) & _M32 for m in inv + split]
                      for k in range(4)], dtype=np.uint64)

    # e2 is the binary exponent of 4 * m2; subnormals share exponent 1's.
    biased = np.arange(2047)
    e2 = np.maximum(biased, 1) - (1023 + _MANT_BITS + 2)
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
    # vp - vm is (2 + mm) * multiplier / 2**shift, truncated twice, less 1
    # where vp is lowered: with f its floor, f - 1, f or f + 1, so that its
    # decimal digits are r0 + 1 or r0 + 2, r0 the digits of f - 1 less one.
    # The floors (below 10**3) come out exact in float64 for every exponent.
    mults = inv + split
    mult = np.array([math.ldexp(mults[r], -b)
                     for r, b in zip(row.tolist(), shift.tolist())])
    r0 = [(f >= 11).astype(np.intp) + (f >= 101)
          for f in (np.floor(4 * mult), np.floor(3 * mult))]
    return types.SimpleNamespace(
        limbs=limbs[:, row], shift=(shift - 96).astype(np.uint64),
        hidden=(biased > 0).astype(np.uint64) << _MANT_BITS,
        e10=np.where(pos, q, q + e2) + _DOFF, q=q, five=pos & (q <= 21),
        low=~pos & (q <= 1),
        tz_mask=np.where(~pos & (q < 63), (1 << np.minimum(q, 62)) - 1,
                         -1).astype(np.uint64),
        tz4=sum((group % 10**k == 0) for k in range(1, 5)).astype(np.intp),
        digits4=sum((group // 10**k % 10 + ord("0")) << np.uint64(8 * (3 - k))
                    for k in range(4)),
        ndig=((np.maximum(biased - 1023, 0) * 78913) >> 18) + 1,
        r0=r0[0], r0_pow2=r0[1],
        **_layout(),
    )


def _layout():
    """The layout tables.  By decimal exponent index: ``cls``, the first key
    of its class, and ``expsep``, the last word of the slot, which holds
    from its third byte the exponent, if any, and then a ',' (at the
    index) or a newline (at the index plus ``_NDEC``).  By key, class + 2 *
    digits + sign: ``prefix``, the first word of the slot; and ``sel``,
    nine words, three masks for each of the three text words, that make
    the digits L (17 of them, padded with '0's) into the text after the
    prefix: ``(L & sel[0:3]) | (H & sel[3:6]) | sel[6:9]``, where H is L
    moved up a byte.  The classes: scientific; 0.ddd to 0.000ddd; the
    point after digit 1 to 16; inf; nan."""
    # Class j: 0 scientific, 1 to 4 0.ddd to 0.000ddd, 5 to 20 the point
    # after digit j - 4, 21 inf, 22 nan.
    decpt = np.arange(_NDEC) - _DOFF
    frac, fixed = (decpt >= -3) & (decpt <= 0), (decpt >= 1) & (decpt <= 16)
    cls = np.where(frac, 1 - decpt, np.where(fixed, 4 + decpt, 0)) * _NKEY
    cls[[_INF, _NAN]] = 21 * _NKEY, 22 * _NKEY
    sci = cls == 0

    # 'e', the exponent's sign and its two or three digits, from byte 2.
    x = np.abs(decpt - 1)
    three = x >= 100
    exp = (ord("e") << 16 | np.where(decpt > 0, ord("+"), ord("-")) << 24
           | (np.where(three, x // 100, x // 10 % 10) + ord("0")) << 32
           | (np.where(three, x // 10 % 10, x % 10) + ord("0")) << 40
           | np.where(three, (x % 10 + ord("0")) << 48, 0))
    at = np.where(sci, 6 + three, 2) * 8
    expsep = np.concatenate([np.where(sci, exp, 0) | ord(sep) << at
                             for sep in ",\n"]).astype(np.uint64)

    # The point goes at byte dpos of the digits' text, which keeps the
    # bytes below length.
    key = np.arange(23 * _NKEY)
    j, n, sign = key // _NKEY, key % _NKEY // 2, key % 2
    frac, fixed = (j >= 1) & (j <= 4), (j >= 5) & (j <= 20)
    dpos = np.where(j == 0, 1, np.where(fixed, j - 4, 18))
    length = np.where(j == 0, np.where(n > 1, n + 1, 1),
                      np.where(fixed, np.maximum(n, j - 3) + 1, frac * n))
    below8 = np.array([(1 << (8 * b)) - 1 for b in range(9)], dtype=np.uint64)
    sel = np.zeros((9, key.size), dtype=np.uint64)
    for k in range(3):
        def below(b):
            return below8[np.clip(b - 8 * k, 0, 8)]
        sel[k] = below(np.minimum(dpos, length))
        sel[3 + k] = below(length) & ~below(dpos + 1)
        dot = (8 * k <= dpos) & (dpos < np.minimum(length, 8 * k + 8))
        at = 8 * np.clip(dpos - 8 * k, 0, 7)
        sel[6 + k] = np.where(dot, ord(".") << at, 0)
    texts = [""] + ["0." + "0" * z for z in range(4)] + [""] * 16 \
        + ["inf", "nan"]
    prefix = np.array([_word(("-" if s and t != "nan" else "") + t)
                       for t in texts for s in (0, 1)], dtype=np.uint64)
    prefix = prefix[2 * j + sign]
    return dict(cls=cls, expsep=expsep, prefix=prefix, sel=sel)


_TABLES = _tables()


def _workspace(columns):
    """One block's arrays: the values and nine uint64 rows that the steps
    take in turn; flags; and the text, a 32-byte slot per value, whose
    memory also serves as four more rows until the slots are filled."""
    size = _ROWS * columns
    u = np.empty((10, size), np.uint64)
    text = bytearray(32 * size)
    t = np.frombuffer(text, np.uint64)
    return types.SimpleNamespace(
        size=size, columns=columns, vals=u[9].view(np.float64), rows=u[:9],
        trows=t.reshape(4, size), slots=t.reshape(size, 4), text=text,
        flags=np.empty((4, size), bool),
    )


def _ndigits(x, out, f, p):
    """The decimal digit count of each ``x`` (at least 1), into ``out``,
    with the uint64 rows ``f`` and ``p`` as scratch."""
    np.copyto(f.view(np.float64), x, casting="unsafe")
    f >>= _MANT_BITS  # the biased exponent of 2**k <= x (2**(k+1) if rounded)
    _TABLES.ndig.take(f.view(np.int64), out=out, mode="clip")
    _POW10.take(out, out=p, mode="clip")
    np.greater_equal(x, p, out=f)
    out += f.view(np.int64)


def _trailing_zeros(t):
    """Trailing decimal zeros of each ``t`` (a few values), up to 20."""
    tz4 = _TABLES.tz4
    zeros = tz4[t % _POW10[4]]
    idx = _nonzero(zeros == 4)  # rare: look past the last four
    rest = t[idx]
    for _ in range(4):
        if not idx.size:
            break
        rest = rest // _POW10[4]
        z = tz4[rest % _POW10[4]]
        zeros[idx] += z
        idx, rest = idx[z == 4], rest[z == 4]
    return zeros


def _shortest(bits, w):
    """Ryū's shortest digits of the nonzero finite doubles whose uint64 bit
    patterns are ``bits``, into rows ``w.trows[3]`` (out) and ``w.rows[7]``
    (decpt, int64): ``out * 10**(decpt - _DOFF)`` is the value ``repr``
    prints, with ``out < 10**17``.  Every other row is scratch."""
    tables, (mv, vr, vp, vm, a0, a1, p, dec, e) = _TABLES, w.rows
    s, col, hp, out = w.trows
    e, m = e.view(np.int64), (out, dec)
    vr_exact, vm_exact, cond, flag = w.flags

    def take(table, out):
        return table.take(e, out=out, mode="clip")

    np.right_shift(bits, _MANT_BITS, out=mv)
    np.bitwise_and(mv, 0x7FF, out=e)
    np.bitwise_and(bits, (1 << _MANT_BITS) - 1, out=mv)
    # Ryū's mmShift is 1 unless the interval below is half as wide, at the
    # powers of two but the least normal one.
    pow2 = _nonzero(np.equal(mv, 0, out=flag))
    pow2 = pow2[e[pow2] > 1]

    def mm(idx):
        return (bits[idx] << np.uint64(12) != 0) | (e[idx] <= 1)

    mv |= take(tables.hidden, p)
    mv <<= 2

    # vr, vp and vm: the value and the ends of its rounding interval, times
    # 10**-e10, truncated, that is mv, mv + 2 and mv - 1 - mm times the
    # multiplier; the latter two are the first plus 2 and less 1 + mm
    # multipliers.  Column k (weight 2**(32 k)) of the product with
    # mv = a0 + a1 * 2**32 sums the low half of a0 * m_k, the high half of
    # a0 * m_(k-1) and the whole a1 * m_(k-1) < 2**55.  The three sums
    # carry up the columns in int64, where a borrow shifts down as -1.
    take(tables.shift, s)
    np.bitwise_and(mv, _M32, out=a0)
    np.right_shift(mv, 32, out=a1)
    chains = w.rows[1:4].view(np.int64)
    icol, ip = col.view(np.int64), p.view(np.int64)
    ivp, ivm = chains[1:]
    for k in range(4):
        mk = m[k % 2]
        tables.limbs[k].take(e, out=mk, mode="clip")
        np.multiply(a0, mk, out=p)
        if k:
            np.multiply(a1, m[1 - k % 2], out=col)
            col += hp
            np.right_shift(p, 32, out=hp)
            p &= _M32
            col += p
            chains >>= 32
            chains += icol
        else:
            np.right_shift(p, 32, out=hp)
            np.bitwise_and(p, _M32, out=col)
            chains[:] = icol
        imk = mk.view(np.int64)
        np.left_shift(imk, 1, out=ip)
        ivp += ip
        ivm -= ip
        if pow2.size:
            ivm[pow2] += imk[pow2]
    # Column 4 and column 3 (with its carry) hold the results: shifted
    # right by s, column 3 floors as the whole does, as 2**32 divides the
    # carry's weight.
    np.multiply(a1, m[1], out=col)
    col += hp
    np.subtract(32, s, out=m[0])
    col <<= m[0]
    chains >>= s.view(np.int64)
    chains += icol

    # Whether a truncation dropped only zeros, on the branches where it
    # can (Ryū's vrIsTrailingZeros and vmIsTrailingZeros); acceptBounds,
    # an even mantissa, matters only there.
    take(tables.tz_mask, p)
    p &= mv
    np.equal(p, 0, out=vr_exact)
    vm_exact[:] = False
    idx = _nonzero(take(tables.low, flag))
    if idx.size:
        accept = bits[idx] & 1 == 0
        vm_exact[idx] = accept & mm(idx)
        vp[idx] -= ~accept
    idx = _nonzero(take(tables.five, flag))
    if idx.size:
        p5 = _POW5[tables.q[e[idx]]]
        mvi, accept = mv[idx], bits[idx] & 1 == 0
        five = mvi % 5 == 0
        vr_exact[idx] = five & (mvi % p5 == 0)
        vm_exact[idx] = ~five & accept & ((mvi - 1 - mm(idx)) % p5 == 0)
        vp[idx] -= ~five & ~accept & ((mvi + 2) % p5 == 0)

    # Digit r can go while a multiple of 10**r lies in (vm, vp], that is
    # while vp % 10**r < vp - vm.  Every r with 10**r <= vp - vm can; past
    # those, the next one may, and then one more for each zero digit of vp
    # above it.
    width, removed = col, s.view(np.int64)
    np.subtract(vp, vm, out=width)
    take(tables.r0, removed)
    if pow2.size:
        removed[pow2] = tables.r0_pow2[e[pow2]]
    _POW10[1:].take(removed, out=p, mode="clip")
    removed += np.greater_equal(width, p, out=flag)
    _POW10[1:].take(removed, out=p, mode="clip")
    np.floor_divide(vp, p, out=a0)
    np.multiply(a0, p, out=a1)
    np.subtract(vp, a1, out=p)
    np.less(p, width, out=cond)
    removed += cond
    np.floor_divide(a0, 10, out=a1)
    a1 *= 10
    np.equal(a0, a1, out=flag)
    flag &= cond
    idx = _nonzero(flag)
    if idx.size:
        removed[idx] += _trailing_zeros(a0[idx])
    # With vm exact, the trailing zeros of its remaining digits go too.
    exact = _nonzero(vm_exact)
    if exact.size:
        vm_exact[exact] = vm[exact] % _POW10[removed[exact]] == 0
        idx = exact[vm_exact[exact]]
        removed[idx] += _trailing_zeros(vm[idx] // _POW10[removed[idx]])

    # out, twice what it leaves of vr (rest), and whether the removed
    # digits round up: more than half of 10**removed, or exactly half with
    # out odd.
    rest = a1
    _POW10.take(removed, out=p, mode="clip")
    np.floor_divide(vr, p, out=out)
    np.multiply(out, p, out=rest)
    np.subtract(vr, rest, out=rest)
    rest <<= 1
    np.greater_equal(rest, p, out=flag)
    idx = _nonzero(vr_exact)
    if idx.size:
        idx = idx[rest[idx] == p[idx]]
        # An exact ...5000 tail rounds to even.
        flag[idx[out[idx] % 2 == 0]] = False
    # Where out is vm's remaining digits it reads back only if that bound
    # is exact and admitted; else the next number up is taken.
    p *= out
    np.greater_equal(vm, p, out=cond)
    if exact.size:
        cond[exact] &= ~(vm_exact[exact] & (bits[exact] & 1 == 0))
    cond |= flag
    out += cond
    decpt = take(tables.e10, dec.view(np.int64))
    decpt += removed


def _fields(w, count):
    """The bytes of ``repr(float(v)) + sep`` for the first ``count`` values
    of ``w.vals`` and their separators, concatenated."""
    tables, bits = _TABLES, w.vals.view(np.uint64)
    rows = w.rows.view(np.int64)
    n, L, H, decpt, key = rows[0], w.rows[1:4], w.rows[4:7], rows[7], rows[8]
    T, out = w.trows[:3], w.trows[3]
    flag = w.flags[3]

    # Zero and the specials go through Ryū as 1.0, their sign kept, and
    # come out as 0.0 and as the indices of inf and nan.
    np.left_shift(bits, 1, out=T[0])
    T[0] -= 1
    idx = _nonzero(np.greater_equal(T[0], _ODD, out=flag))
    if idx.size:
        special = T[0][idx] + np.uint64(1)
        inf, nan = idx[special == _INFBITS], idx[special > _INFBITS]
        del special
        bits[idx] &= np.uint64(1 << 63)
        bits[idx] |= np.uint64(0x3FF0000000000000)
    _shortest(bits, w)
    _ndigits(out, n, T[0], T[1])  # 1 for a zero, as for the 1.0 it took
    decpt += n  # the value is 0.d1d2...dn * 10**(decpt - _DOFF)
    if idx.size:
        out[idx] = 0
        decpt[inf] = _INF
        decpt[nan] = _NAN

    # The digits, left-aligned to 17 and padded with '0's: eight, eight
    # and one, as L in three words.
    lead, top, mid = T[2], T[1], T[2]
    _LEAD.take(n, out=lead, mode="clip")
    lead *= out
    np.floor_divide(lead, 10, out=T[0])
    np.multiply(T[0], 10, out=T[1])
    np.subtract(lead, T[1], out=L[2])
    L[2] |= ord("0")
    np.floor_divide(T[0], _POW10[8], out=top)
    np.multiply(top, _POW10[8], out=mid)
    np.subtract(T[0], mid, out=mid)
    np.floor_divide(T[1:], _POW10[4], out=H[:2])  # each eight as four, four
    np.multiply(H[:2], _POW10[4], out=L[:2])
    np.subtract(T[1:], L[:2], out=T[1:])
    digits4 = tables.digits4
    digits4.take(H[:2].view(np.int64), out=L[:2], mode="clip")
    digits4.take(T[1:].view(np.int64), out=H[:2], mode="clip")
    H[:2] <<= 32
    L[:2] |= H[:2]

    # The key: class, digit count and sign.
    tables.cls.take(decpt, out=key, mode="clip")
    key += n
    key += n
    np.right_shift(bits, 63, out=T[0])
    key += T[0].view(np.int64)

    # The text after the prefix: L's bytes below the point, the point, and
    # L's bytes from there on moved up one (H), up to the text's length.
    np.left_shift(L, 8, out=H)
    np.right_shift(L[:2], 56, out=T[:2])
    H[1:] |= T[:2]
    sel = tables.sel
    sel[0:3].take(key, axis=1, out=T, mode="clip")
    L &= T
    sel[3:6].take(key, axis=1, out=T, mode="clip")
    H &= T
    L |= H
    sel[6:9].take(key, axis=1, out=H, mode="clip")
    slots = w.slots.T  # in the memory of w.trows, free from here on
    np.bitwise_or(L, H, out=slots[1:])

    # The prefix before it, and the exponent and separator after it.
    tables.prefix.take(key, out=L[0], mode="clip")
    slots[0] = L[0]
    np.copyto(key, decpt)
    key[w.columns - 1::w.columns] += _NDEC
    tables.expsep.take(key, out=L[0], mode="clip")
    slots[3] |= L[0]
    slots[:, count:] = 0
    return w.text.translate(None, b"\0")


def csv_bytes(tables):
    """Yield the CSV text of the rows of each table in ``tables``, an
    iterable of sequences of equal-length 1-d float64 columns, the same
    number in each, as a new bytearray for every ``_ROWS`` rows, all of
    them computed in one workspace.  Each field is ``repr(float(v))``;
    each row ends in a newline."""
    w = None
    for columns in tables:
        columns = [np.asarray(c, dtype=np.float64) for c in columns]
        if w is None:
            w = _workspace(len(columns))
        if w.size != _ROWS * len(columns):
            raise ValueError("every table needs the same number of columns")
        grid = w.vals.reshape(_ROWS, len(columns))
        for start in range(0, len(columns[0]), _ROWS):
            block = min(_ROWS, len(columns[0]) - start)
            for j, c in enumerate(columns):
                grid[:block, j] = c[start:start + block]
            grid[block:] = 0.0
            yield _fields(w, block * len(columns))
