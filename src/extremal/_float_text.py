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
the digit removal as counts rather than a loop per value, and the text
as bytes shifted within uint64 words.  Every block of rows of a call is
computed in one workspace through ``out=`` and in-place operations:
arrays freed after each block would have the C allocator hand their pages
back to the operating system and the next block fault them in again.
"""

from __future__ import annotations

import functools
import types

import numpy as np

__all__ = ["csv_bytes"]

# Rows formatted at a time, and the rows of each block eval evaluates.  The
# workspace takes 205 bytes a value, 1.26 MB for eval's six columns.  With
# this at 2048 the peak RSS of a cold `extremal eval` on 100,001 points
# rose from 32.4 to 34.5 MB; at 512 it fell to 31.8 MB, but eval took a
# quarter longer.
_ROWS = 1024

_MANT_BITS = 52
_POW5_BITS = 125  # bits of every multiplier, as in Ryū's double tables
_M32 = 0xFFFFFFFF
_ZEROS = 0x3030303030303030  # eight ASCII '0's in a uint64

_POW10 = 10 ** np.arange(20, dtype=np.uint64)  # 10**19 is the last in uint64
_POW5 = 5 ** np.arange(22, dtype=np.uint64)
_LEAD = _POW10[17 - np.arange(18)]  # by digit count n: 10**(17 - n)
# _BELOW[k, p]: the bytes of word k of a text that lie below its byte p.
_BELOW = np.array([(1 << (8 * b)) - 1 for b in range(9)], dtype=np.uint64)[
    np.clip(np.arange(26) - 8 * np.arange(3)[:, None], 0, 8)]
_ZPAD = _ZEROS & _BELOW[0]  # by p < 9: p ASCII '0's


@functools.cache
def _tables():
    """The lookup tables, built on first use, so that a command which writes
    no CSV goes without their 0.3 MB and 2 ms.

    By biased exponent: ``limbs[k]``, limb k (32 bits, low first) of Ryū's
    multiplier, which is ``floor(2**k / 5**q) + 1`` where ``e2 >= 0`` and
    the top 125 bits of ``5**i`` where ``e2 < 0`` (the reference
    implementation's DOUBLE_POW5_INV_SPLIT and DOUBLE_POW5_SPLIT);
    ``shift``, the bit of the product where the result starts, less 96;
    ``hidden``, the implicit mantissa bit; ``e10``, the decimal exponent of
    the result; Ryū's ``q``; ``five`` and ``low``, the exponents where a
    bound can be exact by a power of five or of two; and ``tz_mask``, the
    bits below 2**q, mv's trailing zeros test (all bits where there is
    none).  By i < 10**4: ``tz4``, the trailing decimal zeros of i (4 for
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
    return types.SimpleNamespace(
        limbs=limbs[:, row], shift=(shift - 96).astype(np.uint64),
        hidden=(biased > 0).astype(np.uint64) << _MANT_BITS,
        e10=np.where(pos, q, q + e2), q=q, five=pos & (q <= 21),
        low=~pos & (q <= 1),
        tz_mask=np.where(~pos & (q < 63), (1 << np.minimum(q, 62)) - 1,
                         -1).astype(np.uint64),
        tz4=sum((group % 10**k == 0) for k in range(1, 5)).astype(np.intp),
        digits4=sum((group // 10**k % 10 + ord("0")) << np.uint64(8 * (3 - k))
                    for k in range(4)),
    )


def _workspace(columns):
    """One block's arrays: the values; out, decpt, n, length and pad,
    handed from step to step; a pool of 13 rows that each step takes in
    turn; flags; and the text, a 32-byte slot per value."""
    size = _ROWS * columns
    u = np.empty((18, size), np.uint64)
    i = u.view(np.int64)
    text = bytearray(32 * size)
    slots = np.frombuffer(text, np.uint64).reshape(size, 4)
    seps = np.full((_ROWS, columns), ord(","), np.uint8)
    seps[:, -1] = ord("\n")
    return types.SimpleNamespace(
        size=size, vals=np.empty(size), out=u[0], decpt=i[1], n=i[2],
        length=i[3], pad=i[4], pool=u[5:],
        flags=np.empty((12, size), bool), text=text, slots=slots,
        flat=slots.view(np.uint8).reshape(-1), words=slots[:, :3].T,
        start=np.arange(size) * 32, seps=seps.reshape(-1),
    )


def _trailing_zeros(t, out=None):
    """Trailing decimal zeros of each ``t``, up to 20 (so 20 for 0), in
    ``out`` if given."""
    tz4 = _tables().tz4
    zeros = np.take(tz4, np.remainder(t, _POW10[4], out=out), out=out,
                    mode="clip")
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


def _shortest(bits, w):
    """Ryū's shortest digits of the nonzero finite doubles whose uint64 bit
    patterns are ``bits``, into ``w.out`` and ``w.decpt``: ``out *
    10**decpt`` is the value ``repr`` prints, with ``out < 10**17``."""
    tables, pool, out = _tables(), w.pool, w.out
    e = pool[0].view(np.int64)
    mv, s, a0, a1, p, col = pool[1:7]
    m, (hp, vr, vp, vm) = pool[7:9], pool[9:13]
    accept, mm, vr_exact, vm_exact, cond, flag = w.flags[6:]

    def take(table, out):
        return np.take(table, e, out=out, mode="clip")

    np.right_shift(bits, _MANT_BITS, out=mv)
    np.bitwise_and(mv, 0x7FF, out=e)
    np.bitwise_and(bits, 1, out=mv)
    np.equal(mv, 0, out=accept)  # round-half-even reads the bounds back to m2
    np.bitwise_and(bits, (1 << _MANT_BITS) - 1, out=mv)
    np.not_equal(mv, 0, out=mm)
    np.less_equal(e, 1, out=flag)
    mm |= flag  # Ryū's mmShift: 1 unless the interval below is half as wide
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
    pool[8:13] = 0  # m[1], hp and the three sums
    chains, icol = pool[10:13].view(np.int64), col.view(np.int64)
    ivp, ivm = chains[1:]
    for k in range(4):
        mk = m[k % 2]
        np.take(tables.limbs[k], e, out=mk, mode="clip")
        np.multiply(a0, mk, out=p)
        np.bitwise_and(p, _M32, out=col)
        col += hp
        np.right_shift(p, 32, out=hp)
        np.multiply(a1, m[1 - k % 2], out=p)
        col += p
        chains >>= 32
        chains += icol
        imk = mk.view(np.int64)
        ivp += imk
        ivp += imk
        ivm -= imk
        np.subtract(ivm, imk, out=ivm, where=mm)
    # Column 4 and the low half of column 3 hold the results.
    np.multiply(a1, m[1], out=col)
    col += hp
    np.subtract(32, s, out=m[0])
    top = pool[3:6].view(np.int64)
    np.right_shift(chains, 32, out=top)
    top += icol
    top <<= m[0].view(np.int64)
    chains &= _M32
    chains >>= s.view(np.int64)
    chains |= top

    # Whether a truncation dropped only zeros, on the branches where it
    # can (Ryū's vrIsTrailingZeros and vmIsTrailingZeros).
    take(tables.tz_mask, p)
    p &= mv
    np.equal(p, 0, out=vr_exact)
    vm_exact[:] = False
    idx = np.flatnonzero(take(tables.low, flag))
    vm_exact[idx] = accept[idx] & mm[idx]
    vp[idx] -= ~accept[idx]
    idx = np.flatnonzero(take(tables.five, flag))
    if idx.size:
        p5 = _POW5[tables.q[e[idx]]]
        mvi, acc = mv[idx], accept[idx]
        five = mvi % 5 == 0
        vr_exact[idx] = five & (mvi % p5 == 0)
        vm_exact[idx] = ~five & acc & ((mvi - 1 - mm[idx]) % p5 == 0)
        vp[idx] -= ~five & ~acc & ((mvi + 2) % p5 == 0)

    # Digit r can go while a multiple of 10**r lies in (vm, vp], that is
    # while vp % 10**r < vp - vm.  Every r with 10**r <= vp - vm can; past
    # those, the next one may, and then one more for each zero digit of vp
    # above it.
    width, removed, zeros = col, s.view(np.int64), hp.view(np.int64)
    np.subtract(vp, vm, out=width)
    removed[:] = np.searchsorted(_POW10, width, side="right")
    removed -= 1
    np.take(_POW10[1:], removed, out=p, mode="clip")
    np.divmod(vp, p, out=(a0, p))
    np.less(p, width, out=cond)
    _trailing_zeros(a0, out=zeros)
    zeros += 1
    zeros *= cond
    removed += zeros
    # With vm exact, the trailing zeros of its remaining digits go too.
    idx = np.flatnonzero(vm_exact)
    vm_exact[idx] = vm[idx] % _POW10[removed[idx]] == 0
    idx = idx[vm_exact[idx]]
    removed[idx] += _trailing_zeros(vm[idx] // _POW10[removed[idx]])

    # out, what it leaves of vr (rest), and the last digit of that (last).
    rest, last = a1, m[0].view(np.int64)
    np.take(_POW10, removed, out=p, mode="clip")
    np.divmod(vr, p, out=(out, rest))
    np.subtract(removed, 1, out=zeros)
    np.take(_POW10, zeros, out=a0, mode="clip")  # 10**-1 clips to 1
    np.floor_divide(rest, a0, out=last)
    idx = np.flatnonzero(vr_exact)
    idx = idx[rest[idx] % a0[idx] == 0]
    # An exact ...5000 tail rounds to even.
    last[idx[(last[idx] == 5) & (out[idx] % 2 == 0)]] = 4
    # Where out is vm's remaining digits it reads back only if that bound
    # is exact and admitted; else the next number up is taken.
    p *= out
    np.greater_equal(vm, p, out=cond)
    np.logical_and(accept, vm_exact, out=flag)
    cond &= ~flag
    cond |= last >= 5
    out += cond
    take(tables.e10, w.decpt)
    w.decpt += removed


def _words(sign, frac, sci, w):
    """Write the text of each value but its exponent, NUL past its length,
    into the first three words of its slot: byte p of the text in byte
    p % 8 (counted from the low end) of word p // 8."""
    W, M, T = w.pool[0:3], w.pool[3:6], w.pool[6:9]
    lead, sh, sh63, dpos = *w.pool[9:12], w.pool[12].view(np.int64)
    pad, decpt = w.pad, w.decpt

    # First the digits, left-aligned to 17 and padded with '0's: eight,
    # eight, one.
    np.take(_LEAD, w.n, out=lead, mode="clip")
    lead *= w.out
    np.divmod(lead, 10, out=(lead, W[2]))
    W[2] |= _ZEROS
    np.divmod(lead, _POW10[8], out=(M[0], M[1]))
    np.divmod(M[:2], _POW10[4], out=(W[:2].view(np.int64), T[:2].view(np.int64)))
    digits4 = _tables().digits4
    np.take(digits4, W[:2].view(np.int64), out=W[:2], mode="clip")
    np.take(digits4, T[:2].view(np.int64), out=T[:2], mode="clip")
    T[:2] <<= 32
    W[:2] |= T[:2]

    # Then the sign, and for 0.000ddd the 1 - decpt zeros, go in front: the
    # text moves up pad bytes over '0's, the first one a '-' if the value is
    # negative.
    np.left_shift(pad, 3, out=sh.view(np.int64))
    np.subtract(63, sh, out=sh63)
    np.right_shift(W[:2], 1, out=T[:2])
    T[:2] >>= sh63
    W <<= sh
    W[1:] |= T[:2]
    W[0] |= np.take(_ZPAD, pad, out=T[0], mode="clip")
    np.bitwise_xor(W[0], ord("0") ^ ord("-"), out=W[0], where=sign)

    # Then the point after the first dpos bytes, which stay; the rest move
    # up one.
    np.copyto(dpos, decpt)
    np.copyto(dpos, 1, where=frac)
    np.copyto(dpos, 1, where=sci)
    dpos += sign
    np.left_shift(W, 8, out=M)
    np.right_shift(W[:2], 56, out=T[:2])
    M[1:] |= T[:2]
    W ^= M
    W &= np.take(_BELOW, dpos, axis=1, out=T, mode="clip")
    W ^= M
    np.bitwise_and(W, np.take(_BELOW, w.length, axis=1, out=T, mode="clip"),
                   out=w.words)
    dpos += w.start
    w.flat[dpos] = ord(".")


def _fields(w, count):
    """The bytes of ``repr(float(v)) + sep`` for the first ``count`` values
    of ``w.vals`` and their separators, concatenated."""
    vals, flat, start = w.vals, w.flat, w.start
    out, decpt, n, length, pad = w.out, w.decpt, w.n, w.length, w.pad
    sign, nan, finite, odd, sci, frac = w.flags[:6]
    np.isnan(vals, out=nan)
    np.signbit(vals, out=sign)
    sign[nan] = False
    np.isfinite(vals, out=finite)
    np.equal(vals, 0.0, out=odd)
    odd |= ~finite

    # Zero and the specials are laid out as "0.0", the specials then
    # overwritten; in Ryū 1.0 stands in for them.
    vals[odd] = 1.0
    _shortest(vals.view(np.uint64), w)
    out[odd] = 0
    n[:] = np.searchsorted(_POW10, out, side="right")  # digits
    np.maximum(n, 1, out=n)
    decpt += n  # the value is 0.d1d2...dn * 10**decpt
    np.less_equal(decpt, -4, out=sci)
    sci |= decpt > 16
    np.less_equal(decpt, 0, out=frac)
    frac[sci] = False  # 0.000ddd
    # The sign and the zeros after it, then n digits or up to the point,
    # the point, and one digit more.
    np.subtract(1, decpt, out=pad)
    pad *= frac
    pad += sign
    np.add(decpt, 1, out=length)
    np.maximum(length, n, out=length)
    length += pad
    length += 1
    idx = np.flatnonzero(sci)
    a = np.abs(decpt[idx] - 1)
    length[idx] = sign[idx] + n[idx] + (n[idx] > 1) + 4 + (a >= 100)

    w.slots[:, 3] = 0
    _words(sign, frac, sci, w)

    # The exponent: 'e', its sign, then two digits or three; for one digit
    # the 'e' takes the place of the point.
    e = start[idx] + sign[idx] + n[idx] + (n[idx] > 1)
    flat[e] = ord("e")
    flat[e + 1] = np.where(decpt[idx] > 0, ord("+"), ord("-"))
    units = start[idx] + length[idx] - 1
    flat[units] = a % 10 + ord("0")
    flat[units - 1] = a // 10 % 10 + ord("0")
    flat[units[a >= 100] - 2] = a[a >= 100] // 100 + ord("0")

    idx = np.flatnonzero(~finite)
    for word, which in ((b"inf", idx[~nan[idx]]), (b"nan", idx[nan[idx]])):
        for j, char in enumerate(word):
            flat[start[which] + sign[which] + j] = char

    length += start
    flat[length] = w.seps
    w.slots[count:] = 0
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
