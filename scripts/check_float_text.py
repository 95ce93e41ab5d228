#!/usr/bin/env python3
"""Compare the bulk float formatter of ``extremal eval`` with ``repr``.

Draws N 64-bit patterns from a seeded generator, formats them with the
formatter that writes ``extremal eval``'s CSV and with Python's ``repr``,
and counts the values whose text differs.  Three quarters of each batch
are uniform bit patterns (every sign, exponent and mantissa alike, so
subnormals, infinities and NaN payloads too).  The last quarter lies where
the layout and the rounding switch: within a few ulps of a power of ten
(a third of those at 1e-4 and 1e16, where ``repr`` changes layout), and
short dyadic mantissas, whose decimal tails can end in an exact 5, a tie.
Prints the count, and the first mismatches if there are any; exits 1 on
any mismatch.

    python3 scripts/check_float_text.py --count 100000000 --seed 0
"""

import argparse
import sys

import numpy as np

from extremal._float_text import csv_bytes

BATCH = 1 << 16  # values per comparison; keeps memory to a few MB
NEAR = BATCH // 4  # values per batch drawn near the switches and ties

POWERS = np.array([float(f"1e{k}") for k in range(-323, 309)]).view(np.int64)
SWITCHES = np.array([1e-4, 1e16]).view(np.int64)


def mismatches(values):
    """(repr, formatted) for each value whose two texts differ."""
    got = b"".join(csv_bytes([[values]])).decode("ascii")
    want = "".join(f"{v!r}\n" for v in values.tolist())
    if got == want:
        return []
    return [(w, g) for w, g in zip(want.splitlines(), got.splitlines()) if w != g]


def near_switches(rng, size):
    """Bit patterns within 3 ulps of a power of ten, a third of them of 1e-4
    or 1e16, and odd mantissas of 1 to 20 bits times 2**-80 to 2**80, in
    equal shares, each with a random sign."""
    powers = np.where(rng.random(size) < 1 / 3, rng.choice(SWITCHES, size),
                      rng.choice(POWERS, size))
    near = np.maximum(powers + rng.integers(-3, 4, size), 0)
    odd = rng.integers(0, 2**20, size) >> rng.integers(0, 20, size) | 1
    dyadic = np.ldexp(odd.astype(float), rng.integers(-80, 81, size)).view(np.int64)
    bits = np.where(rng.random(size) < 1 / 2, near, dyadic).view(np.uint64)
    return bits | rng.integers(0, 2, size, dtype=np.uint64) << np.uint64(63)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, required=True, metavar="N")
    ap.add_argument("--seed", type=int, default=0, metavar="S")
    args = ap.parse_args()
    if args.count < 1:
        ap.error("--count must be positive")

    rng = np.random.default_rng(args.seed)
    bad = []
    for done in range(0, args.count, BATCH):
        size = min(BATCH, args.count - done)
        near = size * NEAR // BATCH
        bits = np.concatenate([
            rng.integers(0, 2**64, size=size - near, dtype=np.uint64, endpoint=False),
            near_switches(rng, near),
        ])
        bad += mismatches(bits.view(np.float64))
    print(f"{args.count} values, seed {args.seed}: {len(bad)} mismatches")
    for want, got in bad[:10]:
        print(f"  repr {want}  formatted {got}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
