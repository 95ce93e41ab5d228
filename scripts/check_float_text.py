#!/usr/bin/env python3
"""Compare the bulk float formatter of ``extremal eval`` with ``repr``.

Draws N random 64-bit patterns from a seeded generator (every sign,
exponent and mantissa alike, so subnormals, infinities and NaN payloads
too), formats them with the formatter that writes ``extremal eval``'s CSV
and with Python's ``repr``, and counts the values whose text differs.
Prints the count, and the first mismatches if there are any; exits 1 on
any mismatch.

    python3 scripts/check_float_text.py --count 100000000 --seed 0
"""

import argparse
import sys

import numpy as np

from extremal._float_text import csv_bytes

BATCH = 1 << 16  # values per comparison; keeps memory to a few MB


def mismatches(values):
    """(repr, formatted) for each value whose two texts differ."""
    got = b"".join(csv_bytes([[values]])).decode("ascii")
    want = "".join(f"{v!r}\n" for v in values.tolist())
    if got == want:
        return []
    return [(w, g) for w, g in zip(want.splitlines(), got.splitlines()) if w != g]


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
        bits = rng.integers(0, 2**64, size=size, dtype=np.uint64, endpoint=False)
        bad += mismatches(bits.view(np.float64))
    print(f"{args.count} values, seed {args.seed}: {len(bad)} mismatches")
    for want, got in bad[:10]:
        print(f"  repr {want}  formatted {got}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
