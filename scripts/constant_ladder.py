#!/usr/bin/env python3
"""Scan the sharp constant C*(N) for N equally spaced unit-gap nodes.

The equally spaced family is the natural worst-case candidate: its constant
climbs toward pi from below as N grows.  Prints one line per N with the
estimate, the gap to pi, the certified error bound, and the number of
products with the coupling matrix A of the Lanczos solve (``iters``).

    python3 scripts/constant_ladder.py --max-n 512
    python3 scripts/constant_ladder.py --max-n 2048 --tol 1e-10 -o ladder.csv
"""

import argparse
import math
import sys
import time

import numpy as np

from extremal import hilbert as hb


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=512)
    ap.add_argument("--tol", type=float, default=1e-9)
    ap.add_argument("-o", "--output", default=None, help="also write CSV here")
    args = ap.parse_args()

    rows = []
    n = 2
    print(f"{'N':>6}  {'C*':>18}  {'pi - C*':>12}  {'residual':>9}  "
          f"{'iters':>6}  {'secs':>7}")
    while n <= args.max_n:
        ns = hb.compute_deltas(np.arange(n, dtype=float))
        t0 = time.perf_counter()
        est = hb.sharp_constant(ns, tol=args.tol)
        dt = time.perf_counter() - t0
        gap = math.pi - est.constant
        print(f"{n:>6}  {est.constant:>18.12f}  {gap:>12.3e}  "
              f"{est.residual:>9.2e}  {est.iterations:>6}  {dt:>7.2f}")
        rows.append((n, est.constant, gap, est.residual, est.iterations, dt))
        n *= 2

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("n,constant,gap_to_pi,residual,iterations,seconds\n")
            for row in rows:
                fh.write(",".join(repr(v) for v in row) + "\n")
        print(f"wrote {args.output}", file=sys.stderr)


if __name__ == "__main__":
    main()
