#!/usr/bin/env python3
"""Sweep the interpolating-majorant sign probe over node counts and seeds.

For each N the probe draws random node systems and coefficient vectors and
evaluates the B-telescoped quadratic expression.  If this expression were
provably nonnegative the conjectured sharp constant pi would follow, so the
interesting output is the minimum value observed and whether anything ever
dips negative.  This script reports data only; it cannot settle the sign
question in either direction.

    python3 scripts/sign_probe.py --trials 2000
    python3 scripts/sign_probe.py --min-n 2 --max-n 8 --trials 500 --seeds 0 1 2
    python3 scripts/sign_probe.py --min-n 32 --max-n 32 --trials 50
"""

import argparse
import json

from extremal import hilbert as hb


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--min-n", type=int, default=2)
    ap.add_argument("--max-n", type=int, default=8,
                    help="largest node count N to sweep (at most 32)")
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("-o", "--output", default=None, help="dump all reports as JSON")
    args = ap.parse_args()

    reports = []
    overall_min = float("inf")
    overall_neg = 0
    print(f"{'N':>3}  {'seed':>5}  {'min value':>14}  {'mean':>10}  "
          f"{'negatives':>9}  {'max |Im|':>10}")
    for n in range(args.min_n, args.max_n + 1):
        for seed in args.seeds:
            rep = hb.remark_experiment(n, args.trials, seed)
            reports.append(rep)
            overall_min = min(overall_min, rep["min_value"])
            overall_neg += rep["negative_count"]
            print(f"{n:>3}  {seed:>5}  {rep['min_value']:>14.6e}  "
                  f"{rep['mean_value']:>10.4f}  {rep['negative_count']:>9}  "
                  f"{rep['max_imag_residue']:>10.2e}")

    print(f"\noverall minimum {overall_min:.6e}, "
          f"{overall_neg} negative values across all sweeps")
    if overall_neg == 0:
        print("no counterexample found (consistent with nonnegativity; "
              "proves nothing)")

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(reports, fh, indent=2)


if __name__ == "__main__":
    main()
