"""Normality check for sqrt(t) (nsw_hat - nsw_star) on a 1-D linear market.

Samples k markets of size t, computes the centered and scaled welfare
deviations, and tests them against N(0, sigma2_nsw) of the long-run
market with a one-sample Kolmogorov-Smirnov test plus a Q-Q slope.

Example:
    python scripts/run_clt.py --n 50 --t 5000 --k 50 --out results
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fisher_infer.experiments import ExperimentConfig, run_clt_experiment, summary_table
from fisher_infer.markets import Linear1DValuation, LongRunSpec, random_linear1d_spec


def symmetric_spec() -> LongRunSpec:
    # two crossing lines with unit means; beta* = (2/3, 2/3), nsw* = log 3/4
    return LongRunSpec(budgets=np.array([0.5, 0.5]),
                       valuation=Linear1DValuation(c=np.array([-2.0, 2.0]),
                                                   d=np.array([2.0, 0.0])))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=50, help="number of buyers")
    ap.add_argument("--spec-seed", type=int, default=42, help="market generator seed")
    ap.add_argument("--symmetric", action="store_true",
                    help="use the fixed two-buyer crossing market instead")
    ap.add_argument("--t", type=int, default=5000)
    ap.add_argument("--k", type=int, default=50)
    ap.add_argument("--base-seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="directory for clt.csv")
    args = ap.parse_args()

    spec = symmetric_spec() if args.symmetric else random_linear1d_spec(
        args.n, seed=args.spec_seed)
    cfg = ExperimentConfig(spec=spec, mode="clt", t_grid=(args.t,),
                           k=args.k, base_seed=args.base_seed, out_dir=args.out)
    print(summary_table(run_clt_experiment(cfg)))


if __name__ == "__main__":
    main()
