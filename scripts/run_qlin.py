"""Revenue convergence sweep for a quasilinear two-buyer market.

Buyers can retain leftover budget, so multipliers are capped at one and
seller revenue (mean price) is the quantity of interest.  The sweep
compares sampled revenue against the exact long-run revenue and fits a
log-log error rate.

Example:
    python scripts/run_qlin.py --b1 0.8 --b2 0.6 --out results
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fisher_infer.experiments import ExperimentConfig, run_qlin_revenue, summary_table
from fisher_infer.markets import Linear1DValuation, LongRunSpec


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--b1", type=float, default=0.8, help="budget of buyer 1")
    ap.add_argument("--b2", type=float, default=0.6, help="budget of buyer 2")
    ap.add_argument("--t-min", type=int, default=100)
    ap.add_argument("--t-max", type=int, default=3200)
    ap.add_argument("--k", type=int, default=10, help="replications per t")
    ap.add_argument("--base-seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="directory for qlin.csv")
    args = ap.parse_args()

    # crossing unit-mean lines; budgets control how binding the beta <= 1 cap is
    spec = LongRunSpec(budgets=np.array([args.b1, args.b2]),
                       valuation=Linear1DValuation(c=np.array([-2.0, 2.0]),
                                                   d=np.array([2.0, 0.0])))
    t_grid, t = [], args.t_min
    while t <= args.t_max:
        t_grid.append(t)
        t *= 2
    cfg = ExperimentConfig(spec=spec, mode="revenue_qlin", t_grid=tuple(t_grid),
                           k=args.k, base_seed=args.base_seed, out_dir=args.out)
    print(summary_table(run_qlin_revenue(cfg)))


if __name__ == "__main__":
    main()
