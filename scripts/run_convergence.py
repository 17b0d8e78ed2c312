"""Welfare convergence sweep on a randomly generated long-run market.

Samples k finite markets at each size t on a grid, solves each one, and
tabulates the Nash social welfare against the exact long-run value (1-D
linear markets only; with --dim > 1 the sweep still runs but reports
plain means, since no closed-form reference exists there).

Example:
    python scripts/run_convergence.py --n 50 --t-max 5000 --k 10 --out results
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fisher_infer.experiments import ExperimentConfig, run_convergence_sweep, summary_table
from fisher_infer.markets import (
    LinearMDValuation,
    LongRunSpec,
    UniformCubeSupply,
    random_linear1d_spec,
)


def random_md_spec(n: int, dim: int, seed: int) -> LongRunSpec:
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 1.0, size=(n, dim))
    c = rng.uniform(0.0, 0.5, size=n)
    means = a @ np.full(dim, 0.5) + c  # E[v_i] under uniform cube
    a /= means[:, None]
    c /= means
    b = rng.uniform(0.5 / n, 1.5 / n, size=n)
    return LongRunSpec(budgets=b / b.sum(),
                       valuation=LinearMDValuation(a=a, c=c),
                       supply=UniformCubeSupply(dim=dim))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=50, help="number of buyers")
    ap.add_argument("--dim", type=int, default=1, help="item type dimension")
    ap.add_argument("--spec-seed", type=int, default=42, help="market generator seed")
    ap.add_argument("--t-min", type=int, default=100)
    ap.add_argument("--t-max", type=int, default=5000)
    ap.add_argument("--t-step", type=int, default=100)
    ap.add_argument("--k", type=int, default=10, help="replications per t")
    ap.add_argument("--base-seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="directory for convergence.csv")
    args = ap.parse_args()

    if args.dim == 1:
        spec = random_linear1d_spec(args.n, seed=args.spec_seed)
    else:
        spec = random_md_spec(args.n, args.dim, seed=args.spec_seed)

    t_grid = tuple(range(args.t_min, args.t_max + 1, args.t_step))
    cfg = ExperimentConfig(spec=spec, mode="convergence", t_grid=t_grid,
                           k=args.k, base_seed=args.base_seed, out_dir=args.out)
    print(summary_table(run_convergence_sweep(cfg)))


if __name__ == "__main__":
    main()
