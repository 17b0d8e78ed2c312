"""Command-line front end.

    fisher-infer solve    --spec spec.json --t 5000 --seed 7 --out eq.json
    fisher-infer sweep    --config cfg.json [--out dir]
    fisher-infer clt      --config cfg.json [--out dir]
    fisher-infer coverage --config cfg.json [--out dir]
    fisher-infer qlin     --config cfg.json [--out dir]

Config files are JSON with the ExperimentConfig fields, and their mode
must be the one the command runs; --out replaces the config's out_dir.
Each experiment command prints experiments.summary_table of its result.
Specs are JSON as written by save_spec.  FISHER_INFER_THREADS caps the
worker pool.
`solve` exits 1 when the duality gap does not certify the equilibrium.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .experiments import (load_config, run_clt_experiment, run_convergence_sweep,
                          run_coverage_experiment, run_qlin_revenue, summary_table)
from .finite import save_equilibrium, solve_sample_eg, solve_sample_qeg
from .inference import build_report, report_table
from .markets import load_spec, sample_items


def _cmd_solve(args) -> int:
    spec = load_spec(args.spec)
    market = sample_items(spec, args.t, args.seed)
    solve = solve_sample_qeg if args.qlin else solve_sample_eg
    eq = solve(market, tol=args.tol, method=args.method)
    if args.out:
        save_equilibrium(eq, args.out)
    cert = eq.certificate
    if not cert.certified:
        print(f"solve not certified: duality gap {cert.duality_gap:.3e} > tol {args.tol:.1e} "
              f"({cert.method}, {cert.iterations} iterations)")
        return 1
    # built first, so that a report error prints no certificate line
    table = report_table(build_report(market, eq, alpha=args.alpha))
    print(f"certified equilibrium: duality gap {cert.duality_gap:.3e} "
          f"({cert.method}, {cert.iterations} iterations)")
    print(table)
    return 0


def _cmd_experiment(args) -> int:
    config = load_config(args.config)
    if args.out is not None:
        config = dataclasses.replace(config, out_dir=args.out)
    print(summary_table(args.run(config)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fisher-infer",
                                     description="sampled Fisher market solvers and inference")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="sample one market and solve it")
    p.add_argument("--spec", required=True, help="market spec JSON")
    p.add_argument("--t", type=int, required=True, help="number of sampled items")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="write the equilibrium JSON here")
    p.add_argument("--qlin", action="store_true", help="quasilinear buyers")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--method", default="newton", choices=("newton", "pr", "subgradient"))
    p.set_defaults(func=_cmd_solve)

    for name, run, help_text in (
            ("sweep", run_convergence_sweep, "welfare convergence sweep over t"),
            ("clt", run_clt_experiment, "distribution of the scaled welfare error"),
            ("coverage", run_coverage_experiment, "empirical CI coverage"),
            ("qlin", run_qlin_revenue, "quasilinear revenue sweep")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", help="directory for CSV outputs (replaces the config's out_dir)")
        p.set_defaults(func=_cmd_experiment, run=run)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
