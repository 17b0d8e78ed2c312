"""Command-line front end.

    fisher-infer solve    --spec spec.json --t 5000 --seed 7 --out eq.json
    fisher-infer sweep    --config cfg.json [--out dir]
    fisher-infer clt      --config cfg.json [--out dir]
    fisher-infer coverage --config cfg.json [--out dir]
    fisher-infer qlin     --config cfg.json [--out dir]

Config files are JSON with the ExperimentConfig fields, and their mode
must be the one the command runs; --out replaces the config's out_dir.
Specs are JSON as written by save_spec.  FISHER_INFER_THREADS caps the
worker pool.
`solve` exits 1 when the duality gap does not certify the equilibrium.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .experiments import (ExperimentConfig, load_config, run_clt_experiment,
                          run_convergence_sweep, run_coverage_experiment, run_qlin_revenue)
from .finite import save_equilibrium, solve_sample_eg, solve_sample_qeg
from .inference import build_report, report_table
from .markets import load_spec, sample_items


def _cmd_solve(args) -> int:
    spec = load_spec(args.spec)
    market = sample_items(spec, args.t, args.seed)
    if args.qlin:
        eq = solve_sample_qeg(market, tol=args.tol, method=args.method)
    else:
        eq = solve_sample_eg(market, tol=args.tol, method=args.method)
    if args.out:
        save_equilibrium(eq, args.out)
    cert = eq.certificate
    if not cert.certified:
        print(f"solve not certified: duality gap {cert.duality_gap:.3e} > tol {args.tol:.1e} "
              f"({cert.method}, {cert.iterations} iterations)")
        return 1
    print(f"certified equilibrium: duality gap {cert.duality_gap:.3e} "
          f"({cert.method}, {cert.iterations} iterations)")
    print(report_table(build_report(market, eq, alpha=args.alpha)))
    return 0


def _load(args) -> ExperimentConfig:
    """The config of an experiment command, with --out as its out_dir."""
    config = load_config(args.config)
    return config if args.out is None else dataclasses.replace(config, out_dir=args.out)


def _cmd_sweep(args) -> int:
    res = run_convergence_sweep(_load(args))
    for e in res.summary:
        print(f"t={e['t']:>6}  ok={e['n_ok']:>4}  failed={e['n_failed']:>3}  "
              f"mean_nsw={e['mean_nsw']: .6f}  mean_abs_err={e['mean_abs_err']:.3e}")
    if res.nsw_rate is not None:
        print(f"nsw error rate: slope {res.nsw_rate.slope:.3f} (r2 {res.nsw_rate.r2:.3f})")
    if res.beta_rate is not None:
        print(f"beta error rate: slope {res.beta_rate.slope:.3f} (r2 {res.beta_rate.r2:.3f})")
    return 0


def _cmd_clt(args) -> int:
    res = run_clt_experiment(_load(args))
    if res.degenerate:
        print("degenerate market: sigma2_nsw = 0, all samples coincide")
        return 0
    print(f"sigma2_nsw = {res.sigma2:.6f}, k = {len(res.samples)}")
    print(f"sample variance = {res.samples.var(ddof=1):.6f}")
    print(f"KS: D = {res.ks.d_stat:.4f}, p = {res.ks.p_value:.4f}")
    return 0


def _cmd_coverage(args) -> int:
    config = _load(args)
    res = run_coverage_experiment(config)
    print(f"nsw_star = {res.nsw_star:.6f}")
    print(f"coverage = {res.coverage:.4f} +- {res.stderr:.4f} "
          f"(target {1 - config.alpha:.2f}, k = {len(res.covered)})")
    return 0


def _cmd_qlin(args) -> int:
    res = run_qlin_revenue(_load(args))
    print(f"rev_star = {res.rev_star:.6f}")
    for e in res.summary:
        print(f"t={e['t']:>6}  ok={e['n_ok']:>4}  mean_abs_err={e['mean_abs_err']:.3e}")
    if res.rate is not None:
        print(f"revenue error rate: slope {res.rate.slope:.3f} (r2 {res.rate.r2:.3f})")
    print(f"max |delta (1 - beta)| = {res.max_comp_slack:.3e}")
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

    for name, func, help_text in (
            ("sweep", _cmd_sweep, "welfare convergence sweep over t"),
            ("clt", _cmd_clt, "distribution of the scaled welfare error"),
            ("coverage", _cmd_coverage, "empirical CI coverage"),
            ("qlin", _cmd_qlin, "quasilinear revenue sweep")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", help="directory for CSV outputs (replaces the config's out_dir)")
        p.set_defaults(func=func)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
