"""Seeded replication harness for the sampled-market experiments.

A replication is (sample a market at size t with a derived seed, solve
it, record estimates).  Replications are the unit of parallelism; each
one is pure given its seed, results are reduced in (t, rep) order, and
per-replication seeds depend only on (base_seed, t, rep), so output
files are byte-identical no matter how many workers run.  FISHER_INFER_THREADS
caps the worker pool.  Each run_* takes only the config; a run writes
its CSV into config.out_dir, or no file when that is None.

Each run_* result holds its replications as one numpy record array,
`rows`, with the fields of _row_dtype: a column per field
(rows.nsw_hat) and a record per replication (rows[0].status).

CSV column sets are fixed:
  convergence: t,rep,seed,nsw_hat,nsw_star,abs_err
  clt:         rep,seed,standardized_nsw
  coverage:    rep,seed,lo,hi,covered
  qlin:        t,rep,seed,rev_hat,rev_star,abs_err
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from .finite import solve_sample_eg, solve_sample_qeg
from .inference import _require_unit_budgets, ci_nsw, estimate_sigma2_nsw
from .longrun import LongRunEquilibrium, sigma2_nsw, solve_longrun_eg, solve_longrun_qeg
from .markets import (Linear1DValuation, LongRunSpec, sample_items, spec_from_dict,
                      spec_to_dict)
from .statkit import KSResult, RateFit, fit_rate, ks_normal_test, qq_points, summarize_reps

MODES = ("convergence", "clt", "coverage", "revenue_qlin")


@dataclass(frozen=True)
class ExperimentConfig:
    spec: LongRunSpec
    mode: str
    t_grid: tuple[int, ...]
    k: int
    base_seed: int = 0
    alpha: float = 0.05
    tol: float = 1e-9
    out_dir: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        grid = tuple(int(t) for t in self.t_grid)
        if len(grid) == 0 or any(a >= b for a, b in zip(grid, grid[1:])):
            raise ValueError("t_grid must be nonempty and strictly ascending")
        object.__setattr__(self, "t_grid", grid)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")


def config_from_dict(data: dict, base_dir: str = ".") -> ExperimentConfig:
    """The config that data describes; a key that is not an
    ExperimentConfig field or "spec_path" raises ValueError."""
    unknown = sorted(set(data) - {"spec_path"} - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    if "spec_path" in data:
        path = data["spec_path"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        with open(path) as fh:
            spec = spec_from_dict(json.load(fh))
    else:
        spec = spec_from_dict(data["spec"])
    return ExperimentConfig(
        spec=spec,
        mode=data["mode"],
        t_grid=tuple(data["t_grid"]),
        k=int(data["k"]),
        base_seed=int(data.get("base_seed", 0)),
        alpha=float(data.get("alpha", 0.05)),
        tol=float(data.get("tol", 1e-9)),
        out_dir=data.get("out_dir"),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh), base_dir=os.path.dirname(path) or ".")


def derive_seed(base_seed: int, t: int, rep: int) -> int:
    """Stable 64-bit seed for one replication, from (base_seed, t, rep) only."""
    digest = hashlib.blake2b(f"{base_seed}:{t}:{rep}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


# ---------------------------------------------------------------------------
# Replications
# ---------------------------------------------------------------------------


def _row_dtype(n: int) -> np.dtype:
    """One replication as one record of 124 + 16 n bytes.  Fields that the
    mode or an uncertified solve leaves empty are NaN; ci is (lo, hi), and
    beta_hat and u_hat hold one entry per buyer."""
    return np.dtype([("t", np.int64), ("rep", np.int64), ("seed", np.uint64),
                     ("status", "U11"), ("wall_time", float), ("nsw_hat", float),
                     ("rev_hat", float), ("sigma2_hat", float), ("ci", float, (2,)),
                     ("beta_hat", float, (n,)), ("u_hat", float, (n,)),
                     ("comp_slack", float)])


def _replication(args) -> tuple:
    """One replication as a tuple in _row_dtype's field order."""
    spec_dict, t, rep, seed, tol, qlin, alpha = args
    spec = spec_from_dict(spec_dict)
    start = time.perf_counter()
    market = sample_items(spec, t, seed)
    if qlin:
        eq = solve_sample_qeg(market, tol=tol)
    else:
        eq = solve_sample_eg(market, tol=tol)
    wall = time.perf_counter() - start
    nan = float("nan")
    if not eq.certificate.certified:
        # recorded, not fatal: the row is flagged and skipped in summaries
        empty = np.full(market.n, nan)
        return (t, rep, seed, "uncertified", wall, nan, nan, nan, (nan, nan),
                empty, empty, nan)
    if qlin:
        comp = float(np.abs(eq.delta * (1.0 - eq.beta)).max())
        return (t, rep, seed, "ok", wall, nan, eq.rev, nan, (nan, nan), eq.beta, eq.u, comp)
    sigma2_hat = estimate_sigma2_nsw(eq.p)
    ci = ci_nsw(eq.nsw, sigma2_hat, t, alpha)
    return (t, rep, seed, "ok", wall, eq.nsw, nan, sigma2_hat, ci, eq.beta, eq.u, nan)


def _worker_cap(njobs: int) -> int:
    env = os.environ.get("FISHER_INFER_THREADS")
    try:
        cap = int(env) if env else (os.cpu_count() or 1)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"FISHER_INFER_THREADS must be a positive integer, got {env!r}")
    return max(1, min(cap, njobs))


def _run_jobs(config: ExperimentConfig, t_values) -> np.recarray:
    """The k replications of config at each t of t_values as one record
    array in (t, rep) order, the order in which the jobs are listed and
    both maps return them; one record costs far less memory than one
    tuple of Python objects."""
    spec_dict = spec_to_dict(config.spec)
    qlin = config.mode == "revenue_qlin"
    jobs = [(spec_dict, t, rep, derive_seed(config.base_seed, t, rep),
             config.tol, qlin, config.alpha)
            for t in t_values for rep in range(config.k)]
    workers = _worker_cap(len(jobs))
    if workers == 1:
        results = [_replication(j) for j in jobs]
    else:
        # imported here: it pulls in multiprocessing, logging and socket,
        # which a process that never starts a pool does not need
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replication, jobs,
                                    chunksize=max(1, len(jobs) // (4 * workers))))
    return np.array(results, dtype=_row_dtype(config.spec.n)).view(np.recarray)


# ---------------------------------------------------------------------------
# CSV output; repr keeps every float bit so reruns compare byte-for-byte
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(config: ExperimentConfig, name: str, header: list[str], rows) -> None:
    """Write name into config.out_dir; nothing when out_dir is None."""
    if config.out_dir is None:
        return
    os.makedirs(config.out_dir, exist_ok=True)
    with open(os.path.join(config.out_dir, name), "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _longrun_reference(config: ExperimentConfig, mode: str) -> LongRunEquilibrium | None:
    """Exact long-run equilibrium of config's spec for the runner of mode,
    the first thing each runner does.  A spec that is not 1-D linear has
    none: the convergence sweep gets None, every other mode a ValueError,
    as does a config of another mode.  Solver errors propagate, so a
    sweep cannot silently lose its reference."""
    if config.mode != mode:
        raise ValueError(f"config mode {config.mode!r} is not {mode!r}, the mode this runs")
    if not isinstance(config.spec.valuation, Linear1DValuation):
        if mode == "convergence":
            return None
        raise ValueError(f"{mode} needs a 1-D linear spec with an exact long-run solution")
    return (solve_longrun_qeg if mode == "revenue_qlin" else solve_longrun_eg)(config.spec)


def _rate(summary: list[dict], key: str) -> RateFit | None:
    """The log-log rate of summary's key over t, fit to the entries where
    it is positive (a NaN mean is not); None with fewer than two."""
    pts = [(e["t"], e[key]) for e in summary if e[key] > 0]
    return fit_rate(pts) if len(pts) >= 2 else None


# ---------------------------------------------------------------------------
# Experiment entry points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceResult:
    rows: np.recarray
    summary: list[dict]
    nsw_star: float | None
    beta_star: tuple[float, ...] | None
    nsw_rate: RateFit | None
    beta_rate: RateFit | None


def run_convergence_sweep(config: ExperimentConfig) -> ConvergenceResult:
    """Welfare error sweep over t_grid with k replications each.

    When the spec admits an exact long-run solution, absolute errors
    against it are tabulated and a log-log rate is fit to the mean
    error per t (and to the multiplier error norm).  Budgets that do
    not sum to 1 raise ValueError before any replication runs.
    """
    star = _longrun_reference(config, "convergence")
    _require_unit_budgets(config.spec.budgets)
    nsw_star = star.nsw_star if star is not None else None
    beta_star = tuple(star.beta_star) if star is not None else None
    rows = _run_jobs(config, config.t_grid)
    ref = nsw_star if nsw_star is not None else float("nan")
    err = np.abs(rows.nsw_hat - ref)
    _write_csv(config, "convergence.csv", ["t", "rep", "seed", "nsw_hat", "nsw_star", "abs_err"],
               zip(rows.t, rows.rep, rows.seed, rows.nsw_hat, np.full(len(rows), ref), err))

    summary = []
    ok = rows.status == "ok"
    for t in config.t_grid:
        at_t = rows.t == t
        good = ok & at_t
        entry = {"t": t, "n_ok": int(good.sum()), "n_failed": int((at_t & ~ok).sum()),
                 "mean_nsw": float("nan"), "stderr_nsw": float("nan"),
                 "mean_abs_err": float("nan"), "mean_beta_err": float("nan")}
        if good.any():
            entry["mean_nsw"], entry["stderr_nsw"] = summarize_reps(rows.nsw_hat[good])
            if star is not None:
                entry["mean_abs_err"], _ = summarize_reps(err[good])
                entry["mean_beta_err"], _ = summarize_reps(
                    [np.linalg.norm(beta - star.beta_star) for beta in rows.beta_hat[good]])
        summary.append(entry)
    return ConvergenceResult(rows=rows, summary=summary, nsw_star=nsw_star,
                             beta_star=beta_star, nsw_rate=_rate(summary, "mean_abs_err"),
                             beta_rate=_rate(summary, "mean_beta_err"))


@dataclass(frozen=True)
class CltResult:
    rows: np.recarray
    samples: np.ndarray
    sigma2: float
    ks: KSResult | None
    qq: np.ndarray | None  # (k, 2): theoretical and empirical quantiles
    degenerate: bool


def run_clt_experiment(config: ExperimentConfig) -> CltResult:
    """Distribution of sqrt(t) (nsw_hat - nsw_star) at the largest grid t.

    Emits the k centered, scaled samples and tests them against
    N(0, sigma2_nsw) of the long-run market.  A zero-variance market is
    reported as degenerate instead of tested.
    """
    star = _longrun_reference(config, "clt")
    t = config.t_grid[-1]
    sig2 = sigma2_nsw(star)
    rows = _run_jobs(config, [t])
    good = rows[rows.status == "ok"]
    samples = math.sqrt(t) * (good.nsw_hat - star.nsw_star)
    _write_csv(config, "clt.csv", ["rep", "seed", "standardized_nsw"],
               zip(good.rep, good.seed, samples))

    degenerate = sig2 <= 0
    ks = qq = None
    if not degenerate and len(samples) >= 2:
        ks = ks_normal_test(samples, 0.0, math.sqrt(sig2))
        qq = qq_points(samples, 0.0, math.sqrt(sig2))
    return CltResult(rows=rows, samples=samples, sigma2=sig2, ks=ks, qq=qq,
                     degenerate=degenerate)


@dataclass(frozen=True)
class CoverageResult:
    rows: np.recarray
    covered: np.ndarray
    coverage: float
    stderr: float
    nsw_star: float


def run_coverage_experiment(config: ExperimentConfig) -> CoverageResult:
    """Empirical coverage of the NSW interval at the largest grid t."""
    star = _longrun_reference(config, "coverage")
    rows = _run_jobs(config, config.t_grid[-1:])
    good = rows[rows.status == "ok"]
    lo, hi = good.ci.T
    # roundoff slack: zero-variance markets produce zero-width intervals
    # that sit within an ulp of the target; containment must not break there
    slack = 1e-12 * max(1.0, abs(star.nsw_star))
    covered = (lo - slack <= star.nsw_star) & (star.nsw_star <= hi + slack)
    _write_csv(config, "coverage.csv", ["rep", "seed", "lo", "hi", "covered"],
               zip(good.rep, good.seed, lo, hi, covered))

    k = len(covered)
    frac = int(covered.sum()) / k if k else float("nan")
    stderr = math.sqrt(frac * (1.0 - frac) / k) if k else float("nan")
    return CoverageResult(rows=rows, covered=covered, coverage=frac, stderr=stderr,
                          nsw_star=star.nsw_star)


@dataclass(frozen=True)
class QlinRevenueResult:
    rows: np.recarray
    summary: list[dict]
    rev_star: float
    rate: RateFit | None
    max_comp_slack: float


def run_qlin_revenue(config: ExperimentConfig) -> QlinRevenueResult:
    """Revenue error sweep for the quasilinear market over t_grid."""
    star = _longrun_reference(config, "revenue_qlin")
    rows = _run_jobs(config, config.t_grid)
    err = np.abs(rows.rev_hat - star.rev)
    _write_csv(config, "qlin.csv", ["t", "rep", "seed", "rev_hat", "rev_star", "abs_err"],
               zip(rows.t, rows.rep, rows.seed, rows.rev_hat, np.full(len(rows), star.rev), err))

    summary = []
    ok = rows.status == "ok"
    for t in config.t_grid:
        at_t = rows.t == t
        good = ok & at_t
        entry = {"t": t, "n_ok": int(good.sum()), "n_failed": int((at_t & ~ok).sum()),
                 "mean_abs_err": float("nan"), "stderr_abs_err": float("nan")}
        if good.any():
            entry["mean_abs_err"], entry["stderr_abs_err"] = summarize_reps(err[good])
        summary.append(entry)
    slacks = rows.comp_slack[ok]
    worst = float(slacks.max()) if slacks.size else float("nan")
    return QlinRevenueResult(rows=rows, summary=summary, rev_star=star.rev,
                             rate=_rate(summary, "mean_abs_err"),
                             max_comp_slack=worst)


def run_experiment(config: ExperimentConfig):
    """Dispatch on config.mode."""
    run = {"convergence": run_convergence_sweep, "clt": run_clt_experiment,
           "coverage": run_coverage_experiment, "revenue_qlin": run_qlin_revenue}
    return run[config.mode](config)


__all__ = [
    "MODES",
    "ExperimentConfig",
    "config_from_dict",
    "load_config",
    "derive_seed",
    "ConvergenceResult",
    "run_convergence_sweep",
    "CltResult",
    "run_clt_experiment",
    "CoverageResult",
    "run_coverage_experiment",
    "QlinRevenueResult",
    "run_qlin_revenue",
    "run_experiment",
]
