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
(rows.nsw_hat) and a record per replication (rows[0].status);
summary_table renders any result as text.

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
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .finite import DEFAULT_TOL, solve_sample_eg, solve_sample_qeg
from .inference import ci_nsw, estimate_sigma2_nsw
from .longrun import (LongRunEquilibrium, _require_unit_budgets, sigma2_nsw, solve_longrun_eg,
                      solve_longrun_qeg)
from .markets import (Linear1DValuation, LongRunSpec, _coerced, _typed, load_spec,
                      sample_items, spec_from_dict, spec_to_dict)
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
    tol: float = DEFAULT_TOL
    out_dir: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        grid = tuple(_coerced("t_grid", t, int) for t in self.t_grid)
        if len(grid) == 0 or any(a >= b for a, b in zip(grid, grid[1:])):
            raise ValueError("t_grid must be nonempty and strictly ascending")
        object.__setattr__(self, "t_grid", grid)
        for name, kind in (("k", int), ("base_seed", int), ("alpha", float), ("tol", float)):
            object.__setattr__(self, name, _coerced(name, getattr(self, name), kind))
        _typed("out_dir", self.out_dir, str, type(None))
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")


def config_from_dict(data: dict, base_dir: str = ".") -> ExperimentConfig:
    """The config that data describes, its spec given inline as "spec" or
    as a spec file "spec_path" relative to base_dir.  A key that is not
    an ExperimentConfig field or "spec_path", a missing field without a
    default, or a t_grid or spec of the wrong type raises ValueError."""
    data = dict(data)
    path = data.pop("spec_path", None)
    known = fields(ExperimentConfig)
    unknown = sorted(set(data) - {f.name for f in known})
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    if "t_grid" in data:
        _typed("t_grid", data["t_grid"], list, tuple)
    if path is not None:
        data["spec"] = load_spec(os.path.join(base_dir, path))
    elif "spec" in data:
        data["spec"] = spec_from_dict(_typed("spec", data["spec"], dict))
    missing = [f.name for f in known if f.default is MISSING and f.name not in data]
    if missing:
        raise ValueError(f"missing config keys {missing}")
    return ExperimentConfig(**data)


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


def _per_t(config: ExperimentConfig, rows, **columns) -> list[dict]:
    """Per t: its n_ok and n_failed rows, and for each column (one value
    per row) mean_<name> and stderr_<name> over its certified rows."""
    summary = []
    ok = rows.status == "ok"
    for t in config.t_grid:
        at_t = rows.t == t
        good = ok & at_t
        entry = {"t": t, "n_ok": int(good.sum()), "n_failed": int((at_t & ~ok).sum())}
        for name, values in columns.items():
            entry[f"mean_{name}"], entry[f"stderr_{name}"] = (
                summarize_reps(values[good]) if good.any() else (float("nan"), float("nan")))
        summary.append(entry)
    return summary


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
    rows = _run_jobs(config, config.t_grid)
    ref, beta_ref = (star.nsw_star, star.beta_star) if star is not None else (np.nan, np.nan)
    err = np.abs(rows.nsw_hat - ref)
    _write_csv(config, "convergence.csv", ["t", "rep", "seed", "nsw_hat", "nsw_star", "abs_err"],
               zip(rows.t, rows.rep, rows.seed, rows.nsw_hat, np.full(len(rows), ref), err))

    # one norm per row: a vectorized norm sums in another order
    beta_err = np.array([np.linalg.norm(beta - beta_ref) for beta in rows.beta_hat])
    summary = _per_t(config, rows, nsw=rows.nsw_hat, abs_err=err, beta_err=beta_err)
    return ConvergenceResult(
        rows=rows, summary=summary, nsw_star=None if star is None else star.nsw_star,
        beta_star=None if star is None else tuple(star.beta_star),
        nsw_rate=_rate(summary, "mean_abs_err"), beta_rate=_rate(summary, "mean_beta_err"))


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

    summary = _per_t(config, rows, abs_err=err)
    slacks = rows.comp_slack[rows.status == "ok"]
    worst = float(slacks.max()) if slacks.size else float("nan")
    return QlinRevenueResult(rows=rows, summary=summary, rev_star=star.rev,
                             rate=_rate(summary, "mean_abs_err"),
                             max_comp_slack=worst)


def run_experiment(config: ExperimentConfig):
    """Dispatch on config.mode."""
    run = {"convergence": run_convergence_sweep, "clt": run_clt_experiment,
           "coverage": run_coverage_experiment, "revenue_qlin": run_qlin_revenue}
    return run[config.mode](config)


def summary_table(result) -> str:
    """Plain-text rendering of a run_* result, used by the command line
    and the scripts: the certified and failed replication counts, then
    the mode's reference, per-t table and rate fits, KS test or coverage."""
    ok = int((result.rows.status == "ok").sum())
    lines = [f"replications: certified={ok} failed={len(result.rows) - ok}"]
    if isinstance(result, CltResult):
        s, ks = result.samples, result.ks
        lines.append(f"sigma2_nsw = {result.sigma2:.10f}, k = {len(s)} samples "
                     f"of sqrt(t) (nsw_hat - nsw_star) at t = {result.rows.t[-1]}")
        if ks is not None:
            slope = float(np.polyfit(result.qq[:, 0], result.qq[:, 1], 1)[0])
            lines += [f"sample mean = {s.mean():.5f}, sample var = {s.var(ddof=1):.5f}",
                      f"KS: D = {ks.d_stat:.4f}, p = {ks.p_value:.4f} (n = {ks.n})",
                      f"Q-Q slope vs N(0, sigma2_nsw) = {slope:.4f} (1 if exactly normal)"]
        else:
            why = "sigma2_nsw = 0" if result.degenerate else "fewer than two certified samples"
            lines.append(f"no test run: {why}")
    elif isinstance(result, CoverageResult):
        lines += [f"nsw_star = {result.nsw_star:.10f}",
                  f"coverage = {result.coverage:.4f} +- {result.stderr:.4f} "
                  f"over {len(result.covered)} certified intervals"]
    else:
        qlin = isinstance(result, QlinRevenueResult)
        star = result.rev_star if qlin else result.nsw_star
        lines.append("no exact long-run reference: errors are NaN" if star is None
                     else f"{'rev' if qlin else 'nsw'}_star = {star:.10f}")
        widths = {key: max(len(key), 10) for key in result.summary[0]}
        lines.append(" ".join(f"{key:>{w}}" for key, w in widths.items()))
        for e in result.summary:
            lines.append(" ".join(f"{e[key]:>{w}.6g}" for key, w in widths.items()))
        fits = ({"revenue": result.rate} if qlin
                else {"nsw": result.nsw_rate, "beta": result.beta_rate})
        lines += [f"{name} error rate: t^{fit.slope:.3f} (r2 = {fit.r2:.3f})"
                  for name, fit in fits.items() if fit is not None]
        if qlin:
            lines.append(f"max |delta (1 - beta)| = {result.max_comp_slack:.3e}")
    return "\n".join(lines)


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
    "summary_table",
]
