"""The benchmark's workloads: inputs from a seed, batches of timed tasks,
and checks of every output against the exact long-run market.

Import this module only after the thread counts are pinned in the
environment (run.py does so), because importing it imports numpy.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

from fisher_infer import experiments, finite, inference, longrun, markets
from fisher_infer.markets import Linear1DValuation, LongRunSpec, Uniform01Supply

# Certification threshold; the harness default, passed explicitly.
TOL = 1e-9
# Long-run variance of sqrt(t)(nsw_hat - nsw*) on the symmetric market.
SIGMA2_SYM2 = 1.0 / 27.0
# Standard errors the pooled CLT sample variance may sit from SIGMA2_SYM2.
VAR_Z_MAX = 5.0
# Largest admissible complementary slackness on quasilinear solves.
COMP_SLACK_MAX = 1e-8
# Largest admissible sqrt(t)-scaled errors against the long-run solution on
# infer_n50.  Twenty runs of about 100 tasks saw at most 1.39 (beta, the
# largest of 50 buyers) and 0.38 (NSW, whose CLT scale sigma is about 0.1).
BETA_ERR_MAX = 2.5
NSW_ERR_MAX = 1.0
# random_linear1d_spec seed of the infer_n50 market.
MARKET_SEED = 0


def _lines(budgets) -> LongRunSpec:
    """Two buyers on crossing lines v1 = 2 - 2 theta, v2 = 2 theta."""
    return LongRunSpec(budgets=np.array(budgets, dtype=float),
                       valuation=Linear1DValuation(c=np.array([-2.0, 2.0]),
                                                   d=np.array([2.0, 0.0])),
                       supply=Uniform01Supply())


def sub_seed(*parts) -> int:
    """63-bit seed derived from the run seed and a position."""
    digest = hashlib.blake2b(":".join(map(str, parts)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class Batch:
    """One timed unit of work and what the checks need from it."""

    index: int
    wall: float
    task_walls: list[float]
    certified: int
    csv_sha256: str
    outputs: object = None


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class Sizes:
    """Run-length knobs.  A harness batch is one run_* call with k
    replications per t, an infer_n50 batch is k jobs.  The traced slice is
    one batch of slice_k.  A timed run does at least min_tasks tasks."""

    k: int
    slice_k: int
    min_tasks: int = 100


class HarnessWorkload:
    """A workload run through one of the package's experiment entry points,
    with the replication pool at `pool` workers."""

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.sizes = self.smoke_sizes if smoke else self.sizes
        self.spec = _lines(self.budgets)
        self.pool = len(os.sched_getaffinity(0))

    def config(self, index: int, k: int, out_dir: str) -> experiments.ExperimentConfig:
        return experiments.ExperimentConfig(
            spec=self.spec, mode=self.mode, t_grid=self.t_grid, k=k,
            base_seed=sub_seed("perfbench", self.name, self.seed, index),
            tol=TOL, out_dir=out_dir)

    def run_batch(self, index: int, out_dir: str, k: int | None = None,
                  pool: int | None = None) -> Batch:
        cfg = self.config(index, k or self.sizes.k, out_dir)
        os.environ["FISHER_INFER_THREADS"] = str(pool or self.pool)
        start = time.perf_counter()
        result = getattr(experiments, self.entry)(cfg)
        wall = time.perf_counter() - start
        return Batch(index=index, wall=wall,
                     task_walls=[r.wall_time for r in result.rows],
                     certified=sum(r.status == "ok" for r in result.rows),
                     csv_sha256=sha256_file(os.path.join(out_dir, self.csv_name)),
                     outputs=result)

    def warmup(self, out_dir: str):
        self.run_batch(-1, out_dir, k=1, pool=1)

    def slice_batch(self, out_dir: str) -> Batch:
        """The fixed work of a traced run, in this process."""
        return self.run_batch(0, out_dir, k=self.sizes.slice_k, pool=1)

    def gap_check(self, batches: list[Batch], qlin: bool) -> Check:
        """Recompute the duality gap of every certified replication from its
        reported multipliers and utilities on the resampled market."""
        b = self.spec.budgets
        shift = float((b * (np.log(b) - 1.0)).sum())
        worst, count = -math.inf, 0
        for batch in batches:
            for r in batch.outputs.rows:
                if r.status != "ok":
                    continue
                market = markets.sample_items(self.spec, r.t, r.seed)
                u = np.array(r.u_hat)
                if qlin:
                    beta = np.array(r.beta_hat)
                    delta = np.maximum(b - beta * u, 0.0)
                    primal = float((b * np.log(u + delta)).sum() - delta.sum()) - shift
                else:
                    beta = b / u
                    primal = float((b * np.log(u)).sum()) - shift
                worst = max(worst, markets.dual_value_sample(market, beta) - primal)
                count += 1
        return Check("certified gap <= tol", worst <= TOL,
                     f"max gap {worst:.3e} over {count} certified tasks, tol {TOL:g}")


class CltSym2(HarnessWorkload):
    """run_clt_experiment on the symmetric two-buyer market at t = 2000."""

    name = "clt_sym2"
    mode = "clt"
    csv_name = "clt.csv"
    t_grid = (2000,)
    sizes = Sizes(k=500, slice_k=300)
    smoke_sizes = Sizes(k=12, slice_k=4, min_tasks=20)
    entry = "run_clt_experiment"
    budgets = (0.5, 0.5)

    def checks(self, batches: list[Batch]) -> list[Check]:
        out = [self.gap_check(batches, qlin=False)]
        sig = [bt.outputs.sigma2 for bt in batches]
        out.append(Check("long-run sigma2 = 1/27",
                         all(abs(s - SIGMA2_SYM2) <= 1e-12 for s in sig),
                         f"sigma2 in [{min(sig)!r}, {max(sig)!r}]"))
        samples = np.concatenate([bt.outputs.samples for bt in batches])
        n = len(samples)
        var = float(samples.var(ddof=1))
        allowed = VAR_Z_MAX * math.sqrt(2.0 / (n - 1))
        out.append(Check("CLT sample variance ~ 1/27",
                         abs(var / SIGMA2_SYM2 - 1.0) <= allowed,
                         f"var {var:.5f} vs {SIGMA2_SYM2:.5f} over {n} samples, "
                         f"relative tolerance {allowed:.3f}"))
        return out


class QlinSweep(HarnessWorkload):
    """run_qlin_revenue on the quasilinear market b = (0.8, 0.6), t doubling
    from 200 to 12800."""

    name = "qlin_sweep"
    mode = "revenue_qlin"
    csv_name = "qlin.csv"
    t_grid = tuple(200 * 2 ** i for i in range(7))
    sizes = Sizes(k=5, slice_k=2)
    smoke_sizes = Sizes(k=1, slice_k=1, min_tasks=7)
    entry = "run_qlin_revenue"
    budgets = (0.8, 0.6)

    def checks(self, batches: list[Batch]) -> list[Check]:
        worst = max(bt.outputs.max_comp_slack for bt in batches)
        rev = [bt.outputs.rev_star for bt in batches]
        return [self.gap_check(batches, qlin=True),
                Check("complementary slackness", worst <= COMP_SLACK_MAX,
                      f"max |delta (1 - beta)| {worst:.3e}, limit {COMP_SLACK_MAX:g}"),
                Check("long-run revenue finite and positive",
                      all(math.isfinite(r) and r > 0 for r in rev), f"rev* {rev[0]!r}")]


@dataclass
class Job:
    t: int
    seed: int
    certified: bool
    gap: float
    kkt_passed: bool
    report_finite: bool
    beta_err: float
    nsw_err: float
    row: tuple


def _vec(values) -> str:
    return " ".join(repr(float(v)) for v in values)


class InferN50:
    """The single-market job, in one process: sample -> Newton solve ->
    verify_kkt -> build_report(use_hessian=True), on one n = 50 market
    whose long-run solve happens in set-up.

    The market is the same for every run and the run seed draws the
    items.  Newton's cost differs from market to market: with the market
    drawn from the run seed, tasks_per_s spread 25% across three seeds.
    """

    name = "infer_n50"
    n = 50
    t_grid = (200, 250, 300)
    sizes = Sizes(k=6, slice_k=12)
    smoke_sizes = Sizes(k=2, slice_k=2, min_tasks=4)
    csv_header = ("job,t,seed,certified,nsw_hat,sigma2_nsw_hat,nsw_lo,nsw_hi,"
                  "beta_hat,beta_lo,beta_hi")

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.pool = 1
        self.sizes = self.smoke_sizes if smoke else self.sizes
        if smoke:
            self.n, self.t_grid = 6, (60, 80)
        self.spec = markets.random_linear1d_spec(self.n, MARKET_SEED)
        self.star = longrun.solve_longrun_eg(self.spec)

    def job(self, j: int) -> Job:
        t = self.t_grid[j % len(self.t_grid)]
        seed = sub_seed("perfbench", self.name, self.seed, j)
        market = markets.sample_items(self.spec, t, seed)
        eq = finite.solve_sample_eg(market, tol=TOL, method="newton")
        kkt = finite.verify_kkt(market, eq)
        rep = inference.build_report(market, eq, use_hessian=True)
        cert = eq.certificate
        row = (j, t, seed, int(cert.certified), repr(rep.nsw_hat), repr(rep.sigma2_nsw_hat),
               repr(rep.nsw_ci[0]), repr(rep.nsw_ci[1]), _vec(rep.beta_hat),
               _vec(rep.beta_ci[:, 0]), _vec(rep.beta_ci[:, 1]))
        root_t = math.sqrt(t)
        return Job(t=t, seed=seed, certified=cert.certified, gap=cert.duality_gap,
                   kkt_passed=kkt.passed,
                   report_finite=bool(np.all(np.isfinite(rep.beta_ci))
                                      and np.all(np.isfinite(rep.u_ci))
                                      and np.all(np.isfinite(rep.nsw_ci))),
                   beta_err=root_t * float(np.abs(eq.beta - self.star.beta_star).max()),
                   nsw_err=root_t * abs(eq.nsw - self.star.nsw_star), row=row)

    def run_batch(self, index: int, out_dir: str, k: int | None = None) -> Batch:
        jobs = k or self.sizes.k
        done, walls = [], []
        for j in range(index * jobs, (index + 1) * jobs):
            start = time.perf_counter()
            done.append(self.job(j))
            walls.append(time.perf_counter() - start)
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "infer.csv")
        with open(path, "w", newline="\n") as fh:
            fh.write(self.csv_header + "\n")
            for job in done:
                fh.write(",".join(map(str, job.row)) + "\n")
        return Batch(index=index, wall=sum(walls), task_walls=walls,
                     certified=sum(job.certified for job in done),
                     csv_sha256=sha256_file(path), outputs=done)

    def warmup(self, out_dir: str):
        self.job(-1)

    def slice_batch(self, out_dir: str) -> Batch:
        return self.run_batch(0, out_dir, k=self.sizes.slice_k)

    def checks(self, batches: list[Batch]) -> list[Check]:
        jobs = [job for bt in batches for job in bt.outputs]
        gaps = [job.gap for job in jobs if job.certified]
        worst_gap = max(gaps) if gaps else -math.inf
        beta_err = max(job.beta_err for job in jobs)
        nsw_err = max(job.nsw_err for job in jobs)
        return [
            Check("certified gap <= tol", worst_gap <= TOL,
                  f"max gap {worst_gap:.3e} over {len(gaps)} certified tasks, tol {TOL:g}"),
            Check("verify_kkt passes", all(job.kkt_passed for job in jobs),
                  f"{sum(job.kkt_passed for job in jobs)}/{len(jobs)} tasks"),
            Check("report intervals finite", all(job.report_finite for job in jobs),
                  f"{sum(job.report_finite for job in jobs)}/{len(jobs)} tasks"),
            Check("beta_hat vs long-run", beta_err <= BETA_ERR_MAX,
                  f"max sqrt(t) |beta_hat - beta*| {beta_err:.3f}, limit {BETA_ERR_MAX}"),
            Check("NSW vs long-run", nsw_err <= NSW_ERR_MAX,
                  f"max sqrt(t) |nsw_hat - nsw*| {nsw_err:.3f}, limit {NSW_ERR_MAX}, "
                  f"median {statistics.median(job.nsw_err for job in jobs):.3f}"),
        ]


WORKLOADS = {w.name: w for w in (CltSym2, QlinSweep, InferN50)}
