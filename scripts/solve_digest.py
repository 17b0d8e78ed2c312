"""Digest of the equilibria of fixed market corpora, to compare two trees.

Solves each market of a corpus with each of the corpus's solves (the
default route, except in the PR corpus) and prints one line per corpus:
its name, the number of solves, how many certified, and a SHA-256 over
every solve's beta, u, p and X bytes, repr(nsw), the certificate's
method and repr(gap).  A last line, `harness`, runs each experiment mode
at tiny sizes into a temporary directory and hashes the CSVs it writes,
with the count of replications and of certified ones.  Two source trees
that print the same lines computed bit-identical results.  numpy only;
no arguments.

Example:
    python scripts/solve_digest.py
"""

import dataclasses
import functools
import hashlib
import itertools
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fisher_infer.experiments import ExperimentConfig, run_experiment
from fisher_infer.finite import solve_sample_eg, solve_sample_qeg
from fisher_infer.markets import FiniteMarket, random_linear1d_spec, sample_items
from run_clt import symmetric_spec
from run_convergence import random_md_spec


def copy_items(market: FiniteMarket, seed: int) -> FiniteMarket:
    # t items drawn from the market's t with repeats: copied items have
    # equal columns, so equal sort keys, and the Newton route solves them
    # by its smoothed tail
    idx = np.random.default_rng(seed).integers(0, market.t, size=market.t)
    return FiniteMarket(V=market.V[:, idx], budgets=market.budgets)


def random_market(n: int, t: int, seed: int, zero_frac: float = 0.0) -> FiniteMarket:
    """Uniform values in [0.1, 3], a share zero_frac of them zeroed (each
    buyer keeps one positive value), and random budgets summing to 1."""
    gen = np.random.default_rng(seed)
    V = gen.uniform(0.1, 3.0, size=(n, t))
    if zero_frac > 0.0:
        V[gen.random((n, t)) < zero_frac] = 0.0
        dead = ~(V > 0).any(axis=1)
        V[dead, 0] = 1.0  # every buyer must keep one positive value
    b = gen.uniform(0.2, 1.0, size=n)
    return FiniteMarket(V=V, budgets=b / b.sum())


def tiny_zero_value_market(seed: int) -> FiniteMarket:
    # n 3-7, t <= 15, about 20% zero values; a buyer may have none left
    g = np.random.default_rng(seed)
    n, t = int(g.integers(3, 8)), int(g.integers(1, 16))
    V = g.uniform(0.0, 1.0, (n, t))
    V[g.random((n, t)) < 0.2] = 0.0
    b = g.uniform(0.2, 1.0, n)
    return FiniteMarket(V=V, budgets=b / b.sum())


def small_markets(count: int):
    """random_market draws with n in 2-8 and t in 1-39 from seed
    10_000 + s, zero_frac cycling through 0, 0.2 and 0.4."""
    for s in range(count):
        g = np.random.default_rng(10_000 + s)
        n, t = int(g.integers(2, 9)), int(g.integers(1, 40))
        yield random_market(n, t, s, (0.0, 0.2, 0.4)[s % 3])


def corpora():
    """(name, solves, markets) for each corpus."""
    sym = symmetric_spec()
    yield "n2_t2000", (solve_sample_eg,), (sample_items(sym, 2000, s) for s in range(400))
    n50 = random_linear1d_spec(50, 0)
    yield "n50_t200-300", (solve_sample_eg,), (
        sample_items(n50, t, s) for s in range(50) for t in (200, 250, 300))
    yield "n3-20_t2-1000", (solve_sample_eg,), (
        sample_items(random_linear1d_spec(n, s), t, s)
        for n in (3, 5, 8, 12, 20) for t in (2, 5, 20, 100, 300, 600, 1000) for s in range(4))
    yield "n50_t2-8", (solve_sample_eg,), (
        sample_items(random_linear1d_spec(50, s), t, s) for t in range(2, 9) for s in range(10))
    wide = random_linear1d_spec(50, 42)
    yield "n50_t100-5000", (solve_sample_eg,), (
        sample_items(wide, t, 1) for t in (100, 1000, 2500, 5000))
    yield "copied_n2-50", (solve_sample_eg,), (
        copy_items(sample_items(random_linear1d_spec(n, s), t, s), s)
        for n in (2, 5, 50) for t in (10, 68, 300) for s in range(4))
    m2 = random_md_spec(50, 10, 42)
    yield "m2_dim10", (solve_sample_eg,), (
        sample_items(m2, t, s) for t in (100, 200) for s in range(2))
    qlin = dataclasses.replace(sym, budgets=np.array([0.8, 0.6]))
    yield "qlin_b0.8-0.6", (solve_sample_qeg,), (
        sample_items(qlin, t, s) for t in (50, 200, 800) for s in range(4))
    # quasilinear markets where no buyer reaches the cap
    n5 = random_linear1d_spec(5, 42)
    n5 = dataclasses.replace(n5, budgets=n5.budgets * 0.6)
    yield "qlin_interior", (solve_sample_qeg,), itertools.chain(
        (sample_items(n50, t, s) for t in (200, 250, 300) for s in range(5)),
        (sample_items(n5, t, s) for t in (100, 1000) for s in range(5)))
    pr = tuple(functools.partial(solve, method="pr")
               for solve in (solve_sample_eg, solve_sample_qeg))
    # no PR polish certifies these within ESCALATE_AFTER iterations, so PR
    # hands its iterate to the Newton tail (the first market: linear only)
    escalating = (tiny_zero_value_market(194), random_market(5, 39, 981),
                  random_market(4, 29, 1369, 0.2))
    yield "pr_small", pr, itertools.chain(small_markets(60), escalating)


def harness_configs():
    """One tiny config per experiment mode, and the convergence sweep on
    both a 1-D market and M2 (n=50, d=10)."""
    sym = symmetric_spec()
    qlin = dataclasses.replace(sym, budgets=np.array([0.8, 0.6]))
    yield ExperimentConfig(spec=random_linear1d_spec(5, 42), mode="convergence",
                           t_grid=(50, 200), k=3)
    yield ExperimentConfig(spec=random_md_spec(50, 10, 42), mode="convergence",
                           t_grid=(50, 100), k=2)
    yield ExperimentConfig(spec=sym, mode="clt", t_grid=(400,), k=20)
    yield ExperimentConfig(spec=sym, mode="coverage", t_grid=(300,), k=20)
    yield ExperimentConfig(spec=qlin, mode="revenue_qlin", t_grid=(100, 400), k=4)


def harness_digest(configs):
    """Runs each config into its own temporary directory; returns the
    replication count, how many certified, and a SHA-256 over the name
    and bytes of every CSV written."""
    h = hashlib.sha256()
    count = certified = 0
    with tempfile.TemporaryDirectory() as tmp:
        for index, config in enumerate(configs):
            out = os.path.join(tmp, str(index))
            rows = run_experiment(dataclasses.replace(config, out_dir=out)).rows
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    h.update(name.encode() + b"\n" + fh.read())
            count += len(rows)
            certified += int((rows.status == "ok").sum())
    return count, certified, h.hexdigest()


def digest(solves, markets):
    h = hashlib.sha256()
    count = certified = 0
    for market in markets:
        for solve in solves:
            eq = solve(market)
            for a in (eq.beta, eq.u, eq.p, eq.X):
                h.update(np.ascontiguousarray(a, dtype=float).tobytes())
            cert = eq.certificate
            h.update(f"{eq.nsw!r} {cert.method} {cert.duality_gap!r}\n".encode())
            count += 1
            certified += cert.certified
    return count, certified, h.hexdigest()


def main() -> None:
    for name, solves, markets in corpora():
        count, certified, hexdigest = digest(solves, markets)
        print(f"{name} count={count} certified={certified} sha256={hexdigest}", flush=True)
    count, certified, hexdigest = harness_digest(harness_configs())
    print(f"harness count={count} certified={certified} sha256={hexdigest}")


if __name__ == "__main__":
    main()
