"""Digest of the equilibria of fixed market corpora, to compare two trees.

Solves each corpus with the default route and prints one line per
corpus: its name, the number of markets, how many certified, and a
SHA-256 over every market's beta, u, p and X bytes, repr(nsw), the
certificate's method and repr(gap).  Two source trees that print the
same lines computed bit-identical results.  numpy only; no arguments.

Example:
    python scripts/solve_digest.py
"""

import dataclasses
import hashlib
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fisher_infer.finite import solve_sample_eg, solve_sample_qeg
from fisher_infer.markets import FiniteMarket, random_linear1d_spec, sample_items
from run_clt import symmetric_spec
from run_convergence import random_md_spec


def copy_items(market: FiniteMarket, seed: int) -> FiniteMarket:
    # t items drawn from the market's t with repeats: copied items have
    # equal columns, so equal sort keys and blocks of several items
    idx = np.random.default_rng(seed).integers(0, market.t, size=market.t)
    return FiniteMarket(V=market.V[:, idx], budgets=market.budgets)


def corpora():
    """(name, solve, markets) for each corpus."""
    sym = symmetric_spec()
    yield "n2_t2000", solve_sample_eg, (sample_items(sym, 2000, s) for s in range(400))
    n50 = random_linear1d_spec(50, 0)
    yield "n50_t200-300", solve_sample_eg, (
        sample_items(n50, t, s) for s in range(50) for t in (200, 250, 300))
    yield "n3-20_t2-1000", solve_sample_eg, (
        sample_items(random_linear1d_spec(n, s), t, s)
        for n in (3, 5, 8, 12, 20) for t in (2, 5, 20, 100, 300, 600, 1000) for s in range(4))
    yield "n50_t2-8", solve_sample_eg, (
        sample_items(random_linear1d_spec(50, s), t, s) for t in range(2, 9) for s in range(10))
    wide = random_linear1d_spec(50, 42)
    yield "n50_t100-5000", solve_sample_eg, (
        sample_items(wide, t, 1) for t in (100, 1000, 2500, 5000))
    yield "copied_n2-50", solve_sample_eg, (
        copy_items(sample_items(random_linear1d_spec(n, s), t, s), s)
        for n in (2, 5, 50) for t in (10, 68, 300) for s in range(4))
    m2 = random_md_spec(50, 10, 42)
    yield "m2_dim10", solve_sample_eg, (sample_items(m2, t, s) for t in (100, 200) for s in range(2))
    qlin = dataclasses.replace(sym, budgets=np.array([0.8, 0.6]))
    yield "qlin_b0.8-0.6", solve_sample_qeg, (
        sample_items(qlin, t, s) for t in (50, 200, 800) for s in range(4))


def digest(solve, markets):
    h = hashlib.sha256()
    count = certified = 0
    for market in markets:
        eq = solve(market)
        for a in (eq.beta, eq.u, eq.p, eq.X):
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        cert = eq.certificate
        h.update(f"{eq.nsw!r} {cert.method} {cert.duality_gap!r}\n".encode())
        count += 1
        certified += cert.certified
    return count, certified, h.hexdigest()


def main() -> None:
    for name, solve, markets in corpora():
        count, certified, hexdigest = digest(solve, markets)
        print(f"{name} count={count} certified={certified} sha256={hexdigest}", flush=True)


if __name__ == "__main__":
    main()
