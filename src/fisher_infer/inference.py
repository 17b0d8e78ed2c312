"""Estimators and confidence intervals computed from one observed market.

Everything here consumes a single solved sampled market: the price
second moment estimates the welfare CLT variance, per-item winning
utilities estimate the per-buyer variances Omega_i^2, and a four-point
numerical difference of the sampled dual estimates its Hessian (each
stencil point evaluated from the top-3 bids per item at beta_hat).  The
intervals combine these through the asymptotic covariances; all normal
quantiles come from statkit.normal_quantile (about 1e-9 accurate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .finite import FiniteEquilibrium
from .longrun import _at_cap, _require_below_cap, _require_unit_budgets, sigma_beta_u
from .markets import FiniteMarket, _check_beta
from .statkit import normal_quantile

NEG_CLAMP = -1e-10


def estimate_sigma2_nsw(prices) -> float:
    """Welfare-CLT variance estimate: mean squared price minus 1.

    Valid for markets with total budget 1, where the mean price is 1 at
    equilibrium, making this the variance of the price of a random
    item.  Tiny negatives (roundoff) clamp to 0; anything below the
    clamp bound signals an upstream bug and raises.
    """
    p = np.asarray(prices, dtype=float)
    if p.size == 0:
        raise ValueError("empty price vector")
    val = float((p * p).mean() - 1.0)
    if val < NEG_CLAMP:
        raise ValueError(f"variance estimate {val:.3e} is negative beyond roundoff")
    return max(val, 0.0)


def ci_nsw(nsw_hat: float, sigma2_hat: float, t: int, alpha: float) -> tuple[float, float]:
    """Two-sided normal interval nsw_hat +- z_{alpha/2} sigma_hat / sqrt(t)."""
    if sigma2_hat < 0:
        raise ValueError("negative variance")
    if t < 2:
        raise ValueError("need t >= 2")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    z = normal_quantile(1.0 - alpha / 2.0)
    half = z * np.sqrt(sigma2_hat / t)
    return float(nsw_hat - half), float(nsw_hat + half)


def estimate_omega2(market: FiniteMarket, eq: FiniteEquilibrium) -> tuple[np.ndarray, bool]:
    """Per-buyer variance of winning values, from per-item utilities.

    Omega_hat_i^2 = (1/t) sum_tau (t u_i^tau - u_i)^2 where u_i^tau is
    the utility buyer i draws from item tau.  Also reports whether any
    item was split between buyers: the estimator's premise is a pure
    allocation, so ties are flagged rather than hidden (they are
    measure-zero in the long run but do occur in finite samples).
    """
    t = market.t
    # X is measure (full item = 1/t), so X*V is u_i^tau directly
    U = eq.X * market.V
    tied = bool(np.any((eq.X > 0).sum(axis=0) > 1))
    utotal = U.sum(axis=1)
    omega2_hat = ((t * U - utotal[:, None]) ** 2).mean(axis=1)
    return omega2_hat, tied


def default_eta(t: int) -> float:
    """Default numdiff spacing t^(-1/4): shrinks, but slower than 1/sqrt(t)."""
    return float(t) ** -0.25


def _top3_bids(bids):
    """The three highest bids on each item, best first, and their buyers.

    Returns (values, buyers), both 3 x t; with fewer than three buyers
    the missing rows hold bid -inf and buyer -1.
    """
    n, t = bids.shape
    order = np.argsort(bids, axis=0)[::-1][:3]
    values = np.full((3, t), -np.inf)
    buyers = np.full((3, t), -1)
    values[:n] = np.take_along_axis(bids, order, axis=0)
    buyers[:n] = order
    return values, buyers


def hessian_numdiff(market: FiniteMarket, beta_hat, eta: float | None = None):
    """Four-point numerical-difference Hessian of the sampled dual.

    Entry (i, j) uses the stencil [F(+e_i+e_j) - F(-e_i+e_j) -
    F(+e_i-e_j) + F(-e_i-e_j)] / (4 eta^2); the result is symmetrized.
    eta defaults to default_eta(t) and is shrunk to 0.5 min(beta_hat)
    (1 - 1e-9) when a perturbed point would leave the positive orthant.

    A stencil point moves only buyers i and j, so each item's max bid
    there is the larger of their two moved bids and the best bid, at
    beta_hat, of the other buyers, which is among the item's top-3 bids.
    The top-3 are sorted once and the pairs of one row i are evaluated
    together: O(n^2 (t + n)) work instead of O(n^3 t), with the same float
    operations as full dual evaluations, so H is bit-identical to them.
    beta_hat must have shape (n,) with positive finite entries.
    """
    beta_hat = _check_beta(market.n, beta_hat)
    n = len(beta_hat)
    if eta is None:
        eta = default_eta(market.t)
    if eta <= 0:
        raise ValueError("eta must be positive")
    # worst perturbation is beta_i - 2 eta on the diagonal stencil
    limit = 0.5 * beta_hat.min()
    if eta >= limit:
        eta = limit * (1.0 - 1e-9)
    if eta <= 0:
        raise ValueError("beta too close to the boundary for any spacing")

    V, b = market.V, market.budgets
    top_bid, top_buyer = _top3_bids(beta_hat[:, None] * V)
    H = np.zeros((n, n))
    I = np.eye(n)
    for i in range(n):
        # row i: the pairs (i, j), j >= i, at once.  Per item, the best and
        # second-best bids of buyers other than i; pair (i, j) falls back
        # to the second where j holds the best.
        skip = top_buyer[0] == i
        first = np.where(skip, top_bid[1], top_bid[0])
        first_buyer = np.where(skip, top_buyer[1], top_buyer[0])
        second = np.where(skip | (top_buyer[1] == i), top_bid[2], top_bid[1])
        js = np.arange(i, n)
        rows = np.arange(n - i)
        rest = np.where(first_buyer == js[:, None], second, first)

        def F(betas):
            # betas[r] is the stencil point of pair (i, js[r]): only its
            # bids of buyers i and js[r] differ from the bids at beta_hat
            top = np.maximum(np.maximum(rest, betas[:, i, None] * V[i]),
                             betas[rows, js, None] * V[js])
            return top.mean(axis=1) - (b * np.log(betas)).sum(axis=1)

        H[i, i:] = (F(beta_hat + eta * (I[i] + I[i:]))
                    - F(beta_hat + eta * (-I[i] + I[i:]))
                    - F(beta_hat + eta * (I[i] - I[i:]))
                    + F(beta_hat - eta * (I[i] + I[i:]))) / (4.0 * eta * eta)
        H[i:, i] = H[i, i:]
    return 0.5 * (H + H.T)


def ci_beta_u(beta_hat, omega2_hat, hessian, b, t: int, alpha: float,
              u_hat=None, capped=None):
    """Per-buyer intervals for multipliers and utilities.

    With a Hessian estimate, covariances come from the full-score
    sandwich H^-1 S H^-1 of `sigma_beta_u`, where S has Omega^2 on the
    diagonal and -u_i u_j off it, with u = b/beta (the mean winning
    value for linear buyers and quasilinear buyers below the cap).
    With hessian=None the diagonal plug-in
    Sigma_beta = Diag(Omega^2 beta^4 / b^2), Sigma_u = Diag(Omega^2)
    is used (exact when the smooth part of the dual has zero Hessian).
    The u intervals are centred at u_hat, b/beta_hat if None.  capped
    marks quasilinear buyers at the cap: their beta_hat is 1 with
    probability -> 1, so their beta interval is the point beta_hat.
    Returns (beta_ci, u_ci) as (n, 2) arrays of lower/upper bounds.
    """
    beta_hat = np.asarray(beta_hat, dtype=float)
    omega2_hat = np.asarray(omega2_hat, dtype=float)
    b = np.asarray(b, dtype=float)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if hessian is None:
        var_beta = omega2_hat * beta_hat ** 4 / b ** 2
        var_u = omega2_hat.copy()
    else:
        sigma_beta, sigma_u = sigma_beta_u(np.asarray(hessian, dtype=float),
                                           omega2_hat, beta_hat, b)
        var_beta = np.diag(sigma_beta).copy()
        var_u = np.diag(sigma_u).copy()
    var_beta = np.maximum(var_beta, 0.0)
    var_u = np.maximum(var_u, 0.0)
    if capped is not None:
        var_beta[np.asarray(capped, dtype=bool)] = 0.0
    z = normal_quantile(1.0 - alpha / 2.0)
    u_hat = b / beta_hat if u_hat is None else np.asarray(u_hat, dtype=float)
    half_beta = z * np.sqrt(var_beta / t)
    half_u = z * np.sqrt(var_u / t)
    beta_ci = np.stack([beta_hat - half_beta, beta_hat + half_beta], axis=1)
    u_ci = np.stack([u_hat - half_u, u_hat + half_u], axis=1)
    return beta_ci, u_ci


@dataclass(frozen=True)
class InferenceReport:
    """Point estimates and intervals from one observed market."""

    nsw_hat: float
    sigma2_nsw_hat: float
    nsw_ci: tuple[float, float]
    beta_hat: np.ndarray
    u_hat: np.ndarray
    omega2_hat: np.ndarray
    beta_ci: np.ndarray
    u_ci: np.ndarray
    alpha: float
    tie_flagged: bool
    hessian_hat: np.ndarray | None = None
    rev_hat: float | None = None


def build_report(market: FiniteMarket, eq: FiniteEquilibrium, alpha: float = 0.05,
                 use_hessian: bool = False) -> InferenceReport:
    """Assemble the full report for a solved market.

    use_hessian=True estimates the dual Hessian by numerical
    differences and runs the sandwich intervals; the default uses the
    diagonal plug-in, which gives quasilinear buyers at the cap the
    point interval beta = 1 and centres every quasilinear u interval at
    u_hat.  The sandwich needs every quasilinear buyer below the cap and
    raises ValueError naming the buyers at it.  For
    quasilinear markets the report centers on revenue: nsw_hat is the
    welfare of the money-metric utilities u + delta (eq.nsw) and its
    interval is degenerate (the price-variance estimator needs unit
    total budget, which quasilinear markets do not satisfy).  A linear
    market whose budgets do not sum to 1 raises ValueError for the same
    reason.
    """
    qlin = eq.delta is not None
    if not qlin:
        _require_unit_budgets(market.budgets)
    nsw_hat = eq.nsw
    omega2_hat, tied = estimate_omega2(market, eq)
    hessian_hat = None
    if use_hessian:
        _require_below_cap(eq.beta, eq.delta)
        hessian_hat = hessian_numdiff(market, eq.beta)
    # at the cap u_i = b_i - delta_i, not b_i / beta_i: a quasilinear
    # report centres its u intervals at its own u_hat
    beta_ci, u_ci = ci_beta_u(eq.beta, omega2_hat, hessian_hat,
                              market.budgets, market.t, alpha,
                              u_hat=eq.u if qlin else None,
                              capped=_at_cap(eq.beta, 1.0) if qlin else None)
    if qlin:
        sigma2_hat = 0.0
        nsw_ci = (nsw_hat, nsw_hat)
        rev_hat = eq.rev
    else:
        sigma2_hat = estimate_sigma2_nsw(eq.p)
        nsw_ci = ci_nsw(nsw_hat, sigma2_hat, market.t, alpha)
        rev_hat = None
    return InferenceReport(nsw_hat=nsw_hat, sigma2_nsw_hat=sigma2_hat, nsw_ci=nsw_ci,
                           beta_hat=eq.beta.copy(), u_hat=eq.u.copy(),
                           omega2_hat=omega2_hat, beta_ci=beta_ci, u_ci=u_ci,
                           alpha=alpha, tie_flagged=tied, hessian_hat=hessian_hat,
                           rev_hat=rev_hat)


def report_table(report: InferenceReport) -> str:
    """Fixed-column plain-text rendering used by the command line."""
    lines = []
    lines.append(f"nsw_hat      {report.nsw_hat: .6f}   "
                 f"ci [{report.nsw_ci[0]: .6f}, {report.nsw_ci[1]: .6f}]   "
                 f"sigma2_hat {report.sigma2_nsw_hat:.6f}")
    if report.rev_hat is not None:
        lines.append(f"rev_hat      {report.rev_hat: .6f}")
    if report.tie_flagged:
        lines.append("note: some items were split between buyers; "
                     "omega2_hat assumes a pure allocation")
    lines.append(f"{'buyer':>5} {'beta_hat':>12} {'beta_lo':>12} {'beta_hi':>12} "
                 f"{'u_hat':>12} {'u_lo':>12} {'u_hi':>12} {'omega2':>12}")
    for i in range(len(report.beta_hat)):
        lines.append(f"{i:>5} {report.beta_hat[i]:>12.6f} {report.beta_ci[i, 0]:>12.6f} "
                     f"{report.beta_ci[i, 1]:>12.6f} {report.u_hat[i]:>12.6f} "
                     f"{report.u_ci[i, 0]:>12.6f} {report.u_ci[i, 1]:>12.6f} "
                     f"{report.omega2_hat[i]:>12.6f}")
    return "\n".join(lines)


__all__ = [
    "estimate_sigma2_nsw",
    "ci_nsw",
    "estimate_omega2",
    "default_eta",
    "hessian_numdiff",
    "ci_beta_u",
    "InferenceReport",
    "build_report",
    "report_table",
]
