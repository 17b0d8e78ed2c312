"""Exact long-run equilibria for one-dimensional linear-valuation markets.

With item types theta uniform on [0, 1] and buyer values v_i(theta) =
c_i theta + d_i, the price curve max_i beta_i v_i(theta) is the upper
envelope of n lines.  Every quantity of interest (dual objective,
gradient, Hessian, utilities, revenue, variances) is then a polynomial
integral over envelope segments and is computed in closed form here; no
quadrature appears outside the tests.

The dual objective is

    H(beta) = integral of max_i beta_i v_i(theta) - sum_i b_i log beta_i

and the equilibrium multiplier vector is its minimizer (over (0, 1]^n in
the quasilinear variant).  The Hessian at a point with a clean winner
structure picks up, per interior breakpoint, a rank-one term from the
breakpoint shifting as multipliers move; that term plus Diag(b/beta^2)
also feeds the asymptotic covariances of the sampled-market estimators.

The solve is the ordered partition: in slope order buyer i wins the
i-th envelope segment, found by Newton's method on the n - 1 breakpoints
(a tridiagonal system).  Buyers at the quasilinear cap form one block
whose ends meet at theta = 1/2, where all unit-mean lines cross.  At most
three dual Newton steps polish off the rounding; the certificate is the
(projected) gradient norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markets import Linear1DValuation, LongRunSpec

WIDTH_EPS = 1e-14


@dataclass(frozen=True)
class Envelope:
    """Upper envelope of lines on [0, 1].

    Segment k is [breakpoints[k], breakpoints[k+1]] where line
    winners[k] is on top, with scaled equation slopes[k] * theta +
    intercepts[k].
    """

    breakpoints: np.ndarray
    winners: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray


def upper_envelope(slopes, intercepts) -> Envelope:
    """Upper envelope of the lines slope*theta + intercept on [0, 1].

    Identical lines resolve to the lowest index; among parallel lines
    only the highest survives.  Segments narrower than WIDTH_EPS are
    pruned.
    """
    m = np.asarray(slopes, dtype=float)
    q = np.asarray(intercepts, dtype=float)
    if m.ndim != 1 or m.shape != q.shape or len(m) == 0:
        raise ValueError("need matching nonempty slope/intercept vectors")
    n = len(m)
    # slope ascending, then intercept descending, then index: the first
    # line of each slope group dominates the rest of the group
    order = np.lexsort((np.arange(n), -q, m))
    kept = []
    for idx in order:
        if kept and m[idx] == m[kept[-1]]:
            continue
        kept.append(int(idx))

    stack = []  # rows [idx, slope, intercept, start]
    for idx in kept:
        start = -np.inf
        while stack:
            _, mA, qA, sA = stack[-1]
            start = (qA - q[idx]) / (m[idx] - mA)
            if start <= sA:
                stack.pop()
                start = -np.inf
            else:
                break
        stack.append([idx, m[idx], q[idx], start])

    bps = [0.0]
    winners, ms, qs = [], [], []
    for j, (idx, mj, qj, sj) in enumerate(stack):
        lo = max(sj, 0.0)
        hi = min(stack[j + 1][3], 1.0) if j + 1 < len(stack) else 1.0
        if hi - lo < WIDTH_EPS:
            continue
        winners.append(idx)
        ms.append(mj)
        qs.append(qj)
        bps.append(hi)
    bps[-1] = 1.0
    return Envelope(breakpoints=np.array(bps), winners=np.array(winners, dtype=int),
                    slopes=np.array(ms), intercepts=np.array(qs))


def _int_lin(c, d, lo, hi):
    # integral of c*theta + d
    return 0.5 * c * (hi * hi - lo * lo) + d * (hi - lo)


def _int_quad(c, d, lo, hi):
    # integral of (c*theta + d)^2
    return (c * c * (hi ** 3 - lo ** 3) / 3.0
            + c * d * (hi * hi - lo * lo) + d * d * (hi - lo))


def _require_linear1d(spec: LongRunSpec) -> Linear1DValuation:
    if not isinstance(spec.valuation, Linear1DValuation):
        raise TypeError("closed-form long-run computations need 1-D linear values")
    return spec.valuation


def _scaled_envelope(spec: LongRunSpec, beta: np.ndarray) -> Envelope:
    val = _require_linear1d(spec)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (spec.n,) or np.any(beta <= 0):
        raise ValueError("beta must be positive, one entry per buyer")
    return upper_envelope(beta * val.c, beta * val.d)


# ---------------------------------------------------------------------------
# Dual objective
# ---------------------------------------------------------------------------


def dual_value_pop(spec: LongRunSpec, beta) -> float:
    """Population dual H(beta), exact by segment integration."""
    env = _scaled_envelope(spec, beta)
    lo, hi = env.breakpoints[:-1], env.breakpoints[1:]
    integral = _int_lin(env.slopes, env.intercepts, lo, hi).sum()
    return float(integral - (spec.budgets * np.log(beta)).sum())


def dual_grad_pop(spec: LongRunSpec, beta):
    """Gradient of H: winning-value integral minus b_i/beta_i per buyer.

    Where two scaled lines coincide (a positive-length tie) the envelope
    keeps the lowest index, making this the matching subgradient.
    """
    beta = np.asarray(beta, dtype=float)
    return _utilities_from_envelope(spec, _scaled_envelope(spec, beta)) - spec.budgets / beta


def _utilities_from_envelope(spec, env):
    """Winning-value integral per buyer; each line wins at most one segment."""
    val = spec.valuation
    u = np.zeros(spec.n)
    for k, w in enumerate(env.winners):
        u[w] += _int_lin(val.c[w], val.d[w], env.breakpoints[k], env.breakpoints[k + 1])
    return u


# ---------------------------------------------------------------------------
# Hessian at a clean winner structure
# ---------------------------------------------------------------------------


def _winner_hessian(spec, beta, env):
    """(diagonal, off-diagonal) of the tridiagonal Hessian of H at beta
    over the winners of env, in envelope order: b_w / beta_w^2 on the
    diagonal, plus at each breakpoint a between winners w and w' (left,
    right) the rank-one block [[-v_w^2, v_w v_w'], [v_w v_w', -v_w'^2]] / D
    at a, D = beta_w c_w - beta_w' c_w' < 0, from moving that boundary.
    """
    val, w, a = spec.valuation, env.winners, env.breakpoints[1:-1]
    v_l = val.c[w[:-1]] * a + val.d[w[:-1]]
    v_r = val.c[w[1:]] * a + val.d[w[1:]]
    D = env.slopes[:-1] - env.slopes[1:]
    diag = spec.budgets[w] / beta[w] ** 2
    diag[1:] -= v_r * v_r / D
    diag[:-1] -= v_l * v_l / D
    return diag, v_l * v_r / D


def hessian_longrun_linear(spec: LongRunSpec, beta) -> np.ndarray:
    """Hessian of H at beta: _winner_hessian on the winners, b / beta^2
    on the other diagonal entries.  Raises ValueError, naming the buyers,
    when three bids meet at an interior breakpoint or two at an endpoint
    of [0, 1] (a winner change there, or identical bid lines on a won
    segment): the Hessian does not exist there.
    """
    val = _require_linear1d(spec)
    beta = np.asarray(beta, dtype=float)
    env = _scaled_envelope(spec, beta)
    ms, qs = beta * val.c, beta * val.d
    scale = max(float(np.abs(qs).max()), float(np.abs(ms + qs).max()), 1.0)
    for theta, most, eps in [(0.0, 1, 1e-12), (1.0, 1, 1e-12),
                             *((a, 2, 1e-9) for a in env.breakpoints[1:-1])]:
        bids = ms * theta + qs
        tied = np.flatnonzero(bids >= bids.max() - eps * scale)
        if tied.size > most:
            raise ValueError(f"buyers {tied.tolist()} tie at theta = {theta:.6g}, "
                             "Hessian undefined")
    w = env.winners
    diag, off = _winner_hessian(spec, beta, env)
    H = np.diag(spec.budgets / beta ** 2)
    H[w, w] = diag
    H[w[:-1], w[1:]] = off
    H[w[1:], w[:-1]] = off
    return H


# ---------------------------------------------------------------------------
# Equilibrium solvers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LongRunEquilibrium:
    """Exact equilibrium of a long-run 1-D linear market.

    Price curve data: on [breakpoints[k], breakpoints[k+1]] the price is
    price_slopes[k] * theta + price_intercepts[k], paid to line
    winners[k].  delta and rev are filled by the quasilinear solver
    (delta is None for the linear market, where rev equals the total
    budget).  Buyers with identical lines share one beta, win under
    their lowest index and split u and delta by budget share; where
    they win, omega2 and asymptotic_pack raise for them.
    """

    spec: LongRunSpec
    beta_star: np.ndarray
    breakpoints: np.ndarray
    winners: np.ndarray
    price_slopes: np.ndarray
    price_intercepts: np.ndarray
    u_star: np.ndarray
    nsw_star: float
    rev: float
    grad_norm: float
    delta: np.ndarray | None = None


def _require_unit_budgets(budgets) -> None:
    """Raise unless budgets sum to 1, as solve_longrun_eg and estimate_sigma2_nsw assume."""
    if abs(budgets.sum() - 1.0) > 1e-9:
        raise ValueError("budgets must sum to 1 (see normalize_spec)")


def _solve_tridiagonal(diag, off, rhs, lower=None):
    """Solve the tridiagonal system with diagonal diag, super-diagonal off
    and sub-diagonal lower (off if None) by elimination without pivoting.

    Safe for the Jacobian of _pinned_partition: its off-diagonal is
    nonnegative, and a row with two free buyers has a negative diagonal
    exceeding its off-diagonal sum by sum_j beta_j c_j^2 w_j / (2 vbar_j)
    over the segments j next to the breakpoint (widths w_j, means vbar_j
    of the linear v_j on them).  A pinned buyer drops its b/u terms from
    the last row only, so every multiplier is at most 1 in magnitude and
    only a nearly singular Jacobian gives a small last pivot.  Safe for
    _newton_polish's Hessian, which is positive definite, and for the
    Jacobian of finite._interval_start: it is column diagonally dominant
    by the slope of the interpolated log ratio, >= 0 because
    finite._ordered_pattern only admits nondecreasing log ratios.
    """
    diag, off, x = diag.tolist(), off.tolist(), rhs.tolist()
    lower = off if lower is None else lower.tolist()
    for k in range(1, len(x)):
        w = lower[k - 1] / diag[k - 1]
        diag[k] -= w * off[k - 1]
        x[k] -= w * x[k - 1]
    x[-1] /= diag[-1]
    for k in range(len(x) - 2, -1, -1):
        x[k] = (x[k] - off[k] * x[k + 1]) / diag[k]
    return np.array(x)


def _breakpoint_newton(state, newton_step, a, hi, settle=0.0):
    """Damped Newton on breakpoints 0 < a_1 < ... < a_{n-1} < hi.

    state(a) is a tuple whose first entry is the residual vector F;
    newton_step(state(a)) is the Newton step, or None to stop there.
    Each step backtracks by halving from s = 1 down to 1e-10 and takes
    the first point that keeps the breakpoints strictly increasing
    inside (0, hi) and lowers max|F|; the loop stops when none does, or
    after 100 steps.  A step that moves no breakpoint by more than
    settle (or is NaN) is the last: it is taken whole if it keeps the
    breakpoints in order, without evaluating state there.  Returns a,
    or None on a zero pivot.
    """
    def in_order(cand):
        return cand[0] > 0.0 and cand[-1] < hi and (cand[1:] > cand[:-1]).all()

    st = state(a)
    res = np.abs(st[0]).max(initial=0.0)
    for _ in range(100):
        try:
            step = newton_step(st)
        except ZeroDivisionError:
            return None
        if step is None:
            break
        if not np.abs(step).max() > settle:
            cand = a + step
            return cand if in_order(cand) else a
        s = 1.0
        while s > 1e-10:
            cand = a + s * step
            if in_order(cand):
                new = state(cand)
                new_res = np.abs(new[0]).max()
                if new_res < res:
                    break
            s *= 0.5
        else:
            break
        a, st, res = cand, new, new_res
    return a


def _pinned_partition(c, d, b, cap, pinned, a):
    """Breakpoints of the ordered partition of buyers in slope order, the
    last held at beta = cap if pinned, by _breakpoint_newton from a; None
    on a zero pivot.  Buyer i wins [a_{i-1}, a_i] (a_0 = 0, a_n = 1), so
    beta_i = b_i / u_i with u_i the integral of v_i there (a pinned
    buyer's is unused), and neighbours' scaled lines meet at the
    breakpoints: F_i = beta_i v_i(a_i) - beta_{i+1} v_{i+1}(a_i) = 0,
    with a tridiagonal Jacobian.
    """
    def state(a):
        edges = np.concatenate(([0.0], a, [1.0]))
        u = _int_lin(c, d, edges[:-1], edges[1:])
        beta = b / u
        r = beta / u  # dbeta_i/da_{i-1} = r_i v_i(a_{i-1}), dbeta_i/da_i = -r_i v_i(a_i)
        if pinned:
            beta[-1], r[-1] = cap, 0.0
        v_lo, v_hi = c * edges[:-1] + d, c * edges[1:] + d  # v_i at a_{i-1}, a_i
        return beta[:-1] * v_hi[:-1] - beta[1:] * v_lo[1:], beta, r, v_lo, v_hi

    def newton_step(st):
        F, beta, r, v_lo, v_hi = st
        if np.abs(F).max(initial=0.0) == 0.0:
            return None
        diag = (beta[:-1] * c[:-1] - beta[1:] * c[1:]
                - r[:-1] * v_hi[:-1] ** 2 - r[1:] * v_lo[1:] ** 2)
        return _solve_tridiagonal(diag, (r * v_lo * v_hi)[1:-1], -F)

    return _breakpoint_newton(state, newton_step, a, 1.0)


def _capped_partition(c, d, b, cap):
    """Multipliers of buyers in slope order minimizing H over (0, cap]^n,
    or None on a zero pivot.  Unit-mean lines all pass through (1/2, 1),
    so buyers at the cap form one block L..R: L wins up to theta = 1/2, R
    from it, the buyers between nothing.  With beta_L = beta_R = cap held,
    each side's free breakpoints are an ordered partition of their own,
    the right one mirrored (theta -> 1 - theta) so its pinned buyer is
    last.  Once a beta of the plain ordered partition is above the cap,
    the block starts at the largest (the winner at 1/2), and each end
    moves out while its free neighbour is above the cap.  It never has to
    move in: the dual minimized over one side's free buyers is convex in
    the beta of the buyer that joins, with its minimum above the cap, so
    at the cap that buyer wins no more than its budget.
    """
    n = len(c)
    a, block = np.arange(1, n) / n, None
    while True:
        if block is None:
            a = _pinned_partition(c, d, b, cap, False, a)
        else:
            left = _pinned_partition(c[:L + 1], d[:L + 1], b[:L + 1], cap, True, a[:L])
            right = _pinned_partition(-c[R:][::-1], (c + d)[R:][::-1], b[R:][::-1], cap, True,
                                      1.0 - a[R:][::-1])
            a = (None if left is None or right is None
                 else np.concatenate((left, np.full(R - L, 0.5), 1.0 - right[::-1])))
        if a is None:
            return None
        edges = np.concatenate(([0.0], a, [1.0]))
        u = _int_lin(c, d, edges[:-1], edges[1:])
        if block is None:
            beta = b / u
            if not np.any(beta > cap):
                return beta
            new = (int(np.argmax(beta)),) * 2
        else:
            free = (np.arange(n) < L) | (np.arange(n) > R)
            beta = np.divide(b, u, out=np.full(n, cap), where=free)
            new = (L - int(L > 0 and beta[L - 1] > cap), R + int(R < n - 1 and beta[R + 1] > cap))
            if new == block:
                return beta
        block = L, R = new


def _at_cap(beta, cap):
    """Where beta sits at the cap, up to a slack of 1e-12."""
    return beta >= cap - 1e-12


def _projected_residual(beta, g, cap):
    """Residual of min H over (0, cap]^n: |g_i| below the cap and
    max(g_i, 0) at it."""
    return np.where(_at_cap(beta, cap), np.maximum(g, 0.0), np.abs(g))


def _newton_polish(spec, beta, cap, tol):
    """At most three undamped dual Newton steps on the free winners (a
    tridiagonal system) until the certificate holds; returns (beta, g).
    The breakpoints' rounding (u_i moves by ulp(a)/w_i relative) can leave
    |g| just above tol at a few hundred buyers.
    """
    g = dual_grad_pop(spec, beta)
    for _ in range(3):
        if _projected_residual(beta, g, cap).max() <= tol:
            break
        env = _scaled_envelope(spec, beta)
        k = np.flatnonzero(beta[env.winners] < cap)
        if not k.size:
            break
        diag, off = _winner_hessian(spec, beta, env)
        w = env.winners[k]
        cand = beta.copy()
        cand[w] = np.minimum(beta[w] + _solve_tridiagonal(
            diag[k], np.where(np.diff(k) == 1, off[k[:-1]], 0.0), -g[w]), cap)
        if not np.all(cand > 0):
            break
        beta, g = cand, dual_grad_pop(spec, cand)
    return beta, g


def _solve_longrun(spec: LongRunSpec, tol: float, cap: float) -> LongRunEquilibrium:
    """The one long-run solve body: minimizes H over (0, cap]^n, where
    cap is inf for linear buyers and 1 for quasilinear ones.

    Each set of identical lines is solved as one buyer that holds their
    summed budget: the KKT condition of such a set is on that sum, which
    the lowest-index subgradient of dual_grad_pop cannot show per buyer.
    These merged buyers go to _capped_partition in (slope, index) order,
    and the certificate is their projected gradient norm.  Each set wins
    under its lowest index and splits u and delta (b_i - beta_i u_i at
    the cap, None for linear buyers) by budget share; with distinct lines
    every share is exactly 1.
    """
    val = _require_linear1d(spec)
    if np.abs(val.means() - 1.0).max() > 1e-9:
        raise ValueError("values must be normalized to unit mean (see normalize_spec)")
    _, first, line = np.unique(np.stack([val.c, val.d], axis=1), axis=0,
                               return_index=True, return_inverse=True)
    lead = np.sort(first)  # the lowest index of each line, in index order
    k = np.searchsorted(lead, first[line.ravel()])  # buyer i has line k[i]
    b, c, d = spec.budgets, val.c[lead], val.d[lead]
    B = np.bincount(k, weights=b)
    merged = LongRunSpec(budgets=B, valuation=Linear1DValuation(c=c, d=d), supply=spec.supply)
    order = np.argsort(c, kind="stable")
    beta_sorted = _capped_partition(c[order], d[order], B[order], cap)
    if beta_sorted is None:
        raise RuntimeError("no certificate: zero pivot in the breakpoint Newton")
    beta = np.empty(len(lead))
    beta[order] = beta_sorted
    beta, g = _newton_polish(merged, beta, cap, tol)
    grad_norm = float(_projected_residual(beta, g, cap).max())
    if grad_norm > tol:
        what = "gradient norm" if np.isinf(cap) else "projected gradient"
        raise RuntimeError(f"no certificate: {what} {grad_norm:.3e} > {tol:.1e}")

    env = _scaled_envelope(merged, beta)
    share = b / B[k]
    u_line = _utilities_from_envelope(merged, env)
    u = u_line[k] * share
    lo, hi = env.breakpoints[:-1], env.breakpoints[1:]
    rev = float(_int_lin(env.slopes, env.intercepts, lo, hi).sum())
    delta = None if np.isinf(cap) else np.maximum(B - beta * u_line, 0.0)[k] * share
    nsw = float((b * np.log(u)).sum()) if np.all(u > 0) else float("nan")
    return LongRunEquilibrium(
        spec=spec, beta_star=beta[k], breakpoints=env.breakpoints, winners=lead[env.winners],
        price_slopes=env.slopes, price_intercepts=env.intercepts, u_star=u,
        nsw_star=nsw, rev=rev, grad_norm=grad_norm, delta=delta)


def solve_longrun_eg(spec: LongRunSpec, tol: float = 1e-10) -> LongRunEquilibrium:
    """Equilibrium of the long-run linear market, certified by gradient norm.

    Requires a normalized spec (unit-mean values, unit total budget)
    with strictly decreasing value intercepts, so that at the optimum
    buyer i wins exactly the i-th envelope segment: the ordered partition
    that the solve finds.  RuntimeError if the gradient norm exceeds tol.
    """
    val = _require_linear1d(spec)
    _require_unit_budgets(spec.budgets)
    if not np.all(np.diff(val.d) < 0):
        raise ValueError("value intercepts must be strictly decreasing")
    eq = _solve_longrun(spec, tol, np.inf)
    if not np.array_equal(eq.winners, np.arange(spec.n)):
        raise RuntimeError("equilibrium winner structure is not the ordered partition")
    return eq


def solve_longrun_qeg(spec: LongRunSpec, tol: float = 1e-10) -> LongRunEquilibrium:
    """Equilibrium of the long-run quasilinear market.

    Minimizes the same dual over (0, 1]^n (unit-mean values); buyers at
    the cap beta_i = 1 keep leftover money delta_i = b_i - beta_i u_i, and
    the seller collects rev = integral of the price curve.  RuntimeError
    if the projected gradient exceeds tol.
    """
    return _solve_longrun(spec, tol, 1.0)


# ---------------------------------------------------------------------------
# Asymptotic quantities
# ---------------------------------------------------------------------------


def sigma2_nsw(eq: LongRunEquilibrium) -> float:
    """Variance of the equilibrium price of a random item.

    Drives the welfare CLT: sqrt(t) times the sampled-market NSW error
    is asymptotically N(0, sigma2_nsw).
    """
    lo, hi = eq.breakpoints[:-1], eq.breakpoints[1:]
    second = _int_quad(eq.price_slopes, eq.price_intercepts, lo, hi).sum()
    first = _int_lin(eq.price_slopes, eq.price_intercepts, lo, hi).sum()
    return float(max(second - first * first, 0.0))


def omega2(eq: LongRunEquilibrium, i: int) -> float:
    """Variance of buyer i's winning value v_i(theta) 1{i wins theta};
    ValueError if i shares a winning bid line with another buyer."""
    val = eq.spec.valuation
    if not 0 <= i < eq.spec.n:
        raise IndexError(f"buyer index {i} out of range")
    m, q = eq.beta_star * val.c, eq.beta_star * val.d
    twins = np.flatnonzero((m == m[i]) & (q == q[i]))
    if twins.size > 1 and np.isin(twins, eq.winners).any():
        raise ValueError(f"buyers {twins.tolist()} win on one bid line, so buyer {i}'s "
                         "winning value is not defined")
    first = 0.0
    second = 0.0
    for k, w in enumerate(eq.winners):
        if w != i:
            continue
        lo, hi = eq.breakpoints[k], eq.breakpoints[k + 1]
        first += _int_lin(val.c[i], val.d[i], lo, hi)
        second += _int_quad(val.c[i], val.d[i], lo, hi)
    return float(max(second - first * first, 0.0))


def sigma_beta_u(hessian: np.ndarray, omega2_vec: np.ndarray, beta_star: np.ndarray,
                 budgets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Asymptotic covariances of the sampled multipliers and utilities.

    Sigma_beta = H^-1 S H^-1 and Sigma_u = D Sigma_beta D with
    D = Diag(-b_i / beta_i^2), the Jacobian of u = b/beta.

    S is the full covariance of the scores g_i(theta) = v_i(theta)
    1{i wins theta}: Omega_i^2 on the diagonal and -u_i u_j off it.
    Win regions are disjoint, so E[g_i g_j] = 0 for i != j and the
    covariance is minus the product of the means.  The means are taken
    as u = b/beta, which is the mean winning value E[g_i] for linear
    buyers and for quasilinear buyers below the cap (beta_i < 1); callers
    with quasilinear buyers check the cap first (asymptotic_pack,
    inference.build_report).
    """
    b = np.asarray(budgets, dtype=float)
    beta = np.asarray(beta_star, dtype=float)
    u = b / beta
    S = -np.outer(u, u)
    np.fill_diagonal(S, np.asarray(omega2_vec, dtype=float))
    Hinv = np.linalg.inv(hessian)
    sigma_beta = Hinv @ S @ Hinv
    D = np.diag(-b / beta ** 2)
    sigma_u = D @ sigma_beta @ D
    return sigma_beta, sigma_u


@dataclass(frozen=True)
class AsymptoticPack:
    """Everything the CLTs need at one long-run equilibrium."""

    sigma2_nsw: float
    omega2: np.ndarray
    hessian: np.ndarray
    sigma_beta: np.ndarray
    sigma_u: np.ndarray


def _require_below_cap(beta, delta) -> None:
    """Raise if a quasilinear buyer (delta not None) sits at the cap of 1.

    At the cap the mean winning value is b_i - delta_i, not b_i/beta_i,
    and the multiplier's limit law is a constrained one, so the sandwich
    of sigma_beta_u does not describe it.
    """
    if delta is None:
        return
    at_cap = np.flatnonzero(_at_cap(np.asarray(beta), 1.0))
    if at_cap.size:
        raise ValueError(f"quasilinear buyers {at_cap.tolist()} are at the cap beta = 1, "
                         "where the sandwich covariance does not apply")


def asymptotic_pack(eq: LongRunEquilibrium) -> AsymptoticPack:
    """Long-run variances and covariances; quasilinear buyers at the cap
    raise ValueError (see _require_below_cap)."""
    _require_below_cap(eq.beta_star, eq.delta)
    om = np.array([omega2(eq, i) for i in range(eq.spec.n)])
    H = hessian_longrun_linear(eq.spec, eq.beta_star)
    sb, su = sigma_beta_u(H, om, eq.beta_star, eq.spec.budgets)
    return AsymptoticPack(sigma2_nsw=sigma2_nsw(eq), omega2=om, hessian=H,
                          sigma_beta=sb, sigma_u=su)


__all__ = [
    "Envelope",
    "upper_envelope",
    "dual_value_pop",
    "dual_grad_pop",
    "hessian_longrun_linear",
    "LongRunEquilibrium",
    "solve_longrun_eg",
    "solve_longrun_qeg",
    "sigma2_nsw",
    "omega2",
    "sigma_beta_u",
    "AsymptoticPack",
    "asymptotic_pack",
]
