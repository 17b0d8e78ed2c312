"""Equilibrium solvers for sampled markets.

Three routes to the dual minimizer are provided:

* "newton" (the default): damped Newton on a softmax-smoothed dual with
  the smoothing temperature driven to zero.  Its softmax exponentiates
  only bids within 746 mu of their item's top bid: exp of anything
  lower is exactly 0.0, so the cut changes no bit.  Markets whose
  winners are intervals of sorted items (sampled 1-D linear values, with
  either kind of buyer) skip the smoothed tail: the ordered-pattern
  solve finds their exact tie pattern from sorted prefix sums, and the
  tail runs only where it does not apply or does not certify, as where
  a quasilinear buyer reaches the cap.
* "pr": proportional response dynamics on money bids.  Each buyer splits
  its budget over items in proportion to the utility each item currently
  delivers; prices are column sums of bids.  Robust and allocation-aware,
  linear convergence on most instances; a run that no polish certifies
  within ESCALATE_AFTER iterations hands its last iterate to the
  smoothed-Newton tail.
* "subgradient": projected subgradient descent on the dual over the
  multiplier box, with decaying steps, then the smoothed-Newton tail.

Each route hands the tail at most one start, and where the tail does not
certify, its last iterate is returned uncertified.

All routes finish with an exact pattern solve: near the optimum the items
whose top bids tie link buyers into a forest, and on the manifold where
those bids are exactly equal the piecewise-linear part of the dual is
linear in exp of one free log-multiplier per tree.  Each tied item links
every other winner i to its lowest-index winner i0 by an edge
(i, tau, i0); edges are listed item-major, and the tie forest and the
tied split read the same list.  The constrained
minimizer is then closed form, tied supply is split by a small linear
solve, and the result is certified by the duality gap, which comes out
at float precision when the detected pattern is correct.

Quasilinear buyers keep a slack bid (money not spent on goods), which
caps multipliers at 1.  Every routine takes the cap as a parameter: 1 for
quasilinear buyers and inf for linear ones, so one code path serves both.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .longrun import _at_cap, _breakpoint_newton, _projected_residual, _solve_tridiagonal
from .markets import FiniteMarket, dual_subgradient_sample

DEFAULT_TOL = 1e-9

# PR iterations between exact-pattern polish attempts.
POLISH_EVERY = 100
# Largest log-gaps in the bid margins that a polish probes as tie thresholds.
POLISH_GAPS = 12
# First stage of SMOOTH_MUS from which the Newton tail polishes at every
# stage: mu = 1e-6.
POLISH_FROM_STAGE = 5
# Largest log-gap between tied bids that a tie pattern accepts.
TIE_LOG_TOL = 1e-9
# The ordered-pattern start stops Newton once a step would move no
# breakpoint by this many items, and reads its pattern after that step.
INTERVAL_SETTLE = 0.25
# PR iterations before escalating to the smoothed Newton tail.
ESCALATE_AFTER = 4_000
# Subgradient warmup iterations before the Newton tail.
SUBGRADIENT_ITERS = 1_500
# Smoothing temperatures of the Newton tail stages, 1e-1 down to 1e-12;
# each is computed from its exponent, so it is exactly its power of ten.
SMOOTH_MUS = tuple(10.0 ** -k for k in range(1, 13))


@dataclass(frozen=True)
class Certificate:
    """Optimality evidence attached to a solve result."""

    duality_gap: float
    certified: bool
    method: str
    iterations: int
    escalated: bool = False


@dataclass(frozen=True)
class FiniteEquilibrium:
    """Equilibrium of a sampled market with linear or quasilinear buyers.

    X is the dense n x t allocation; the fractions on one item sum to the
    item supply 1/t.  p holds per-item prices max_i beta_i V[i, tau].
    delta is the money each quasilinear buyer keeps, None for linear
    buyers.  nsw is the log Nash welfare sum_i b_i log(u_i + delta_i) of
    the money-metric utilities (u + delta; u alone for linear buyers).
    """

    beta: np.ndarray
    u: np.ndarray
    p: np.ndarray
    X: np.ndarray
    delta: np.ndarray | None
    nsw: float
    certificate: Certificate

    @property
    def rev(self) -> float:
        """Mean price: the seller revenue under unit total supply."""
        return float(self.p.mean())


# ---------------------------------------------------------------------------
# Dual and primal values on raw arrays
# ---------------------------------------------------------------------------


def _dual(V, b, beta):
    return (beta[:, None] * V).max(axis=0).mean() - (b * np.log(beta)).sum()


def _primal_shifted(b, u):
    # at the optimum this equals the dual minimum (strong duality)
    return (b * np.log(u)).sum() - (b * (np.log(b) - 1.0)).sum()


def _gap(V, b, beta, u, delta):
    """Duality gap; linear buyers (delta None) evaluate the dual at b/u."""
    if delta is None:
        return _dual(V, b, b / u) - _primal_shifted(b, u)
    primal = (b * np.log(u + delta)).sum() - delta.sum() - (b * (np.log(b) - 1.0)).sum()
    return _dual(V, b, beta) - primal


# ---------------------------------------------------------------------------
# Exact pattern polish
# ---------------------------------------------------------------------------


def _candidate_rtols(bids, top):
    """Tie thresholds to try, placed in the largest log-gaps of bid margins.

    Margins of truly tied items shrink as beta approaches the optimum
    while strict margins stabilize, so some multiplicative gap in the
    sorted margin sequence separates them; we probe the POLISH_GAPS
    largest gaps.
    """
    rel = (top[None, :] - bids) / np.where(top > 0, top, 1.0)[None, :]
    rel = rel[:, top > 0]
    vals = np.unique(rel[(rel > 1e-15) & (rel < 0.05)])
    if len(vals) == 0:
        return [1e-9]
    logs = np.log(vals)
    order = np.argsort(-np.diff(logs))[:POLISH_GAPS]
    cands = [float(np.exp(0.5 * (logs[g] + logs[g + 1]))) for g in order]
    cands.append(float(vals[0]) * 0.5)
    # above every margin kept: on a small market every strict margin can
    # exceed 0.05, and then each other threshold leaves a tied bid out
    cands.append(float(vals[-1]) * 2.0)
    return cands


def _tie_forest(V, i, tau, i0):
    """Offsets of log-multipliers along the tie forest.

    Returns (comp, off), component id and log offset per buyer, or None.
    Edge k ties buyer i[k] to i0[k], the lowest-index winner of item
    tau[k]: log beta_i - log beta_i0 = log V[i0,tau] - log V[i,tau].
    Edges are item-major; in that order each edge that joins two trees
    enters the forest, and every other edge must be consistent with the
    tree offsets or the pattern is rejected.
    """
    n = V.shape[0]
    vi, v0 = V[i, tau], V[i0, tau]
    if np.any(vi <= 0) or np.any(v0 <= 0):
        return None
    r = np.log(v0) - np.log(vi)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    # a repeated buyer pair never joins two trees, so only first ones can
    _, first = np.unique(i * n + i0, return_index=True)
    tree = np.zeros(len(r), dtype=bool)
    adj = [[] for _ in range(n)]
    for k in np.sort(first).tolist():
        a, c = int(i[k]), int(i0[k])
        ra, rc = find(a), find(c)
        if ra != rc:
            parent[ra] = rc
            tree[k] = True
            adj[a].append((c, float(r[k])))
            adj[c].append((a, -float(r[k])))
    comp = np.full(n, -1)
    off = np.zeros(n)
    ncomp = 0
    for root in range(n):
        if comp[root] >= 0:
            continue
        comp[root] = ncomp
        stack = [root]
        while stack:
            a = stack.pop()
            for v, rv in adj[a]:
                if comp[v] < 0:
                    comp[v] = ncomp
                    # stored relation is z_a - z_v = rv
                    off[v] = off[a] - rv
                    stack.append(v)
        ncomp += 1
    extra = ~tree
    if np.any(np.abs((off[i[extra]] - off[i0[extra]]) - r[extra]) > TIE_LOG_TOL):
        return None
    return comp, off


def _split_tied_supply(V, i, tau, i0, tied_items, ref, targets, s, capped, X):
    """Split tied supply so each buyer hits its utility target, into X.

    targets[i] is the utility buyer i still needs from tied items; rows
    of buyers at the cap (their slack absorbs the residual) are
    dropped.  Edge k gives buyer i[k] a share of item tau[k]; the rest
    of tied item tied_items[j] goes to its lowest-index winner ref[j].
    Writes the tied columns of X and returns False if the linear system
    is inconsistent or leaves the per-item simplex.

    Each edge is first one unknown.  The edges of one buyer pair have
    proportional columns, so the min-norm split may overfill an item
    where another split fits; if that split leaves the simplex, each
    pair becomes one unknown, its share in units of its first item,
    which fills the pair's items in edge order, each up to the supply
    the other edges leave.
    """
    n, t = V.shape
    d = targets.copy()
    np.subtract.at(d, ref, V[ref, tied_items] * s)
    keep = ~capped
    _, first, pair = np.unique(i * n + i0, return_index=True, return_inverse=True)
    edges = np.arange(len(i))
    unknowns = [(edges, edges)]  # (each edge's unknown, the first edge of each)
    if len(first) < len(i):
        rank = np.empty(len(first), dtype=int)  # pairs numbered by their first edge
        rank[np.argsort(first)] = edges[:len(first)]
        unknowns.append((rank[pair.ravel()], np.sort(first)))
    for col, lead in unknowns:
        A = np.zeros((n, len(lead)))
        k = np.arange(len(lead))
        A[i[lead], k] = V[i[lead], tau[lead]]
        A[i0[lead], k] = -V[i0[lead], tau[lead]]
        sol, *_ = np.linalg.lstsq(A[keep], d[keep], rcond=None)
        # with every buyer at the cap no utility row is left to check
        if keep.any() and sol.size and np.abs(A[keep] @ sol - d[keep]).max() > 1e-9:
            return False
        room = s * (np.bincount(col, V[i, tau]) / V[i[lead], tau[lead]])
        if np.any(sol < -1e-9) or np.any(sol > room * (1 + 1e-6)):
            continue
        repeated = np.bincount(col)[col] > 1
        share = np.where(repeated, 0.0, np.clip(sol, 0.0, s)[col])
        taken = np.zeros(t)
        np.add.at(taken, tau, share)
        need = np.maximum(sol, 0.0) * V[i[lead], tau[lead]]  # value each pair passes on
        for e in np.flatnonzero(repeated):
            c, item = col[e], tau[e]
            share[e] = min(max(s - taken[item], 0.0), need[c] / V[i[e], item])
            taken[item] += share[e]
            need[c] -= share[e] * V[i[e], item]
        rest = s - taken[tied_items]
        if np.any(need[col[repeated]] > 1e-9) or np.any(rest < -1e-9):
            continue
        X[i, tau] = share
        X[ref, tied_items] = np.maximum(rest, 0.0)
        return True
    return False


def _pattern_solve(V, b, winmask, tol, cap):
    """The exact equilibrium in which buyer i wins item tau where
    winmask[i, tau] is set, or None if that pattern does not certify.
    Returns (beta, u, X, delta, gap, p), p the prices at beta.

    Tie edges (i, tau, i0) join each other winner i of a tied item tau
    to its lowest-index winner i0, item-major.  A component that wins
    nothing sits at the cap; with no cap (linear buyers) the pattern is
    rejected.
    """
    n, t = V.shape
    s = 1.0 / t
    # reductions over buyers in the smallest integer type that holds 0..n:
    # the lowest-index winner of an item is n less the largest n - i over
    # its winners (argmax along axis 0 is several times slower)
    small = np.min_scalar_type(n)
    nwin = winmask.sum(axis=0, dtype=small)
    tied_items = np.flatnonzero(nwin > 1)
    strict_items = np.flatnonzero(nwin == 1)
    winner = n - (winmask * (n - np.arange(n, dtype=small))[:, None]).max(axis=0).astype(np.intp)
    ws, wt = winner[strict_items], winner[tied_items]
    if len(tied_items):
        k, i = np.nonzero(winmask[:, tied_items].T)
        tau = tied_items[k]
        i0 = winner[tau]
        edge = i != i0
        i, tau, i0 = i[edge], tau[edge], i0[edge]
        forest = _tie_forest(V, i, tau, i0)
        if forest is None:
            return None
        comp, off = forest
        ncomp = int(comp.max()) + 1
    else:
        # no edges: every buyer is its own tree
        comp, off, ncomp = np.arange(n), np.zeros(n), n

    strict = ws * t + strict_items  # flat indices of the strict wins
    vs = V.ravel()[strict]
    wload = np.bincount(ws, vs * s, minlength=n)
    # on the tie manifold the max-of-bids part is linear in exp(y_c):
    # sum over items won by component c of V_w * exp(off_w) * exp(y_c) / t,
    # strict items first, then tied ones
    C = np.bincount(np.concatenate((comp[ws], comp[wt])),
                    np.concatenate((vs * np.exp(off[ws]) * s,
                                    V[wt, tied_items] * np.exp(off[wt]) * s)), minlength=ncomp)
    Bc = np.bincount(comp, b, minlength=ncomp)
    if np.isinf(cap) and np.any(C <= 0):
        return None

    # cap: beta_i = exp(off_i + y_c) <= cap for all i in the component;
    # a component that wins nothing (C = 0) sits at it, y = ybar
    ybar = np.full(ncomp, np.inf)
    np.minimum.at(ybar, comp, np.log(cap) - off)
    y = np.minimum(np.log(np.divide(Bc, C, out=np.full(ncomp, np.inf), where=C > 0)), ybar)
    beta_new = np.minimum(np.exp(off + y[comp]), cap)

    # the pattern must still hold at the refit multipliers
    top2 = (beta_new[:, None] * V).max(axis=0)
    if np.any(beta_new[ws] * vs < top2[strict_items] * (1.0 - 1e-12)):
        return None

    capped = _at_cap(beta_new, cap)
    X = np.zeros((n, t))
    X.ravel()[strict] = s
    targets = b / beta_new - wload
    if len(tied_items) and not _split_tied_supply(
            V, i, tau, i0, tied_items, wt, targets, s, capped, X):
        return None
    u = (V * X).sum(axis=1)

    if np.isinf(cap):
        if np.any(u <= 0):
            return None
        delta = None
    else:
        # leftover money only where the cap binds
        delta = b - beta_new * u
        if len(tied_items) and np.any(delta[capped] < -1e-10):
            # a capped lowest-index winner took a tied remainder past its
            # budget: split again with every row kept, each capped buyer
            # paying the money its component has left on tied items in
            # proportion to its room b - beta wload
            room = b - beta_new * wload
            left = (np.bincount(comp[wt], top2[tied_items] * s, minlength=ncomp)
                    - np.bincount(comp, np.where(capped, 0.0, room), minlength=ncomp))
            croom = np.bincount(comp, np.where(capped, room, 0.0), minlength=ncomp)
            frac = np.divide(left, croom, out=np.zeros(ncomp), where=croom > 0)
            targets[capped] = (room * frac[comp] / beta_new)[capped]
            if not _split_tied_supply(V, i, tau, i0, tied_items, wt, targets, s,
                                      np.zeros(n, dtype=bool), X):
                return None
            u = (V * X).sum(axis=1)
            delta = b - beta_new * u
        if np.any(delta < -1e-10) or np.any(delta[~capped] > 1e-9):
            return None
        delta = np.maximum(delta, 0.0)
    gap = _gap(V, b, beta_new, u, delta)
    if not gap <= tol:
        return None
    return beta_new, u, X, delta, float(gap), top2


def _polish(V, b, beta, tol, cap):
    """The first certified _pattern_solve over the tie thresholds of
    _candidate_rtols: bids within rtol of their item's top bid win it."""
    bids = beta[:, None] * V
    top = bids.max(axis=0)
    for rtol in _candidate_rtols(bids, top):
        winmask = (bids >= top[None, :] * (1.0 - rtol)) & (top > 0)[None, :]
        res = _pattern_solve(V, b, winmask, tol, cap)
        if res is not None:
            return res
    return None


# ---------------------------------------------------------------------------
# Ordered pattern: each buyer wins an interval of sorted items
# ---------------------------------------------------------------------------


def _ordered_pattern(V, b, tol, cap):
    """Exact equilibrium of a market whose winners are intervals of sorted
    items, or None; cap as in _pattern_solve.

    Items are sorted by log V[n-1] - log V[0]; two equal keys (copied
    items) give None.  If V is positive and every adjacent log ratio
    r_i = log V[i+1] - log V[i] is nondecreasing along that order
    (log-supermodular V, as 1-D linear values with slopes increasing in
    the buyer index give), then at every beta each buyer wins one interval
    of items, in buyer order.  Each neighbour pair i, i+1 either ties on
    one item k (q_i = 2k + 1) or breaks in front of it (q_i = 2k).
    _interval_start reads q off a relaxed problem, _interval_search moves
    it to the exact pattern, and _pattern_solve, the same solve the polish
    uses, computes and certifies that pattern, then again with the bids
    within TIE_LOG_TOL of their item's top tied, if there are more.  The
    search ignores the cap, so under one it finds the linear market's
    pattern and the certificate decides; it mostly fails where a buyer
    reaches the cap.
    """
    n, t = V.shape
    if n < 2 or not np.all(V > 0):
        return None
    key = np.log(V[-1]) - np.log(V[0])
    order = np.argsort(key)
    if (np.diff(key[order]) == 0).any():
        return None
    Vs = np.take(V, order, axis=1)  # several times faster than V[:, order] at small n
    logVs = np.log(Vs)
    R = logVs[1:] - logVs[:-1]
    if (R[:, 1:] < R[:, :-1]).any():
        return None
    P = np.zeros((n, t + 1))  # P[i, k]: buyer i's value of the items before item k
    np.cumsum(Vs, axis=1, out=P[:, 1:])
    q = _interval_start(Vs, R, P, b)
    q = None if q is None else _interval_search(Vs, R, P, b, q)
    if q is None:
        return None
    # buyer i wins the sorted items from q_{i-1} // 2 to (q_i + 1) // 2
    q = np.concatenate(([0], q, [2 * t]))
    rank = np.empty(t, dtype=int)  # each item's sorted position
    rank[order] = np.arange(t)
    winmask = (rank >= (q[:-1] // 2)[:, None]) & (rank < ((q[1:] + 1) // 2)[:, None])
    res = _pattern_solve(V, b, winmask, tol, cap)
    if res is None:
        return None
    # a bid within TIE_LOG_TOL of its item's top passes the tie forest, so
    # the polish, which reads ties off a smoothed beta, mostly ties it;
    # tie it here too, so that both paths mostly split such an item alike
    near = winmask | (res[0][:, None] * V >= res[5] * (1.0 - TIE_LOG_TOL))
    if np.array_equal(near, winmask):
        return res
    return _pattern_solve(V, b, near, tol, cap) or res


def _interval_start(Vs, R, P, b):
    """The q of the relaxed ordered problem, or None.

    Buyer i takes the sorted items between positions a_{i-1} < a_i in
    [0, t] (a_0 = 0, a_n = t), fractions of the end items included, so
    t u_i = U_i(a_i) - U_i(a_{i-1}) with U_i the prefix sums P
    interpolated linearly.  Neighbours tie where log beta_i - log
    beta_{i+1} = r_i(a_i), with r_i interpolated linearly between item
    midpoints so that the conditions F_i are continuous.  F_i involves
    a_{i-1}, a_i and a_{i+1} only: damped Newton on a tridiagonal
    system from a_i = i t / n, by the loop longrun._pinned_partition
    uses, until a step would move no a_i by INTERVAL_SETTLE items, which
    settles the item that holds each.  Each a_i then becomes a tie on
    its item, and _interval_search does the rest.
    """
    n, t = Vs.shape
    # the midpoints padded by one point on either side of [0, t], where r
    # takes its end values (col: the item of each point): every a_i lies
    # strictly inside a segment, and r is flat outside the midpoints
    mid = np.concatenate(([-1.0], np.arange(t) + 0.5, [t + 1.0]))
    col = np.concatenate(([0], np.arange(t), [t - 1]))
    rows = np.arange(n - 1)
    pair = rows + np.array([[0], [1]])  # buyers i and i + 1 meet at a_i
    ends = np.array([[1], [0]])  # a segment's two ends, from its upper one
    U_hi, U_lo = np.empty(n), np.empty(n)  # U_i at a_i and at a_{i-1}
    U_hi[-1], U_lo[0] = P[-1, -1], 0.0

    def state(a):
        k = a.astype(int)  # the item that holds a_i, as a lies in (0, t)
        v = Vs[pair, k]
        U_hi[:-1], U_lo[1:] = P[pair, k] + (a - k) * v
        w = U_hi - U_lo
        h = mid.searchsorted(a) - ends
        r, x = R[rows, col[h]], mid[h]
        slope = (r[1] - r[0]) / (x[1] - x[0])
        z = np.log(b / w)  # log beta up to a common constant
        return z[:-1] - z[1:] - (r[0] + slope * (a - x[0])), w, v, slope

    def newton_step(st):
        F, w, v, slope = st
        g_hi, g_lo = v[0] / w[:-1], v[1] / w[1:]
        return _solve_tridiagonal(-g_hi - g_lo - slope, g_hi[1:], -F, g_lo[:-1])

    a = _breakpoint_newton(state, newton_step, np.arange(1, n) * (t / n), float(t),
                           settle=INTERVAL_SETTLE)
    if a is None:
        return None
    return 2 * a.astype(int) + 1


def _interval_search(Vs, R, P, b, q):
    """Move the pattern q until it is consistent, or None if a move would
    leave a buyer without items, the moves cycle or they run past their
    budget.

    From q, beta follows in closed form (_pattern_multipliers): ties
    chain the log-multipliers of a component of tied neighbours (R holds
    the adjacent log ratios of the items), and one scale per component
    spends its budgets.  A left-to-right sweep then hands each buyer its
    items: buyer i needs t b_i / beta_i, and on a tie the share of the
    item left to buyers <= i must lie in [0, 1], or the tie moves down
    (below 0) or up.  A break must leave each side its higher bid, or it
    moves to a tie on the item that side loses.  Each sweep moves the
    first pair that is off (the far end of its run of equal q, in the
    direction of the move); a component's scale couples all its pairs,
    and moving them all at once can cycle.
    """
    n, t = Vs.shape
    rows, buyers, budget = np.arange(n - 1), np.arange(n), b.tolist()
    # q between two fixed ends, so that buyer i's strict items run from
    # (q_{i-1} + 1) // 2 up to q_i // 2: q_{-1} = -1, q_{n-1} = 2 t
    qe = np.concatenate(([-1], q, [2 * t]))
    q = qe[1:-1]
    seen = set()
    for _ in range(4 * n + 20):
        ql = q.tolist()
        if tuple(ql) in seen:
            return None
        seen.add(tuple(ql))
        k = q // 2  # the tied item, or the item after the break
        lo = (qe[:-1] + 1) // 2
        W = (P[buyers, np.maximum(qe[1:] // 2, lo)] - P[buyers, lo]).tolist()  # strict items
        found = _pattern_multipliers(ql, W, R[rows, k].tolist(), Vs[rows, k].tolist(), budget, t)
        if found is None:
            return None
        bl, need = found
        left = 0.0  # share of pair i-1's tied item left to buyers <= i-1
        for i in range(n - 1):
            qi = ql[i]
            ki = qi // 2
            if qi % 2:
                rem = need[i] - W[i]
                if i and ql[i - 1] % 2:
                    if ql[i - 1] == qi:
                        rem += Vs[i, ki] * left
                    else:
                        rem -= Vs[i, ql[i - 1] // 2] * (1 - left)
                left = rem / Vs[i, ki]
                step = -1 if left < 0 else int(left > 1)
            elif bl[i] * Vs[i, ki - 1] < bl[i + 1] * Vs[i + 1, ki - 1]:  # 1 <= ki < t
                step = -1
            else:
                step = int(bl[i + 1] * Vs[i + 1, ki] < bl[i] * Vs[i, ki])
            if step:
                # a run of pairs with equal q blocks the move: its far end moves
                while 0 <= i + step <= n - 2 and ql[i + step] == qi:
                    i += step
                new = qi + step
                lo_q = ql[i - 1] if i else 1
                hi_q = ql[i + 1] if i < n - 2 else 2 * t - 1
                # a buyer between two equal q only has items if they tie
                if not (lo_q <= new <= hi_q and (new % 2 or lo_q < new < hi_q)):
                    return None
                q[i] = new
                break
        else:
            return q
    return None


def _pattern_multipliers(q, W, r, v, b, t):
    """(beta, t b / beta) of the ordered pattern q, as lists, or None if
    a multiplier underflows to zero.

    W[i] is buyer i's value of its strict items; r[i] and v[i] are pair
    i's log ratio R and buyer i's value Vs at item q_i // 2.  Ties chain
    the log-multipliers of a component of tied neighbours, log
    beta_{i+1} = log beta_i - r_i, and one scale per component spends its
    budgets on its strict items and on each tied item once (also when
    three or more buyers share it).  Lists, because at small n a numpy
    call costs more than its arithmetic; each float operation is numpy's,
    in numpy's order (cumsum and bincount add left to right), so beta has
    the bits of the array form in tests/oracles.py.
    """
    n = len(b)
    # comp numbers the components; off is each buyer's log-multiplier
    # offset from its component's first buyer, at which cum was base
    comp, cum, base, off = [0], 0.0, [0.0], [0.0]
    for i in range(n - 1):
        cum += -r[i] if q[i] % 2 else 0.0
        if not q[i] % 2:
            base.append(cum)
        comp.append(len(base) - 1)
        off.append(cum - base[-1])
    eo = np.exp(off).tolist()
    # per component: strict items C, tied items D and budgets B
    C, D, B = [0.0] * len(base), [0.0] * len(base), [0.0] * len(base)
    for i in range(n):
        C[comp[i]] += eo[i] * W[i]
        B[comp[i]] += b[i]
    for i in range(n - 1):
        if q[i] % 2 and not (i and q[i - 1] == q[i]):
            D[comp[i]] += eo[i] * v[i]
    try:
        scale = [t * B[c] / (C[c] + D[c]) for c in range(len(base))]
        beta = [eo[i] * scale[comp[i]] for i in range(n)]
        return beta, [t * b[i] / beta[i] for i in range(n)]
    except ZeroDivisionError:
        return None


# ---------------------------------------------------------------------------
# Smoothed dual (softmax) Newton tail
# ---------------------------------------------------------------------------


def _smoothed_value(V, b, beta, mu):
    """Value of the smoothed dual, with the softmax weights E and their
    per-item sums Z that the derivatives reuse.

    exp is exactly 0.0 at arguments <= -746, so only the other entries
    of E are computed; at small mu that skips most of them, and the slow
    underflowing ones.
    """
    bids = beta[:, None] * V
    top = bids.max(axis=0)
    # one buffer holds the bids, then the exponents, then the weights
    E = bids
    E -= top
    E /= mu
    idx = np.flatnonzero(E > -746.0)
    e = np.exp(E.ravel()[idx])
    E.fill(0.0)
    np.put(E, idx, e)
    Z = E.sum(axis=0)
    val = (top + mu * np.log(Z)).mean() - (b * np.log(beta)).sum()
    return val, E, Z


def _smoothed(V, b, beta, mu, value=None):
    """Value, gradient and Hessian of the smoothed dual; value, if given,
    is the _smoothed_value tuple at beta."""
    n, t = V.shape
    val, E, Z = _smoothed_value(V, b, beta, mu) if value is None else value
    sig = E / Z
    SV = sig * V
    g = SV.mean(axis=1) - b / beta
    H = -(SV @ SV.T) / (mu * t)
    H[np.arange(n), np.arange(n)] += (SV * V).sum(axis=1) / (mu * t) + b / beta ** 2
    return val, g, H


def _newton_tail(V, b, beta, tol, cap):
    """Drive the smoothing temperature down, polishing once bids separate."""
    n = len(b)
    for stage, mu in enumerate(SMOOTH_MUS):
        # the accepted line-search probe is the smoothed value at the next beta
        probe = None
        for _ in range(80):
            val, g, H = _smoothed(V, b, beta, mu, probe)
            # freeze coordinates pressed against the cap
            free = ~(_at_cap(beta, cap) & (g < 0))
            d = np.zeros(n)
            if free.any():
                try:
                    d[free] = np.linalg.solve(H[np.ix_(free, free)], -g[free])
                except np.linalg.LinAlgError:
                    d[free] = -g[free]
            if _projected_residual(beta, g, cap).max() < max(mu * 1e-3, 1e-13):
                break
            step = 1.0
            while step > 1e-14:
                cand = np.minimum(beta + step * d, cap)
                if np.all(cand > 0):
                    probe = _smoothed_value(V, b, cand, mu)
                    if probe[0] <= val + 1e-4 * (g @ (cand - beta)):
                        break
                step *= 0.5
            else:
                probe = None
            new = np.minimum(beta + step * d, cap)
            if np.array_equal(new, beta):
                break
            beta = new
        if stage >= POLISH_FROM_STAGE:
            res = _polish(V, b, beta, tol, cap)
            if res is not None:
                return res, beta
    return None, beta


# ---------------------------------------------------------------------------
# Proportional response dynamics
# ---------------------------------------------------------------------------


def _run_pr(V, b, tol, cap):
    """PR with an exact polish every POLISH_EVERY iterations, for at most
    ESCALATE_AFTER iterations.  Returns (result, iterations, beta): the
    first polish that certified, or None and the multipliers of the last
    polish, for the Newton tail to start from."""
    n, t = V.shape
    s = 1.0 / t
    if np.isinf(cap):
        B = np.full((n, t), 1.0) * (b / t)[:, None]
        slack = np.zeros(n)  # linear buyers spend everything: no slack bid
    else:
        # one extra virtual item holds the slack (unspent money) bid
        B = np.full((n, t), 1.0) * (b / (t + 1))[:, None]
        slack = b / (t + 1)
    for k in range(1, ESCALATE_AFTER + 1):
        m = B.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            X = np.where(m > 0, B / m, 0.0) * s
        w = V * X
        u = w.sum(axis=1)
        money = u + slack
        B = b[:, None] * w / money[:, None]
        slack = b * slack / money
        if k % POLISH_EVERY == 0:
            beta = np.minimum(b / (u + slack), cap)
            res = _polish(V, b, beta, tol, cap)
            if res is not None:
                return res, k, beta
    return None, ESCALATE_AFTER, beta


# ---------------------------------------------------------------------------
# Projected subgradient route
# ---------------------------------------------------------------------------


def _subgradient_start(market, cap):
    """Best point of a decaying-step projected subgradient run."""
    V, b = market.V, market.budgets
    n = V.shape[0]
    vbar = V.max(axis=1)
    if np.isinf(cap):
        lo, hi = b / vbar, np.full(n, b.sum() / vbar.min())
    else:
        lo, hi = b / (vbar + b), np.full(n, cap)
    beta = np.clip(b / V.mean(axis=1), lo, hi)
    best, best_val = beta.copy(), _dual(V, b, beta)
    D = float(np.linalg.norm(hi - lo)) or 1.0
    for k in range(1, SUBGRADIENT_ITERS + 1):
        g = dual_subgradient_sample(market, beta)
        norm = np.linalg.norm(g)
        if norm == 0:
            break
        beta = np.clip(beta - (D / np.sqrt(k)) * g / norm, lo, hi)
        val = _dual(V, b, beta)
        if val < best_val:
            best_val, best = val, beta.copy()
    return best


# ---------------------------------------------------------------------------
# Public solvers
# ---------------------------------------------------------------------------


def _best_effort(V, b, beta, cap):
    """(beta, u, X, delta, gap, p) of a point no route certified, its X
    splitting near-tied items evenly; the solve returns it flagged with
    certificate.certified = False."""
    t = V.shape[1]
    bids = beta[:, None] * V
    top = bids.max(axis=0)
    near = bids >= top[None, :] * (1.0 - TIE_LOG_TOL)
    X = near / near.sum(axis=0)[None, :] / t
    u = (V * X).sum(axis=1)
    delta = None if np.isinf(cap) else np.maximum(b - beta * u, 0.0)
    money = u if delta is None else u + delta
    gap = _gap(V, b, beta, u, delta) if np.all(money > 0) else float("inf")
    return beta, u, X, delta, float(gap), top


def _solve(market: FiniteMarket, tol: float, method: str, cap: float) -> FiniteEquilibrium:
    """The one solve body; cap is 1 for quasilinear buyers, inf for linear."""
    V, b = market.V, market.budgets
    if np.any(V.max(axis=1) <= 0):
        raise ValueError("every buyer needs a positive value on some item")
    if method == "pr":
        res, iters, beta0 = _run_pr(V, b, tol, cap)
    elif method == "newton":
        res, iters, beta0 = _ordered_pattern(V, b, tol, cap), 0, None
    elif method == "subgradient":
        res, iters, beta0 = None, SUBGRADIENT_ITERS, _subgradient_start(market, cap)
    else:
        raise ValueError(f"unknown method {method!r}")
    escalated = res is None and method == "pr"
    if res is None:
        if beta0 is None:  # the Newton route's start, needed only here
            beta0 = np.minimum(b / V.mean(axis=1).clip(min=1e-300), cap)
        res, beta = _newton_tail(V, b, beta0, tol, cap)
        if res is None:
            res = _best_effort(V, b, beta, cap)
    beta, u, X, delta, gap, p = res
    money = u if delta is None else u + delta
    nsw = float((b * np.log(money)).sum()) if np.all(money > 0) else float("-inf")
    cert = Certificate(duality_gap=gap, certified=bool(gap <= tol), method=method,
                       iterations=iters, escalated=escalated)
    return FiniteEquilibrium(beta=beta, u=u, p=p, X=X, delta=delta, nsw=nsw,
                             certificate=cert)


def solve_sample_eg(
    market: FiniteMarket,
    tol: float = DEFAULT_TOL,
    method: str = "newton",
) -> FiniteEquilibrium:
    """Compute the equilibrium of a sampled linear market.

    Parameters
    ----------
    market : FiniteMarket
        Values V (n x t) and budgets; each item has supply 1/t.
    tol : float
        Certification threshold on the duality gap.
    method : str
        "newton" (default), "pr" or "subgradient".  "newton" first tries
        the ordered-pattern solve, for V > 0 whose items sort so that
        every buyer wins an interval of them (log-supermodular V, as in
        sampled 1-D linear markets of either kind of buyer), and runs the
        smoothed Newton tail from b / mean(V) where that does not certify.
        "pr" runs the tail from its iterate at ESCALATE_AFTER iterations
        when no polish has certified by then (certificate.escalated), and
        "subgradient" from the best point of its warmup.

    Returns
    -------
    FiniteEquilibrium with multipliers beta, utilities u = b/beta, prices
    p[tau] = max_i beta_i V[i, tau], the allocation X, log Nash welfare,
    delta = None and a duality-gap certificate.  If the route does not
    certify the gap below tol, the Newton tail's last iterate is
    returned with certificate.certified = False.
    """
    return _solve(market, tol, method, cap=np.inf)


def solve_sample_qeg(
    market: FiniteMarket,
    tol: float = DEFAULT_TOL,
    method: str = "newton",
) -> FiniteEquilibrium:
    """Compute the equilibrium of a sampled quasilinear market.

    Buyers may withhold money: multipliers live in (0, 1], leftover
    delta_i = b_i - beta_i u_i satisfies delta_i (1 - beta_i) = 0, and
    seller revenue is the mean price eq.rev.  Parameters and
    non-certified returns are as in solve_sample_eg, the tail starting
    from min(b / mean(V), 1); the ordered-pattern solve mostly leaves
    markets where a buyer reaches the cap to the tail.
    """
    return _solve(market, tol, method, cap=1.0)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KKTReport:
    """Residuals of the equilibrium conditions, all should be ~0.

    clearance:     <p, s - sum_i x_i>, paid-for supply is exhausted
    winner:        max_i <p - beta_i v_i, x_i>, buyers only take items
                   priced at their own bid
    utility:       max_i |u_i - b_i / beta_i|
    feasibility:   largest oversubscription of an item or negative fraction
    budget:        |sum_tau p_tau / t - sum_i b_i|, full budget extraction
    duality_gap:   dual value minus shifted primal value
    comp_slack:    max_i |delta_i (1 - beta_i)|, 0 for linear buyers
    """

    clearance: float
    winner: float
    utility: float
    feasibility: float
    budget: float
    duality_gap: float
    comp_slack: float
    passed: bool
    tol: float


def verify_kkt(market: FiniteMarket, eq: FiniteEquilibrium, tol: float = 1e-7) -> KKTReport:
    V, b = market.V, market.budgets
    s = 1.0 / market.t
    beta, u, p, X = eq.beta, eq.u, eq.p, eq.X
    delta = np.zeros_like(u) if eq.delta is None else eq.delta

    taken = X.sum(axis=0)
    clearance = float(abs((p * (s - taken)).sum()))
    winner = float(max(((p[None, :] - beta[:, None] * V) * X).sum(axis=1).max(), 0.0))
    feasibility = float(max((taken - s).max(), (-X).max(), 0.0))
    utility = float(np.abs(u + delta - b / beta).max())
    budget = float(abs(p.mean() + delta.sum() - b.sum()))
    comp_slack = float(np.abs(delta * (1.0 - beta)).max())
    gap = float(_gap(V, b, beta, u, eq.delta))
    passed = all(r <= tol for r in
                 (clearance, winner, utility, feasibility, budget, comp_slack)) and gap <= tol
    return KKTReport(clearance=clearance, winner=winner, utility=utility,
                     feasibility=feasibility, budget=budget, duality_gap=gap,
                     comp_slack=comp_slack, passed=passed, tol=tol)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def equilibrium_to_dict(eq: FiniteEquilibrium) -> dict:
    """JSON-ready dict; the allocation is written as [item, buyer, fraction]
    triples of its positive entries in item-major order."""
    items, buyers = np.nonzero(eq.X.T > 0)
    out = {
        "beta": eq.beta.tolist(),
        "u": eq.u.tolist(),
        "p": eq.p.tolist(),
        "x": [list(triple) for triple in zip(items.tolist(), buyers.tolist(),
                                             eq.X[buyers, items].tolist())],
        "certificate": asdict(eq.certificate),
    }
    if eq.delta is None:
        out["nsw"] = eq.nsw
    else:
        out["delta"] = eq.delta.tolist()
        out["rev"] = eq.rev
    return out


def save_equilibrium(eq: FiniteEquilibrium, path: str) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(equilibrium_to_dict(eq), fh, indent=2)
        fh.write("\n")


__all__ = [
    "DEFAULT_TOL",
    "Certificate",
    "FiniteEquilibrium",
    "solve_sample_eg",
    "solve_sample_qeg",
    "KKTReport",
    "verify_kkt",
    "equilibrium_to_dict",
    "save_equilibrium",
]
