"""Independent oracles used by the test suite.

Nothing here is imported by the package; tests compare solver output
against these slower, more literal computations.
"""

from collections import defaultdict

import numpy as np

from fisher_infer.finite import _gap
from fisher_infer.inference import default_eta
from fisher_infer.markets import FiniteMarket, dual_value_sample


def grid_minimize(fun, lo, hi, step=1e-4, pts=81):
    """Locate the minimizer of a convex function on a box by refined grids.

    Evaluates fun on a pts-per-axis grid, then re-grids a window of a few
    cells around the incumbent argmin and repeats until the spacing is
    below `step`; the final pass runs on a grid of exactly step-spaced
    points.  For a convex objective the argmin cannot escape the kept
    window: whenever the incumbent sits on a window edge that is not a
    box edge, the window is widened instead of shrunk.

    fun maps a (m, d) array of points to m values.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = len(lo)
    wlo, whi = lo.copy(), hi.copy()
    while True:
        axes = [np.linspace(wlo[j], whi[j], pts) for j in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=1)
        vals = fun(points)
        flat = int(np.argmin(vals))
        idx = np.unravel_index(flat, (pts,) * d)
        best = np.array([axes[j][idx[j]] for j in range(d)])
        spacing = float(max((whi - wlo) / (pts - 1)))

        on_inner_edge = any(
            (idx[j] in (0, pts - 1))
            and not np.isclose(best[j], lo[j])
            and not np.isclose(best[j], hi[j])
            for j in range(d)
        )
        if on_inner_edge:
            half = (whi - wlo)  # double the window around the incumbent
            wlo = np.maximum(best - half, lo)
            whi = np.minimum(best + half, hi)
            continue
        if spacing <= step:
            return best, float(vals[flat])
        # keep 4 cells of margin on each side of the incumbent
        margin = 4.0 * spacing
        wlo = np.maximum(best - margin, lo)
        whi = np.minimum(best + margin, hi)


def grid_min_linear(market: FiniteMarket, step=1e-4):
    """Grid minimizer of the sampled linear dual over the box C."""
    b = market.budgets

    def fun(points):
        bids = points[:, :, None] * market.V[None, :, :]
        return bids.max(axis=1).mean(axis=1) - np.log(points) @ b

    return grid_minimize(fun, lo=b / 2.0, hi=np.full(market.n, 2.0), step=step)


def grid_min_qlin(market: FiniteMarket, step=1e-4):
    """Grid minimizer of the sampled dual over (0, 1]^n for quasilinear buyers."""
    b = market.budgets
    vbar = market.V.mean(axis=1)
    lo = b / (vbar + b) / 2.0  # half the proven lower bound, for slack

    def fun(points):
        bids = points[:, :, None] * market.V[None, :, :]
        return bids.max(axis=1).mean(axis=1) - np.log(points) @ b

    return grid_minimize(fun, lo=lo, hi=np.ones(market.n), step=step)


def grid_min_longrun(spec, step=1e-6, box=None):
    """Grid minimizer of the population dual for a 1-d linear spec."""
    from fisher_infer.longrun import dual_value_pop

    b = spec.budgets
    if box is None:
        lo, hi = b / 2.0, np.full(spec.n, 2.0)
    else:
        lo, hi = box

    def fun(points):
        return np.array([dual_value_pop(spec, p) for p in points])

    return grid_minimize(fun, lo=lo, hi=hi, step=step, pts=41)


def descent_longrun(spec, cap, beta0, tol=1e-10, max_iter=500):
    """Minimize the population dual over (0, cap]^n by damped dual Newton
    steps from beta0 (capped): the loop the long-run solve ran before it
    solved the capped ordered partition directly.

    Each step takes the Newton direction on the buyers not optimal at the
    cap when the analytic Hessian exists, else steepest descent, and
    backtracks on the dual value.  Returns (beta, projected gradient
    norm); it can stall above tol where three lines meet.
    """
    from fisher_infer.longrun import (_projected_residual, dual_grad_pop, dual_value_pop,
                                      hessian_longrun_linear)

    beta = np.minimum(np.asarray(beta0, dtype=float), cap)
    g = dual_grad_pop(spec, beta)
    for _ in range(max_iter):
        if _projected_residual(beta, g, cap).max() <= tol:
            break
        frozen = (beta >= cap - 1e-12) & (g < 0)
        gf = np.where(frozen, 0.0, g)
        try:
            H = hessian_longrun_linear(spec, beta)
            free = ~frozen
            step = np.zeros_like(beta)
            step[free] = np.linalg.solve(H[np.ix_(free, free)], -gf[free])
        except (ValueError, np.linalg.LinAlgError):
            step = -gf
        val = dual_value_pop(spec, beta)
        s = 1.0
        new = beta
        while s > 1e-16:
            cand = np.minimum(beta + s * step, cap)
            if np.all(cand > 0) and dual_value_pop(spec, cand) <= val + 1e-4 * (gf @ (cand - beta)):
                new = cand
                break
            s *= 0.5
        if np.array_equal(new, beta):
            break
        beta = new
        g = dual_grad_pop(spec, beta)
    return beta, float(_projected_residual(beta, g, cap).max())


def random_linear1d_draw(n, seed):
    """(c, b) of markets.random_linear1d_spec drawn row by row: redraw all n
    slopes until their sorted gaps exceed 1e-3, then draw the budgets."""
    gen = np.random.Generator(np.random.Philox(key=seed ^ 0x5EED))
    while True:
        c = np.sort(gen.uniform(-1.8, 1.8, size=n))
        if n == 1 or np.diff(c).min() > 1e-3:
            break
    b = gen.uniform(0.5, 1.5, size=n)
    return c, b / b.sum()


def pattern_multipliers(q, W, r, v, mk, b, t):
    """finite._pattern_multipliers in array form: (beta, t b / beta) of
    the ordered pattern q, by cumsum and bincount."""
    q, W, r, v, mk, b = (np.asarray(x) for x in (q, W, r, v, mk, b))
    tie = q % 2 == 1
    comp = np.concatenate(([0], np.cumsum(~tie)))
    off = np.concatenate(([0.0], np.cumsum(np.where(tie, -r, 0.0))))
    off -= off[np.flatnonzero(np.concatenate(([True], ~tie)))][comp]
    eo = np.exp(off)
    C = np.bincount(comp, eo * W)
    # each tied block once, also when three or more buyers share it
    once = tie & ~np.concatenate(([False], tie[:-1] & (q[1:] == q[:-1])))
    C += np.bincount(comp[:-1][once], (eo[:-1] * v * mk)[once], len(C))
    beta = eo * (t * np.bincount(comp, b) / C)[comp]
    return beta, t * b / beta


def mc_quadrature(fun, n_samples, seed):
    """Monte Carlo mean and stderr of fun(theta) for theta ~ U[0, 1]."""
    gen = np.random.default_rng(seed)
    vals = fun(gen.random(n_samples))
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_samples))


def hessian_numdiff_dense(market: FiniteMarket, beta_hat, eta=None):
    """Four-point stencil Hessian of the sampled dual, one full dual
    evaluation per stencil point: the reference for inference.hessian_numdiff."""
    beta_hat = np.asarray(beta_hat, dtype=float)
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

    def F(beta):
        return dual_value_sample(market, beta)

    H = np.zeros((n, n))
    I = np.eye(n)
    for i in range(n):
        for j in range(i, n):
            H[i, j] = (F(beta_hat + eta * (I[i] + I[j]))
                       - F(beta_hat + eta * (-I[i] + I[j]))
                       - F(beta_hat + eta * (I[i] - I[j]))
                       + F(beta_hat - eta * (I[i] + I[j]))) / (4.0 * eta * eta)
            H[j, i] = H[i, j]
    H = 0.5 * (H + H.T)
    return H


def smoothed_value_dense(V, b, beta, mu):
    """Value of the smoothed dual, with the softmax weights E and their
    per-item sums Z, from exp of every bid: the reference for
    finite._smoothed_value."""
    bids = beta[:, None] * V
    top = bids.max(axis=0)
    E = np.exp((bids - top[None, :]) / mu)
    Z = E.sum(axis=0)
    val = (top + mu * np.log(Z)).mean() - (b * np.log(beta)).sum()
    return val, E, Z


def smoothed_dense(V, b, beta, mu):
    """Value, gradient and Hessian of the smoothed dual from the dense
    weights: the reference for finite._smoothed."""
    n, t = V.shape
    val, E, Z = smoothed_value_dense(V, b, beta, mu)
    sig = E / Z
    SV = sig * V
    g = SV.mean(axis=1) - b / beta
    H = -(SV @ SV.T) / (mu * t)
    H[np.arange(n), np.arange(n)] += (SV * V).sum(axis=1) / (mu * t) + b / beta ** 2
    return val, g, H


# The exact-pattern polish as first written, with per-item loops and dicts:
# the reference for finite._polish and its helpers.


def _candidate_rtols(V, beta, cap=12):
    """Tie thresholds to try, placed in the largest log-gaps of bid margins.

    Margins of truly tied items shrink as beta approaches the optimum
    while strict margins stabilize, so some multiplicative gap in the
    sorted margin sequence separates them; we probe all big gaps.
    """
    bids = beta[:, None] * V
    top = bids.max(axis=0)
    rel = (top[None, :] - bids) / np.where(top > 0, top, 1.0)[None, :]
    rel = rel[:, top > 0]
    vals = np.unique(rel[(rel > 1e-15) & (rel < 0.05)])
    if len(vals) == 0:
        return [1e-9]
    if len(vals) == 1:
        return [float(vals[0]) * 0.5, float(vals[0]) * 2.0]
    logs = np.log(vals)
    order = np.argsort(-np.diff(logs))[:cap]
    cands = [float(np.exp(0.5 * (logs[g] + logs[g + 1]))) for g in order]
    cands.append(float(vals[0]) * 0.5)
    cands.append(float(vals[-1]) * 2.0)
    return cands


def _tie_forest(V, winmask, tied_items):
    """Offsets of log-multipliers along the tie forest.

    Returns (comp, off, ok): component id and log offset per buyer.
    Tied item tau with winner set W forces log beta_i - log beta_j =
    log V[j,tau] - log V[i,tau] for i, j in W; edges beyond a spanning
    forest must be consistent with the tree offsets or the pattern is
    rejected.
    """
    n = V.shape[0]
    parent = np.arange(n)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    edges = []
    for tau in tied_items:
        wins = np.flatnonzero(winmask[:, tau])
        i0 = wins[0]
        for i in wins[1:]:
            if V[i, tau] <= 0 or V[i0, tau] <= 0:
                return None, None, False
            edges.append((int(i), int(i0), float(np.log(V[i0, tau]) - np.log(V[i, tau]))))
    adj = defaultdict(list)
    extra = []
    for i, j, r in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            adj[i].append((j, r))
            adj[j].append((i, -r))
        else:
            extra.append((i, j, r))
    comp = np.full(n, -1)
    off = np.zeros(n)
    ncomp = 0
    for i in range(n):
        if comp[i] >= 0:
            continue
        comp[i] = ncomp
        off[i] = 0.0
        stack = [i]
        while stack:
            a = stack.pop()
            for v, r in adj[a]:
                if comp[v] < 0:
                    comp[v] = ncomp
                    # stored relation is z_a - z_v = r
                    off[v] = off[a] - r
                    stack.append(v)
        ncomp += 1
    for i, j, r in extra:
        if abs((off[i] - off[j]) - r) > 1e-9:
            return None, None, False
    return comp, off, True


def _split_tied_supply(V, winmask, tied_items, targets, s, capped):
    """Solve for tied-item fractions so each buyer hits its utility target.

    targets[i] is the utility buyer i still needs from tied items; rows
    of buyers at the cap (their slack absorbs the residual) are
    dropped.  Returns the fraction assignment or None if the linear
    system is inconsistent or leaves the per-item simplex.
    """
    n = V.shape[0]
    cols = []
    for tau in tied_items:
        wins = np.flatnonzero(winmask[:, tau])
        for i in wins[1:]:
            cols.append((int(i), int(tau), int(wins[0])))
    d = targets.copy()
    for tau in tied_items:
        i0 = int(winmask[:, tau].argmax())
        d[i0] -= V[i0, tau] * s
    A = np.zeros((n, len(cols)))
    for k, (i, tau, i0) in enumerate(cols):
        A[i, k] = V[i, tau]
        A[i0, k] = -V[i0, tau]
    keep = ~capped
    sol, *_ = np.linalg.lstsq(A[keep], d[keep], rcond=None)
    # with every buyer at the cap no utility row is left to check
    if keep.any() and sol.size and np.abs(A[keep] @ sol - d[keep]).max() > 1e-9:
        return None
    frac = None
    if not (np.any(sol < -1e-9) or np.any(sol > s * (1 + 1e-6))):
        frac = {}
        taken = defaultdict(float)
        for k, (i, tau, i0) in enumerate(cols):
            val = float(np.clip(sol[k], 0.0, s))
            frac[(i, tau)] = val
            taken[tau] += val
        for tau in tied_items:
            i0 = int(winmask[:, tau].argmax())
            rest = s - taken[int(tau)]
            if rest < -1e-9:
                frac = None
                break
            frac[(i0, int(tau))] = max(rest, 0.0)
    if frac is None:
        frac = _split_by_pair(V, cols, winmask, tied_items, d, s, keep)
    return frac


def _split_by_pair(V, cols, winmask, tied_items, d, s, keep):
    """The fallback of _split_tied_supply: one unknown per buyer pair, in
    units of its first edge's item, spread over the pair's items in edge
    order, each up to the supply the other edges leave."""
    pairs = {}
    for k, (i, tau, i0) in enumerate(cols):
        pairs.setdefault((i, i0), []).append(k)
    if len(pairs) == len(cols):
        return None
    A = np.zeros((V.shape[0], len(pairs)))
    for c, ((i, i0), ks) in enumerate(pairs.items()):
        tau = cols[ks[0]][1]
        A[i, c] = V[i, tau]
        A[i0, c] = -V[i0, tau]
    sol, *_ = np.linalg.lstsq(A[keep], d[keep], rcond=None)
    if keep.any() and sol.size and np.abs(A[keep] @ sol - d[keep]).max() > 1e-9:
        return None
    frac = {}
    taken = defaultdict(float)
    need = {}
    for c, ((i, i0), ks) in enumerate(pairs.items()):
        first = V[i, cols[ks[0]][1]]
        total = 0.0
        for k in ks:
            total += V[i, cols[k][1]]
        if sol[c] < -1e-9 or sol[c] > s * (total / first) * (1 + 1e-6):
            return None
        if len(ks) == 1:
            frac[(i, cols[ks[0]][1])] = float(np.clip(sol[c], 0.0, s))
            taken[cols[ks[0]][1]] += frac[(i, cols[ks[0]][1])]
        else:
            need[(i, i0)] = max(sol[c], 0.0) * first
    for i, tau, i0 in cols:
        if (i, i0) in need:
            val = min(max(s - taken[tau], 0.0), need[(i, i0)] / V[i, tau])
            frac[(i, tau)] = val
            taken[tau] += val
            need[(i, i0)] -= val * V[i, tau]
    if any(left > 1e-9 for left in need.values()):
        return None
    for tau in tied_items:
        i0 = int(winmask[:, tau].argmax())
        rest = s - taken[int(tau)]
        if rest < -1e-9:
            return None
        frac[(i0, int(tau))] = max(rest, 0.0)
    return frac


def _attempt_pattern(V, b, beta, tie_rtol, tol, cap):
    """Try to read off the exact equilibrium from the tie pattern at beta."""
    n, t = V.shape
    s = 1.0 / t
    bids = beta[:, None] * V
    top = bids.max(axis=0)
    live = top > 0
    winmask = (bids >= top[None, :] * (1.0 - tie_rtol)) & live[None, :]
    nwin = winmask.sum(axis=0)
    tied_items = np.flatnonzero((nwin > 1) & live)
    strict_items = np.flatnonzero((nwin == 1) & live)

    comp, off, ok = _tie_forest(V, winmask, tied_items)
    if not ok:
        return None
    ncomp = int(comp.max()) + 1

    winner = np.argmax(np.where(winmask, bids, -np.inf), axis=0)
    wload = np.zeros(n)
    np.add.at(wload, winner[strict_items], V[winner[strict_items], strict_items] * s)

    # on the tie manifold the max-of-bids part is linear in exp(y_c):
    # sum over items won by component c of V_w * exp(off_w) * exp(y_c) / t
    C = np.zeros(ncomp)
    np.add.at(C, comp[winner[strict_items]],
              V[winner[strict_items], strict_items] * np.exp(off[winner[strict_items]]) * s)
    if len(tied_items):
        rep = winmask[:, tied_items].argmax(axis=0)
        np.add.at(C, comp[rep], V[rep, tied_items] * np.exp(off[rep]) * s)
    Bc = np.zeros(ncomp)
    np.add.at(Bc, comp, b)
    if np.isinf(cap) and np.any(C <= 0):
        return None

    # cap: beta_i = exp(off_i + y_c) <= cap for all i in the component;
    # a component that wins nothing sits at the cap
    ybar = np.full(ncomp, np.inf)
    np.minimum.at(ybar, comp, np.log(cap) - off)
    y = ybar.copy()
    won = C > 0
    y[won] = np.minimum(np.log(Bc[won] / C[won]), ybar[won])
    beta_new = np.minimum(np.exp(off + y[comp]), cap)

    # the pattern must still hold at the refit multipliers
    bids2 = beta_new[:, None] * V
    top2 = bids2.max(axis=0)
    if np.any(bids2[winner[strict_items], strict_items]
              < top2[strict_items] * (1.0 - 1e-12)):
        return None

    capped = beta_new >= cap - 1e-12
    targets = b / beta_new - wload
    if len(tied_items):
        frac = _split_tied_supply(V, winmask, tied_items, targets, s, capped)
        if frac is None:
            return None
    else:
        frac = {}

    X = np.zeros((n, t))
    X[winner[strict_items], strict_items] = s
    for (i, tau), val in frac.items():
        X[i, tau] = val
    u = (V * X).sum(axis=1)

    if np.isinf(cap):
        if np.any(u <= 0):
            return None
        delta = None
    else:
        # leftover money only where the cap binds
        delta = b - beta_new * u
        if len(tied_items) and np.any(delta[capped] < -1e-10):
            # split again with every row kept: each capped buyer pays the
            # money its component has left on tied items, in proportion to
            # its room b - beta wload
            room = b - beta_new * wload
            tied_money, paid, croom = np.zeros(ncomp), np.zeros(ncomp), np.zeros(ncomp)
            for k, tau in enumerate(tied_items):
                tied_money[comp[rep[k]]] += top2[tau] * s
            for i in range(n):
                if capped[i]:
                    croom[comp[i]] += room[i]
                else:
                    paid[comp[i]] += room[i]
            for i in np.flatnonzero(capped):
                c = comp[i]
                share = (tied_money[c] - paid[c]) / croom[c] if croom[c] > 0 else 0.0
                targets[i] = room[i] * share / beta_new[i]
            frac = _split_tied_supply(V, winmask, tied_items, targets, s, np.zeros(n, dtype=bool))
            if frac is None:
                return None
            for (i, tau), val in frac.items():
                X[i, tau] = val
            u = (V * X).sum(axis=1)
            delta = b - beta_new * u
        if np.any(delta < -1e-10) or np.any(delta[~capped] > 1e-9):
            return None
        delta = np.maximum(delta, 0.0)
    gap = _gap(V, b, beta_new, u, delta)
    if not gap <= tol:
        return None
    return beta_new, u, X, delta, float(gap)


def _polish(V, b, beta, tol, cap):
    for rtol in _candidate_rtols(V, beta):
        res = _attempt_pattern(V, b, beta, rtol, tol, cap)
        if res is not None:
            return res
    return None
