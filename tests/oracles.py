"""Independent oracles used by the test suite.

Nothing here is imported by the package; tests compare solver output
against these slower, more literal computations.
"""

import numpy as np

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
