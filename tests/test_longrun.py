"""Long-run equilibria: envelope geometry, exact solve, asymptotic variances."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from fisher_infer import longrun
from fisher_infer.longrun import (
    asymptotic_pack,
    dual_grad_pop,
    dual_value_pop,
    hessian_longrun_linear,
    omega2,
    sigma2_nsw,
    sigma_beta_u,
    solve_longrun_eg,
    solve_longrun_qeg,
    upper_envelope,
)
from fisher_infer.markets import (
    Linear1DValuation,
    LongRunSpec,
    random_linear1d_spec,
)

from oracles import descent_longrun, grid_min_longrun

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _spec(c, d, b):
    return LongRunSpec(budgets=np.asarray(b, dtype=float),
                       valuation=Linear1DValuation(c=np.asarray(c, dtype=float),
                                                   d=np.asarray(d, dtype=float)))


def _single_spec():
    return _spec([0.0], [1.0], [1.0])


def _price(eq, theta):
    """The equilibrium price max_i beta*_i v_i(theta) at each theta."""
    return (eq.beta_star[:, None] * eq.spec.valuation.values_at(theta)).max(axis=0)


# ---------------------------------------------------------------------------
# Upper envelope
# ---------------------------------------------------------------------------


def test_envelope_symmetric_crossing():
    env = upper_envelope(np.array([-2.0, 2.0]), np.array([2.0, 0.0]))
    assert np.allclose(env.breakpoints, [0.0, 0.5, 1.0])
    assert np.array_equal(env.winners, [0, 1])


def test_envelope_single_line():
    env = upper_envelope(np.array([3.0]), np.array([0.5]))
    assert np.allclose(env.breakpoints, [0.0, 1.0])
    assert np.array_equal(env.winners, [0])


def test_envelope_scaled_crossing():
    # beta = (1, 2): 2 - 2 theta meets 4 theta at theta = 1/3
    env = upper_envelope(np.array([-2.0, 4.0]), np.array([2.0, 0.0]))
    assert np.allclose(env.breakpoints, [0.0, 1.0 / 3.0, 1.0])
    assert np.array_equal(env.winners, [0, 1])


def test_envelope_parallel_identical_lines_dedup():
    env = upper_envelope(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    assert np.array_equal(env.winners, [0])  # lowest index wins the tie


def test_envelope_dominated_line_never_wins():
    env = upper_envelope(np.array([0.0, 0.0]), np.array([2.0, 1.0]))
    assert np.array_equal(env.winners, [0])
    assert np.allclose(env.breakpoints, [0.0, 1.0])


@given(seed=seeds)
@settings(max_examples=30, deadline=None)
def test_envelope_matches_pointwise_max(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(1, 8))
    slopes = gen.uniform(-3.0, 3.0, n)
    intercepts = gen.uniform(0.0, 3.0, n)
    env = upper_envelope(slopes, intercepts)
    theta = gen.random(10_000)
    direct = (slopes[:, None] * theta[None, :] + intercepts[:, None]).max(axis=0)
    k = np.searchsorted(env.breakpoints, theta, side="right") - 1
    assert np.abs(env.slopes[k] * theta + env.intercepts[k] - direct).max() < 1e-12
    assert np.all(np.diff(env.breakpoints) > 0)


# ---------------------------------------------------------------------------
# Population dual and gradient
# ---------------------------------------------------------------------------


def test_dual_value_symmetric_at_optimum(symmetric_spec):
    beta = np.array([2.0, 2.0]) / 3.0
    val = dual_value_pop(symmetric_spec, beta)
    assert val == pytest.approx(1.0 + math.log(1.5), abs=1e-12)
    assert np.allclose(dual_grad_pop(symmetric_spec, beta), [0.0, 0.0], atol=1e-12)


def test_dual_value_single_buyer():
    spec = _single_spec()
    assert dual_value_pop(spec, np.array([2.0])) == pytest.approx(
        2.0 - math.log(2.0), abs=1e-14)
    assert dual_grad_pop(spec, np.array([2.0]))[0] == pytest.approx(0.5, abs=1e-14)


def _positive_length_tie(spec, beta):
    """Whether two scaled lines coincide, so that they tie on a segment."""
    val = spec.valuation
    return len(np.unique(np.stack([beta * val.c, beta * val.d], axis=1), axis=0)) < spec.n


def test_dual_grad_flags_positive_length_tie():
    # beta = (1, 2) makes the scaled lines 2-2t and 2(1-t) coincide
    spec = _spec([-2.0, -1.0], [2.0, 1.0], [0.5, 0.5])
    beta = np.array([1.0, 2.0])
    assert _positive_length_tie(spec, beta)
    assert not _positive_length_tie(spec, np.array([1.0, 1.5]))
    assert np.allclose(dual_grad_pop(spec, beta), [0.5, -0.25])  # lowest-index subgradient


def test_dual_rejects_nonpositive_beta(symmetric_spec):
    with pytest.raises(ValueError):
        dual_value_pop(symmetric_spec, np.array([1.0, 0.0]))


@given(seed=seeds)
@settings(max_examples=30, deadline=None)
def test_grad_matches_finite_differences(seed):
    gen = np.random.default_rng(seed)
    spec = random_linear1d_spec(int(gen.integers(1, 6)), seed=int(gen.integers(0, 50)))
    beta = gen.uniform(0.3, 1.8, spec.n)
    if _positive_length_tie(spec, beta):
        return
    g = dual_grad_pop(spec, beta)
    h = 1e-5
    for i in range(spec.n):
        e = np.zeros(spec.n)
        e[i] = h
        fd = (dual_value_pop(spec, beta + e) - dual_value_pop(spec, beta - e)) / (2 * h)
        assert abs(fd - g[i]) <= 1e-6


# ---------------------------------------------------------------------------
# Long-run solve
# ---------------------------------------------------------------------------


def test_solve_symmetric_frozen_values(symmetric_spec):
    eq = solve_longrun_eg(symmetric_spec)
    assert np.allclose(eq.beta_star, [2 / 3, 2 / 3], atol=1e-10)
    assert np.allclose(eq.breakpoints, [0.0, 0.5, 1.0], atol=1e-10)
    assert np.allclose(eq.u_star, [0.75, 0.75], atol=1e-10)
    assert eq.nsw_star == pytest.approx(math.log(0.75), abs=1e-10)
    assert eq.rev == pytest.approx(1.0, abs=1e-10)
    assert eq.grad_norm <= 1e-10


def test_solve_single_buyer():
    eq = solve_longrun_eg(_single_spec())
    assert eq.beta_star[0] == pytest.approx(1.0, abs=1e-12)
    assert eq.nsw_star == pytest.approx(0.0, abs=1e-12)
    assert _price(eq, [0.3])[0] == pytest.approx(1.0, abs=1e-12)


def test_solve_skewed_budgets_matches_grid(symmetric_spec):
    spec = _spec([-2.0, 2.0], [2.0, 0.0], [0.75, 0.25])
    eq = solve_longrun_eg(spec)
    best, _ = grid_min_longrun(spec, step=1e-6)
    assert np.abs(eq.beta_star - best).max() < 1e-5


def test_solve_invariants_on_generated_specs():
    for seed in (0, 1, 2, 3):
        spec = random_linear1d_spec(4, seed=seed)
        eq = solve_longrun_eg(spec)
        b = spec.budgets
        assert np.abs(eq.u_star - b / eq.beta_star).max() < 1e-10
        assert eq.rev == pytest.approx(1.0, abs=1e-10)  # full extraction
        assert np.all(eq.beta_star >= b - 1e-10)
        assert np.all(eq.beta_star <= 1.0 + 1e-10)
        assert np.array_equal(eq.winners, np.arange(spec.n))


def test_restart_uniqueness(five_buyer_spec):
    # the descent oracle reaches the solve's beta from random starts
    tol = 1e-10
    gen = np.random.default_rng(0)
    base = solve_longrun_eg(five_buyer_spec, tol=tol)
    lo = five_buyer_spec.budgets / 2.0
    for _ in range(10):
        beta, grad_norm = descent_longrun(five_buyer_spec, np.inf, gen.uniform(lo, 2.0), tol)
        assert grad_norm <= tol
        assert np.abs(beta - base.beta_star).max() <= 10 * tol


def test_strong_duality_population(five_buyer_spec):
    tol = 1e-10
    eq = solve_longrun_eg(five_buyer_spec, tol=tol)
    b = five_buyer_spec.budgets
    gap = abs(eq.nsw_star - dual_value_pop(five_buyer_spec, eq.beta_star)
              - (b * (np.log(b) - 1.0)).sum())
    assert gap <= 10 * tol


def test_solve_rejects_bad_specs(symmetric_spec):
    increasing = _spec([2.0, -2.0], [0.0, 2.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        solve_longrun_eg(increasing)
    unnormalized = _spec([-2.0, 2.0], [2.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        solve_longrun_eg(unnormalized)


# ---------------------------------------------------------------------------
# Quasilinear long-run solve
# ---------------------------------------------------------------------------


def test_qeg_single_buyer_boundary():
    spec = _spec([0.0], [1.0], [2.0])
    eq = solve_longrun_qeg(spec)
    assert eq.beta_star[0] == pytest.approx(1.0, abs=1e-12)
    assert eq.rev == pytest.approx(1.0, abs=1e-12)
    assert eq.delta[0] == pytest.approx(1.0, abs=1e-10)


def test_qeg_single_buyer_interior():
    spec = _spec([0.0], [1.0], [0.5])
    eq = solve_longrun_qeg(spec)
    assert eq.beta_star[0] == pytest.approx(0.5, abs=1e-10)
    assert eq.rev == pytest.approx(0.5, abs=1e-10)
    assert eq.delta[0] == pytest.approx(0.0, abs=1e-10)


def test_qeg_symmetric_boundary():
    spec = _spec([-2.0, 2.0], [2.0, 0.0], [2.0, 2.0])
    eq = solve_longrun_qeg(spec)
    assert np.allclose(eq.beta_star, [1.0, 1.0], atol=1e-12)
    assert eq.rev == pytest.approx(1.5, abs=1e-12)
    assert np.allclose(eq.delta, [1.25, 1.25], atol=1e-10)
    # complementary slackness holds trivially at the cap
    assert np.abs(eq.delta * (1.0 - eq.beta_star)).max() <= 1e-10


def test_qeg_matches_projected_grid_search():
    spec = _spec([-2.0, 2.0], [2.0, 0.0], [0.8, 0.6])
    eq = solve_longrun_qeg(spec)
    b = spec.budgets
    lo = b / (1.0 + b) / 2.0
    best, _ = grid_min_longrun(spec, step=1e-4, box=(lo, np.ones(2)))
    assert np.abs(eq.beta_star - best).max() < 2e-4
    assert np.abs(eq.delta * (1.0 - eq.beta_star)).max() <= 1e-8


def test_qeg_restarts_agree():
    # the descent oracle reaches the solve's beta from random starts
    spec = _spec([-2.0, 2.0], [2.0, 0.0], [0.8, 0.6])
    tol = 1e-10
    base = solve_longrun_qeg(spec, tol=tol)
    gen = np.random.default_rng(1)
    for _ in range(5):
        beta, grad_norm = descent_longrun(spec, 1.0, gen.uniform(0.1, 1.0, 2), tol)
        assert grad_norm <= tol
        assert np.abs(beta - base.beta_star).max() <= 10 * tol


@given(n=st.integers(1, 8), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_eg_and_qeg_agree_bit_for_bit_below_the_cap(n, seed):
    # both solvers run one body; with every multiplier below the cap they
    # solve the same problem by the same steps
    spec = random_linear1d_spec(n, seed)
    try:
        eg = solve_longrun_eg(spec)
    except RuntimeError:
        with pytest.raises(RuntimeError):
            solve_longrun_qeg(spec)
        return
    qeg = solve_longrun_qeg(spec)
    assume(np.all(qeg.beta_star < 1.0))
    assert np.array_equal(qeg.beta_star, eg.beta_star)
    assert np.array_equal(qeg.u_star, eg.u_star)
    assert (qeg.nsw_star, qeg.rev, qeg.grad_norm) == (eg.nsw_star, eg.rev, eg.grad_norm)


# ---------------------------------------------------------------------------
# The capped ordered partition
# ---------------------------------------------------------------------------


def _mean_start(spec):
    return spec.budgets / spec.valuation.means()


def _scaled(spec, mult):
    return LongRunSpec(budgets=mult * spec.budgets, valuation=spec.valuation)


def _agrees_with_oracle(eq, spec, cap):
    """Where the descent oracle certifies from b / mean(v), it finds the
    solve's beta."""
    beta, grad_norm = descent_longrun(spec, cap, _mean_start(spec))
    if grad_norm <= 1e-10:
        assert np.abs(eq.beta_star - beta).max() <= 1e-8 * np.abs(beta).max()


@given(n=st.integers(1, 60), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_partition_start_agrees_with_the_mean_start(n, seed):
    # the oracle from b / mean(v) is slow and stalls on a few specs (e.g.
    # (54, 1873025504) stops at 1.5e-9); compare where it certifies
    spec = random_linear1d_spec(n, seed)
    eq = solve_longrun_eg(spec)
    assert eq.grad_norm <= 1e-10
    _agrees_with_oracle(eq, spec, np.inf)


@pytest.mark.parametrize("n,seed", [(100, s) for s in range(10)] + [(7, 8)])
def test_specs_that_stalled_from_the_mean_start_certify(n, seed):
    eq = solve_longrun_eg(random_linear1d_spec(n, seed))
    assert eq.grad_norm <= 1e-10
    assert np.array_equal(eq.winners, np.arange(n))


@pytest.mark.parametrize("n", [120, 180, 200, 220])
def test_large_specs_certify(n):
    # some of these leave the ordered partition with |g| up to 2e-10,
    # the rounding of its breakpoints; the Newton polish certifies them
    for seed in range(10):
        eq = solve_longrun_eg(random_linear1d_spec(n, seed))
        assert eq.grad_norm <= 1e-10
        assert np.array_equal(eq.winners, np.arange(n))


def test_partition_start_needs_few_envelopes(monkeypatch):
    # from b / mean(v) this solve built 3,615 envelopes
    calls = []

    def counted(*args):
        calls.append(None)
        return upper_envelope(*args)

    monkeypatch.setattr(longrun, "upper_envelope", counted)
    solve_longrun_eg(random_linear1d_spec(50, 0))
    assert len(calls) <= 20


def _lbfgsb_min(spec):
    """scipy's L-BFGS-B minimum of the dual over (0, 1]^n, away from 0 by
    half the bound b / (1 + b) that the minimizer obeys."""
    b = spec.budgets
    res = optimize.minimize(lambda x: dual_value_pop(spec, x), np.minimum(b, 1.0),
                            jac=lambda x: dual_grad_pop(spec, x), method="L-BFGS-B",
                            bounds=list(zip(b / (1.0 + b) / 2.0, np.ones(spec.n))),
                            options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 20_000})
    return res.x, res.fun


def _assert_capped_block(eq):
    """In (slope, index) order the capped buyers are one block; only its
    ends win anything, the left end up to theta = 1/2 and the right end
    from it.  A line identical to the one before it is no end, but it
    shares that end's winnings (which the end's index wins).  Where
    three or more lines meet at (1/2, 1) the envelope can keep a segment
    of rounding width (1.06e-14 for spec (50, 5) x1.5) for an inner
    buyer, so inner winnings count up to 1e-12."""
    val = eq.spec.valuation
    order = np.argsort(val.c, kind="stable")
    capped = np.flatnonzero(eq.beta_star[order] >= 1.0 - 1e-12)
    if not capped.size:
        return
    assert np.array_equal(capped, np.arange(capped[0], capped[-1] + 1))
    block = order[capped]
    lines = np.stack([val.c, val.d], axis=1)
    new_line = np.any(lines[block[1:]] != lines[block[:-1]], axis=1)
    ends = block[np.concatenate(([True], new_line))][[0, -1]]
    of_an_end = (lines[block][:, None] == lines[ends][None]).all(axis=2).any(axis=1)
    assert np.all(eq.u_star[block[~of_an_end]] <= 1e-12)
    won = {int(w): (eq.breakpoints[k], eq.breakpoints[k + 1]) for k, w in enumerate(eq.winners)}
    (lo, mid_l), (mid_r, hi) = won[int(ends[0])], won[int(ends[1])]
    if ends[0] == ends[1]:
        assert lo < 0.5 < hi
    else:
        assert lo < 0.5 < hi
        assert abs(mid_l - 0.5) <= 1e-12 and abs(mid_r - 0.5) <= 1e-12


@pytest.mark.parametrize("mult", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("n", [5, 10, 20, 50])
def test_capped_specs_certify_and_match_the_oracles(mult, n):
    # with budgets x1.5 and x3 the descent loop certified 8 of these 48
    for seed in range(6):
        spec = _scaled(random_linear1d_spec(n, seed), mult)
        eq = solve_longrun_qeg(spec)
        assert eq.grad_norm <= 1e-10
        beta, value = _lbfgsb_min(spec)
        assert dual_value_pop(spec, eq.beta_star) <= value + 1e-10
        assert np.abs(eq.beta_star - beta).max() <= 1e-4
        _agrees_with_oracle(eq, spec, 1.0)
        _assert_capped_block(eq)


def test_identical_capped_lines_stay_at_the_cap():
    # two identical lines solve as one buyer: with equal budgets they
    # split its winnings equally, which the lowest index wins
    for c, d in (([-2.0, -2.0, 2.0], [2.0, 2.0, 0.0]), ([-2.0, 2.0, 2.0], [2.0, 0.0, 0.0])):
        eq = solve_longrun_qeg(_spec(c, d, [2.0, 2.0, 2.0]))
        assert np.array_equal(eq.beta_star, [1.0, 1.0, 1.0])
        twins = [0, 1] if c[0] == c[1] else [1, 2]
        assert eq.u_star[twins[0]] == eq.u_star[twins[1]] > 0
        _assert_capped_block(eq)


def test_solve_sorts_buyers_by_slope():
    # slopes that do not increase with the index: the solve takes the
    # buyers in slope order, so a permuted spec gives the permuted bits
    two_lines = _spec([-2.0, 2.0], [2.0, 0.0], [0.8, 0.6])
    swapped = _spec([2.0, -2.0], [0.0, 2.0], [0.6, 0.8])
    eq, sw = solve_longrun_qeg(two_lines), solve_longrun_qeg(swapped)
    assert np.array_equal(sw.beta_star, eq.beta_star[::-1])
    assert np.array_equal(sw.delta, eq.delta[::-1])
    assert (sw.rev, sw.grad_norm) == (eq.rev, eq.grad_norm)
    _agrees_with_oracle(sw, swapped, 1.0)


@pytest.mark.parametrize("c,b", [
    ([-1.0, -1.0, 1.0], [0.4, 0.3, 0.5]),
    ([-1.0, -1.0, 1.0], [0.25, 0.15, 0.3]),  # the two below the cap
    ([1.40353141, 1.40353141, 0.36773078], [0.56049512, 1.93430904, 0.43243582]),
])
def test_free_identical_lines_certify(c, b):
    # two identical lines tie on a segment, and the lowest-index
    # subgradient leaves the second one's gradient nonzero; the KKT
    # condition is on their summed budget, so they solve as one buyer
    c, b = np.array(c), np.array(b)
    spec = _spec(c, 1.0 - c / 2.0, b)
    if c[0] < 0:
        # the descent oracle stalls on that subgradient; on the third
        # spec the twins sit at the cap, where a negative gradient
        # certifies, so the oracle does not stall on them
        assert descent_longrun(spec, 1.0, _mean_start(spec))[1] > 0.1
    eq = solve_longrun_qeg(spec)
    assert eq.grad_norm <= 1e-10
    merged = _spec(c[1:], 1.0 - c[1:] / 2.0, [b[0] + b[1], b[2]])
    beta, value = _lbfgsb_min(merged)
    assert eq.beta_star[0] == eq.beta_star[1]
    assert dual_value_pop(merged, eq.beta_star[1:]) <= value + 1e-10
    assert np.abs(eq.beta_star[1:] - beta).max() <= 1e-4
    assert np.abs(eq.beta_star * eq.u_star + eq.delta - b).max() <= 1e-12
    assert eq.u_star[0] * b[1] == pytest.approx(eq.u_star[1] * b[0], rel=1e-12)
    assert 1 not in eq.winners


def test_capped_solve_matches_the_descent_oracle():
    # the uncapped ordered partition puts buyer 0 of the two-line market
    # above the cap; the descent oracle took 5 steps from b / mean(v)
    two_lines = _spec([-2.0, 2.0], [2.0, 0.0], [0.8, 0.6])
    for spec in (two_lines, _scaled(random_linear1d_spec(5, 0), 1.5)):
        eq = solve_longrun_qeg(spec)
        beta, grad_norm = descent_longrun(spec, 1.0, _mean_start(spec))
        assert grad_norm <= 1e-10
        assert np.abs(eq.beta_star - beta).max() <= 1e-8


def test_solve_raises_when_newton_fails(monkeypatch):
    def singular(*args):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(longrun, "_solve_tridiagonal", singular)
    for n, seed in ((5, 0), (12, 3)):
        spec = random_linear1d_spec(n, seed)
        for solve in (solve_longrun_eg, solve_longrun_qeg):
            with pytest.raises(RuntimeError, match="zero pivot"):
                solve(spec)


# ---------------------------------------------------------------------------
# Analytic Hessian
# ---------------------------------------------------------------------------


def test_hessian_symmetric_frozen(symmetric_spec):
    H = hessian_longrun_linear(symmetric_spec, np.array([2.0, 2.0]) / 3.0)
    assert np.allclose(H, [[1.5, -0.375], [-0.375, 1.5]], atol=1e-12)


def test_hessian_single_buyer():
    H = hessian_longrun_linear(_single_spec(), np.array([1.0]))
    assert np.allclose(H, [[1.0]], atol=1e-14)  # pure barrier curvature


@given(seed=seeds)
@settings(max_examples=20, deadline=None)
def test_hessian_matches_finite_differences(seed):
    gen = np.random.default_rng(seed)
    spec = random_linear1d_spec(int(gen.integers(2, 5)), seed=int(gen.integers(0, 50)))
    eq = solve_longrun_eg(spec)
    H = hessian_longrun_linear(spec, eq.beta_star)
    assert np.abs(H - H.T).max() < 1e-12
    assert np.all(np.linalg.eigvalsh(H) > 0)
    # the FD truncation error grows like h^2 ||H||^3 (each envelope
    # derivative costs a factor 1/slope-gap), so the 1e-5 agreement bound
    # is checked on instances with O(1) curvature
    assume(float(np.abs(H).max()) <= 20.0)
    h = 1e-5
    fd = np.zeros_like(H)
    for j in range(spec.n):
        e = np.zeros(spec.n)
        e[j] = h
        fd[:, j] = (dual_grad_pop(spec, eq.beta_star + e)
                    - dual_grad_pop(spec, eq.beta_star - e)) / (2 * h)
    fd = (fd + fd.T) / 2
    assert np.abs(H - fd).max() <= 1e-5


def test_hessian_matches_finite_differences_symmetric(symmetric_spec):
    beta = np.array([2.0, 2.0]) / 3.0
    H = hessian_longrun_linear(symmetric_spec, beta)
    h = 1e-5
    fd = np.zeros_like(H)
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd[:, j] = (dual_grad_pop(symmetric_spec, beta + e)
                    - dual_grad_pop(symmetric_spec, beta - e)) / (2 * h)
    assert np.abs(H - (fd + fd.T) / 2).max() <= 1e-6


def test_hessian_rejects_three_way_interior_tie():
    # lines 2-2t, t+1/2, 2t all pass through (1/2, 1)
    spec = _spec([-2.0, 1.0, 2.0], [2.0, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3])
    with pytest.raises(ValueError):
        hessian_longrun_linear(spec, np.array([1.0, 1.0, 1.0]))


def test_hessian_rejects_endpoint_crossing():
    # scaled lines 1 and t meet exactly at the right endpoint
    spec = _spec([0.0, 2.0], [1.0, 0.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        hessian_longrun_linear(spec, np.array([1.0, 0.5]))


# ---------------------------------------------------------------------------
# Asymptotic variances
# ---------------------------------------------------------------------------


def test_sigma2_nsw_symmetric(symmetric_spec):
    eq = solve_longrun_eg(symmetric_spec)
    val = sigma2_nsw(eq)
    assert val == pytest.approx(1.0 / 27.0, abs=1e-12)
    # quadrature oracle: integrate p*(theta)^2 - 1 directly
    quad, _ = integrate.quad(lambda th: _price(eq, [th])[0] ** 2, 0.0, 1.0)
    assert val == pytest.approx(quad - 1.0, abs=1e-9)


def test_sigma2_nsw_single_buyer_zero():
    eq = solve_longrun_eg(_single_spec())
    assert sigma2_nsw(eq) == pytest.approx(0.0, abs=1e-14)


def test_sigma2_nsw_monte_carlo(five_buyer_spec):
    eq = solve_longrun_eg(five_buyer_spec)
    gen = np.random.default_rng(9)
    prices = _price(eq, gen.random(200_000))
    mc = prices.var(ddof=1)
    stderr = np.sqrt(prices.var(ddof=1) / len(prices)) * 2.0  # rough var-of-var scale
    assert sigma2_nsw(eq) >= 0
    assert abs(sigma2_nsw(eq) - mc) < max(4 * stderr, 2e-3)


def test_omega2_symmetric(symmetric_spec):
    eq = solve_longrun_eg(symmetric_spec)
    for i in range(2):
        assert omega2(eq, i) == pytest.approx(29.0 / 48.0, abs=1e-12)
    # quadrature oracle on buyer 0, winning segment [0, 1/2]
    m1, _ = integrate.quad(lambda th: 2.0 - 2.0 * th, 0.0, 0.5)
    m2, _ = integrate.quad(lambda th: (2.0 - 2.0 * th) ** 2, 0.0, 0.5)
    assert omega2(eq, 0) == pytest.approx(m2 - m1 ** 2, abs=1e-10)


def test_omega2_single_buyer_zero():
    assert omega2(solve_longrun_eg(_single_spec()), 0) == pytest.approx(0.0, abs=1e-14)


def test_omega2_matches_masked_monte_carlo(symmetric_spec):
    eq = solve_longrun_eg(symmetric_spec)
    gen = np.random.default_rng(4)
    theta = gen.random(400_000)
    masked = np.where(theta <= 0.5, 2.0 - 2.0 * theta, 0.0)
    mc = masked.var(ddof=1)
    stderr = masked.var(ddof=1) / np.sqrt(len(theta))  # loose scale bound
    assert abs(omega2(eq, 0) - mc) < max(4 * stderr, 5e-3)


def test_sigma_beta_u_single_buyer():
    sb, su = sigma_beta_u(np.array([[1.0]]), np.array([0.0]), np.array([1.0]),
                          np.array([1.0]))
    assert np.allclose(sb, [[0.0]])
    assert np.allclose(su, [[0.0]])


def test_sigma_beta_u_int_diagonal_case():
    # diagonal Hessian b/beta^2: the marginals collapse to the plug-in
    # diagonal.  Here beta_hat_i = b_i / ubar_i with ubar_i the item mean of
    # g_i, and disjoint win regions give Cov(ubar_i, ubar_j) = -u_i u_j / t,
    # so Sigma_u is the full score covariance with u_i = 3/4
    b = np.array([0.5, 0.5])
    beta = np.array([2 / 3, 2 / 3])
    om = np.array([29 / 48, 29 / 48])
    H = np.diag(b / beta ** 2)
    sb, su = sigma_beta_u(H, om, beta, b)
    assert np.allclose(np.diag(sb), om * beta ** 4 / b ** 2, atol=1e-12)
    assert np.allclose(su, [[29 / 48, -9 / 16], [-9 / 16, 29 / 48]], atol=1e-12)
    assert np.allclose(np.diag(sb), 0.4773662551440328, atol=1e-12)


def test_sigma_beta_u_hand_inversion(symmetric_spec):
    eq = solve_longrun_eg(symmetric_spec)
    pack = asymptotic_pack(eq)
    # direct 2x2 inverse: [[a,c],[c,a]]^{-1} = [[a,-c],[-c,a]] / (a^2-c^2)
    a, c = 1.5, -0.375
    Hinv = np.array([[a, -c], [-c, a]]) / (a * a - c * c)
    # full score covariance E[g g^T] - u* u*^T; disjoint win regions make
    # E[g g^T] = Diag(Omega^2 + u*^2)
    u_star = eq.spec.budgets / eq.beta_star
    S = np.diag(pack.omega2 + u_star ** 2) - np.outer(u_star, u_star)
    expected = Hinv @ S @ Hinv
    assert np.abs(pack.sigma_beta - expected).max() < 1e-12
    D = np.diag(-eq.spec.budgets / eq.beta_star ** 2)
    assert np.abs(pack.sigma_u - D @ expected @ D).max() < 1e-12


def test_asymptotic_pack_invariants(five_buyer_spec):
    pack = asymptotic_pack(solve_longrun_eg(five_buyer_spec))
    assert pack.sigma2_nsw >= 0
    assert np.all(pack.omega2 >= 0)
    assert np.abs(pack.hessian - pack.hessian.T).max() < 1e-12
    assert np.all(np.linalg.eigvalsh(pack.hessian) > 0)
    assert np.all(np.linalg.eigvalsh(pack.sigma_beta) >= -1e-12)
    assert np.all(np.linalg.eigvalsh(pack.sigma_u) >= -1e-12)


def test_asymptotic_pack_rejects_quasilinear_buyers_at_cap():
    # b = 2 pins the single buyer at beta = 1, where u* = 1 != b / beta
    eq = solve_longrun_qeg(_spec([0.0], [1.0], [2.0]))
    with pytest.raises(ValueError, match=r"buyers \[0\]"):
        asymptotic_pack(eq)


def test_identical_winning_lines_have_no_scores_or_hessian():
    # the twins below the cap win one segment together: beta does not say
    # how they split it, and H has a kink there
    eq = solve_longrun_qeg(_spec([-1.0, -1.0, 1.0], [1.5, 1.5, 0.5], [0.25, 0.15, 0.3]))
    assert eq.u_star[1] > 0 and 1 not in eq.winners
    for i in (0, 1):
        with pytest.raises(ValueError, match=r"buyers \[0, 1\] win on one bid line"):
            omega2(eq, i)
    assert omega2(eq, 2) > 0
    with pytest.raises(ValueError, match=r"buyers \[0, 1\] tie at theta = 0,"):
        hessian_longrun_linear(eq.spec, eq.beta_star)
    with pytest.raises(ValueError, match=r"buyers \[0, 1\]"):
        asymptotic_pack(eq)


def test_asymptotic_pack_quasilinear_interior(symmetric_spec):
    # beta* = (2/3, 2/3) stays below the cap: same pack as the linear market
    pack = asymptotic_pack(solve_longrun_qeg(symmetric_spec))
    linear = asymptotic_pack(solve_longrun_eg(symmetric_spec))
    assert np.all(np.isfinite(pack.sigma_beta)) and np.all(np.isfinite(pack.sigma_u))
    assert np.allclose(pack.sigma_beta, linear.sigma_beta, atol=1e-9)


def test_sigma_beta_u_rejects_singular_hessian():
    with pytest.raises(np.linalg.LinAlgError):
        sigma_beta_u(np.zeros((2, 2)), np.ones(2), np.ones(2), np.ones(2))
