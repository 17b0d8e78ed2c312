"""Long-run equilibria: envelope geometry, exact solve, asymptotic variances."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from fisher_infer import longrun
from fisher_infer.longrun import (
    asymptotic_pack,
    dual_grad_pop,
    dual_value_pop,
    hessian_longrun_linear,
    longrun_to_dict,
    omega2,
    pack_to_dict,
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

from oracles import grid_min_longrun

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _spec(c, d, b):
    return LongRunSpec(budgets=np.asarray(b, dtype=float),
                       valuation=Linear1DValuation(c=np.asarray(c, dtype=float),
                                                   d=np.asarray(d, dtype=float)))


def _single_spec():
    return _spec([0.0], [1.0], [1.0])


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
    assert np.abs(env.value_at(theta) - direct).max() < 1e-12
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


def test_dual_grad_flags_positive_length_tie():
    # beta = (1, 2) makes the scaled lines 2-2t and 2(1-t) coincide
    spec = _spec([-2.0, -1.0], [2.0, 1.0], [0.5, 0.5])
    g, tied = dual_grad_pop(spec, np.array([1.0, 2.0]), return_tied=True)
    assert tied
    assert np.allclose(g, [0.5, -0.25])  # lowest-index subgradient


def test_dual_rejects_nonpositive_beta(symmetric_spec):
    with pytest.raises(ValueError):
        dual_value_pop(symmetric_spec, np.array([1.0, 0.0]))


@given(seed=seeds)
@settings(max_examples=30, deadline=None)
def test_grad_matches_finite_differences(seed):
    gen = np.random.default_rng(seed)
    spec = random_linear1d_spec(int(gen.integers(1, 6)), seed=int(gen.integers(0, 50)))
    beta = gen.uniform(0.3, 1.8, spec.n)
    g, tied = dual_grad_pop(spec, beta, return_tied=True)
    if tied:
        return
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
    assert eq.price_at(np.array([0.3]))[0] == pytest.approx(1.0, abs=1e-12)


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
    tol = 1e-10
    gen = np.random.default_rng(0)
    base = solve_longrun_eg(five_buyer_spec, tol=tol)
    lo = five_buyer_spec.budgets / 2.0
    for _ in range(10):
        beta0 = gen.uniform(lo, 2.0)
        eq = solve_longrun_eg(five_buyer_spec, tol=tol, beta0=beta0)
        assert np.abs(eq.beta_star - base.beta_star).max() <= 10 * tol


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
    with pytest.raises(ValueError):
        solve_longrun_eg(symmetric_spec, beta0=np.array([1.0, -1.0]))


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
    spec = _spec([-2.0, 2.0], [2.0, 0.0], [0.8, 0.6])
    tol = 1e-10
    base = solve_longrun_qeg(spec, tol=tol)
    gen = np.random.default_rng(1)
    for _ in range(5):
        eq = solve_longrun_qeg(spec, tol=tol, beta0=gen.uniform(0.1, 1.0, 2))
        assert np.abs(eq.beta_star - base.beta_star).max() <= 10 * tol


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
# Start from the ordered-partition solution
# ---------------------------------------------------------------------------


def _mean_start(spec):
    return spec.budgets / spec.valuation.means()


@given(n=st.integers(1, 60), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_partition_start_agrees_with_the_mean_start(n, seed):
    spec = random_linear1d_spec(n, seed)
    eq = solve_longrun_eg(spec)
    assert eq.grad_norm <= 1e-10
    # the b / mean(v) start is slow and stalls on a few specs (e.g.
    # (54, 1873025504) stops at 1.5e-9); compare where it certifies
    try:
        ref = solve_longrun_eg(spec, beta0=_mean_start(spec))
    except RuntimeError:
        return
    assert np.abs(eq.beta_star - ref.beta_star).max() <= 1e-8 * np.abs(ref.beta_star).max()


@pytest.mark.parametrize("n,seed", [(100, s) for s in range(10)] + [(7, 8)])
def test_specs_that_stalled_from_the_mean_start_certify(n, seed):
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


def _same_outcome(solve, spec, **kwargs):
    """Run solve from the default start and from b / mean(v): both give the
    same bits or raise the same error."""
    try:
        ref = solve(spec, beta0=_mean_start(spec), **kwargs)
    except RuntimeError as err:
        with pytest.raises(RuntimeError, match=re.escape(str(err))):
            solve(spec, **kwargs)
        return
    eq = solve(spec, **kwargs)
    assert np.array_equal(eq.beta_star, ref.beta_star)
    assert np.array_equal(eq.delta, ref.delta)
    assert (eq.rev, eq.grad_norm) == (ref.rev, ref.grad_norm)


def test_partition_start_falls_back_without_an_ordered_partition():
    # slopes that do not increase with the index: no buyer order on the
    # envelope matches the index order, so the solve starts at b / mean(v)
    increasing_intercepts = _spec([2.0, -2.0], [0.0, 2.0], [0.8, 0.6])
    equal_lines = _spec([-1.0, -1.0, 1.0], [1.5, 1.5, 0.5], [0.4, 0.3, 0.5])
    for spec in (increasing_intercepts, equal_lines):
        _same_outcome(solve_longrun_qeg, spec)
        _same_outcome(solve_longrun_qeg, spec, max_iter=3)


def test_partition_start_falls_back_above_the_cap():
    # the uncapped partition solution puts buyer 0 above the cap of 1
    two_lines = _spec([-2.0, 2.0], [2.0, 0.0], [0.8, 0.6])
    assert longrun._partition_start(two_lines, np.inf)[0] > 1.0
    base = random_linear1d_spec(5, 0)
    rich = _spec(base.valuation.c, base.valuation.d, 1.5 * base.budgets)
    for spec in (two_lines, rich):
        _same_outcome(solve_longrun_qeg, spec)


def test_partition_start_falls_back_when_newton_fails(monkeypatch):
    def singular(*args):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(longrun, "_solve_tridiagonal", singular)
    for n, seed in ((5, 0), (12, 3)):
        spec = random_linear1d_spec(n, seed)
        _same_outcome(solve_longrun_qeg, spec)
        _same_outcome(solve_longrun_eg, spec)


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
    quad, _ = integrate.quad(lambda th: eq.price_at(np.array([th]))[0] ** 2, 0.0, 1.0)
    assert val == pytest.approx(quad - 1.0, abs=1e-9)


def test_sigma2_nsw_single_buyer_zero():
    eq = solve_longrun_eg(_single_spec())
    assert sigma2_nsw(eq) == pytest.approx(0.0, abs=1e-14)


def test_sigma2_nsw_monte_carlo(five_buyer_spec):
    eq = solve_longrun_eg(five_buyer_spec)
    gen = np.random.default_rng(9)
    prices = eq.price_at(gen.random(200_000))
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


def test_asymptotic_pack_quasilinear_interior(symmetric_spec):
    # beta* = (2/3, 2/3) stays below the cap: same pack as the linear market
    pack = asymptotic_pack(solve_longrun_qeg(symmetric_spec))
    linear = asymptotic_pack(solve_longrun_eg(symmetric_spec))
    assert np.all(np.isfinite(pack.sigma_beta)) and np.all(np.isfinite(pack.sigma_u))
    assert np.allclose(pack.sigma_beta, linear.sigma_beta, atol=1e-9)


def test_sigma_beta_u_rejects_singular_hessian():
    with pytest.raises(np.linalg.LinAlgError):
        sigma_beta_u(np.zeros((2, 2)), np.ones(2), np.ones(2), np.ones(2))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_longrun_to_dict_round_trip(symmetric_spec):
    eq = solve_longrun_eg(symmetric_spec)
    data = longrun_to_dict(eq)
    assert np.allclose(data["beta_star"], eq.beta_star)
    assert np.allclose(data["breakpoints"], [0.0, 0.5, 1.0])
    # price curve as (segment start, slope, intercept) triples
    starts, slopes, intercepts = zip(*data["price"])
    assert np.allclose(starts, [0.0, 0.5])
    assert np.allclose(slopes, eq.price_slopes)
    assert np.allclose(intercepts, eq.price_intercepts)


def test_pack_to_dict(symmetric_spec):
    pack = asymptotic_pack(solve_longrun_eg(symmetric_spec))
    data = pack_to_dict(pack)
    assert data["sigma2_nsw"] == pytest.approx(1 / 27)
    assert np.allclose(data["hessian"], [[1.5, -0.375], [-0.375, 1.5]])
