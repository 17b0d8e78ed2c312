"""Estimator and confidence-interval tests.

Population quantities for the symmetric two-buyer market (sigma_N^2 =
1/27, Omega_i^2 = 29/48, Hessian [[1.5,-.375],[-.375,1.5]]) serve as
oracles for the sampled estimators at large t.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import _random_market
from fisher_infer.finite import solve_sample_eg, solve_sample_qeg
from fisher_infer.inference import (
    InferenceReport,
    build_report,
    ci_beta_u,
    ci_nsw,
    default_eta,
    estimate_omega2,
    estimate_sigma2_nsw,
    hessian_numdiff,
    report_table,
)
from fisher_infer.markets import FiniteMarket, random_linear1d_spec, sample_items
from oracles import hessian_numdiff_dense

Z975 = 1.9599639845400538

price_arrays = st.lists(
    st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=60
).map(np.array)


def _psi_only_market():
    # one constant-value item per buyer: the max term is locally linear
    # around beta=(1,1), so the dual Hessian there is exactly Diag(b/beta^2)
    return FiniteMarket(V=np.array([[1.0, 0.0], [0.0, 1.0]]),
                        budgets=np.array([0.5, 0.5]))


class _EqStub:
    """Bare allocation carrier for estimate_omega2 unit cases."""

    def __init__(self, X):
        self.X = np.array(X, dtype=float)


# ---------------------------------------------------------------------------
# sigma^2 estimator


def test_sigma2_constant_prices():
    assert estimate_sigma2_nsw(np.ones(7)) == 0.0


def test_sigma2_two_point_prices():
    assert estimate_sigma2_nsw(np.array([2.0, 0.0])) == pytest.approx(1.0, abs=1e-15)


def test_sigma2_symmetric_market_matches_population(symmetric_spec):
    market = sample_items(symmetric_spec, t=10_000, seed=77)
    eq = solve_sample_eg(market)
    est = estimate_sigma2_nsw(eq.p)
    # stderr of the plug-in estimate from the sampled squared prices
    stderr = float((eq.p**2).std()) / np.sqrt(market.t)
    assert abs(est - 1.0 / 27.0) <= 4.0 * stderr


def test_sigma2_clamps_roundoff_negative():
    assert estimate_sigma2_nsw(np.full(4, 1.0 - 1e-12)) == 0.0


def test_sigma2_rejects_genuine_negative():
    with pytest.raises(ValueError):
        estimate_sigma2_nsw(np.full(4, 0.9))


def test_sigma2_rejects_empty():
    with pytest.raises(ValueError):
        estimate_sigma2_nsw(np.array([]))


@given(prices=price_arrays, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40)
def test_sigma2_permutation_invariant(prices, seed):
    shifted = prices + 1.0 - prices.mean()  # recenter so the mean is 1
    gen = np.random.default_rng(seed)
    base = estimate_sigma2_nsw(shifted)
    perm = estimate_sigma2_nsw(gen.permutation(shifted))
    assert perm == pytest.approx(base, abs=1e-12)


@given(
    n=st.integers(min_value=1, max_value=6),
    t=st.integers(min_value=5, max_value=80),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_sigma2_is_a_variance_at_equilibrium(n, t, seed):
    # mean price is 1 for any normalized market, so mean(p^2) - 1 is
    # the actual price variance up to solver tolerance
    market = _random_market(n, t, seed)
    eq = solve_sample_eg(market)
    est = estimate_sigma2_nsw(eq.p)
    assert float(eq.p.mean()) == pytest.approx(1.0, abs=1e-8)
    assert est == pytest.approx(float(eq.p.var()), abs=1e-7)


# ---------------------------------------------------------------------------
# NSW interval


def test_ci_nsw_frozen_unit_variance():
    lo, hi = ci_nsw(0.0, 1.0, 100, 0.05)
    assert lo == pytest.approx(-0.195996, abs=1e-6)
    assert hi == pytest.approx(0.195996, abs=1e-6)


def test_ci_nsw_zero_variance_degenerate():
    assert ci_nsw(0.37, 0.0, 50, 0.05) == (0.37, 0.37)


def test_ci_nsw_frozen_symmetric_width():
    lo, hi = ci_nsw(-0.28, 1.0 / 27.0, 5000, 0.05)
    assert (hi - lo) / 2.0 == pytest.approx(0.005333, abs=2e-6)
    assert (lo + hi) / 2.0 == pytest.approx(-0.28, abs=1e-15)


def test_ci_nsw_width_scales_exactly_with_root_t():
    lo1, hi1 = ci_nsw(0.0, 0.7, 500, 0.05)
    lo4, hi4 = ci_nsw(0.0, 0.7, 2000, 0.05)
    assert hi4 - lo4 == (hi1 - lo1) / 2.0


def test_ci_nsw_validation():
    with pytest.raises(ValueError):
        ci_nsw(0.0, -0.1, 100, 0.05)
    with pytest.raises(ValueError):
        ci_nsw(0.0, 1.0, 1, 0.05)
    for alpha in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ValueError):
            ci_nsw(0.0, 1.0, 100, alpha)


# ---------------------------------------------------------------------------
# per-buyer variance estimator


def test_omega2_single_buyer_constant_values():
    market = FiniteMarket(V=np.array([[1.0, 1.0]]), budgets=np.array([1.0]))
    om, tied = estimate_omega2(market, _EqStub([[0.5, 0.5]]))
    assert om == pytest.approx([0.0], abs=1e-15)
    assert not tied


def test_omega2_two_point_values():
    # full allocation at t=2 means fraction 1/t = 0.5 per item
    market = FiniteMarket(V=np.array([[3.0, 1.0]]), budgets=np.array([1.0]))
    om, tied = estimate_omega2(market, _EqStub([[0.5, 0.5]]))
    assert om == pytest.approx([1.0], abs=1e-15)
    assert not tied


def test_omega2_symmetric_market_matches_population(symmetric_spec):
    market = sample_items(symmetric_spec, t=10_000, seed=77)
    eq = solve_sample_eg(market)
    om, tied = estimate_omega2(market, eq)
    assert not tied
    # winning-value series for the stderr of each variance estimate
    W = eq.X * market.V * market.t
    for i in range(2):
        sq = (W[i] - W[i].mean()) ** 2
        stderr = float(sq.std()) / np.sqrt(market.t)
        assert abs(om[i] - 29.0 / 48.0) <= 4.0 * stderr


def test_omega2_flags_split_items():
    market = FiniteMarket(V=np.ones((2, 2)), budgets=np.array([0.5, 0.5]))
    eq = solve_sample_eg(market)
    om, tied = estimate_omega2(market, eq)
    assert tied
    assert om == pytest.approx([0.0, 0.0], abs=1e-12)


@given(
    n=st.integers(min_value=1, max_value=5),
    t=st.integers(min_value=4, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_omega2_nonnegative_and_utility_consistent(n, t, seed):
    market = _random_market(n, t, seed)
    eq = solve_sample_eg(market)
    om, _ = estimate_omega2(market, eq)
    assert np.all(om >= 0.0)
    # the per-item utilities must re-aggregate to the equilibrium utilities
    U = eq.X * market.V
    assert U.sum(axis=1) == pytest.approx(eq.u, abs=1e-7)


# ---------------------------------------------------------------------------
# numerical-difference Hessian


def test_default_eta_schedule():
    assert default_eta(10_000) == pytest.approx(0.1, abs=1e-15)
    assert default_eta(16) == pytest.approx(0.5, abs=1e-15)


def test_numdiff_smooth_case_recovers_diagonal():
    H = hessian_numdiff(_psi_only_market(), np.array([1.0, 1.0]), eta=1e-3)
    assert np.abs(H - np.diag([0.5, 0.5])).max() < 1e-5


def test_numdiff_error_quarters_when_eta_halves():
    market = _psi_only_market()
    target = np.diag([0.5, 0.5])
    err_coarse = np.abs(hessian_numdiff(market, np.array([1.0, 1.0]), eta=1e-2) - target).max()
    err_fine = np.abs(hessian_numdiff(market, np.array([1.0, 1.0]), eta=5e-3) - target).max()
    assert 3.0 <= err_coarse / err_fine <= 5.0


def test_numdiff_symmetric_market_near_analytic_hessian(symmetric_spec):
    market = sample_items(symmetric_spec, t=10_000, seed=21)
    eq = solve_sample_eg(market)
    H = hessian_numdiff(market, eq.beta)
    assert np.abs(H - np.array([[1.5, -0.375], [-0.375, 1.5]])).max() < 0.15


def test_numdiff_shrinks_default_eta_to_the_orthant():
    market = _psi_only_market()
    beta = np.array([1.0, 1.0])
    # t=2 default would be 2^{-1/4} ~ 0.84, above the orthant limit 0.5
    assert np.array_equal(hessian_numdiff(market, beta),
                          hessian_numdiff(market, beta, eta=0.5 * (1.0 - 1e-9)))


def test_numdiff_shrinks_eta_near_boundary():
    market = _psi_only_market()
    beta = np.array([0.01, 1.0])
    assert np.array_equal(hessian_numdiff(market, beta),
                          hessian_numdiff(market, beta, eta=0.5 * 0.01 * (1.0 - 1e-9)))


@given(
    n=st.integers(min_value=1, max_value=4),
    t=st.integers(min_value=3, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_numdiff_symmetric_by_construction(n, t, seed):
    market = _random_market(n, t, seed)
    gen = np.random.default_rng(seed)
    beta = gen.uniform(0.5, 2.0, n)
    H = hessian_numdiff(market, beta, eta=1e-3)
    assert np.array_equal(H, H.T)


def test_numdiff_validation():
    market = _psi_only_market()
    with pytest.raises(ValueError):
        hessian_numdiff(market, np.array([1.0, 1.0]), eta=0.0)
    with pytest.raises(ValueError):
        hessian_numdiff(market, np.array([1.0, 1.0]), eta=-1e-3)
    with pytest.raises(ValueError):
        hessian_numdiff(market, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        hessian_numdiff(market, np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        hessian_numdiff(market, np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        hessian_numdiff(market, np.array([np.inf, 1.0]))


@given(
    n=st.integers(min_value=1, max_value=8),
    t=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    zero_frac=st.sampled_from([0.0, 0.4]),
    integer_values=st.booleans(),
    duplicate=st.booleans(),
    eta_kind=st.sampled_from(["default", "explicit", "boundary"]),
)
@settings(max_examples=200, deadline=None)
def test_numdiff_matches_dense_oracle(n, t, seed, zero_frac, integer_values, duplicate,
                                      eta_kind):
    market = _random_market(n, t, seed, zero_frac=zero_frac)
    gen = np.random.default_rng(seed)
    V, b = market.V.copy(), market.budgets.copy()
    beta = gen.uniform(0.3, 2.0, n)
    if integer_values:
        # small integer values with equal multipliers make top bids tie exactly
        V = np.floor(V)
        V[:, 0] = np.maximum(V[:, 0], 1.0)
        beta[:] = beta[0]
    if duplicate:
        V[:, t // 2:] = V[:, :t - t // 2]
        V[~(V > 0).any(axis=1), 0] = 1.0  # the copy may overwrite a row's only positive value
        if n > 1:
            V[1], b[1], beta[1] = V[0], b[0], beta[0]
    market = FiniteMarket(V=V, budgets=b)
    eta = None
    if eta_kind == "explicit":
        eta = float(gen.uniform(1e-4, 0.1))
    elif eta_kind == "boundary":
        beta[gen.integers(n)] = 1e-3  # the default eta shrinks to below 5e-4
    H = hessian_numdiff(market, beta, eta)
    assert np.array_equal(H, hessian_numdiff_dense(market, beta, eta))
    if eta_kind == "boundary":
        shrunk = 0.5 * beta.min() * (1.0 - 1e-9)
        assert shrunk < 5e-4 and np.array_equal(H, hessian_numdiff(market, beta, shrunk))


def test_numdiff_matches_dense_oracle_n50():
    market = sample_items(random_linear1d_spec(50, 0), t=250, seed=3)
    eq = solve_sample_eg(market, method="newton")
    H = hessian_numdiff(market, eq.beta)
    assert np.array_equal(H, hessian_numdiff_dense(market, eq.beta))


# ---------------------------------------------------------------------------
# per-buyer intervals


def test_ci_beta_u_zero_variance_degenerate():
    beta_ci, u_ci = ci_beta_u(np.array([2.0, 0.5]), np.zeros(2), None,
                              np.array([0.5, 0.5]), 100, 0.05)
    assert beta_ci[:, 0] == pytest.approx([2.0, 0.5], abs=1e-15)
    assert beta_ci[:, 1] == pytest.approx([2.0, 0.5], abs=1e-15)
    assert u_ci[:, 0] == pytest.approx([0.25, 1.0], abs=1e-15)
    assert u_ci[:, 1] == pytest.approx([0.25, 1.0], abs=1e-15)


def test_ci_beta_u_diagonal_plugin_frozen():
    # Sigma_beta,ii = (29/48)(2/3)^4/(1/4) under the diagonal plug-in
    t = 2000
    beta_ci, u_ci = ci_beta_u(np.array([2 / 3, 2 / 3]), np.full(2, 29 / 48), None,
                              np.array([0.5, 0.5]), t, 0.05)
    var_beta = 0.4773662551440328
    assert beta_ci[0, 1] - 2 / 3 == pytest.approx(Z975 * np.sqrt(var_beta / t), abs=1e-12)
    assert u_ci[0, 1] - 0.75 == pytest.approx(Z975 * np.sqrt(29 / 48 / t), abs=1e-12)


def test_ci_beta_u_sandwich_frozen_symmetric():
    # symmetric market: H* has eigenvalues 9/8 on (1,1) and 15/8 on (1,-1);
    # the full score covariance (Omega^2 = 29/48, off-diagonal -u_1 u_2 =
    # -9/16) has 1/24 and 7/6 there, so Sigma_beta,ii is the mean of
    # (1/24)/(9/8)^2 and (7/6)/(15/8)^2, i.e. 1108/6075
    t = 2000
    b = np.array([0.5, 0.5])
    H = np.array([[1.5, -0.375], [-0.375, 1.5]])
    beta_ci, u_ci = ci_beta_u(np.array([2 / 3, 2 / 3]), np.full(2, 29 / 48), H,
                              b, t, 0.05)
    var_beta = 1108 / 6075
    # Sigma_u = D Sigma_beta D with D_ii = -b_i / beta_i^2 = -9/8
    var_u = (9 / 8) ** 2 * var_beta
    for i in range(2):
        assert beta_ci[i, 1] - 2 / 3 == pytest.approx(Z975 * np.sqrt(var_beta / t), abs=1e-12)
        assert 2 / 3 - beta_ci[i, 0] == pytest.approx(Z975 * np.sqrt(var_beta / t), abs=1e-12)
        assert u_ci[i, 1] - 0.75 == pytest.approx(Z975 * np.sqrt(var_u / t), abs=1e-12)
        assert 0.75 - u_ci[i, 0] == pytest.approx(Z975 * np.sqrt(var_u / t), abs=1e-12)


def test_ci_beta_u_full_matrix_equals_diagonal_for_diagonal_hessian():
    beta_hat = np.array([2 / 3, 2 / 3])
    b = np.array([0.5, 0.5])
    om = np.full(2, 29 / 48)
    H = np.diag(b / beta_hat**2)
    plain = ci_beta_u(beta_hat, om, None, b, 2000, 0.05)
    sandwich = ci_beta_u(beta_hat, om, H, b, 2000, 0.05)
    for a, c in zip(plain, sandwich):
        assert np.abs(a - c).max() < 1e-12


def test_ci_beta_u_intervals_contain_estimates():
    gen = np.random.default_rng(9)
    beta_hat = gen.uniform(0.5, 2.0, 4)
    b = gen.uniform(0.1, 0.4, 4)
    om = gen.uniform(0.0, 1.0, 4)
    beta_ci, u_ci = ci_beta_u(beta_hat, om, None, b, 500, 0.05)
    assert np.all(beta_ci[:, 0] <= beta_hat) and np.all(beta_hat <= beta_ci[:, 1])
    u_hat = b / beta_hat
    assert np.all(u_ci[:, 0] <= u_hat) and np.all(u_hat <= u_ci[:, 1])


def test_ci_beta_u_validation():
    with pytest.raises(ValueError):
        ci_beta_u(np.array([1.0]), np.array([1.0]), None, np.array([1.0]), 100, 1.5)
    with pytest.raises(np.linalg.LinAlgError):
        ci_beta_u(np.array([1.0, 1.0]), np.ones(2), np.zeros((2, 2)),
                  np.array([0.5, 0.5]), 100, 0.05)


# ---------------------------------------------------------------------------
# report assembly


def test_build_report_linear_market(symmetric_spec):
    market = sample_items(symmetric_spec, t=500, seed=3)
    eq = solve_sample_eg(market)
    rep = build_report(market, eq)
    assert isinstance(rep, InferenceReport)
    assert rep.sigma2_nsw_hat >= 0.0
    assert np.all(rep.omega2_hat >= 0.0)
    assert rep.nsw_ci[0] <= rep.nsw_hat <= rep.nsw_ci[1]
    assert np.all(rep.beta_ci[:, 0] <= rep.beta_hat)
    assert np.all(rep.beta_hat <= rep.beta_ci[:, 1])
    assert np.all(rep.u_ci[:, 0] <= rep.u_hat)
    assert np.all(rep.u_hat <= rep.u_ci[:, 1])
    assert rep.hessian_hat is None
    assert rep.rev_hat is None


def test_build_report_with_hessian(symmetric_spec):
    market = sample_items(symmetric_spec, t=500, seed=3)
    eq = solve_sample_eg(market)
    rep = build_report(market, eq, use_hessian=True)
    assert rep.hessian_hat is not None
    assert rep.hessian_hat.shape == (2, 2)
    assert np.array_equal(rep.hessian_hat, rep.hessian_hat.T)


def test_build_report_quasilinear(symmetric_spec):
    market = sample_items(symmetric_spec, t=300, seed=5)
    eq = solve_sample_qeg(market)
    rep = build_report(market, eq)
    assert rep.rev_hat == pytest.approx(eq.rev, abs=1e-15)
    assert rep.nsw_ci == (rep.nsw_hat, rep.nsw_hat)
    assert rep.sigma2_nsw_hat == 0.0
    mu = eq.u + eq.delta
    assert rep.nsw_hat == pytest.approx(float((market.budgets * np.log(mu)).sum()),
                                        abs=1e-12)


def test_build_report_quasilinear_cap_diagonal_plugin(symmetric_spec):
    # b = (0.8, 0.6) on the crossing lines: buyer 0 sits at the cap and
    # keeps delta_0 > 0, so u_0 = b_0 - delta_0 < b_0 / beta_0 = 0.8
    spec = dataclasses.replace(symmetric_spec, budgets=np.array([0.8, 0.6]))
    market = sample_items(spec, t=2000, seed=1)
    eq = solve_sample_qeg(market)
    assert eq.beta[0] == 1.0 and eq.beta[1] < 1.0 and eq.delta[0] > 0.0
    rep = build_report(market, eq)
    assert np.array_equal(rep.beta_ci[0], [1.0, 1.0])
    assert rep.beta_ci[1, 0] < eq.beta[1] < rep.beta_ci[1, 1]
    assert np.allclose(rep.u_ci.mean(axis=1), eq.u, rtol=0.0, atol=1e-15)
    assert rep.u_ci[0].mean() == pytest.approx(0.7979, abs=1e-4)
    assert rep.u_ci[0, 0] < rep.u_ci[0, 1]


def test_build_report_hessian_rejects_quasilinear_cap():
    # b = 2 pins the single buyer at beta = 1, where u = 1 != b / beta
    market = FiniteMarket(V=np.ones((1, 3)), budgets=np.array([2.0]))
    eq = solve_sample_qeg(market)
    with pytest.raises(ValueError, match=r"buyers \[0\]"):
        build_report(market, eq, use_hessian=True)


def test_build_report_hessian_quasilinear_interior(symmetric_spec):
    market = sample_items(symmetric_spec, t=500, seed=3)
    eq = solve_sample_qeg(market)
    assert np.all(eq.beta < 0.9)
    rep = build_report(market, eq, use_hessian=True)
    assert np.all(np.isfinite(rep.beta_ci)) and np.all(np.isfinite(rep.u_ci))
    assert np.all(rep.beta_ci[:, 0] < rep.beta_ci[:, 1])


def test_build_report_rejects_unnormalized_linear_budgets():
    # mean(p^2) - 1 is the price variance only when the budgets sum to 1
    market = FiniteMarket(V=np.array([[3.0, 1.0], [1.0, 3.0]]), budgets=np.array([1.0, 1.0]))
    eq = solve_sample_eg(market)
    assert eq.certificate.certified
    with pytest.raises(ValueError, match="normalize_spec"):
        build_report(market, eq)


def test_build_report_flags_ties():
    market = FiniteMarket(V=np.ones((2, 2)), budgets=np.array([0.5, 0.5]))
    rep = build_report(market, solve_sample_eg(market))
    assert rep.tie_flagged
    assert "split" in report_table(rep)


def test_report_table_layout(symmetric_spec):
    market = sample_items(symmetric_spec, t=400, seed=11)
    eq = solve_sample_eg(market)
    rep = build_report(market, eq)
    lines = report_table(rep).splitlines()
    assert lines[0].startswith("nsw_hat")
    note_lines = 1 if rep.tie_flagged else 0
    assert "beta_hat" in lines[1 + note_lines]
    assert len(lines) == 2 + note_lines + market.n
