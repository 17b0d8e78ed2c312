"""Sampled-market solvers: frozen solutions, KKT residuals, cross-checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fisher_infer import finite
from fisher_infer.finite import (
    DEFAULT_TOL,
    ESCALATE_AFTER,
    SMOOTH_MUS,
    _newton_tail,
    _smoothed,
    _smoothed_value,
    equilibrium_to_dict,
    save_equilibrium,
    solve_sample_eg,
    solve_sample_qeg,
    verify_kkt,
)
from fisher_infer.markets import (
    FiniteMarket,
    Linear1DValuation,
    LinearMDValuation,
    LongRunSpec,
    Uniform01Supply,
    UniformCubeSupply,
    dual_value_sample,
    random_linear1d_spec,
    sample_items,
)

from conftest import _random_market
from oracles import grid_min_linear, grid_min_qlin, smoothed_dense, smoothed_value_dense
from solve_digest import copy_items as _copy_items
from solve_digest import tiny_zero_value_market as _tiny_zero_value_market

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _symmetric_market():
    return FiniteMarket(V=np.array([[3.0, 1.0], [1.0, 3.0]]), budgets=np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# Frozen equilibria
# ---------------------------------------------------------------------------


def test_symmetric_two_by_two():
    eq = solve_sample_eg(_symmetric_market())
    assert eq.certificate.certified
    assert np.allclose(eq.beta, [1 / 3, 1 / 3], atol=1e-9)
    assert np.allclose(eq.u, [1.5, 1.5], atol=1e-9)
    assert np.allclose(eq.p, [1.0, 1.0], atol=1e-9)
    assert eq.nsw == pytest.approx(math.log(1.5), abs=1e-9)
    # each buyer takes its favorite item fully (supply 1/2)
    assert np.allclose(eq.X, [[0.5, 0.0], [0.0, 0.5]], atol=1e-9)


def test_tie_split_single_item():
    m = FiniteMarket(V=np.array([[2.0], [1.0]]), budgets=np.array([0.5, 0.5]))
    eq = solve_sample_eg(m)
    assert np.allclose(eq.beta, [0.5, 1.0], atol=1e-8)
    assert np.allclose(eq.u, [1.0, 0.5], atol=1e-8)
    assert np.allclose(eq.p, [1.0], atol=1e-9)
    assert np.allclose(eq.X[:, 0], [0.5, 0.5], atol=1e-8)


def test_single_buyer_closed_form():
    m = FiniteMarket(V=np.ones((1, 5)), budgets=np.array([1.0]))
    eq = solve_sample_eg(m)
    assert eq.beta[0] == pytest.approx(1.0, abs=1e-12)
    assert eq.u[0] == pytest.approx(1.0, abs=1e-12)
    assert eq.nsw == pytest.approx(0.0, abs=1e-12)


def test_qlin_single_buyer_boundary():
    # H_t(beta) = beta - 2 log beta is decreasing on (0, 1]: cap binds
    m = FiniteMarket(V=np.ones((1, 3)), budgets=np.array([2.0]))
    eq = solve_sample_qeg(m)
    assert eq.beta[0] == pytest.approx(1.0, abs=1e-12)
    assert eq.rev == pytest.approx(1.0, abs=1e-12)
    assert eq.delta[0] == pytest.approx(1.0, abs=1e-9)


def test_qlin_single_buyer_interior():
    m = FiniteMarket(V=np.ones((1, 3)), budgets=np.array([0.5]))
    eq = solve_sample_qeg(m)
    assert eq.beta[0] == pytest.approx(0.5, abs=1e-9)
    assert eq.rev == pytest.approx(0.5, abs=1e-9)
    assert eq.delta[0] == pytest.approx(0.0, abs=1e-9)


def test_money_metric_welfare_and_delta():
    m = FiniteMarket(V=np.ones((1, 3)), budgets=np.array([2.0]))
    qlin = solve_sample_qeg(m)
    assert qlin.nsw == float((m.budgets * np.log(qlin.u + qlin.delta)).sum())
    assert solve_sample_eg(m).delta is None


def test_qlin_two_buyer_matches_grid_search():
    m = FiniteMarket(V=np.array([[3.0, 1.0], [1.0, 3.0]]), budgets=np.array([0.3, 0.3]))
    eq = solve_sample_qeg(m)
    best, _ = grid_min_qlin(m, step=1e-4)
    assert np.abs(eq.beta - best).max() < 2e-4
    assert eq.rev == pytest.approx(float(eq.p.mean()), abs=1e-15)


@pytest.mark.parametrize("method", ["pr", "newton", "subgradient"])
def test_qlin_all_buyers_capped_on_a_tied_item(method):
    # both buyers sit at the cap and tie on the one item, so the tied-supply
    # split keeps no utility row
    m = FiniteMarket(V=np.ones((2, 1)), budgets=np.array([2.0, 2.0]))
    eq = solve_sample_qeg(m, method=method)
    assert eq.certificate.certified
    assert np.array_equal(eq.beta, [1.0, 1.0])
    assert verify_kkt(m, eq).passed


def test_qlin_buyer_that_wins_nothing_sits_at_the_cap():
    # buyer 0 wins neither item and keeps its budget at beta = 1; a pattern
    # solve that rejected such a component ran PR for its whole budget here
    m = _random_market(4, 2, 1350999467)
    eq = solve_sample_qeg(m)
    assert eq.certificate.certified and eq.certificate.iterations <= 1_000
    assert eq.beta[0] == 1.0 and eq.u[0] == 0.0
    assert verify_kkt(m, eq).passed


def test_solver_rejects_zero_value_buyer():
    V = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        solve_sample_eg(FiniteMarket(V=V, budgets=np.array([0.5, 0.5])))


def test_solver_rejects_unknown_method():
    with pytest.raises(ValueError):
        solve_sample_eg(_symmetric_market(), method="simplex")


def test_unmeetable_tol_returns_flagged_iterate(five_buyer_spec):
    # no gap is <= -inf, so every route ends in the Newton tail's last iterate
    market = sample_items(five_buyer_spec, t=200, seed=7)
    for solve in (solve_sample_eg, solve_sample_qeg):
        for method in ("newton", "pr", "subgradient"):
            eq = solve(market, tol=-math.inf, method=method)
            cert = eq.certificate
            assert not cert.certified and math.isfinite(cert.duality_gap), method
            assert np.all(eq.beta > 0), method
            assert np.allclose(eq.X.sum(axis=0), 1.0 / market.t, rtol=1e-12, atol=0.0)
            assert cert.escalated == (method == "pr")
            assert cert.iterations == {"newton": 0, "pr": ESCALATE_AFTER,
                                       "subgradient": finite.SUBGRADIENT_ITERS}[method]
    assert solve_sample_eg(market).certificate.certified


@pytest.mark.parametrize("market, solve", [
    (_tiny_zero_value_market(194), solve_sample_eg),
    (_random_market(5, 39, 981, 0), solve_sample_eg),
    (_random_market(5, 39, 981, 0), solve_sample_qeg),
])
def test_pr_hands_its_iterate_to_the_newton_tail_once(market, solve, monkeypatch):
    # no PR polish certifies these markets within ESCALATE_AFTER iterations
    tails = _count_calls(monkeypatch, "_newton_tail")
    eq = solve(market, method="pr")
    cert = eq.certificate
    assert cert.certified and cert.escalated and cert.iterations == ESCALATE_AFTER
    assert len(tails) == 1
    assert verify_kkt(market, eq).passed


# ---------------------------------------------------------------------------
# KKT verification
# ---------------------------------------------------------------------------


def test_kkt_on_solved_symmetric():
    m = _symmetric_market()
    report = verify_kkt(m, solve_sample_eg(m), tol=1e-8)
    assert report.passed
    for field in ("clearance", "winner", "utility", "feasibility", "budget"):
        assert getattr(report, field) < 1e-8


def test_kkt_flags_perturbed_beta():
    m = _symmetric_market()
    eq = solve_sample_eg(m)
    bad = dataclasses.replace(eq, beta=eq.beta + np.array([0.1, 0.0]))
    report = verify_kkt(m, bad, tol=1e-8)
    assert not report.passed
    # u_1 stayed at b_1/beta_1 of the solve, so the identity breaks by > 0.1
    assert report.utility > 0.1


def test_kkt_flags_overallocated_item():
    m = _symmetric_market()
    eq = solve_sample_eg(m)
    doubled = eq.X.copy()
    doubled[:, 0] *= 2.0
    bad = dataclasses.replace(eq, X=doubled)
    report = verify_kkt(m, bad, tol=1e-8)
    assert not report.passed
    assert report.feasibility == pytest.approx(1.0 / m.t, abs=1e-12)


def test_kkt_rejects_dimension_mismatch():
    m = _symmetric_market()
    eq = solve_sample_eg(m)
    other = FiniteMarket(V=np.ones((3, 2)), budgets=np.array([0.4, 0.3, 0.3]))
    with pytest.raises(ValueError):
        verify_kkt(other, eq)


@given(seed=seeds)
@settings(max_examples=20, deadline=None)
def test_kkt_passes_on_random_markets(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 8))
    t = int(gen.integers(2, 80))
    m = _random_market(n, t, seed, zero_frac=0.1)
    eq = solve_sample_eg(m)
    assert eq.certificate.certified
    assert verify_kkt(m, eq).passed


@given(seed=seeds)
@settings(max_examples=15, deadline=None)
def test_kkt_passes_on_random_qlin_markets(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(1, 6))
    t = int(gen.integers(2, 60))
    m = _random_market(n, t, seed)
    eq = solve_sample_qeg(m)
    assert eq.certificate.certified
    report = verify_kkt(m, eq)
    assert report.passed
    assert report.comp_slack <= 1e-8
    assert np.all(eq.delta >= 0)
    assert np.all(eq.beta <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------


@given(seed=seeds)
@settings(max_examples=15, deadline=None)
def test_strong_duality_at_optimum(seed):
    gen = np.random.default_rng(seed)
    m = _random_market(int(gen.integers(1, 7)), int(gen.integers(1, 60)), seed)
    eq = solve_sample_eg(m, tol=1e-9)
    b = m.budgets
    pop = abs((b * np.log(eq.u)).sum()
              - dual_value_sample(m, eq.beta)
              - (b * (np.log(b) - 1.0)).sum())
    assert pop <= 1e-8  # 10 * tol


@given(seed=seeds)
@settings(max_examples=15, deadline=None)
def test_budget_scale_equivariance(seed):
    # scaling budgets by delta > 0 keeps x and scales p by delta
    gen = np.random.default_rng(seed)
    m = _random_market(int(gen.integers(2, 6)), int(gen.integers(2, 40)), seed)
    delta = float(gen.uniform(0.3, 3.0))
    scaled = FiniteMarket(V=m.V, budgets=m.budgets * delta)
    eq = solve_sample_eg(m)
    eq2 = solve_sample_eg(scaled)
    assert np.abs(eq.X - eq2.X).max() < 1e-7
    assert np.abs(eq2.p - delta * eq.p).max() < 1e-7 * delta


@given(seed=seeds)
@settings(max_examples=15, deadline=None)
def test_item_duplication_consistency(seed):
    # duplicating every item doubles t but leaves beta and u unchanged
    gen = np.random.default_rng(seed)
    m = _random_market(int(gen.integers(1, 6)), int(gen.integers(1, 40)), seed)
    doubled = FiniteMarket(V=np.hstack([m.V, m.V]), budgets=m.budgets)
    tol = 1e-9
    eq = solve_sample_eg(m, tol=tol)
    eq2 = solve_sample_eg(doubled, tol=tol)
    assert np.abs(eq.beta - eq2.beta).max() <= 2 * tol + 1e-12
    assert np.abs(eq.u - eq2.u).max() <= 2 * tol + 1e-12


@given(seed=seeds)
@settings(max_examples=15, deadline=None)
def test_qlin_matches_unconstrained_when_interior(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(1, 6))
    m = _random_market(n, int(gen.integers(2, 50)), seed)
    small = FiniteMarket(V=m.V, budgets=m.budgets * 0.2)
    tol = 1e-9
    unconstrained = solve_sample_eg(small, tol=tol)
    if unconstrained.beta.max() >= 0.95:
        return  # cap would bind; premise not met
    qlin = solve_sample_qeg(small, tol=tol)
    assert np.abs(qlin.beta - unconstrained.beta).max() <= 10 * tol
    assert np.all(qlin.delta <= 1e-9)


@given(seed=seeds, method=st.sampled_from(["pr", "subgradient", "newton"]))
@settings(max_examples=20, deadline=None)
def test_certificate_gap_never_negative(seed, method):
    gen = np.random.default_rng(seed)
    m = _random_market(int(gen.integers(1, 6)), int(gen.integers(1, 40)), seed)
    eq = solve_sample_eg(m, method=method)
    assert eq.certificate.duality_gap >= -1e-10


# ---------------------------------------------------------------------------
# Cross-checks between solver routes
# ---------------------------------------------------------------------------


def _first_order_routes_differ(market, tol=DEFAULT_TOL, solve=solve_sample_eg):
    """Largest multiplier difference of the "pr" and "subgradient" routes,
    each certified at tol; more than 10 tol means a bug in one of them."""
    eq_pr, eq_sub = (solve(market, tol=tol, method=m) for m in ("pr", "subgradient"))
    assert eq_pr.certificate.certified and eq_sub.certificate.certified
    return float(np.abs(eq_pr.beta - eq_sub.beta).max())


def test_cross_check_symmetric():
    diff = _first_order_routes_differ(_symmetric_market(), tol=1e-8)
    assert diff <= 1e-7


def test_cross_check_single_buyer_exact():
    m = FiniteMarket(V=np.full((1, 4), 2.0), budgets=np.array([1.0]))
    assert _first_order_routes_differ(m) == 0.0


def test_cross_check_random_5x50():
    m = _random_market(5, 50, seed=123)
    diff = _first_order_routes_differ(m, tol=1e-8)
    assert diff <= 1e-7


def test_cross_check_qlin():
    m = _random_market(3, 30, seed=5)
    assert _first_order_routes_differ(m, tol=1e-9, solve=solve_sample_qeg) <= 1e-8


def test_newton_route_agrees_with_pr():
    m = _random_market(4, 60, seed=17)
    eq_pr = solve_sample_eg(m, method="pr")
    eq_nt = solve_sample_eg(m, method="newton")
    assert np.abs(eq_pr.beta - eq_nt.beta).max() < 1e-6


def test_newton_route_reads_ties_when_every_strict_margin_is_wide():
    # every strict bid margin here is above 0.05, so only the threshold
    # above every margin kept leaves no tied bid out of the pattern
    market = _tiny_zero_value_market(3)
    eq = solve_sample_eg(market)
    pr = solve_sample_eg(market, method="pr")
    assert eq.certificate.certified and eq.certificate.method == "newton"
    for field in ("beta", "u", "p", "X", "nsw"):
        assert np.array_equal(getattr(eq, field), getattr(pr, field)), field


def test_capped_tie_split_keeps_capped_buyers_within_budget():
    # all 8 buyers tie on the one item at price 1 = sum b; its remainder
    # went to buyer 0, at the cap, past its budget (delta_0 = -b_6)
    market = _random_market(8, 1, 1022, 0.2)
    V, b = market.V, market.budgets
    res = finite._pattern_solve(V, b, np.ones((8, 1), dtype=bool), DEFAULT_TOL, 1.0)
    assert res is not None
    beta, u, _, _, gap, _ = res
    assert gap <= DEFAULT_TOL and np.all(b - beta * u >= -1e-10)


@pytest.mark.parametrize("args", [(7, 2, 623, 0.4), (8, 1, 1022, 0.2), (8, 1, 1092, 0.4)])
def test_capped_ties_certify_on_the_newton_route(args):
    market = _random_market(*args)
    eq = solve_sample_qeg(market)
    assert eq.certificate.certified and eq.certificate.method == "newton"
    assert verify_kkt(market, eq).passed


def test_repeated_tie_pair_splits_within_supply(monkeypatch):
    # items 0 and 1 are copies, so buyer pairs that tie on one tie on both;
    # the min-norm split of their proportional columns overfilled an item
    # and no route certified this market short of PR's escalated tails
    g = np.random.default_rng(45)
    V = g.integers(0, 4, (4, 50)).astype(float)
    V[g.random((4, 50)) < 0.2] = 0
    V[:, 1] = V[:, 0]
    b = g.uniform(0.2, 1, 4)
    market = FiniteMarket(V=V, budgets=b / b.sum())
    prs = _count_calls(monkeypatch, "_run_pr")
    eq = solve_sample_eg(market)
    assert eq.certificate.certified and eq.certificate.method == "newton" and not prs
    assert verify_kkt(market, eq).passed


@pytest.mark.parametrize("V", [
    _random_market(5, 40, seed=23).V,
    # losing bids sit far below the top: exp underflows to 0 at small mu
    np.array([[1.0, 1e-3, 0.0], [1e-3, 1.0, 1e-300]]),
])
def test_smoothed_value_probe_matches_full_evaluation(V):
    n = V.shape[0]
    b = np.full(n, 1.0 / n)
    beta = np.random.default_rng(5).uniform(0.5, 2.0, n)
    for mu in SMOOTH_MUS:
        assert _smoothed_value(V, b, beta, mu)[0] == _smoothed(V, b, beta, mu)[0]


@st.composite
def smoothed_cases(draw):
    """(V, b, beta, mu_band): bids with zero values and exact ties at value
    scales 1e-3..1e4; at temperature mu_band (None if not drawn) buyer 1
    bids 712..740 mu below buyer 0 on item 0, in exp's subnormal band."""
    n = draw(st.integers(1, 8))
    t = draw(st.integers(1, 60))
    gen = np.random.default_rng(draw(seeds))
    scale = 10.0 ** draw(st.integers(-3, 4))
    if draw(st.booleans()):
        # small integers and equal multipliers: zero values and tied bids
        V = gen.integers(0, 4, size=(n, t)) * scale
        beta = np.full(n, draw(st.sampled_from([0.5, 1.0, 3.0])))
    else:
        V = gen.uniform(0.0, scale, size=(n, t))
        V[gen.random((n, t)) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
        beta = gen.uniform(0.1, 3.0, size=n)
    b = gen.uniform(0.2, 1.0, size=n)
    mu_band = None
    if n >= 2 and draw(st.booleans()):
        top = beta[0] * scale
        # the gap a * mu must be resolvable next to top in float
        mu_band = draw(st.sampled_from([mu for mu in SMOOTH_MUS if 1e-12 * top < mu < top / 745]))
        V[:, 0] = 0.0
        V[0, 0] = scale
        V[1, 0] = (top - draw(st.floats(712.0, 740.0)) * mu_band) / beta[1]
    return V, b / b.sum(), beta, mu_band


@given(case=smoothed_cases())
@settings(max_examples=200, deadline=None)
def test_smoothed_matches_dense_oracle(case):
    V, b, beta, mu_band = case
    if mu_band is not None:
        E = smoothed_value_dense(V, b, beta, mu_band)[1]
        assert ((E > 0) & (E < np.finfo(float).tiny)).any()
    for mu in SMOOTH_MUS:
        for got, want in zip(_smoothed_value(V, b, beta, mu),
                             smoothed_value_dense(V, b, beta, mu)):
            assert np.array_equal(got, want)
        for got, want in zip(_smoothed(V, b, beta, mu), smoothed_dense(V, b, beta, mu)):
            assert np.array_equal(got, want)


def _two_line_qlin_market():
    # b_0 = 2 holds buyer 0 at the cap beta = 1
    spec = LongRunSpec(budgets=np.array([2.0, 0.5]),
                       valuation=Linear1DValuation(c=np.array([-2.0, 2.0]),
                                                   d=np.array([2.0, 0.0])),
                       supply=Uniform01Supply())
    return sample_items(spec, 400, seed=1)


TAIL_CASES = {
    "eg-3x20": (lambda: _random_market(3, 20, seed=0), np.inf),
    "eg-5x40-zeros": (lambda: _random_market(5, 40, seed=1, zero_frac=0.3), np.inf),
    "eg-8x60": (lambda: _random_market(8, 60, seed=2), np.inf),
    "qeg-cap": (_two_line_qlin_market, 1.0),
    "eg-50x250": (lambda: sample_items(random_linear1d_spec(50, 0), 250, seed=0), np.inf),
}


@pytest.mark.parametrize("case", list(TAIL_CASES))
def test_newton_tail_matches_dense_oracle_tail(case, monkeypatch):
    make, cap = TAIL_CASES[case]
    market = make()
    V, b = market.V, market.budgets
    beta0 = np.minimum(b / V.mean(axis=1).clip(min=1e-300), cap)
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    def run():
        calls[0] = 0
        return _newton_tail(V, b, beta0, DEFAULT_TOL, cap), calls[0]

    with monkeypatch.context() as m:
        m.setattr(finite, "_smoothed_value", counted(finite._smoothed_value))
        (res, beta), evals = run()
    # the dense oracles, every derivative evaluation recomputing the value
    monkeypatch.setattr(oracles, "smoothed_value_dense", counted(smoothed_value_dense))
    monkeypatch.setattr(finite, "_smoothed_value", oracles.smoothed_value_dense)
    monkeypatch.setattr(finite, "_smoothed",
                        lambda V, b, beta, mu, value=None: smoothed_dense(V, b, beta, mu))
    (res_o, beta_o), evals_o = run()

    assert res is not None and res_o is not None
    assert beta.tobytes() == beta_o.tobytes()
    for got, want in zip(res, res_o):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    if np.isfinite(cap):
        assert np.any(res[0] == cap)
    assert evals < evals_o


def test_newton_tail_reuses_no_probe_when_backtracking_runs_out(monkeypatch):
    # every Armijo probe of the first Newton iteration fails, so the tiny
    # step it still takes must not hand the last rejected probe on
    market = _random_market(3, 20, seed=0)
    V, b = market.V, market.budgets
    real_value, real_smoothed = finite._smoothed_value, finite._smoothed
    calls = []
    inside = [False]

    def value(V, b, beta, mu):
        out = real_value(V, b, beta, mu)
        if inside[0] or len(calls) != 1:
            return out
        return (np.inf,) + out[1:]  # a line-search probe of the first iteration

    def smoothed(V, b, beta, mu, value=None):
        calls.append((beta.copy(), mu, value))
        inside[0] = True
        try:
            return real_smoothed(V, b, beta, mu, value)
        finally:
            inside[0] = False

    monkeypatch.setattr(finite, "_smoothed_value", value)
    monkeypatch.setattr(finite, "_smoothed", smoothed)
    _newton_tail(V, b, b / V.mean(axis=1), DEFAULT_TOL, np.inf)
    (beta_0, mu_0, _), (beta_1, mu_1, reused) = calls[:2]
    assert mu_1 == mu_0 and not np.array_equal(beta_1, beta_0)  # same stage, moved
    assert reused is None


@st.composite
def polish_cases(draw):
    """(V, b, beta, cap): a PR-solved market with its multipliers perturbed.

    Small integer values with copied buyers and items give exact ties,
    items with several winners and cycles of tie edges."""
    n = draw(st.integers(1, 8))
    t = draw(st.integers(1, 60))
    gen = np.random.default_rng(draw(seeds))
    if draw(st.booleans()):
        V = gen.integers(0, 4, size=(n, t)).astype(float)
        V[gen.integers(0, n, size=n // 2)] = V[:n // 2]
        V[:, gen.integers(0, t, size=t // 2)] = V[:, :t // 2]
    else:
        V = gen.uniform(0.0, 3.0, size=(n, t))
        V[gen.random((n, t)) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    V[~(V > 0).any(axis=1), 0] = 1.0
    b = gen.uniform(0.2, 1.0, size=n)
    b *= draw(st.sampled_from([1.0, 2.0])) / b.sum()
    cap = draw(st.sampled_from([np.inf, 1.0]))
    solve = solve_sample_eg if np.isinf(cap) else solve_sample_qeg
    beta = solve(FiniteMarket(V=V, budgets=b), method="pr").beta
    rel = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
    beta = np.minimum(beta * (1.0 + rel * gen.uniform(-1.0, 1.0, size=n)), cap)
    return V, b, beta, cap


def _assert_same_result(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    for g, w in zip(got, want):
        assert (g is None and w is None) or np.array_equal(g, w)


@given(case=polish_cases())
@settings(max_examples=200, deadline=None)
def test_polish_matches_loop_oracle(case):
    V, b, beta, cap = case
    bids = beta[:, None] * V
    top = bids.max(axis=0)
    rtols = oracles._candidate_rtols(V, beta)
    assert finite._candidate_rtols(bids, top) == rtols
    # every attempt, not only the first one that certifies
    for rtol in rtols:
        winmask = (bids >= top[None, :] * (1.0 - rtol)) & (top > 0)[None, :]
        _assert_same_result(finite._pattern_solve(V, b, winmask, DEFAULT_TOL, cap),
                            oracles._attempt_pattern(V, b, beta, rtol, DEFAULT_TOL, cap))
    _assert_same_result(finite._polish(V, b, beta, DEFAULT_TOL, cap),
                        oracles._polish(V, b, beta, DEFAULT_TOL, cap))


@pytest.mark.parametrize("v22", [1.0, 2.0])
def test_tie_forest_checks_cycle_edges_like_loop_oracle(v22):
    # items 0, 1, 2 tie buyer pairs (0, 1), (0, 2), (1, 2); the third edge
    # closes a cycle that agrees with the first two only when v22 = 2
    V = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 2.0, v22]])
    comp, off, ok = oracles._tie_forest(V, V > 0, np.arange(3))
    got = finite._tie_forest(V, np.array([1, 2, 2]), np.array([0, 1, 2]), np.array([0, 0, 1]))
    assert ok == (v22 == 2.0)
    if ok:
        assert np.array_equal(got[0], comp) and np.array_equal(got[1], off)
    else:
        assert got is None


def _crossing_lines():
    # v1 = 2 - 2 theta, v2 = 2 theta, equal budgets
    return LongRunSpec(budgets=np.array([0.5, 0.5]),
                       valuation=Linear1DValuation(c=np.array([-2.0, 2.0]),
                                                   d=np.array([2.0, 0.0])),
                       supply=Uniform01Supply())


@st.composite
def ordered_markets(draw):
    """Sampled 1-D linear markets: n 1-8 or 50, t 1-300 with t <= n often,
    the symmetric two-line market, and items copied (equal theta)."""
    if draw(st.integers(0, 9)) == 0:
        spec = _crossing_lines()
    else:
        spec = random_linear1d_spec(draw(st.sampled_from([*range(1, 9), 50])), draw(seeds))
    t = draw(st.integers(1, 300) | st.integers(1, spec.n + 1))
    market = sample_items(spec, t, draw(seeds))
    if t > 1 and draw(st.booleans()):
        market = _copy_items(market, draw(seeds))
    return market


def _dense_newton(market):
    """The Newton route with the ordered-pattern step switched off: the
    smoothed tail alone, uncertified where it is."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(finite, "_ordered_pattern", lambda V, b, tol: None)
        return solve_sample_eg(market, method="newton")


def _assert_same_equilibrium(got, want):
    for field in ("beta", "u", "p", "X", "nsw", "certificate"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def _near_tie(market, beta):
    # a bid between rounding and 1e-8 below its item's top: whether the
    # dense tail's polish ties it depends on the smoothed iterate it
    # reads the ties from, while the ordered path ties it exactly when it
    # is within TIE_LOG_TOL, so the two may split that item differently
    bids = beta[:, None] * market.V
    top = bids.max(axis=0)
    rel = (top - bids) / top
    return bool(((rel > 1e-12) & (rel < 1e-8)).any())


@given(market=ordered_markets())
# a run of pairs with equal q blocked the first off pair's move here
@example(market=sample_items(random_linear1d_spec(50, 0), 2, seed=1))
# both branches of each shortcut of _ordered_pattern on every run: equal
# sort keys (stable re-sort, blocks of several items), and distinct keys
@example(market=_copy_items(sample_items(random_linear1d_spec(5, 7), 40, seed=3), 3))
@example(market=sample_items(_crossing_lines(), 300, seed=4))
@settings(max_examples=200, deadline=None)
def test_ordered_pattern_matches_dense_newton(market):
    dense = _dense_newton(market)
    if dense.certificate.certified:
        eq = solve_sample_eg(market, method="newton")
        if _near_tie(market, dense.beta):
            assert eq.certificate.certified
        else:
            _assert_same_equilibrium(eq, dense)
        # one buyer is left to the dense tail
        ordered = finite._ordered_pattern(market.V, market.budgets, DEFAULT_TOL)
        assert (ordered is None) == (market.n == 1)


@pytest.mark.parametrize("t,spec_seed,seed", [
    (2, 0, 1), (2, 0, 6), (2, 0, 7), (2, 0, 8), (2, 0, 9), (2, 3, 3), (2, 11, 3),
    (3, 8, 1), (3, 17, 1), (3, 17, 4), (3, 17, 9), (4, 12, 7), (5, 17, 1)])
def test_ordered_pattern_moves_the_far_end_of_an_equal_run(t, spec_seed, seed):
    # the n = 50 markets (spec seeds 0-19, sample seeds 0-9, t 2-8) on which
    # the search gave up when a run of pairs with equal q blocked a move
    market = sample_items(random_linear1d_spec(50, spec_seed), t, seed=seed)
    assert finite._ordered_pattern(market.V, market.budgets, DEFAULT_TOL) is not None
    dense = _dense_newton(market)
    assert dense.certificate.certified
    _assert_same_equilibrium(solve_sample_eg(market, method="newton"), dense)


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(finite, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(finite, name, wrapper)
    return calls


def _swapped_buyers():
    # buyers 1 and 2 of an ordered market swap rows: log V[2] - log V[1]
    # now decreases along the items
    m = sample_items(random_linear1d_spec(5, 3), 60, seed=1)
    order = [0, 2, 1, 3, 4]
    return FiniteMarket(V=m.V[order], budgets=m.budgets[order])


def _zero_value():
    m = sample_items(random_linear1d_spec(5, 3), 60, seed=1)
    V = m.V.copy()
    V[2, 7] = 0.0
    return FiniteMarket(V=V, budgets=m.budgets)


def _linear_md():
    gen = np.random.default_rng(4)
    spec = LongRunSpec(budgets=np.full(4, 0.25),
                       valuation=LinearMDValuation(a=gen.uniform(0.0, 1.0, (4, 10)),
                                                   c=gen.uniform(0.1, 1.0, 4)),
                       supply=UniformCubeSupply(dim=10))
    return sample_items(spec, 80, seed=2)


@pytest.mark.parametrize("make", [_swapped_buyers, _zero_value, _linear_md])
def test_ordered_pattern_guard_falls_back_to_newton_tail(make, monkeypatch):
    market = make()
    V, b = market.V, market.budgets
    assert finite._ordered_pattern(V, b, DEFAULT_TOL) is None
    tails = _count_calls(monkeypatch, "_newton_tail")
    eq = solve_sample_eg(market, method="newton")
    assert len(tails) == 1 and np.array_equal(tails[0][2], b / V.mean(axis=1))
    assert eq.certificate.certified
    _assert_same_equilibrium(eq, _dense_newton(market))


def test_ordered_pattern_falls_back_when_the_search_fails(monkeypatch):
    market = sample_items(random_linear1d_spec(8, 1), 100, seed=3)
    monkeypatch.setattr(finite, "_interval_search", lambda *args: None)
    tails = _count_calls(monkeypatch, "_newton_tail")
    eq = solve_sample_eg(market, method="newton")
    assert len(tails) == 1 and eq.certificate.certified
    _assert_same_equilibrium(eq, _dense_newton(market))


def _copied_items():
    # 68 items drawn from 68 with repeats: blocks shared by three buyers;
    # moving every pair that is off at once cycles on this market
    return _copy_items(sample_items(random_linear1d_spec(50, 73), 68, seed=73), 73)


@pytest.mark.parametrize("make", [
    lambda: sample_items(random_linear1d_spec(50, 0), 250, seed=0),
    lambda: sample_items(random_linear1d_spec(50, 42), 5000, seed=1),
    _copied_items,
])
def test_ordered_pattern_needs_no_newton_tail(make, monkeypatch):
    market = make()
    tails = _count_calls(monkeypatch, "_newton_tail")
    eq = solve_sample_eg(market, method="newton")
    assert eq.certificate.certified and not tails


def test_ordered_pattern_ties_bids_within_tie_log_tol(monkeypatch):
    # at the exact beta one more bid lies 2.5e-10 (relative) below its
    # item's top; the dense tail ties it, and so must the ordered path
    market = sample_items(random_linear1d_spec(50, 0), 250, seed=10433)
    dense = _dense_newton(market)
    solves = _count_calls(monkeypatch, "_pattern_solve")
    eq = solve_sample_eg(market, method="newton")
    assert len(solves) == 2 and solves[1][2].sum() == solves[0][2].sum() + 1
    _assert_same_equilibrium(eq, dense)


@st.composite
def interval_patterns(draw):
    """Inputs of _pattern_multipliers: a nondecreasing q on nb blocks, so
    runs of equal odd q tie three or more buyers on one block."""
    n = draw(st.sampled_from([2, 3, 5, 8, 50]))
    nb = draw(st.integers(1, 6 if n < 50 else 60))
    q = sorted(draw(st.lists(st.integers(1, 2 * nb - 1), min_size=n - 1, max_size=n - 1)))
    pos = st.floats(0.01, 50.0)
    W = draw(st.lists(pos, min_size=n, max_size=n))
    r = draw(st.lists(st.floats(-3.0, 3.0), min_size=n - 1, max_size=n - 1))
    v = draw(st.lists(pos, min_size=n - 1, max_size=n - 1))
    mk = draw(st.lists(st.integers(1, 4), min_size=n - 1, max_size=n - 1))
    b = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    return q, W, r, v, mk, b, draw(st.integers(1, 5000))


@given(args=interval_patterns())
@settings(max_examples=200, deadline=None)
def test_pattern_multipliers_match_the_array_form(args):
    # the list form keeps numpy's float operations in numpy's order: same bits
    beta, need = finite._pattern_multipliers(*args)
    want_beta, want_need = oracles.pattern_multipliers(*args)
    assert np.array_equal(beta, want_beta) and np.array_equal(need, want_need)


def test_newton_tail_polishes_at_exact_powers_of_ten(monkeypatch):
    market = sample_items(random_linear1d_spec(50, 0), 250, seed=0)
    V, b = market.V, market.budgets
    mus, polished = [], []
    smoothed, polish = finite._smoothed, finite._polish

    def record_mu(V, b, beta, mu, value=None):
        mus.append(mu)
        return smoothed(V, b, beta, mu, value)

    def record_polish(*args):
        polished.append(mus[-1])
        return polish(*args)

    monkeypatch.setattr(finite, "_smoothed", record_mu)
    monkeypatch.setattr(finite, "_polish", record_polish)
    res, _ = _newton_tail(V, b, b / V.mean(axis=1), DEFAULT_TOL, np.inf)
    assert res is not None
    assert SMOOTH_MUS == tuple(float(f"1e-{k}") for k in range(1, 13))
    assert polished == [float(f"1e-{k}") for k in range(6, 6 + len(polished))]
    assert set(mus) == set(SMOOTH_MUS[:5 + len(polished)])


def test_two_buyer_solvers_match_grid_search():
    for seed in (1, 2, 3):
        m = _random_market(2, 25, seed)
        eq = solve_sample_eg(m)
        best, _ = grid_min_linear(m, step=1e-4)
        assert np.abs(eq.beta - best).max() < 2e-4


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_equilibrium_dict_shape():
    eq = solve_sample_eg(_symmetric_market())
    data = equilibrium_to_dict(eq)
    assert set(data) == {"beta", "u", "p", "x", "nsw", "certificate"}
    assert data["certificate"]["certified"] is True
    assert all(len(triple) == 3 for triple in data["x"])


def test_equilibrium_json_round_trip(tmp_path):
    import json

    m = _random_market(3, 10, seed=2)
    eq = solve_sample_qeg(m)
    path = str(tmp_path / "eq.json")
    save_equilibrium(eq, path)
    with open(path) as fh:
        data = json.load(fh)
    assert data["rev"] == eq.rev
    assert np.allclose(data["delta"], eq.delta)
    # the triples list the positive entries of X exactly, item-major
    triples = [tuple(triple) for triple in data["x"]]
    assert triples == sorted(triples)
    X = np.zeros_like(eq.X)
    for item, buyer, frac in triples:
        X[buyer, item] = frac
    assert np.array_equal(X, eq.X)
