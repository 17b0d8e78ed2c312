"""Market primitives: specs, sampling, dual objective, serialization."""

import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fisher_infer
from fisher_infer import markets
from fisher_infer.markets import (
    FiniteMarket,
    Linear1DValuation,
    LinearMDValuation,
    LongRunSpec,
    Uniform01Supply,
    UniformCubeSupply,
    dual_subgradient_sample,
    dual_value_sample,
    load_spec,
    normalize_spec,
    random_linear1d_spec,
    sample_items,
    save_spec,
    spec_from_dict,
    spec_to_dict,
)

import oracles
from conftest import _box_point, _random_market

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _symmetric_market():
    V = np.array([[3.0, 1.0], [1.0, 3.0]])
    return FiniteMarket(V=V, budgets=np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# Construction and normalization
# ---------------------------------------------------------------------------


def test_valuation_rejects_negative_on_support():
    with pytest.raises(ValueError):
        Linear1DValuation(c=np.array([-2.0]), d=np.array([1.0]))  # v(1) = -1
    with pytest.raises(ValueError):
        Linear1DValuation(c=np.array([1.0]), d=np.array([-0.5]))  # v(0) < 0


def test_spec_rejects_bad_budgets():
    val = Linear1DValuation(c=np.array([0.0, 0.0]), d=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        LongRunSpec(budgets=np.array([0.5, 0.0]), valuation=val)
    with pytest.raises(ValueError):
        LongRunSpec(budgets=np.array([0.5]), valuation=val)


def test_spec_rejects_dimension_mismatch():
    val = LinearMDValuation(a=np.array([[0.5, 0.5]]), c=np.array([0.0]))
    with pytest.raises(ValueError):
        LongRunSpec(budgets=np.array([1.0]), valuation=val, supply=Uniform01Supply())


def test_normalize_budgets():
    val = Linear1DValuation(c=np.array([0.0, 0.0]), d=np.array([1.0, 1.0]))
    spec = LongRunSpec(budgets=np.array([2.0, 2.0]), valuation=val)
    assert np.allclose(normalize_spec(spec).budgets, [0.5, 0.5])


def test_normalize_values_already_unit_mean():
    val = Linear1DValuation(c=np.array([2.0]), d=np.array([0.0]))
    spec = normalize_spec(LongRunSpec(budgets=np.array([1.0]), valuation=val))
    assert np.allclose(spec.valuation.c, [2.0])
    assert np.allclose(spec.valuation.d, [0.0])


def test_normalize_values_rescales_by_mean():
    val = Linear1DValuation(c=np.array([2.0]), d=np.array([1.0]))  # mean 2
    spec = normalize_spec(LongRunSpec(budgets=np.array([1.0]), valuation=val))
    assert np.allclose(spec.valuation.c, [1.0])
    assert np.allclose(spec.valuation.d, [0.5])
    assert np.allclose(spec.valuation.means(), [1.0])


def test_finite_market_validation():
    with pytest.raises(ValueError):
        FiniteMarket(V=np.zeros((2, 3)), budgets=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        FiniteMarket(V=np.array([[1.0, -1.0]]), budgets=np.array([1.0]))
    m = _symmetric_market()
    assert m.n == 2 and m.t == 2


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_sample_constant_valuation_all_ones():
    val = Linear1DValuation(c=np.array([0.0]), d=np.array([1.0]))
    spec = LongRunSpec(budgets=np.array([1.0]), valuation=val)
    m = sample_items(spec, t=17, seed=3)
    assert np.all(m.V == 1.0)


def test_sample_reproducible(symmetric_spec):
    a = sample_items(symmetric_spec, t=64, seed=11)
    b = sample_items(symmetric_spec, t=64, seed=11)
    assert np.array_equal(a.V, b.V)


def test_sample_mean_matches_unit_mean(symmetric_spec):
    m = sample_items(symmetric_spec, t=100_000, seed=5)
    for i in range(2):
        row = m.V[i]
        stderr = row.std(ddof=1) / math.sqrt(m.t)
        assert abs(row.mean() - 1.0) < 4 * stderr


def test_sample_rejects_bad_args(symmetric_spec):
    with pytest.raises(ValueError):
        sample_items(symmetric_spec, t=0, seed=1)
    with pytest.raises(ValueError):
        sample_items(symmetric_spec, t=5, seed=-1)


@given(seed=seeds, t_small=st.integers(1, 40), extra=st.integers(1, 40))
@settings(max_examples=25, deadline=None)
def test_sample_prefix_property(seed, t_small, extra):
    # item tau depends only on (seed, tau): growing t keeps earlier items
    spec = random_linear1d_spec(3, seed=7)
    short = sample_items(spec, t=t_small, seed=seed)
    long = sample_items(spec, t=t_small + extra, seed=seed)
    assert np.array_equal(long.V[:, :t_small], short.V)


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_sample_distinct_seeds_differ(seed):
    spec = random_linear1d_spec(2, seed=7)
    a = sample_items(spec, t=16, seed=seed)
    b = sample_items(spec, t=16, seed=seed + 1)
    assert not np.array_equal(a.V, b.V)


def test_sample_multidimensional_supply():
    val = LinearMDValuation(a=np.array([[0.5, 0.5], [1.0, 0.0]]), c=np.array([0.0, 0.5]))
    spec = LongRunSpec(budgets=np.array([0.5, 0.5]), valuation=val,
                       supply=UniformCubeSupply(dim=2))
    m = sample_items(spec, t=1000, seed=0)
    assert m.V.shape == (2, 1000)
    assert np.all(m.V >= 0)


# ---------------------------------------------------------------------------
# Dual objective and subgradient
# ---------------------------------------------------------------------------


def test_dual_value_examples():
    m = _symmetric_market()
    assert dual_value_sample(m, np.array([1.0, 1.0])) == pytest.approx(3.0, abs=1e-12)
    third = np.array([1.0, 1.0]) / 3.0
    assert dual_value_sample(m, third) == pytest.approx(1.0 + math.log(3.0), abs=1e-12)
    single = FiniteMarket(V=np.array([[1.0]]), budgets=np.array([1.0]))
    assert dual_value_sample(single, np.array([2.0])) == pytest.approx(
        2.0 - math.log(2.0), abs=1e-12)


def test_dual_value_rejects_nonpositive_beta():
    m = _symmetric_market()
    with pytest.raises(ValueError):
        dual_value_sample(m, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        dual_value_sample(m, np.array([1.0, -1.0]))


def test_subgradient_examples():
    m = FiniteMarket(V=np.array([[3.0], [1.0]]), budgets=np.array([0.5, 0.5]))
    g = dual_subgradient_sample(m, np.array([1.0, 1.0]))
    assert np.allclose(g, [2.5, -0.5])

    sym = _symmetric_market()
    g = dual_subgradient_sample(sym, np.array([1.0, 1.0]) / 3.0)
    assert np.allclose(g, [0.0, 0.0], atol=1e-12)


def test_subgradient_tie_goes_to_lowest_index():
    m = FiniteMarket(V=np.array([[2.0], [2.0]]), budgets=np.array([0.4, 0.6]))
    g = dual_subgradient_sample(m, np.array([1.0, 1.0]))
    assert np.allclose(g, [2.0 - 0.4, -0.6])


@given(seed=seeds)
@settings(max_examples=60, deadline=None)
def test_dual_lipschitz_on_box(seed):
    # |H_t(beta) - H_t(beta')| <= (vbar + 2n) * ||beta - beta'||_inf on C
    gen = np.random.default_rng(seed)
    spec = random_linear1d_spec(int(gen.integers(1, 5)), seed=int(gen.integers(0, 100)))
    m = sample_items(spec, t=int(gen.integers(1, 60)), seed=seed)
    beta = _box_point(m.budgets, gen)
    beta2 = _box_point(m.budgets, gen)
    vbar = spec.valuation.values_at([0.0, 1.0]).max()  # linear: sup at an end
    lhs = abs(dual_value_sample(m, beta) - dual_value_sample(m, beta2))
    rhs = (vbar + 2 * m.n) * np.abs(beta - beta2).max()
    assert lhs <= rhs + 1e-12


@given(seed=seeds)
@settings(max_examples=60, deadline=None)
def test_dual_convex_along_segments(seed):
    gen = np.random.default_rng(seed)
    m = _random_market(int(gen.integers(1, 6)), int(gen.integers(1, 50)), seed)
    beta = gen.uniform(0.05, 3.0, m.n)
    beta2 = gen.uniform(0.05, 3.0, m.n)
    lam = float(gen.random())
    mid = lam * beta + (1 - lam) * beta2
    assert dual_value_sample(m, mid) <= (
        lam * dual_value_sample(m, beta)
        + (1 - lam) * dual_value_sample(m, beta2)
        + 1e-12)


@given(seed=seeds)
@settings(max_examples=60, deadline=None)
def test_subgradient_inequality(seed):
    # H_t(beta') >= H_t(beta) + <g, beta' - beta> for g in the subdifferential
    gen = np.random.default_rng(seed)
    m = _random_market(int(gen.integers(1, 6)), int(gen.integers(1, 50)), seed)
    beta = _box_point(m.budgets, gen)
    beta2 = _box_point(m.budgets, gen)
    g = dual_subgradient_sample(m, beta)
    lhs = dual_value_sample(m, beta2)
    rhs = dual_value_sample(m, beta) + g @ (beta2 - beta)
    assert lhs >= rhs - 1e-10


# ---------------------------------------------------------------------------
# Random spec generator
# ---------------------------------------------------------------------------


@given(n=st.integers(1, 8), seed=seeds)
@settings(max_examples=40, deadline=None)
def test_random_spec_is_normalized(n, seed):
    spec = random_linear1d_spec(n, seed=seed)
    val = spec.valuation
    assert np.allclose(val.means(), 1.0)
    assert spec.budgets.sum() == pytest.approx(1.0)
    assert np.all(spec.budgets > 0)
    if n > 1:
        assert np.all(np.diff(val.d) < 0)  # intercepts strictly decreasing
    # nonnegativity on [0, 1]
    assert np.all(val.d >= 0) and np.all(val.c + val.d >= 0)


def test_random_spec_reproducible():
    a = random_linear1d_spec(4, seed=9)
    b = random_linear1d_spec(4, seed=9)
    assert np.array_equal(a.valuation.c, b.valuation.c)
    assert np.array_equal(a.budgets, b.budgets)


@pytest.mark.parametrize("n", [1, 2, 50, 120, 180, 200])
def test_random_spec_chunked_draw_matches_row_by_row_draw(n):
    # the chunked draw replays the stream up to the first separated row,
    # so slopes and budgets are those of the row-by-row loop
    for seed in range(3):
        spec = random_linear1d_spec(n, seed)
        c, b = oracles.random_linear1d_draw(n, seed)
        assert np.array_equal(spec.valuation.c, c)
        assert np.array_equal(spec.valuation.d, 1.0 - c / 2.0)
        assert np.array_equal(spec.budgets, b)


def test_random_spec_rejects_an_n_it_cannot_draw(monkeypatch):
    # past the cap one slope draw is separated with probability below 1e-6,
    # so the redraw loop would not finish; the error comes before any draw
    cap = markets._RANDOM_SPEC_MAX_N

    def accept(n):
        return (1.0 - (n - 1) * 1e-3 / 3.6) ** n

    assert accept(cap) >= 1e-6 > accept(cap + 1)

    def no_draws(*args, **kwargs):
        raise AssertionError("slopes drawn for an unsupported n")

    monkeypatch.setattr(markets.np.random, "Philox", no_draws)
    for n in (cap + 1, 300):
        with pytest.raises(ValueError, match=f"at most {cap} buyers"):
            random_linear1d_spec(n, 0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_spec_dict_round_trip(symmetric_spec):
    data = spec_to_dict(symmetric_spec)
    assert data["valuation"]["kind"] == "linear1d"
    assert data["supply"] == {"kind": "uniform01"}
    back = spec_from_dict(data)
    assert np.allclose(back.budgets, symmetric_spec.budgets)
    assert np.allclose(back.valuation.c, symmetric_spec.valuation.c)
    assert np.allclose(back.valuation.d, symmetric_spec.valuation.d)


def test_spec_dict_round_trip_md():
    val = LinearMDValuation(a=np.array([[0.5, 0.5]]), c=np.array([0.1]))
    spec = LongRunSpec(budgets=np.array([1.0]), valuation=val,
                       supply=UniformCubeSupply(dim=2))
    back = spec_from_dict(spec_to_dict(spec))
    assert isinstance(back.valuation, LinearMDValuation)
    assert back.supply.dim == 2


def test_spec_file_round_trip(tmp_path, symmetric_spec):
    path = str(tmp_path / "spec.json")
    save_spec(symmetric_spec, path)
    back = load_spec(path)
    assert np.allclose(back.valuation.c, symmetric_spec.valuation.c)


def test_spec_from_dict_rejects_unknown_kinds():
    with pytest.raises(ValueError):
        spec_from_dict({"budgets": [1.0], "valuation": {"kind": "mystery"}})


@pytest.mark.parametrize("path", [("budgets",), ("valuation",), ("valuation", "d")])
def test_spec_from_dict_names_a_missing_key(symmetric_spec, path):
    # a KeyError traceback would leave the CLI user to guess the key
    data = spec_to_dict(symmetric_spec)
    *outer, key = path
    del (data[outer[0]] if outer else data)[key]
    with pytest.raises(ValueError, match=repr(key)):
        spec_from_dict(data)


def test_every_module_all_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # "from fisher_infer.<module> import *"
    for info in pkgutil.iter_modules(fisher_infer.__path__):
        module = importlib.import_module(f"fisher_infer.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.__all__ lists missing {name}"
