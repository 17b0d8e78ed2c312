"""Market primitives: specs, sampling, the sampled dual, serialization.

A long-run market is a continuum of items indexed by a type theta drawn
from a supply distribution, with n buyers holding budgets b_i and linear
valuations v_i(theta) >= 0.  A finite market replaces the continuum with
t sampled items, each carrying supply 1/t.

The central object throughout is the sampled dual objective

    H_t(beta) = (1/t) sum_tau max_i beta_i V[i, tau] - sum_i b_i log beta_i

over pacing multipliers beta > 0.  Its minimizer beta recovers the market
equilibrium via u_i = b_i / beta_i and per-item prices max_i beta_i V[i, tau].
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# ---------------------------------------------------------------------------
# Valuations and supply
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Linear1DValuation:
    """Linear valuations v_i(theta) = c_i * theta + d_i on theta in [0, 1]."""

    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float))
        if self.c.ndim != 1 or self.c.shape != self.d.shape:
            raise ValueError("c and d must be 1-d arrays of equal length")
        # v_i is linear, so nonnegativity on [0,1] reduces to the endpoints
        if np.any(self.d < 0) or np.any(self.c + self.d < 0):
            raise ValueError("valuations must be nonnegative on [0, 1]")

    @property
    def n(self) -> int:
        return len(self.c)

    def values_at(self, theta: np.ndarray) -> np.ndarray:
        """Value matrix with shape (n, len(theta))."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return self.c[:, None] * theta[None, :] + self.d[:, None]

    def means(self) -> np.ndarray:
        """Integral of each v_i over theta ~ U[0, 1]."""
        return self.c / 2.0 + self.d


@dataclass(frozen=True)
class LinearMDValuation:
    """Linear valuations v_i(theta) = a_i . theta + c_i on the unit cube."""

    a: np.ndarray  # shape (n, dim)
    c: np.ndarray  # shape (n,)

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        if self.a.ndim != 2 or self.c.shape != (self.a.shape[0],):
            raise ValueError("a must be (n, dim) and c must be (n,)")
        worst = self.c + np.minimum(self.a, 0.0).sum(axis=1)
        if np.any(worst < 0):
            raise ValueError("valuations must be nonnegative on the cube")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    def values_at(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.ndim == 1:
            theta = theta[None, :]
        return self.a @ theta.T + self.c[:, None]

    def means(self) -> np.ndarray:
        return self.a.sum(axis=1) / 2.0 + self.c


@dataclass(frozen=True)
class Uniform01Supply:
    """Item types distributed uniformly on [0, 1]."""

    dim = 1


@dataclass(frozen=True)
class UniformCubeSupply:
    """Item types distributed uniformly on [0, 1]^dim."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


Valuation = Linear1DValuation | LinearMDValuation
Supply = Uniform01Supply | UniformCubeSupply


# ---------------------------------------------------------------------------
# Specs and finite markets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LongRunSpec:
    """A long-run market: budgets plus a valuation profile and item supply.

    Parameters
    ----------
    budgets : array of positive buyer budgets, length n.
    valuation : Linear1DValuation or LinearMDValuation over the same n buyers.
    supply : distribution of item types; must match the valuation dimension.
    """

    budgets: np.ndarray
    valuation: Valuation
    supply: Supply = field(default_factory=Uniform01Supply)

    def __post_init__(self):
        object.__setattr__(self, "budgets", np.asarray(self.budgets, dtype=float))
        if self.budgets.ndim != 1 or len(self.budgets) != self.valuation.n:
            raise ValueError("budgets must be 1-d with one entry per buyer")
        if np.any(self.budgets <= 0):
            raise ValueError("budgets must be positive")
        vdim = 1 if isinstance(self.valuation, Linear1DValuation) else self.valuation.dim
        if vdim != self.supply.dim:
            raise ValueError("valuation dimension does not match supply")
        if np.any(self.valuation.means() <= 0):
            raise ValueError("each buyer must have positive mean value")

    @property
    def n(self) -> int:
        return len(self.budgets)


@dataclass(frozen=True)
class FiniteMarket:
    """A sampled market: value matrix V (n buyers x t items), supply 1/t each."""

    V: np.ndarray
    budgets: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "V", np.asarray(self.V, dtype=float))
        object.__setattr__(self, "budgets", np.asarray(self.budgets, dtype=float))
        if self.V.ndim != 2:
            raise ValueError("V must be a 2-d array (buyers x items)")
        if self.budgets.shape != (self.V.shape[0],):
            raise ValueError("budgets must have one entry per buyer")
        if np.any(self.budgets <= 0):
            raise ValueError("budgets must be positive")
        if np.any(self.V < 0):
            raise ValueError("values must be nonnegative")
        if np.all(self.V <= 0):
            raise ValueError("market must contain at least one positive value")

    @property
    def n(self) -> int:
        return self.V.shape[0]

    @property
    def t(self) -> int:
        return self.V.shape[1]


def normalize_spec(spec: LongRunSpec) -> LongRunSpec:
    """Rescale a spec so mean values are 1 and budgets sum to 1.

    Scaling buyer i's value function by a positive constant only rescales
    that buyer's multiplier, so equilibrium allocations are unchanged.
    """
    m = spec.valuation.means()
    if isinstance(spec.valuation, Linear1DValuation):
        val = Linear1DValuation(c=spec.valuation.c / m, d=spec.valuation.d / m)
    else:
        val = LinearMDValuation(a=spec.valuation.a / m[:, None], c=spec.valuation.c / m)
    return LongRunSpec(budgets=spec.budgets / spec.budgets.sum(), valuation=val,
                       supply=spec.supply)


def sample_items(spec: LongRunSpec, t: int, seed: int) -> FiniteMarket:
    """Draw t item types i.i.d. from the supply and tabulate values.

    The underlying uniform stream is counter-based (Philox keyed by seed)
    and consumed in item-major order, so item tau depends only on
    (seed, tau): growing t extends the market without disturbing the
    items already drawn, and thread count cannot affect the result.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    gen = np.random.Generator(np.random.Philox(key=seed))
    dim = spec.supply.dim
    theta = gen.random((t, dim))
    if isinstance(spec.valuation, Linear1DValuation):
        V = spec.valuation.values_at(theta[:, 0])
    else:
        V = spec.valuation.values_at(theta)
    return FiniteMarket(V=V, budgets=spec.budgets.copy())


# A draw of n sorted slopes on (-1.8, 1.8) has every gap above 1e-3 with
# probability (1 - (n - 1) 1e-3 / 3.6)^n; past this n it is below 1e-6.
_RANDOM_SPEC_MAX_N = 220
# Most slope draws random_linear1d_spec makes at once.
_SLOPE_CHUNK = 1024


def random_linear1d_spec(n: int, seed: int) -> LongRunSpec:
    """Random normalized 1-D linear-valuation spec for experiments.

    Slopes are drawn uniform on (-1.8, 1.8) and sorted ascending with a
    minimum separation, intercepts are then pinned by the unit-mean
    constraint d_i = 1 - c_i/2, which keeps every value positive on
    [0, 1] and the intercepts strictly decreasing.  Budgets are uniform
    around 1/n and renormalized.  The slopes are redrawn until they are
    separated, so n is capped at 220, where a draw still passes with
    probability 1e-6.  The draws come in chunks of rows, one row first,
    then twice as many each time; the stream is then replayed up to the
    first separated row, so the spec is the one a row-by-row draw gives.
    """
    if n < 1:
        raise ValueError("need at least one buyer")
    if n > _RANDOM_SPEC_MAX_N:
        raise ValueError(f"random_linear1d_spec supports at most {_RANDOM_SPEC_MAX_N} "
                         f"buyers (got {n}): slope draws would almost never be separated")
    gen = np.random.Generator(np.random.Philox(key=seed ^ 0x5EED))
    rows = 1
    while True:
        state = gen.bit_generator.state
        C = np.sort(gen.uniform(-1.8, 1.8, size=(rows, n)), axis=1)
        ok = np.flatnonzero(np.diff(C, axis=1).min(axis=1, initial=np.inf) > 1e-3)
        if ok.size:
            break
        rows = min(2 * rows, _SLOPE_CHUNK)
    c = C[ok[0]]
    if ok[0] < rows - 1:
        # leave the stream just past the separated row, for the budgets
        gen.bit_generator.state = state
        gen.uniform(size=(ok[0] + 1) * n)
    d = 1.0 - c / 2.0
    b = gen.uniform(0.5, 1.5, size=n)
    b = b / b.sum()
    return LongRunSpec(budgets=b, valuation=Linear1DValuation(c=c, d=d),
                       supply=Uniform01Supply())


# ---------------------------------------------------------------------------
# Dual objective and subgradient
# ---------------------------------------------------------------------------


def dual_value_sample(market: FiniteMarket, beta: np.ndarray) -> float:
    """Sampled dual H_t(beta) = mean_tau max_i beta_i V[i,tau] - sum b_i log beta_i."""
    beta = _check_beta(market.n, beta)
    bids = beta[:, None] * market.V
    return float(bids.max(axis=0).mean() - (market.budgets * np.log(beta)).sum())


def dual_subgradient_sample(market: FiniteMarket, beta: np.ndarray) -> np.ndarray:
    """A subgradient of H_t at beta.

    Each item contributes its value to the winning buyer's coordinate;
    ties go to the lowest buyer index.  The log barrier contributes
    -b_i / beta_i.
    """
    beta = _check_beta(market.n, beta)
    bids = beta[:, None] * market.V
    winner = bids.argmax(axis=0)  # argmax takes the lowest index on ties
    g = -market.budgets / beta
    np.add.at(g, winner, market.V[winner, np.arange(market.t)] / market.t)
    return g


def _check_beta(n: int, beta) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (n,):
        raise ValueError(f"beta must have shape ({n},)")
    if np.any(beta <= 0) or not np.all(np.isfinite(beta)):
        raise ValueError("beta must be positive and finite")
    return beta


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def spec_to_dict(spec: LongRunSpec) -> dict:
    val = spec.valuation
    if isinstance(val, Linear1DValuation):
        vd = {"kind": "linear1d", "c": val.c.tolist(), "d": val.d.tolist()}
    else:
        vd = {"kind": "linear_md", "a": val.a.tolist(), "c": val.c.tolist()}
    if isinstance(spec.supply, Uniform01Supply):
        sd = {"kind": "uniform01"}
    else:
        sd = {"kind": "uniform_cube", "dim": spec.supply.dim}
    return {
        "n": spec.n,
        "budgets": spec.budgets.tolist(),
        "valuation": vd,
        "supply": sd,
    }


def spec_from_dict(data: dict) -> LongRunSpec:
    """The spec that data describes; a missing key raises ValueError naming it."""
    try:
        vd = data["valuation"]
        if vd["kind"] == "linear1d":
            val: Valuation = Linear1DValuation(c=np.array(vd["c"]), d=np.array(vd["d"]))
        elif vd["kind"] == "linear_md":
            val = LinearMDValuation(a=np.array(vd["a"]), c=np.array(vd["c"]))
        else:
            raise ValueError(f"unknown valuation kind {vd['kind']!r}")
        sd = data.get("supply", {"kind": "uniform01"})
        if sd["kind"] == "uniform01":
            sup: Supply = Uniform01Supply()
        elif sd["kind"] == "uniform_cube":
            sup = UniformCubeSupply(dim=int(sd["dim"]))
        else:
            raise ValueError(f"unknown supply kind {sd['kind']!r}")
        spec = LongRunSpec(budgets=np.array(data["budgets"]), valuation=val, supply=sup)
        if "n" in data and int(data["n"]) != spec.n:
            raise ValueError("declared n does not match budgets length")
        return spec
    except KeyError as exc:
        raise ValueError(f"market spec has no {exc.args[0]!r} entry") from None


def save_spec(spec: LongRunSpec, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)
        fh.write("\n")


def load_spec(path: str) -> LongRunSpec:
    with open(path) as fh:
        return spec_from_dict(json.load(fh))


__all__ = [
    "Linear1DValuation",
    "LinearMDValuation",
    "Uniform01Supply",
    "UniformCubeSupply",
    "LongRunSpec",
    "FiniteMarket",
    "normalize_spec",
    "sample_items",
    "random_linear1d_spec",
    "dual_value_sample",
    "dual_subgradient_sample",
    "spec_to_dict",
    "spec_from_dict",
    "save_spec",
    "load_spec",
]
