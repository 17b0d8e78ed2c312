"""Shared fixtures: reference markets and random-market factories."""

import os
import sys

import numpy as np
import pytest

from fisher_infer.markets import (
    Linear1DValuation,
    LongRunSpec,
    Uniform01Supply,
    random_linear1d_spec,
)

# the scripts are importable, so that tests can share and check their helpers
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "scripts"))

from solve_digest import random_market as _random_market


@pytest.fixture
def symmetric_spec() -> LongRunSpec:
    """Two mirrored buyers, v1 = 2-2t, v2 = 2t, equal budgets.

    Every long-run quantity is known in closed form for this market:
    beta* = (2/3, 2/3), breakpoints (0, 1/2, 1), u* = (3/4, 3/4),
    NSW* = log(3/4), sigma2 = 1/27, Omega2 = 29/48 per buyer.
    """
    return LongRunSpec(
        budgets=np.array([0.5, 0.5]),
        valuation=Linear1DValuation(c=np.array([-2.0, 2.0]), d=np.array([2.0, 0.0])),
        supply=Uniform01Supply(),
    )


@pytest.fixture
def five_buyer_spec() -> LongRunSpec:
    # fixed seed keeps the long-run reference solvable and stable across runs
    return random_linear1d_spec(5, seed=42)


def _box_point(budgets: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    # a uniform draw from the multiplier box C = prod_i [b_i/2, 2]
    lo = budgets / 2.0
    return gen.uniform(lo, 2.0)


@pytest.fixture
def box_point():
    """Factory drawing beta uniformly from the box C = prod [b_i/2, 2]."""
    return _box_point
