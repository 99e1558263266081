"""Risk measure routes: oracles, LP form, and sampling weights must agree."""

import numpy as np
import pytest

from hydrosddp.risk import (
    EmptyInput,
    RiskMeasure,
    WeightVector,
    quantile_position,
    sampling_weights,
    uniform_weights,
)
from oracles import cvar_oracle, rho, rho_lp, var_oracle


def random_measure(rng, integral_quantile_for=None):
    """Random (lam, alpha); optionally force alpha*L to be an integer."""
    lam = float(rng.uniform(0.0, 1.0))
    if integral_quantile_for is None:
        alpha = float(rng.uniform(0.0, 0.95))
    else:
        n = integral_quantile_for
        alpha = float(rng.integers(0, n)) / n
    return RiskMeasure(lam=lam, alpha=alpha)


# ---------------------------------------------------------------------------
# Construction guards


def test_measure_bounds_enforced():
    RiskMeasure(lam=0.0, alpha=0.0)
    RiskMeasure(lam=1.0, alpha=0.99)
    with pytest.raises(ValueError):
        RiskMeasure(lam=1.5, alpha=0.5)
    with pytest.raises(ValueError):
        RiskMeasure(lam=0.5, alpha=1.0)  # worst-case limit rejected
    with pytest.raises(ValueError):
        RiskMeasure(lam=-0.1, alpha=0.5)


def test_weight_vector_guards():
    with pytest.raises(ValueError):
        WeightVector([0.5, 0.6])
    with pytest.raises(ValueError):
        WeightVector([-0.1, 1.1])
    with pytest.raises(ValueError):
        WeightVector([])
    assert len(uniform_weights(4)) == 4


# ---------------------------------------------------------------------------
# VaR / CVaR / rho oracles


def test_var_examples():
    assert var_oracle([1, 2, 3, 4], 0.5) == 2
    assert var_oracle([5, 5], 0.9) == 5
    assert var_oracle([7], 0.0) == 7
    with pytest.raises(EmptyInput):
        var_oracle([], 0.5)


def test_var_is_empirical_quantile():
    # Independent check: smallest atom with CDF >= alpha.
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        v = rng.integers(-20, 20, n).astype(float)
        alpha = float(rng.uniform(0.0, 0.99))
        s = np.sort(v)
        cdf = np.arange(1, n + 1) / n
        expect = s[np.argmax(cdf >= alpha - 1e-12)]
        assert var_oracle(v, alpha) == expect


def test_cvar_examples():
    assert cvar_oracle([1, 2, 3, 4], 0.5) == pytest.approx(3.5, abs=1e-12)
    assert cvar_oracle([1, 2, 3, 4], 0.0) == pytest.approx(2.5, abs=1e-12)
    assert cvar_oracle([5, 5], 0.5) == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(EmptyInput):
        cvar_oracle([], 0.5)


def test_rho_examples():
    m = RiskMeasure(lam=0.5, alpha=0.5)
    assert rho([1, 2, 3, 4], m) == pytest.approx(3.0, abs=1e-12)
    assert rho([9, 1, 4], RiskMeasure(lam=0.0, alpha=0.7)) == pytest.approx(14 / 3)
    assert rho([9, 1, 4], RiskMeasure(lam=1.0, alpha=0.0)) == pytest.approx(14 / 3)


def test_rho_lp_examples():
    value, z, deltas = rho_lp([1, 2, 3, 4], RiskMeasure(lam=0.5, alpha=0.5))
    assert value == pytest.approx(3.0, abs=1e-8)
    assert 2.0 - 1e-9 <= z <= 3.0 + 1e-9  # flat region of the anchor
    assert np.all(deltas >= np.maximum(np.array([1, 2, 3, 4]) - z, 0.0) - 1e-9)
    value, _, _ = rho_lp([5, 5], RiskMeasure(lam=0.3, alpha=0.6))
    assert value == pytest.approx(5.0, abs=1e-8)
    value, _, _ = rho_lp([10, 20], RiskMeasure(lam=1.0, alpha=0.5))
    assert value == pytest.approx(20.0, abs=1e-8)


def test_rho_lp_matches_oracle_randomized():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        n = int(rng.integers(1, 10))
        v = rng.uniform(-50, 50, n)
        m = random_measure(rng)
        assert rho_lp(v, m)[0] == pytest.approx(rho(v, m), abs=1e-8)


# ---------------------------------------------------------------------------
# Sampling weights


def test_weight_examples():
    w = sampling_weights([1, 2, 3, 4], RiskMeasure(lam=0.5, alpha=0.5))
    assert w.weights == pytest.approx([0.125, 0.125, 0.375, 0.375], abs=1e-12)
    assert w.weights @ np.array([1, 2, 3, 4]) == pytest.approx(3.0, abs=1e-12)

    w = sampling_weights([10, 20], RiskMeasure(lam=1.0, alpha=0.5))
    assert w.weights == pytest.approx([0.0, 1.0], abs=1e-12)

    w = sampling_weights([8.0, 3.0, 5.0], RiskMeasure(lam=0.0, alpha=0.77))
    assert np.all(w.weights == 1.0 / 3.0)  # exact uniform collapse


def test_weight_distribution_properties():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        n = int(rng.integers(1, 9))
        betas = rng.uniform(-10, 100, n)
        m = random_measure(rng, integral_quantile_for=n)
        w = sampling_weights(betas, m).weights
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert w @ betas == pytest.approx(rho(betas, m), abs=1e-9)


def test_weight_dot_product_nonintegral_quantile():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        betas = rng.uniform(-10, 100, n)
        m = random_measure(rng)
        w = sampling_weights(betas, m).weights
        assert np.all(w >= 0.0)
        assert w @ betas == pytest.approx(rho(betas, m), abs=1e-9)


def test_permutation_equivariance():
    rng = np.random.default_rng(31)
    betas = np.array([4.0, -2.0, 4.0, 9.0, 0.5])
    m = RiskMeasure(lam=0.7, alpha=0.4)
    w = sampling_weights(betas, m).weights
    for _ in range(20):
        perm = rng.permutation(betas.size)
        wp = sampling_weights(betas[perm], m).weights
        assert np.array_equal(wp, w[perm])


def test_monotone_in_lambda():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        betas = np.sort(rng.uniform(0, 50, n)) + np.arange(n)  # distinct
        alpha = float(rng.integers(0, n)) / n
        prev = -np.inf
        for lam in np.linspace(0.0, 1.0, 11):
            m = RiskMeasure(lam=float(lam), alpha=alpha)
            val = sampling_weights(betas, m).weights @ betas
            assert val >= prev - 1e-12
            prev = val


def test_quantile_position_edges():
    assert quantile_position(0.0, 5) == 1
    assert quantile_position(0.5, 4) == 2
    assert quantile_position(0.5, 3) == 2   # ceil(1.5)
    assert quantile_position(0.1, 10) == 1  # float noise must not push to 2
    assert quantile_position(0.99, 2) == 2


def test_clamped_weights_renormalizes():
    # lam=1 and alpha*n just above an integer: quantile_position's slack
    # rounds down, the closed-form VaR weight comes out slightly negative,
    # and sampling_weights clips it to zero and renormalises.
    betas = np.array([0.2, 0.9, 0.4, 0.7])
    m = RiskMeasure(lam=1.0, alpha=0.75 + 1e-10)
    assert quantile_position(m.alpha, 4) == 3
    w = sampling_weights(betas, m)
    assert w.weights.tolist() == [0.0, 1.0, 0.0, 0.0]
    m = RiskMeasure(lam=1.0, alpha=0.5 + 2.5e-10)
    assert quantile_position(m.alpha, 2) == 1
    w = sampling_weights(np.array([0.3, 0.8]), m)
    assert w.weights == pytest.approx([0.0, 1.0], abs=1e-15)
    assert w.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_negative_weight_is_defensively_unreachable():
    # No weight handed out by sampling_weights is negative: sweep a random
    # grid, and the quantile slack just above every integer alpha*n, where
    # the closed-form pivot goes negative before clipping.
    rng = np.random.default_rng(51)
    cases = [(int(n), RiskMeasure(lam=float(rng.uniform(0, 1)),
                                  alpha=float(rng.uniform(0, 0.999))))
             for n in rng.integers(1, 12, size=3000)]
    cases += [(n, RiskMeasure(lam=1.0, alpha=k / n + delta / n))
              for n in range(2, 12) for k in range(1, n)
              for delta in (1e-10, 2.5e-10, 4e-10)]
    for n, m in cases:
        betas = rng.uniform(0, 1, n)
        w = sampling_weights(betas, m)
        assert isinstance(w, WeightVector)
        assert np.all(w.weights >= 0.0)
        assert abs(w.weights.sum() - 1.0) <= 1e-12
        assert abs(w.weights @ betas - rho(betas, m)) <= 1e-9
