import math
import tracemalloc

import numpy as np
import pytest

from shapelab import lattice

from shapelab.environment import Environment, Exponential
from shapelab.lorentz import (StepFunction, WeightedSample, lorentz_norm,
                              lp_norm, sample_from_environment)

from conftest import box_edges


def distribution_function(sample: WeightedSample, alpha: float) -> float:
    """Total mass where the value strictly exceeds alpha."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return float(np.sum(sample.masses[sample.values > alpha]))


def _random_sample(rng):
    k = int(rng.integers(1, 25))
    return WeightedSample(rng.exponential(1.0, k), rng.uniform(0.05, 1.0, k))


def test_distribution_function_basics():
    s = WeightedSample(np.array([1.0, 3.0]), np.array([0.5, 0.5]))
    assert distribution_function(s, 2.0) == 0.5
    assert distribution_function(s, 0.0) == 1.0
    assert distribution_function(s, 3.0) == 0.0
    const = WeightedSample(np.array([2.0]), np.array([1.0]))
    assert distribution_function(const, 1.9) == 1.0
    assert distribution_function(const, 2.0) == 0.0


def test_distribution_function_nonincreasing():
    rng = np.random.default_rng(0)
    s = _random_sample(rng)
    grid = np.sort(rng.uniform(0, 5, 40))
    vals = [distribution_function(s, a) for a in grid]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_rearrangement_examples():
    ind = WeightedSample(np.array([1.0, 0.0]), np.array([0.3, 0.7]))
    f = ind.rearrangement
    assert f(0.0) == 1.0 and f(0.29) == 1.0 and f(0.3) == 0.0
    two = WeightedSample(np.array([3.0, 1.0]), np.array([0.25, 0.75]))
    g = two.rearrangement
    assert g(0.1) == 3.0 and g(0.25) == 1.0 and g(0.99) == 1.0 and g(1.0) == 0.0


def test_rearrangement_equimeasurable():
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = _random_sample(rng)
        f = s.rearrangement
        for alpha in rng.uniform(0, 4, 10):
            d1 = distribution_function(s, alpha)
            d2 = sum((f.breaks[i + 1] - f.breaks[i])
                     for i in range(len(f.levels)) if f.levels[i] > alpha)
            assert d1 == pytest.approx(d2, abs=1e-12)


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        StepFunction(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0]))


def test_constant_norm_identity():
    s = WeightedSample(np.array([2.5]), np.array([1.0]))
    for p in (1.0, 1.5, 2.0, 4.0):
        assert lorentz_norm(s, p, 1.0) == pytest.approx(2.5 * p, rel=1e-15)


def test_indicator_norm_identity():
    for a in (0.1, 0.3, 0.9):
        s = WeightedSample(np.array([1.0, 0.0]), np.array([a, 1.0 - a]))
        for p in (1.0, 2.0, 3.0):
            assert lorentz_norm(s, p, 1.0) == pytest.approx(
                p * a ** (1.0 / p), rel=1e-14)


def test_diagonal_indices_recover_lp():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        s = _random_sample(rng)
        p = float(rng.uniform(1.0, 4.0))
        assert lorentz_norm(s, p, p) == pytest.approx(lp_norm(s, p), rel=1e-12)


def test_homogeneity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = _random_sample(rng)
        c = float(rng.uniform(0.1, 10.0))
        p, q = float(rng.uniform(1, 4)), float(rng.uniform(1, 4))
        assert lorentz_norm(s.scaled(c), p, q) == pytest.approx(
            abs(c) * lorentz_norm(s, p, q), rel=1e-12)


def test_valuewise_monotonicity():
    rng = np.random.default_rng(4)
    for _ in range(100):
        k = int(rng.integers(1, 15))
        masses = rng.uniform(0.05, 1.0, k)
        small = rng.exponential(1.0, k)
        big = small + rng.uniform(0.0, 2.0, k)
        p, q = float(rng.uniform(1, 3)), float(rng.uniform(1, 3))
        assert (lorentz_norm(WeightedSample(big, masses), p, q)
                >= lorentz_norm(WeightedSample(small, masses), p, q) - 1e-12)


def test_weak_norm_is_sup_of_corners():
    s = WeightedSample(np.array([3.0, 1.0]), np.array([0.25, 0.75]))
    got = lorentz_norm(s, 2.0, math.inf)
    expect = max(math.sqrt(0.25) * 3.0, math.sqrt(1.0) * 1.0)
    assert got == pytest.approx(expect, rel=1e-15)


def test_divergent_is_inf_not_error():
    s = WeightedSample(np.array([1.0]), np.array([1.0]))
    assert lorentz_norm(s, math.inf, 2.0) == math.inf


def test_zero_sample():
    s = WeightedSample(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
    assert lorentz_norm(s, 2.0, 1.0) == 0.0
    assert lorentz_norm(s, 2.0, math.inf) == 0.0


def test_sample_from_environment_and_csv(tmp_path):
    env = Environment(Exponential(1.0), seed=5, dimension=2)
    s = sample_from_environment(env, (0, 0), 3)
    assert s.total_mass == pytest.approx(1.0, rel=1e-12)
    path = tmp_path / "sample.csv"
    np.savetxt(path, np.stack([s.values, s.masses], axis=1), delimiter=",")
    raw = np.loadtxt(path, delimiter=",", ndmin=2)
    again = WeightedSample(raw[:, 0], raw[:, 1])
    assert lorentz_norm(again, 2.0, 1.0) == pytest.approx(
        lorentz_norm(s, 2.0, 1.0), rel=1e-12)


def test_validation_rejects_bad_samples():
    with pytest.raises(ValueError):
        WeightedSample(np.array([-1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        WeightedSample(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        lorentz_norm(WeightedSample(np.array([1.0]), np.array([1.0])), 0.5, 1.0)


def test_rearrangement_is_sorted_once_per_sample(monkeypatch):
    rng = np.random.default_rng(3)
    s = _random_sample(rng)
    fresh = WeightedSample(s.values.copy(), s.masses.copy())
    norms = [lorentz_norm(fresh, p, q) for p, q in
             [(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (4.0, math.inf)]]
    sorts = []
    argsort = np.argsort

    def spy(*args, **kwargs):
        sorts.append(1)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    again = [lorentz_norm(s, p, q) for p, q in
             [(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (4.0, math.inf)]]
    assert len(sorts) == 1 and again == norms


def test_sample_from_environment_takes_the_field_weights_in_order():
    env = Environment(Exponential(1.0), seed=8, dimension=2)
    s = sample_from_environment(env, (1, -1), 4)
    edges = box_edges((1, -1), 4)
    assert s.values.tolist() == [env.edge_weight(e) for e in edges]
    assert np.all(s.masses == 1.0 / len(edges))


@pytest.mark.parametrize("d, radius", [(1, 200001), (2, 300)])
def test_sample_and_its_norms_peak_below_their_reservation(monkeypatch, d,
                                                           radius):
    # exponential weights are all distinct, so the rearrangement has a
    # step per edge; at d = 1 the norms outweigh the graph and its sample
    asked = []
    reserve = lattice.reserve

    def spy(nbytes, what, power=(1, 0)):
        asked.append(nbytes * power[0] ** power[1])
        reserve(nbytes, what, power)

    monkeypatch.setattr(lattice, "reserve", spy)
    env = Environment(Exponential(1.0), seed=0, dimension=d)
    tracemalloc.start()
    try:
        sample = sample_from_environment(env, (0,) * d, radius)
        for p, q in [(1.0, 1.0), (2.0, 3.0), (1.5, math.inf)]:
            lorentz_norm(sample, p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sample.values) > 400000
    assert peak < max(asked)
