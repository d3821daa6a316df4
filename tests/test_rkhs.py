import cmath
import math

import numpy as np
import pytest

from shapelab.rkhs import (MoebiusMap, hyperbolic_distance, kernel,
                           kernel_metric, large_scale_compare, random_walk)

TWO_LOG_TWO = 2 * math.log(2)


def _random_points(rng, n, radius=0.85):
    pts = []
    while len(pts) < n:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z) < radius:
            pts.append(z)
    return pts


def _random_map(rng, tmax=1.5):
    return MoebiusMap.from_parameters(rng.uniform(0, tmax),
                                      rng.uniform(0, 2 * math.pi),
                                      rng.uniform(0, 2 * math.pi))


def test_disk_point_validation():
    kernel(0.3 + 0.4j, 0.0)
    hyperbolic_distance(0.3 + 0.4j, 0.0)
    for outside in (1.0, 0.8 + 0.7j):
        for fn in (kernel, hyperbolic_distance):
            with pytest.raises(ValueError, match="open unit disc"):
                fn(outside, 0.0)
            with pytest.raises(ValueError, match="open unit disc"):
                fn(0.0, outside)


def test_kernel_at_origin_vanishes():
    rng = np.random.default_rng(0)
    for z in _random_points(rng, 20):
        assert kernel(0.0, z) == 0.0
        assert kernel(z, z).real == pytest.approx(-math.log(1 - abs(z) ** 2),
                                                  rel=1e-14)
        assert kernel(z, z).real > 0 or z == 0


def test_kernel_hermitian_symmetry():
    rng = np.random.default_rng(1)
    pts = _random_points(rng, 20)
    for z, w in zip(pts, reversed(pts)):
        assert kernel(z, w) == pytest.approx(kernel(w, z).conjugate(),
                                             rel=1e-14)


def test_kernel_gram_positive_semidefinite():
    rng = np.random.default_rng(2)
    pts = _random_points(rng, 8)
    G = np.array([[kernel(zi, zj) for zj in pts] for zi in pts])
    eig = np.linalg.eigvalsh((G + G.conj().T) / 2)
    assert eig.min() >= -1e-10


def test_kernel_metric_identities():
    rng = np.random.default_rng(3)
    for z in _random_points(rng, 200):
        assert kernel_metric(z, z) == 0.0
        assert kernel_metric(0.0, z) == pytest.approx(
            -math.log(1 - abs(z) ** 2), rel=1e-12)
    pts = _random_points(rng, 100)
    for z, w in zip(pts, reversed(pts)):
        assert kernel_metric(z, w) == kernel_metric(w, z)
        assert kernel_metric(z, w) >= -1e-12


def test_hyperbolic_distance_formulas():
    assert hyperbolic_distance(0.0, 0.5) == pytest.approx(math.log(3),
                                                          rel=1e-15)
    assert hyperbolic_distance(0.3 - 0.2j, 0.3 - 0.2j) == 0.0


def test_moebius_group_action():
    rng = np.random.default_rng(4)
    ident = MoebiusMap.identity()
    for z in _random_points(rng, 20):
        assert ident.apply(z) == z
    for _ in range(200):
        g, h = _random_map(rng), _random_map(rng)
        z = _random_points(rng, 1)[0]
        assert abs(g.compose(h).apply(z) - g.apply(h.apply(z))) <= 1e-12
        gi = g.inverse()
        assert abs(gi.apply(g.apply(z)) - z) <= 1e-12


def test_moebius_invariance_of_hyperbolic_distance():
    rng = np.random.default_rng(5)
    for _ in range(300):
        g = _random_map(rng)
        z, w = _random_points(rng, 2, radius=0.8)
        assert hyperbolic_distance(g.apply(z), g.apply(w)) == pytest.approx(
            hyperbolic_distance(z, w), abs=1e-12)


def test_cocycle_products_of_generators():
    # Z_{n+m} = Z_n . (increments shifted by n)
    inc = random_walk(7, 30)
    def prod(gs):
        acc = MoebiusMap.identity()
        for g in gs:
            acc = acc.compose(g)
        return acc
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(1, 15))
        m = int(rng.integers(1, 15))
        whole = prod(inc[:n + m])
        left = prod(inc[:n])
        right = prod(inc[n:n + m])
        z = _random_points(rng, 1)[0]
        assert abs(whole.apply(z) - left.compose(right).apply(z)) <= 1e-9


def test_origin_gap_identity():
    # -log(1-|w|^2) = beta(o, w) - 2 log(1+|w|)
    rng = np.random.default_rng(7)
    for z in _random_points(rng, 1000, radius=0.999):
        lhs = -math.log(1 - abs(z) ** 2)
        rhs = hyperbolic_distance(0.0, z) - 2 * math.log1p(abs(z))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
        assert abs(kernel_metric(0.0, z) - hyperbolic_distance(0.0, z)) \
            <= TWO_LOG_TWO


def test_walk_series_gap_bound_and_shrinkage():
    series = large_scale_compare(random_walk(17, 1000))
    assert len(series) == 1000
    for _, d, beta in series:
        assert abs(d - beta) <= TWO_LOG_TWO
    # short steps keep both metrics near zero
    tiny = large_scale_compare(random_walk(3, 50, step_scale=1e-4))
    assert max(d for _, d, _ in tiny) < 0.02


def test_walk_log_space_matches_direct_evaluation():
    inc = random_walk(5, 40, step_scale=0.1)
    series = large_scale_compare(inc)
    acc = MoebiusMap.identity()
    for (k, d, beta), g in zip(series, inc):
        acc = acc.compose(g)
        w = acc.apply(0.0)
        assert d == pytest.approx(kernel_metric(0.0, w), abs=1e-10)
        assert beta == pytest.approx(hyperbolic_distance(0.0, w), abs=1e-10)


def test_walk_determinism():
    a = large_scale_compare(random_walk(9, 100))
    b = large_scale_compare(random_walk(9, 100))
    assert a == b
