import math

import numpy as np
import pytest

from shapelab.cli import _cocycle_from_spec
from shapelab.cocycle import (AutocorrSample, CircleRotation,
                              DegenerateDirectionError, HilbertCocycle,
                              OperatorSample, RotationSample, SeededShift,
                              add_generators, axis_field_generator,
                              cesaro_fejer_average, coboundary_generator,
                              constant_generator, drift_map,
                              fourier_generator, horofunction_empirical,
                              horofunction_limit, kingman_decompose,
                              mean_ergodic_projection, spectral_rate,
                              twisted_coboundary_generator)

ALPHAS = (math.sqrt(2) - 1, math.sqrt(3) - 1)


def _rot(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


@pytest.fixture
def gaussian_cocycle():
    return HilbertCocycle(3, SeededShift(11, 2), axis_field_generator(3))


def test_zero_direction_is_zero_vector(gaussian_cocycle):
    assert np.array_equal(gaussian_cocycle.evaluate((0, 0)), np.zeros(3))


def test_constant_generator_telescopes():
    v = np.array([1.0, 2.0])
    c = HilbertCocycle(2, SeededShift(3, 2), constant_generator(v))
    assert np.array_equal(c.evaluate((3, -1)), 2 * v)
    assert np.array_equal(c.evaluate((0, 0)), np.zeros(2))


def test_additivity_and_path_independence(gaussian_cocycle):
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = tuple(int(v) for v in rng.integers(-5, 6, 2))
        m = tuple(int(v) for v in rng.integers(-5, 6, 2))
        nm = tuple(a + b for a, b in zip(n, m))
        lhs = gaussian_cocycle.evaluate(n) + gaussian_cocycle.evaluate_between(n, nm)
        assert np.max(np.abs(lhs - gaussian_cocycle.evaluate(nm))) <= 1e-12
        gap = (gaussian_cocycle.evaluate(n, (0, 1))
               - gaussian_cocycle.evaluate(n, (1, 0)))
        assert np.max(np.abs(gap)) <= 1e-12


def test_representation_validation():
    with pytest.raises(ValueError, match="orthogonal"):
        HilbertCocycle(2, SeededShift(0, 1), constant_generator([1.0, 0.0]),
                       (np.array([[1.0, 1.0], [0.0, 1.0]]),))
    th = 0.4
    noncommuting = (np.array([[1.0, 0.0], [0.0, -1.0]]), _rot(th))
    with pytest.raises(ValueError, match="commute"):
        HilbertCocycle(2, SeededShift(0, 2), constant_generator([1.0, 0.0]),
                       noncommuting)


def test_twisted_equivariance_and_path_independence():
    reps = (_rot(0.3), _rot(1.1))
    dyn = SeededShift(4, 2)

    def g(dyn_, off):
        return dyn_.uniforms(off, 55, 2)

    c = HilbertCocycle(2, dyn, twisted_coboundary_generator(g, reps), reps)
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = tuple(int(v) for v in rng.integers(-4, 5, 2))
        gap = c.evaluate(n, (0, 1)) - c.evaluate(n, (1, 0))
        assert np.max(np.abs(gap)) <= 1e-12
        # lambda(e_k) s_{T_{e_k} x}(0, n) = s_x(e_k, n + e_k)
        k = int(rng.integers(0, 2))
        ek = tuple(1 if j == k else 0 for j in range(2))
        lhs = reps[k] @ c.shifted(ek).evaluate(n)
        rhs = c.evaluate_between(ek, tuple(a + b for a, b in zip(n, ek)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_drift_constant_is_exact():
    v = np.array([0.5, -1.5])
    c = HilbertCocycle(2, SeededShift(0, 2), constant_generator(v))
    dm = drift_map(c, 50)
    assert np.array_equal(dm.columns[:, 0], v)
    assert np.array_equal(dm.columns[:, 1], v)
    assert np.array_equal(dm((2.0, -1.0)), v)


def test_drift_rejects_nontrivial_representation():
    reps = (_rot(0.2),)
    c = HilbertCocycle(2, SeededShift(0, 1),
                       constant_generator([1.0, 0.0]), reps)
    with pytest.raises(ValueError, match="identity representation"):
        drift_map(c, 10)


def test_drift_fourier_mean_zero_with_riemann_oracle():
    c = HilbertCocycle(2, CircleRotation(ALPHAS[:1], 0.37), fourier_generator())
    N = 20000
    dm = drift_map(c, N, diagnostic_points=(100, 2000))
    # oracle: the same Birkhoff sum evaluated directly on the orbit
    x = 0.37
    acc = np.zeros(2)
    for _ in range(N):
        acc += np.array([math.cos(2 * math.pi * x), math.sin(2 * math.pi * x)])
        x = (x + ALPHAS[0]) % 1.0
    assert np.max(np.abs(dm.columns[:, 0] - acc / N)) <= 1e-12
    assert np.linalg.norm(dm.columns[:, 0]) < 1e-3
    assert dm.diagnostics[0][1] > dm.diagnostics[1][1] * 0.0  # recorded


def test_coboundary_cocycle_stays_bounded():
    def g(dyn, off):
        x = dyn.point(off)
        return np.array([math.sin(2 * math.pi * x), math.cos(2 * math.pi * x)])

    c = HilbertCocycle(2, CircleRotation(ALPHAS[:1], 0.2),
                       coboundary_generator(g))
    sup_g = 1.0
    for n in (10, 100, 1000):
        assert np.linalg.norm(c.evaluate((n,))) <= 2 * sup_g + 1e-12
    dm = drift_map(c, 5000)
    assert np.linalg.norm(dm.columns[:, 0]) <= 2 * sup_g / 5000 + 1e-12


def test_kingman_constant_generator_zero_remainder():
    v = np.array([3.0, 4.0])
    c = HilbertCocycle(2, SeededShift(1, 1), constant_generator(v))
    kd = kingman_decompose(c, 100, drift_vector=v)
    assert kd.drift == 5.0
    assert np.max(np.abs(kd.remainders)) <= 1e-9
    assert np.all(kd.phi == 5.0)


def test_kingman_coboundary_remainder_bound():
    amp = 0.7

    def g(dyn, off):
        x = dyn.point(off)
        return amp * np.array([math.sin(2 * math.pi * x),
                               math.cos(2 * math.pi * x)])

    v = np.array([2.0, 0.0])
    gen = add_generators(constant_generator(v), coboundary_generator(g))
    c = HilbertCocycle(2, CircleRotation(ALPHAS[:1], 0.11), gen)
    kd = kingman_decompose(c, 5000, drift_vector=v)
    assert kd.remainders.min() >= -1e-9 * max(1, kd.length)
    assert kd.remainders.max() <= 4 * amp + 1e-9


def test_kingman_mean_zero_remainder_drift():
    c = HilbertCocycle(2, CircleRotation(ALPHAS[:1], 0.41), fourier_generator())
    kd = kingman_decompose(c, 10_000, drift_orbit=10_000)
    assert kd.remainders.min() >= -1e-9 * kd.length
    assert kd.remainders[-1] / kd.length <= 1e-2
    series = kd.remainder_drift_series
    assert series[-1] <= series[99]  # r_n/n shrinks along the orbit


def test_horofunction_empirical_identities(gaussian_cocycle):
    zero = (0, 0)
    assert horofunction_empirical(gaussian_cocycle, (3, 2), zero) == 0.0
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = tuple(int(v) for v in rng.integers(-6, 7, 2))
        n = tuple(int(v) for v in rng.integers(-6, 7, 2))
        h = horofunction_empirical(gaussian_cocycle, m, n)
        rho0n = gaussian_cocycle.semimetric(zero, n)
        assert abs(h) <= rho0n + 1e-12
    n = (2, -3)
    assert horofunction_empirical(gaussian_cocycle, zero, n) == pytest.approx(
        gaussian_cocycle.semimetric(zero, n))


def test_horofunction_limit_matches_brute_force():
    v = np.array([3.0, 4.0])
    c = HilbertCocycle(2, SeededShift(0, 2), constant_generator(v))
    dm = drift_map(c, 10)
    eta = (1.0, 0.0)
    for n in [(1, 0), (2, 1), (-1, 2), (0, -2)]:
        lim = horofunction_limit(c, eta, n, dm)
        emp = horofunction_empirical(c, (1 << 12, 0), n)
        assert lim == pytest.approx(emp, abs=1e-9)


def test_horofunction_limit_antisymmetry():
    v = np.array([1.0, 1.0])
    c = HilbertCocycle(2, SeededShift(0, 2), constant_generator(v))
    dm = drift_map(c, 10)
    eta = (0.5, 0.5)
    for n in [(1, 0), (2, -1)]:
        minus = tuple(-x for x in n)
        assert horofunction_limit(c, eta, n, dm) == pytest.approx(
            -horofunction_limit(c, eta, minus, dm), rel=1e-12)


def test_horofunction_degenerate_direction():
    c = HilbertCocycle(2, CircleRotation(ALPHAS[:1], 0.3), fourier_generator())
    dm = drift_map(c, 40000)
    with pytest.raises(DegenerateDirectionError):
        # mean-zero generator: every direction pairs to a ~null drift;
        # make it exactly null to hit the guard
        horofunction_limit(c, (0.0,), (1,), dm)


def test_fejer_identity_invariant_vector():
    sp = RotationSample(0.0, amplitude=2.0)
    for n in (1, 5, 16):
        lhs, rhs = cesaro_fejer_average(sp, n)
        assert lhs == pytest.approx(n * 4.0, rel=1e-12)
        assert rhs == pytest.approx(n * 4.0, rel=1e-12)


def test_fejer_identity_half_rotation():
    lhs, rhs = cesaro_fejer_average(RotationSample(0.5), 3)
    assert lhs == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rhs == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_fejer_identity_generic_specs():
    specs = [
        RotationSample(ALPHAS[0]),
        OperatorSample(_rot(0.7), np.array([1.0, 0.0])),
        OperatorSample(np.kron(np.eye(2), _rot(1.3))[[0, 1, 2, 3]][:, [0, 1, 2, 3]],
                       np.array([0.5, -0.5, 1.0, 0.25])),
    ]
    for sp in specs:
        for n in range(1, 65):
            lhs, rhs = cesaro_fejer_average(sp, n)
            assert abs(lhs - rhs) <= 1e-10


def test_mean_ergodic_projection_identity_operator():
    f = np.array([0.3, -0.4])
    sp = OperatorSample(np.eye(2), f)
    for n in (1, 7, 30):
        # triangular coefficients sum exactly to n^2
        assert np.max(np.abs(mean_ergodic_projection(sp, n) - f)) <= 1e-12


def test_mean_ergodic_projection_rotation_decays():
    sp = RotationSample(ALPHAS[0])
    vals = [abs(mean_ergodic_projection(sp, n)) for n in (10, 100, 1000, 10000)]
    assert vals[-1] < 1e-3
    bound = [n * v for n, v in zip((10, 100, 1000, 10000), vals)]
    assert max(bound) < 2.0 / abs(2 * math.sin(math.pi * ALPHAS[0]))


def test_mean_ergodic_projection_block_operator():
    # invariant first coordinate, rotating remaining block
    U = np.eye(3)
    U[1:, 1:] = _rot(1.0)
    f = np.array([0.8, 1.0, -0.5])
    sp = OperatorSample(U, f)
    got = mean_ergodic_projection(sp, 10_000)
    assert np.max(np.abs(got - np.array([0.8, 0.0, 0.0]))) <= 1e-6
    assert np.max(np.abs(sp.invariant_component() - [0.8, 0.0, 0.0])) <= 1e-12


def test_spectral_rate_white_exact():
    sp = AutocorrSample("white", sigma2=2.0)
    rows = spectral_rate(sp, [1, 2, 8, 64])
    for n, r, ratio in rows:
        assert r == pytest.approx(2.0 * n, rel=1e-12)
        assert ratio == pytest.approx(2.0, rel=1e-12)


def test_spectral_rate_geometric_limit():
    r = 0.5
    sp = AutocorrSample("geometric", sigma2=1.0, ratio=r)
    rows = spectral_rate(sp, [10, 100, 1000, 4000])
    ratios = [row[2] for row in rows]
    assert ratios == sorted(ratios)
    assert ratios[-1] == pytest.approx((1 + r) / (1 - r), rel=1e-3)
    assert max(ratios) <= (1 + r) / (1 - r)


def test_spectral_rate_rejects_invariant_mass():
    with pytest.raises(ValueError):
        spectral_rate(OperatorSample(np.eye(2), np.array([1.0, 0.0])), [4])
    with pytest.raises(ValueError):
        spectral_rate(RotationSample(0.0), [4])
    with pytest.raises(ValueError):
        spectral_rate(RotationSample(3.0), [4])  # integer rotation


def test_autocorr_sample_validation():
    with pytest.raises(ValueError):
        AutocorrSample("pink")
    with pytest.raises(ValueError):
        AutocorrSample("geometric", ratio=1.5)


# --------------------------------------------------------------------------
# batched orbits against one-step-at-a-time loops

ORBIT_LENGTHS = (1, 1024, 1025, 2049)
ROTATION = {"kind": "rotation", "alphas": [ALPHAS[0]], "x0": 0.3}
SHIPPED_GENERATOR_SPECS = {
    "constant": {"dynamics": {"kind": "shift", "seed": 5, "dimension": 2},
                 "generator": {"kind": "constant", "value": [3.0, -4.0]}},
    "fourier": {"dynamics": ROTATION, "generator": {"kind": "fourier"}},
    "mixed": {"dynamics": ROTATION,
              "generator": {"kind": "mixed", "value": [2.0, 0.0],
                            "coboundary": 1.0}},
    "axis_field": {"dynamics": {"kind": "shift", "seed": 9, "dimension": 2},
                   "generator": {"kind": "axis_field"}, "dim_space": 3},
}


def _one_step(c, offset, axis):
    return np.asarray(c.generator(c.dynamics, tuple(offset), axis, 1),
                      dtype=float)[0]


def _stepwise_evaluate(c, n):
    total = np.zeros(c.dim_space)
    offset = [0] * c.dim_group
    reps = c.representation
    lam = np.eye(c.dim_space)
    for k in range(c.dim_group):
        for _ in range(abs(n[k])):
            if n[k] > 0:
                fval = _one_step(c, offset, k)
                total = total + (fval if reps is None else lam @ fval)
                offset[k] += 1
                if reps is not None:
                    lam = lam @ reps[k]
            else:
                offset[k] -= 1
                if reps is not None:
                    lam = lam @ reps[k].T
                fval = _one_step(c, offset, k)
                total = total - (fval if reps is None else lam @ fval)
    return total


def _stepwise_drift(c, length):
    cols = np.zeros((c.dim_space, c.dim_group))
    for k in range(c.dim_group):
        acc = np.zeros(c.dim_space)
        for j in range(length):
            acc += _one_step(c, [j if i == k else 0
                                 for i in range(c.dim_group)], k)
        cols[:, k] = acc / length
    return cols


def _stepwise_kingman(c, length, xi):
    rho, phi = np.zeros(length + 1), np.zeros(length)
    total = np.zeros(c.dim_space)
    for k in range(length):
        fval = _one_step(c, [k] + [0] * (c.dim_group - 1), 0)
        total = total + fval
        rho[k + 1] = np.linalg.norm(total)
        phi[k] = float(xi @ fval)
    return rho, phi


@pytest.mark.parametrize("kind", sorted(SHIPPED_GENERATOR_SPECS))
def test_batched_orbits_match_stepwise_loops(kind):
    c = _cocycle_from_spec(SHIPPED_GENERATOR_SPECS[kind])
    d = c.dim_group
    for length in ORBIT_LENGTHS:
        cols = drift_map(c, length).columns
        assert np.array_equal(cols, _stepwise_drift(c, length))
        drift = cols[:, 0] + 0.5  # keeps the direction away from zero
        kd = kingman_decompose(c, length, drift_vector=drift)
        rho, phi = _stepwise_kingman(c, length, drift / np.linalg.norm(drift))
        assert np.array_equal(kd.rho, rho) and np.array_equal(kd.phi, phi)
        for sign in (1, -1):
            n = (sign * length,) + (-3,) * (d - 1)
            assert np.array_equal(c.evaluate(n), _stepwise_evaluate(c, n))
            if d == 2:
                n = (2, -sign * length)
                assert np.array_equal(c.evaluate(n), _stepwise_evaluate(c, n))


def test_twisted_batched_evaluate_matches_stepwise_loop():
    reps = (_rot(0.3), _rot(1.1))

    def g(dyn_, off):
        return dyn_.uniforms(off, 55, 2)

    c = HilbertCocycle(2, SeededShift(4, 2),
                       twisted_coboundary_generator(g, reps), reps)
    for n in [(1025, -2), (-1025, 3), (0, -1024), (-1, 1)]:
        assert np.array_equal(c.evaluate(n), _stepwise_evaluate(c, n))


def test_rotation_axis_points_match_point():
    dyn = CircleRotation(ALPHAS, 0.77)
    for offset in [(0, 0), (-7, 3), (5, -2000)]:
        for axis in (0, 1):
            pts = dyn.axis_points(offset, axis, 1025)
            want = [dyn.point(tuple(o + j if i == axis else o
                                    for i, o in enumerate(offset)))
                    for j in range(1025)]
            assert pts.tolist() == want
