import math

import numpy as np
import pytest

from shapelab.schrodinger import (DifferenceSolution, LyapunovEstimate,
                                  PotentialModel, TransferCocycle, lyapunov,
                                  matrix_semimetric, operator_norm_2x2,
                                  solve_difference, transfer_product,
                                  transfer_product_scaled,
                                  transfer_products_scaled)

FREE = PotentialModel("constant", energy=0.0, value=0.0)
IID = PotentialModel("iid_uniform", energy=0.3, amplitude=1.0)


def test_identity_at_zero():
    assert np.array_equal(transfer_product(TransferCocycle(FREE), 0), np.eye(2))


def test_free_case_rotation_of_order_four():
    tc = TransferCocycle(FREE)
    assert np.array_equal(transfer_product(tc, 1),
                          np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(transfer_product(tc, 4), np.eye(2), atol=1e-15)
    assert np.allclose(transfer_product(tc, -4), np.eye(2), atol=1e-15)


def test_cocycle_identity_random():
    tc = TransferCocycle(IID, seed=5)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(-100, 101))
        m = int(rng.integers(-100, 101))
        whole = transfer_product_scaled(tc, n + m)
        right = transfer_product_scaled(tc, m)
        left = transfer_product_scaled(tc.shifted(m), n)
        prod = left.mat @ right.mat
        scale = left.log_scale + right.log_scale - whole.log_scale
        rel = (np.max(np.abs(prod * math.exp(scale) - whole.mat))
               / max(np.max(np.abs(whole.mat)), 1e-300))
        assert rel <= 1e-9


def test_unimodularity_in_representable_regime():
    # small-amplitude potential keeps the condition number within float
    # resolution out to 1000 steps
    quiet = PotentialModel("iid_uniform", energy=0.0, amplitude=0.05)
    tc = TransferCocycle(quiet, seed=3)
    for n in (10, 100, 1000, -1000):
        s = transfer_product_scaled(tc, n)
        assert abs(s.log_det()) <= 1e-9
    tc2 = TransferCocycle(IID, seed=5)
    for n in (10, 50, 100, -100):
        assert abs(transfer_product_scaled(tc2, n).log_det()) <= 1e-9


def test_operator_norm_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.normal(size=(2, 2))
        assert operator_norm_2x2(a) == pytest.approx(
            np.linalg.norm(a, 2), rel=1e-12)


def test_semimetric_axioms():
    tc = TransferCocycle(IID, seed=7)
    rng = np.random.default_rng(2)
    assert matrix_semimetric(tc, 4, 4) == 0.0
    free = TransferCocycle(FREE)
    assert matrix_semimetric(free, -3, 11) == 0.0
    for _ in range(300):
        m, n, k = (int(v) for v in rng.integers(-40, 41, 3))
        dmn = matrix_semimetric(tc, m, n)
        dnm = matrix_semimetric(tc, n, m)
        assert dmn == dnm and dmn >= 0.0
        assert dmn <= (matrix_semimetric(tc, m, k)
                       + matrix_semimetric(tc, k, n) + 1e-9)


def test_semimetric_stationarity():
    tc = TransferCocycle(IID, seed=4)
    for shift in (1, -3, 10):
        a = matrix_semimetric(tc.shifted(shift), 0, 6)
        b = matrix_semimetric(tc, shift, 6 + shift)
        assert a == pytest.approx(b, rel=1e-12)


def test_lyapunov_free_case_zero():
    est = lyapunov(PotentialModel("constant", energy=0.0), 1000, n_seeds=2)
    assert abs(est.value) <= 1e-12


def test_lyapunov_constant_gap_three():
    est = lyapunov(PotentialModel("constant", energy=3.0), 10_000, n_seeds=2)
    assert est.value == pytest.approx(math.log((3 + math.sqrt(5)) / 2),
                                      abs=1e-6)


def test_lyapunov_bernoulli_positive_and_stable():
    pot = PotentialModel("bernoulli", energy=0.0)
    est = lyapunov(pot, 4000, n_seeds=8)
    est4 = lyapunov(pot, 16_000, n_seeds=8)
    assert est.value > 5 * est.stderr > 0
    assert abs(est.value - est4.value) <= 1.96 * (est.stderr + est4.stderr)


def test_lyapunov_origin_shift_within_ci():
    pot = PotentialModel("bernoulli", energy=0.5)
    n = 4000
    base = []
    shifted = []
    for s in range(8):
        tc = TransferCocycle(pot, seed=s)
        base.append(transfer_product_scaled(tc, n).log_norm() / n)
        shifted.append(
            transfer_product_scaled(tc.shifted(137), n).log_norm() / n)
    base, shifted = np.asarray(base), np.asarray(shifted)
    se = base.std(ddof=1) / math.sqrt(len(base))
    assert abs(base.mean() - shifted.mean()) < 1.96 * 2 * se


def test_log_norm_subadditivity_in_mean():
    pot = PotentialModel("iid_uniform", energy=0.2)
    n = 200
    short, long = [], []
    for s in range(200):
        tc = TransferCocycle(pot, seed=s)
        short.append(max(transfer_product_scaled(tc, n).log_norm(), 0.0))
        long.append(max(transfer_product_scaled(tc, 2 * n).log_norm(), 0.0))
    short, long = np.asarray(short), np.asarray(long)
    se = math.sqrt(long.var(ddof=1) / 200 + 4 * short.var(ddof=1) / 200)
    assert long.mean() <= 2 * short.mean() + 3 * se


def test_difference_free_period_four():
    sol = solve_difference(0.0, 1.0, TransferCocycle(FREE), 8)
    assert sol.dense().tolist() == [0.0, 1.0, 0.0, -1.0, -0.0, 1.0, 0.0, -1.0, -0.0]


def test_difference_zero_initial_is_zero():
    sol = solve_difference(0.0, 0.0, TransferCocycle(IID, seed=2), 50)
    assert np.all(sol.dense() == 0.0)


def test_difference_matches_transfer_products():
    tc = TransferCocycle(IID, seed=5)
    a, b = 0.7, -0.2
    sol = solve_difference(a, b, tc, 1000)
    for k in (1, 10, 100, 500, 999):
        s = transfer_product_scaled(tc, k)
        vec = s.mat @ np.array([a, b])
        got = sol.values[k] * math.exp(sol.log_scales[k] - s.log_scale)
        assert got == pytest.approx(vec[0], rel=1e-9, abs=1e-12)


def test_nonfinite_potential_rejected():
    with pytest.raises(ValueError):
        PotentialModel("constant", energy=math.inf)
    with pytest.raises(ValueError):
        PotentialModel("smooth")


def test_matrix_semimetric_shape_smoke():
    # inf-of-means of the log-norm semimetric along the orbit approaches
    # the growth-rate estimate, the one-dimensional shape constant
    pot = PotentialModel("bernoulli", energy=0.0)
    ks = [250, 500, 1000, 2000]
    means = []
    for k in ks:
        vals = [matrix_semimetric(TransferCocycle(pot, seed=s), 0, k) / k
                for s in range(6)]
        means.append(float(np.mean(vals)))
    assert all(a >= b - 1e-12 for a, b in zip(means, means[1:]))
    est = lyapunov(pot, 4000, n_seeds=6)
    assert min(means) == pytest.approx(est.value, abs=0.02)


KERNEL_POTENTIALS = [
    PotentialModel("constant", energy=3.0, value=0.5),
    PotentialModel("iid_uniform", energy=0.3, amplitude=1.5),
    PotentialModel("bernoulli", energy=0.5, amplitude=1.0),
    PotentialModel("rotation", energy=0.2, amplitude=2.0),
]


def _reference_log_norm(tc, n):
    """log |S(n, x)| from one_step matrices multiplied in numpy, with the
    same renormalization rule; n < 0 multiplies inverse factors."""
    acc, log_scale = np.eye(2), 0.0
    steps = range(n) if n >= 0 else range(-1, n - 1, -1)
    for k in steps:
        step = tc.one_step(k)
        acc = (step if n >= 0 else np.linalg.inv(step)) @ acc
        m = float(np.max(np.abs(acc)))
        if m > 1e8:
            acc /= m
            log_scale += math.log(m)
    return log_scale + math.log(operator_norm_2x2(acc))


@pytest.mark.parametrize("pot", KERNEL_POTENTIALS, ids=lambda p: p.kind)
def test_scalar_kernel_matches_one_step_products(pot):
    tc = TransferCocycle(pot, seed=3, offset=-5)
    for n in (1, -1, 7, -7, 1000, -1000):
        ref = _reference_log_norm(tc, n)
        got = transfer_product_scaled(tc, n).log_norm()
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (n, got, ref)


def test_products_at_several_marks_match_separate_passes():
    tc = TransferCocycle(IID, seed=8)
    for marks in ([0, 3, 1024, 1500], [-2, -1025]):
        together = transfer_products_scaled(tc, marks)
        for m, prod in zip(marks, together):
            alone = transfer_product_scaled(tc, m)
            assert np.array_equal(prod.mat, alone.mat)
            assert prod.log_scale == alone.log_scale
    with pytest.raises(ValueError):
        transfer_products_scaled(tc, [3, -3])


def test_debiased_lyapunov_single_pass_is_exact():
    pot = PotentialModel("bernoulli", energy=0.5)
    n, seeds = 1500, 3
    vals = []
    for s in range(seeds):
        tc = TransferCocycle(pot, seed=10 + s)
        long = max(transfer_product_scaled(tc, 2 * n).log_norm(), 0.0)
        short = max(transfer_product_scaled(tc, n).log_norm(), 0.0)
        vals.append((long - short) / n)
    arr = np.asarray(vals)
    est = lyapunov(pot, n, n_seeds=seeds, seed0=10)
    assert est.value == float(arr.mean())
    assert est.stderr == float(arr.std(ddof=1) / math.sqrt(seeds))


def test_difference_matches_one_step_recurrence():
    tc = TransferCocycle(PotentialModel("bernoulli", energy=0.1), seed=4,
                         offset=9)
    n_steps = 2050
    sol = solve_difference(0.3, -1.1, tc, n_steps)
    prev, cur, scale = 0.3, -1.1, 0.0
    for k in range(1, n_steps):
        prev, cur = cur, float(tc.one_step(k - 1)[1, 1]) * cur - prev
        mag = max(abs(prev), abs(cur))
        if mag > 1e8:
            prev, cur = prev / mag, cur / mag
            scale += math.log(mag)
        assert sol.values[k + 1] == cur and sol.log_scales[k + 1] == scale
