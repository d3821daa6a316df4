import math

import numpy as np
import pytest

from shapelab.schrodinger import (PotentialModel, TransferCocycle, lyapunov,
                                  operator_norm_2x2, transfer_product_scaled)

FREE = PotentialModel("constant", energy=0.0, value=0.0)
IID = PotentialModel("iid_uniform", energy=0.3, amplitude=1.0)


def transfer_product(tc: TransferCocycle, n: int) -> np.ndarray:
    """Dense S(n, x); raises if the product has outgrown float range."""
    scaled = transfer_product_scaled(tc, n)
    if scaled.log_scale + math.log(max(np.max(np.abs(scaled.mat)), 1e-300)) > 700:
        raise OverflowError("transfer product exceeds float range; use "
                            "transfer_product_scaled")
    return scaled.dense()


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


def test_nonfinite_potential_rejected():
    with pytest.raises(ValueError):
        PotentialModel("constant", energy=math.inf)
    with pytest.raises(ValueError):
        PotentialModel("smooth")


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
    for n in (1, -1, 7, -7, 1000, -1000, 1025, -1025):
        ref = _reference_log_norm(tc, n)
        got = transfer_product_scaled(tc, n).log_norm()
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (n, got, ref)


@pytest.mark.parametrize("pot", KERNEL_POTENTIALS, ids=lambda p: p.kind)
def test_log_norm_of_transfer_products_is_a_semimetric(pot):
    # rho(m, n) = log |S(n - m, T^m x)|: S(m, n) is the inverse of S(n, m)
    # in SL(2, R), of the same norm, at least 1, and submultiplicative
    tc = TransferCocycle(pot, seed=7)

    def rho(m, n):
        return transfer_product_scaled(tc.shifted(m), n - m).log_norm()

    assert rho(4, 4) == 0.0
    rng = np.random.default_rng(2)
    for _ in range(100):
        m, n, k = (int(v) for v in rng.integers(-40, 41, 3))
        dmn = rho(m, n)
        assert dmn >= -1e-12
        assert dmn == pytest.approx(rho(n, m), rel=1e-9, abs=1e-9)
        assert dmn <= rho(m, k) + rho(k, n) + 1e-9


def test_transfer_products_solve_the_difference_equation():
    # S(k, x) (u_0, u_1) = (u_k, u_{k+1}) for u_{j+2} = (E - V_j) u_{j+1} - u_j
    tc = TransferCocycle(PotentialModel("bernoulli", energy=0.1), seed=4,
                         offset=9)
    prev, cur, scale = 0.3, -1.1, 0.0
    for k in range(1, 2051):
        prev, cur = cur, float(tc.one_step(k - 1)[1, 1]) * cur - prev
        mag = max(abs(prev), abs(cur))
        if mag > 1e8:
            prev, cur = prev / mag, cur / mag
            scale += math.log(mag)
        if k in (1, 2, 10, 100, 1024, 1025, 2050):
            s = transfer_product_scaled(tc, k)
            got = s.mat @ np.array([0.3, -1.1]) * math.exp(s.log_scale - scale)
            want = np.array([prev, cur])
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
    assert scale > 0.0


# n up to, at and across an ORBIT_CHUNK (1024) boundary: the pass to 2n
# continues the n-step state, so its batches start at n
@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 1500])
def test_debiased_lyapunov_single_pass_is_exact(n):
    pot = PotentialModel("bernoulli", energy=0.5)
    seeds = 3
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
