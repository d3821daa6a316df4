import math

import numpy as np
import pytest

from shapelab.environment import (Constant, Environment, Exponential,
                                  MovingAverage, Pareto, Rotation, TwoValued)

from conftest import box_edges
from frozen import GOLDEN_EXPONENTIAL_SEED42

MODELS = [
    Constant(2.5),
    Exponential(1.0),
    Pareto(2.5),
    TwoValued(1.0, 2.0, 0.5),
    Rotation(),
    MovingAverage((0.5, 0.25, 0.25)),
]


def test_constant_model():
    env = Environment(Constant(2.5), seed=0, dimension=3)
    assert env.edge_weight(((4, -1, 2), 1)) == 2.5


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_stationarity_exact(model):
    rng = np.random.default_rng(1)
    env = Environment(model, seed=9, dimension=2)
    for _ in range(200):
        k = tuple(int(v) for v in rng.integers(-20, 21, 2))
        base = tuple(int(v) for v in rng.integers(-20, 21, 2))
        axis = int(rng.integers(0, 2))
        shifted_val = env.shift(k).edge_weight((base, axis))
        moved_edge = (tuple(b + kk for b, kk in zip(base, k)), axis)
        assert shifted_val == env.edge_weight(moved_edge)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_nonnegative_and_deterministic(model):
    rng = np.random.default_rng(2)
    bases = rng.integers(-50, 51, (500, 2))
    axes = rng.integers(0, 2, 500)
    env1 = Environment(model, seed=33, dimension=2)
    env2 = Environment(model, seed=33, dimension=2)
    w1 = env1.edge_weights(bases, axes)
    w2 = env2.edge_weights(bases, axes)
    assert np.array_equal(w1, w2)
    assert np.all(w1 >= 0) and np.all(np.isfinite(w1))


def test_shift_group_action():
    env = Environment(Exponential(1.0), seed=5, dimension=3)
    assert env.shift((0, 0, 0)) == env
    assert env.shift((1, 2, 3)).shift((-4, 0, 1)) == env.shift((-3, 2, 4))


def test_rotation_orbit_oracle_d1():
    # f1(x) = x, weight of the edge at base k is frac(x0 + k*alpha)
    alpha = math.sqrt(2) - 1
    model = Rotation(alpha=(alpha,), profiles="identity")
    env = Environment(model, seed=3, dimension=1)
    x0 = env.edge_weight(((0,), 0))
    for k in (1, 2, 7, -5):
        expect = (x0 + k * alpha) % 1.0
        assert env.edge_weight(((k,), 0)) == pytest.approx(expect, abs=1e-12)


def test_iid_independence_proxy():
    env = Environment(Exponential(1.0), seed=12, dimension=2)
    rng = np.random.default_rng(3)
    n = 100_000
    bases_a = rng.integers(-1000, 1000, (n, 2))
    bases_b = bases_a + rng.integers(5, 50, (n, 2))  # disjoint edges
    wa = env.edge_weights(bases_a, np.zeros(n, dtype=int))
    wb = env.edge_weights(bases_b, np.ones(n, dtype=int))
    corr = np.corrcoef(wa, wb)[0, 1]
    assert abs(corr) < 0.01


def test_exponential_golden_fixture():
    env = Environment(Exponential(1.0), seed=42, dimension=2)
    for edge, expect in GOLDEN_EXPONENTIAL_SEED42.items():
        assert env.edge_weight(edge) == expect


def test_moving_average_is_kernel_sum():
    base = Exponential(1.0)
    model = MovingAverage((0.5, 0.25), base=base)
    env = Environment(model, seed=8, dimension=2)
    envb = Environment(base, seed=8, dimension=2)
    got = env.edge_weight(((2, 3), 0))
    expect = 0.5 * envb.edge_weight(((2, 3), 0)) + 0.25 * envb.edge_weight(((3, 3), 0))
    assert got == pytest.approx(expect, rel=1e-15)


def test_sample_field_consistency_and_guard(monkeypatch):
    from shapelab import lattice

    env = Environment(Exponential(1.0), seed=4, dimension=2)
    w = env.sample_field((0, 0), 2, norm="linf")
    edges = box_edges((0, 0), 2, "linf")
    # 5x5 box: 2 axes * 5 * 4 edges
    assert len(edges) == 40
    assert w.tolist() == [env.edge_weight(e) for e in edges]
    monkeypatch.setattr(lattice, "MEMORY_BUDGET", 10 ** 6)
    with pytest.raises(MemoryError, match=r"needs \d+ bytes, above the "
                       r"memory budget of 1000000 bytes"):
        env.sample_field((0, 0), 300)


def test_sample_field_checks_the_limit_before_building_sites(monkeypatch):
    from shapelab import lattice
    from shapelab.lattice import BoxRegion

    def refuse(box):
        raise AssertionError("sites built for a box above the limit")

    monkeypatch.setattr(BoxRegion, "site_array", refuse)
    monkeypatch.setattr(lattice, "MEMORY_BUDGET", 5 * 10 ** 7)
    env = Environment(Exponential(1.0), seed=4, dimension=2)
    # 1101 x 1101 sites, whose graph and edge sample reserve about 64 MB
    with pytest.raises(MemoryError, match=r"box graph of 1212201 sites "
                       r"needs \d+ bytes, .* budget of 50000000 bytes"):
        env.sample_field((0, 0), 550)


def test_sample_field_checks_the_index_slots_before_counting_edges(
        monkeypatch):
    import tracemalloc

    from shapelab import lattice
    from shapelab.lattice import BoxRegion

    def refuse(box):
        raise AssertionError("sites built for a box above the budget")

    monkeypatch.setattr(BoxRegion, "site_array", refuse)
    monkeypatch.setattr(lattice, "MEMORY_BUDGET", 10 ** 8)
    env = Environment(Exponential(1.0), seed=4, dimension=6)
    # an ell-1 ball of radius 8 in d=6 holds 40081 sites; counting them
    # walks the 17**5 rows of a dense head, reserved first at 136 MB
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match=r"counting a d=6 box of radius "
                           r"8 needs 136306272 bytes, .* of 100000000 bytes"):
            env.sample_field((0,) * 6, 8, norm="l1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


def test_invalid_models_rejected():
    with pytest.raises(ValueError):
        Constant(-1.0)
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        TwoValued(1.0, 2.0, 1.5)
    with pytest.raises(ValueError):
        MovingAverage(())


@pytest.mark.parametrize("model, floor", [
    (Constant(2.5), 2.5),
    (Exponential(1.0), 0.0),
    (Pareto(1.5, 0.7), 0.7),
    (TwoValued(3.0, 1.5, 0.5), 1.5),
    (Rotation(), 0.0),
    (Rotation(profiles="shifted"), 0.5),
    (Rotation(profiles=("shifted", "shifted", "shifted")), 0.5),
    (Rotation(profiles=("shifted", "cosine", "shifted")), 0.0),
    (MovingAverage((0.1, 0.2)), 0.0),
    (MovingAverage((0.1, 0.2), TwoValued(1.0, 2.0)), 0.1 * 1.0 + 0.2 * 1.0),
], ids=lambda v: None if isinstance(v, float) else type(v).__name__)
def test_floor_bounds_every_sampled_weight(model, floor):
    assert model.floor() == floor
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        bases = rng.integers(-10**6, 10**6, size=(20000, d))
        axes = rng.integers(0, d, size=20000)
        for seed in (0, 9):
            w = Environment(model, seed=seed, dimension=d).edge_weights(
                bases, axes)
            assert w.min() >= model.floor()


def test_moving_average_floor_follows_the_kernel_order():
    # with a constant base every weight is the floor's own accumulation;
    # sum(kernel) * base rounds to a larger float here, which no weight
    # reaches
    model = MovingAverage((0.1, 0.2), Constant(0.50375))
    w = Environment(model, seed=0, dimension=2).edge_weights(
        np.zeros((4, 2), dtype=np.int64), np.array([0, 1, 0, 1]))
    assert np.all(w == model.floor())
    assert sum(model.kernel) * 0.50375 > model.floor()


@pytest.mark.parametrize("model, ceiling", [
    (Constant(2.5), 2.5),
    (Exponential(0.5), 2.0 * 36.7368005696771),
    (Pareto(1.5, 0.7), 0.7 * 2.0 ** (53 / 1.5)),
    (TwoValued(3.0, 1.5, 0.5), 3.0),
    (Rotation(), 1.0),
    (Rotation(profiles=("shifted", "cosine", "tent")), 1.5),
    (MovingAverage((0.1, 0.2), TwoValued(1.0, 2.0)), 0.1 * 2.0 + 0.2 * 2.0),
], ids=lambda v: None if isinstance(v, float) else type(v).__name__)
def test_ceiling_bounds_every_sampled_weight(model, ceiling):
    assert model.ceiling() == pytest.approx(ceiling, rel=1e-12)
    rng = np.random.default_rng(6)
    for d in (1, 2, 3):
        bases = rng.integers(-10**6, 10**6, size=(20000, d))
        axes = rng.integers(0, d, size=20000)
        w = Environment(model, seed=3, dimension=d).edge_weights(bases, axes)
        assert w.max() <= model.ceiling()


@pytest.mark.parametrize("model", [
    Exponential(1e-3), Pareto(0.06), Pareto(3.0, 2.5),
    MovingAverage((0.5, 2.0), Pareto(0.5))],
    ids=lambda m: type(m).__name__)
def test_ceiling_is_the_weight_of_the_largest_variate(monkeypatch, model):
    # counter_uniform never returns more than 1 - 2**-53
    from shapelab import environment

    monkeypatch.setattr(environment, "counter_uniform",
                        lambda seed, counters: np.full(len(counters),
                                                       1.0 - 2.0 ** -53))
    w = model.weights(0, np.zeros((3, 2), dtype=np.int64), np.arange(3) % 2)
    assert np.all(w == model.ceiling())


@pytest.mark.parametrize("make", [
    lambda: Exponential(1e-308),
    lambda: Pareto(0.01),
    lambda: Pareto(2.0, math.inf),
    lambda: TwoValued(1.0, math.inf),
    lambda: MovingAverage((1e308, 1e308)),
    lambda: MovingAverage((1e308, 1e308), Rotation(profiles="shifted")),
], ids=["exponential", "pareto", "pareto_scale", "two_valued",
        "moving_average", "moving_average_rotation"])
def test_models_whose_weights_can_overflow_are_refused(make):
    with pytest.raises(ValueError, match="can overflow"):
        make()


def test_rotation_floor_rejects_unknown_profiles():
    with pytest.raises(ValueError):
        Rotation(profiles="square").floor()


@pytest.mark.parametrize("model", [
    Rotation(profiles=("shifted",)),
    Rotation(alpha=(0.3,)),
    Rotation(alpha=(0.3, 0.1, 0.2)),
    MovingAverage((0.5, 0.5), Rotation(profiles=("tent",))),
], ids=["short_profiles", "short_alpha", "long_alpha", "moving_average"])
def test_rotation_tuples_must_cover_the_dimension(model):
    with pytest.raises(ValueError, match="dimension 2"):
        Environment(model, seed=0, dimension=2)
    with pytest.raises(ValueError, match="dimension 2"):
        model.weights(0, np.zeros((3, 2), dtype=np.int64), np.arange(3) % 2)


def test_rotation_profiles_past_the_last_axis_are_unused():
    # a profile per axis of d=3 serves d=1 and d=2 as well
    model = Rotation(profiles=("shifted", "cosine", "tent"))
    for d in (1, 2):
        env = Environment(model, seed=1, dimension=d)
        short = Environment(Rotation(profiles=model.profiles[:d]), seed=1,
                            dimension=d)
        bases = np.arange(8 * d).reshape(8, d)
        axes = np.arange(8) % d
        assert np.array_equal(env.edge_weights(bases, axes),
                              short.edge_weights(bases, axes))


def test_rotation_rejects_unknown_profile_when_made():
    with pytest.raises(ValueError, match="square"):
        Rotation(profiles=("identity", "square"))


def test_sample_field_keeps_the_order():
    env = Environment(Exponential(1.0), seed=6, dimension=3)
    for norm in ("linf", "l1"):
        w = env.sample_field((1, 0, -1), 2, norm)
        assert isinstance(w, np.ndarray)
        assert w.tolist() == [env.edge_weight(e)
                              for e in box_edges((1, 0, -1), 2, norm)]
    # a box of radius 0 holds one site and no edge
    assert env.sample_field((0, 0, 0), 0).shape == (0,)


BATCH_MODELS = MODELS + [
    Rotation(alpha=0.3, profiles="cosine"),
    Rotation(profiles=("tent", "shifted", "identity", "cosine")),
    MovingAverage((0.5, 0.5), Rotation(profiles="tent")),
]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("model", BATCH_MODELS, ids=repr)
def test_weights_do_not_depend_on_the_batch(model, d):
    # a weight is a pure function of the model, the seed and the edge:
    # one-edge calls, random splits and the whole batch agree bit for bit
    rng = np.random.default_rng(5)
    env = Environment(model, seed=5, dimension=d)
    bases = rng.integers(-1000, 1000, size=(600, d))
    axes = rng.integers(0, d, size=600)
    whole = env.edge_weights(bases, axes)
    single = np.array([env.edge_weight((tuple(b), int(a)))
                       for b, a in zip(bases.tolist(), axes)])
    cuts = np.sort(rng.choice(np.arange(1, 600), size=20, replace=False))
    split = np.concatenate([env.edge_weights(b, a) for b, a in
                            zip(np.split(bases, cuts), np.split(axes, cuts))])
    assert whole.tobytes() == single.tobytes() == split.tobytes()
