import math

import numpy as np
import pytest

from shapelab.environment import (Constant, Environment, Exponential,
                                  MovingAverage, Pareto, Rotation, TwoValued,
                                  model_from_spec)

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


def test_sample_field_consistency_and_guard():
    env = Environment(Exponential(1.0), seed=4, dimension=2)
    rows = env.sample_field((0, 0), 2, norm="linf")
    assert all(w == env.edge_weight((base, axis)) for base, axis, w in rows)
    # 5x5 box: 2 axes * 5 * 4 edges
    assert len(rows) == 40
    with pytest.raises(MemoryError):
        env.sample_field((0, 0), 300, max_edges=100)


def test_sample_field_checks_the_limit_before_building_sites(monkeypatch):
    from shapelab.lattice import BoxRegion

    def refuse(box):
        raise AssertionError("sites built for a box above the limit")

    monkeypatch.setattr(BoxRegion, "site_array", refuse)
    env = Environment(Exponential(1.0), seed=4, dimension=2)
    # 1101 x 1101 sites and 2 * 1101 * 1100 edges
    with pytest.raises(MemoryError, match="2422200 edges"):
        env.sample_field((0, 0), 550)


def test_sample_field_checks_the_index_slots_before_counting_edges(
        monkeypatch):
    import tracemalloc

    from shapelab.lattice import MAX_INDEX_SLOTS, BoxRegion

    def refuse(box):
        raise AssertionError("edges counted for a box above the slot limit")

    monkeypatch.setattr(BoxRegion, "edge_count", refuse)
    monkeypatch.setattr(BoxRegion, "site_array", refuse)
    env = Environment(Exponential(1.0), seed=4, dimension=6)
    # an ell-1 ball of radius 8 in d=6 holds fewer edges than the edge
    # limit, in a bounding box of 18**6 slots
    assert BoxRegion((0,) * 6, 8, "l1").index_slots() == 18 ** 6
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError,
                           match=f"{18 ** 6} slots.*{MAX_INDEX_SLOTS}"):
            env.sample_field((0,) * 6, 8, norm="l1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


def test_model_spec_round_trip():
    for model in MODELS:
        again = model_from_spec(model.spec())
        assert again == model
    with pytest.raises(ValueError):
        model_from_spec({"kind": "nope"})


def test_invalid_models_rejected():
    with pytest.raises(ValueError):
        Constant(-1.0)
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        TwoValued(1.0, 2.0, 1.5)
    with pytest.raises(ValueError):
        MovingAverage(())


def test_field_csv_export():
    env = Environment(Exponential(1.0), seed=4, dimension=2)
    text = env.field_csv((0, 0), 1)
    lines = text.strip().splitlines()
    assert lines[0] == "base_0,base_1,axis,weight"
    assert len(lines) == 1 + 12  # 3x3 box: 2 axes x 3 x 2 edges
    base0, base1, axis, w = lines[1].split(",")
    assert repr(float(w)) == w
    assert float(w) == env.edge_weight(((int(base0), int(base1)), int(axis)))


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


def test_sample_field_weights_only_keeps_the_order():
    env = Environment(Exponential(1.0), seed=6, dimension=3)
    rows = env.sample_field((1, 0, -1), 2)
    w = env.sample_field((1, 0, -1), 2, weights_only=True)
    assert isinstance(w, np.ndarray)
    assert w.tolist() == [r[2] for r in rows]
    # a box of radius 0 holds one site and no edge
    assert env.sample_field((0, 0, 0), 0, weights_only=True).shape == (0,)
    assert env.sample_field((0, 0, 0), 0) == []


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
