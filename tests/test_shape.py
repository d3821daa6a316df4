import functools
import math

import numpy as np
import pytest

from shapelab import shape
from shapelab.environment import (Constant, Environment, Exponential,
                                  MovingAverage, Pareto, Rotation, TwoValued)
from shapelab.lattice import BoxRegion, norm1
from shapelab.percolation import EXACT, OPEN, BoxGraph, distance
from shapelab.shape import (default_directions, directional_constant,
                            estimate_shape, generator_sup_field,
                            maximal_bound_rhs, maximal_function,
                            sample_maximal_stats)

from frozen import DOMINATION_CONSTANT


def test_constant_weights_flat_series():
    s = directional_constant(Constant(2.0), range(3), (1, 0), 6, dimension=2)
    assert np.all(s.means == 2.0)
    assert s.estimate == 2.0 and not s.flagged


def test_lower_bound_from_minimum_weight():
    s = directional_constant(TwoValued(1.0, 2.0), range(6), (1, 1), 6,
                             dimension=2)
    assert s.estimate >= 1.0


def test_inf_of_means_monotone_in_horizon():
    model = TwoValued(1.0, 2.0)
    short = directional_constant(model, range(8), (1, 0), 6, dimension=2)
    long = directional_constant(model, range(8), (1, 0), 12, dimension=2)
    assert long.estimate <= short.estimate + 1e-12


def test_rotation_environment_runs_and_triangle():
    # deterministic ergodic weights: estimate completes, and the seminorm
    # triangle inequality holds within three combined standard errors
    model = Rotation(alpha=0.3819660112501051, profiles="shifted")
    est = estimate_shape(model, range(4), [(1, 0), (0, 1), (1, 1)], 8)
    L = {d: s.estimate * norm1(d) for d, s in zip(est.directions, est.series)}
    se = {d: s.estimate_stderr * norm1(d)
          for d, s in zip(est.directions, est.series)}
    assert L[(1, 1)] <= L[(1, 0)] + L[(0, 1)] \
        + 3 * (se[(1, 1)] + se[(1, 0)] + se[(0, 1)])


def test_axis_symmetry_for_symmetric_model():
    model = TwoValued(1.0, 2.0)
    est = estimate_shape(model, range(12), [(1, 0), (-1, 0), (0, 1), (0, -1)],
                         8)
    series = dict(zip(est.directions, est.series))
    for theta in [(1, 0), (0, 1)]:
        minus = tuple(-c for c in theta)
        a, b = series[theta], series[minus]
        gap = abs(a.estimate - b.estimate)
        assert gap <= 2 * (a.estimate_stderr + b.estimate_stderr) + 1e-9


def test_shape_requires_spanning_directions():
    with pytest.raises(ValueError, match="span"):
        estimate_shape(Constant(1.0), range(2), [(1, 0), (2, 0)], 4)


def test_unit_ball_constant_weights():
    est = estimate_shape(Constant(2.0), range(2), default_directions(2, 2), 4)
    verts = est.unit_ball_vertices()
    assert np.max(np.abs(np.sum(np.abs(verts), axis=1) - 0.5)) <= 1e-9


def test_default_directions_primitive_and_spanning():
    dirs = default_directions(2, 2)
    assert (1, 0) in dirs and (0, 1) in dirs and (1, 1) in dirs
    assert all(math.gcd(*[abs(c) for c in d]) == 1 for d in dirs)
    assert len(set(dirs)) == len(dirs)


def test_maximal_function_constant_and_bounded():
    env = Environment(Constant(1.5), seed=0, dimension=2)
    assert maximal_function(env, 4) == 1.5
    envb = Environment(TwoValued(1.0, 2.0), seed=3, dimension=2)
    assert maximal_function(envb, 6) <= 2.0


def test_maximal_function_matches_per_target_queries():
    env = Environment(Exponential(1.0), seed=16, dimension=2)
    W = 4
    got = maximal_function(env, W)
    box = BoxRegion((0, 0), 2 * W, "l1")
    best = 0.0
    for site in BoxRegion((0, 0), W, "l1").sites():
        if site == (0, 0):
            continue
        d = distance(env, (0, 0), site, 0, box=box).value
        best = max(best, d / norm1(site))
    assert got == best


def test_tail_products_bounded_weights_vanish():
    stats = sample_maximal_stats(TwoValued(1.0, 2.0), range(60), 5,
                                 [1.0, 2.5, 4.0], 2)
    rows = stats.tail_products(2)
    assert rows[1][2] == 0.0 and rows[2][2] == 0.0
    assert np.all(np.diff([r[1] for r in rows]) <= 0)


def test_tail_grid_must_start_at_one():
    with pytest.raises(ValueError):
        sample_maximal_stats(Constant(1.0), range(4), 3, [0.5, 1.0], 2)


def test_generator_sup_field_is_incident_max():
    env = Environment(Exponential(1.0), seed=2, dimension=2)
    site = (3, -1)
    got = generator_sup_field(env, [site])[0]
    expect = max(
        env.edge_weight((site, 0)),
        env.edge_weight((site, 1)),
        env.edge_weight(((2, -1), 0)),
        env.edge_weight(((3, -2), 1)),
    )
    assert got == expect


def test_domination_single_step_case():
    env = Environment(Exponential(1.0), seed=8, dimension=2)
    n = (1, 0)
    lhs = distance(env, (0, 0), n, 0,
                   box=BoxRegion((0, 0), 2, "l1")).value
    f0 = generator_sup_field(env, [(0, 0)])[0]
    assert lhs <= f0
    rhs = maximal_bound_rhs(env, n, DOMINATION_CONSTANT[2])
    assert rhs >= lhs


def test_domination_constant_weights():
    env = Environment(Constant(1.0), seed=0, dimension=2)
    for n in [(2, 1), (-3, 0), (1, -4)]:
        lhs = 1.0  # rho(0, n)/|n| is exactly the constant
        assert maximal_bound_rhs(env, n, DOMINATION_CONSTANT[2]) >= lhs


def test_domination_random_grid():
    rng = np.random.default_rng(0)
    for _ in range(60):
        env = Environment(Exponential(1.0), seed=int(rng.integers(1 << 30)),
                          dimension=2)
        n = tuple(int(v) for v in rng.integers(-6, 7, 2))
        if n == (0, 0):
            continue
        N = norm1(n)
        lhs = distance(env, (0, 0), n, 0,
                       box=BoxRegion((0, 0), 2 * N, "l1")).value / N
        assert maximal_bound_rhs(env, n, DOMINATION_CONSTANT[2]) >= lhs


def test_exponential_axis_spread_shrinks():
    # empirical form of the shape convergence: the spread of the tail of
    # the series around its limit tightens as the start index grows
    series = directional_constant(Exponential(1.0), range(100), (1, 0), 32,
                                  dimension=2)
    a = series.means
    L = series.estimate
    spread_from_8 = float(np.max(np.abs(a[7:] - L)))
    spread_from_16 = float(np.max(np.abs(a[15:] - L)))
    spread_from_32 = float(np.abs(a[31] - L))
    assert spread_from_8 >= spread_from_16 >= spread_from_32


def test_two_valued_self_oracle_at_scale():
    # a short run must agree, within combined confidence bands, with an
    # independent run at 4x the horizon and 4x the seeds
    model = TwoValued(1.0, 2.0, 0.5)
    small = directional_constant(model, range(200, 225), (1, 0), 8,
                                 dimension=2)
    big = directional_constant(model, range(100), (1, 0), 32, dimension=2)
    gap = abs(small.estimate - big.estimate)
    band = 1.96 * (small.estimate_stderr + big.estimate_stderr)
    # the short horizon also carries a small systematic excess, since the
    # inf over a longer series can only be lower
    assert small.estimate >= big.estimate - band
    assert gap <= band + 0.05


@pytest.mark.parametrize("model", [Constant(1.0), TwoValued(1.0, 2.0, 0.5),
                                   Pareto(2.0)],
                         ids=["constant", "two_valued", "pareto"])
def test_certified_profile_values_equal_the_4r_box(model):
    # one round at R = 2 * gap; certified values must equal, bit for bit,
    # those of the box of radius 4R
    certified = 0
    for d, theta, n_max in ((2, (2, 1), 5), (3, (1, 0, 0), 4)):
        targets = np.arange(1, n_max + 1)[:, None] * np.asarray(theta)
        center = tuple(c // 2 for c in targets[-1].tolist())
        R = 2 * norm1(theta) * n_max
        for seed in range(4):
            env = Environment(model, seed=seed, dimension=d)
            values, states = shape._direction_profile(
                env, theta, n_max, 1e-9, radius_cap_factor=2)
            g = BoxGraph(env, BoxRegion(center, 4 * R, "l1"))
            far = g.distances_from((0,) * d)[g.rows(targets)]
            exact = states == EXACT
            assert np.array_equal(values[exact], far[exact])
            certified += int(exact.sum())
    assert certified > 0


def test_exponential_profile_is_never_exact():
    for seed in range(3):
        env = Environment(Exponential(1.0), seed=seed, dimension=2)
        values, states = shape._direction_profile(env, (1, 1), 6, 1e-9)
        assert not np.any(states == EXACT) and not np.any(states == OPEN)


def test_later_rounds_keep_unlimited_values(monkeypatch):
    # with tolerance 0 an exponential profile runs every round up to its
    # cap; its limited searches must give what unlimited searches give
    env = Environment(Exponential(1.0), seed=5, dimension=2)
    search = BoxGraph.distances_from
    limits = []

    def spy(self, source, limit=math.inf):
        limits.append(limit)
        return search(self, source, limit)

    monkeypatch.setattr(BoxGraph, "distances_from", spy)
    limited = shape._direction_profile(env, (1, 0), 5, 0.0)
    assert limits[0] == math.inf and len(limits) == 4
    assert all(math.isfinite(v) for v in limits[1:])
    monkeypatch.setattr(BoxGraph, "distances_from",
                        lambda self, source, limit=math.inf:
                        search(self, source))
    unlimited = shape._direction_profile(env, (1, 0), 5, 0.0)
    assert np.array_equal(limited[0], unlimited[0])
    assert np.array_equal(limited[1], unlimited[1])


def test_excluded_fraction_is_the_open_share(monkeypatch):
    # a radius cap of one round leaves some two-valued distances above
    # their certificate margin: only those are excluded
    model, theta, n_max, seeds = TwoValued(1.0, 3.0, 0.5), (1, 0), 6, range(8)
    capped = functools.partial(shape._direction_profile, radius_cap_factor=2)
    profiles = [capped(Environment(model, seed=s, dimension=2), theta, n_max,
                       1e-9) for s in seeds]
    values = np.array([v for v, _ in profiles])
    kept = np.array([states != OPEN for _, states in profiles])
    assert 0 < kept.mean() < 1 and kept.any(axis=0).all()

    monkeypatch.setattr(shape, "_direction_profile", capped)
    series = shape.directional_constant(model, seeds, theta, n_max,
                                        dimension=2)
    assert series.excluded_fraction == pytest.approx(1 - kept.mean(),
                                                     abs=1e-15)
    assert series.flagged == (series.excluded_fraction > 0.10)
    ks = np.arange(1, n_max + 1)
    means = [(values[kept[:, i], i] / ks[i]).mean() for i in range(n_max)]
    assert np.array_equal(series.means, means)


def _separate_maximal(env, W):
    """The maximal function from its own one-environment graph, as
    computed before searches were stacked."""
    zero = (0,) * env.dimension
    g = BoxGraph(env, BoxRegion(zero, 2 * W, "l1"))
    dist = g.distances_from(zero)
    r = np.abs(g.sites).sum(axis=1)
    window = (r > 0) & (r <= W)
    return max(0.0, float(np.max(dist[window] / r[window])))


@pytest.mark.parametrize("model", [
    Constant(1.5), Exponential(1.0), TwoValued(1.0, 2.0, 0.5),
    Rotation(profiles="shifted"), MovingAverage((0.3, 0.7))],
    ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("d, W", [(1, 5), (2, 3), (3, 2)])
def test_stacked_maximal_values_equal_separate_searches(monkeypatch, model,
                                                        d, W):
    # three environments to a stack; seed counts around the stack size
    sites = BoxRegion((0,) * d, 2 * W, "l1").site_count()
    monkeypatch.setattr(shape, "STACK_SITES", 3 * sites + 1)
    builds = []
    build = BoxGraph.__init__

    def spy(self, env, box):
        builds.append(1)
        build(self, env, box)

    for count in (1, 2, 3, 4):
        seeds = range(10, 10 + count)
        monkeypatch.setattr(BoxGraph, "__init__", spy)
        builds.clear()
        values = sample_maximal_stats(model, seeds, W, [1.0], d).values
        assert len(builds) == -(-count // 3)
        monkeypatch.setattr(BoxGraph, "__init__", build)
        want = [_separate_maximal(Environment(model, seed=s, dimension=d), W)
                for s in seeds]
        assert values.tolist() == want


def test_stack_size_constant_with_a_benchmark_window():
    # W=8 in d=2: a 545-site box, thirty to a stack of STACK_SITES
    size = shape.STACK_SITES // BoxRegion((0, 0), 16, "l1").site_count()
    for count in (1, size - 1, size, size + 1):
        values = sample_maximal_stats(Exponential(1.0), range(count), 8,
                                      [1.0], 2).values
        want = [_separate_maximal(Environment(Exponential(1.0), seed=s,
                                              dimension=2), 8)
                for s in range(count)]
        assert values.tolist() == want


def test_maximal_function_is_the_one_seed_stack(monkeypatch):
    env = Environment(Exponential(1.0), seed=7, dimension=2)
    stacked = []
    search = BoxGraph.distances_from

    def spy(self, source, limit=math.inf, predecessors=False):
        stacked.append(self.stacked)
        return search(self, source, limit, predecessors)

    monkeypatch.setattr(BoxGraph, "distances_from", spy)
    got = maximal_function(env, 5)
    assert stacked == [True]
    assert got == _separate_maximal(env, 5)
    assert maximal_function([env], 5).tolist() == [got]
    assert maximal_function([], 5).shape == (0,)


def test_maximal_window_above_the_site_limit_builds_no_site(monkeypatch):
    def fail(self):
        raise AssertionError("site_array called")

    monkeypatch.setattr(BoxRegion, "site_array", fail)
    env = Environment(Exponential(1.0), seed=0, dimension=3)
    # W=46: the radius-92 box holds 1055425 sites
    with pytest.raises(MemoryError, match="1055425 sites"):
        maximal_function(env, 46)
    with pytest.raises(MemoryError, match="1055425 sites"):
        sample_maximal_stats(Exponential(1.0), range(3), 46, [1.0], 3)
