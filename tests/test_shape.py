import functools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapelab import lattice, percolation, shape
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


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_default_directions_are_numpy_unique_rows(d):
    # sorted as np.unique sorts the rows, without importing numpy.ma
    for richness in (1, 2, 3):
        dirs = default_directions(d, richness)
        assert all(type(c) is int for v in dirs for c in v)
        assert np.unique(np.array(dirs), axis=0).tolist() == list(
            map(list, dirs))
    assert default_directions(2, 1) == [(-1, -1), (-1, 0), (-1, 1), (0, -1),
                                        (0, 1), (1, -1), (1, 0), (1, 1)]


def test_default_directions_refuse_a_huge_dimension_at_once():
    # the count of the 3**d candidates is refused from its logarithm,
    # before the exact power or the d-tuple of the box's center is built
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(MemoryError, match=r"counting a d=10000000 box of "
                           r"radius 1 needs about 10\^4771220 bytes"):
            default_directions(10 ** 7, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert peak < 10 ** 6


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


def test_tail_grid_refuses_a_power_that_overflows():
    # 1e102 ** 3 is finite, 1e103 ** 3 is not; refused before any search
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = sample_maximal_stats(Constant(1.0), range(2), 1,
                                     [1.0, 1e102], 3)
        assert np.isfinite(stats.tail_products(3)).all()
        with pytest.raises(ValueError, match=r"lambda 1e\+103 to the power "
                           r"3 overflows"):
            sample_maximal_stats(Constant(1.0), range(2), 1,
                                 [1.0, 1e103, 2.0], 3)


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


def test_bound_ball_is_counted_against_the_site_limit(monkeypatch):
    from shapelab import lattice

    env = Environment(Exponential(1.0), seed=2, dimension=2)
    # a ball, its envelope and their hashing take 192 bytes per site in d=2
    monkeypatch.setattr(lattice, "MEMORY_BUDGET", 192 * 150)
    # |n| = 4: the ball of radius 8 holds 145 sites
    assert maximal_bound_rhs(env, (3, 1), DOMINATION_CONSTANT[2]) > 0

    def fail(self):
        raise AssertionError("site_array called")

    monkeypatch.setattr(BoxRegion, "site_array", fail)
    # |n| = 5: the ball of radius 10 holds 221 sites
    with pytest.raises(MemoryError, match="bound ball of 221 sites needs "
                       "42432 bytes, above the memory budget of 28800 bytes"):
        maximal_bound_rhs(env, (3, 2), DOMINATION_CONSTANT[2])


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


def test_exponential_profile_is_certified_and_equals_the_4r_box():
    # floor 0, yet every value is certified in one round at R = 2 * gap
    # and equals, bit for bit, that of the box of radius 4R
    theta, n_max = (1, 1), 6
    targets = np.arange(1, n_max + 1)[:, None] * np.asarray(theta)
    center = tuple(c // 2 for c in targets[-1].tolist())
    for seed in range(2):
        env = Environment(Exponential(1.0), seed=seed, dimension=2)
        values, states = shape._direction_profile(
            env, theta, n_max, 1e-9, radius_cap_factor=2)
        g = BoxGraph(env, BoxRegion(center, 8 * norm1(theta) * n_max, "l1"))
        far = g.distances_from((0, 0))[g.rows(targets)]
        assert np.all(states == EXACT)
        assert values.tobytes() == far.tobytes()


def test_later_rounds_keep_unlimited_values(monkeypatch):
    # with tolerance 0 an exponential profile runs until every value is
    # certified, here in two rounds; its limited second search must give
    # what an unlimited search gives
    env = Environment(Exponential(1.0), seed=5, dimension=2)
    search = BoxGraph.distances_from
    limits = []

    def spy(self, source, limit=math.inf):
        limits.append(limit)
        return search(self, source, limit)

    monkeypatch.setattr(BoxGraph, "distances_from", spy)
    limited = shape._direction_profile(env, (1, 0), 5, 0.0)
    assert limits[0] == math.inf and len(limits) == 2
    assert all(math.isfinite(v) for v in limits[1:])
    monkeypatch.setattr(BoxGraph, "distances_from",
                        lambda self, source, limit=math.inf:
                        search(self, source))
    unlimited = shape._direction_profile(env, (1, 0), 5, 0.0)
    assert np.array_equal(limited[0], unlimited[0])
    assert np.array_equal(limited[1], unlimited[1])


def test_excluded_fraction_is_the_open_share(monkeypatch):
    # a radius cap of one round leaves a two-valued distance of this
    # contrast uncertified: only that one is excluded
    model, theta, n_max = TwoValued(1.0, 10.0, 0.5), (1, 0), 6
    seeds = range(8)
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


PROFILE_MODELS = [Constant(1.0), TwoValued(1.0, 2.0, 0.5), Exponential(1.0),
                  Pareto(2.5), MovingAverage((0.3, 0.7)),
                  Rotation(profiles="shifted")]

# zero weights, critical in d=2, leave some seeds' values uncertified for
# more rounds than others', so that rows leave a stack one by one.  They
# are drawn in d <= 2 and with a positive tolerance only: at tolerance 0
# their values stay open up to the radius cap, and in d=3, supercritical,
# they take rounds of some 10**5 sites to converge
ZERO_WEIGHTS = TwoValued(0.0, 1.0, 0.5)


@settings(settings.get_profile("properties"), max_examples=120)
@given(st.data())
def test_stacked_profile_equals_separate_profiles(data):
    # every model, d = 1..3, 1-12 seeds, a random direction, n_max 4-8,
    # one-round and deep radius caps, tolerance 0 and 1e-9, and stacks of
    # the default size or of one or a few boxes
    d = data.draw(st.integers(1, 3), label="d")
    tol = data.draw(st.sampled_from([0.0, 1e-9]), label="tol")
    model = data.draw(st.sampled_from(PROFILE_MODELS), label="model")
    if tol and d < 3 and data.draw(st.booleans(), label="zero weights"):
        model = ZERO_WEIGHTS
    reach = (2, 1, 1)[d - 1]
    theta = data.draw(st.lists(st.integers(-reach, reach), min_size=d,
                               max_size=d), label="theta")
    axis = data.draw(st.integers(0, d - 1), label="nonzero axis")
    theta[axis] = data.draw(st.sampled_from([-1, 1]), label="its sign")
    theta = tuple(theta)
    # first-round boxes of at most 19649 sites (d=3, radius 24)
    n_max = data.draw(st.integers(4, max(4, min(8, (64, 32, 12)[d - 1]
                                                 // norm1(theta)))),
                      label="n_max")
    cap = data.draw(st.sampled_from([2, 16]), label="radius_cap_factor")
    seeds = data.draw(st.lists(st.integers(0, 999), min_size=1, max_size=12,
                               unique=True), label="seeds")
    stack_sites = data.draw(st.sampled_from([shape.STACK_SITES, 1, 2000]),
                            label="STACK_SITES")
    envs = [Environment(model, seed=s, dimension=d) for s in seeds]
    default, shape.STACK_SITES = shape.STACK_SITES, stack_sites
    try:
        values, states = shape._direction_profile(envs, theta, n_max, tol,
                                                  radius_cap_factor=cap)
    finally:
        shape.STACK_SITES = default
    assert values.shape == states.shape == (len(envs), n_max)
    for env, got, state in zip(envs, values, states):
        want, want_states = shape._direction_profile(env, theta, n_max, tol,
                                                     radius_cap_factor=cap)
        assert got.tobytes() == want.tobytes()
        assert state.tolist() == want_states.tolist()


BENCHMARK_DIRECTIONS = [(1, 0), (0, 1), (1, 1), (2, 1)]


def _builds(monkeypatch):
    """The environment counts of the box graphs built from here on."""
    builds = []
    build = BoxGraph.__init__

    def spy(self, env, box):
        builds.append(1 if isinstance(env, Environment) else len(env))
        build(self, env, box)

    monkeypatch.setattr(BoxGraph, "__init__", spy)
    return builds


def test_rows_leave_the_stack_one_by_one(monkeypatch):
    # zero weights: all eight seeds stay open after the first round, and
    # one after the second, which is searched alone in the third
    model, theta, n_max = ZERO_WEIGHTS, (1, 0), 5
    envs = [Environment(model, seed=s, dimension=2) for s in range(8)]
    builds = _builds(monkeypatch)
    values, states = shape._direction_profile(envs, theta, n_max, 1e-9)
    assert builds == [8, 8, 1]
    for env, got, state in zip(envs, values, states):
        want, want_states = shape._direction_profile(env, theta, n_max, 1e-9)
        assert got.tobytes() == want.tobytes()
        assert state.tolist() == want_states.tolist()


def test_benchmark_scan_builds_a_stack_per_round(monkeypatch):
    # eight two-valued seeds, n_max 10: each direction's seeds are certified
    # in one round, in stacks of four boxes of up to 3281 sites
    model = TwoValued(1.0, 2.0, 0.5)
    builds = _builds(monkeypatch)
    for theta in BENCHMARK_DIRECTIONS:
        directional_constant(model, range(8), theta, 10, dimension=2)
    assert len(builds) <= 8
    builds.clear()
    for seed in range(8):
        env = Environment(model, seed=seed, dimension=2)
        for theta in BENCHMARK_DIRECTIONS:
            shape._direction_profile(env, theta, 10, shape.DIRECTIONAL_TOL)
    assert len(builds) == 32


def test_stacks_split_down_to_one_seed_at_the_budget_edge(monkeypatch):
    # the budget that the largest reservation of any one seed's own profile
    # just fits refuses every stack of several seeds, which is split until
    # each seed is searched alone, to the same series
    model, theta, n_max, seeds = Exponential(1.0), (2, 1), 6, range(8)
    want = directional_constant(model, seeds, theta, n_max, dimension=2)
    reserve, sizes = lattice.reserve, []

    def spy(nbytes, what, power=(1, 0)):
        sizes.append(nbytes * power[0] ** power[1])
        reserve(nbytes, what, power)

    for module in (lattice, percolation, shape):
        monkeypatch.setattr(module, "reserve", spy)
    for seed in seeds:
        shape._direction_profile(Environment(model, seed=seed, dimension=2),
                                 theta, n_max, shape.DIRECTIONAL_TOL)
    edge = max(sizes)
    monkeypatch.setattr(lattice, "MEMORY_BUDGET", edge)
    builds = _builds(monkeypatch)
    got = directional_constant(model, seeds, theta, n_max, dimension=2)
    assert max(builds) > 1 and 1 in builds
    for field in ("means", "stderrs"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    assert got.excluded_fraction == want.excluded_fraction
    monkeypatch.setattr(lattice, "MEMORY_BUDGET", edge - 1)
    with pytest.raises(MemoryError):
        directional_constant(model, seeds, theta, n_max, dimension=2)


def test_stderr_is_the_unscaled_one_and_finite_for_huge_columns():
    rng = np.random.default_rng(3)
    for n in (2, 3, 8, 24):
        for scale in (1.0, 1e-3, 7.5):
            col = rng.uniform(1.0, 2.0, n) * scale
            want = col.std(ddof=1) / math.sqrt(n)
            assert shape._stderr(col) == want
    assert shape._stderr(np.array([1.5])) == 0.0
    huge = np.array([1e300, 2e300, 1.5e300])
    assert shape._stderr(huge) == pytest.approx(
        (huge / 1e300).std(ddof=1) / math.sqrt(3) * 1e300, rel=1e-15)


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

    def spy(self, source, limit=math.inf):
        stacked.append(self.stacked)
        return search(self, source, limit)

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
    monkeypatch.setattr(lattice, "MEMORY_BUDGET", 5 * 10 ** 7)
    env = Environment(Exponential(1.0), seed=0, dimension=3)
    # W=46: the radius-92 box holds 1055425 sites, a graph of about 60 MB
    refused = r"box graph of 1055425 sites needs \d+ bytes, .* of 50000000"
    with pytest.raises(MemoryError, match=refused):
        maximal_function(env, 46)
    with pytest.raises(MemoryError, match=refused):
        sample_maximal_stats(Exponential(1.0), range(3), 46, [1.0], 3)
