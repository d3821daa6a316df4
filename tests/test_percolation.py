import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapelab.environment import (Constant, Environment, Exponential,
                                  MovingAverage, Pareto, Rotation, TwoValued,
                                  WeightModel)
from shapelab import lattice, percolation
from shapelab._runs import STEP_SLICE
from shapelab.lattice import BoxRegion, norm1, sub
from shapelab.percolation import (EXACT, OPEN, BoxGraph,
                                  ConvergenceError, distance, refine,
                                  structure_embed)

from conftest import box_edges, brute_force_distance
from frozen import GOLDEN_TWO_VALUED_DISTANCE
from test_acceptance import (_box_weight_table, _enumeration_oracle,
                             _rect_box)


def test_constant_weights_word_metric():
    env = Environment(Constant(2.5), seed=0, dimension=2)
    for n in [(3, 2), (-1, 4), (0, 6)]:
        got = distance(env, (0, 0), n, 2 * norm1(n))
        assert got == 2.5 * norm1(n)


def test_explicit_box_oracle_equality():
    rng = np.random.default_rng(11)
    for _ in range(25):
        env = Environment(Exponential(1.0), seed=int(rng.integers(1 << 30)),
                          dimension=2)
        box = BoxRegion((1, 1), 1, "linf")
        got = distance(env, (0, 0), (2, 2), 99, box=box)
        oracle = brute_force_distance(env, (0, 0), (2, 2), box)
        assert got == oracle


def test_symmetry_exact():
    env = Environment(Exponential(1.0), seed=42, dimension=2)
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = tuple(int(v) for v in rng.integers(-4, 5, 2))
        n = tuple(int(v) for v in rng.integers(-4, 5, 2))
        r = max(norm1(sub(n, m)), 1) + 2
        assert distance(env, m, n, r) == distance(env, n, m, r)


def test_identity_is_zero():
    env = Environment(Exponential(1.0), seed=1, dimension=2)
    assert distance(env, (2, -1), (2, -1), 3) == 0.0


def test_equivariance_exact():
    env = Environment(Exponential(1.0), seed=3, dimension=2)
    rng = np.random.default_rng(5)
    for _ in range(100):
        k = tuple(int(v) for v in rng.integers(-30, 31, 2))
        m = tuple(int(v) for v in rng.integers(-3, 4, 2))
        n = tuple(int(v) for v in rng.integers(-3, 4, 2))
        r = max(norm1(sub(n, m)), 1) + 2
        a = distance(env.shift(k), m, n, r)
        b = distance(env, tuple(x + y for x, y in zip(m, k)),
                     tuple(x + y for x, y in zip(n, k)), r)
        assert a == b


def test_box_monotonicity():
    env = Environment(TwoValued(0.5, 5.0, 0.5), seed=9, dimension=2)
    pair = ((0, 0), (4, 1))
    vals = [distance(env, *pair, r) for r in (5, 10, 20, 40)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_triangle_inequality_common_box():
    env = Environment(Exponential(1.0), seed=21, dimension=2)
    box = BoxRegion((0, 0), 9, "l1")
    rng = np.random.default_rng(2)
    for _ in range(300):
        m, k, n = (tuple(int(v) for v in rng.integers(-3, 4, 2))
                   for _ in range(3))
        dmn = distance(env, m, n, 0, box=box)
        dmk = distance(env, m, k, 0, box=box)
        dkn = distance(env, k, n, 0, box=box)
        # when k sits on a geodesic the triangle is an equality and the
        # float sum of the two legs rounds at machine epsilon
        assert dmn <= dmk + dkn + 4e-16 * dmn


def test_refined_pair_constant_first_round():
    # the embedding of two sites is their refined distance: here certified
    # in the first box, of twice the sites' spread around their midpoint
    env = Environment(Constant(1.0), seed=0, dimension=2)
    emb = structure_embed(env, [(0, 0), (3, 2)])
    assert emb.dist[0, 1] == 5.0 and emb.box_radius_used == 6


def test_two_valued_converged_fixture():
    env = Environment(TwoValued(1.0, 10.0, 0.5), seed=7, dimension=2)
    emb = structure_embed(env, [(0, 0), (3, 1)])
    assert emb.dist[0, 1] == GOLDEN_TWO_VALUED_DISTANCE["value"]
    assert emb.box_radius_used <= GOLDEN_TWO_VALUED_DISTANCE["radius"]


def test_radius_cap_below_the_first_radius_is_refused():
    # never a first box beyond the cap: the pair's first radius is 4
    env = Environment(Constant(1.0), seed=0, dimension=2)
    with pytest.raises(ValueError, match="radius cap 3 lies below the "
                       "first radius 4"):
        structure_embed(env, [(0, 0), (4, 0)], radius_cap=3)

    def evaluate(r, live, prev):
        raise AssertionError("searched")

    with pytest.raises(ValueError, match="below the first radius"):
        refine(evaluate, 8, 7, 1e-9)
    assert structure_embed(env, [(0, 0), (4, 0)],
                           radius_cap=4).box_radius_used == 4


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("norm", ["l1", "linf"])
def test_box_graph_row_lookup(d, norm):
    env = Environment(Constant(1.0), seed=0, dimension=d)
    for radius in range(6):
        center = (3, -2, 5)[:d]
        box = BoxRegion(center, radius, norm)
        g = BoxGraph([env], box)
        n = len(g.sites)
        assert g.sites.shape == (n, d) and g.sites.dtype == np.int64
        assert g.rows(box.sites()).tolist() == list(range(n))
        # every point 1 .. 2r+3 steps outside the box along each axis, on
        # both sides: far enough below the low corner that an unmasked
        # read would wrap round to a real row
        outside = [tuple(c + sign * step * (j == k)
                         for j, c in enumerate(center))
                   for k in range(d) for sign in (1, -1)
                   for step in range(radius + 1, 2 * radius + 4)]
        assert g.rows(outside).tolist() == [-1] * len(outside)
        if d > 1 and norm == "l1" and radius:
            corner = tuple(c + radius for c in center)
            assert g.rows([corner]).tolist() == [-1]
        with pytest.raises(ValueError, match="outside box"):
            g.distances_from(outside[-1])


@settings(settings.get_profile("properties"), max_examples=700)
@given(st.data())
def test_rows_and_neighbours_match_a_dict_of_tuples(data):
    # ell-1 and ell-inf balls, and rectangles of side 1..4 (d <= 3)
    d = data.draw(st.integers(1, 4), label="d")
    kind = data.draw(st.sampled_from(["l1", "linf", "rect"][:2 + (d < 4)]),
                     label="kind")
    center = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=d,
                                      max_size=d), label="center"))
    radius = data.draw(st.integers(0, (12, 7, 4, 2)[d - 1]), label="radius")
    region = (_rect_box(center, min(radius, 3) + 1) if kind == "rect"
              else BoxRegion(center, radius, kind))
    sites = region.site_array()
    row = {s: i for i, s in enumerate(map(tuple, sites.tolist()))}
    g = BoxGraph([Environment(Constant(1.0), seed=0, dimension=d)], region)
    assert _same_bits(g.sites, sites)
    # every point of the sites' bounding box widened by two, and points
    # far outside it on either side
    lo, hi = sites.min(axis=0) - 2, sites.max(axis=0) + 3
    grid = np.stack(np.meshgrid(*map(np.arange, lo, hi), indexing="ij"),
                    axis=-1).reshape(-1, d)
    far = np.array([[1 << 40] * d, [-(1 << 40)] * d,
                    list(center[:-1]) + [1 << 40]], dtype=np.int64)
    points = np.concatenate([grid, far])
    want = [row.get(p, -1) for p in map(tuple, points.tolist())]
    assert g.rows(points).tolist() == want
    # forward along each axis, then backward; a row's own row where the
    # region ends
    for s, i in row.items():
        for k in range(d):
            for col, step in ((k, 1), (d + k, -1)):
                near = s[:k] + (s[k] + step,) + s[k + 1:]
                assert g._nbr[i, col] == row.get(near, i)


class _Listed:
    """A region given by its site list."""

    def __init__(self, sites):
        self.sites = sites

    def site_array(self):
        return np.asarray(self.sites, dtype=np.int64)


def test_a_region_that_is_not_runs_is_refused():
    env = Environment(Constant(1.0), seed=0, dimension=2)
    # a gap inside the run of head (0,)
    with pytest.raises(ValueError, match="runs of consecutive"):
        BoxGraph([env], _Listed([(0, 0), (0, 1), (0, 3), (1, 0)]))
    # runs, but not in lexicographic order
    with pytest.raises(ValueError, match="lexicographic"):
        BoxGraph([env], _Listed([(1, 0), (1, 1), (0, 0)]))
    with pytest.raises(ValueError, match="at least one site"):
        BoxGraph([env], _Listed(np.zeros((0, 2))))
    # heads whose bounding box has no int64 keys
    with pytest.raises(ValueError, match=r"fewer than 2\*\*63"):
        BoxGraph([Environment(Constant(1.0), seed=0, dimension=3)],
                 _Listed([(0, 0, 0), (1 << 32, 1 << 32, 0)]))
    # a run may hold one site, and heads need not be adjacent
    g = BoxGraph([env], _Listed([(0, 5), (3, -1), (3, 0)]))
    assert g.rows([(3, 0), (0, 5), (1, 5), (3, 1)]).tolist() == [2, 0, -1, -1]
    assert g.distances_from((3, -1)).tolist() == [[math.inf, 0.0, 1.0]]


@pytest.mark.parametrize("gap", [1, STEP_SLICE - 1, STEP_SLICE,
                                 STEP_SLICE + 1, 2 * STEP_SLICE + 4])
def test_a_gap_at_any_slice_of_the_step_check_is_refused(gap):
    # the steps are checked in slices of STEP_SLICE sites: a gap before
    # site gap, on either side of a slice's end, is refused all the same
    line = np.arange(2 * STEP_SLICE + 5)[:, None]
    line[gap:] += 1
    env = Environment(Constant(1.0), seed=0, dimension=1)
    with pytest.raises(ValueError, match="runs of consecutive"):
        BoxGraph([env], _Listed(line))
    two = np.concatenate([np.zeros_like(line), line], axis=1)
    with pytest.raises(ValueError, match="runs of consecutive"):
        BoxGraph([Environment(Constant(1.0), seed=0, dimension=2)],
                 _Listed(two))


def test_sublevel_set_of_constant_weights_is_an_l1_ball():
    env = Environment(Constant(2.0), seed=0, dimension=2)
    g = BoxGraph([env], BoxRegion((0, 0), 6, "l1"))
    ball = set(BoxRegion((0, 0), 2, "l1").sites())
    full = g.distances_from((0, 0))[0]
    part = g.distances_from((0, 0), 4.0)[0]
    sites = [tuple(s) for s in g.sites.tolist()]
    assert {s for s, v in zip(sites, full) if v <= 4.0} == ball
    assert {s for s, v in zip(sites, part) if v < math.inf} == ball
    # every weight is twice the l1 norm, exactly
    assert full.tolist() == [2.0 * norm1(s) for s in sites]


def test_sublevel_sets_of_limited_searches_are_nested():
    env = Environment(Exponential(1.0), seed=6, dimension=2)
    g = BoxGraph([env], BoxRegion((0, 0), 8, "l1"))
    small = g.distances_from((0, 0), 1.0)[0]
    big = g.distances_from((0, 0), 2.5)[0]
    inner = np.isfinite(small)
    assert inner[g.row((0, 0))] and 1 < inner.sum() < np.isfinite(big).sum()
    assert np.array_equal(big[inner], small[inner])
    assert np.all(big[~inner] > 1.0)


def test_mean_subadditivity():
    vals1, vals2 = [], []
    for seed in range(200):
        env = Environment(Exponential(1.0), seed=seed, dimension=2)
        vals1.append(distance(env, (0, 0), (2, 0), 6))
        vals2.append(distance(env, (0, 0), (4, 0), 10))
    m1, m2 = np.mean(vals1), np.mean(vals2)
    se = math.sqrt(np.var(vals2, ddof=1) / 200 + 4 * np.var(vals1, ddof=1) / 200)
    assert m2 <= 2 * m1 + 3 * se


def test_structure_embedding_identities():
    env = Environment(Exponential(1.0), seed=13, dimension=2)
    sites = [(0, 0), (2, 1), (-1, 2), (1, -2), (3, 0), (-2, -1)]
    emb = structure_embed(env, sites)
    k = len(sites)
    assert np.array_equal(emb.dist, emb.dist.T)
    assert np.all(np.diag(emb.dist) == 0.0)
    for i, j in itertools.product(range(k), repeat=2):
        assert abs(emb.sup_norm(i, j) - emb.dist[i, j]) <= 1e-12
        for l in range(k):
            gap = emb.vector(i, l) + emb.vector(l, j) - emb.vector(i, j)
            assert np.max(np.abs(gap)) <= 1e-12


def test_structure_embedding_matches_pairwise_loop():
    env = Environment(Exponential(1.0), seed=21, dimension=3)
    sites = [(1, -2, 0), (-1, 2, 1), (0, 0, 0), (-1, -1, 2), (2, 1, -1)]
    emb = structure_embed(env, sites)
    center = tuple((min(c) + max(c)) // 2 for c in zip(*sites))
    g = BoxGraph([env], BoxRegion(center, emb.box_radius_used, "l1"))
    rows = {s: g.distances_from(s) for s in sites}
    for i, s in enumerate(sites):
        for j, t in enumerate(sites):
            src, dst = (s, t) if s <= t else (t, s)
            assert emb.dist[i, j] == rows[src][0, g.row(dst)]


def test_structure_embedding_single_site_trivial():
    env = Environment(Exponential(1.0), seed=2, dimension=2)
    emb = structure_embed(env, [(1, 1)])
    assert emb.vector(0, 0).tolist() == [0.0]


def test_structure_embedding_nonconvergence_raises():
    env = Environment(Pareto(0.8), seed=1, dimension=2)
    with pytest.raises(ConvergenceError):
        structure_embed(env, [(0, 0), (5, 0)], tol=1e-9, radius_cap=11)


def test_embedding_json_export():
    env = Environment(Constant(1.0), seed=0, dimension=2)
    emb = structure_embed(env, [(0, 0), (1, 1)])
    doc = emb.to_json()
    assert '"sites"' in doc and '"dist"' in doc


# --------------------------------------------------------------------------
# truncation certificates, per-value states and limited searches


@pytest.mark.parametrize("model", [Constant(1.0), TwoValued(1.0, 2.0, 0.5),
                                   Pareto(2.0)],
                         ids=["constant", "two_valued", "pareto"])
def test_certified_values_match_enumeration_oracle(model):
    # one refinement round in the ell-1 box of radius 2 around the source;
    # what it certifies must be the least path weight over the 7x7 square
    # around the source, found by criterion 03's exhaustive enumeration
    certified = 0
    square = _rect_box((-3, -3), 7)
    for seed in range(8):
        env = Environment(model, seed=seed, dimension=2)
        graphs = []

        def evaluate(r, live, prev):  # one row per site
            graphs.append(BoxGraph([env], BoxRegion((0, 0), r, "l1")))
            dist = graphs[-1].distances_from((0, 0))
            rows = np.arange(dist.shape[1])
            return dist[0], graphs[-1].certified(dist, rows)[0]

        values, radii, states = refine(evaluate, 2, 2, 1e-9)
        oracle = _enumeration_oracle(env, (0, 0), square,
                                     _box_weight_table(env, square))
        exact = states == EXACT
        for site, v in zip(graphs[0].sites[exact].tolist(), values[exact]):
            assert v == oracle[tuple(site)]
        assert (radii == 2).all() and set(states.tolist()) <= {EXACT, OPEN}
        certified += int(exact.sum())
    assert certified >= 8 * 5  # at least the source and its neighbors


def _certified_pair(env, m, n, radius):
    """The distance from m to n in the ell-1 box of that radius around
    their floor midpoint, as distance() boxes it, and whether its search
    certifies it."""
    g = BoxGraph([env], BoxRegion(tuple((a + b) // 2 for a, b in zip(m, n)),
                                  radius))
    dist = g.distances_from(m)
    return float(dist[0, g.row(n)]), bool(g.certified(dist, g.row(n))[0])


def test_certified_distance_equals_the_4r_box():
    certified = 0
    for model in (Constant(1.0), TwoValued(1.0, 2.0, 0.5), Pareto(2.0)):
        for seed in range(6):
            env = Environment(model, seed=seed, dimension=2)
            m, n = (0, 0), (3, -2)
            value, exact = _certified_pair(env, m, n, 10)
            if exact:
                assert value == distance(env, m, n, 40)
                certified += 1
    assert certified > 0
    env = Environment(Constant(1.0), seed=0, dimension=2)
    assert _certified_pair(env, (0, 0), (3, 2), 10) == (5.0, True)


def test_exponential_distance_is_certified_and_equals_the_4r_box():
    # floor 0: the certificate is built from the box's own weights alone
    assert Exponential(1.0).floor() == 0.0
    m, n = (0, 0), (2, 1)
    for seed in range(4):
        env = Environment(Exponential(1.0), seed=seed, dimension=2)
        # the first doubling of the radius, from 2|n - m| to 32|n - m|, whose
        # box certifies the value
        radius = next(r for r in (6, 12, 24, 48, 96)
                      if _certified_pair(env, m, n, r)[1])
        value = _certified_pair(env, m, n, radius)[0]
        assert _certified_pair(env, m, n, 4 * radius) == (value, True)


class _Corridor(WeightModel):
    """Weight 3 on the edges of the ell-1 ball of radius 3 around the
    origin, 1 on the edges that leave it and 0.01 outside it: a cheap
    corridor just outside the box of radius 3."""

    kind = "corridor"

    def weights(self, seed, bases, axes):
        step = np.eye(bases.shape[1], dtype=np.int64)[axes]
        inside = ((np.abs(bases).sum(axis=1) <= 3).astype(int)
                  + (np.abs(bases + step).sum(axis=1) <= 3))
        return np.array([0.01, 1.0, 3.0])[inside]

    def floor(self):
        return 0.01


@settings(settings.get_profile("properties"), max_examples=150)
@given(st.data())
def test_certified_values_equal_the_2r_and_4r_boxes(data):
    # every model and the corridor, d = 1..3, a random centre, radius and
    # sources; one source, k sources or a stack of environments, with or
    # without a limit: a value its search certifies in the box of radius R
    # is, bit for bit, its value in the boxes of radius 2R and 4R
    d = data.draw(st.integers(1, 3), label="d")
    model = data.draw(st.sampled_from(ORACLE_MODELS + [_Corridor()]),
                      label="model")
    radius = data.draw(st.integers(1, (12, 5, 3)[d - 1]), label="radius")
    center = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=d,
                                      max_size=d), label="center"))
    kind = data.draw(st.sampled_from(["one", "sources", "stack"]),
                     label="kind")
    seeds = data.draw(st.lists(st.integers(0, 99), min_size=1, max_size=3,
                               unique=True), label="seeds")
    sites = BoxRegion(center, radius, "l1").site_array()
    picks = data.draw(st.lists(st.integers(0, len(sites) - 1), min_size=1,
                               max_size=3, unique=True), label="sources")
    envs = [Environment(model, seed=s, dimension=d) for s in seeds]
    stack = envs if kind == "stack" else envs[:1]
    source = sites[picks] if kind == "sources" else tuple(sites[picks[0]])

    def search(r, limit=math.inf):
        g = BoxGraph(stack, BoxRegion(center, r, "l1"))
        return g, g.distances_from(source, limit)

    g, dist = search(radius)
    if data.draw(st.booleans(), label="limited"):
        at = data.draw(st.floats(0, 1), label="limit quantile")
        ranked = np.sort(dist, axis=None)
        g, dist = search(radius, float(ranked[int(at * (ranked.size - 1))]))
    rows = g.rows(sites)
    exact = g.certified(dist, rows)
    for factor in (2, 4):
        big, far = search(factor * radius)
        assert (far[..., big.rows(sites)][exact].tobytes()
                == dist[..., rows][exact].tobytes())


def test_certificate_refuses_a_value_that_a_corridor_outside_undercuts():
    env = Environment(_Corridor(), seed=0, dimension=2)
    box = BoxRegion((0, 0), 3, "l1")
    g = BoxGraph([env], box)
    dist = g.distances_from((2, 0))
    boxed = distance(env, (2, 0), (-2, 0), 0, box=box)
    # out at (3, 0), around the corridor, and back in at (-3, 0)
    far = distance(env, (2, 0), (-2, 0), 0, box=BoxRegion((0, 0), 12, "l1"))
    assert boxed == 12.0 and far < 8.2
    assert not g.certified(dist, g.row((-2, 0)))
    # leaving costs at least 3 + 0.01 and coming back 0.01 more, then 3
    # per inner edge: it certifies the source and its four neighbours,
    # and the three sites at 6 and the three at 9 that lie one and two
    # inner edges inside every row with a missing neighbour
    big = BoxGraph([env], BoxRegion((0, 0), 12, "l1"))
    rows = big.rows(g.sites)
    exact = g.certified(dist, np.arange(dist.shape[1]))
    assert exact.sum() == 11
    assert sorted(dist[exact].tolist()) == ([0.0] + [3.0] * 4 + [6.0] * 3
                                           + [9.0] * 3)
    assert np.array_equal(big.distances_from((2, 0))[:, rows][exact],
                          dist[exact])


def test_limited_search_equals_unlimited_on_reached_sites():
    for model in (Exponential(1.0), TwoValued(1.0, 2.0, 0.5)):
        env = Environment(model, seed=3, dimension=3)
        g = BoxGraph([env], BoxRegion((1, 0, -1), 9, "l1"))
        full = g.distances_from((0, 0, 0))[0]
        # a limit equal to a reached value keeps that value
        for limit in (float(np.sort(full)[len(full) // 7]), 2.5):
            part = g.distances_from((0, 0, 0), limit)[0]
            near = full <= limit
            assert 0 < near.sum() < len(full)
            assert np.array_equal(part[near], full[near])
            assert np.all(np.isinf(part[~near]))


def _reserved(monkeypatch) -> list:
    """The byte counts percolation reserves from now on, in call order."""
    asked = []
    reserve = percolation.reserve

    def spy(nbytes, what):
        asked.append(nbytes)
        reserve(nbytes, what)

    monkeypatch.setattr(percolation, "reserve", spy)
    return asked


def test_radius_0_box_beyond_64_axes_builds_its_one_site():
    # one site in one run, and no table over the box's 2**70-point
    # bounding cube: the graph holds the site and searches it
    env = Environment(Exponential(1.0), seed=0, dimension=70)
    g = BoxGraph([env], BoxRegion((0,) * 70, 0))
    assert g.sites.tolist() == [[0] * 70]
    assert g.rows([(0,) * 70, (0,) * 69 + (1,), (1,) + (0,) * 69]).tolist() \
        == [0, -1, -1]
    assert g.distances_from((0,) * 70).tolist() == [[0.0]]


def test_box_graph_refuses_a_box_above_the_site_limit(monkeypatch):
    def fail(self):
        raise AssertionError("site_array called")

    monkeypatch.setattr(BoxRegion, "site_array", fail)
    monkeypatch.setattr(lattice, "MEMORY_BUDGET", 5 * 10 ** 7)
    box = BoxRegion((0, 0, 0), 92, "l1")  # 1055425 sites, about 60 MB
    env = Environment(Exponential(1.0), seed=0, dimension=3)
    with pytest.raises(MemoryError, match=r"box graph of 1055425 sites needs "
                       r"\d+ bytes, above the memory budget of 50000000 "
                       r"bytes"):
        BoxGraph([env], box)


STACK_MODELS = [Constant(1.5), Exponential(1.0), TwoValued(1.0, 2.0, 0.5),
                Rotation(profiles="shifted"), MovingAverage((0.3, 0.7))]


@pytest.mark.parametrize("model", STACK_MODELS,
                         ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_graph_rows_equal_single_graphs(model, d):
    box = BoxRegion((1,) + (0,) * (d - 1), 5, "l1")
    envs = [Environment(model, seed=s, dimension=d) for s in (4, 0, 9)]
    source = (0,) * d
    stack = BoxGraph(envs, box)
    assert stack.sites.shape == (box.site_count(), d)
    dist = stack.distances_from(source)
    assert dist.shape == (3, box.site_count())
    for env, row in zip(envs, dist):
        one = BoxGraph([env], box)
        assert np.array_equal(stack.sites, one.sites)
        full = one.distances_from(source)[0]
        assert np.array_equal(row, full)
        limit = float(np.median(full))
        part = stack.distances_from(source, limit)[envs.index(env)]
        assert np.array_equal(part, one.distances_from(source, limit)[0])


def test_one_environment_is_a_stack_of_one():
    env = Environment(TwoValued(1.0, 2.0, 0.5), seed=2, dimension=2)
    box = BoxRegion((0, 0), 6, "l1")
    one = BoxGraph([env], box)
    dist = one.distances_from((1, 1))
    assert dist.shape == (1, box.site_count())
    assert np.array_equal(dist, BoxGraph([env, env], box)
                          .distances_from((1, 1))[1:])
    assert one.certified(dist, one.row((0, 0))).shape == (1,)
    with pytest.raises(ValueError):
        BoxGraph([], box)


def test_stack_is_counted_against_the_site_limit(monkeypatch):
    box = BoxRegion((0, 0), 5, "l1")  # 61 sites
    envs = [Environment(Exponential(1.0), seed=s, dimension=2)
            for s in range(3)]
    asked = _reserved(monkeypatch)
    assert BoxGraph(envs[:2], box).distances_from((0, 0)).shape == (2, 61)
    # the budget that a stack of two just fits (its search needs more)
    monkeypatch.setattr(lattice, "MEMORY_BUDGET", asked[0])
    assert BoxGraph(envs[:2], box)._bytes == asked[0]

    def fail(self):
        raise AssertionError("site_array called")

    monkeypatch.setattr(BoxRegion, "site_array", fail)
    with pytest.raises(MemoryError, match=r"stack of 3 box graphs of 61 "
                       rf"sites needs \d+ bytes, .* of {asked[0]} bytes"):
        BoxGraph(envs, box)


def test_multi_source_search_is_counted_against_the_site_limit(monkeypatch):
    env = Environment(Exponential(1.0), seed=1, dimension=2)
    g = BoxGraph([env], BoxRegion((0, 0), 5, "l1"))  # 61 sites
    asked = _reserved(monkeypatch)
    assert g.distances_from([(0, 0), (1, 0)]).shape == (2, 61)
    monkeypatch.setattr(lattice, "MEMORY_BUDGET", asked[0])
    assert g.distances_from([(0, 0), (1, 0)]).shape == (2, 61)

    def fail(*args, **kwargs):
        raise AssertionError("search allocated")

    monkeypatch.setattr(percolation, "_search", fail)
    with pytest.raises(MemoryError, match=r"search of 3 blocks of 61 sites "
                       rf"needs \d+ bytes, .* of {asked[0]} bytes"):
        g.distances_from([(0, 0), (1, 0), (0, 1)])


def test_box_graph_builds_the_box_whose_site_index_broke_the_budget(
        monkeypatch):
    # 13073 sites in a bounding box of 18**5 points: a dense int32 table
    # over that box would need 7.6 MB beside the graph, above a budget of
    # 10**7 bytes, while the runs take bytes per run
    box = BoxRegion((0,) * 5, 8, "l1")
    assert box.site_count() == 13073
    monkeypatch.setattr(lattice, "MEMORY_BUDGET", 10 ** 7)
    env = Environment(Exponential(1.0), seed=0, dimension=5)
    asked = _reserved(monkeypatch)
    g = BoxGraph([env], box)
    assert asked == [g._bytes] and g._bytes <= 10 ** 7
    dist = g.distances_from((0,) * 5)
    assert dist.shape == (1, 13073) and np.isfinite(dist).all()


class _Built(Exception):
    """Raised in place of building the sites, once a graph is reserved."""


@pytest.mark.parametrize("d, norm, radius", [
    (1, "l1", 499999), (2, "l1", 706), (2, "linf", 499), (3, "l1", 90),
    (3, "linf", 49), (4, "l1", 25), (4, "linf", 15), (5, "l1", 11),
    (5, "linf", 7), (6, "l1", 6), (6, "linf", 4), (2, "l1", 1000)])
def test_budget_admits_the_largest_boxes_of_the_old_limits(monkeypatch, d,
                                                           norm, radius):
    # the largest box per dimension and norm under the former limits of
    # 10**6 sites and 8 * 10**6 site-index slots, and the 2002001-site
    # d=2 box of radius 1000
    def built(self):
        raise _Built

    monkeypatch.setattr(BoxRegion, "site_array", built)
    env = Environment(Exponential(1.0), seed=0, dimension=d)
    with pytest.raises(_Built):
        BoxGraph([env], BoxRegion((0,) * d, radius, norm))


@pytest.mark.parametrize("norm", ["l1", "linf"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_builds_and_searches_peak_below_their_reservation(monkeypatch, d,
                                                          norm):
    # in d >= 2 boxes whose tables outweigh the hashing allowance, in the
    # model with the largest hashing transients
    radius = {1: 1000, 2: (170, 120)[norm == "linf"],
              3: (30, 15)[norm == "linf"]}[d]
    box = BoxRegion((0,) * d, radius, norm)
    envs = [Environment(MovingAverage((0.3, 0.7)), seed=s, dimension=d)
            for s in range(3)]
    origin = (0,) * d
    three = [origin, (1,) + origin[1:], origin[:-1] + (-1,)]
    asked = _reserved(monkeypatch)
    tracemalloc.start()
    try:
        for stack, searches in ((envs[:1], [origin, three]),
                                (envs, [origin])):
            # each peak counts what is held from before, as a search's
            # reservation counts its graph; no result is kept
            asked.clear()
            tracemalloc.reset_peak()
            g = BoxGraph(stack, box)
            assert tracemalloc.get_traced_memory()[1] <= asked[-1]
            for source in searches:
                asked.clear()
                tracemalloc.reset_peak()
                g.distances_from(source)
                assert tracemalloc.get_traced_memory()[1] <= asked[-1]
            del g
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d, radius", [(1, 1000), (2, 3), (2, 120),
                                       (3, 2), (3, 20)])
@pytest.mark.parametrize("kind", ["one", "sources", "stack"])
def test_certificate_peaks_below_its_reservation(monkeypatch, d, radius,
                                                 kind):
    # every row picked, so the second search, from every row with a
    # missing neighbour, runs as far as the largest weight; small boxes
    # are nearly all such rows
    origin = (0,) * d
    envs = [Environment(MovingAverage((0.3, 0.7)), seed=s, dimension=d)
            for s in range(3)]
    stack = envs if kind == "stack" else envs[:1]
    source = [origin, (1,) + origin[1:]] if kind == "sources" else origin
    asked = _reserved(monkeypatch)
    tracemalloc.start()
    try:
        g = BoxGraph(stack, BoxRegion(origin, radius, "l1"))
        dist = g.distances_from(source)
        asked.clear()
        tracemalloc.reset_peak()
        exact = g.certified(dist, np.arange(dist.shape[-1]))
        assert tracemalloc.get_traced_memory()[1] <= asked[-1]
    finally:
        tracemalloc.stop()
    assert exact.shape == dist.shape and exact.any() and not exact.all()


@pytest.mark.parametrize("d, radius", [(2, 120), (3, 30)])
def test_box_graph_holds_its_two_tables_and_its_runs_only(d, radius):
    box = BoxRegion((0,) * d, radius, "l1")
    runs, n = box.counts()
    BoxGraph([Environment(Exponential(1.0), seed=0, dimension=d)],
             BoxRegion((0,) * d, 2))
    for blocks in (1, 3):
        envs = [Environment(MovingAverage((0.3, 0.7)), seed=s, dimension=d)
                for s in range(blocks)]
        tracemalloc.start()
        try:
            g = BoxGraph(envs, box)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # int32 neighbour rows and float64 forward weights, plus the runs'
        # heads, starts and bases and their lookup codes
        assert held <= (8 * d + 8 * d * blocks) * n + 24 * d * runs + 8192
        held = {**vars(g), **vars(g._runs)}
        assert not [k for k, v in held.items()
                    if isinstance(v, np.ndarray) and v.shape == (n, d)]
        del g


def test_search_reserves_no_weight_mask_and_reuses_its_width(monkeypatch):
    env = Environment(Exponential(1.0), seed=3, dimension=2)
    g = BoxGraph([env], BoxRegion((0, 0), 6, "l1"))  # 85 sites
    # the bucket width is the mean edge weight, found once by the build
    assert g._width == pytest.approx(np.mean(g._wt[np.isfinite(g._wt)]),
                                     rel=1e-12)
    asked = _reserved(monkeypatch)
    with monkeypatch.context() as m:
        def mask(*args, **kwargs):
            raise AssertionError("weight mask built")

        m.setattr(np, "isfinite", mask)
        g.distances_from((0, 0))
    # the graph, per node dist and queued, and 32d bytes per node for a
    # pass's transients
    assert asked == [g._bytes + 85 * (9 + 64)]


def test_bucket_width_of_huge_weights_is_their_finite_mean():
    # weights of about 1e307 (ceiling 3e307) sum past the float range
    env = Environment(MovingAverage((1e307, 1e307),
                                    base=Rotation(profiles="shifted")),
                      seed=0, dimension=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = BoxGraph([env], BoxRegion((0, 0), 3, "l1"))
    finite = g._wt[np.isfinite(g._wt)]
    assert math.isfinite(g._width)
    assert g._width == pytest.approx(np.sum(finite / finite.size), rel=1e-12)


def test_counts_count_the_runs_and_sites_of_the_site_array():
    for center, radius, norm in [((0,), 0, "l1"), ((5,), 3, "linf"),
                                 ((2, -1), 4, "l1"), ((1, 0, 3), 3, "linf"),
                                 ((0,) * 4, 2, "l1")]:
        box = BoxRegion(center, radius, norm)
        heads = {tuple(s[:-1]) for s in box.site_array().tolist()}
        assert box.counts() == (len(heads), box.site_count())
        g = BoxGraph([Environment(Constant(1.0), seed=0,
                                  dimension=len(center))], box)
        assert len(g._runs.head) == len(heads)


class _NegativeForSeed(Constant):
    """Weight 1 everywhere, except -1 for one seed."""

    def weights(self, seed, bases, axes):
        return np.full(len(bases), -1.0 if seed == 2 else 1.0)


def test_negative_weight_in_one_stacked_environment_raises():
    envs = [Environment(_NegativeForSeed(1.0), seed=s, dimension=2)
            for s in range(4)]
    box = BoxRegion((0, 0), 3, "l1")
    BoxGraph(envs[:2], box)
    with pytest.raises(ValueError, match="negative"):
        BoxGraph(envs, box)


# --------------------------------------------------------------------------
# the box graph's own search against scipy's Dijkstra


ORACLE_MODELS = [Constant(0.0), Constant(1.0), TwoValued(1.0, 2.0, 0.5),
                 Exponential(1.0), Pareto(2.5), MovingAverage((0.3, 0.7)),
                 Rotation(profiles="shifted")]


def _scipy_search(envs, region, sources, limit):
    """Row i: scipy's Dijkstra from sources[i] in envs[i], on a sparse
    matrix of the region's lattice edges assembled without BoxGraph."""
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sites = region.site_array()
    row = {s: i for i, s in enumerate(map(tuple, sites.tolist()))}
    n, d = sites.shape
    near, far, axes = [], [], []
    for s, i in row.items():
        for k in range(d):
            j = row.get(s[:k] + (s[k] + 1,) + s[k + 1:])
            if j is not None:
                near.append(i)
                far.append(j)
                axes.append(k)
    out = []
    for env, src in zip(envs, sources):
        w = env.edge_weights(sites[near], np.asarray(axes, dtype=np.int64))
        # zero weights stay stored, and scipy searches stored zeros
        graph = sparse.csr_matrix((w, (near, far)), shape=(n, n))
        out.append(csgraph.dijkstra(graph, directed=False, indices=row[src],
                                    limit=limit))
    return np.array(out)


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# these boxes are small enough for the search to relax every frontier
# whole; WHOLE_FRONTIER = 0 makes it step through its buckets instead
@pytest.mark.parametrize("whole", [0, None], ids=["buckets", "whole"])
@pytest.mark.parametrize("model", ORACLE_MODELS,
                         ids=lambda m: f"{type(m).__name__}")
@pytest.mark.parametrize("d", [1, 2, 3])
def test_search_equals_scipy_dijkstra_bit_for_bit(monkeypatch, model, d,
                                                  whole):
    if whole is not None:
        monkeypatch.setattr(percolation, "WHOLE_FRONTIER", whole)
    envs = [Environment(model, seed=s, dimension=d) for s in (3, 0, 8)]
    regions = [BoxRegion((1,) + (0,) * (d - 1), 5 if d < 3 else 3, "l1"),
               BoxRegion((0,) * d, 2, "linf"), _rect_box((-1,) * d, 3)]
    for region in regions:
        sites = [tuple(s) for s in region.site_array().tolist()]
        sources = [sites[0], sites[len(sites) // 2], sites[-1]]
        src = sources[1]
        one, stack = BoxGraph(envs[:1], region), BoxGraph(envs, region)
        full = _scipy_search(envs[:1], region, [src], math.inf)[0]
        positive = np.sort(full[full > 0])
        # no limit, a limit equal to a reached value, and one below every
        # value but the source's (and those of its zero-weight neighbours)
        limits = [math.inf]
        if positive.size:
            limits += [float(positive[len(positive) // 2]),
                       float(positive[0]) / 2]
        for limit in limits:
            want = _scipy_search(envs, region, [src] * 3, limit)
            assert _same_bits(one.distances_from(src, limit), want[:1])
            assert _same_bits(stack.distances_from(src, limit), want)
            want = _scipy_search(envs[:1] * 3, region, sources, limit)
            assert _same_bits(one.distances_from(sources, limit), want)
            assert _same_bits(one.distances_from(np.array(sources), limit),
                              want)


def _bellman_ford(nbr, wt, blocks, rows, limit):
    """Row b: the least path weights from row rows[b] in weight block
    blocks[b], relaxing every edge of the tables in pure Python until none
    improves (0 at the source, fl(x + w) along an edge), inf beyond limit.
    The backward edge of row i along axis k weighs wt[e, nbr[i, d + k], k],
    and a row's own row in nbr is no edge."""
    n, d = wt.shape[1:]
    nbr, wt = nbr.tolist(), wt.tolist()
    out = []
    for e, source in zip(blocks, rows):
        dist = [math.inf] * n
        dist[source] = 0.0
        changed = True
        while changed:
            changed = False
            for i in range(n):
                for k in range(d):
                    for j, w in ((nbr[i][k], wt[e][i][k]),
                                 (nbr[i][d + k], wt[e][nbr[i][d + k]][k])):
                        if j != i and dist[i] + w < dist[j]:
                            dist[j] = dist[i] + w
                            changed = True
        out.append([x if x <= limit else math.inf for x in dist])
    return np.array(out)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@settings(settings.get_profile("properties"), max_examples=150)
@given(data=st.data())
def test_search_is_the_bellman_ford_fixed_point_of_its_tables(d, data):
    # every model, both norms, a random box, one to three seeds and
    # sources, with or without a limit, and the search relaxing its
    # frontier by buckets only, whole only or either: a stack's rows and k
    # sources' rows are, bit for bit, the fixed point of edge relaxation
    # over the graph's own tables, and the rows of separate searches
    model = data.draw(st.sampled_from(ORACLE_MODELS), label="model")
    norm = data.draw(st.sampled_from(["l1", "linf"]), label="norm")
    radius = data.draw(st.integers(0, (12, 5, 2, 1)[d - 1]), label="radius")
    center = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=d,
                                      max_size=d), label="center"))
    box = BoxRegion(center, radius, norm)
    sites = box.site_array()
    seeds = data.draw(st.lists(st.integers(0, 99), min_size=1, max_size=3,
                               unique=True), label="seeds")
    picks = data.draw(st.lists(st.integers(0, len(sites) - 1), min_size=1,
                               max_size=3, unique=True), label="sources")
    envs = [Environment(model, seed=s, dimension=d) for s in seeds]
    stack, one = BoxGraph(envs, box), BoxGraph(envs[:1], box)
    source = tuple(sites[picks[0]])
    want_stack = _bellman_ford(stack._nbr, stack._wt, range(len(envs)),
                               [picks[0]] * len(envs), math.inf)
    limit = math.inf
    if data.draw(st.booleans(), label="limited"):
        at = data.draw(st.floats(0, 1), label="limit quantile")
        ranked = np.sort(want_stack[np.isfinite(want_stack)])
        limit = float(ranked[int(at * (ranked.size - 1))])
        want_stack[want_stack > limit] = math.inf
    want_sources = _bellman_ford(one._nbr, one._wt, [0] * len(picks), picks,
                                 limit)
    nodes = len(sites) * max(len(envs), len(picks))
    whole = data.draw(st.sampled_from([0, percolation.WHOLE_FRONTIER,
                                       nodes + 1]), label="WHOLE_FRONTIER")
    default, percolation.WHOLE_FRONTIER = percolation.WHOLE_FRONTIER, whole
    try:
        got_stack = stack.distances_from(source, limit)
        got_sources = one.distances_from(sites[picks], limit)
        separate = [BoxGraph([env], box).distances_from(source, limit)
                    for env in envs]
        singles = [one.distances_from(tuple(sites[i]), limit) for i in picks]
    finally:
        percolation.WHOLE_FRONTIER = default
    assert _same_bits(got_stack, want_stack)
    assert _same_bits(got_sources, want_sources)
    assert _same_bits(np.concatenate(separate), got_stack)
    assert _same_bits(np.concatenate(singles), got_sources)


@pytest.mark.parametrize("whole", [0, None], ids=["buckets", "whole"])
@pytest.mark.parametrize("model", ORACLE_MODELS,
                         ids=lambda m: f"{type(m).__name__}")
def test_distance_rows_are_a_fixed_point_of_edge_relaxation(monkeypatch,
                                                            model, whole):
    # every site's weight is the least fl(d[u] + w) over its edges (0 at
    # the source), so some edge attains it exactly and none improves it;
    # the weights here come from edge_weight, not from the graph's tables
    if whole is not None:
        monkeypatch.setattr(percolation, "WHOLE_FRONTIER", whole)
    env = Environment(model, seed=5, dimension=2)
    g = BoxGraph([env], BoxRegion((0, 0), 6, "l1"))
    dist = g.distances_from((1, -2))[0]
    edges = box_edges((0, 0), 6, "l1")
    bases = np.array([b for b, _ in edges])
    axes = np.array([k for _, k in edges])
    ends = bases + np.eye(2, dtype=np.int64)[axes]
    u, v = g.rows(bases), g.rows(ends)
    w = np.array([env.edge_weight(e) for e in edges])
    best = np.full(len(dist), np.inf)
    best[g.row((1, -2))] = 0.0
    np.minimum.at(best, v, dist[u] + w)
    np.minimum.at(best, u, dist[v] + w)
    assert np.isfinite(dist).all()
    assert np.array_equal(best, dist)


def test_multi_source_search_rejects_stacks_and_outside_sites():
    env = Environment(Exponential(1.0), seed=1, dimension=2)
    box = BoxRegion((0, 0), 3, "l1")
    with pytest.raises(ValueError, match="one-environment"):
        BoxGraph([env, env], box).distances_from([(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="outside box"):
        BoxGraph([env], box).distances_from([(0, 0), (3, 3)])


# --------------------------------------------------------------------------
# the chunked build against one edge_weights call over the box


def _one_call_tables(envs, box):
    """The neighbour and forward weight tables of a box graph, the rows
    from a dict of the sites and each environment's weights from one
    edge_weights call over the box's edges, grouped by axis (the chunked
    build goes site by site)."""
    sites = box.site_array()
    n, d = sites.shape
    row = {s: i for i, s in enumerate(map(tuple, sites.tolist()))}
    forward = np.array([[row.get(s[:k] + (s[k] + 1,) + s[k + 1:], -1)
                         for k in range(d)] for s in row]).reshape(n, d)
    axes, rows = np.nonzero(forward.T >= 0)
    cols = forward[rows, axes]
    nbr = np.repeat(np.arange(n, dtype=np.int32), 2 * d).reshape(n, 2 * d)
    nbr[rows, axes] = cols
    nbr[cols, axes + d] = rows
    wt = np.full((len(envs), n, d), np.inf)
    for block, env in zip(wt, envs):
        block[rows, axes] = env.edge_weights(sites[rows], axes)
    return nbr, wt


CHUNK_MODELS = [Constant(1.5), Exponential(1.0), TwoValued(1.0, 2.0, 0.5),
                Pareto(2.5), Rotation(profiles="shifted"),
                MovingAverage((0.3, 0.7))]


@pytest.mark.parametrize("model", CHUNK_MODELS,
                         ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_chunked_build_equals_one_call_over_the_box(monkeypatch, model, d):
    box = BoxRegion((1,) + (0,) * (d - 1), (9, 5, 3)[d - 1], "l1")
    envs = [Environment(model, seed=s, dimension=d) for s in (4, 0, 9)]
    sites = [tuple(s) for s in box.site_array().tolist()]
    sources = [sites[0], sites[len(sites) // 2], sites[-1]]
    want_nbr, want_wt = _one_call_tables(envs, box)
    calls = []
    weigh = Environment.edge_weights

    def spy(self, bases, axes):
        calls.append(len(bases))
        return weigh(self, bases, axes)

    monkeypatch.setattr(Environment, "edge_weights", spy)
    m = len(box_edges(box.center, box.radius, "l1"))
    found = []
    for chunk in (7, m):
        monkeypatch.setattr(percolation, "EDGE_CHUNK", chunk)
        calls.clear()
        one, stack = BoxGraph(envs[:1], box), BoxGraph(envs, box)
        # one call per environment and chunk of chunk // d whole rows, all
        # edges once each
        assert len(calls) == 4 * math.ceil(len(sites) / max(1, chunk // d))
        assert max(calls) <= chunk and sum(calls) == 4 * m
        for g, wt in ((one, want_wt[:1]), (stack, want_wt)):
            assert _same_bits(g._nbr, want_nbr)
            assert _same_bits(g._wt, wt)
        found.append([one.distances_from(sources[1]),
                      stack.distances_from(sources[1]),
                      one.distances_from(sources)])
    for small, whole in zip(*found):
        assert _same_bits(small, whole)


def test_row_tables_are_int32_and_sites_int64():
    env = Environment(Exponential(1.0), seed=0, dimension=3)
    g = BoxGraph([env], BoxRegion((0, 1, 0), 4, "l1"))
    n = len(g._nbr)
    assert g._nbr.dtype == np.int32 and g._nbr.shape == (n, 6)
    # one forward weight per edge and axis, not one per edge end
    assert g._wt.dtype == np.float64 and g._wt.shape == (1, n, 3)
    assert g.sites.dtype == np.int64
    assert g.rows(g.sites).dtype == np.int64


def test_building_the_largest_box_peaks_below_9_mb():
    # the largest box that the configs, the benchmark and the tests build:
    # its tables and runs hold 7.50 MB, and the build peaks at 8.19 MB
    # (tracemalloc), so 9 MB allows more than twice the measured transient
    env = Environment(Exponential(1.0), seed=0, dimension=3)
    box = BoxRegion((0, 0, 0), 48, "l1")
    assert box.site_count() == 152193
    tracemalloc.start()
    try:
        BoxGraph([env], box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9e6


@pytest.mark.parametrize("model, seeds, directions, n_max", [
    (Exponential(1.0), [0], [(1, 0, 0), (1, 1, 0), (1, 1, 1)], 4),
    (TwoValued(1.0, 2.0, 0.5), [0, 1], [(1, 0), (0, 1), (1, 1), (2, 1)], 10)],
    ids=["d3", "d2_stack"])
def test_a_shape_box_builds_below_its_certificate(model, seeds, directions,
                                                  n_max):
    # the first round of the benchmark's shape scans, one d=3 box and a
    # stack of two d=2 boxes of radius twice the largest gap: hashing one
    # chunk holds less than certifying the targets of the search that
    # follows (tracemalloc: 1.37 against 1.49 MB, and 0.61 against 0.67 MB)
    d = len(directions[0])
    origin = (0,) * d
    envs = [Environment(model, seed=s, dimension=d) for s in seeds]
    gap = max(map(norm1, directions)) * n_max
    tracemalloc.start()
    try:
        g = BoxGraph(envs, BoxRegion(origin, 2 * gap, "l1"))
        build = tracemalloc.get_traced_memory()[1]
        dist = g.distances_from(origin)
        rows = g.rows([tuple(k * c for c in t) for t in directions
                       for k in range(1, n_max + 1)])
        tracemalloc.reset_peak()
        g.certified(dist, rows)
        certificate = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build <= certificate


def test_hashing_holds_one_chunk_beyond_the_two_tables(monkeypatch):
    # d=2, radius 700: the int32 neighbour rows and float64 weights take
    # 32 bytes per site, 31.4 MB; while hashing, a build holds only its runs
    # and one chunk beyond them, and no count per row
    env = Environment(Exponential(1.0), seed=0, dimension=2)
    box = BoxRegion((0, 0), 700, "l1")
    tables = 32 * box.site_count()
    beyond = []
    weigh = Environment.edge_weights

    def spy(self, bases, axes):
        beyond.append(tracemalloc.get_traced_memory()[0] - tables)
        return weigh(self, bases, axes)

    monkeypatch.setattr(Environment, "edge_weights", spy)
    tracemalloc.start()
    try:
        BoxGraph([env], box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured: 0.24 MB beyond the tables at a call, a peak of 31.79 MB
    assert tables == 31404832
    assert max(beyond) <= 0.4e6
    assert peak <= 32.5e6


@pytest.mark.parametrize("model", CHUNK_MODELS,
                         ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_one_chunk_of_hashing_stays_within_its_allowance(monkeypatch, model,
                                                        d):
    # from the first edge_weights call on, the build holds its tables, its
    # runs with their int64 row bounds and offsets (24d bytes per run), and
    # one chunk's transients, which graph_bytes allows EDGE_CHUNK edges
    # for; the box has several chunks, so whole chunks are measured
    box = BoxRegion((0,) * d, {1: 20000, 2: 60, 3: 18, 4: 9}[d], "l1")
    env = Environment(model, seed=5, dimension=d)
    weigh = Environment.edge_weights
    calls = []

    def spy(self, bases, axes):
        if not calls:
            tracemalloc.reset_peak()
        calls.append(len(bases))
        return weigh(self, bases, axes)

    monkeypatch.setattr(Environment, "edge_weights", spy)
    tracemalloc.start()
    try:
        g = BoxGraph([env], box)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    runs = len(g._runs.head)
    assert len(calls) >= 3 and max(calls) > percolation.EDGE_CHUNK // 2
    assert peak - held - 24 * d * runs <= percolation.graph_bytes(0, d, 0)


def test_largest_box_builds_and_searches_without_box_sized_transients(
        monkeypatch):
    # the graph's own tables take about 7.3 MB; building and searching
    # may add only a few MB on top, and no more than they reserve
    env = Environment(Exponential(1.0), seed=0, dimension=3)
    box = BoxRegion((0, 0, 0), 48, "l1")
    asked = _reserved(monkeypatch)
    tracemalloc.start()
    try:
        g = BoxGraph([env], box)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        g.distances_from((0, 0, 0))
        search = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build <= 25e6
    assert search <= 24e6
    assert build <= asked[0] and search <= asked[1]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_edgeless_box_makes_one_empty_call_per_environment(monkeypatch, d):
    box = BoxRegion((2,) * d, 0, "l1")
    envs = [Environment(Exponential(1.0), seed=s, dimension=d)
            for s in (0, 1, 2)]
    calls = []
    weigh = Environment.edge_weights

    def spy(self, bases, axes):
        calls.append((bases.shape, axes.shape))
        return weigh(self, bases, axes)

    monkeypatch.setattr(Environment, "edge_weights", spy)
    for stacked in (1, 3):
        calls.clear()
        g = BoxGraph(envs[:stacked], box)
        assert calls == [((0, d), (0,))] * stacked
        assert g._nbr.tolist() == [[0] * (2 * d)]
        assert np.isinf(g._wt).all()
        assert g.distances_from((2,) * d).tolist() == [[0.0]] * stacked
