import itertools
import math
import tracemalloc

import numpy as np
import pytest

from shapelab.environment import (Constant, Environment, Exponential,
                                  MovingAverage, Pareto, Rotation, TwoValued)
from shapelab import percolation
from shapelab.lattice import BoxRegion, SiteIndex, norm1, sub
from shapelab.percolation import (EXACT, MAX_BOX_SITES, OPEN, BoxGraph,
                                  ConvergenceError, ball, distance,
                                  distance_converged, exact_margin, geodesic,
                                  refine, structure_embed)

from conftest import brute_force_distance
from frozen import GOLDEN_TWO_VALUED_DISTANCE
from test_acceptance import (_box_weight_table, _enumeration_oracle,
                             _rect_box)


def test_constant_weights_word_metric():
    env = Environment(Constant(2.5), seed=0, dimension=2)
    for n in [(3, 2), (-1, 4), (0, 6)]:
        got = distance(env, (0, 0), n, 2 * norm1(n)).value
        assert got == 2.5 * norm1(n)


def test_explicit_box_oracle_equality():
    rng = np.random.default_rng(11)
    for _ in range(25):
        env = Environment(Exponential(1.0), seed=int(rng.integers(1 << 30)),
                          dimension=2)
        box = BoxRegion((1, 1), 1, "linf")
        got = distance(env, (0, 0), (2, 2), 99, box=box).value
        oracle = brute_force_distance(env, (0, 0), (2, 2), box)
        assert got == oracle


def test_symmetry_exact():
    env = Environment(Exponential(1.0), seed=42, dimension=2)
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = tuple(int(v) for v in rng.integers(-4, 5, 2))
        n = tuple(int(v) for v in rng.integers(-4, 5, 2))
        r = max(norm1(sub(n, m)), 1) + 2
        assert distance(env, m, n, r).value == distance(env, n, m, r).value


def test_identity_is_zero():
    env = Environment(Exponential(1.0), seed=1, dimension=2)
    assert distance(env, (2, -1), (2, -1), 3).value == 0.0


def test_equivariance_exact():
    env = Environment(Exponential(1.0), seed=3, dimension=2)
    rng = np.random.default_rng(5)
    for _ in range(100):
        k = tuple(int(v) for v in rng.integers(-30, 31, 2))
        m = tuple(int(v) for v in rng.integers(-3, 4, 2))
        n = tuple(int(v) for v in rng.integers(-3, 4, 2))
        r = max(norm1(sub(n, m)), 1) + 2
        a = distance(env.shift(k), m, n, r).value
        b = distance(env, tuple(x + y for x, y in zip(m, k)),
                     tuple(x + y for x, y in zip(n, k)), r).value
        assert a == b


def test_box_monotonicity():
    env = Environment(TwoValued(0.5, 5.0, 0.5), seed=9, dimension=2)
    pair = ((0, 0), (4, 1))
    vals = [distance(env, *pair, r).value for r in (5, 10, 20, 40)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_triangle_inequality_common_box():
    env = Environment(Exponential(1.0), seed=21, dimension=2)
    box = BoxRegion((0, 0), 9, "l1")
    rng = np.random.default_rng(2)
    for _ in range(300):
        m, k, n = (tuple(int(v) for v in rng.integers(-3, 4, 2))
                   for _ in range(3))
        dmn = distance(env, m, n, 0, box=box).value
        dmk = distance(env, m, k, 0, box=box).value
        dkn = distance(env, k, n, 0, box=box).value
        # when k sits on a geodesic the triangle is an equality and the
        # float sum of the two legs rounds at machine epsilon
        assert dmn <= dmk + dkn + 4e-16 * dmn


def test_distance_converged_constant_first_round():
    env = Environment(Constant(1.0), seed=0, dimension=2)
    r = distance_converged(env, (0, 0), (3, 2))
    assert r.converged and r.value == 5.0


def test_two_valued_converged_fixture():
    env = Environment(TwoValued(1.0, 10.0, 0.5), seed=7, dimension=2)
    r = distance_converged(env, (0, 0), (3, 1))
    assert r.converged
    assert r.value == GOLDEN_TWO_VALUED_DISTANCE["value"]
    assert r.box_radius_used <= GOLDEN_TWO_VALUED_DISTANCE["radius"]


def test_nonconvergence_flag_honored():
    # a radius cap below the first refinement must flag, never truncate
    # silently; the value is the last computed one
    env = Environment(Pareto(0.8), seed=0, dimension=2)
    r = distance_converged(env, (0, 0), (4, 0), radius_cap=9)
    assert not r.converged
    assert math.isfinite(r.value) and r.box_radius_used == 8


def test_geodesic_matches_distance_and_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        env = Environment(Exponential(1.0), seed=int(rng.integers(1 << 30)),
                          dimension=2)
        box = BoxRegion((1, 1), 1, "linf")
        g = geodesic(env, (0, 0), (2, 2), 99, box=box)
        assert g.path[0] == (0, 0) and g.path[-1] == (2, 2)
        assert g.total_weight == distance(env, (0, 0), (2, 2), 99, box=box).value
        assert g.total_weight == brute_force_distance(env, (0, 0), (2, 2), box)


def test_geodesic_weight_is_path_sum():
    env = Environment(Exponential(1.0), seed=77, dimension=2)
    g = geodesic(env, (3, 1), (0, 0), 8)
    acc = 0.0
    # accumulate from the lexicographically smaller endpoint, the same
    # order the engine uses
    verts = list(g.path)
    if verts[0] > verts[-1]:
        verts.reverse()
    for a, b in zip(verts, verts[1:]):
        axis = max(range(2), key=lambda k: abs(b[k] - a[k]))
        base = a if b[axis] > a[axis] else b
        acc += env.edge_weight((base, axis))
    assert acc == g.total_weight


def test_geodesic_deterministic_under_ties():
    env = Environment(Constant(1.0), seed=0, dimension=2)
    g1 = geodesic(env, (0, 0), (2, 1), 6)
    g2 = geodesic(env, (0, 0), (2, 1), 6)
    assert g1.path == g2.path
    assert len(g1.path) == 4 and g1.total_weight == 3.0


def test_geodesic_under_total_ties_is_elementary_and_exact():
    # every path weighs 0, so the search tree alone picks the witness
    env = Environment(Constant(0.0), seed=0, dimension=2)
    for m, n in [((0, 0), (3, 2)), ((2, -1), (-2, 1)), ((1, 1), (1, 1))]:
        g = geodesic(env, m, n, 6)
        assert g.path[0] == m and g.path[-1] == n
        assert len(set(g.path)) == len(g.path)
        assert g.total_weight == distance(env, m, n, 6).value == 0.0


def test_ball_properties():
    env = Environment(Constant(2.0), seed=0, dimension=2)
    b = ball(env, (0, 0), 4.0, 6)
    assert set(b) == {s for s in BoxRegion((0, 0), 2, "l1").sites()}
    envr = Environment(Exponential(1.0), seed=6, dimension=2)
    small = set(ball(envr, (0, 0), 1.0, 8))
    big = set(ball(envr, (0, 0), 2.5, 8))
    assert (0, 0) in small and small <= big


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("norm", ["l1", "linf"])
def test_box_graph_row_lookup(d, norm):
    env = Environment(Constant(1.0), seed=0, dimension=d)
    for radius in range(6):
        center = (3, -2, 5)[:d]
        box = BoxRegion(center, radius, norm)
        g = BoxGraph(env, box)
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


def test_ball_is_sorted_list():
    env = Environment(Exponential(1.0), seed=6, dimension=3)
    b = ball(env, (1, 0, -1), 2.0, 5)
    assert isinstance(b, list) and len(b) > 1
    assert b == sorted(b)
    assert all(type(s) is tuple and all(type(c) is int for c in s) for s in b)


def test_mean_subadditivity():
    vals1, vals2 = [], []
    for seed in range(200):
        env = Environment(Exponential(1.0), seed=seed, dimension=2)
        vals1.append(distance(env, (0, 0), (2, 0), 6).value)
        vals2.append(distance(env, (0, 0), (4, 0), 10).value)
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
    g = BoxGraph(env, BoxRegion(center, emb.box_radius_used, "l1"))
    rows = {s: g.distances_from(s) for s in sites}
    for i, s in enumerate(sites):
        for j, t in enumerate(sites):
            src, dst = (s, t) if s <= t else (t, s)
            assert emb.dist[i, j] == rows[src][g.row(dst)]


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


def test_sites_to_csv_export():
    from shapelab.percolation import sites_to_csv

    env = Environment(Constant(1.0), seed=0, dimension=2)
    b = ball(env, (0, 0), 1.0, 4)
    text = sites_to_csv(b)
    lines = text.strip().splitlines()
    assert lines[0] == "x_0,x_1"
    assert len(lines) == 1 + len(b)
    g = geodesic(env, (0, 0), (1, 1), 4)
    assert sites_to_csv(list(g.path)).count("\n") == len(g.path) + 1


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

        def evaluate(r, prev):
            graphs.append(BoxGraph(env, BoxRegion((0, 0), r, "l1")))
            return graphs[-1].distances_from((0, 0))

        values, radius, states = refine(evaluate, 2, 2, 1e-9, model.floor())
        oracle = _enumeration_oracle(env, (0, 0), square,
                                     _box_weight_table(env, square))
        exact = states == EXACT
        for site, v in zip(graphs[0].sites[exact].tolist(), values[exact]):
            assert v == oracle[tuple(site)]
        assert radius == 2 and set(states.tolist()) <= {EXACT, OPEN}
        certified += int(exact.sum())
    assert certified >= 8 * 5  # at least the source and its neighbors


def test_certified_distance_equals_the_4r_box():
    certified = 0
    for model in (Constant(1.0), TwoValued(1.0, 2.0, 0.5), Pareto(2.0)):
        for seed in range(6):
            env = Environment(model, seed=seed, dimension=2)
            m, n = (0, 0), (3, -2)
            r = distance_converged(env, m, n)
            if r.exact:
                far = distance(env, m, n, 4 * r.box_radius_used).value
                assert r.converged and r.value == far
                certified += 1
    assert certified > 0
    env = Environment(Constant(1.0), seed=0, dimension=2)
    r = distance_converged(env, (0, 0), (3, 2))
    assert r.exact and r.box_radius_used == 10 and r.value == 5.0


def test_exponential_distance_is_never_exact():
    assert Exponential(1.0).floor() == 0.0
    assert exact_margin(0.0, 100) == 0.0
    for seed in range(4):
        env = Environment(Exponential(1.0), seed=seed, dimension=2)
        r = distance_converged(env, (0, 0), (2, 1))
        assert r.converged and not r.exact


@pytest.mark.parametrize("floor", [1.0, 0.1, 1.0 / 3.0, 0.7, 5e-324, 1e300,
                                   1.7e308])
def test_exact_margin_is_below_the_fold_of_its_steps(floor):
    from fractions import Fraction

    fold = 0.0
    for k in range(1, 3001):
        fold += floor
        m = exact_margin(floor, k)
        bound = Fraction(floor) * k * (1 - Fraction(k, 2**52))
        # the largest float at or below the bound, which the fold of k
        # copies of the floor never undercuts
        up = math.nextafter(m, math.inf)
        assert Fraction(m) <= bound
        assert up == math.inf or Fraction(up) > bound
        assert m <= fold
    assert exact_margin(floor, 0) == 0.0 == exact_margin(floor, -3)
    assert exact_margin(1.0, 10) < exact_margin(1.0, 11)


def test_limited_search_equals_unlimited_on_reached_sites():
    for model in (Exponential(1.0), TwoValued(1.0, 2.0, 0.5)):
        env = Environment(model, seed=3, dimension=3)
        g = BoxGraph(env, BoxRegion((1, 0, -1), 9, "l1"))
        full = g.distances_from((0, 0, 0))
        # a limit equal to a reached value keeps that value
        for limit in (float(np.sort(full)[len(full) // 7]), 2.5):
            part = g.distances_from((0, 0, 0), limit)
            near = full <= limit
            assert 0 < near.sum() < len(full)
            assert np.array_equal(part[near], full[near])
            assert np.all(np.isinf(part[~near]))


def test_box_graph_refuses_a_box_above_the_site_limit(monkeypatch):
    def fail(self):
        raise AssertionError("site_array called")

    monkeypatch.setattr(BoxRegion, "site_array", fail)
    box = BoxRegion((0, 0, 0), 92, "l1")  # 1055425 sites
    assert box.site_count() > MAX_BOX_SITES
    env = Environment(Exponential(1.0), seed=0, dimension=3)
    with pytest.raises(MemoryError, match=f"1055425 sites.*{MAX_BOX_SITES}"):
        BoxGraph(env, box)


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
        one = BoxGraph(env, box)
        assert np.array_equal(stack.sites, one.sites)
        full = one.distances_from(source)
        assert np.array_equal(row, full)
        limit = float(np.median(full))
        part = stack.distances_from(source, limit)[envs.index(env)]
        assert np.array_equal(part, one.distances_from(source, limit))


def test_one_environment_stack_keeps_single_arrays():
    env = Environment(TwoValued(1.0, 2.0, 0.5), seed=2, dimension=2)
    box = BoxRegion((0, 0), 6, "l1")
    stack = BoxGraph([env], box)
    single = BoxGraph(env, box)
    assert single.distances_from((1, 1)).shape == (box.site_count(),)
    assert np.array_equal(stack.distances_from((1, 1)),
                          single.distances_from((1, 1))[None, :])
    with pytest.raises(ValueError):
        stack.distances_from((1, 1), predecessors=True)
    with pytest.raises(ValueError):
        BoxGraph([], box)


def test_stack_is_counted_against_the_site_limit(monkeypatch):
    from shapelab import percolation

    box = BoxRegion((0, 0), 5, "l1")  # 61 sites
    monkeypatch.setattr(percolation, "MAX_BOX_SITES", 150)
    envs = [Environment(Exponential(1.0), seed=s, dimension=2)
            for s in range(3)]
    assert BoxGraph(envs[:2], box).distances_from((0, 0)).shape == (2, 61)

    def fail(self):
        raise AssertionError("site_array called")

    monkeypatch.setattr(BoxRegion, "site_array", fail)
    with pytest.raises(MemoryError, match="stack of 3 boxes holds 183 sites"):
        BoxGraph(envs, box)


def test_multi_source_search_is_counted_against_the_site_limit(monkeypatch):
    env = Environment(Exponential(1.0), seed=1, dimension=2)
    g = BoxGraph(env, BoxRegion((0, 0), 5, "l1"))  # 61 sites
    monkeypatch.setattr(percolation, "MAX_BOX_SITES", 150)
    assert g.distances_from([(0, 0), (1, 0)]).shape == (2, 61)

    def fail(*args, **kwargs):
        raise AssertionError("search allocated")

    monkeypatch.setattr(percolation, "_search", fail)
    with pytest.raises(MemoryError, match="3 blocks holds 183 sites"):
        g.distances_from([(0, 0), (1, 0), (0, 1)])


def test_box_graph_refuses_a_site_index_above_its_limit(monkeypatch):
    def fail(self):
        raise AssertionError("sites built or counted")

    monkeypatch.setattr(BoxRegion, "site_array", fail)
    monkeypatch.setattr(BoxRegion, "site_count", fail)
    # 335137 sites, under the site limit, in a bounding box of 34**5 slots
    box = BoxRegion((0,) * 5, 16, "l1")
    assert box.index_slots() == 34 ** 5 > 8 * MAX_BOX_SITES
    env = Environment(Exponential(1.0), seed=0, dimension=5)
    with pytest.raises(MemoryError,
                       match=f"{34 ** 5} slots.*{8 * MAX_BOX_SITES}"):
        BoxGraph(env, box)


def test_index_slots_count_the_site_index_table():
    for center, radius, norm in [((0,), 0, "l1"), ((2, -1), 4, "l1"),
                                 ((1, 0, 3), 3, "linf"), ((0,) * 4, 2, "l1")]:
        box = BoxRegion(center, radius, norm)
        table = SiteIndex(box.site_array())._table
        assert table.size == box.index_slots()


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
        one, stack = BoxGraph(envs[0], region), BoxGraph(envs, region)
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
            assert _same_bits(one.distances_from(src, limit), want[0])
            assert _same_bits(stack.distances_from(src, limit), want)
            want = _scipy_search(envs[:1] * 3, region, sources, limit)
            assert _same_bits(one.distances_from(sources, limit), want)
            assert _same_bits(one.distances_from(np.array(sources), limit),
                              want)


@pytest.mark.parametrize("whole", [0, None], ids=["buckets", "whole"])
@pytest.mark.parametrize("model", ORACLE_MODELS,
                         ids=lambda m: f"{type(m).__name__}")
def test_predecessor_rows_form_an_exact_search_tree(monkeypatch, model,
                                                    whole):
    if whole is not None:
        monkeypatch.setattr(percolation, "WHOLE_FRONTIER", whole)
    env = Environment(model, seed=5, dimension=2)
    g = BoxGraph(env, BoxRegion((0, 0), 6, "l1"))
    source = g.row((1, -2))
    dist, pred = g.distances_from((1, -2), predecessors=True)
    assert pred[source] == -9999
    for v in range(len(g.sites)):
        if v == source:
            continue
        u = int(pred[v])
        step = g.sites[v] - g.sites[u]
        axis = int(np.flatnonzero(step)[0])
        assert np.abs(step).sum() == 1
        base = g.sites[u if step[axis] > 0 else v]
        w = env.edge_weight((tuple(base.tolist()), axis))
        assert dist[u] + w == dist[v]
        # following the tree from v reaches the source
        seen = {v}
        while u != source:
            assert u not in seen
            seen.add(u)
            u = int(pred[u])


def test_multi_source_search_rejects_stacks_and_outside_sites():
    env = Environment(Exponential(1.0), seed=1, dimension=2)
    box = BoxRegion((0, 0), 3, "l1")
    with pytest.raises(ValueError, match="one-environment"):
        BoxGraph([env, env], box).distances_from([(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="outside box"):
        BoxGraph(env, box).distances_from([(0, 0), (3, 3)])
    with pytest.raises(ValueError, match="predecessors"):
        BoxGraph(env, box).distances_from([(0, 0)], predecessors=True)


# --------------------------------------------------------------------------
# the chunked build against one edge_weights call over the box


def _one_call_tables(envs, box):
    """The neighbour and weight tables of a box graph, each environment's
    weights from one edge_weights call over the box's edges, grouped by
    axis (the chunked build goes site by site)."""
    sites = box.site_array()
    n, d = sites.shape
    forward = SiteIndex(sites).forward_neighbors()
    axes, rows = np.nonzero(forward.T >= 0)
    cols = forward[rows, axes]
    nbr = np.repeat(np.arange(n, dtype=np.int32), 2 * d).reshape(n, 2 * d)
    nbr[rows, axes] = cols
    nbr[cols, axes + d] = rows
    wt = np.full((len(envs), n, 2 * d), np.inf)
    for block, env in zip(wt, envs):
        block[rows, axes] = block[cols, axes + d] = env.edge_weights(
            sites[rows], axes)
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
    m = box.edge_count()
    found = []
    for chunk in (7, m):
        monkeypatch.setattr(percolation, "EDGE_CHUNK", chunk)
        calls.clear()
        one, stack = BoxGraph(envs[0], box), BoxGraph(envs, box)
        # one call per environment and chunk, all edges once each
        assert len(calls) == 4 * math.ceil(m / chunk)
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
    g = BoxGraph(env, BoxRegion((0, 1, 0), 4, "l1"))
    assert g._nbr.dtype == np.int32
    assert g._index._table.dtype == np.int32
    assert g.sites.dtype == np.int64
    assert g.rows(g.sites).dtype == np.int64


def test_building_the_largest_box_peaks_below_40_mb():
    # the largest box that the configs, the benchmark and the tests build
    env = Environment(Exponential(1.0), seed=0, dimension=3)
    box = BoxRegion((0, 0, 0), 48, "l1")
    assert box.site_count() == 152193
    tracemalloc.start()
    try:
        BoxGraph(env, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6


def test_largest_box_builds_and_searches_without_box_sized_transients():
    # the graph's own tables take about 18.5 MB; building and searching
    # may add only a few MB on top
    env = Environment(Exponential(1.0), seed=0, dimension=3)
    box = BoxRegion((0, 0, 0), 48, "l1")
    tracemalloc.start()
    try:
        g = BoxGraph(env, box)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        g.distances_from((0, 0, 0))
        search = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build <= 25e6
    assert search <= 24e6


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
    for env, stacked in ((envs[0], 1), (envs, 3)):
        calls.clear()
        g = BoxGraph(env, box)
        assert calls == [((0, d), (0,))] * stacked
        assert g._nbr.tolist() == [[0] * (2 * d)]
        assert np.isinf(g._wt).all()
        want = [[0.0]] * stacked if stacked > 1 else [0.0]
        assert g.distances_from((2,) * d).tolist() == want
