"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line (run with -s to see them inline).

Each criterion pins its tolerances and seeds here; nothing is deferred to
later calibration.  The frozen constants live in frozen.py.
"""

import itertools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from shapelab.environment import (Constant, Environment, Exponential,
                                  Rotation, TwoValued)
from shapelab.lattice import (BoxRegion, build_path_family, audit_family,
                              enumerate_targets, norm1, sub)
from shapelab.lorentz import WeightedSample, lorentz_norm, lp_norm
from shapelab.percolation import BoxGraph, distance, structure_embed
from shapelab.rkhs import (MoebiusMap, hyperbolic_distance, kernel_metric,
                           large_scale_compare, random_walk)
from shapelab.schrodinger import PotentialModel, lyapunov
from shapelab.shape import (directional_constant, estimate_shape,
                            default_directions, maximal_bound_rhs,
                            sample_maximal_stats)
from shapelab import cocycle as cc

from frozen import (DOMINATION_CONSTANT, LEMMA_COMB_CONSTANT,
                    TAIL_PRODUCT_BOUND)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def _environments(dim):
    return [
        Environment(Exponential(1.0), seed=100 + dim, dimension=dim),
        Environment(Rotation(alpha=0.5417516871838993, profiles="shifted"),
                    seed=200 + dim, dimension=dim),
    ]


def test_criterion_01_semimetric_axioms():
    rng = np.random.default_rng(101)
    triples = 0
    for dim in (2, 3):
        for env in _environments(dim):
            box = BoxRegion((0,) * dim, 3 * dim + 3, "l1")
            g = BoxGraph([env], box)
            for trial in range(250):
                m, k, n = (tuple(int(v) for v in rng.integers(-2, 3, dim))
                           for _ in range(3))
                rows = {s: g.distances_from(s)[0] for s in {m, k, n}}

                def d(a, b):
                    # the engine's convention: evaluate from the lex-min end
                    lo, hi = (a, b) if a <= b else (b, a)
                    return rows[lo][g.row(hi)]

                assert d(m, m) == 0.0 and rows[m][g.row(m)] == 0.0
                assert d(m, n) == d(n, m)
                # equality cases round at machine epsilon in the leg sum
                assert d(m, n) <= d(m, k) + d(k, n) + 4e-16 * max(d(m, n), 1)
                if trial < 25:
                    # exercise the public operation both ways as well
                    a = distance(env, m, n, 0, box=box)
                    b = distance(env, n, m, 0, box=box)
                    assert a == b == d(m, n)
                triples += 1
    report(1, triples == 1000,
           f"semimetric axioms exact on {triples} triples, "
           "exponential and rotation environments, d in {2,3}")


def test_criterion_02_equivariance():
    rng = np.random.default_rng(202)
    checked = 0
    env2 = Environment(Exponential(1.0), seed=7, dimension=2)
    env3 = Environment(Rotation(alpha=0.3183098861837907), seed=8, dimension=3)
    for env, count in ((env2, 700), (env3, 300)):
        dim = env.dimension
        for _ in range(count):
            k = tuple(int(v) for v in rng.integers(-25, 26, dim))
            m = tuple(int(v) for v in rng.integers(-3, 4, dim))
            n = tuple(int(v) for v in rng.integers(-3, 4, dim))
            r = max(norm1(sub(n, m)), 1) + 2
            a = distance(env.shift(k), m, n, r)
            b = distance(env, tuple(x + y for x, y in zip(m, k)),
                         tuple(x + y for x, y in zip(n, k)), r)
            assert a == b
            checked += 1
    report(2, checked == 1000,
           f"shift equivariance exact on {checked} random (k, m, n)")


def _box_weight_table(env, box):
    """All canonical edge weights of the box, fetched in one vectorized
    call so the enumeration oracle runs at dictionary speed."""
    sites = box.sites()
    inside = set(sites)
    bases, axes = [], []
    for s in sites:
        for k in range(env.dimension):
            t = tuple(c + (1 if j == k else 0) for j, c in enumerate(s))
            if t in inside:
                bases.append(s)
                axes.append(k)
    w = env.edge_weights(np.asarray(bases, dtype=np.int64),
                         np.asarray(axes, dtype=np.int64))
    return {(b, a): float(v) for b, a, v in zip(bases, axes, w)}


def _enumeration_oracle(env, src, box, weights):
    """Min over simple paths from src to every box site, summing left to
    right from src; float-identical to the search engine's accumulation."""
    best = {src: 0.0}
    sites = set(box.sites())
    d = env.dimension

    def rec(cur, seen, acc):
        # once every site has a candidate, paths at or above the current
        # worst best cannot improve anything (weights are nonnegative)
        if len(best) == len(sites) and acc >= max(best.values()):
            return
        for k in range(d):
            for sign in (1, -1):
                nxt = tuple(c + (sign if j == k else 0)
                            for j, c in enumerate(cur))
                if nxt in seen or nxt not in sites:
                    continue
                val = acc + weights[(cur if sign == 1 else nxt, k)]
                if val < best.get(nxt, math.inf):
                    best[nxt] = val
                rec(nxt, seen | {nxt}, val)

    rec(src, {src}, 0.0)
    return best


def test_criterion_03_brute_force_oracle():
    rng = np.random.default_rng(303)
    checked = 0
    for seed in range(100):
        env = Environment(Exponential(1.0), seed=seed, dimension=2)
        for side in (3, 4):
            lo = tuple(int(v) for v in rng.integers(-3, 3, 2))
            box = _rect_box(lo, side)
            weights = _box_weight_table(env, box)
            g = BoxGraph([env], box)
            for src in box.sites():
                oracle = _enumeration_oracle(env, src, box, weights)
                row = g.distances_from(src)[0]
                for dst in box.sites():
                    if dst < src:
                        continue  # engine evaluates from the lex-min end
                    assert row[g.row(dst)] == oracle[dst]
                    checked += 1
    report(3, checked > 0,
           f"boxed search equals exhaustive path enumeration on {checked} "
           "pairs across 100 seeds (3x3 and 4x4 boxes)")


class _rect_box:
    """Axis-aligned rectangle of side x side sites anchored at lo."""

    def __init__(self, lo, side):
        self.lo = lo
        self.side = side
        self.radius = side  # refinement bookkeeping only

    def contains(self, s):
        return all(0 <= c - l < self.side for c, l in zip(s, self.lo))

    def sites(self):
        rng = range(self.side)
        return [tuple(l + o for l, o in zip(self.lo, off))
                for off in itertools.product(rng, repeat=len(self.lo))]

    def site_array(self):
        return np.asarray(self.sites(), dtype=np.int64)


def test_criterion_04_constant_weight_shape():
    c = 2.0
    est = estimate_shape(Constant(c), range(2), default_directions(2, 2), 6)
    worst = max(abs(s.estimate - c) for s in est.series)
    verts = est.unit_ball_vertices()
    ball_err = float(np.max(np.abs(np.sum(np.abs(verts), axis=1) - 1.0 / c)))
    ok = worst <= 1e-9 and ball_err <= 1e-9
    report(4, ok, f"constant-weight directional constants off by {worst:.2e}, "
                  f"unit ball off the scaled cross-polytope by {ball_err:.2e}")


def test_criterion_05_shape_convergence_diagnostic():
    (series,) = directional_constant(TwoValued(1.0, 2.0, 0.5), range(100),
                                     [(1, 0)], 32, dimension=2)
    a = series.means
    ref = a[31]
    rel = np.abs(a[15:] - ref) / ref
    ok = float(rel.max()) < 0.02 and series.excluded_fraction == 0.0
    report(5, ok, f"two-valued axis series within {rel.max():.3%} of a_32 "
                  "for k >= 16 over 100 seeds")


def test_criterion_06_path_family_audit():
    stats = {2: 0, 3: 0}
    rejected = {2: 0, 3: 0}
    worst = {2: 0.0, 3: 0.0}
    for d in (2, 3):
        for n in enumerate_targets(d, 8):
            try:
                fam = build_path_family(n)
            except ValueError:
                rejected[d] += 1
                continue
            a = audit_family(fam)
            assert a.cardinality_ok and a.containment_ok and a.start_end_ok, n
            assert a.off_multiplicity <= 1, n
            assert a.subspace_ok, n
            worst[d] = max(worst[d], a.near_constant)
            stats[d] += 1
        assert worst[d] <= LEMMA_COMB_CONSTANT[d]
    report(6, stats[2] == 128 and stats[3] == 528,
           f"family properties exact on {stats[2]}+{stats[3]} targets "
           f"(near-target constants {worst[2]:.2f}, {worst[3]:.2f}; "
           f"{rejected[2]}+{rejected[3]} targets have no admissible chain)")


def test_criterion_07_pointwise_domination():
    rng = np.random.default_rng(707)
    checked = 0
    worst = math.inf
    while checked < 1000:
        env = Environment(Exponential(1.0), seed=int(rng.integers(1 << 30)),
                          dimension=2)
        n = tuple(int(v) for v in rng.integers(-8, 9, 2))
        N = norm1(n)
        if N == 0 or N > 8:
            continue
        lhs = distance(env, (0, 0), n, 0,
                       box=BoxRegion((0, 0), 2 * N, "l1")) / N
        rhs = maximal_bound_rhs(env, n, DOMINATION_CONSTANT[2])
        assert rhs >= lhs
        worst = min(worst, rhs - lhs)
        checked += 1
    report(7, True, f"domination bound held on {checked} random (env, n) "
                    f"pairs with zero violations (min margin {worst:.3f})")


def test_criterion_08_maximal_tail():
    bounded = sample_maximal_stats(TwoValued(1.0, 2.0), range(200), 6,
                                   [1.0, 2.0, 2.5, 4.0, 8.0], 2)
    beyond = [p for lam, _, p in bounded.tail_products(2) if lam > 2.0]
    assert beyond == [0.0, 0.0, 0.0]
    fresh = sample_maximal_stats(Exponential(1.0), range(1000, 1250), 16,
                                 [1.0, 2.0, 4.0, 8.0], 2)
    products = [p for _, _, p in fresh.tail_products(2)]
    ok = max(products) <= TAIL_PRODUCT_BOUND
    report(8, ok, "bounded-weight tails vanish beyond the bound; "
                  f"exponential products on fresh seeds peak at "
                  f"{max(products):.3f} <= {TAIL_PRODUCT_BOUND}")


def test_criterion_09_lorentz_identities():
    rng = np.random.default_rng(909)
    for c in (0.5, 2.5):
        for p in (1.0, 2.0, 3.0):
            s = WeightedSample(np.array([c]), np.array([1.0]))
            assert abs(lorentz_norm(s, p, 1.0) - c * p) <= 1e-12 * c * p
    for a in (0.2, 0.7):
        for p in (1.5, 2.0):
            s = WeightedSample(np.array([1.0, 0.0]), np.array([a, 1 - a]))
            expect = p * a ** (1 / p)
            assert abs(lorentz_norm(s, p, 1.0) - expect) <= 1e-12 * expect
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 20))
        s = WeightedSample(rng.exponential(1.0, k), rng.uniform(0.05, 1.0, k))
        p = float(rng.uniform(1.0, 4.0))
        n1, n2 = lorentz_norm(s, p, p), lp_norm(s, p)
        worst = max(worst, abs(n1 - n2) / n2)
    report(9, worst <= 1e-12,
           f"norm identities exact; diagonal-index deviation {worst:.2e}")


def test_criterion_10_structure_embedding():
    rng = np.random.default_rng(1010)
    worst_sup = worst_add = 0.0
    for trial in range(100):
        env = Environment(Exponential(1.0), seed=trial, dimension=2)
        count = int(rng.integers(2, 6))
        sites = set()
        while len(sites) < count:
            sites.add(tuple(int(v) for v in rng.integers(-3, 4, 2)))
        emb = structure_embed(env, sorted(sites))
        k = len(emb.sites)
        for i, j in itertools.product(range(k), repeat=2):
            worst_sup = max(worst_sup,
                            abs(emb.sup_norm(i, j) - emb.dist[i, j]))
            for l in range(k):
                gap = emb.vector(i, l) + emb.vector(l, j) - emb.vector(i, j)
                worst_add = max(worst_add, float(np.max(np.abs(gap))))
    ok = worst_sup <= 1e-12 and worst_add <= 1e-12
    report(10, ok, f"embedding identities on 100 site sets: sup-norm defect "
                   f"{worst_sup:.2e}, additivity defect {worst_add:.2e}")


def test_criterion_11_lyapunov_exponents():
    free = lyapunov(PotentialModel("constant", energy=0.0), 1000, n_seeds=2)
    assert abs(free.value) <= 1e-12
    const = lyapunov(PotentialModel("constant", energy=3.0), 10_000, n_seeds=2)
    target = math.log((3 + math.sqrt(5)) / 2)
    assert abs(const.value - target) <= 1e-6
    pot = PotentialModel("bernoulli", energy=0.0)
    est = lyapunov(pot, 4000, n_seeds=8)
    est4 = lyapunov(pot, 16_000, n_seeds=8)
    stable = abs(est.value - est4.value) <= 1.96 * (est.stderr + est4.stderr)
    ok = est.value > 0 and stable
    report(11, ok, f"free 0 (+-1e-12), constant {const.value:.10f} vs "
                   f"{target:.10f}, bernoulli {est.value:.4f} positive and "
                   "stable at 4x length")


def test_criterion_12_fejer_identity():
    lhs0, rhs0 = cc.cesaro_fejer_average(cc.RotationSample(0.0), 5)
    assert lhs0 == pytest.approx(5.0, abs=1e-12)
    assert rhs0 == pytest.approx(5.0, abs=1e-12)
    lhs_h, rhs_h = cc.cesaro_fejer_average(cc.RotationSample(0.5), 3)
    assert lhs_h == pytest.approx(1 / 3, abs=1e-12)
    assert rhs_h == pytest.approx(1 / 3, abs=1e-12)
    th = 0.7
    U = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    specs = [cc.RotationSample(math.sqrt(2) - 1),
             cc.RotationSample(0.25),
             cc.OperatorSample(U, np.array([1.0, 0.0])),
             cc.AutocorrSample("white"),
             cc.AutocorrSample("geometric", ratio=0.3)]
    worst = 0.0
    for sp in specs:
        for n in range(1, 65):
            lhs, rhs = cc.cesaro_fejer_average(sp, n)
            worst = max(worst, abs(lhs - rhs))
    report(12, worst <= 1e-10,
           f"Fejer identity across all specs, n <= 64: worst gap {worst:.2e}")


def test_criterion_13_kingman_decomposition():
    amp = 0.7

    def g(dyn, off):
        x = dyn.point(off)
        return amp * np.array([math.sin(2 * math.pi * x),
                               math.cos(2 * math.pi * x)])

    v = np.array([2.0, 0.0])
    gen = cc.add_generators(cc.constant_generator(v), cc.coboundary_generator(g))
    c1 = cc.HilbertCocycle(2, cc.CircleRotation((math.sqrt(2) - 1,), 0.11), gen)
    kd = cc.kingman_decompose(c1, 10_000, drift_vector=v)
    bound_ok = kd.remainders.max() <= 4 * amp and kd.remainders.min() >= -1e-9

    c2 = cc.HilbertCocycle(2, cc.CircleRotation((math.sqrt(2) - 1,), 0.41),
                           cc.fourier_generator())
    kd2 = cc.kingman_decompose(c2, 10_000, drift_orbit=10_000)
    zero_ok = kd2.remainders[-1] / kd2.length <= 1e-2
    report(13, bound_ok and zero_ok,
           f"coboundary remainder max {kd.remainders.max():.3f} <= "
           f"{4 * amp}, mean-zero remainder drift "
           f"{kd2.remainders[-1] / kd2.length:.2e} <= 1e-2")


def test_criterion_14_horofunction_formula():
    v = np.array([3.0, 4.0])
    c = cc.HilbertCocycle(2, cc.SeededShift(0, 2), cc.constant_generator(v))
    dm = cc.drift_map(c, 16)
    eta = (1.0, 0.0)
    t = 1 << 10
    worst = 0.0
    for n in enumerate_targets(2, 8):
        lim = cc.horofunction_limit(c, eta, n, dm)
        emp = cc.horofunction_empirical(c, (t, 0), n)
        worst = max(worst, abs(emp - lim))
    report(14, worst < 1e-2,
           f"constant-drift horofunctions at t=2^10 within {worst:.2e} "
           "of the limit formula over |n| <= 8")


def test_criterion_15_rkhs():
    rng = np.random.default_rng(1515)
    worst_d = 0.0
    for _ in range(300):
        z = complex(rng.uniform(-0.99, 0.99), rng.uniform(-0.99, 0.99))
        if abs(z) >= 1:
            continue
        worst_d = max(worst_d, abs(kernel_metric(0, z)
                                   + math.log(1 - abs(z) ** 2)))
    series = large_scale_compare(random_walk(17, 1000))
    violations = sum(1 for _, d, b in series if abs(d - b) > 2 * math.log(2))
    worst_inv = 0.0
    for _ in range(200):
        g = MoebiusMap.from_parameters(rng.uniform(0, 1.5),
                                       rng.uniform(0, 2 * math.pi),
                                       rng.uniform(0, 2 * math.pi))
        z = 0.8 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 2
        w = 0.8 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 2
        worst_inv = max(worst_inv, abs(
            hyperbolic_distance(g.apply(z), g.apply(w))
            - hyperbolic_distance(z, w)))
    ok = worst_d <= 1e-12 and violations == 0 and worst_inv <= 1e-12
    report(15, ok, f"kernel metric identity {worst_d:.2e}, gap violations "
                   f"{violations}/1000, isometry invariance {worst_inv:.2e}")


def test_criterion_16_determinism(tmp_path):
    """Identical configs must reproduce identical bytes; only the
    timestamp header line may differ between runs."""

    def snapshot(doc):
        out = {}
        for key in ("output", "polytope_output"):
            if key in doc:
                text = Path(doc[key]).read_text()
                out[key] = "\n".join(line for line in text.splitlines()
                                     if not line.startswith("# timestamp"))
        return out

    outcomes = {}
    for cfg_file in sorted(CONFIG_DIR.glob("*.yaml")):
        doc = yaml.safe_load(cfg_file.read_text())
        for key in ("output", "polytope_output"):
            if key in doc:
                doc[key] = str(tmp_path / f"{cfg_file.stem}_{Path(doc[key]).name}")
        cfg = tmp_path / cfg_file.name
        cfg.write_text(yaml.safe_dump(doc))
        runs = []
        for _ in range(2):
            code = subprocess.run(
                [sys.executable, "-m", "shapelab.cli", doc["command"],
                 str(cfg)], capture_output=True).returncode
            assert code == 0, cfg_file.name
            runs.append(snapshot(doc))
        outcomes[cfg_file.stem] = runs[0] == runs[1]
    same = [k for k, ok in outcomes.items() if ok]
    report(16, len(same) == len(outcomes) and len(outcomes) == 12,
           f"{len(same)}/{len(outcomes)} shipped configs rerun to "
           "byte-identical bodies")
