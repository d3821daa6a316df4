"""Asymptotic shape estimation and maximal-function statistics.

The directional constant along an integer direction is the infimum of the
per-step means over increasing multiples, matching the inf-of-means
characterization of the subadditive limit rather than any curve fit.
As in the shape theorem, every direction reads its multiples from one
object, the passage times from the origin: each refinement round
searches one ell-1 box around the origin per stack of seeds, and that
search serves every direction's targets and certificates.
Maximal functions are computed on finite windows; the window always
travels with the reported statistics so truncation stays auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .environment import Environment, WeightModel
from .lattice import BoxRegion, Site, norm1, reserve, reserve_count
from .percolation import (OPEN, REFINE_TOL, BoxGraph, ConvergenceError,
                          refine)

@dataclass(frozen=True)
class DirectionalSeries:
    """Convergence series of one direction: a_k = mean over seeds of
    rho(0, k*theta) / (k |theta|)."""

    direction: Site
    ks: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    excluded_fraction: float
    flagged: bool

    @property
    def estimate(self) -> float:
        """Inf-of-means extrapolation of the normalized constant."""
        return float(np.min(self.means))

    @property
    def estimate_stderr(self) -> float:
        return float(self.stderrs[int(np.argmin(self.means))])


# The bytes a sized collection of seeds takes per seed besides its searches
# and profile values, which are reserved on their own: its sorted list and
# an environment with its value (tracemalloc: about 220, maximal-tail).
SEED_BYTES = 400

# Every box graph is a stack of environments over one box (see BoxGraph),
# one seed a stack of one.  Maximal functions and direction profiles take
# sequences of environments only, and _in_stacks searches them in stacks of
# at most this many sites in all; a box larger than this is searched
# alone.  This sets speed, not memory: every stack is reserved against
# lattice.MEMORY_BUDGET, as any box graph is, and a stack that it refuses is
# halved, down to one environment.  Building and searching a stack takes
# about 40 (d=2) to 80 (d=3) bytes of peak memory per site (tracemalloc: 30
# boxes of 545 sites, 19 of 833), and up to about 200 in a stack of a few
# larger boxes, which hashes each box's edges in one call (160 in a
# profile's stack of two boxes of 7321 sites).  A search costs mostly its
# passes, whose number does not grow with the stack, so larger stacks pay off
# (2-core x86_64): 500 seeds of a 545-site box (d=2, W=8) take a median 0.24
# s in stacks of 16384 sites against 0.34 s in stacks of 4096, for 1.4 MB
# more peak memory, and the d=2 scan of 8 two-valued seeds along 4
# directions (n_max 10), four stacks of two boxes, takes 0.033 s against
# 0.043 s one seed at a time (best of 9), for 0.23 MB more.
STACK_SITES = 16384


def _in_stacks(count: int, box: BoxRegion, search) -> list:
    """search(lo, hi) for consecutive stacks [lo, hi) of count
    environments over box, of at most STACK_SITES sites each, one
    environment when a box is larger; the results in order.  A stack
    whose search the memory budget refuses is split in halves, down to
    one environment, whose refusal is raised."""
    size = max(1, STACK_SITES // box.site_count())
    todo = [(lo, min(lo + size, count))
            for lo in reversed(range(0, count, size))]
    done = []
    while todo:
        lo, hi = todo.pop()
        try:
            done.append(search(lo, hi))
        except MemoryError:
            if hi - lo == 1:
                raise
            mid = (lo + hi) // 2
            todo += [(mid, hi), (lo, mid)]
    return done


def _direction_profile(envs: Sequence[Environment], directions, n_max: int,
                       tol: float, radius_cap_factor: int = 16):
    """rho(0, k*theta) for k = 1..n_max along each direction theta in each
    environment, from single-source searches of one refining ell-1 box
    around the origin, which serves every direction: its first radius is
    twice the largest gap |theta| n_max, and its cap radius_cap_factor
    times that gap.  Returns (values, states), (E, D, n_max) arrays, one
    row per environment: one refine state per value, certified by each
    round's search (see BoxGraph.certified).

    Each round searches the environments that still have an open value,
    in stacks (see _in_stacks), and reads every direction's targets from
    the one search.  A row is what that environment's own refinement
    gives, bit for bit: a stack's search limit is the largest of its rows'
    limits, each row's targets lie at or below its own, and a stack's rows
    equal separate searches.  A certified value is the unboxed value
    whatever box certified it, so it does not depend on the other
    directions either."""
    directions = [tuple(t) for t in directions]
    zero = (0,) * len(directions[0])
    count = len(directions) * n_max
    # per target its factor, its point and row, and per row and target
    # its value, previous value, certificate and state
    reserve((8 * len(zero) + 16 + 18 * len(envs)) * count,
            f"profile of {n_max} multiples of each of {directions}")
    targets = (np.asarray(directions)[:, None]
               * np.arange(1, n_max + 1)[:, None]).reshape(count, -1)
    gap = max(map(norm1, directions)) * n_max

    def profile(r: int, live, prev):
        box = BoxRegion(zero, r, "l1")
        stack = envs if live is None else [envs[i] for i in live]
        limits = (np.full(len(stack), math.inf) if prev is None
                  else prev.max(axis=1))

        def search(lo: int, hi: int):
            # the stack's graph is released on return, before the next builds
            g = BoxGraph(stack[lo:hi], box)
            dist = g.distances_from(zero, float(limits[lo:hi].max()))
            rows = g.rows(targets)
            return dist[:, rows], g.certified(dist, rows)

        values, exact = zip(*_in_stacks(len(stack), box, search))
        return np.concatenate(values), np.concatenate(exact)

    values, _, states = refine(profile, 2 * gap, radius_cap_factor * gap, tol)
    size = (len(envs), len(directions), n_max)
    return values.reshape(size), states.reshape(size)


def _stderr(col: np.ndarray) -> float:
    """The standard error of the mean of col, from col scaled by an exact
    power of two that puts its largest magnitude in [1/2, 1): the scaling
    commutes with every rounding of the mean and deviations, so the
    result is the unscaled one bit for bit wherever that one neither
    overflows nor underflows, and it is finite for any finite col."""
    if len(col) < 2:
        return 0.0
    exp = math.frexp(float(np.max(np.abs(col))))[1]
    scaled = np.ldexp(col, -exp)
    return math.ldexp(float(scaled.std(ddof=1)), exp) / math.sqrt(len(col))


def directional_constant(model: WeightModel, seeds, directions, n_max: int,
                         dimension: int | None = None,
                         tol: float = REFINE_TOL) -> list[DirectionalSeries]:
    """Per direction its convergence series and inf-of-means limit, in
    order, from one stacked profile of all the seeds along every
    direction (see _direction_profile); each seed's environment is made
    once.

    Distances that refinement leaves open (neither certified exact nor
    converged within tol) are excluded from the means and counted; a
    series with more than 10% exclusions is flagged.
    """
    directions = [tuple(t) for t in directions]
    if not directions:
        raise ValueError("need at least one direction")
    if any(all(t == 0 for t in theta) for theta in directions):
        raise ValueError("direction must be nonzero")
    if n_max < 4:
        raise ValueError("n_max must be at least 4")
    d = dimension or len(directions[0])
    reserve((SEED_BYTES + 9 * len(directions) * n_max) * len(seeds),
            f"{len(seeds)} seeds' profile of {n_max} multiples of each of "
            f"{directions}")
    envs = [Environment(model, seed=int(seed), dimension=d)
            for seed in sorted(seeds)]
    values, states = _direction_profile(envs, directions, n_max, tol)
    ks = np.arange(1, n_max + 1)
    out = []
    for theta, rows, flags in zip(directions, values.swapaxes(0, 1),
                                  (states != OPEN).swapaxes(0, 1)):
        step = norm1(theta)
        means = np.empty(n_max)
        stderrs = np.empty(n_max)
        for i in range(n_max):
            col = rows[flags[:, i], i] / (ks[i] * step)
            if len(col) == 0:
                raise ConvergenceError(
                    f"no converged distances at k={ks[i]} along {theta}")
            means[i] = col.mean()
            stderrs[i] = _stderr(col)
        excluded = 1.0 - float(flags.mean())
        out.append(DirectionalSeries(direction=theta, ks=ks, means=means,
                                     stderrs=stderrs,
                                     excluded_fraction=excluded,
                                     flagged=excluded > 0.10))
    return out


@dataclass(frozen=True)
class ShapeEstimate:
    directions: tuple[Site, ...]
    series: tuple[DirectionalSeries, ...]

    def unit_ball_vertices(self) -> np.ndarray:
        """Boundary points theta / L(theta) of the estimated unit ball."""
        pts = []
        for theta, s in zip(self.directions, self.series):
            scale = s.estimate * norm1(theta)
            pts.append(np.asarray(theta, dtype=float) / scale)
        return np.asarray(pts)

    @property
    def flagged(self) -> bool:
        return any(s.flagged for s in self.series)


def default_directions(d: int, richness: int = 2) -> list[Site]:
    """Primitive integer directions with coordinates up to the richness,
    spanning all axis sign combinations, sorted.  The candidates are the
    sites of the ell-inf box of that radius, reserved against the memory
    budget before they are built."""
    reserve_count(d, richness)  # before the d-tuple of the center
    cube = BoxRegion((0,) * d, richness, "linf").site_array()
    cube = cube[cube.any(axis=1)]
    prim = cube // np.gcd.reduce(cube, axis=1)[:, None]
    # not np.unique(prim, axis=0), which imports numpy.ma
    return sorted(set(map(tuple, prim.tolist())))


def check_directions(directions, d: int) -> None:
    """Raises ValueError unless the directions span R^d, as the vertices
    of an estimated unit ball must."""
    if np.linalg.matrix_rank(np.asarray(directions, dtype=float)) < d:
        raise ValueError("directions must span the lattice dimension")


def estimate_shape(model: WeightModel, seeds, directions, n_max: int,
                   dimension: int | None = None,
                   tol: float = REFINE_TOL) -> ShapeEstimate:
    directions = [tuple(t) for t in directions]
    d = dimension or len(directions[0])
    check_directions(directions, d)
    series = directional_constant(model, seeds, directions, n_max,
                                  dimension=d, tol=tol)
    return ShapeEstimate(directions=tuple(directions), series=tuple(series))


# --------------------------------------------------------------------------
# maximal function and its tail


def maximal_function(envs: Sequence[Environment],
                     window_radius: int) -> np.ndarray:
    """max over 0 < |n| <= W of rho(0, n)/|n| in each environment, from
    one multi-target search on the box of radius 2W, in stacks (see
    _in_stacks)."""
    if window_radius < 1:
        raise ValueError("window radius must be at least 1")
    if not envs:
        return np.zeros(0)
    zero = (0,) * envs[0].dimension
    box = BoxRegion(zero, 2 * window_radius, "l1")
    window = norms = None

    def search(lo: int, hi: int):
        nonlocal window, norms
        g = BoxGraph(envs[lo:hi], box)
        if window is None:
            # the window's rows and their norms, the same for every stack,
            # read once the budget has taken the first stack's graph
            norms = np.abs(g.sites).sum(axis=1)
            window = (norms > 0) & (norms <= window_radius)
            norms = norms[window]
        return np.max(g.distances_from(zero)[:, window] / norms, axis=1)

    return np.maximum(0.0, np.concatenate(_in_stacks(len(envs), box, search)))


@dataclass(frozen=True)
class MaximalStats:
    window_radius: int
    values: np.ndarray          # per-seed Ms samples
    lambda_grid: np.ndarray

    def tail(self, lam: float) -> float:
        return float(np.mean(self.values >= lam))

    def tail_products(self, d: int) -> list[tuple[float, float, float]]:
        """Rows (lambda, empirical tail, lambda^d * tail)."""
        out = []
        for lam in self.lambda_grid:
            t = self.tail(lam)
            out.append((float(lam), t, float(lam ** d * t)))
        return out


def sample_maximal_stats(model: WeightModel, seeds, window_radius: int,
                         lambda_grid, dimension: int) -> MaximalStats:
    grid = np.asarray(lambda_grid, dtype=float)
    if np.min(grid) < 1.0:
        raise ValueError("the tail grid starts at 1")
    with np.errstate(over="ignore"):  # lam ** d as tail_products takes it
        big = [lam for lam in grid if not np.isfinite(lam ** dimension)]
    if big:
        raise ValueError(f"lambda {float(big[0])!r} to the power "
                         f"{dimension} overflows")
    reserve(SEED_BYTES * len(seeds), f"the environments of {len(seeds)} seeds")
    envs = [Environment(model, seed=int(seed), dimension=dimension)
            for seed in sorted(seeds)]
    return MaximalStats(window_radius=window_radius,
                        values=maximal_function(envs, window_radius),
                        lambda_grid=grid)


# --------------------------------------------------------------------------
# the pointwise domination bound


def generator_sup_field(env: Environment, sites: list[Site]) -> np.ndarray:
    """f at each site: the largest weight among its 2d incident edges.

    This is the per-axis envelope sup_k max over both orientations; it
    dominates every one-step distance from the site, and the domination
    bound is monotone in f, so the inequality it feeds stays valid.
    """
    d = env.dimension
    arr = np.asarray(sites, dtype=np.int64)
    vals = np.full(len(sites), -np.inf)
    for k in range(d):
        fwd = env.edge_weights(arr, np.full(len(sites), k))
        back = env.edge_weights(
            arr - np.eye(d, dtype=np.int64)[k], np.full(len(sites), k))
        vals = np.maximum(vals, np.maximum(fwd, back))
    return vals


def maximal_bound_rhs(env: Environment, n: Site, constant: float) -> float:
    """The domination bound for rho(0, n)/|n|: coordinate-subspace
    averages of the incident-edge envelope plus the weighted half-ball
    sum around n, scaled by the frozen family constant."""
    n = tuple(n)
    d = env.dimension
    N = norm1(n)
    if N == 0:
        raise ValueError("n must be nonzero")

    # every site the bound reads lies in the ball of radius 2|n|: the top
    # coordinate subspace is that whole ball, and the half-ball around n
    # stays inside it; the ball, its envelope and the envelope's hashing
    # (tracemalloc: 80 + 40d bytes per site at most, any model, d = 2..4)
    # are reserved before they are built, as a box graph is
    box = BoxRegion((0,) * d, 2 * N, "l1")
    count = box.site_count()
    reserve((96 + 48 * d) * count, f"bound ball of {count} sites")
    ball = box.site_array()
    f = generator_sup_field(env, ball)

    subspace_total = 0.0
    for dim_h in range(d + 1):
        for axes in combinations(range(d), dim_h):
            on = np.all(np.delete(ball, axes, axis=1) == 0, axis=1)
            subspace_total += float(np.sum(f[on])) / N ** dim_h

    gap = np.abs(ball - np.asarray(n)).sum(axis=1)
    near = (gap > 0) & (gap <= N // 2)
    near_total = float(np.sum(f[near] * (1.0 / gap[near] ** (d - 1))))
    near_total += float(f[gap == 0][0])
    return constant * (subspace_total + near_total / N)
