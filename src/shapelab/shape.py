"""Asymptotic shape estimation and maximal-function statistics.

The directional constant along an integer direction is the infimum of the
per-step means over increasing multiples, matching the inf-of-means
characterization of the subadditive limit rather than any curve fit.
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
from .lattice import BoxRegion, Site, norm1
from .percolation import OPEN, BoxGraph, ConvergenceError, refine

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


# directional_constant's default convergence tolerance
DIRECTIONAL_TOL = 1e-9


def _direction_profile(env: Environment, theta: Site, n_max: int,
                       tol: float, radius_cap_factor: int = 16):
    """rho(0, k*theta) for k = 1..n_max from single-source searches in a
    common refining box.  Returns (values, states): one refine state per
    value, certified against the model's weight floor."""
    theta = tuple(theta)
    zero = (0,) * env.dimension
    targets = np.arange(1, n_max + 1)[:, None] * np.asarray(theta)
    gap = norm1(theta) * n_max
    center = tuple(c // 2 for c in targets[-1].tolist())

    def profile(r: int, prev) -> np.ndarray:
        # the graph is released on return, before the next round builds
        g = BoxGraph(env, BoxRegion(center, r, "l1"))
        limit = math.inf if prev is None else float(np.max(prev))
        return g.distances_from(zero, limit)[g.rows(targets)]

    values, _, states = refine(profile, 2 * gap, radius_cap_factor * gap,
                               tol, env.model.floor(), norm1(center))
    return values, states


def directional_constant(model: WeightModel, seeds, theta: Site, n_max: int,
                         dimension: int | None = None,
                         tol: float = DIRECTIONAL_TOL) -> DirectionalSeries:
    """The per-direction convergence series and its inf-of-means limit.

    Distances that refinement leaves open (neither certified exact nor
    converged within tol) are excluded from the means and counted; a
    series with more than 10% exclusions is flagged.
    """
    theta = tuple(theta)
    if all(t == 0 for t in theta):
        raise ValueError("direction must be nonzero")
    if n_max < 4:
        raise ValueError("n_max must be at least 4")
    d = dimension or len(theta)
    step = norm1(theta)
    rows = []
    flags = []
    for seed in sorted(seeds):
        env = Environment(model, seed=int(seed), dimension=d)
        vals, states = _direction_profile(env, theta, n_max, tol)
        rows.append(vals)
        flags.append(states != OPEN)
    rows = np.asarray(rows)
    flags = np.asarray(flags)
    ks = np.arange(1, n_max + 1)
    means = np.empty(n_max)
    stderrs = np.empty(n_max)
    for i in range(n_max):
        col = rows[flags[:, i], i] / (ks[i] * step)
        if len(col) == 0:
            raise ConvergenceError(
                f"no converged distances at k={ks[i]} along {theta}")
        means[i] = col.mean()
        stderrs[i] = col.std(ddof=1) / math.sqrt(len(col)) if len(col) > 1 else 0.0
    excluded = 1.0 - float(flags.mean())
    return DirectionalSeries(direction=theta, ks=ks, means=means,
                             stderrs=stderrs, excluded_fraction=excluded,
                             flagged=excluded > 0.10)


@dataclass(frozen=True)
class ShapeEstimate:
    directions: tuple[Site, ...]
    series: tuple[DirectionalSeries, ...]
    n_max: int
    n_seeds: int

    def constant(self, i: int) -> float:
        return self.series[i].estimate

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
    spanning all axis sign combinations."""
    out = []
    seen = set()
    rng = range(-richness, richness + 1)
    from itertools import product

    for v in product(rng, repeat=d):
        if all(c == 0 for c in v):
            continue
        g = math.gcd(*[abs(c) for c in v])
        prim = tuple(c // g for c in v)
        if prim not in seen:
            seen.add(prim)
            out.append(prim)
    out.sort()
    return out


def estimate_shape(model: WeightModel, seeds, directions, n_max: int,
                   dimension: int | None = None,
                   tol: float = 1e-9) -> ShapeEstimate:
    directions = [tuple(t) for t in directions]
    d = dimension or len(directions[0])
    span = np.linalg.matrix_rank(np.asarray(directions))
    if span < d:
        raise ValueError("directions must span the lattice dimension")
    series = tuple(
        directional_constant(model, seeds, theta, n_max, dimension=d, tol=tol)
        for theta in directions)
    return ShapeEstimate(directions=tuple(directions), series=series,
                         n_max=n_max, n_seeds=len(list(seeds)))


# --------------------------------------------------------------------------
# maximal function and its tail


# Maximal functions are searched in stacks of environments over one box
# (see BoxGraph), of at most this many sites in all; a box larger than
# this is searched alone.  Building and searching a stack takes about 60
# (d=2) to 140 (d=3) bytes of peak memory per site (tracemalloc: 30 boxes
# of 545 sites, 19 of 833), and up to about 300 in a stack of a few larger
# boxes, which hashes each box's edges in one call.  A search costs
# mostly its passes, whose number does not grow with the stack, so larger
# stacks pay off: 500 seeds of a 545-site box (d=2, W=8) take a median
# 0.24 s in stacks of 16384 sites against 0.34 s in stacks of 4096, for
# 1.4 MB more peak memory.
STACK_SITES = 16384


def maximal_function(env: Environment | Sequence[Environment],
                     window_radius: int):
    """max over 0 < |n| <= W of rho(0, n)/|n|, from one multi-target
    search on the box of radius 2W.  For a sequence of environments, the
    array of their values, from stacked searches of at most STACK_SITES
    sites each; one environment is the one-seed case of the same search."""
    if window_radius < 1:
        raise ValueError("window radius must be at least 1")
    envs = [env] if isinstance(env, Environment) else list(env)
    if not envs:
        return np.zeros(0)
    zero = (0,) * envs[0].dimension
    box = BoxRegion(zero, 2 * window_radius, "l1")
    size = max(1, STACK_SITES // box.site_count())
    values = []
    for i in range(0, len(envs), size):
        g = BoxGraph(envs[i:i + size], box)
        dist = g.distances_from(zero)
        r = np.abs(g.sites).sum(axis=1)
        window = (r > 0) & (r <= window_radius)
        values.append(np.max(dist[:, window] / r[window], axis=1))
    values = np.maximum(0.0, np.concatenate(values))
    return float(values[0]) if isinstance(env, Environment) else values


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

    def headline(self, d: int) -> float:
        return max(p for _, _, p in self.tail_products(d))


def sample_maximal_stats(model: WeightModel, seeds, window_radius: int,
                         lambda_grid, dimension: int) -> MaximalStats:
    if np.min(np.asarray(lambda_grid, dtype=float)) < 1.0:
        raise ValueError("the tail grid starts at 1")
    envs = [Environment(model, seed=int(seed), dimension=dimension)
            for seed in sorted(seeds)]
    return MaximalStats(window_radius=window_radius,
                        values=maximal_function(envs, window_radius),
                        lambda_grid=np.asarray(lambda_grid, dtype=float))


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
    # stays inside it
    ball = BoxRegion((0,) * d, 2 * N, "l1").site_array()
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
