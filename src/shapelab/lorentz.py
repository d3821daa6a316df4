"""Lorentz space machinery for empirical samples: the decreasing
rearrangement and the two-index norms computed in closed form on step
functions.

Every weighted sample is a nonnegative step function in disguise, so the
norm integrals reduce to sums of power terms per step; no quadrature is
involved anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class WeightedSample:
    """Nonnegative values with positive masses; total mass 1 corresponds
    to probability-space semantics."""

    values: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        m = np.asarray(self.masses, dtype=float)
        if v.shape != m.shape or v.ndim != 1 or len(v) == 0:
            raise ValueError("values and masses must be equal-length 1-d arrays")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("values must be finite and nonnegative")
        if np.any(m <= 0) or not np.all(np.isfinite(m)):
            raise ValueError("masses must be finite and positive")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "masses", m)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    @cached_property
    def rearrangement(self) -> "StepFunction":
        """The nonincreasing rearrangement: sort values descending and lay
        the masses out along [0, total_mass).  Computed once per sample
        and shared by every norm of it, so it must not be modified."""
        order = np.argsort(-self.values, kind="stable")
        # the positive levels of a descending array are a prefix, as
        # many as the nonzero values
        order = order[:np.count_nonzero(self.values)]
        if len(order) == 0:
            return StepFunction(np.array([0.0, self.total_mass]),
                                np.array([0.0]))
        v = self.values[order]
        m = self.masses[order]
        del order
        keep = np.ones(len(v), dtype=bool)
        keep[1:] = v[1:] != v[:-1]
        levels = v[keep]
        del v
        widths = np.add.reduceat(m, np.flatnonzero(keep))
        del m, keep
        breaks = np.empty(len(widths) + 1)
        breaks[0] = 0.0
        np.cumsum(widths, out=breaks[1:])
        return StepFunction(breaks, levels)

    def scaled(self, c: float) -> "WeightedSample":
        return WeightedSample(np.abs(c) * self.values, self.masses)

    @staticmethod
    def from_values(values) -> "WeightedSample":
        values = np.asarray(values, dtype=float)
        return WeightedSample(values, np.full(len(values), 1.0 / len(values)))


@dataclass(frozen=True)
class StepFunction:
    """Nonincreasing right-continuous step function on [0, inf): value
    level[i] on [breaks[i], breaks[i+1]), zero beyond the last break."""

    breaks: np.ndarray  # increasing, starting at 0, length r+1
    levels: np.ndarray  # nonincreasing positive levels, length r

    def __post_init__(self):
        b = np.asarray(self.breaks, dtype=float)
        v = np.asarray(self.levels, dtype=float)
        if len(b) != len(v) + 1 or b[0] != 0.0 or np.any(np.diff(b) <= 0):
            raise ValueError("breaks must increase from 0 with one level per gap")
        if np.any(np.diff(v) > 0) or np.any(v < 0):
            raise ValueError("levels must be nonincreasing and nonnegative")
        object.__setattr__(self, "breaks", b)
        object.__setattr__(self, "levels", v)

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ValueError("domain is [0, inf)")
        i = int(np.searchsorted(self.breaks, t, side="right")) - 1
        return float(self.levels[i]) if i < len(self.levels) else 0.0


def lorentz_norm(sample: WeightedSample, p: float, q: float) -> float:
    """The (p, q) norm of the sample's rearrangement, in closed form.

    For finite q this is (sum over steps of v^q * (p/q) * (t_hi^(q/p) -
    t_lo^(q/p)))^(1/q); for q = inf it is the largest corner value
    t^(1/p) * v.  A divergent integral reports inf rather than raising.
    """
    if p < 1 or q < 1:
        raise ValueError("indices must satisfy p >= 1, q >= 1")
    star = sample.rearrangement
    lo = star.breaks[:-1]
    hi = star.breaks[1:]
    v = star.levels
    if math.isinf(q):
        if math.isinf(p):
            return float(v[0]) if len(v) else 0.0
        # sup of t^(1/p) * f*(t) over each step is at its right endpoint
        corners = hi ** (1.0 / p)
        corners *= v
        return float(np.max(corners, initial=0.0))
    if math.isinf(p):
        # weight t^(-1) alone: diverges whenever f* > 0 near 0
        return math.inf if len(v) and v[0] > 0 else 0.0
    with np.errstate(over="raise"):
        try:
            # (v^q (p/q)) (hi^(q/p) - lo^(q/p)), one power at a time
            terms = hi ** (q / p)
            power = lo ** (q / p)
            terms -= power
            np.power(v, q, out=power)
            power *= p / q
            terms *= power
            del power
            total = float(np.sum(terms))
        except FloatingPointError:
            return math.inf
    return total ** (1.0 / q) if math.isfinite(total) else math.inf


def lp_norm(sample: WeightedSample, p: float) -> float:
    """Plain L^p norm of the sample, for the diagonal-index identity."""
    if math.isinf(p):
        return float(np.max(sample.values))
    return float(np.sum(sample.masses * sample.values ** p) ** (1.0 / p))


def sample_from_environment(env, center, radius: int) -> WeightedSample:
    """Edge weights in a box as a probability sample (equal masses).  Its
    norms are reserved first, at 80 bytes per edge, and its edges by
    sample_field: the sample, its rearrangement and one norm's power terms
    (tracemalloc: 57 bytes per edge at most, d = 1..3, any index pair)."""
    from . import lattice

    n = lattice.BoxRegion(tuple(center), radius, "linf").counts()[1]
    lattice.reserve(80 * n * env.dimension, "the norms of the edge sample "
                    f"of a box graph of {n} sites")
    return WeightedSample.from_values(env.sample_field(center, radius))
