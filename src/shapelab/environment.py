"""Stationary ergodic edge-weight fields on the Z^d lattice.

A field assigns a nonnegative weight to every canonical lattice edge.  The
abstract measure-preserving system behind the weights is realized as a
(seed, shift) pair: weights are produced by counter-based hashing of the
canonical edge coordinates, so translating the environment and translating
the query edge are exactly interchangeable.  That makes stationarity an
identity rather than a statistical property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

Site = tuple[int, ...]
Edge = tuple[Site, int]  # (base site, axis index in 0..d-1); joins base and base+e_axis

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_INV53 = float(2.0 ** -53)
_U_MAX = 1.0 - _INV53  # the largest variate counter_uniform returns

# Orbits (transfer products, cocycle generators) are hashed and evaluated
# in batches of at most this many steps, which bounds their working memory
# at any orbit length.
ORBIT_CHUNK = 1024


def _mix(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays."""
    h = (h ^ (h >> np.uint64(30))) * _M1
    h = (h ^ (h >> np.uint64(27))) * _M2
    return h ^ (h >> np.uint64(31))


def counter_uniform(seed: int, counters: np.ndarray) -> np.ndarray:
    """Uniform [0,1) variates indexed by integer counter rows.

    counters: (n, k) int64 array; each row is an independent stream index.
    The same row always yields the same variate for a given seed.
    """
    counters = np.atleast_2d(np.asarray(counters, dtype=np.int64))
    h = np.full(counters.shape[0], np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    for j in range(counters.shape[1]):
        h = _mix((h + _GAMMA) ^ counters[:, j].view(np.uint64))
    return (h >> np.uint64(11)).astype(np.float64) * _INV53


def _edge_counters(bases: np.ndarray, axes: np.ndarray, tag: int) -> np.ndarray:
    n, d = bases.shape
    out = np.empty((n, d + 2), dtype=np.int64)
    out[:, 0] = tag
    out[:, 1:-1] = bases
    out[:, -1] = axes
    return out


# --------------------------------------------------------------------------
# weight models


class WeightModel:
    """Base class: maps canonical edges to nonnegative weights, per seed."""

    def weights(self, seed: int, bases: np.ndarray, axes: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def floor(self) -> float:
        """A deterministic lower bound on every float ``weights`` returns.
        0 is always one, since environments reject negative weights; a
        positive floor raises the truncation certificate of a search
        (``BoxGraph.certified``) by the edges out of and back into its box."""
        return 0.0

    def ceiling(self) -> float:
        """A deterministic upper bound on every float ``weights`` returns,
        inf when none is known.  The models below refuse, when they are
        made, parameters whose bound is not finite, so no weight they
        return overflows."""
        return math.inf

    def _refuse_overflow(self) -> None:
        bound = self.ceiling()
        if not math.isfinite(bound):
            raise ValueError(f"{self.kind} weights can overflow: their "
                             f"bound is {bound!r}")

    def check_dimension(self, d: int) -> None:
        """Raise ValueError when the model cannot weigh the edges of Z^d;
        environments call it when they are made."""


@dataclass(frozen=True)
class Constant(WeightModel):
    kind = "constant"

    value: float

    def __post_init__(self):
        if not (self.value >= 0.0 and math.isfinite(self.value)):
            raise ValueError("constant weight must be finite and nonnegative")

    def weights(self, seed, bases, axes):
        return np.full(len(bases), float(self.value))

    def floor(self):
        return float(self.value)

    def ceiling(self):
        return float(self.value)


@dataclass(frozen=True)
class Exponential(WeightModel):
    kind = "exponential"

    rate: float = 1.0

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("rate must be positive")
        self._refuse_overflow()

    def weights(self, seed, bases, axes):
        u = counter_uniform(seed, _edge_counters(bases, axes, 1))
        return -np.log1p(-u) / self.rate

    def ceiling(self):
        # weights() at the largest variate: log1p, the division and their
        # rounding are all monotone
        with np.errstate(over="ignore"):
            return float(-np.log1p(-_U_MAX) / self.rate)


@dataclass(frozen=True)
class Pareto(WeightModel):
    """Heavy-tailed weights; shape at or below the lattice dimension probes
    the integrability boundary of the shape theorem."""

    kind = "pareto"

    shape: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise ValueError("shape and scale must be positive")
        self._refuse_overflow()

    def weights(self, seed, bases, axes):
        u = counter_uniform(seed, _edge_counters(bases, axes, 2))
        return self.scale * np.power(1.0 - u, -1.0 / self.shape)

    def floor(self):
        # the power of 1 - u in (0, 1] to a negative exponent is at least 1
        # exactly, so its rounding is too, and so is scale times it
        return float(self.scale)

    def ceiling(self):
        # weights() at the largest variate, where 1 - u is 2**-53 exactly
        with np.errstate(over="ignore"):
            return float(self.scale * np.power(_INV53, -1.0 / self.shape))


@dataclass(frozen=True)
class TwoValued(WeightModel):
    kind = "two_valued"

    low: float
    high: float
    prob_low: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.prob_low <= 1.0):
            raise ValueError("prob_low must lie in [0,1]")
        if min(self.low, self.high) < 0:
            raise ValueError("values must be nonnegative")
        self._refuse_overflow()

    def weights(self, seed, bases, axes):
        u = counter_uniform(seed, _edge_counters(bases, axes, 3))
        return np.where(u < self.prob_low, float(self.low), float(self.high))

    def floor(self):
        return float(min(self.low, self.high))

    def ceiling(self):
        return float(max(self.low, self.high))


_PROFILES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    # nonnegative profiles on [0,1)
    "identity": lambda x: x,
    "tent": lambda x: 2.0 * np.minimum(x, 1.0 - x),
    "cosine": lambda x: 0.5 * (1.0 - np.cos(2.0 * math.pi * x)),
    "shifted": lambda x: 0.5 + x,
}
# the least value of each profile on [0,1), and a bound on its largest,
# rounding included
_PROFILE_FLOORS = {"identity": 0.0, "tent": 0.0, "cosine": 0.0,
                   "shifted": 0.5}
_PROFILE_CEILINGS = {"identity": 1.0, "tent": 1.0, "cosine": 1.0,
                     "shifted": 1.5}

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Rotation(WeightModel):
    """Deterministic ergodic example: weights read off an irrational rotation
    orbit on the circle.  Non-mixing, so nothing downstream may assume
    independence.

    alpha: rotation step per axis.  A scalar is expanded to per-axis steps
    alpha * g^k (g the golden ratio) so the Z^d action stays ergodic.
    profiles: profile name, or one name per axis.
    """

    kind = "rotation"

    alpha: float | tuple[float, ...] = _GOLDEN
    profiles: str | tuple[str, ...] = "identity"

    def __post_init__(self):
        for name in self._names():
            if name not in _PROFILES:
                raise ValueError(f"unknown profile {name!r}")

    def _names(self) -> tuple[str, ...]:
        return ((self.profiles,) if isinstance(self.profiles, str)
                else self.profiles)

    def check_dimension(self, d):
        # axis k reads alpha[k] and profiles[k]; profiles past the last
        # axis are never read
        if isinstance(self.alpha, tuple) and len(self.alpha) != d:
            raise ValueError(f"rotation alpha has {len(self.alpha)} "
                             f"entries, dimension {d} needs {d}")
        if isinstance(self.profiles, tuple) and len(self.profiles) < d:
            raise ValueError(f"rotation profiles has {len(self.profiles)} "
                             f"entries, dimension {d} needs {d}")

    def _alphas(self, d: int) -> np.ndarray:
        if isinstance(self.alpha, tuple):
            return np.asarray(self.alpha, dtype=float)
        return np.asarray([math.fmod(self.alpha * _GOLDEN ** k, 1.0)
                           for k in range(d)], dtype=float)

    def _profile(self, k: int) -> Callable[[np.ndarray], np.ndarray]:
        name = self.profiles if isinstance(self.profiles, str) else self.profiles[k]
        return _PROFILES[name]

    def weights(self, seed, bases, axes):
        d = bases.shape[1]
        self.check_dimension(d)
        alphas = self._alphas(d)
        x0 = float(counter_uniform(seed, np.asarray([[4]], dtype=np.int64))[0])
        # an elementwise left fold over the axes, not bases @ alphas: a
        # matmul may sum a one-row product in another order than a batch,
        # and a weight must not depend on the edges weighed with it
        shift = bases[:, 0] * alphas[0]
        for k in range(1, d):
            shift = shift + bases[:, k] * alphas[k]
        pts = np.mod(x0 + shift, 1.0)
        out = np.empty(len(bases), dtype=float)
        for k in range(d):
            mask = axes == k
            if mask.any():
                out[mask] = self._profile(k)(pts[mask])
        return out

    def floor(self):
        return min(_PROFILE_FLOORS[name] for name in self._names())

    def ceiling(self):
        return max(_PROFILE_CEILINGS[name] for name in self._names())


@dataclass(frozen=True)
class MovingAverage(WeightModel):
    """Finite-range dependent field: kernel-weighted sum of an IID base field
    along each edge's own axis."""

    kind = "moving_average"

    kernel: tuple[float, ...]
    base: WeightModel = field(default_factory=Exponential)

    def __post_init__(self):
        if not self.kernel or min(self.kernel) < 0:
            raise ValueError("kernel must be nonempty and nonnegative")
        self._refuse_overflow()

    def weights(self, seed, bases, axes):
        out = np.zeros(len(bases), dtype=float)
        shifted = np.array(bases, copy=True)
        for j, coef in enumerate(self.kernel):
            if j > 0:
                shifted = np.array(bases, copy=True)
                shifted[np.arange(len(bases)), axes] += j
            out += coef * self.base.weights(seed, shifted, axes)
        return out

    def check_dimension(self, d):
        self.base.check_dimension(d)

    def floor(self):
        # accumulated in the order weights() accumulates: rounding is
        # monotone, so each partial sum stays at or below the computed
        # one; sum(kernel) * base floor rounds differently and need not
        base, out = self.base.floor(), 0.0
        for coef in self.kernel:
            out += coef * base
        return out

    def ceiling(self):
        # the same accumulation over the base's bound, for the same reason
        base, out = self.base.ceiling(), 0.0
        for coef in self.kernel:
            out += coef * base
        return out


# --------------------------------------------------------------------------
# environment


@dataclass(frozen=True)
class Environment:
    """Immutable sampled environment: a weight model, a seed, and the current
    shift state of the Z^d action."""

    model: WeightModel
    seed: int
    dimension: int
    origin_offset: Site = ()

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        off = self.origin_offset or (0,) * self.dimension
        if len(off) != self.dimension:
            raise ValueError("origin_offset dimension mismatch")
        self.model.check_dimension(self.dimension)
        object.__setattr__(self, "origin_offset", tuple(int(c) for c in off))

    def shift(self, k: Sequence[int]) -> "Environment":
        """The Z^d action: translate the observation origin by k."""
        if len(k) != self.dimension:
            raise ValueError("shift vector dimension mismatch")
        off = tuple(a + int(b) for a, b in zip(self.origin_offset, k))
        return replace(self, origin_offset=off)

    def edge_weight(self, edge: Edge) -> float:
        base, axis = edge
        return float(self.edge_weights(
            np.asarray([base], dtype=np.int64), np.asarray([axis]))[0])

    def edge_weights(self, bases: np.ndarray, axes: np.ndarray) -> np.ndarray:
        """Vectorized weights for canonical edges (base + e_axis)."""
        bases = np.asarray(bases, dtype=np.int64)
        axes = np.asarray(axes, dtype=np.int64)
        if bases.ndim != 2 or bases.shape[1] != self.dimension:
            raise ValueError("bases must be (n, d)")
        if axes.min(initial=0) < 0 or axes.max(initial=0) >= self.dimension:
            raise ValueError("axis out of range")
        shifted = bases + np.asarray(self.origin_offset, dtype=np.int64)
        w = self.model.weights(self.seed, shifted, axes)
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weight model produced a negative or nonfinite value")
        return w

    def sample_field(self, center: Site, radius: int,
                     norm: str = "linf") -> np.ndarray:
        """The (m,) weights of all canonical edges with both endpoints in
        the box, site-major with axes in order: the finite entries of the
        box graph's (n, d) forward weight table.  The graph, the table's
        finite mask and the weights taken from it are reserved before a
        site is built (see percolation.graph_bytes)."""
        from . import lattice, percolation

        box = lattice.BoxRegion(tuple(center), radius, norm)
        runs, n = box.counts()
        d = self.dimension
        lattice.reserve(percolation.graph_bytes(n, d, runs) + 9 * n * d,
                        f"the edge sample of a box graph of {n} sites")
        wt = percolation.BoxGraph([self], box)._wt[0]
        return wt[np.isfinite(wt)]
