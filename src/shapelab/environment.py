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

    def spec(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(WeightModel):
    value: float

    def __post_init__(self):
        if not (self.value >= 0.0 and math.isfinite(self.value)):
            raise ValueError("constant weight must be finite and nonnegative")

    def weights(self, seed, bases, axes):
        return np.full(len(bases), float(self.value))

    def spec(self):
        return {"kind": "constant", "value": self.value}


@dataclass(frozen=True)
class Exponential(WeightModel):
    rate: float = 1.0

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("rate must be positive")

    def weights(self, seed, bases, axes):
        u = counter_uniform(seed, _edge_counters(bases, axes, 1))
        return -np.log1p(-u) / self.rate

    def spec(self):
        return {"kind": "exponential", "rate": self.rate}


@dataclass(frozen=True)
class Pareto(WeightModel):
    """Heavy-tailed weights; shape at or below the lattice dimension probes
    the integrability boundary of the shape theorem."""

    shape: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise ValueError("shape and scale must be positive")

    def weights(self, seed, bases, axes):
        u = counter_uniform(seed, _edge_counters(bases, axes, 2))
        return self.scale * np.power(1.0 - u, -1.0 / self.shape)

    def spec(self):
        return {"kind": "pareto", "shape": self.shape, "scale": self.scale}


@dataclass(frozen=True)
class TwoValued(WeightModel):
    low: float
    high: float
    prob_low: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.prob_low <= 1.0):
            raise ValueError("prob_low must lie in [0,1]")
        if min(self.low, self.high) < 0:
            raise ValueError("values must be nonnegative")

    def weights(self, seed, bases, axes):
        u = counter_uniform(seed, _edge_counters(bases, axes, 3))
        return np.where(u < self.prob_low, float(self.low), float(self.high))

    def spec(self):
        return {"kind": "two_valued", "low": self.low, "high": self.high,
                "prob_low": self.prob_low}


_PROFILES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    # nonnegative profiles on [0,1)
    "identity": lambda x: x,
    "tent": lambda x: 2.0 * np.minimum(x, 1.0 - x),
    "cosine": lambda x: 0.5 * (1.0 - np.cos(2.0 * math.pi * x)),
    "shifted": lambda x: 0.5 + x,
}

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

    alpha: float | tuple[float, ...] = _GOLDEN
    profiles: str | tuple[str, ...] = "identity"

    def _alphas(self, d: int) -> np.ndarray:
        if isinstance(self.alpha, tuple):
            if len(self.alpha) != d:
                raise ValueError("alpha tuple length must equal dimension")
            return np.asarray(self.alpha, dtype=float)
        return np.asarray([math.fmod(self.alpha * _GOLDEN ** k, 1.0)
                           for k in range(d)], dtype=float)

    def _profile(self, k: int) -> Callable[[np.ndarray], np.ndarray]:
        name = self.profiles if isinstance(self.profiles, str) else self.profiles[k]
        try:
            return _PROFILES[name]
        except KeyError:
            raise ValueError(f"unknown profile {name!r}") from None

    def weights(self, seed, bases, axes):
        d = bases.shape[1]
        alphas = self._alphas(d)
        x0 = float(counter_uniform(seed, np.asarray([[4]], dtype=np.int64))[0])
        pts = np.mod(x0 + bases @ alphas, 1.0)
        out = np.empty(len(bases), dtype=float)
        for k in range(d):
            mask = axes == k
            if mask.any():
                out[mask] = self._profile(k)(pts[mask])
        return out

    def spec(self):
        alpha = list(self.alpha) if isinstance(self.alpha, tuple) else self.alpha
        prof = list(self.profiles) if isinstance(self.profiles, tuple) else self.profiles
        return {"kind": "rotation", "alpha": alpha, "profiles": prof}


@dataclass(frozen=True)
class MovingAverage(WeightModel):
    """Finite-range dependent field: kernel-weighted sum of an IID base field
    along each edge's own axis."""

    kernel: tuple[float, ...]
    base: WeightModel = field(default_factory=Exponential)

    def __post_init__(self):
        if not self.kernel or min(self.kernel) < 0:
            raise ValueError("kernel must be nonempty and nonnegative")

    def weights(self, seed, bases, axes):
        out = np.zeros(len(bases), dtype=float)
        shifted = np.array(bases, copy=True)
        for j, coef in enumerate(self.kernel):
            if j > 0:
                shifted = np.array(bases, copy=True)
                shifted[np.arange(len(bases)), axes] += j
            out += coef * self.base.weights(seed, shifted, axes)
        return out

    def spec(self):
        return {"kind": "moving_average", "kernel": list(self.kernel),
                "base": self.base.spec()}


def model_from_spec(spec: dict) -> WeightModel:
    """Inverse of WeightModel.spec(); used by the CLI config parser."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    builders = {
        "constant": lambda: Constant(float(spec["value"])),
        "exponential": lambda: Exponential(float(spec.get("rate", 1.0))),
        "pareto": lambda: Pareto(float(spec["shape"]), float(spec.get("scale", 1.0))),
        "two_valued": lambda: TwoValued(float(spec["low"]), float(spec["high"]),
                                        float(spec.get("prob_low", 0.5))),
        "rotation": lambda: Rotation(
            tuple(spec["alpha"]) if isinstance(spec.get("alpha"), (list, tuple))
            else float(spec.get("alpha", _GOLDEN)),
            tuple(spec["profiles"]) if isinstance(spec.get("profiles"), (list, tuple))
            else spec.get("profiles", "identity")),
        "moving_average": lambda: MovingAverage(
            tuple(float(c) for c in spec["kernel"]),
            model_from_spec(spec.get("base", {"kind": "exponential"}))),
    }
    if kind not in builders:
        raise ValueError(f"unknown weight model kind {kind!r}")
    return builders[kind]()


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

    def field_csv(self, center: Site, radius: int, norm: str = "linf") -> str:
        """The boxed field as CSV text: base coordinates, axis, weight."""
        rows = self.sample_field(center, radius, norm)
        header = ",".join([f"base_{k}" for k in range(self.dimension)]
                          + ["axis", "weight"])
        lines = [header]
        for base, axis, w in rows:
            lines.append(",".join([*(str(c) for c in base), str(axis), repr(w)]))
        return "\n".join(lines) + "\n"

    def sample_field(self, center: Site, radius: int, norm: str = "linf",
                     max_edges: int = 2_000_000) -> list[tuple[Site, int, float]]:
        """All canonical edges with both endpoints in the box, with weights."""
        from .lattice import BoxRegion, forward_neighbors

        coords = BoxRegion(tuple(center), radius, norm).site_array()
        # row-major nonzero keeps the rows site-major, axes in order
        site, axis = np.nonzero(forward_neighbors(coords) >= 0)
        if len(site) > max_edges:
            raise MemoryError(
                f"box holds {len(site)} edges, above the limit {max_edges}")
        if not len(site):
            return []
        bases = coords[site]
        w = self.edge_weights(bases, axis)
        return list(zip(zip(*bases.T.tolist()), axis.tolist(), w.tolist()))
