"""Transfer-matrix cocycles of the discrete Schrodinger equation with an
ergodic potential: ordered unimodular 2x2 products and their
Furstenberg-Kesten/Lyapunov limits.

Long products are renormalized once their norm passes a threshold, with
the scale carried separately in log space, so growth rates stay exact up
to roundoff at any length.

Products run in one scalar kernel.  The coefficient orbit energy - V(T^k x)
is hashed in batches of at most ORBIT_CHUNK steps by single
``PotentialModel.values`` calls, and the 2x2 recurrence runs on four
Python floats: the product's two rows (lag, lead) advance as
lag, lead <- lead, t * lead - lag.  A forward factor [[0, 1], [-1, t]]
acts that way on the rows (top, bottom) and its adjugate [[t, -1], [1, 0]]
on (bottom, top), so the same loop serves n >= 0 and n < 0.  The kernel
continues any state, so by the cocycle identity
S(2n, x) = S(n, T^n x) S(n, x) the debiased Lyapunov estimate reads
S(n, x) and then carries the same state on over T^n x to S(2n, x).
Every coefficient is hashed on its own, so where the batches start moves
no value.  ``TransferCocycle.one_step`` stays the definition of a single
factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .environment import ORBIT_CHUNK, counter_uniform

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_RENORM_THRESHOLD = 1e8


@dataclass(frozen=True)
class PotentialModel:
    """Site potential V(T^k x) on an ergodic Z-system, plus the energy."""

    kind: str                      # "constant" | "iid_uniform" | "bernoulli" | "rotation"
    energy: float = 0.0
    value: float = 0.0             # constant level
    amplitude: float = 1.0         # scale of random/rotation potentials
    alpha: float = _GOLDEN         # rotation step

    def __post_init__(self):
        if self.kind not in ("constant", "iid_uniform", "bernoulli", "rotation"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        for val in (self.energy, self.value, self.amplitude, self.alpha):
            if not math.isfinite(val):
                raise ValueError("potential parameters must be finite")

    def values(self, seed: int, sites: np.ndarray) -> np.ndarray:
        sites = np.asarray(sites, dtype=np.int64)
        if self.kind == "constant":
            return np.full(len(sites), self.value)
        if self.kind == "rotation":
            x0 = float(counter_uniform(seed, np.asarray([[31]], dtype=np.int64))[0])
            return self.amplitude * np.mod(x0 + self.alpha * sites, 1.0)
        counters = np.stack([np.full(len(sites), 29, dtype=np.int64), sites], axis=1)
        u = counter_uniform(seed, counters)
        if self.kind == "iid_uniform":
            return self.amplitude * (2.0 * u - 1.0)
        return self.amplitude * np.where(u < 0.5, -1.0, 1.0)  # bernoulli


@dataclass(frozen=True)
class TransferCocycle:
    potential: PotentialModel
    seed: int = 0
    offset: int = 0  # the shift realized exactly on the hashed index stream

    def one_step(self, k: int) -> np.ndarray:
        """S(1, T^k x) = [[0, 1], [-1, energy - V(T^k x)]]; determinant 1."""
        v = float(self.potential.values(
            self.seed, np.asarray([k + self.offset]))[0])
        return np.array([[0.0, 1.0], [-1.0, self.potential.energy - v]])

    def shifted(self, k: int) -> "TransferCocycle":
        return replace(self, offset=self.offset + k)


def operator_norm_2x2(a: np.ndarray) -> float:
    """Spectral norm in closed form from the singular values."""
    e = float(np.sum(a * a))
    det = float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    disc = max(e * e - 4.0 * det * det, 0.0)
    return math.sqrt(max((e + math.sqrt(disc)) / 2.0, 0.0))


@dataclass(frozen=True)
class ScaledMatrix:
    """A 2x2 matrix held as mat * exp(log_scale)."""

    mat: np.ndarray
    log_scale: float = 0.0

    def log_norm(self) -> float:
        return self.log_scale + math.log(operator_norm_2x2(self.mat))

    def log_det(self) -> float:
        """log |det| of the represented matrix.  Once the product's
        condition number passes ~1e300 the smaller singular value of the
        stored factor underflows and this reports -inf; unimodularity is
        only float-verifiable in representable regimes."""
        d = abs(float(self.mat[0, 0] * self.mat[1, 1]
                      - self.mat[0, 1] * self.mat[1, 0]))
        return math.log(d) + 2.0 * self.log_scale if d > 0 else -math.inf

    def dense(self) -> np.ndarray:
        return self.mat * math.exp(self.log_scale)


def _coefficients(tc: TransferCocycle, n: int) -> Iterator[list[float]]:
    """energy - V(T^k x) for the |n| factors of S(n, x) in the order they
    are applied (k = 0, 1, ..., n-1 for n >= 0 and k = -1, -2, ..., n for
    n < 0), as lists of Python floats of at most ORBIT_CHUNK entries."""
    pot = tc.potential
    first, sign = (0, 1) if n >= 0 else (-1, -1)
    steps = abs(n)
    for lo in range(0, steps, ORBIT_CHUNK):
        hi = min(lo + ORBIT_CHUNK, steps)
        sites = tc.offset + first + sign * np.arange(lo, hi, dtype=np.int64)
        yield (pot.energy - pot.values(tc.seed, sites)).tolist()


# the kernel state of S(0, x) = I for n >= 0 and for n < 0: the rows
# (lag, lead) and the log scale
_FORWARD, _BACKWARD = ((1.0, 0.0, 0.0, 1.0), 0.0), ((0.0, 1.0, 1.0, 0.0), 0.0)


def _advance(tc: TransferCocycle, n: int,
             state: tuple[tuple[float, ...], float]):
    """The scalar kernel: continue state = ((la, lb, ea, eb), log_scale),
    the rows (lag, lead) = ((la, lb), (ea, eb)), by the |n| factors of
    S(n, x) as lag, lead <- lead, t*lead - lag per coefficient t,
    renormalizing when max |entry| passes the threshold."""
    (la, lb, ea, eb), log_scale = state
    for coeffs in _coefficients(tc, n):
        for t in coeffs:
            la, lb, ea, eb = ea, eb, t * ea - la, t * eb - lb
            m = max(abs(la), abs(lb), abs(ea), abs(eb))
            if m > _RENORM_THRESHOLD:
                la, lb, ea, eb = la / m, lb / m, ea / m, eb / m
                log_scale += math.log(m)
    return (la, lb, ea, eb), log_scale


def _scaled(state, forward: bool = True) -> ScaledMatrix:
    (la, lb, ea, eb), log_scale = state
    mat = [[la, lb], [ea, eb]] if forward else [[ea, eb], [la, lb]]
    return ScaledMatrix(np.array(mat), log_scale)


def transfer_product_scaled(tc: TransferCocycle, n: int) -> ScaledMatrix:
    """Ordered product S(n, x) with log-scale renormalization, from one
    kernel pass of |n| steps.

    For n >= 0 the product is S(1, T^{n-1} x) ... S(1, x); negative n
    uses the cocycle inverse S(-n, x) = S(n, T^{-n} x)^{-1}, a product of
    adjugates, exact for unimodular factors.  The kernel state is the
    product's rows (lag, lead): (top, bottom) for forward factors and
    (bottom, top) for adjugates, which makes both the same recurrence
    (see the module docstring)."""
    forward = n >= 0
    return _scaled(_advance(tc, n, _FORWARD if forward else _BACKWARD),
                   forward)


@dataclass(frozen=True)
class LyapunovEstimate:
    value: float
    stderr: float
    n_steps: int
    n_seeds: int

    @property
    def ci95(self) -> tuple[float, float]:
        return (self.value - 1.96 * self.stderr, self.value + 1.96 * self.stderr)


# lyapunov's default number of seeds
LYAPUNOV_SEEDS = 8


def lyapunov(potential: PotentialModel, n_steps: int,
             n_seeds: int = LYAPUNOV_SEEDS,
             seed0: int = 0) -> LyapunovEstimate:
    """Growth rate of the log operator norm, averaged over seeds.

    The per-seed estimate is the subadditive increment
    (rho(0, 2n) - rho(0, n)) / n, which cancels the O(1/n) constant from
    the eigenprojection and converges geometrically in the constant-
    potential case.  One kernel pass gives both log-norms: it runs n steps
    to S(n, x), then continues that state over T^n x for n more steps to
    S(2n, x)."""
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    vals = []
    for s in range(n_seeds):
        tc = TransferCocycle(potential, seed=seed0 + s)
        state = _advance(tc, n_steps, _FORWARD)
        short = max(_scaled(state).log_norm(), 0.0)
        state = _advance(tc.shifted(n_steps), n_steps, state)
        long = max(_scaled(state).log_norm(), 0.0)
        vals.append((long - short) / n_steps)
    arr = np.asarray(vals)
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return LyapunovEstimate(value=float(arr.mean()), stderr=stderr,
                            n_steps=n_steps, n_seeds=n_seeds)
