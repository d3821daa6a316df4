"""Transfer-matrix cocycles of the discrete Schrodinger equation with an
ergodic potential: ordered unimodular 2x2 products, the log-norm
semimetric, Furstenberg-Kesten/Lyapunov limits, and the second-order
recurrence itself.

Long products are renormalized once their norm passes a threshold, with
the scale carried separately in log space, so growth rates stay exact up
to roundoff at any length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .environment import counter_uniform

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


def transfer_product_scaled(tc: TransferCocycle, n: int) -> ScaledMatrix:
    """Ordered product S(n, x) with log-scale renormalization.

    For n >= 0 this is S(1, T^{n-1} x) ... S(1, x); negative n uses the
    cocycle inverse S(-m, x) = S(m, T^{-m} x)^{-1}, exact for unimodular
    factors."""
    acc = np.eye(2)
    log_scale = 0.0
    if n >= 0:
        for k in range(n):
            acc = tc.one_step(k) @ acc
            m = float(np.max(np.abs(acc)))
            if m > _RENORM_THRESHOLD:
                acc /= m
                log_scale += math.log(m)
    else:
        for k in range(-1, n - 1, -1):
            step = tc.one_step(k)
            inv = np.array([[step[1, 1], -step[0, 1]],
                            [-step[1, 0], step[0, 0]]])  # adjugate, det = 1
            acc = inv @ acc
            m = float(np.max(np.abs(acc)))
            if m > _RENORM_THRESHOLD:
                acc /= m
                log_scale += math.log(m)
    return ScaledMatrix(acc, log_scale)


def transfer_product(tc: TransferCocycle, n: int) -> np.ndarray:
    """Dense S(n, x); raises if the product has outgrown float range."""
    scaled = transfer_product_scaled(tc, n)
    if scaled.log_scale + math.log(max(np.max(np.abs(scaled.mat)), 1e-300)) > 700:
        raise OverflowError("transfer product exceeds float range; use "
                            "transfer_product_scaled")
    return scaled.dense()


def matrix_semimetric(tc: TransferCocycle, m: int, n: int) -> float:
    """max(log+ |S_n S_m^{-1}|, log+ |S_m S_n^{-1}|).

    S_n S_m^{-1} = S(n - m, T^m x) by the cocycle identity, so both
    factors are evaluated as single ordered products."""
    fwd = transfer_product_scaled(tc.shifted(m), n - m).log_norm()
    bwd = transfer_product_scaled(tc.shifted(n), m - n).log_norm()
    return max(fwd, 0.0, bwd)


@dataclass(frozen=True)
class LyapunovEstimate:
    value: float
    stderr: float
    n_steps: int
    n_seeds: int

    @property
    def ci95(self) -> tuple[float, float]:
        return (self.value - 1.96 * self.stderr, self.value + 1.96 * self.stderr)


def lyapunov(potential: PotentialModel, n_steps: int, n_seeds: int = 8,
             seed0: int = 0, debias: bool = True) -> LyapunovEstimate:
    """Growth rate of the log operator norm, averaged over seeds.

    With debias=True the per-seed estimate is the subadditive increment
    (rho(0, 2n) - rho(0, n)) / n, which cancels the O(1/n) constant from
    the eigenprojection and converges geometrically in the constant-
    potential case; debias=False gives the plain rho(0, n)/n."""
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    vals = []
    for s in range(n_seeds):
        tc = TransferCocycle(potential, seed=seed0 + s)
        if debias:
            long = max(transfer_product_scaled(tc, 2 * n_steps).log_norm(), 0.0)
            short = max(transfer_product_scaled(tc, n_steps).log_norm(), 0.0)
            vals.append((long - short) / n_steps)
        else:
            rho = max(transfer_product_scaled(tc, n_steps).log_norm(), 0.0)
            vals.append(rho / n_steps)
    arr = np.asarray(vals)
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return LyapunovEstimate(value=float(arr.mean()), stderr=stderr,
                            n_steps=n_steps, n_seeds=n_seeds)


@dataclass(frozen=True)
class DifferenceSolution:
    """Solution samples of the scaled recurrence: v_n = values[n] *
    exp(log_scales[n])."""

    values: np.ndarray
    log_scales: np.ndarray

    def dense(self) -> np.ndarray:
        return self.values * np.exp(self.log_scales)


def solve_difference(a: float, b: float, tc: TransferCocycle,
                     n_steps: int) -> DifferenceSolution:
    """Iterate the second-order recurrence from (v_0, v_1) = (a, b),
    rescaling the running pair jointly when it grows and recording the
    scale in force at each index.

    The indexing matches the transfer products: (v_k, v_{k+1}) =
    S(k, x) (a, b), so v_{k+1} = (energy - V(T^{k-1} x)) v_k - v_{k-1}.
    """
    vals = np.zeros(n_steps + 1)
    logs = np.zeros(n_steps + 1)
    prev, cur = float(a), float(b)
    scale = 0.0
    vals[0] = prev
    if n_steps >= 1:
        vals[1] = cur
    for k in range(1, n_steps):
        coeff = float(tc.one_step(k - 1)[1, 1])  # energy - V at step k-1
        nxt = coeff * cur - prev
        prev, cur = cur, nxt
        mag = max(abs(prev), abs(cur))
        if mag > _RENORM_THRESHOLD:
            prev /= mag
            cur /= mag
            scale += math.log(mag)
        vals[k + 1] = cur
        logs[k + 1] = scale
    return DifferenceSolution(values=vals, log_scales=logs)
