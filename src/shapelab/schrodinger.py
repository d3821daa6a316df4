"""Transfer-matrix cocycles of the discrete Schrodinger equation with an
ergodic potential: ordered unimodular 2x2 products, the log-norm
semimetric, Furstenberg-Kesten/Lyapunov limits, and the second-order
recurrence itself.

Long products are renormalized once their norm passes a threshold, with
the scale carried separately in log space, so growth rates stay exact up
to roundoff at any length.

Products run in one scalar kernel.  The coefficient orbit energy - V(T^k x)
is hashed in batches of at most ORBIT_CHUNK steps by single
``PotentialModel.values`` calls, and the 2x2 recurrence runs on four
Python floats: the product's two rows (lag, lead) advance as
lag, lead <- lead, t * lead - lag.  A forward factor [[0, 1], [-1, t]]
acts that way on the rows (top, bottom) and its adjugate [[t, -1], [1, 0]]
on (bottom, top), so the same loop serves n >= 0 and n < 0.  One pass can
report the product at several lengths (``transfer_products_scaled``), which
the debiased Lyapunov estimate uses to read n and 2n together.
``TransferCocycle.one_step`` stays the definition of a single factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

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


def _coefficients(tc: TransferCocycle, n: int,
                  breaks: Sequence[int] = ()) -> Iterator[list[float]]:
    """energy - V(T^k x) for the |n| factors of S(n, x) in the order they
    are applied (k = 0, 1, ..., n-1 for n >= 0 and k = -1, -2, ..., n for
    n < 0), as lists of Python floats of at most ORBIT_CHUNK entries.  A
    list also ends after every step count |b| for b in breaks."""
    pot = tc.potential
    first, sign = (0, 1) if n >= 0 else (-1, -1)
    steps = abs(n)
    cuts = set(range(0, steps, ORBIT_CHUNK))
    cuts.update(abs(b) for b in breaks if 0 < abs(b) < steps)
    cuts = sorted(cuts) + [steps]
    for lo, hi in zip(cuts, cuts[1:]):
        sites = tc.offset + first + sign * np.arange(lo, hi, dtype=np.int64)
        yield (pot.energy - pot.values(tc.seed, sites)).tolist()


def _advance(rows: tuple[float, ...], log_scale: float,
             coeffs: list[float]) -> tuple[tuple[float, ...], float]:
    """The scalar kernel: apply one factor per coefficient t to the rows
    (lag, lead) = ((la, lb), (ea, eb)) as lag, lead <- lead, t*lead - lag,
    renormalizing when max |entry| passes the threshold."""
    la, lb, ea, eb = rows
    for t in coeffs:
        la, lb, ea, eb = ea, eb, t * ea - la, t * eb - lb
        m = max(abs(la), abs(lb), abs(ea), abs(eb))
        if m > _RENORM_THRESHOLD:
            la, lb, ea, eb = la / m, lb / m, ea / m, eb / m
            log_scale += math.log(m)
    return (la, lb, ea, eb), log_scale


def transfer_products_scaled(tc: TransferCocycle,
                             marks: Sequence[int]) -> list[ScaledMatrix]:
    """S(m, x) for every m in marks, from one pass of max |m| steps.

    For m >= 0 the product is S(1, T^{m-1} x) ... S(1, x); negative m
    uses the cocycle inverse S(-m, x) = S(m, T^{-m} x)^{-1}, a product of
    adjugates, exact for unimodular factors.  The marks must share one
    sign.  The state is the product's rows (lag, lead): (top, bottom) for
    forward factors and (bottom, top) for adjugates, which makes both the
    same recurrence (see the module docstring)."""
    marks = [int(m) for m in marks]
    n = max(marks, key=abs)
    if any(m * n < 0 for m in marks):
        raise ValueError("marks must share one sign")
    forward = n >= 0
    rows = (1.0, 0.0, 0.0, 1.0) if forward else (0.0, 1.0, 1.0, 0.0)
    log_scale, done = 0.0, 0
    states = {0: (rows, log_scale)}  # the state after each chunk
    for chunk in _coefficients(tc, n, marks):
        rows, log_scale = _advance(rows, log_scale, chunk)
        done += len(chunk)
        states[done] = (rows, log_scale)

    def product(m):
        (la, lb, ea, eb), scale = states[abs(m)]
        mat = [[la, lb], [ea, eb]] if forward else [[ea, eb], [la, lb]]
        return ScaledMatrix(np.array(mat), scale)

    return [product(m) for m in marks]


def transfer_product_scaled(tc: TransferCocycle, n: int) -> ScaledMatrix:
    """Ordered product S(n, x) with log-scale renormalization; see
    ``transfer_products_scaled``."""
    return transfer_products_scaled(tc, [n])[0]


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


# lyapunov's default number of seeds
LYAPUNOV_SEEDS = 8


def lyapunov(potential: PotentialModel, n_steps: int,
             n_seeds: int = LYAPUNOV_SEEDS, seed0: int = 0,
             debias: bool = True) -> LyapunovEstimate:
    """Growth rate of the log operator norm, averaged over seeds.

    With debias=True the per-seed estimate is the subadditive increment
    (rho(0, 2n) - rho(0, n)) / n, which cancels the O(1/n) constant from
    the eigenprojection and converges geometrically in the constant-
    potential case; debias=False gives the plain rho(0, n)/n.  Both log-
    norms of the debiased estimate come from one pass of 2n steps."""
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    vals = []
    for s in range(n_seeds):
        tc = TransferCocycle(potential, seed=seed0 + s)
        if debias:
            pair = transfer_products_scaled(tc, [n_steps, 2 * n_steps])
            short, long = (max(p.log_norm(), 0.0) for p in pair)
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
    k = 1
    for chunk in _coefficients(tc, max(n_steps - 1, 0)):
        for coeff in chunk:  # energy - V at step k-1
            nxt = coeff * cur - prev
            prev, cur = cur, nxt
            mag = max(abs(prev), abs(cur))
            if mag > _RENORM_THRESHOLD:
                prev /= mag
                cur /= mag
                scale += math.log(mag)
            vals[k + 1] = cur
            logs[k + 1] = scale
            k += 1
    return DifferenceSolution(values=vals, log_scales=logs)
