"""Finite-dimensional Hilbert-valued additive cocycles over ergodic
lattice actions: evaluation along staircases, ergodic drift, the Kingman
split into a Birkhoff part plus a nonnegative zero-drift remainder,
horofunctions, and Cesaro/Fejer spectral rate analysis.

The acting group is Z^d realized either as a seeded hash shift or as an
irrational rotation of the circle; the value space is R^D.  The optional
per-axis representation matrices must be orthogonal and commute, which
keeps staircase evaluation path independent.

A generator is a plain callable f(dynamics, offset, axis, count) ->
(count, D) array: row j holds f_axis at the site offset + j * e_axis.
Orbits are evaluated one batch per axis segment, in batches of at most
ORBIT_CHUNK steps, so memory stays bounded at any orbit length.  Sums
along an orbit accumulate sequentially, row after row (``np.cumsum``
seeded with the running total), and norms and inner products stay per
row, so every value equals the one-step-at-a-time evaluation bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .environment import ORBIT_CHUNK, counter_uniform

Site = tuple[int, ...]


# --------------------------------------------------------------------------
# dynamics


class CircleRotation:
    """Z^d acting on the circle by per-axis irrational rotations."""

    def __init__(self, alphas: Sequence[float], x0: float = 0.0):
        self.alphas = tuple(float(a) for a in alphas)
        self.x0 = float(x0) % 1.0

    @property
    def dim_group(self) -> int:
        return len(self.alphas)

    def point(self, offset: Site) -> float:
        # a left-to-right loop, not sum(): axis_points repeats this order,
        # and sum() of floats is compensated from Python 3.12 on
        shift = 0.0
        for a, o in zip(self.alphas, offset):
            shift += a * o
        return (self.x0 + shift) % 1.0

    def axis_points(self, offset: Site, axis: int, count: int) -> np.ndarray:
        """point(offset + j * e_axis) for j < count, with the expression
        order of ``point``, so each entry equals it bit for bit."""
        shift = 0.0
        for i, (a, o) in enumerate(zip(self.alphas, offset)):
            shift = shift + (a * (o + np.arange(count)) if i == axis
                             else a * o)
        return np.mod(self.x0 + shift, 1.0)

    def translate(self, offset: Site) -> "CircleRotation":
        return CircleRotation(self.alphas, self.point(offset))


class SeededShift:
    """Z^d acting by translation on a counter-hashed sample space."""

    def __init__(self, seed: int, dim_group: int, base: Site | None = None):
        self.seed = int(seed)
        self._dim = int(dim_group)
        self.base = tuple(base) if base is not None else (0,) * dim_group

    @property
    def dim_group(self) -> int:
        return self._dim

    def point(self, offset: Site) -> Site:
        return tuple(b + o for b, o in zip(self.base, offset))

    def translate(self, offset: Site) -> "SeededShift":
        return SeededShift(self.seed, self._dim, self.point(offset))

    def uniforms(self, offset: Site, tag: int, count: int) -> np.ndarray:
        site = self.point(offset)
        counters = np.asarray(
            [[17, tag, j, *site] for j in range(count)], dtype=np.int64)
        return counter_uniform(self.seed, counters)


Dynamics = CircleRotation | SeededShift


# --------------------------------------------------------------------------
# generators f_k; signature (dynamics, offset, axis, count) -> (count, D)


def _axis_offsets(offset: Site, axis: int, count: int) -> list[Site]:
    """offset + j * e_axis for j < count."""
    return [tuple(o + j if i == axis else o for i, o in enumerate(offset))
            for j in range(count)]


def constant_generator(v) -> Callable:
    v = np.asarray(v, dtype=float)

    def f(dyn, offset, axis, count):
        return np.broadcast_to(v, (count, len(v)))

    return f


# the default harmonic of fourier_generator and scale of
# axis_field_generator, which config tables also take as defaults
HARMONIC, AXIS_SCALE = 1, 1.0


def fourier_generator(harmonic: int = HARMONIC) -> Callable:
    """Mean-zero loop generator on rotation dynamics:
    x -> (cos 2*pi*h*x, sin 2*pi*h*x)."""

    def f(dyn, offset, axis, count):
        ts = (2.0 * math.pi * harmonic * dyn.axis_points(offset, axis, count))
        # math.cos/sin per entry: numpy's vector cos may round differently
        return np.array([[math.cos(t), math.sin(t)] for t in ts.tolist()]
                        ).reshape(count, 2)

    return f


def coboundary_generator(g: Callable, over_points: bool = False) -> Callable:
    """f_k = g - g after one step along axis k; the induced cocycle is
    the bounded telescope g(x) - g(T_n x).  The scalar profile
    g(dynamics, offset) -> R^D is called once per orbit site.  With
    over_points, g(points) -> (count, D) takes the array of circle points
    of a whole orbit batch (rotation dynamics only) and is called once
    per batch."""

    def f(dyn, offset, axis, count):
        if over_points:
            vals = np.asarray(g(dyn.axis_points(offset, axis, count + 1)),
                              dtype=float)
        else:
            vals = np.array([np.asarray(g(dyn, off), dtype=float)
                             for off in _axis_offsets(offset, axis,
                                                      count + 1)])
        return vals[:-1] - vals[1:]

    return f


def add_generators(*fs: Callable) -> Callable:
    def f(dyn, offset, axis, count):
        return sum(np.asarray(g(dyn, offset, axis, count)) for g in fs)

    return f


def axis_field_generator(dim_space: int, scale: float = AXIS_SCALE,
                         tag: int = 0) -> Callable:
    """IID gaussian vectors attached per axis to that axis's own
    coordinate: f_k at a site reads only the k-th coordinate.

    Generators over Z^d must satisfy the discrete closedness condition
    f_k(x) + f_j(T_{e_k} x) = f_j(x) + f_k(T_{e_j} x) or no additive
    cocycle has them as one-step increments; axis fields satisfy it
    because a step along axis j never changes the argument of f_k.
    """

    def f(dyn, offset, axis, count):
        start = dyn.point(offset)[axis]  # seeded shifts only
        counters = np.empty((count, 2 * dim_space, 5), dtype=np.int64)
        counters[..., 0] = 23
        counters[..., 1] = tag
        counters[..., 2] = axis
        counters[..., 3] = start + np.arange(count)[:, None]
        counters[..., 4] = np.arange(2 * dim_space)
        u = counter_uniform(dyn.seed, counters.reshape(-1, 5)).reshape(
            count, 2 * dim_space)
        u1 = np.clip(u[:, :dim_space], 1e-300, 1.0)
        u2 = u[:, dim_space:]
        return scale * np.sqrt(-2.0 * np.log(u1)) * np.cos(2 * np.pi * u2)

    return f


def twisted_coboundary_generator(g: Callable,
                                 representation: Sequence[np.ndarray]) -> Callable:
    """f_k(x) = g(x) - lambda_k . g(T_{e_k} x), the coboundary twisted by
    the representation; the induced cocycle telescopes to
    g(x) - lambda(n) . g(T_n x)."""
    mats = tuple(np.asarray(m, dtype=float) for m in representation)

    def f(dyn, offset, axis, count):
        vals = [np.asarray(g(dyn, off), dtype=float)
                for off in _axis_offsets(offset, axis, count + 1)]
        return np.array([here - mats[axis] @ there
                         for here, there in zip(vals, vals[1:])])

    return f


# --------------------------------------------------------------------------
# the cocycle


@dataclass(frozen=True)
class HilbertCocycle:
    dim_space: int
    dynamics: Dynamics
    generator: Callable
    representation: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if self.representation is not None:
            mats = tuple(np.asarray(m, dtype=float) for m in self.representation)
            if len(mats) != self.dim_group:
                raise ValueError("one representation matrix per axis required")
            D = self.dim_space
            for m in mats:
                if m.shape != (D, D):
                    raise ValueError("representation matrices must be D x D")
                if np.max(np.abs(m @ m.T - np.eye(D))) > 1e-12:
                    raise ValueError("representation matrices must be orthogonal")
            for i in range(len(mats)):
                for j in range(i):
                    if np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i])) > 1e-12:
                        raise ValueError(
                            "representation matrices must commute pairwise")
            object.__setattr__(self, "representation", mats)

    @property
    def dim_group(self) -> int:
        return self.dynamics.dim_group

    @property
    def has_trivial_representation(self) -> bool:
        return self.representation is None

    def shifted(self, offset: Site) -> "HilbertCocycle":
        return replace(self, dynamics=self.dynamics.translate(offset))

    def _rep_power(self, axis: int, power: int) -> np.ndarray:
        m = self.representation[axis]
        if power >= 0:
            return np.linalg.matrix_power(m, power)
        return np.linalg.matrix_power(m.T, -power)

    def _rep_at(self, offset: Site) -> np.ndarray:
        out = np.eye(self.dim_space)
        for k, o in enumerate(offset):
            if o:
                out = out @ self._rep_power(k, o)
        return out

    def evaluate(self, n: Site, axis_order: Sequence[int] | None = None) -> np.ndarray:
        """s_x(0, n), telescoped along the axis-by-axis staircase from 0.

        Commutation of the representation makes the value independent of
        the axis order; the order parameter exists so tests can verify
        that directly.
        """
        n = tuple(int(c) for c in n)
        if len(n) != self.dim_group:
            raise ValueError("direction dimension mismatch")
        order = tuple(axis_order) if axis_order is not None else tuple(
            range(self.dim_group))
        if sorted(order) != list(range(self.dim_group)):
            raise ValueError("axis_order must be a permutation")
        total = np.zeros(self.dim_space)
        offset = [0] * self.dim_group
        lam = np.eye(self.dim_space)
        for k in order:
            sign = 1 if n[k] >= 0 else -1
            for vals in self.axis_segment(tuple(offset), k, n[k]):
                if self.representation is None:
                    total = _running_sums(total, sign * vals)[-1]
                elif sign == 1:
                    for fval in vals:
                        total = total + lam @ fval
                        lam = lam @ self.representation[k]
                else:
                    for fval in vals:
                        lam = lam @ self.representation[k].T
                        total = total - lam @ fval
            offset[k] += n[k]
        return total

    def axis_segment(self, offset: Site, axis: int,
                     steps: int) -> Iterator[np.ndarray]:
        """Generator values along |steps| staircase steps from offset on
        one axis, in the order they are visited, as (rows, D) arrays of
        at most ORBIT_CHUNK rows.  A forward step from y reads f_axis(y);
        a backward step reads f_axis(y - e_axis), so steps < 0 visits
        offset - e_axis, offset - 2 e_axis, ..."""
        for lo in range(0, abs(steps), ORBIT_CHUNK):
            count = min(ORBIT_CHUNK, abs(steps) - lo)
            start = offset[axis] + lo if steps >= 0 else \
                offset[axis] - lo - count
            off = tuple(start if i == axis else o
                        for i, o in enumerate(offset))
            vals = np.asarray(self.generator(self.dynamics, off, axis, count),
                              dtype=float)
            yield vals if steps >= 0 else vals[::-1]

    def evaluate_between(self, m: Site, n: Site) -> np.ndarray:
        """s_x(m, n) = lambda(m) . s_{T_m x}(0, n - m)."""
        m, n = tuple(m), tuple(n)
        diff = tuple(b - a for a, b in zip(m, n))
        val = self.shifted(m).evaluate(diff)
        if self.representation is not None:
            val = self._rep_at(m) @ val
        return val

    def semimetric(self, m: Site, n: Site) -> float:
        return float(np.linalg.norm(self.evaluate_between(m, n)))


# --------------------------------------------------------------------------
# ergodic drift and the Kingman split


def _running_sums(total: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """total + rows[0], total + rows[0] + rows[1], ...: one row added at a
    time, as a step-by-step loop adds them (np.sum would add pairwise)."""
    return np.cumsum(np.vstack([total, rows]), axis=0)[1:]


@dataclass(frozen=True)
class DriftMap:
    """The linear map n -> sum_k n_k L_k approximating s(0, n)/1."""

    columns: np.ndarray  # D x d
    orbit_length: int
    diagnostics: tuple[tuple[int, float], ...] = ()

    def __call__(self, v: Sequence[float]) -> np.ndarray:
        return self.columns @ np.asarray(v, dtype=float)

    def column(self, k: int) -> np.ndarray:
        return self.columns[:, k]


def drift_map(c: HilbertCocycle, orbit_length: int,
              diagnostic_points: Sequence[int] = ()) -> DriftMap:
    """Per-axis ergodic averages L_k = (1/N) sum_j f_k(T_{j e_k} x).

    Only trivial representations are supported: with a nontrivial lambda
    the averages would converge to the invariant component of a twisted
    orbit, which is not the drift of the linear map being estimated.
    """
    if not c.has_trivial_representation:
        raise ValueError("drift_map requires the identity representation")
    if orbit_length < 1:
        raise ValueError("orbit_length must be positive")
    d, D = c.dim_group, c.dim_space
    cols = np.zeros((D, d))
    for k in range(d):
        acc = np.zeros(D)
        for vals in c.axis_segment((0,) * d, k, orbit_length):
            acc = _running_sums(acc, vals)[-1]
        cols[:, k] = acc / orbit_length
    diags = []
    for n in diagnostic_points:
        ek = tuple(int(n) if i == 0 else 0 for i in range(d))
        gap = np.linalg.norm(c.evaluate(ek) / n - cols[:, 0])
        diags.append((int(n), float(gap)))
    return DriftMap(columns=cols, orbit_length=orbit_length,
                    diagnostics=tuple(diags))


@dataclass(frozen=True)
class KingmanDecomposition:
    length: int
    rho: np.ndarray          # rho(0, k e_axis) for k = 0..length
    phi: np.ndarray          # phi(T^k x) for k = 0..length-1
    remainders: np.ndarray   # r_k = rho_k - sum_{j<k} phi_j
    drift: float             # |Pf|, the drift carried by the Birkhoff part

    @property
    def remainder_drift_series(self) -> np.ndarray:
        ks = np.arange(1, self.length + 1)
        return self.remainders[1:] / ks


def kingman_decompose(c: HilbertCocycle, length: int, axis: int = 0,
                      drift_vector: np.ndarray | None = None,
                      drift_orbit: int | None = None) -> KingmanDecomposition:
    """Split rho(0, n) along one axis orbit into a Birkhoff sum of
    phi = <Pf/|Pf|, f> plus a nonnegative remainder with zero drift.

    The projection Pf is the ergodic mean of the generator (the invariant
    component); Cauchy-Schwarz makes every remainder nonnegative up to
    roundoff.
    """
    if not c.has_trivial_representation:
        raise ValueError("kingman_decompose requires the identity representation")
    d, D = c.dim_group, c.dim_space
    if drift_vector is None:
        if drift_orbit is None:
            drift_orbit = max(1000, 4 * length)
        drift_vector = drift_map(c, drift_orbit).column(axis)
    drift_vector = np.asarray(drift_vector, dtype=float)
    norm = float(np.linalg.norm(drift_vector))
    xi = drift_vector / norm if norm > 0 else None

    rho = np.zeros(length + 1)
    phi = np.zeros(length)
    total = np.zeros(D)
    k = 0
    for vals in c.axis_segment((0,) * d, axis, length):
        sums = _running_sums(total, vals)
        # per-row norm and inner product: their batched forms round
        # differently in the last bit
        for fval, partial in zip(vals, sums):
            rho[k + 1] = np.linalg.norm(partial)
            phi[k] = float(xi @ fval) if xi is not None else 0.0
            k += 1
        total = sums[-1]
    remainders = rho - np.concatenate([[0.0], np.cumsum(phi)])
    return KingmanDecomposition(length=length, rho=rho, phi=phi,
                                remainders=remainders, drift=norm)


# --------------------------------------------------------------------------
# horofunctions


class DegenerateDirectionError(ValueError):
    """The requested direction pairs to a trivial drift vector."""


def horofunction_empirical(c: HilbertCocycle, m: Site, n: Site) -> float:
    """h_m(n) = rho(m, n) - rho(m, 0)."""
    return c.semimetric(m, n) - c.semimetric(m, (0,) * c.dim_group)


def horofunction_limit(c: HilbertCocycle, eta: Sequence[float], n: Site,
                       drift: DriftMap) -> float:
    """The limiting horofunction along direction eta:
    -<s(0, n), xi> / |xi| with xi = sum_k eta_k L_k.

    This is the Busemann value of the Hilbert ray in direction xi.  It is
    what the expansion of rho(t*eta, n) - rho(t*eta, 0) converges to, and
    the brute-force limit of the empirical horofunctions reproduces it
    exactly for constant-drift examples.
    """
    xi = drift(np.asarray(eta, dtype=float))
    norm = float(np.linalg.norm(xi))
    if norm == 0.0:
        raise DegenerateDirectionError(
            "direction pairs to a null drift vector; horofunction undefined")
    return float(-(c.evaluate(n) @ xi) / norm)


# --------------------------------------------------------------------------
# spectral samples and rates


@dataclass(frozen=True)
class OperatorSample:
    """Orbit-backed sample: an explicit orthogonal matrix acting on R^D."""

    U: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        f = np.asarray(self.f, dtype=float)
        if np.max(np.abs(U @ U.T - np.eye(len(U)))) > 1e-10:
            raise ValueError("U must be orthogonal")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "f", f)

    @property
    def has_orbit(self) -> bool:
        return True

    def autocorrelation(self, k: int) -> float:
        return float(np.linalg.matrix_power(self.U, abs(k)) @ self.f @ self.f)

    def orbit(self, n: int) -> np.ndarray:
        out = np.empty((n, len(self.f)))
        v = self.f.copy()
        for i in range(n):
            out[i] = v
            v = self.U @ v
        return out

    def partial_sum_norm2(self, n: int) -> float:
        return float(np.linalg.norm(self.orbit(n).sum(axis=0)) ** 2)

    def invariant_component(self) -> np.ndarray:
        w, v = np.linalg.eig(self.U)
        fixed = np.abs(w - 1.0) < 1e-9
        if not fixed.any():
            return np.zeros_like(self.f)
        basis = np.real_if_close(v[:, fixed])
        q, _ = np.linalg.qr(np.real(basis))
        return q @ (q.T @ self.f)


@dataclass(frozen=True)
class RotationSample:
    """Exact scalar rotation spectrum: a point mass at frequency alpha."""

    alpha: float
    amplitude: float = 1.0

    @property
    def has_orbit(self) -> bool:
        return True

    def autocorrelation(self, k: int) -> complex:
        return self.amplitude ** 2 * cmath.exp(2j * math.pi * self.alpha * k)

    def partial_sum_norm2(self, n: int) -> float:
        z = sum(cmath.exp(2j * math.pi * self.alpha * k) for k in range(n))
        return self.amplitude ** 2 * abs(z) ** 2

    def invariant_norm(self) -> float:
        return self.amplitude if self.alpha % 1.0 == 0.0 else 0.0


@dataclass(frozen=True)
class AutocorrSample:
    """Sample specified purely by an exactly-known autocorrelation; the
    squared partial-sum norms come from the Fejer identity."""

    kind: str               # "white" or "geometric"
    sigma2: float = 1.0
    ratio: float = 0.0      # geometric decay parameter in (0, 1)

    def __post_init__(self):
        if self.kind not in ("white", "geometric"):
            raise ValueError("kind must be 'white' or 'geometric'")
        if self.kind == "geometric" and not (0.0 < self.ratio < 1.0):
            raise ValueError("geometric ratio must lie in (0, 1)")

    @property
    def has_orbit(self) -> bool:
        return False

    def autocorrelation(self, k: int) -> float:
        if self.kind == "white":
            return self.sigma2 if k == 0 else 0.0
        return self.sigma2 * self.ratio ** abs(k)

    def partial_sum_norm2(self, n: int) -> float:
        return float(sum((n - abs(k)) * self.autocorrelation(k)
                         for k in range(-n + 1, n)))

    @property
    def zero_atom(self) -> float:
        return 0.0  # both shipped kinds have continuous spectrum at 0


SpectralSample = OperatorSample | RotationSample | AutocorrSample


def cesaro_fejer_average(sp: SpectralSample, n: int) -> tuple[float, float]:
    """Both sides of the Fejer identity at horizon n:
    lhs = (1/n) |sum_{k<n} U^k f|^2 computed directly from the orbit,
    rhs = sum_{|k|<n} (1 - |k|/n) acf(k) from the autocorrelation.
    For autocorrelation-only samples the lhs is by definition the rhs.
    """
    if n < 1:
        raise ValueError("n must be positive")
    lhs = sp.partial_sum_norm2(n) / n
    rhs = sum((1.0 - abs(k) / n) * sp.autocorrelation(k)
              for k in range(-n + 1, n))
    return float(lhs), float(np.real(rhs))


def mean_ergodic_projection(sp: SpectralSample, n: int):
    """The triangular average (1/n^2) sum_{|k|<=n} (n - |k|) U^k f, which
    converges to the projection of f on the U-invariant vectors."""
    if n < 1:
        raise ValueError("n must be positive")
    if isinstance(sp, OperatorSample):
        D = len(sp.f)
        acc = np.zeros(D)
        fwd = sp.f.copy()
        bwd = sp.f.copy()
        acc += n * sp.f
        for k in range(1, n + 1):
            fwd = sp.U @ fwd
            bwd = sp.U.T @ bwd
            acc += (n - k) * (fwd + bwd)
        return acc / (n * n)
    if isinstance(sp, RotationSample):
        z = sum((n - abs(k)) * cmath.exp(2j * math.pi * sp.alpha * k)
                for k in range(-n, n + 1))
        return sp.amplitude * z / (n * n)
    raise TypeError("mean ergodic projection needs an orbit-backed sample")


def spectral_rate(sp: SpectralSample, n_grid: Sequence[int]):
    """R_n = |sum_{k<n} U^k f|^2 over the grid, with R_n/n attached.

    Requires a sample whose spectral measure has no atom at zero (the
    projection of f on invariant vectors vanishes); inputs carrying an
    atom are rejected.
    """
    if isinstance(sp, OperatorSample):
        atom = float(np.linalg.norm(sp.invariant_component()))
        if atom > 1e-9 * max(1.0, float(np.linalg.norm(sp.f))):
            raise ValueError("f has a nonzero invariant component; "
                             "spectral rates need Pf = 0")
    elif isinstance(sp, RotationSample):
        if sp.invariant_norm() != 0.0:
            raise ValueError("rotation by an integer is the identity; "
                             "spectral rates need Pf = 0")
    rows = []
    for n in n_grid:
        r = sp.partial_sum_norm2(int(n))
        rows.append((int(n), r, r / n))
    return rows
