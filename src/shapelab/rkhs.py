"""The Dirichlet reproducing-kernel picture of the Poincare disc: the
logarithmic kernel, its squared-difference metric, hyperbolic distance,
disc automorphisms, and the large-scale comparison of the two metrics
along random isometry walks.

The kernel metric is kept squared, exactly as the displayed formula
defines it; its gap to hyperbolic distance at the origin is 2*log(1+|z|),
never more than 2*log(2).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .environment import counter_uniform


def _check_disk(z: complex) -> complex:
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError(f"point {z} is not inside the open unit disc")
    return z


@dataclass(frozen=True)
class MoebiusMap:
    """Disc automorphism z -> (a*z + b) / (conj(b)*z + conj(a)) with
    |a|^2 - |b|^2 = 1 (an SU(1,1) element up to sign)."""

    a: complex
    b: complex

    def __post_init__(self):
        det = abs(self.a) ** 2 - abs(self.b) ** 2
        if abs(det - 1.0) > 1e-9:
            raise ValueError(f"|a|^2 - |b|^2 = {det}, expected 1")

    @staticmethod
    def identity() -> "MoebiusMap":
        return MoebiusMap(1.0 + 0.0j, 0.0j)

    @staticmethod
    def from_parameters(t: float, phi: float, psi: float) -> "MoebiusMap":
        """Hyperbolic translation length t with boundary rotations."""
        return MoebiusMap(math.cosh(t) * cmath.exp(1j * phi),
                          math.sinh(t) * cmath.exp(1j * psi))

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        a = self.a * other.a + self.b * other.b.conjugate()
        b = self.a * other.b + self.b * other.a.conjugate()
        # renormalize the unit determinant against drift in long products
        det = abs(a) ** 2 - abs(b) ** 2
        if det <= 0:
            raise ArithmeticError("degenerate composition")
        s = 1.0 / math.sqrt(det)
        return MoebiusMap(a * s, b * s)

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.a.conjugate(), -self.b)

    def apply(self, z: complex) -> complex:
        z = complex(z)
        w = (self.a * z + self.b) / (self.b.conjugate() * z + self.a.conjugate())
        if abs(w) >= 1.0:
            # roundoff can push boundary-hugging points out of the disc
            warnings.warn("Moebius image drifted outside the disc; "
                          "renormalized", RuntimeWarning)
            w *= (1.0 - 1e-15) / abs(w)
        return w


def kernel(z: complex, w: complex) -> complex:
    """K(z, w) = -log(1 - z * conj(w)), principal branch."""
    _check_disk(z), _check_disk(w)
    return -cmath.log(1.0 - complex(z) * complex(w).conjugate())


def kernel_metric(z: complex, w: complex) -> float:
    """Squared Hilbert-norm distance between the kernel sections at z and
    w, evaluated through the reproducing property."""
    val = (kernel(z, z) + kernel(w, w) - 2.0 * kernel(z, w).real).real
    return float(val)


def hyperbolic_distance(z: complex, w: complex) -> float:
    """Poincare distance, transported from log((1+|u|)/(1-|u|)) at the
    origin by the isometry sending z to 0."""
    z, w = _check_disk(z), _check_disk(w)
    u = (w - z) / (1.0 - z.conjugate() * w)
    r = abs(u)
    return math.log1p(r) - math.log1p(-r)


# random_walk's default step scale
STEP_SCALE = 0.25


def random_walk(seed: int, n: int,
                step_scale: float = STEP_SCALE) -> list[MoebiusMap]:
    """Deterministic sequence of isometry increments g_1, ..., g_n.

    The default step keeps 10^3-step orbits within hyperbolic distance
    ~25 of the origin, where the true gap to the 2*log(2) bound still
    exceeds double-precision roundoff; much larger steps drive the gap
    below float resolution."""
    counters = np.asarray([[9, i, j] for i in range(n) for j in range(3)],
                          dtype=np.int64)
    u = counter_uniform(seed, counters).reshape(n, 3)
    out = []
    for i in range(n):
        t = step_scale * u[i, 0]
        phi = 2.0 * math.pi * u[i, 1]
        psi = 2.0 * math.pi * u[i, 2]
        out.append(MoebiusMap.from_parameters(t, phi, psi))
    return out


def large_scale_compare(increments: list[MoebiusMap]):
    """Orbit of the origin under the left cocycle Z_k = g_1 ... g_k, with
    the kernel metric and hyperbolic distance to the origin at each step.

    Returns a list of (k, kernel_metric, hyperbolic) triples; the gap
    obeys |d - beta| = 2*log(1 + |Z_k.o|) <= 2*log(2) pointwise.

    The product is accumulated in log scale: with matrix entries (a, b)
    and unit pseudo-determinant, d(o, Z.o) = -log(1 - |Z.o|^2) = 2*log|a|
    and beta(o, Z.o) = 2*log(|a| + |b|), so arbitrarily long walks never
    overflow or graze the disc boundary."""
    out = []
    # normalized state: true (a, b) = exp(logmag) * (alpha, beta_c), |alpha| = 1
    alpha, beta_c, logmag = 1.0 + 0.0j, 0.0j, 0.0
    for k, g in enumerate(increments, start=1):
        a_new = alpha * g.a + beta_c * g.b.conjugate()
        b_new = alpha * g.b + beta_c * g.a.conjugate()
        mag = abs(a_new)
        alpha, beta_c = a_new / mag, b_new / mag
        logmag += math.log(mag)
        d = 2.0 * logmag
        # |b/a| < 1 exactly; clamp the roundoff of the near-boundary ratio,
        # and emit beta as d + gap so the reported gap is subtraction-exact
        gap = 2.0 * math.log1p(min(abs(beta_c), 1.0))
        out.append((k, d, d + gap))
    return out
