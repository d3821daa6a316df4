"""Integer-lattice geometry: sites, boxes, elementary paths, and the
combinatorial family of spread-out paths from the origin to a target site.

Sites are plain tuples of ints; the ell-1 norm is the canonical lattice
norm throughout (it is the word metric of the standard generators).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

Site = tuple[int, ...]


def norm1(s: Sequence[int]) -> int:
    return sum(abs(c) for c in s)


def sub(a: Site, b: Site) -> Site:
    return tuple(x - y for x, y in zip(a, b))


def neighbors(s: Site) -> list[Site]:
    """The 2d lattice neighbors, in axis order with +axis before -axis."""
    out = []
    for k in range(len(s)):
        out.append(tuple(c + 1 if j == k else c for j, c in enumerate(s)))
        out.append(tuple(c - 1 if j == k else c for j, c in enumerate(s)))
    return out


@dataclass(frozen=True)
class BoxRegion:
    """Finite ball around a center site, in the ell-1 or ell-inf norm."""

    center: Site
    radius: int
    norm: str = "l1"

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        if self.norm not in ("l1", "linf"):
            raise ValueError("norm must be 'l1' or 'linf'")
        object.__setattr__(self, "center", tuple(int(c) for c in self.center))

    def contains(self, s: Sequence[int]) -> bool:
        diff = [abs(a - b) for a, b in zip(s, self.center)]
        return (sum(diff) if self.norm == "l1" else max(diff)) <= self.radius

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The offsets of the first d-1 coordinates, lexicographic, with
        the largest last-coordinate offset each one admits."""
        d, r = len(self.center), self.radius
        side = (2 * r + 1,) * (d - 1)
        head = np.indices(side).reshape(d - 1, math.prod(side)).T - r
        if self.norm == "l1":
            reach = r - np.abs(head).sum(axis=1)
        else:
            reach = np.full(len(head), r)
        keep = reach >= 0
        return head[keep], reach[keep]

    def site_array(self) -> np.ndarray:
        """The sites as an (n, d) int64 array in lexicographic order."""
        head, reach = self._rows()
        counts = 2 * reach + 1
        # head row j expands to the run of last offsets -reach[j]..reach[j]
        last = np.arange(counts.sum()) - np.repeat(
            np.cumsum(counts) - counts + reach, counts)
        offsets = np.column_stack([np.repeat(head, counts, axis=0), last])
        return offsets + np.asarray(self.center, dtype=np.int64)

    def sites(self) -> list[Site]:
        return list(zip(*self.site_array().T.tolist()))

    def site_count(self) -> int:
        return int((2 * self._rows()[1] + 1).sum())


def forward_neighbors(coords: np.ndarray) -> np.ndarray:
    """Entry (i, k) is the row of coords[i] + e_k in coords, or -1 when
    that site is absent.  The rows of coords must be distinct sites."""
    n, d = coords.shape
    rel = coords - coords.min(axis=0)
    # dense position lookup over the bounding box, one slot of padding
    # per axis for the +e_k shift
    pos = np.full(rel.max(axis=0) + 2, -1, dtype=np.int64)
    pos[tuple(rel.T)] = np.arange(n)
    out = np.empty((n, d), dtype=np.int64)
    for k in range(d):
        rel[:, k] += 1
        out[:, k] = pos[tuple(rel.T)]
        rel[:, k] -= 1
    return out


def is_elementary(vertices: Sequence[Site]) -> bool:
    """True when consecutive vertices differ by exactly one unit step."""
    return all(norm1(sub(b, a)) == 1 for a, b in zip(vertices, vertices[1:]))


class LatticePath(tuple):
    """An elementary path, stored as its vertex sequence."""

    def __new__(cls, vertices: Iterable[Sequence[int]]):
        verts = tuple(tuple(int(c) for c in v) for v in vertices)
        if not verts:
            raise ValueError("path needs at least one vertex")
        if not is_elementary(verts):
            raise ValueError("vertices must form an elementary path")
        return super().__new__(cls, verts)

    @property
    def start(self) -> Site:
        return self[0]

    @property
    def end(self) -> Site:
        return self[-1]


@dataclass(frozen=True)
class PathFamily:
    """The spread-out family of elementary paths from 0 to ``target``.

    chain_axes is the axis permutation (a_1, ..., a_d) realizing the nested
    coordinate subspaces span(e_{a_1}) c span(e_{a_1}, e_{a_2}) c ...; the
    last axis is transversal to the top hyperplane.
    """

    target: Site
    chain_axes: tuple[int, ...]
    paths: tuple[LatticePath, ...]
    indices: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.target)

    def hyperplane_axes(self, j: int) -> tuple[int, ...]:
        """Axes spanning the j-th chain subspace (1-based j)."""
        return self.chain_axes[:j]

    def to_json(self) -> str:
        return json.dumps({
            "target": list(self.target),
            "chain_axes": list(self.chain_axes),
            "indices": [list(ix) for ix in self.indices],
            "paths": [[list(v) for v in p] for p in self.paths],
        }, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "PathFamily":
        doc = json.loads(text)
        return PathFamily(
            target=tuple(doc["target"]),
            chain_axes=tuple(doc["chain_axes"]),
            paths=tuple(LatticePath(p) for p in doc["paths"]),
            indices=tuple(tuple(ix) for ix in doc["indices"]),
        )


def path_multiplicity(family: PathFamily, m: Sequence[int]) -> int:
    """Number of family paths whose vertex set contains m."""
    m = tuple(int(c) for c in m)
    return sum(1 for p in family.paths if m in set(p))


def default_chain(n: Site) -> tuple[int, ...]:
    """Identity axis order when admissible, else the lexicographically first
    admissible permutation.  Admissible means the transversal axis (last in
    the permutation) carries more than half the ell-1 mass of n, so the top
    hyperplane misses the half-ball around n."""
    d = len(n)
    if d == 1:
        return (0,)
    N = norm1(n)
    identity = tuple(range(d))
    if 2 * abs(n[d - 1]) > N:
        return identity
    from itertools import permutations

    for perm in permutations(range(d)):
        if 2 * abs(n[perm[-1]]) > N:
            return perm
    raise ValueError(
        f"no admissible hyperplane chain for n={n}: no axis carries more "
        "than half of |n|")


def chain_is_admissible(n: Site, chain: Sequence[int]) -> bool:
    d = len(n)
    if sorted(chain) != list(range(d)):
        return False
    if d == 1:
        return True
    return 2 * abs(n[chain[-1]]) > norm1(n)


def build_path_family(n: Sequence[int],
                      chain: Sequence[int] | None = None) -> PathFamily:
    """Construct the family of |n|^(d-1) elementary paths from 0 to n.

    The family realizes the spread-out combinatorics used by the pointwise
    domination bound: |n|^(d-1) paths inside the ball of radius 2|n|, with
    multiplicity decaying like (|n|/|n-m|)^(d-1) near n, prefix-structured
    multiplicity inside the chain subspaces, and multiplicity one
    elsewhere.  Exactness of those properties over d in {2,3}, |n| <= 8 is
    enforced by exhaustive enumeration in the test suite.

    Supported dimensions: 1, 2 and 3.  In dimension >= 4 the combination of
    cardinality |n|^(d-1) and unit multiplicity off the hyperplane cannot
    hold (the ell-1 spheres between the half-ball and the target are too
    small), so construction is refused.
    """
    from . import _pathfamily

    n = tuple(int(c) for c in n)
    d = len(n)
    if all(c == 0 for c in n):
        raise ValueError("target must be nonzero")
    if d > 3:
        raise ValueError(
            "path families are only constructible in dimensions 1..3; "
            f"got d={d}")
    if chain is None:
        chain = default_chain(n)
    else:
        chain = tuple(int(a) for a in chain)
        if sorted(chain) != list(range(d)):
            raise ValueError(f"chain {chain} is not an axis permutation")
        if not chain_is_admissible(n, chain):
            raise ValueError(
                f"chain {chain} is inadmissible for n={n}: its top "
                "hyperplane meets the half-ball around n")
    return _pathfamily.build(n, chain)


# --------------------------------------------------------------------------
# exhaustive property audit


@dataclass
class FamilyAudit:
    """Outcome of the full enumeration audit of one family."""

    target: Site
    cardinality_ok: bool
    containment_ok: bool
    near_constant: float          # max of count * (|n-m|/|n|)^(d-1) over P_n
    subspace_ok: bool             # count <= |n|^(d - j(m)) inside the chain
    off_multiplicity: int         # max count off hyperplane and half-ball
    start_end_ok: bool

    @property
    def exact_ok(self) -> bool:
        return (self.cardinality_ok and self.containment_ok
                and self.subspace_ok and self.off_multiplicity <= 1
                and self.start_end_ok)


def audit_family(family: PathFamily) -> FamilyAudit:
    """Check every family property by direct enumeration of all vertices."""
    n = family.target
    d = len(n)
    N = norm1(n)
    zero = (0,) * d

    counts: dict[Site, int] = {}
    containment_ok = True
    start_end_ok = True
    for p in family.paths:
        if p.start != zero or p.end != n:
            start_end_ok = False
        for v in set(p):
            counts[v] = counts.get(v, 0) + 1
            if norm1(v) > 2 * N:
                containment_ok = False

    cardinality_ok = (len(set(family.paths)) == len(family.paths)
                      and len(family.paths) == N ** (d - 1))

    chain_sets = []
    for j in range(1, d):
        axes = set(family.hyperplane_axes(j))
        chain_sets.append(axes)
    top = chain_sets[-1] if chain_sets else set()

    near_constant = 0.0
    subspace_ok = True
    off_mult = 0
    for m, cnt in counts.items():
        dist = norm1(sub(n, m))
        in_half_ball = 2 * dist <= N
        support = {k for k, c in enumerate(m) if c != 0}
        j_min = None
        for j, axes in enumerate(chain_sets, start=1):
            if support <= axes:
                j_min = j
                break
        if in_half_ball:
            if m != n:
                near_constant = max(near_constant,
                                    cnt * (dist / N) ** (d - 1))
        elif j_min is not None:
            if cnt > N ** (d - j_min):
                subspace_ok = False
        if not in_half_ball and not (support <= top):
            off_mult = max(off_mult, cnt)

    return FamilyAudit(
        target=n,
        cardinality_ok=cardinality_ok,
        containment_ok=containment_ok,
        near_constant=near_constant,
        subspace_ok=subspace_ok,
        off_multiplicity=off_mult,
        start_end_ok=start_end_ok,
    )


def enumerate_targets(d: int, max_norm: int) -> Iterator[Site]:
    """All nonzero sites of ell-1 norm at most max_norm, lexicographically."""
    rng = range(-max_norm, max_norm + 1)
    for site in product(rng, repeat=d):
        if site != (0,) * d and norm1(site) <= max_norm:
            yield site
