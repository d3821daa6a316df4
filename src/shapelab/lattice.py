"""Integer-lattice geometry: sites, boxes, elementary paths, and the
combinatorial family of spread-out paths from the origin to a target site.

A single site is a tuple of ints.  Bulk site sets are int64 arrays of
shape (n, d): box sites, and the vertices of a whole path family stored
path after path with per-path offsets, which the family audit reads
directly; ``PathFamily.paths`` is a tuple view built only on request.
``SiteIndex`` is the one site-to-row lookup: a dense int32 table over the
bounding box of a site array, which gives the box graph its edges and its
row queries.
Every allocation of a box's size in the package first calls ``reserve``
with its bytes, which refuses anything above the one ``MEMORY_BUDGET``.
The ell-1 norm is the canonical lattice norm throughout (it is the word
metric of the standard generators).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Iterable, Iterator, Sequence

import numpy as np

Site = tuple[int, ...]


def norm1(s: Sequence[int]) -> int:
    return sum(abs(c) for c in s)


def sub(a: Site, b: Site) -> Site:
    return tuple(x - y for x, y in zip(a, b))


# The one memory budget: every allocation of a box's size (a box's rows
# and sites, a box graph, a search, the bound's ball) first calls reserve
# with the bytes it is about to hold, worked out from its dtypes and
# element counts, and is refused above this many.  A box graph holds int64
# sites, int32 neighbour rows and float64 weights, 8d + 8d + 16d bytes per
# site and environment, and its build adds a bool edge mask and an int64
# edge count per site; its site index takes 4 bytes per slot of the box's
# bounding box, which outgrows an ell-1 ball in d >= 4.  Peaks of build /
# one search, in bytes per site (tracemalloc, Exponential, 2-core x86_64,
# numpy 2.4), and the ru_maxrss growth of both:
#   d=3, radius 48, 152193 sites: 148 / 144, +23 MB (154 B/site);
#   d=3, radius 72, 508225 sites: 136 / 140, +72 MB (141 B/site);
#   d=2, radius 700, 981401 sites: 84 / 85, +84 MB (86 B/site);
#   d=2, radius 1000, 2002001 sites: 83 / 85, +171 MB (85 B/site),
#   which reserve 167 MB (build) and 193 MB (search).
# Of the work that the former limits (10**6 sites, 8 * 10**6 index slots)
# admitted, the d=3 bound ball of radius 90 reserves the most, 237 MB, and
# of graphs the predecessor search of the d=5 ell-inf radius-7 box, 161 MB.
MEMORY_BUDGET = 256 * 2 ** 20


def reserve(nbytes: int, what: str) -> None:
    """Raises MemoryError, before anything is allocated, when holding
    nbytes bytes for what would pass MEMORY_BUDGET."""
    if nbytes > MEMORY_BUDGET:
        # a count past int's decimal limit is named by its power of ten
        size = (str(nbytes) if nbytes < 10 ** 18
                else f"about 10^{math.log10(nbytes):.0f}")
        raise MemoryError(f"{what} needs {size} bytes, above the memory "
                          f"budget of {MEMORY_BUDGET} bytes")


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

    def _rows(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The offsets of the first d-1 coordinates, lexicographic, with
        the largest last-coordinate offset each one admits, and the count
        of sites."""
        d, r = len(self.center), self.radius
        side = 2 * r + 1
        cube = side ** (d - 1)
        # the dense head and reach (d int64 columns) and their kept copy
        reserve(16 * d * cube, f"counting a d={d} box of radius {r}")
        head = np.empty((cube, d - 1), dtype=np.int64)
        reach = np.full(cube, r)
        # column k runs through the offsets in runs of side**(d-2-k) equal
        # rows; filled in place, a column at a time, so any d works.  The
        # offsets (side <= cube entries) exist only when a column does, so
        # d = 1 allocates nothing of the radius's size
        for k in range(d - 1):
            offsets = np.arange(-r, r + 1)[:, None]
            # a 1-D array, strided or not, reshapes to a view
            runs = (-1, side, side ** (d - 2 - k))
            head[:, k].reshape(runs)[:] = offsets
            if self.norm == "l1":
                reach.reshape(runs)[:] -= np.abs(offsets)
        keep = reach >= 0
        reach = reach[keep]
        # in Python ints: 2 * reach + 1 overflows int64 from 2**62 on
        return head[keep], reach, len(reach) + 2 * int(reach.sum())

    def site_array(self) -> np.ndarray:
        """The sites as an (n, d) int64 array in lexicographic order."""
        head, reach, n = self._rows()
        d = len(self.center)
        # the sites and one column's transient
        reserve(8 * (d + 1) * n, f"the {n} sites of a box")
        counts = 2 * reach + 1
        center = np.asarray(self.center, dtype=np.int64)
        out = np.empty((n, d), dtype=np.int64)
        # filled a column at a time, so no transient is the size of out
        for k in range(d - 1):
            out[:, k] = np.repeat(head[:, k] + center[k], counts)
        # head row j expands to the run of last coordinates
        # center - reach[j]..center + reach[j]
        last = out[:, -1]
        last[:] = np.repeat(np.cumsum(counts) - counts + reach - center[-1],
                            counts)
        np.subtract(np.arange(len(out)), last, out=last)
        return out

    def sites(self) -> list[Site]:
        """The sites as tuples, in the order of ``site_array``."""
        return list(zip(*self.site_array().T.tolist()))

    def site_count(self) -> int:
        return self._rows()[2]

    def index_slots(self) -> int:
        """The slots of the ``SiteIndex`` table over this box's sites,
        counted without building them: both norms reach radius r along
        every axis, so the table spans 2r + 1 points per axis plus its
        one slot of padding."""
        return (2 * self.radius + 2) ** len(self.center)


class SiteIndex:
    """Row lookup for distinct lattice sites held as an (n, d) int64 array.

    A dense int32 table over the sites' bounding box holds, per lattice
    point, the row of that point in ``sites`` or -1; callers bound the
    sites, so rows fit.  It has one slot of padding on the high side of
    every axis, so the +e_k shift of a site never leaves it."""

    def __init__(self, sites: np.ndarray):
        self.sites = sites
        self._low = sites.min(axis=0)
        self._table = np.full(sites.max(axis=0) - self._low + 2, -1,
                              dtype=np.int32)
        # the step of +e_k in the flattened table
        self._step = np.array(self._table.strides) // self._table.itemsize
        self._table.reshape(-1)[self._keys()] = np.arange(len(sites),
                                                          dtype=np.int32)

    def _keys(self) -> np.ndarray:
        """Each site's position in the flattened table, with no transient
        the size of the sites."""
        keys = self.sites @ self._step
        keys -= self._low @ self._step
        return keys

    def rows(self, points) -> np.ndarray:
        """The row of each point of an (m, d) array, or -1 for a point that
        is not a site.  Points off the table are masked before the read:
        numpy takes a negative offset as an index from the far end."""
        points = np.asarray(points, dtype=np.int64)
        if points.ndim != 2 or points.shape[1] != self.sites.shape[1]:
            raise ValueError("points must be (m, d)")
        rel = points - self._low
        inside = np.all((rel >= 0) & (rel < self._table.shape), axis=1)
        out = np.full(len(rel), -1, dtype=np.int64)
        out[inside] = self._table[tuple(rel[inside].T)]
        return out

    def forward_neighbors(self) -> np.ndarray:
        """Entry (i, k) is the int32 row of sites[i] + e_k, or -1 when
        that point is not a site."""
        keys, flat = self._keys(), self._table.reshape(-1)
        out = np.empty(self.sites.shape, dtype=np.int32)
        for k, step in enumerate(self._step):
            out[:, k] = flat[keys + step]
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


@dataclass(frozen=True, eq=False)
class PathFamily:
    """The spread-out family of elementary paths from 0 to ``target``.

    The paths are stored as one (V, d) int64 array of their vertices, path
    after path: path k is ``vertices[offsets[k]:offsets[k + 1]]``.  The
    tuple view ``paths`` is built on first use only.

    chain_axes is the axis permutation (a_1, ..., a_d) realizing the nested
    coordinate subspaces span(e_{a_1}) c span(e_{a_1}, e_{a_2}) c ...; the
    last axis is transversal to the top hyperplane.
    """

    target: Site
    chain_axes: tuple[int, ...]
    vertices: np.ndarray
    offsets: np.ndarray
    indices: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=np.int64)
        offsets = np.asarray(self.offsets, dtype=np.int64)
        if verts.ndim != 2 or verts.shape[1] != len(self.target):
            raise ValueError("vertices must be a (V, d) array of sites")
        if (offsets.ndim != 1 or len(offsets) == 0 or offsets[0] != 0
                or offsets[-1] != len(verts) or np.any(np.diff(offsets) < 1)):
            raise ValueError("every path needs at least one vertex")
        step = np.abs(np.diff(verts, axis=0)).sum(axis=1) == 1
        step[offsets[1:-1] - 1] = True  # no step joins a path to the next
        if not step.all():
            raise ValueError("vertices must form elementary paths")
        verts.setflags(write=False)
        offsets.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "offsets", offsets)

    def __eq__(self, other):
        if not isinstance(other, PathFamily):
            return NotImplemented
        return (self.target == other.target
                and self.chain_axes == other.chain_axes
                and self.indices == other.indices
                and np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.vertices, other.vertices))

    @property
    def dimension(self) -> int:
        return len(self.target)

    @property
    def path_count(self) -> int:
        return len(self.offsets) - 1

    def path_ids(self) -> np.ndarray:
        """The index of the path each vertex row belongs to."""
        return np.repeat(np.arange(self.path_count), np.diff(self.offsets))

    def _bounds(self) -> Iterator[tuple[int, int]]:
        off = self.offsets.tolist()
        return zip(off, off[1:])

    @cached_property
    def paths(self) -> tuple[LatticePath, ...]:
        rows = self.vertices.tolist()
        return tuple(LatticePath(rows[a:b]) for a, b in self._bounds())

    def to_json(self) -> str:
        rows = self.vertices.tolist()
        return json.dumps({
            "target": list(self.target),
            "chain_axes": list(self.chain_axes),
            "indices": [list(ix) for ix in self.indices],
            "paths": [rows[a:b] for a, b in self._bounds()],
        }, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "PathFamily":
        doc = json.loads(text)
        target = tuple(doc["target"])
        flat = [v for p in doc["paths"] for v in p]
        return PathFamily(
            target=target,
            chain_axes=tuple(doc["chain_axes"]),
            vertices=np.array(flat, dtype=np.int64).reshape(len(flat),
                                                            len(target)),
            offsets=np.cumsum([0] + [len(p) for p in doc["paths"]]),
            indices=tuple(tuple(ix) for ix in doc["indices"]),
        )


def row_keys(rows: np.ndarray) -> np.ndarray:
    """Int64 keys of the rows of an integer array, equal exactly for equal
    rows: each row's position in the rows' bounding box (widened to hold
    the origin).  Raises ValueError when the box has more than 2**63
    positions."""
    lo = rows.min(axis=0, initial=0)
    span = rows.max(axis=0, initial=0) - lo + 1
    return np.ravel_multi_index(tuple((rows - lo).T), tuple(span))


def path_multiplicity(family: PathFamily, m: Sequence[int]) -> int:
    """Number of family paths whose vertex set contains m."""
    hit = np.all(family.vertices == np.asarray(m, dtype=np.int64), axis=1)
    return int(np.unique(family.path_ids()[hit]).size)


def default_chain(n: Site) -> tuple[int, ...]:
    """The lexicographically first admissible axis order, which is the
    identity when that is admissible (see ``chain_is_admissible``)."""
    for perm in permutations(range(len(n))):
        if chain_is_admissible(n, perm):
            return perm
    raise ValueError(
        f"no admissible hyperplane chain for n={n}: no axis carries more "
        "than half of |n|")


def chain_is_admissible(n: Site, chain: Sequence[int]) -> bool:
    """Admissible means the transversal axis (last in the chain) carries
    more than half the ell-1 mass of n, so the top hyperplane misses the
    half-ball around n; in d=1 every chain is."""
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


def _run_starts(a: np.ndarray) -> np.ndarray:
    """True where a run of equal values of a starts."""
    out = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=out[1:])
    return out


def audit_family(family: PathFamily) -> FamilyAudit:
    """Check every family property by direct enumeration of all vertices."""
    n = family.target
    d = len(n)
    N = norm1(n)
    verts, offsets = family.vertices, family.offsets
    paths = family.path_count

    start_end_ok = bool(np.all(verts[offsets[:-1]] == 0)
                        and np.all(verts[offsets[1:] - 1] == n))
    containment_ok = bool(np.abs(verts).sum(axis=1).max(initial=0) <= 2 * N)
    # one key per vertex row and its path, site-major: the path id is the
    # last, fastest column, so pair // paths is the row's site key
    pair = row_keys(np.column_stack([verts, family.path_ids()]))
    keys = pair // paths
    distinct = len({keys[a:b].tobytes() for a, b in family._bounds()})
    cardinality_ok = distinct == paths and paths == N ** (d - 1)

    # sorted, each site is one run of keys, and each path that visits it
    # starts a new pair within the run: cnt counts paths per site
    order = np.argsort(pair)
    pair = pair[order]
    starts = np.flatnonzero(_run_starts(pair // paths))
    cnt = np.add.reduceat(_run_starts(pair), starts)
    m = verts[order[starts]]

    dist = np.abs(m - np.asarray(n)).sum(axis=1)
    in_half_ball = 2 * dist <= N
    # need: the least j whose chain subspace span(e_{a_1}..e_{a_j}) holds
    # m's support (0 for m = 0); the subspaces are j = 1..d-1
    rank = np.empty(d, dtype=np.int64)
    rank[list(family.chain_axes)] = np.arange(1, d + 1)
    need = np.where(m != 0, rank, 0).max(axis=1, initial=0)
    j_min = np.maximum(need, 1)

    near = in_half_ball & (dist > 0)
    # (k/N)**(d-1) for k = 1..N/2 with Python's float power, as in the
    # scalar definition, so near_constant matches it bit for bit
    scale = np.array([(k / N) ** (d - 1) for k in range(1, N // 2 + 1)])
    near_constant = float(np.max(cnt[near] * scale[dist[near] - 1],
                                 initial=0.0))
    chain = ~in_half_ball & (j_min <= d - 1)
    subspace_ok = bool(np.all(cnt[chain] <= N ** (d - j_min[chain])))
    off_mult = int(cnt[~in_half_ball & (need > d - 1)].max(initial=0))

    return FamilyAudit(
        target=n,
        cardinality_ok=cardinality_ok,
        containment_ok=containment_ok,
        near_constant=near_constant,
        subspace_ok=subspace_ok,
        off_multiplicity=off_mult,
        start_end_ok=start_end_ok,
    )


def enumerate_targets(d: int, max_norm: int) -> list[Site]:
    """All nonzero sites of ell-1 norm at most max_norm, lexicographically:
    the sites of that ell-1 box around the origin, which is reserved
    against the memory budget before it is built."""
    sites = BoxRegion((0,) * d, max_norm, "l1").site_array()
    return [tuple(s) for s in sites[sites.any(axis=1)].tolist()]
