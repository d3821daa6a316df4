"""Integer-lattice geometry: sites, boxes, elementary paths, and the
combinatorial family of spread-out paths from the origin to a target site.

A single site is a tuple of ints.  Bulk site sets are int64 arrays of
shape (n, d): box sites, and the vertices of a whole path family stored
path after path with per-path offsets, which the family audit reads
directly; ``PathFamily.paths`` is a tuple view built only on request.
A box's sites are lexicographic and fall into runs, blocks of rows that
share their first d-1 coordinates and step by one in the last; the box
graph holds them as runs alone (see ``_runs``).
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
from typing import Iterator, Sequence

import numpy as np

Site = tuple[int, ...]


def norm1(s: Sequence[int]) -> int:
    return sum(abs(c) for c in s)


def sub(a: Site, b: Site) -> Site:
    return tuple(x - y for x, y in zip(a, b))


# The one memory budget: every allocation of a box's size (a box's rows
# and sites, a box graph, a search, an edge sample, the bound's ball), and
# of a Kingman decomposition's length or a shape profile's n_max, first
# calls reserve with the bytes it is about to hold, worked out from its
# dtypes and element counts, and is refused above this many.  A box graph
# holds int32 neighbour rows and float64 forward weights, 8d + 8d bytes
# per site and environment, and its runs, 8(d + 2) bytes per run; its
# build adds one chunk of hashing transients (and, before the tables, the
# sites), and a search 9 bytes per node and the transients of its passes.
# Peaks of build / one search, in bytes per site (tracemalloc,
# Exponential, 2-core x86_64, numpy 2.4), and the ru_maxrss growth of
# both:
#   d=3, radius 48, 152193 sites: 70 / 76, +12 MB (81 B/site);
#   d=3, radius 72, 508225 sites: 56 / 70, +37 MB (73 B/site);
#   d=2, radius 700, 981401 sites: 35 / 42, +42 MB (43 B/site);
#   d=2, radius 1000, 2002001 sites: 33 / 42, +84 MB (42 B/site),
#   which reserve 68 MB (build) and 214 MB (search).
# Of the work that the former limits (10**6 sites, 8 * 10**6 index slots)
# admitted, the d=3 bound ball of radius 90 reserves the most, 237 MB, and
# of graphs the search of the d=5 ell-inf radius-7 box, 213 MB.
MEMORY_BUDGET = 256 * 2 ** 20


def reserve(nbytes: int, what: str, power: tuple[int, int] = (1, 0)) -> None:
    """Raises MemoryError, before anything is allocated, when holding
    nbytes * base**exp bytes for what would pass MEMORY_BUDGET, where
    (base, exp) = power."""
    base, exp = power
    # a vast power, far above the budget, is refused from its logarithm
    # before it is computed: 3**(10**7) alone takes seconds
    log = math.log10(nbytes) + exp * math.log10(base) if nbytes else 0.0
    exact = log < 19
    if exact:
        nbytes *= base ** exp
        if nbytes <= MEMORY_BUDGET:
            return
        log = math.log10(nbytes)
    # a count past int's decimal limit is named by its power of ten
    size = (str(nbytes) if exact and nbytes < 10 ** 18
            else f"about 10^{log:.0f}")
    raise MemoryError(f"{what} needs {size} bytes, above the memory "
                      f"budget of {MEMORY_BUDGET} bytes")


def reserve_count(d: int, radius: int) -> int:
    """Reserves counting the sites of a box of dimension d and this radius
    (its dense head and reach: d int64 columns per head row, and their
    kept copy) and returns its head rows, (2 radius + 1)**(d - 1)."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    side = 2 * radius + 1
    reserve(16 * d, f"counting a d={d} box of radius {radius}", (side, d - 1))
    return side ** (d - 1)


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
        cube = reserve_count(d, r)
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
        # head row j expands to the run of last coordinates
        # center - reach[j]..center + reach[j]
        return run_sites(head + center[:-1], counts,
                         np.cumsum(counts) - counts + reach - center[-1])

    def sites(self) -> list[Site]:
        """The sites as tuples, in the order of ``site_array``."""
        return list(zip(*self.site_array().T.tolist()))

    def site_count(self) -> int:
        return self._rows()[2]

    def counts(self) -> tuple[int, int]:
        """The runs of ``site_array`` (its distinct first d-1 coordinates)
        and its sites, from one count."""
        _, reach, n = self._rows()
        return len(reach), n


def run_sites(head: np.ndarray, counts: np.ndarray,
              base: np.ndarray) -> np.ndarray:
    """The (n, d) int64 sites of runs: run r is counts[r] rows that share
    the head (first d-1 coordinates) head[r], and row i of it has last
    coordinate i - base[r].  Filled a column at a time, so no transient is
    the size of the sites."""
    n = int(counts.sum())
    out = np.empty((n, head.shape[1] + 1), dtype=np.int64)
    for k in range(head.shape[1]):
        out[:, k] = np.repeat(head[:, k], counts)
    last = out[:, -1]
    last[:] = np.repeat(base, counts)
    np.subtract(np.arange(n), last, out=last)
    return out


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
    def paths(self) -> tuple[tuple[Site, ...], ...]:
        """Each path as a tuple of its vertex tuples."""
        rows = self.vertices.tolist()
        return tuple(tuple(map(tuple, rows[a:b])) for a, b in self._bounds())

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
    reserve_count(d, max_norm)  # before the d-tuple of the center
    sites = BoxRegion((0,) * d, max_norm, "l1").site_array()
    return [tuple(s) for s in sites[sites.any(axis=1)].tolist()]
