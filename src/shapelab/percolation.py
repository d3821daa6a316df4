"""The random semimetric: boxed shortest-path weights, geodesics, balls,
and the finite-site embedding that realizes distances as sup-norms of
additive difference tables.

The infimum over all lattice paths is approximated by computation inside
a finite box.  Boxed values only decrease as the box grows, so truncation
is auditable: refinement doubles the box radius and gives every value one
of three states.  A value is exact when it lies below the truncation
certificate's margin (``exact_margin``): with every edge weighing at least
the model's floor a > 0, a path that leaves the ell-1 box of radius R
around c from a source s has at least k = R + 1 - |s - c|_1 edges and a
computed weight of at least a*k*(1 - k*2**-52), so a boxed value below
that is the unboxed value, bit for bit.  A value is converged when it
moved by less than a tolerance since the previous round, and open
otherwise.  Refinement stops once no value is open, or at its radius cap.
Later rounds search only as far as the previous round's largest value,
since no value can rise.  A box graph refuses, before it builds any site,
a box of more than ``MAX_BOX_SITES`` sites, or one whose site index would
hold more than ``lattice.MAX_INDEX_SLOTS`` slots; a search refuses, before
it allocates, more than ``MAX_BOX_SITES`` nodes (sites times blocks).

A box graph holds the box's sites once, as the lexicographic (n, d) int64
array of ``BoxRegion.site_array``.  Sites map to rows through the lattice
module's ``SiteIndex``, and every reader (target profiles, geodesics,
balls, the embedding) works on rows of that array.  The graph's row
tables (the site index and the neighbour rows) are int32, since the
budget keeps every row and node id far below 2**31, and its weights are
hashed in chunks of exactly ``EDGE_CHUNK`` edges straight into the
float64 weight table, which is allocated first.  Each chunk's rows are
found from running per-row edge counts, and a search computes its
targets from the neighbour rows, so neither builds nor searches holds a
transient table the size of the box.

A box graph can also hold a stack of E environments over one box, for
statistics over many seeds.  The sites, their index and the neighbour
table are built once, each environment fills its own block of edge
weights, and one search from the source's row in every block returns an
(E, n) array equal, bit for bit, to E separate searches.  The site limit
counts the whole stack; the shape module sizes its stacks by
``shape.STACK_SITES``.  In the same way one search from k sources of a
one-environment graph returns the (k, n) array of k separate searches.

Every search is ``_search``, a bucketed label-correcting search over
those index tables.  Its weights are the least left folds of path
weights (see ``BoxGraph.distances_from``), the one fixed point that any
exact shortest-path search reaches, so they do not depend on the order in
which it relaxes edges.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ConvergenceError
from .environment import Environment
from .lattice import BoxRegion, LatticePath, Site, SiteIndex, norm1, sub


# The most sites a box graph builds, and the most nodes (sites times
# blocks) one search allocates.  The graph's own tables (int64 sites, the
# int32 site index and neighbour rows, float64 weights) take about 120
# bytes per site in d=3 and 72 in d=2, and building or searching adds no
# transient the size of the box.  Peaks of build / one search, in bytes
# per site (tracemalloc, Exponential, 2-core x86_64, numpy 2.4), and the
# ru_maxrss growth of both:
#   d=3, radius 48, 152193 sites: 148 / 144, +23 MB (151 B/site);
#   d=3, radius 72, 508225 sites: 136 / 140, +77 MB (152 B/site);
#   d=2, radius 700, 981401 sites: 84 / 85, +92 MB (94 B/site).
# So a graph at the limit takes about 0.15 GB in d=3 and 0.1 GB in d=2.
# The site index is a dense table over the box's bounding box, which
# outgrows an ell-1 ball in d >= 4, so a box whose index would hold more
# than lattice.MAX_INDEX_SLOTS slots (32 MB, eight per site of this limit)
# is refused too; in d <= 3 the site limit comes first.  The largest box
# that the shipped configs, the benchmark workloads and the test suite
# build holds 152193 sites (d=3, ell-1 radius 48).
MAX_BOX_SITES = 1_000_000

# A search relaxes a frontier of at most this many nodes whole, bucket or
# not: a pass costs some twenty numpy calls whatever it relaxes, so on
# small frontiers fewer, larger passes win.  On boxes of 181 to 152193
# sites (2-core x86_64, numpy 2.4) this halves the search time of the
# smallest boxes and leaves the largest unchanged.
WHOLE_FRONTIER = 512

# A box graph hashes its edge weights in chunks of this many edges (the
# last one shorter), straight into its weight table.  A chunk's transients
# take about 110 bytes per edge, some 2 MB at any box size (7 MB at 65536
# edges, over a third of the largest built box's tables), and a call of
# this size hashes no slower per edge than a larger one.  A box of at most
# this many edges makes one edge_weights call per environment.
EDGE_CHUNK = 16384

# per-value refinement states
EXACT, CONVERGED, OPEN = 0, 1, 2


@dataclass(frozen=True)
class DistanceResult:
    value: float
    box_radius_used: int
    converged: bool
    exact: bool = False


@dataclass(frozen=True)
class Geodesic:
    path: LatticePath
    total_weight: float


def _midpoint_box(m: Site, n: Site, radius: int) -> BoxRegion:
    center = tuple((a + b) // 2 for a, b in zip(m, n))
    return BoxRegion(center, radius, "l1")


def _search(nbr: np.ndarray, wt: np.ndarray, sources: np.ndarray,
            limit: float = math.inf, predecessors: bool = False):
    """Least path weights in B blocks of one graph: block b searches from
    row sources[b] with the weight table wt[b % E].

    nbr is the (n, 2d) neighbour-row table, a row's own row where it has
    no neighbour, and wt the (E, n, 2d) table of the matching edge
    weights, inf on those self-loops.  Node b*n + i is row i of block b.
    Returns the (B, n) weights, inf beyond limit, and with predecessors
    also the (B, n) predecessor rows, -9999 at the sources and at the
    sites beyond limit.

    A bucketed label-correcting search (delta-stepping, Meyer and Sanders
    2003) with the mean edge weight as bucket width: each pass relaxes
    every frontier node below the bucket's bound at once, or the whole
    frontier while it holds at most WHOLE_FRONTIER nodes, and puts the
    nodes it improved back on the frontier.  Weights at or below limit are
    final once the frontier's least weight passes limit.  A pass reads its
    targets from nbr, each node's block base plus its neighbour rows, so a
    search allocates no (n, 2d) table of its own."""
    n = len(nbr)
    blocks = len(sources)
    wt = wt.reshape(-1, nbr.shape[1])
    dist = np.full(blocks * n, np.inf)
    queued = np.zeros(blocks * n, dtype=bool)
    front = np.arange(blocks) * n + sources
    dist[front] = 0.0
    queued[front] = True
    pred = np.full(blocks * n, -9999) if predecessors else None
    # a mask, not a copy of the finite weights: the width only schedules
    # the passes
    finite = np.isfinite(wt)
    width = float(np.mean(wt, where=finite)) if finite.any() else 0.0
    width = width or 1.0
    del finite
    bound = -math.inf
    while front.size:
        here = dist[front]
        low = here.min()
        if low > limit:
            break
        if low >= bound:
            bound = low + width
        node = front
        if len(node) > WHOLE_FRONTIER:
            take = here < bound
            node, here = node[take], here[take]
        queued[node] = False
        row = node % n
        # node - row is the node's block base
        target = (node - row)[:, None] + nbr[row]
        # a stack's node indexes its own weight block, k sources share one
        cand = here[:, None] + wt[node % len(wt)]
        better = cand < dist[target]
        target, cand = target[better], cand[better]
        np.minimum.at(dist, target, cand)
        if predecessors:
            # every target was improved; of the candidates that set its
            # new weight the lowest row becomes its predecessor
            origin = np.broadcast_to(row[:, None], better.shape)[better]
            won = cand == dist[target]
            pred[target] = n
            np.minimum.at(pred, target[won], origin[won])
        queued[target] = True
        front = queued.nonzero()[0]
    dist = dist.reshape(blocks, n)
    beyond = dist > limit
    dist[beyond] = np.inf
    if not predecessors:
        return dist
    pred = pred.reshape(blocks, n)
    pred[beyond] = -9999
    return dist, pred


class BoxGraph:
    """Weighted nearest-neighbor graph on the sites of one box, for one
    environment or a stack of them.

    ``sites`` is the box's (n, d) int64 site array in lexicographic order;
    row i of every distance array belongs to sites[i], and ``rows`` maps
    points back to rows.  The graph is two tables over the rows: the
    (n, 2d) int32 neighbour rows, forward along each axis and then backward
    (a row's own row where the box ends), and the (E, n, 2d) float64
    weights of those edges (inf on the self-loops), one block per
    environment.  Both are allocated first; the weights are then hashed in
    site-major chunks of EDGE_CHUNK edges, one ``edge_weights`` call per
    environment and chunk (one for an edgeless box), and written straight
    into the table.  A chunk's rows come from the running count of edges
    per row, so no list of all the box's edges is built.  A stack
    of E environments shares the sites, their index and the neighbour
    table, and environment e fills weight block e."""

    def __init__(self, env: Environment | Sequence[Environment],
                 box: BoxRegion):
        self.stacked = not isinstance(env, Environment)
        self.envs = tuple(env) if self.stacked else (env,)
        if not self.envs:
            raise ValueError("a stack needs at least one environment")
        # any region with a site_array() can be searched; a BoxRegion is
        # counted first, so no site of an oversized graph is built: its
        # index table (which also bounds the cost of counting its sites),
        # then its sites
        if isinstance(box, BoxRegion):
            box.check_index()
            count = box.site_count() * len(self.envs)
            if count > MAX_BOX_SITES:
                what = ("box" if len(self.envs) == 1
                        else f"stack of {len(self.envs)} boxes")
                raise MemoryError(f"{what} holds {count} sites, above the "
                                  f"limit {MAX_BOX_SITES}")
        self.box = box
        self.sites = box.site_array()
        self._index = SiteIndex(self.sites)
        n, d = self.sites.shape
        forward = self._index.forward_neighbors()
        # the real edges: entry (i, k) for the edge from row i along +e_k
        edge = forward >= 0
        self._nbr = np.empty((n, 2 * d), dtype=np.int32)
        self._nbr[:] = np.arange(n, dtype=np.int32)[:, None]
        np.copyto(self._nbr[:, :d], forward, where=edge)
        del forward
        self._wt = np.full((len(self.envs), n, 2 * d), np.inf)
        nbr = self._nbr.reshape(-1)
        wt = self._wt.reshape(len(self.envs), -1)
        # the edges are numbered site-major; ends[i] counts those of rows
        # 0..i, so a chunk's rows are found without listing every edge
        ends = edge.sum(axis=1)
        np.cumsum(ends, out=ends)
        m = int(ends[-1])
        # an edgeless box still makes its one call per environment
        for start in range(0, max(m, 1), EDGE_CHUNK):
            stop = min(start + EDGE_CHUNK, m)
            first = int(np.searchsorted(ends, start, side="right"))
            last = int(np.searchsorted(ends, stop)) + 1
            skip = start - (int(ends[first - 1]) if first else 0)
            rows, axes = np.divmod(
                np.flatnonzero(edge[first:last])[skip:skip + stop - start], d)
            rows += first
            # each edge's two slots in the flattened (n, 2d) tables:
            # forward from its base row, backward from the row it reaches
            ahead = rows * (2 * d) + axes
            back = nbr[ahead] * (2 * d) + (axes + d)
            nbr[back] = rows
            bases = self.sites[rows]
            for w, env in zip(wt, self.envs):
                w[ahead] = w[back] = env.edge_weights(bases, axes)

    def rows(self, points) -> np.ndarray:
        """The row of each point of an (m, d) array, -1 outside the box."""
        return self._index.rows(points)

    def row(self, site: Site) -> int:
        """The row of one site; ValueError when it lies outside the box."""
        i = int(self.rows([site])[0])
        if i < 0:
            raise ValueError(f"site {tuple(site)} outside box {self.box}")
        return i

    def distances_from(self, source: Site | Sequence[Site],
                       limit: float = math.inf, predecessors: bool = False):
        """Exact shortest-path weights from source to every box site: an
        (n,) array, for a stack an (E, n) array whose row e is searched in
        environment e, and for a sequence of k sources (one environment
        only) a (k, n) array whose row i is searched from source i.  With a
        limit the search stops there: weights at or below it are the same
        bit for bit, and the sites beyond it read inf.

        Every row is the least left fold S_0 = 0, S_j = fl(S_{j-1} + w_j)
        over the box paths from its source (see exact_margin), whatever
        order the search relaxes the edges in.  Each weight the search
        holds is the fold of some path, so never below that least fold; and
        when no edge relaxes any more, a weight above it is impossible:
        along a least path each site's weight is at most the fold of the
        path's prefix, by induction, since float addition rounds
        monotonically and fl(x + w) >= x for w >= 0.  So a stack's rows and
        a multi-source call's rows equal separate searches bit for bit, and
        so does any exact search of the same graph.

        With predecessors (one environment and one source) the search
        tree's predecessor rows come back too, as (weights, predecessors)."""
        sources = np.asarray(source)
        many = sources.ndim == 2
        if many and self.stacked:
            raise ValueError("several sources need a one-environment graph")
        if (self.stacked or many) and predecessors:
            raise ValueError("predecessors need one environment and one "
                             "source")
        if many:
            rows = self.rows(sources)
            if (rows < 0).any():
                raise ValueError(f"sources outside box {self.box}")
        else:
            rows = np.full(len(self.envs), self.row(source))
        nodes = len(rows) * len(self.sites)
        if nodes > MAX_BOX_SITES:
            raise MemoryError(f"search of {len(rows)} blocks holds {nodes} "
                              f"sites, above the limit {MAX_BOX_SITES}")
        out = _search(self._nbr, self._wt, rows, limit, predecessors)
        if self.stacked or many:
            return out
        return tuple(a[0] for a in out) if predecessors else out[0]


def distance(env: Environment, m: Site, n: Site, box_radius: int,
             box: BoxRegion | None = None) -> DistanceResult:
    """Exact minimum path weight between m and n among paths confined to
    the box (canonically, the ell-1 ball of the given radius around the
    floor midpoint of m and n).

    The search always runs from the lexicographically smaller endpoint, so
    swapping m and n reproduces the identical arithmetic and symmetry
    holds bit for bit."""
    m, n = tuple(m), tuple(n)
    if box is None:
        box = _midpoint_box(m, n, box_radius)
    if not (box.contains(m) and box.contains(n)):
        raise ValueError("query endpoints must lie inside the box")
    src, dst = (m, n) if m <= n else (n, m)
    g = BoxGraph(env, box)
    value = g.distances_from(src)[g.row(dst)]
    if not math.isfinite(value):
        raise RuntimeError("box disconnected; should be impossible for "
                           "ball-shaped regions")
    return DistanceResult(value=float(value), box_radius_used=box.radius,
                          converged=False)


def exact_margin(floor: float, steps: int) -> float:
    """The truncation certificate: boxed values strictly below this float
    equal the unboxed values bit for bit, for searches from a source that
    lies ``steps`` = R + 1 - |s - c|_1 steps from the outside of the ell-1
    box of radius R around c, when no edge weighs less than ``floor``.

    Derivation.  Let a = floor and k = steps.  Each step changes |x - c|_1
    by one, so a path from s that leaves the box has at least k edges
    before its first site outside.  The search weighs a path as the left
    fold S_0 = 0, S_j = fl(S_{j-1} + w_j), and the unboxed value is the
    least fold over all lattice paths.  Rounding to nearest is monotone
    and fl(x + w) >= x for w >= 0, so the fold of a leaving path is at
    least T_k, the fold of k copies of a.  With u = 2**-53, T_1 = a
    exactly and T_j >= (T_{j-1} + a)(1 - u) (addition keeps that relative
    error even for subnormal sums), so by induction
    T_k >= k*a*(1 - u)**(k-1) >= k*a*(1 - (k-1)*u) >= a*k*(1 - k*2**-52).
    A boxed value V below that bound is the unboxed value: a path of
    smaller fold would have to leave the box, and every leaving path
    weighs at least the bound.  The bound is evaluated exactly, as a ratio
    of integers, and rounded down to a float, so its own rounding cannot
    raise it; the margin is 0, and certifies nothing, unless a > 0 and
    1 <= k < 2**52."""
    if floor <= 0 or not 1 <= steps < 2 ** 52:
        return 0.0
    p, q = floor.as_integer_ratio()
    num, den = p * steps * (2 ** 52 - steps), q * 2 ** 52
    try:
        margin = num / den  # integer true division rounds correctly
    except OverflowError:
        return sys.float_info.max
    mp, mq = margin.as_integer_ratio()
    return margin if mp * den <= num * mq else math.nextafter(margin, 0)


def refine(evaluate, radius: int, cap: int, tol: float, floor: float = 0.0,
           depth: int = 0):
    """Refine boxed values by doubling the radius of an ell-1 box, starting
    from radius and never passing cap.  Returns (values, radius_used,
    states): the last round's values, its radius and one state per value.

    ``evaluate(radius, prev)`` computes the values in the box of that
    radius; prev is None in the first round and the previous round's
    values after it.  Boxed values only decrease as the box grows, so a
    later round needs no search beyond max(prev).

    A value is EXACT when it lies strictly below the certificate margin
    ``exact_margin(floor, radius + 1 - depth)``, for values searched from
    a source at ell-1 distance depth from the box center in a field whose
    weights are at least floor (with the default floor 0 nothing is
    exact).  It is CONVERGED when prev - value < tol, and OPEN otherwise;
    first-round values are exact or open.  Refinement stops as soon as no
    value is open."""
    def states(values, prev, radius):
        out = np.full(np.shape(values), OPEN, dtype=np.int8)
        if prev is not None:
            out[prev - values < tol] = CONVERGED
        out[values < exact_margin(floor, radius + 1 - depth)] = EXACT
        return out

    values = evaluate(radius, None)
    state = states(values, None, radius)
    while (state == OPEN).any() and 2 * radius <= cap:
        radius *= 2
        prev, values = values, evaluate(radius, values)
        state = states(values, prev, radius)
    return values, radius, state


def distance_converged(env: Environment, m: Site, n: Site, tol: float = 1e-9,
                       radius_cap: int | None = None) -> DistanceResult:
    """Refine the boxed distance by doubling the radius until the value is
    certified exact or two successive values agree within tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    m, n = tuple(m), tuple(n)
    gap = norm1(sub(n, m))
    if gap == 0:
        return DistanceResult(0.0, 0, True, True)
    if radius_cap is None:
        radius_cap = 32 * gap
    # distance() searches from the lexicographically smaller endpoint
    depth = norm1(sub(min(m, n), _midpoint_box(m, n, 0).center))
    value, radius, state = refine(
        lambda r, prev: np.array([distance(env, m, n, r).value]),
        2 * gap, radius_cap, tol, env.model.floor(), depth)
    return DistanceResult(float(value[0]), radius, bool(state[0] != OPEN),
                          bool(state[0] == EXACT))


def geodesic(env: Environment, m: Site, n: Site, box_radius: int,
             box: BoxRegion | None = None) -> Geodesic:
    """A witness path achieving the boxed distance.  Among equally short
    paths the one returned is the branch of the search's predecessor tree
    (``_search``: a site's predecessor is the lowest row among the
    candidates that last lowered its weight), which is deterministic for a
    given box but follows no lexicographic rule.  Every step satisfies
    dist[u] + w == dist[v] exactly, so the weight accumulated from the
    lexicographically smaller endpoint matches distance() exactly; the
    returned path runs from m to n."""
    m, n = tuple(m), tuple(n)
    if box is None:
        box = _midpoint_box(m, n, box_radius)
    if not (box.contains(m) and box.contains(n)):
        raise ValueError("query endpoints must lie inside the box")
    src, dst = (m, n) if m <= n else (n, m)
    g = BoxGraph(env, box)
    s, t = g.row(src), g.row(dst)
    dist, pred = g.distances_from(src, predecessors=True)
    if not math.isfinite(dist[t]):
        raise RuntimeError("target unreachable inside box")
    chain = [t]
    while chain[-1] != s:
        chain.append(pred[chain[-1]])
    verts = g.sites[chain].tolist()
    if tuple(verts[0]) != m:
        verts.reverse()
    return Geodesic(path=LatticePath(verts), total_weight=float(dist[t]))


def ball(env: Environment, center: Site, t: float, box_radius: int) -> list[Site]:
    """All box sites within semimetric distance t of the center, sorted."""
    if t < 0:
        raise ValueError("radius t must be nonnegative")
    g = BoxGraph(env, BoxRegion(tuple(center), box_radius, "l1"))
    # the site array is lexicographic, so the selection comes out sorted
    inside = g.sites[g.distances_from(center) <= t]
    return list(zip(*inside.T.tolist()))


def sites_to_csv(sites: list[Site]) -> str:
    """CSV text for site lists (balls, geodesic vertex sequences)."""
    if not sites:
        return ""
    d = len(sites[0])
    lines = [",".join(f"x_{k}" for k in range(d))]
    lines += [",".join(str(c) for c in s) for s in sites]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# structure embedding on finite site sets


@dataclass(frozen=True)
class StructureEmbedding:
    """Distances on a finite site set realized as sup-norms of the
    difference tables s(y,y') = rho(y, .) - rho(., y')."""

    sites: tuple[Site, ...]
    dist: np.ndarray  # symmetric |Y| x |Y| matrix
    box_radius_used: int

    def vector(self, i: int, j: int) -> np.ndarray:
        """The table y'' -> rho(y_i, y'') - rho(y'', y_j)."""
        return self.dist[i, :] - self.dist[:, j]

    def sup_norm(self, i: int, j: int) -> float:
        return float(np.max(np.abs(self.vector(i, j))))

    def to_json(self) -> str:
        return json.dumps({
            "sites": [list(s) for s in self.sites],
            "dist": self.dist.tolist(),
            "box_radius_used": self.box_radius_used,
        }, separators=(",", ":"))


# structure_embed's default convergence tolerance
EMBED_TOL = 1e-9


def structure_embed(env: Environment, sites: list[Site],
                    tol: float = EMBED_TOL,
                    radius_cap: int | None = None) -> StructureEmbedding:
    """Pairwise converged distances on a common box, packaged as the
    embedding tables.  Raises ConvergenceError if the refinement cap is hit
    before all pairwise values stabilize."""
    sites = [tuple(s) for s in sites]
    if len(sites) < 1:
        raise ValueError("need at least one site")
    if len(set(sites)) != len(sites):
        raise ValueError("sites must be distinct")
    lo = tuple(min(s[k] for s in sites) for k in range(env.dimension))
    hi = tuple(max(s[k] for s in sites) for k in range(env.dimension))
    center = tuple((a + b) // 2 for a, b in zip(lo, hi))
    spread = max(1, max(norm1(sub(s, center)) for s in sites))
    if radius_cap is None:
        radius_cap = 32 * spread

    points = np.asarray(sites, dtype=np.int64)
    # lex_le[i, j]: sites[i] <= sites[j] as tuples (the sites are distinct,
    # so comparing lexicographic ranks is the same)
    rank = np.lexsort(points.T[::-1]).argsort()
    lex_le = rank[:, None] <= rank[None, :]

    def all_pairs(r: int) -> np.ndarray:
        g = BoxGraph(env, BoxRegion(center, r, "l1"))
        # out[i, j] = rho(sites[i], sites[j]) searched from sites[i]
        out = g.distances_from(points)[:, g.rows(points)]
        # keep the value searched from the lexicographically smaller
        # endpoint, so the matrix is symmetric bit for bit
        return np.where(lex_le, out, out.T)

    # the tolerance test only (no floor), with unlimited searches: the
    # matrix mixes values searched from either end of a pair, so its rows
    # are not the values of any one search
    dist, radius, state = refine(lambda r, prev: all_pairs(r), 2 * spread,
                                 radius_cap, tol)
    if (state == OPEN).any():
        raise ConvergenceError(
            f"pairwise distances did not stabilize within radius cap "
            f"{radius_cap}")
    return StructureEmbedding(sites=tuple(sites), dist=dist,
                              box_radius_used=radius)
