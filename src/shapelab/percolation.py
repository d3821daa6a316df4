"""The random semimetric: boxed shortest-path weights and the finite-site
embedding that realizes distances as sup-norms of additive difference
tables.

The infimum over all lattice paths is approximated by computation inside
a finite box.  Boxed values only decrease as the box grows, so truncation
is auditable: refinement doubles the box radius and gives every value one
of three states.  A value is exact when its search's truncation
certificate (``BoxGraph.certified``), which every model has, shows that
no path leaving the box and coming back weighs less: then it is the
unboxed value, bit for bit.  A value is converged when it
moved by less than a tolerance since the previous round, and open
otherwise.  A row of values stops refining once none of them is open, or
at the radius cap.  Later rounds search only as far as the previous
round's largest value, since no value can rise.  A box graph reserves the
bytes of its tables (see ``lattice.reserve``) before it builds any site,
and a search the bytes of its graph, its per-node arrays and its passes'
transients before it allocates, so either is refused above
``lattice.MEMORY_BUDGET``.

A box graph numbers the box's sites in lexicographic order, the rows of
``BoxRegion.site_array``, which it reads once and keeps only as runs
(see ``_runs``); points map to rows by binary search over the runs,
``sites`` rebuilds the site array on request, and every reader (target
profiles and the embedding) works on rows.  Besides the
runs the graph holds two tables: the int32 neighbour rows, since the
budget keeps every row and node id far below 2**31, and the float64
forward edge weights, one per edge, which a search also reads for the
edge's backward direction.  Both are allocated first, and the weights
are hashed in chunks of whole rows, at most ``EDGE_CHUNK`` edges each,
straight into their table.  A chunk's edges and their neighbours are
found from one row interval and offset per run and axis, and a search
computes its targets from the neighbour rows, so neither builds nor
searches holds a transient table the size of the box.

Every box graph holds a stack of E environments over one box, and one
environment is the stack [env].  The runs and the neighbour table are
built once, each environment fills its own block of edge weights, and
every search returns a 2-D array: one search from the source's row in
every block returns an (E, n) array equal, bit for bit, to E separate
searches, and one search from k sources of a one-environment graph the
(k, n) array of k separate searches.  The budget counts the whole stack;
the shape module sizes its stacks by ``shape.STACK_SITES``.

Every search is ``_search``, a bucketed label-correcting search over
those two tables, and it returns weights only.  Its weights are the least
left folds of path weights (see ``BoxGraph.distances_from``), the one
fixed point that any exact shortest-path search reaches, so they do not
depend on the order in which it relaxes edges.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ConvergenceError
from .environment import Environment
from ._runs import SiteRuns
from .lattice import BoxRegion, Site, norm1, reserve, sub


# A search relaxes a frontier of at most this many nodes whole, bucket or
# not: a pass costs some twenty numpy calls whatever it relaxes, so on
# small frontiers fewer, larger passes win.  On boxes of 181 to 152193
# sites (2-core x86_64, numpy 2.4) this halves the search time of the
# smallest boxes and leaves the largest unchanged.
WHOLE_FRONTIER = 512

# A box graph hashes its edge weights in chunks of EDGE_CHUNK // d whole
# rows (at least one), so of at most this many edges, straight into its
# weight table.  A chunk's transients take about 130 to 230 bytes per edge
# by model and dimension, 2 to 4 MB at any box size (9 to 15 MB at 65536
# edges, more than the 7.3 MB of the largest built box's tables), and a
# call of this size hashes no slower per edge than a larger one.  A box of
# at most EDGE_CHUNK // d rows makes one edge_weights call per
# environment.
EDGE_CHUNK = 16384

# per-value refinement states
EXACT, CONVERGED, OPEN = 0, 1, 2


# a path whose fold passes the float range weighs inf, as fl(x + w) rounds
# it, and so may the bucket's bound
@np.errstate(over="ignore")
def _search(nbr: np.ndarray, wt: np.ndarray, width: float,
            dist: np.ndarray, limit: float = math.inf) -> np.ndarray:
    """Least path weights in B blocks of one graph: block b searches from
    the start weights dist[b], inf at a row it does not start from, with
    the weight table wt[b % E].

    nbr is the (n, 2d) neighbour-row table, forward along each axis and
    then backward, a row's own row where it has no neighbour, and wt the
    (E, n, d) table of forward edge weights, inf where a row has no
    forward neighbour.  The backward edge of row i along axis k is the
    forward edge of row nbr[i, d + k], and its weight is read there; a
    missing backward neighbour is a self-loop, whose candidate never beats
    the row's own weight.  Node b*n + i is row i of block b.  Searches
    the (B, n) array dist in place and returns it, inf beyond limit.

    A bucketed label-correcting search (delta-stepping, Meyer and Sanders
    2003) with the given bucket width: each pass relaxes every frontier
    node below the bucket's bound at once, or the whole frontier while it
    holds at most WHOLE_FRONTIER nodes, and puts the nodes it improved
    back on the frontier.  Weights at or below limit are final once the
    frontier's least weight passes limit.  A pass reads its targets from
    nbr, each node's block base plus its neighbour rows, so a search
    allocates no (n, 2d) table of its own."""
    n, d = wt.shape[1:]
    blocks = len(dist)
    # entry (e*n + i)*d + k holds the forward weight of row i along axis k
    # in block e
    flat = wt.reshape(-1)
    axes = np.tile(np.arange(d), 2)
    # k sources search one weight block, a stack's blocks their own
    shared = len(wt) < blocks
    dist = dist.reshape(-1)
    queued = dist < math.inf
    front = queued.nonzero()[0]
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
        base = (node - row)[:, None]  # the node's block base
        near = nbr[row]
        target = base + near
        # each edge's weight, in one read of the table, at the row of its
        # base site: the node's own row for a forward edge, the row it
        # reaches for a backward one (int32 entries suffice: the budget
        # keeps the table below 2**31 entries)
        near[:, :d] = row[:, None]
        if not shared:
            near += base
        near *= d
        near += axes
        cand = here[:, None] + flat[near]
        better = cand < dist[target]
        target, cand = target[better], cand[better]
        np.minimum.at(dist, target, cand)
        queued[target] = True
        front = queued.nonzero()[0]
    dist = dist.reshape(blocks, n)
    dist[dist > limit] = np.inf
    return dist


def graph_bytes(n: int, d: int, runs: int, blocks: int = 1) -> int:
    """The bytes a box graph reserves for n sites in d dimensions that fall
    into runs runs, with blocks environments: by dtype, the int32
    neighbour rows and float64 forward weights of each block, the runs
    (int64 head, start, base and key), and the build's transients: the
    per-run row bounds and offsets, one chunk of hashing transients
    (tracemalloc: 88 + 32d bytes per edge at most, any model, d = 1..4),
    and before the tables the int64 sites, as large as the neighbour rows,
    with their run marks and step check, 10 bytes per site, which outweigh
    one block of weights only at d = 1."""
    return (n * (8 * d + max(8 * d * blocks, 10)) + runs * (64 * d + 64)
            + EDGE_CHUNK * (128 + 32 * d))


class BoxGraph:
    """Weighted nearest-neighbor graph on the sites of one box, for a
    stack of environments ([env] for one).

    Row i of every distance array belongs to the i-th site of the box in
    lexicographic order; ``rows`` maps points to rows, and ``sites``
    rebuilds the (n, d) int64 site array on request.  The graph keeps the
    box's sites as their runs (``_runs.SiteRuns``), and besides them two
    tables over the rows: the (n, 2d) int32 neighbour rows, forward along
    each axis and then backward (a row's own row where the box ends), and
    the (E, n, d) float64 forward weights (inf where the box ends), one
    block per environment; a backward edge is its neighbour's forward
    edge, so each weight is stored once.  Both tables are allocated first;
    the weights are then hashed in the site-major chunks of whole rows,
    at most EDGE_CHUNK edges each, that ``SiteRuns.edges`` yields, one
    ``edge_weights`` call per environment and chunk (one for an edgeless
    box), and written straight into the table, so no list of the box's
    edges or sites, and no count per row, is built.  The E environments
    share the runs and the neighbour table, and environment e fills
    weight block e."""

    def __init__(self, envs: Sequence[Environment], box: BoxRegion):
        self.envs = tuple(envs)
        if not self.envs:
            raise ValueError("a stack needs at least one environment")
        # any region whose site_array() falls into runs can be searched; a
        # BoxRegion is counted first, so no site of a graph above the
        # budget is built
        if isinstance(box, BoxRegion):
            runs, n = box.counts()
            self._reserve(n, len(box.center), runs)
        self.box = box
        # the site array is read once, into its runs, and not kept; a
        # region that does not fall into runs raises ValueError
        self._runs = SiteRuns(box.site_array())
        n, d = int(self._runs.start[-1]), self._runs.head.shape[1] + 1
        if not isinstance(box, BoxRegion):
            self._reserve(n, d, len(self._runs.head))
        self._nbr = np.empty((n, 2 * d), dtype=np.int32)
        self._nbr[:] = np.arange(n, dtype=np.int32)[:, None]
        self._wt = np.full((len(self.envs), n, d), np.inf)
        nbr = self._nbr.reshape(-1)
        wt = self._wt.reshape(len(self.envs), -1)
        total, m = 0.0, 0
        # an edgeless box still makes its one call per environment
        for rows, axes, reach, bases in self._runs.edges(EDGE_CHUNK):
            m += len(rows)
            # each edge's slots in the flattened tables: forward from its
            # base row, backward from the row it reaches
            nbr[rows * (2 * d) + axes] = reach
            nbr[reach * (2 * d) + axes + d] = rows
            for w, env in zip(wt, self.envs):
                w[rows * d + axes] = weights = env.edge_weights(bases, axes)
                # scaled in place, after the table took its copy
                weights *= 2.0 ** -64
                total += weights.sum()
        # the bucket width of every search: the mean edge weight, which
        # only schedules the passes.  The weights are summed scaled by the
        # exact 2**-64, so a sum of finite weights stays finite, and the
        # mean is the unscaled one bit for bit above weights of 2**-958
        self._width = (float(total / (m * len(self.envs))) * 2.0 ** 64
                       if total else 1.0)

    def _reserve(self, n: int, d: int, runs: int) -> None:
        blocks = len(self.envs)
        self._bytes = graph_bytes(n, d, runs, blocks)
        what = "box graph" if blocks == 1 else f"stack of {blocks} box graphs"
        reserve(self._bytes, f"{what} of {n} sites")

    @property
    def sites(self) -> np.ndarray:
        """The box's (n, d) int64 site array in lexicographic order, rebuilt
        from the runs (and reserved with the graph) on every call."""
        n, d = len(self._nbr), self._runs.head.shape[1] + 1
        reserve(self._bytes + 8 * (d + 1) * n, f"the {n} sites of a graph")
        return self._runs.site_array()

    def rows(self, points) -> np.ndarray:
        """The row of each point of an (m, d) array, -1 outside the box."""
        return self._runs.rows(points)

    def row(self, site: Site) -> int:
        """The row of one site; ValueError when it lies outside the box."""
        i = int(self.rows([site])[0])
        if i < 0:
            raise ValueError(f"site {tuple(site)} outside box {self.box}")
        return i

    def distances_from(self, source: Site | Sequence[Site],
                       limit: float = math.inf) -> np.ndarray:
        """Exact shortest-path weights from source to every box site: for
        one source an (E, n) array whose row e is searched in environment
        e, and for a sequence of k sources (one environment only) a (k, n)
        array whose row i is searched from source i.  With a limit the
        search stops there: weights at or below it are the same bit for
        bit, and the sites beyond it read inf.

        Every row is the least left fold S_0 = 0, S_j = fl(S_{j-1} + w_j)
        over the box paths from its source, whatever order the search
        relaxes the edges in.  Each weight the search holds is the fold of
        some path, so never below that least fold; and when no edge relaxes
        any more, a weight above it is impossible: along a least path each
        site's weight is at most the fold of the path's prefix, by
        induction, since float addition rounds monotonically and fl(x + w)
        >= x for w >= 0.  So a stack's rows and a multi-source call's rows
        equal separate searches bit for bit, and so does any exact search
        of the same graph.  ``certified`` tells which weights are the
        unboxed ones."""
        sources = np.asarray(source)
        if sources.ndim == 2:
            if len(self.envs) > 1:
                raise ValueError(
                    "several sources need a one-environment graph")
            rows = self.rows(sources)
            if (rows < 0).any():
                raise ValueError(f"sources outside box {self.box}")
        else:
            rows = np.full(len(self.envs), self.row(source))
        # the graph; per node dist and queued, and a pass's transients
        # (tracemalloc: 27d bytes per node at most, stacks of up to 30
        # boxes, d = 2..8, any model)
        n, d = self._wt.shape[1:]
        nodes = len(rows) * n
        reserve(self._bytes + nodes * (9 + 32 * d),
                f"search of {len(rows)} blocks of {n} sites")
        dist = np.full((len(rows), n), np.inf)
        dist[np.arange(len(rows)), rows] = 0.0
        return _search(self._nbr, self._wt, self._width, dist, limit)

    @np.errstate(over="ignore")  # fl(x + a) may round to inf, still a bound
    def certified(self, dist: np.ndarray, rows) -> np.ndarray:
        """Which weights dist[:, rows] of a ``distances_from`` result are
        the unboxed weights, bit for bit: those below the certificate B.  A
        path that leaves the box first reaches an edge row (one with a
        missing neighbour) along a box path, then takes an edge of at least
        the model's floor a, so it weighs at least X = fl(m + a), m the
        search's least weight at an edge row, as folds are monotone (see
        distances_from).  It comes back in at an edge row by another such
        edge, so at a site x it weighs at least B(x), the least fold of a
        box path from an edge row to x started at fl(X + a), which a second
        search finds, as far as the largest weight asked about.  Rows
        beyond a search's limit read inf, still a bound, as every weight
        the search reports lies at or below its limit."""
        n, d = self._wt.shape[1:]
        picks = np.atleast_1d(rows)
        # the caller's weights and the second search's, the edge rows, and
        # the picked weights with their masks
        reserve(self._bytes + dist.size * (17 + 32 * d) + (5 + 2 * d) * n
                + 32 * len(dist) * picks.size,
                f"certificate of {len(dist)} searches of {n} sites")
        own = np.arange(n, dtype=np.int32)
        edge = (self._nbr == own[:, None]).any(axis=1)
        # per block its model's floor, one block for k sources
        floor = np.array([[env.model.floor()] for env in self.envs])
        start = np.full(dist.shape, np.inf)
        start[:, edge] = dist[:, edge].min(axis=1)[:, None] + floor + floor
        values = dist[:, picks]
        finite = values[values < math.inf]
        back = _search(self._nbr, self._wt, self._width, start,
                       float(finite.max()) if finite.size else -math.inf)
        return (values < back[:, picks]).reshape((len(dist),)
                                                 + np.shape(rows))


def distance(env: Environment, m: Site, n: Site, box_radius: int,
             box: BoxRegion | None = None) -> float:
    """Exact minimum path weight between m and n among paths confined to
    the box (canonically, the ell-1 ball of the given radius around the
    floor midpoint of m and n).

    The search always runs from the lexicographically smaller endpoint, so
    swapping m and n reproduces the identical arithmetic and symmetry
    holds bit for bit."""
    m, n = tuple(m), tuple(n)
    if box is None:
        box = BoxRegion(tuple((a + b) // 2 for a, b in zip(m, n)), box_radius)
    if not (box.contains(m) and box.contains(n)):
        raise ValueError("query endpoints must lie inside the box")
    src, dst = (m, n) if m <= n else (n, m)
    g = BoxGraph([env], box)
    value = g.distances_from(src)[0, g.row(dst)]
    if not math.isfinite(value):
        raise RuntimeError("box disconnected; should be impossible for "
                           "ball-shaped regions")
    return float(value)


# every refinement's default convergence tolerance (see refine)
REFINE_TOL = 1e-9


def refine(evaluate, radius: int, cap: int, tol: float):
    """Refine boxed values by doubling the radius of an ell-1 box, starting
    from radius and never passing cap, which raises ValueError when it
    lies below radius.  Each row of the values' leading axis refines on
    its own and leaves once none of its values is open.  Returns (values,
    radii, states): per row its last values, their radius and their
    states.

    ``evaluate(radius, live, prev)`` returns (values, exact) for the rows
    live, every row when live and prev are None (the first round): the
    values in the box of that radius and the mask of those its search
    certifies (see ``BoxGraph.certified``); prev is the rows' previous
    values.  Boxed values only decrease as the box grows, so a later round
    needs no search beyond max(prev).

    A certified value is EXACT, else CONVERGED when prev - value < tol,
    else OPEN."""
    def states(values, exact, prev):
        out = np.full(np.shape(values), OPEN, dtype=np.int8)
        if prev is not None:
            out[prev - values < tol] = CONVERGED
        out[exact] = EXACT
        return out

    if cap < radius:
        raise ValueError(f"radius cap {cap} lies below the first radius "
                         f"{radius}")
    values, exact = evaluate(radius, None, None)
    state = states(values, exact, None)
    radii = np.full(len(values), radius)
    live, inner = np.arange(len(values)), tuple(range(1, np.ndim(values)))
    while 2 * radius <= cap:
        live = live[(state[live] == OPEN).any(axis=inner)]
        if not live.size:
            break
        radius *= 2
        prev = values[live]
        values[live], exact = evaluate(radius, live, prev)
        state[live] = states(values[live], exact, prev)
        radii[live] = radius
    return values, radii, state


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


def structure_embed(env: Environment, sites: list[Site],
                    tol: float = REFINE_TOL,
                    radius_cap: int | None = None) -> StructureEmbedding:
    """Pairwise refined distances on a common box, packaged as the
    embedding tables; for two sites, the refined distance of one pair.
    Raises ConvergenceError if the refinement cap is hit before all
    pairwise values stabilize, and ValueError for a cap below the first
    radius, twice the sites' spread (see refine)."""
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

    def all_pairs(r: int, live, prev):
        g = BoxGraph([env], BoxRegion(center, r, "l1"))
        dist = g.distances_from(points)
        # out[i, j] = rho(sites[i], sites[j]) searched from sites[i], and
        # whether that search certifies it
        rows = g.rows(points)
        out, exact = dist[:, rows], g.certified(dist, rows)
        # keep the value searched from the lexicographically smaller
        # endpoint, so the matrix is symmetric bit for bit, and its bound;
        # one row of refine, as its symmetry needs one radius
        return (np.where(lex_le, out, out.T)[None],
                np.where(lex_le, exact, exact.T)[None])

    # unlimited searches: the matrix mixes values searched from either end
    # of a pair, so its rows are not the values of any one search
    dist, radius, state = refine(all_pairs, 2 * spread, radius_cap, tol)
    if (state == OPEN).any():
        raise ConvergenceError(
            f"pairwise distances did not stabilize within radius cap "
            f"{radius_cap}")
    return StructureEmbedding(sites=tuple(sites), dist=dist[0],
                              box_radius_used=int(radius[0]))
