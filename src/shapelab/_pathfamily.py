"""Construction of the spread-out path family behind lattice.build_path_family.

Everything here works in a canonical frame: the chain's axes are reordered
so the transversal axis comes last with a positive target coordinate.  In
that frame the target is (p, M) for d=2 or (p1, p2, M) for d=3, with M
carrying more than half the ell-1 mass N; the half-ball around the target
has radius R = floor(N/2).  A family is built as one int64 array of the
vertices of all its paths with per-path offsets; the map back from the
canonical frame is a column permutation and a sign on the last column.

A d=3 family depends only on its canonical target, which six targets
share, so ``_build_3d`` caches it as read-only arrays and ``build``
permutes (a copy) before it signs.  The cache is bounded: |n| > 8 is
refused before anything is cached, which leaves 88 canonical targets.
d=2 has no such bound and is not cached.

d=2 is closed form.  Track i marches vertically at a distinct cross offset
c_i and collapses onto the target along the integer quota ray
xi(r) = round(2*c_i*r/N) clamped at c_i, r being the ell-1 distance to the
target.  Exactly one coordinate advances per unit of r, so trajectories
are elementary paths; quota rays are saturated (hence pairwise disjoint)
everywhere outside the half-ball, and inside it at most ~N/(2r) + 1 tracks
share a site.

d=3 assigns each track a column in the ell-1 ball of radius R+1 of the
cross plane.  The sphere of radius R+1 around the target is the packing
bottleneck: its sites on or below the target level are exactly the column
tails (c, u) with |c| + u = R+1, so every track must cross it at its own
tail, which the per-axis quota pacing achieves.  When N^2 exceeds the
number of such tails (only N in {7, 8} at desk scale), the excess tracks
become "hooks" that rise above the target level, travel outward at
negative u over the bottleneck, and descend a personal column on the
shell R+2.  The exhaustive audit in the test suite is the correctness
authority for the validated grid d in {2, 3}, |n| <= 8.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count

import numpy as np

from .lattice import PathFamily, Site, row_keys

_RAYS = np.array([(1, 0), (-1, 0), (0, 1), (0, -1)])
_NEVER = np.iinfo(np.int64).min
_AXES = np.arange(3)


def _to_canonical(n: Site, chain: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    coords = tuple(n[a] for a in chain)
    s = -1 if coords[-1] < 0 else 1
    return coords[:-1] + (abs(coords[-1]),), s


def build(n: Site, chain: tuple[int, ...]) -> PathFamily:
    d = len(n)
    canon, s = _to_canonical(n, chain)
    if d == 1:
        rows = np.arange(canon[0] + 1)[:, None]
        offsets = np.array([0, canon[0] + 1])
        indices = ((),)
    elif d == 2:
        rows, offsets, indices = _build_2d(*canon)
    else:
        rows, offsets, indices = _build_3d(*canon)
    # the permutation copies, so the sign never writes into a cached family
    verts = rows[:, np.argsort(chain)]
    verts[:, chain[-1]] *= s
    return PathFamily(target=n, chain_axes=chain, vertices=verts,
                      offsets=offsets, indices=indices)


# --------------------------------------------------------------------------
# ragged arrays: many paths' rows in one array, grouped by path


def _walk(way: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit steps through waypoints: way[i] lists path i's waypoints, each
    differing from the one before in one coordinate only.  Returns the
    path index and the site of every step, path after path."""
    paths, legs, d = way.shape
    start = way[:, :-1].reshape(-1, d)
    delta = np.diff(way, axis=1).reshape(-1, d)
    lens = np.abs(delta).sum(axis=1)
    j = np.arange(1, lens.sum() + 1) - np.repeat(np.cumsum(lens) - lens, lens)
    sites = (np.repeat(start, lens, axis=0)
             + j[:, None] * np.repeat(np.sign(delta), lens, axis=0))
    return np.repeat(np.arange(paths).repeat(legs - 1), lens), sites


def _descents(rows: np.ndarray, offsets: np.ndarray):
    """Each group of rows walked from its last row back to its first,
    leaving out the last row itself: (group index, row) pairs."""
    lens = np.diff(offsets) - 1
    first = np.cumsum(lens) - lens
    at = np.repeat(offsets[1:] - 2 + first, lens) - np.arange(lens.sum())
    return np.repeat(np.arange(len(lens)), lens), rows[at]


def _gather(groups: int, *pieces) -> tuple[np.ndarray, np.ndarray]:
    """Join (group index, row) pieces into one array grouped by index,
    each group's rows in piece order; returns the rows and the offsets."""
    ids = np.concatenate([p[0] for p in pieces])
    rows = np.concatenate([p[1] for p in pieces])[np.argsort(ids,
                                                             kind="stable")]
    offsets = np.zeros(groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=groups), out=offsets[1:])
    return rows, offsets


def _quota(c_abs, r, N: int):
    """|xi| of track c at distance r from the target: round(2*|c|*r/N)
    clamped to |c|.  Saturates no later than r = floor(N/2)."""
    return np.minimum((4 * c_abs * r + N) // (2 * N), c_abs)


# --------------------------------------------------------------------------
# d = 2


def _build_2d(p: int, M: int):
    N = abs(p) + M
    tracks = np.arange(N)
    c = (tracks + 1) // 2 * np.where(tracks % 2, 1, -1)  # 0, 1, -1, 2, ...
    # a track meets the hyperplane at r = M + |c|; its rows below that
    # run r = M + |c| - 1 down to 0
    lens = M + np.abs(c)
    ids = np.repeat(tracks, lens)
    r = (np.repeat(np.cumsum(lens) - 1, lens) - np.arange(lens.sum()))
    xi = np.sign(c)[ids] * _quota(np.abs(c)[ids], r, N)
    down = np.column_stack([p + xi, M - r + np.abs(xi)])
    spread = np.zeros((N, 2, 2), dtype=np.int64)
    spread[:, 1, 0] = p + c
    rows, offsets = _gather(N, (tracks, np.zeros((N, 2), dtype=np.int64)),
                            _walk(spread), (ids, down))
    return rows, offsets, tuple((i,) for i in range(N))


# --------------------------------------------------------------------------
# d = 3


@lru_cache(maxsize=None)
def _build_3d(p1: int, p2: int, M: int):
    """The family of the canonical target (p1, p2, M): rows, offsets and
    indices, the arrays read-only.  Each canonical target stands for six
    targets (three axis orders, two signs), which share this build."""
    N = abs(p1) + abs(p2) + M
    traj, toff = _trajectories(N, M)
    absolute = np.column_stack([p1 + traj[:, 0], p2 + traj[:, 1],
                                M - traj[:, 2]])
    outside = np.abs(absolute).sum(axis=1) > 2 * N
    if outside.any():
        raise AssertionError(
            f"containment violated at {tuple(absolute[outside][0].tolist())}")

    tracks = N * N
    spreads = _spreads(absolute[toff[1:] - 1, :2], N)
    rows, offsets = _gather(
        tracks, (np.arange(tracks), np.zeros((tracks, 3), dtype=np.int64)),
        _walk(spreads), _descents(absolute, toff))
    rows.setflags(write=False)
    offsets.setflags(write=False)
    return rows, offsets, tuple((j1, j2) for j1 in range(N)
                                for j2 in range(N))


@lru_cache(maxsize=None)
def _trajectories(N: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Every track's trajectory as offsets (xi1, xi2, u) from the target,
    u counting levels below it, out to its hyperplane entry at u = M:
    the rows and per-track offsets, read-only.

    They depend on N and M only, so families with the same pair share
    them.  The cache stays small: beyond N = 8 construction is refused
    before anything is cached."""
    R = N // 2
    cols = _columns(R + 1, N * N)
    T = len(cols)
    hooks = _hooks(N, R, M, N * N - T)
    tracks = N * N

    pace = _pace(cols, N, R)
    rise = np.repeat(pace[:, -1:], 2, axis=1)
    rise[:, 1, 2] = M
    hook_ids, hook_rows = _walk(hooks)
    traj, toff = _gather(
        tracks, (np.repeat(np.arange(T), R + 2), pace.reshape(-1, 3)),
        _walk(rise), (T + np.arange(len(hooks)), hooks[:, 0]),
        (T + hook_ids, hook_rows))

    # count-one bookkeeping outside the half-ball: every claimed site has
    # one owning track.  The target itself, a hook's hyperplane entry and
    # sites inside the half-ball (whose sharing only enters the measured
    # near-target constant) are not claimed.
    tid = np.repeat(np.arange(tracks), np.diff(toff))
    claimed = (tid < T) | (traj[:, 2] < M)
    claimed[toff[:-1]] = False
    claimed &= np.abs(traj).sum(axis=1) > R
    sites = traj[claimed]
    site_keys = row_keys(sites)
    _, first = np.unique(row_keys(np.column_stack([site_keys, tid[claimed]])),
                         return_index=True)
    owned = site_keys[first]  # sorted: the site key is the leading column
    clash = np.flatnonzero(owned[1:] == owned[:-1])
    if clash.size:
        raise AssertionError(
            f"multiplicity clash at offset "
            f"{tuple(sites[first[clash[0]]].tolist())} for |n|={N}, M={M}")
    traj.setflags(write=False)
    toff.setflags(write=False)
    return traj, toff


def _columns(K: int, limit: int) -> np.ndarray:
    """The cross-plane sites of the ell-1 ball of radius K, by norm and
    then lexicographically, at most limit of them."""
    ab = np.indices((2 * K + 1, 2 * K + 1)).reshape(2, -1).T - K
    norm = np.abs(ab).sum(axis=1)
    order = np.argsort(norm, kind="stable")
    return ab[order][norm[order] <= K][:limit]


def _hooks(N: int, R: int, M: int, needed: int) -> np.ndarray:
    """Hook waypoints (needed, 5, 3): rise to level -h over the target,
    run outward along a ray, turn to the left of it, then descend a
    personal column on the cross shell R+2 to the hyperplane.  Height is
    capped so the apex respects the 2N containment and the shared rise
    stays inside the half-ball; slots go by height, then by ray."""
    hmax = min(N - R - 2, R)
    if needed > 4 * max(hmax, 0):
        raise ValueError(
            f"cannot construct the d=3 family for |n|={N}: "
            f"{needed} overshoot tracks needed, {4 * max(hmax, 0)} slots "
            "available (validated range is |n| <= 8)")
    slot = np.arange(needed)
    h = 1 + slot // 4
    ray = _RAYS[slot % 4]
    left = np.column_stack([-ray[:, 1], ray[:, 0]])
    reach = R + 3 - h
    way = np.zeros((needed, 5, 3), dtype=np.int64)
    way[:, 1:4, 2] = -h[:, None]
    way[:, 2, :2] = ray * reach[:, None]
    way[:, 3, :2] = way[:, 2, :2] + left * (h - 1)[:, None]
    way[:, 4, :2] = way[:, 3, :2]
    way[:, 4, 2] = M
    return way


def _pace(cols: np.ndarray, N: int, R: int) -> np.ndarray:
    """Quota-paced staircases from the target to each column's tail
    (c, R+1-|c|) at the sphere R+1, one row per track: (T, R+2, 3).

    Step r moves the coordinate lagging furthest behind its quota at r,
    the lowest axis on ties, one unit toward its goal.  Coordinates only
    move toward their goals, so a coordinate may move until it meets its
    own."""
    ca = np.abs(cols)
    goal = np.column_stack([cols, R + 1 - ca.sum(axis=1)])
    r = np.arange(1, R + 2)[:, None, None]
    quota = np.empty((R + 1,) + goal.shape, dtype=np.int64)
    quota[..., :2] = _quota(ca, r, N)
    quota[..., 2] = np.maximum(0, r[..., 0] - quota[..., :2].sum(axis=2))
    out = np.zeros((R + 2,) + goal.shape, dtype=np.int64)
    for step, want in enumerate(quota):
        pos = out[step]
        move = np.where(pos != goal, want - np.abs(pos), _NEVER).argmax(axis=1)
        out[step + 1] = pos + (move[:, None] == _AXES) * np.sign(goal - pos)
    if not np.array_equal(out[-1], goal):
        raise AssertionError("a track missed its tail")
    return out.transpose(1, 0, 2)


def _spreads(entries: np.ndarray, N: int) -> np.ndarray:
    """Waypoints (P, 4, 3) of the hyperplane staircases from the origin to
    each entry point: along the first axis to the entry's line, then
    along the second.

    Vertical rides are budgeted at N per line of the first chain axis;
    overflow tracks ride a fresh line instead and return along the first
    axis at the entry's level, so the nested-subspace multiplicity bound
    keeps holding.  Riders of one line are ranked by |e1|, then e1.
    """
    e0, e1 = entries.T
    order = np.lexsort((e1, np.abs(e1), e0))
    line = e0[order]
    starts = np.flatnonzero(np.r_[True, line[1:] != line[:-1]])
    rank = np.arange(len(line)) - np.repeat(starts,
                                            np.diff(np.r_[starts, len(line)]))
    detour = np.zeros(len(e0), dtype=bool)
    detour[order] = rank >= N
    ride = e0.copy()
    if detour.any():
        # the nearest unused line, 0, -1, 1, -2, ...: only detours ride it
        lines = set(e0.tolist())
        ride[detour] = next(b for v in count() for b in (-v, v)
                            if b not in lines)
    way = np.zeros((len(e0), 4, 3), dtype=np.int64)
    way[:, 1:3, 0] = ride[:, None]
    way[:, 2:, 1] = e1[:, None]
    way[:, 3, 0] = e0
    return way
