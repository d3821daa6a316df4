"""Distinct lattice sites held as their runs: the row lookup and the unit
steps of a box graph, found by arithmetic on the runs.

A lexicographic site array falls into runs, blocks of rows that share
their first d-1 coordinates (the head) and step by one in the last.
``SiteRuns`` keeps, per run, its head, its first row, its row offset and
its key, so a box graph holds nothing per site for its geometry and
nothing per point of the box's bounding box.  It lives apart from ``lattice``, which
every command that counts or lists sites loads, because only box graphs
use it.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .lattice import run_sites

# SiteRuns checks the steps of its sites in slices of this many sites,
# whose transients take about 11 bytes per site
STEP_SLICE = 1 << 15


class SiteRuns:
    """Distinct lattice sites in lexicographic order, held as their runs.

    Run r holds rows start[r] to start[r + 1] - 1, which share the head
    (the first d-1 coordinates) head[r] and whose last coordinates step by
    one: row i of it has last coordinate i - base[r].  A head is found by
    binary search in the runs' keys, the heads' positions in their bounding
    box, so nothing is held per site or per point of a bounding box.
    Raises ValueError for sites that are not lexicographic or whose runs
    skip a last coordinate."""

    def __init__(self, sites: np.ndarray):
        n, d = sites.shape
        if not n:
            raise ValueError("a region needs at least one site")
        # a run starts where the head changes
        new = np.zeros(n, dtype=bool)
        new[0] = True
        for k in range(d - 1):
            new[1:] |= sites[1:, k] != sites[:-1, k]
        # within a run the last coordinates step by one; checked in slices,
        # so the check holds no int64 array per site
        last = sites[:, -1]
        for a in range(1, n, STEP_SLICE):
            b = min(a + STEP_SLICE, n)
            if np.any((last[a:b] - last[a - 1:b - 1] != 1) & ~new[a:b]):
                raise ValueError("a region's sites must fall into runs of "
                                 "consecutive last coordinates")
        begin = np.flatnonzero(new)
        self.head = sites[begin, :-1]
        self.start = np.append(begin, n)
        self.base = begin - sites[begin, -1]
        # each head's position in the heads' bounding box, which for a box
        # of radius r holds (2r + 1)**(d - 1) positions, as counting the
        # box reserved: keys rise with the heads, so lexicographic sites
        # have rising keys
        self._low = self.head.min(axis=0)
        self._span = self.head.max(axis=0) - self._low + 1
        span = self._span.tolist()
        if math.prod(span) >= 2 ** 63:
            raise ValueError("a region's heads must span fewer than 2**63 "
                             "points")
        self._step = np.array([math.prod(span[k + 1:])
                               for k in range(d - 1)], dtype=np.int64)
        self._keys = (self.head - self._low) @ self._step
        if np.any(np.diff(self._keys) <= 0):
            raise ValueError("a region's sites must be lexicographic")

    def find(self, heads: np.ndarray) -> np.ndarray:
        """The run of each head of an (m, d-1) array, -1 for a head that no
        run has.  Heads off the bounding box are masked before the search:
        their keys could equal a run's."""
        rel = heads - self._low
        key = rel @ self._step
        run = np.minimum(np.searchsorted(self._keys, key), len(self._keys) - 1)
        hit = np.all((rel >= 0) & (rel < self._span), axis=1)
        return np.where(hit & (self._keys[run] == key), run, -1)

    def rows(self, points) -> np.ndarray:
        """The row of each point of an (m, d) array, or -1 for a point that
        is not a site."""
        points = np.asarray(points, dtype=np.int64)
        if points.ndim != 2 or points.shape[1] != self.head.shape[1] + 1:
            raise ValueError("points must be (m, d)")
        run = self.find(points[:, :-1])
        row = self.base[run] + points[:, -1]
        inside = ((run >= 0) & (self.start[run] <= row)
                  & (row < self.start[run + 1]))
        return np.where(inside, row, -1)

    def site_array(self) -> np.ndarray:
        """The (n, d) int64 sites, rebuilt from the runs."""
        return run_sites(self.head, np.diff(self.start), self.base)

    def edges(self, size: int) -> Iterator[tuple[np.ndarray, ...]]:
        """The sites' unit steps (i, k) from row i to the site i + e_k, in
        site-major order with axes in order, in chunks of max(1, size // d)
        whole rows, so of at most size steps when size >= d: per chunk the
        rows i, the axes k, the rows reached and the (m, d) int64 sites of
        the rows i, each a fresh int64 array that the caller may write to.
        A one-site region yields one empty chunk.  Each step's end is found
        from one row offset per run and axis, so nothing the size of all
        the rows or steps is built, and nothing of a chunk is held once it
        is yielded."""
        d = self.head.shape[1] + 1
        # found by a helper, so their transients are gone before the first
        # chunk
        lo, hi, off = self._steps()
        n = int(self.start[-1])
        count = max(1, size // d)
        for first in range(0, n, count):
            yield self._chunk(lo, hi, off, first, min(first + count, n))

    def _steps(self) -> tuple[np.ndarray, ...]:
        """Per run and axis, the (runs, d) int64 bounds lo, hi and offset
        off: rows lo..hi-1 of the run step along the axis to the row off
        further on.  Along the last axis that is every row but the run's
        last, along axis k the rows whose last coordinate the run of
        head + e_k also holds."""
        d = self.head.shape[1] + 1
        start, stop = self.start[:-1], self.start[1:]
        lo = np.empty((len(start), d), dtype=np.int64)
        hi, off = np.empty_like(lo), np.empty_like(lo)
        lo[:, -1], hi[:, -1], off[:, -1] = start, stop - 1, 1
        for k in range(d - 1):
            ahead = self.head.copy()
            ahead[:, k] += 1
            # with no such run (j = -1) start[j] = n > start[j + 1] = 0,
            # so the rows are none
            j = self.find(ahead)
            off[:, k] = self.base[j] - self.base
            lo[:, k] = np.clip(self.start[j] - off[:, k], start, stop)
            hi[:, k] = np.clip(self.start[j + 1] - off[:, k], lo[:, k], stop)
        return lo, hi, off

    def _chunk(self, lo, hi, off, first: int, last: int):
        """The steps of rows first..last-1 (see edges).  Per-run bounds are
        gathered with take, the steps' rows and axes split off their flat
        positions in place, and each temporary is released once read."""
        d = self.head.shape[1] + 1
        rows = np.arange(first, last)
        run = np.searchsorted(self.start, rows, side="right")
        run -= 1
        # per row and axis: its run's bound, then its run's offset
        bound = np.take(lo, run, axis=0)
        step = bound <= rows[:, None]
        np.take(hi, run, axis=0, out=bound)
        step &= rows[:, None] < bound
        np.take(off, run, axis=0, out=bound)
        # each step's flat position row * d + axis, counted from first
        at = np.flatnonzero(step)
        reach = np.take(bound, at)
        del bound
        rows = at // d
        axes = rows * d
        np.subtract(at, axes, out=axes)
        del at
        run = np.take(run, rows)
        rows += first
        reach += rows
        # column by column: take into a strided column is fast only for
        # one-dimensional arrays
        bases = np.empty((len(rows), d), dtype=np.int64)
        for k in range(d - 1):
            np.take(self.head[:, k], run, out=bases[:, k], mode="clip")
        last_coord = bases[:, -1]
        np.take(self.base, run, out=last_coord, mode="clip")
        np.subtract(rows, last_coord, out=last_coord)
        return rows, axes, reach, bases
