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
        if np.any((np.diff(sites[:, -1]) != 1) & ~new[1:]):
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
        the rows i.  A one-site region yields one empty chunk.  Each step's
        end is found from one row offset per run and axis, so nothing the
        size of all the rows or steps is built."""
        d = self.head.shape[1] + 1
        start, stop = self.start[:-1], self.start[1:]
        # rows lo..hi-1 of each run step along each axis to the row off
        # further on: along the last axis every row but the run's last,
        # along axis k the rows whose last coordinate the run of head + e_k
        # also holds
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
        n = int(self.start[-1])
        count = max(1, size // d)
        for first in range(0, n, count):
            rows = np.arange(first, min(first + count, n))
            run = np.searchsorted(self.start, rows, side="right") - 1
            step = (lo[run] <= rows[:, None]) & (rows[:, None] < hi[run])
            rows, axes = np.divmod(np.flatnonzero(step), d)
            run = run[rows]
            rows += first
            bases = np.empty((len(rows), d), dtype=np.int64)
            bases[:, :-1] = self.head[run]
            bases[:, -1] = rows - self.base[run]
            yield rows, axes, rows + off[run, axes], bases
