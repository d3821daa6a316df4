import math
import os
from itertools import product
from pathlib import Path

import pytest
from hypothesis import settings

SRC = str(Path(__file__).resolve().parent.parent / "src")

# the one profile of the property tests, each of which sets its own
# max_examples: the same examples on every run, and no deadline, since
# an example's box size sets its time
settings.register_profile("properties", derandomize=True, deadline=None)


def pytest_configure(config):
    # pyproject's `pythonpath` puts src/ on this process's path only; the
    # determinism criterion runs `python -m shapelab.cli` in subprocesses,
    # which find the package through PYTHONPATH
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if SRC not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, *paths]))


def brute_force_distance(env, src, dst, box):
    """Exact minimum over all simple paths inside the box, accumulating
    weights left to right from src (the same order the search engine
    uses, so equality can be asserted exactly)."""
    d = env.dimension
    best = math.inf

    def rec(cur, seen, acc):
        nonlocal best
        if acc >= best:
            return
        if cur == dst:
            best = acc
            return
        for k in range(d):
            for sign in (1, -1):
                nxt = tuple(c + (sign if j == k else 0)
                            for j, c in enumerate(cur))
                if nxt in seen or not box.contains(nxt):
                    continue
                base = cur if sign == 1 else nxt
                w = env.edge_weight((base, k))
                rec(nxt, seen | {nxt}, acc + w)

    rec(src, {src}, 0.0)
    return best


def box_edges(center, radius, norm="linf"):
    """The canonical edges (base, axis) with both endpoints in the box,
    site-major in lexicographic site order, axes in order, by testing
    every site of the bounding cube."""
    def inside(s):
        offs = [abs(a - c) for a, c in zip(s, center)]
        return (max(offs) if norm == "linf" else sum(offs)) <= radius

    cube = product(*(range(c - radius, c + radius + 1) for c in center))
    return [(s, k) for s in cube if inside(s) for k in range(len(center))
            if inside(s[:k] + (s[k] + 1,) + s[k + 1:])]


@pytest.fixture(scope="session")
def two_seeds():
    return [0, 1]
