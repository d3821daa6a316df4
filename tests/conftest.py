import math
import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


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


@pytest.fixture(scope="session")
def two_seeds():
    return [0, 1]
