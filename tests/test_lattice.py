import hashlib
import json
import subprocess
import sys
from itertools import product
from typing import Sequence

import numpy as np
import pytest

from shapelab.environment import Constant, Environment
from shapelab.lattice import (BoxRegion, FamilyAudit, PathFamily,
                              build_path_family, audit_family, default_chain,
                              enumerate_targets, norm1, sub)

from frozen import LEMMA_COMB_CONSTANT


def path_multiplicity(family: PathFamily, m: Sequence[int]) -> int:
    """Number of family paths whose vertex set contains m."""
    hit = np.all(family.vertices == np.asarray(m, dtype=np.int64), axis=1)
    return int(np.unique(family.path_ids()[hit]).size)


def test_box_membership_exact():
    box = BoxRegion((1, -1), 3, "l1")
    assert box.contains((1, -1)) and box.contains((4, -1))
    assert not box.contains((4, 0))
    linf = BoxRegion((0, 0), 2, "linf")
    assert linf.contains((2, -2)) and not linf.contains((3, 0))
    assert len(box.sites()) == 2 * 3 * 3 + 2 * 3 + 1
    assert len(linf.sites()) == 25


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("norm", ["l1", "linf"])
def test_box_sites_match_product_enumeration(d, norm):
    measure = sum if norm == "l1" else max
    for center in [(0,) * d, (3, -2, 5)[:d]]:
        for radius in range(6):
            box = BoxRegion(center, radius, norm)
            expect = [tuple(c + o for c, o in zip(center, off))
                      for off in product(range(-radius, radius + 1), repeat=d)
                      if measure(abs(o) for o in off) <= radius]
            assert box.sites() == expect
            assert box.site_count() == len(expect)
            # the box graph's edges, read back as its sampled field
            env = Environment(Constant(1.0), seed=0, dimension=d)
            inside = set(expect)
            assert len(env.sample_field(center, radius, norm)) == sum(
                tuple(c + (j == k) for j, c in enumerate(s)) in inside
                for s in expect for k in range(d))


def test_family_cardinality_and_straight_line():
    fam = build_path_family((3, 0))
    assert len(fam.paths) == 3
    fam1 = build_path_family((-4,))
    assert len(fam1.paths) == 1
    assert fam1.paths[0][0] == (0,) and fam1.paths[0][-1] == (-4,)


def test_family_multiplicity_endpoints():
    fam = build_path_family((3, 0))
    n = fam.target
    assert path_multiplicity(fam, n) == 3
    assert path_multiplicity(fam, (0, 0)) == 3


def test_family_example_2_1():
    # every site off the hyperplane and the half-ball lies on at most
    # one path, by exhaustive count
    fam = build_path_family((2, 1))
    a = audit_family(fam)
    assert a.exact_ok


def test_family_rejects_zero_and_balanced():
    with pytest.raises(ValueError):
        build_path_family((0, 0))
    with pytest.raises(ValueError, match="no admissible"):
        build_path_family((1, 1))
    with pytest.raises(ValueError, match="inadmissible"):
        build_path_family((3, 1), chain=(0, 1))  # top hyperplane meets half-ball


def test_family_rejects_high_dimension():
    with pytest.raises(ValueError, match="1..3"):
        build_path_family((1, 0, 0, 2))


def test_family_determinism_byte_for_byte():
    a = build_path_family((4, -2)).to_json()
    b = build_path_family((4, -2)).to_json()
    assert a == b


def test_family_json_round_trip():
    fam = build_path_family((2, -3))
    back = PathFamily.from_json(fam.to_json())
    assert back == fam


def test_box_head_matches_an_indices_oracle():
    # the head is built a column at a time, with no d-axis array, so it
    # holds in any dimension; np.indices is the oracle where it reaches
    for d in range(1, 6):
        for r in range(5):
            side = 2 * r + 1
            cube = side ** (d - 1)
            dense = np.indices((side,) * (d - 1)).reshape(d - 1, cube).T - r
            for norm in ("l1", "linf"):
                box = BoxRegion((2, -1, 0, 3, 1)[:d], r, norm)
                head, reach, n = box._rows()
                want = (r - np.abs(dense).sum(axis=1) if norm == "l1"
                        else np.full(len(dense), r))
                keep = want >= 0
                assert head.dtype == reach.dtype == np.int64
                assert np.array_equal(head, dense[keep])
                assert np.array_equal(reach, want[keep])
                assert n == keep.sum() + 2 * want[keep].sum()


def test_one_dimensional_box_count_allocates_nothing_of_its_radius():
    # d = 1 has no head column, so counting a huge segment builds no
    # array of its radius's size
    import tracemalloc

    tracemalloc.start()
    try:
        assert BoxRegion((0,), 10 ** 7).site_count() == 2 * 10 ** 7 + 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_path_family_columns_match_an_indices_oracle():
    from shapelab._pathfamily import _columns

    for K in range(8):
        ab = np.indices((2 * K + 1, 2 * K + 1)).reshape(2, -1).T - K
        norm = np.abs(ab).sum(axis=1)
        ordered = ab[np.argsort(norm, kind="stable")]
        ordered = ordered[np.abs(ordered).sum(axis=1) <= K]
        for limit in (1, 4, 2 * K * K + 2 * K + 1, 1000):
            assert np.array_equal(_columns(K, limit), ordered[:limit])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_enumerate_targets_matches_a_product_filter(d):
    for max_norm in range(1, 6):
        oracle = [s for s in product(range(-max_norm, max_norm + 1), repeat=d)
                  if any(s) and norm1(s) <= max_norm]
        got = enumerate_targets(d, max_norm)
        assert got == oracle
        assert all(type(c) is int for s in got for c in s)


def test_family_small_grid_d2_exact():
    worst = 0.0
    for n in enumerate_targets(2, 5):
        try:
            fam = build_path_family(n)
        except ValueError:
            continue
        a = audit_family(fam)
        assert a.exact_ok, (n, a)
        worst = max(worst, a.near_constant)
    assert worst <= LEMMA_COMB_CONSTANT[2]


def test_family_small_grid_d3_exact():
    worst = 0.0
    for n in enumerate_targets(3, 4):
        try:
            fam = build_path_family(n)
        except ValueError:
            continue
        a = audit_family(fam)
        assert a.exact_ok, (n, a)
        worst = max(worst, a.near_constant)
    assert worst <= LEMMA_COMB_CONSTANT[3]


def test_default_chain_prefers_identity():
    assert default_chain((1, 0, 4)) == (0, 1, 2)
    # mass on the first axis forces a permutation ending there
    assert default_chain((4, 1, 0))[-1] == 0


# --------------------------------------------------------------------------
# array-stored families against their bytes and the tuple-loop audit


def _built_families(d, max_norm):
    out = []
    for n in enumerate_targets(d, max_norm):
        try:
            out.append(build_path_family(n))
        except ValueError:
            continue
    return out


_D3_DIGEST = "58f21080d1793aee6da12168d2b281cec00570e58ce1ff08d0f2fcc1c45f2228"


@pytest.mark.parametrize("d, count, digest", [
    (2, 128, "e265b002765e9e6cab5aeba1a001af12bd10a84325ffccfe5e786132911a2af0"),
    (3, 528, _D3_DIGEST),
])
def test_family_bytes_are_pinned(d, count, digest):
    # the digests are those of the tuple-built families: each family's
    # JSON on its own line, in enumerate_targets order, |n| <= 8
    fams = _built_families(d, 8)
    text = "".join(f.to_json() + "\n" for f in fams)
    assert len(fams) == count
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _tuple_audit(family):
    """The audit as a loop over per-vertex tuples: the reference."""
    n = family.target
    d = len(n)
    N = norm1(n)
    counts = {}
    containment_ok = start_end_ok = True
    for p in family.paths:
        if p[0] != (0,) * d or p[-1] != n:
            start_end_ok = False
        for v in set(p):
            counts[v] = counts.get(v, 0) + 1
            containment_ok &= norm1(v) <= 2 * N
    cardinality_ok = (len(set(family.paths)) == len(family.paths)
                      and len(family.paths) == N ** (d - 1))
    chain_sets = [set(family.chain_axes[:j]) for j in range(1, d)]
    top = chain_sets[-1] if chain_sets else set()
    near_constant, subspace_ok, off_mult = 0.0, True, 0
    for m, cnt in counts.items():
        dist = norm1(sub(n, m))
        support = {k for k, c in enumerate(m) if c != 0}
        j_min = next((j for j, axes in enumerate(chain_sets, start=1)
                      if support <= axes), None)
        if 2 * dist <= N:
            if m != n:
                near_constant = max(near_constant, cnt * (dist / N) ** (d - 1))
        else:
            if j_min is not None and cnt > N ** (d - j_min):
                subspace_ok = False
            if not support <= top:
                off_mult = max(off_mult, cnt)
    return FamilyAudit(n, cardinality_ok, containment_ok, near_constant,
                       subspace_ok, off_mult, start_end_ok)


def test_audit_matches_tuple_loop():
    fams = _built_families(2, 8) + _built_families(3, 6)
    fams += [build_path_family((-5,)), build_path_family((-5, 2, 1), (2, 1, 0))]
    for fam in fams:
        assert audit_family(fam) == _tuple_audit(fam), fam.target


def test_audit_matches_tuple_loop_on_hook_families():
    # |n| in {7, 8} are the d=3 families with hooks (300 of them, about
    # 2.5 s on a 2-core x86_64 host)
    fams = [f for f in _built_families(3, 8) if norm1(f.target) >= 7]
    assert len(fams) == 300
    for fam in fams:
        assert audit_family(fam) == _tuple_audit(fam), fam.target


def test_d3_families_do_not_depend_on_build_order():
    # a fresh process, so the canonical cache fills in reverse order
    code = ("import hashlib\n"
            "from shapelab import _pathfamily\n"
            "from shapelab.lattice import build_path_family, "
            "enumerate_targets\n"
            "fams = []\n"
            "for n in reversed(list(enumerate_targets(3, 8))):\n"
            "    try:\n"
            "        fams.append(build_path_family(n))\n"
            "    except ValueError:\n"
            "        pass\n"
            "text = ''.join(f.to_json() + '\\n' for f in reversed(fams))\n"
            "print(len(fams), _pathfamily._build_3d.cache_info().currsize,\n"
            "      hashlib.sha256(text.encode()).hexdigest())\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["528", "88", _D3_DIGEST]


def test_cached_d3_family_is_read_only_and_never_written():
    from shapelab import _pathfamily

    # the six targets of one canonical target: three axis orders, two signs
    targets = [(2, -1, 5), (2, -1, -5), (5, 2, -1), (-5, 2, -1), (2, 5, -1),
               (2, -5, -1)]
    assert {_pathfamily._to_canonical(n, default_chain(n))[0]
            for n in targets} == {(2, -1, 5)}
    first = build_path_family(targets[0])
    before = first.vertices.tobytes()
    rows, offsets, _ = _pathfamily._build_3d(2, -1, 5)
    assert not rows.flags.writeable and not offsets.flags.writeable
    assert not np.shares_memory(first.vertices, rows)
    hits = _pathfamily._build_3d.cache_info().hits
    for n in targets[1:]:
        fam = build_path_family(n)
        assert fam.target == n and audit_family(fam).exact_ok
    assert _pathfamily._build_3d.cache_info().hits == hits + 5
    assert first.vertices.tobytes() == before
    assert build_path_family(targets[0]) == first


def test_path_multiplicity_counts_paths_through_each_vertex():
    fam = build_path_family((2, -1, 5))
    for m in sorted({v for p in fam.paths for v in p}):
        assert path_multiplicity(fam, m) == sum(m in set(p) for p in fam.paths)
    assert path_multiplicity(fam, (9, 9, 9)) == 0


def _tampered(n, edit):
    doc = json.loads(build_path_family(n).to_json())
    edit(doc["paths"])
    fam = PathFamily.from_json(json.dumps(doc))
    audit = audit_family(fam)
    assert audit == _tuple_audit(fam)
    return audit


def test_tampered_non_elementary_step_is_rejected():
    doc = json.loads(build_path_family((2, -3)).to_json())
    del doc["paths"][1][2]
    with pytest.raises(ValueError, match="elementary"):
        PathFamily.from_json(json.dumps(doc))


def test_tampered_empty_path_is_rejected():
    doc = json.loads(build_path_family((2, -3)).to_json())
    doc["paths"][1] = []
    with pytest.raises(ValueError, match="at least one vertex"):
        PathFamily.from_json(json.dumps(doc))


def test_tampered_duplicate_path_breaks_cardinality():
    def duplicate(paths):
        paths[1] = paths[0]

    audit = _tampered((2, -3), duplicate)
    assert not audit.cardinality_ok
    assert audit.containment_ok and audit.start_end_ok


def test_tampered_far_vertex_breaks_containment():
    # an out-and-back excursion from the origin to distance 2N + 1 = 11
    out = [[-x, 0] for x in range(12)]

    def detour(paths):
        paths[0] = out + out[-2::-1] + paths[0][1:]

    audit = _tampered((2, -3), detour)
    assert not audit.containment_ok
    assert audit.start_end_ok


def test_tampered_wrong_endpoint_breaks_start_end():
    audit = _tampered((2, -3), lambda paths: paths[2].append([3, -3]))
    assert not audit.start_end_ok
