import json
from itertools import product

import pytest

from shapelab.lattice import (BoxRegion, LatticePath, PathFamily,
                              build_path_family, audit_family, default_chain,
                              enumerate_targets, neighbors, norm1,
                              path_multiplicity)

from frozen import LEMMA_COMB_CONSTANT


def test_neighbors_d2():
    assert neighbors((0, 0)) == [(1, 0), (-1, 0), (0, 1), (0, -1)]


def test_neighbors_d1():
    assert neighbors((5,)) == [(6,), (4,)]


def test_neighbors_d3_distance_one():
    out = neighbors((1, 1, 1))
    assert len(out) == 6
    assert len(set(out)) == 6
    assert all(norm1(tuple(a - b for a, b in zip(s, (1, 1, 1)))) == 1
               for s in out)


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


def test_lattice_path_rejects_jumps():
    with pytest.raises(ValueError):
        LatticePath([(0, 0), (1, 1)])


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
