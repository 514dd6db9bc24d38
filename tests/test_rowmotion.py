import pytest

from ratdyck.paths import (
    Slope,
    enumerate_paths,
    iterate,
    lowest_path,
    path_from_steps,
    path_from_word,
    top_path,
    young_rows,
)
from ratdyck.perms import dyck1, dyck2
from ratdyck.promotion import evacuation_fast
from ratdyck.rowmotion import (
    BoxRegion,
    dual_rowvacuation,
    filter_of_path,
    path_of_filter,
    rank_toggle,
    rowmotion,
    rowmotion_inverse,
    rowmotion_structural,
    rowvacuation,
)


def s(p):
    return "".join(str(u) for u in p.steps)


def test_region_ranks():
    region = BoxRegion(Slope(1, 3, 3))
    assert region.row_lengths == (6, 3, 0)
    assert region.max_rank == 5
    assert region.rank(1, 1) == 5 and region.rank(2, 1) == 4
    assert BoxRegion(Slope(1, 1, 4)).max_rank == 2
    # steep slopes have cells below rank zero
    assert BoxRegion(Slope(2, 1, 3)).min_rank < 0


def test_filter_roundtrip():
    p = path_from_steps(Slope(1, 3, 3), [1, 3, 6])
    f = filter_of_path(p)
    assert f.rows == (3, 1, 0)
    assert path_of_filter(f) == p
    # boxes above the path: the lowest path sits under the whole region
    assert filter_of_path(lowest_path(Slope(1, 3, 3))).rows == (6, 3, 0)
    assert filter_of_path(top_path(Slope(1, 3, 3))).rows == (0, 0, 0)


def test_rank_toggle_worked_examples():
    p = path_from_steps(Slope(1, 3, 3), [1, 3, 6])
    assert s(rank_toggle(2, p)) == "137"
    assert s(rank_toggle(3, p)) == "145"
    assert s(rank_toggle(4, p)) == "126"
    for r in (0, 1, 5):
        assert rank_toggle(r, p) == p
    for q in enumerate_paths(Slope(1, 2, 3)):
        for r in range(0, 4):
            assert rank_toggle(r, rank_toggle(r, q)) == q


def test_rowmotion_worked_examples():
    assert s(rowmotion(path_from_steps(Slope(2, 3, 2), [1, 3, 5, 6]))) == "1248"
    orb = ["145", "137", "126"]
    for src, dst in zip(orb, orb[1:] + orb[:1]):
        p = path_from_steps(Slope(1, 2, 3), [int(c) for c in src])
        assert s(rowmotion(p)) == dst
    p = path_from_word(Slope(1, 1, 5), "URUUURRRUR")
    assert rowmotion(p).word == "UURRURUURR"


def test_rowmotion_structural_examples():
    p = path_from_steps(Slope(2, 3, 2), [1, 3, 5, 6])
    assert s(rowmotion_structural(p)) == "1248"
    # the empty filter of the top path maps to the full region
    assert rowmotion_structural(top_path(Slope(1, 2, 3))) == lowest_path(Slope(1, 2, 3))


@pytest.mark.parametrize(
    "a,b,n", [(1, 1, 6), (1, 2, 4), (1, 3, 3), (2, 3, 2), (3, 2, 2), (2, 1, 3)]
)
def test_rowmotion_matches_structural(a, b, n):
    for p in enumerate_paths(Slope(a, b, n)):
        assert rowmotion(p) == rowmotion_structural(p)
        assert rowmotion_inverse(rowmotion(p)) == p


def test_rowvacuation_worked_pairs():
    slope = Slope(1, 2, 3)
    pairs = {"147": "134", "146": "124", "145": "137", "136": "125",
             "135": "135", "127": "123", "126": "126"}
    for src, dst in pairs.items():
        p = path_from_steps(slope, [int(c) for c in src])
        assert s(rowvacuation(p)) == dst
    dpairs = {"147": "123", "146": "134", "145": "145", "137": "126",
              "136": "124", "135": "125", "127": "127"}
    for src, dst in dpairs.items():
        p = path_from_steps(slope, [int(c) for c in src])
        assert s(dual_rowvacuation(p)) == dst
    assert rowvacuation(top_path(Slope(1, 1, 4))).word == "URURURUR"


@pytest.mark.parametrize("a,b,n", [(1, 2, 3), (2, 3, 2), (3, 2, 2)])
def test_rowvacuation_relations(a, b, n):
    slope = Slope(a, b, n)
    region = BoxRegion(slope)
    span = region.max_rank - region.min_rank
    for p in enumerate_paths(slope):
        assert rowvacuation(rowvacuation(p)) == p
        assert dual_rowvacuation(dual_rowvacuation(p)) == p
        assert rowvacuation(rowmotion(p)) == rowmotion_inverse(rowvacuation(p))
        assert dual_rowvacuation(rowmotion(p)) == rowmotion_inverse(
            dual_rowvacuation(p)
        )
        assert iterate(rowmotion, rowmotion_inverse, p, span + 2) == dual_rowvacuation(
            rowvacuation(p)
        )


def test_classical_specializations():
    for n in range(2, 6):
        for p in enumerate_paths(Slope(1, 1, n)):
            assert rowmotion(p) == dyck1(p)
            assert rowvacuation(p) == dyck2(p)
            assert dual_rowvacuation(p) == evacuation_fast(dyck2(p))
            assert iterate(rowmotion, rowmotion_inverse, p, n) == evacuation_fast(p)
