import functools

import pytest

from ratdyck.paths import (
    Slope,
    enumerate_paths,
    iterate,
    lowest_path,
    path_from_steps,
    path_from_word,
    path_from_young_rows,
    top_path,
    young_rows,
)
from ratdyck.perms import dyck1, dyck2
from ratdyck.promotion import evacuation_fast
from ratdyck.rowmotion import (
    BoxRegion,
    _sweep,
    box_region,
    dual_rowvacuation,
    filter_of_path,
    partial_rowvacuation,
    path_of_filter,
    rank_toggle,
    rowmotion,
    rowmotion_inverse,
    rowmotion_structural,
    rowvacuation,
)


def s(p):
    return "".join(str(u) for u in p.steps)


@functools.cache
def cells_by_rank(region):
    """The cells of each rank, top row first."""
    by_rank = {}
    for i, length in enumerate(region.row_lengths, start=1):
        for j in range(1, length + 1):
            by_rank.setdefault(region.rank(i, j), []).append((i, j))
    return by_rank


def sweep_reference(p, ranks):
    """Toggle the ranks in order, one cell at a time; toggles of equal rank
    commute and are applied row by row from the top."""
    rows = list(young_rows(p))
    last = len(rows) - 1
    cells = cells_by_rank(box_region(p.slope))
    for r in ranks:
        for i, j in cells.get(r, ()):
            k = i - 1
            if j == rows[k] + 1:
                # addable iff the cell above is present (the one to the
                # left is, as rows are left-justified)
                if k == 0 or rows[k - 1] >= j:
                    rows[k] = j
            elif j == rows[k]:
                # removable iff the cell below is absent
                if k == last or rows[k + 1] <= j - 1:
                    rows[k] = j - 1
    return path_from_young_rows(p.slope, rows)


def check_sweeps_against_reference(p):
    """All six maps and every window [m, h], in both directions, against
    the cell-by-cell sweep."""
    region = box_region(p.slope)
    lo, hi = region.min_rank, region.max_rank
    assert rowmotion(p) == sweep_reference(p, range(hi, lo - 1, -1)), p
    assert rowmotion_inverse(p) == sweep_reference(p, range(lo, hi + 1)), p
    for r in range(lo, hi + 1):
        assert rank_toggle(r, p) == sweep_reference(p, [r]), (p, r)
    assert rowvacuation(p) == sweep_reference(
        p, [r for m in range(lo, hi + 1) for r in range(hi, m - 1, -1)]
    ), p
    assert dual_rowvacuation(p) == sweep_reference(
        p, [r for t in range(hi, lo - 1, -1) for r in range(lo, t + 1)]
    ), p
    assert partial_rowvacuation(p) == sweep_reference(
        p, [r for m in range(lo + 1, hi + 1) for r in range(hi, m - 1, -1)]
    ), p
    for h in range(lo, hi + 1):
        q = p
        for m in range(h, lo - 1, -1):
            q = sweep_reference(q, [m])  # p toggled at ranks h, h-1, ..., m
            assert _sweep(p, region, [(m, h)], True) == q, (p, m, h)
    for m in range(lo, hi + 1):
        q = p
        for h in range(m, hi + 1):
            q = sweep_reference(q, [h])  # p toggled at ranks m, m+1, ..., h
            assert _sweep(p, region, [(m, h)], False) == q, (p, m, h)


def test_region_ranks():
    region = BoxRegion(Slope(1, 3, 3))
    assert region.row_lengths == (6, 3, 0)
    assert region.max_rank == 5
    assert region.rank(1, 1) == 5 and region.rank(2, 1) == 4
    assert BoxRegion(Slope(1, 1, 4)).max_rank == 2
    # steep slopes have cells below rank zero
    assert BoxRegion(Slope(2, 1, 3)).min_rank < 0


SWEEP_SLOPES = [
    (1, 1, 6), (1, 2, 4), (2, 3, 3), (3, 2, 3), (3, 5, 2), (5, 3, 2), (2, 1, 4),
    # n = 1: the regions of (1,k) and (k,1) are empty, the others are not
    (1, 1, 1), (1, 3, 1), (3, 1, 1), (2, 3, 1), (3, 2, 1), (3, 5, 1), (5, 3, 1),
]


@pytest.mark.parametrize("a,b,n", SWEEP_SLOPES)
def test_min_rank_closed_form(a, b, n):
    region = BoxRegion(Slope(a, b, n))
    assert region.min_rank == min(cells_by_rank(region), default=region.max_rank)


@pytest.mark.parametrize("a,b,n", SWEEP_SLOPES)
def test_sweeps_match_reference(a, b, n):
    for p in enumerate_paths(Slope(a, b, n)):
        check_sweeps_against_reference(p)


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
