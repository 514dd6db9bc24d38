import pickle

import pytest

from ratdyck import noncrossing
from ratdyck.matchings import (
    PerfectMatching,
    bar,
    canonical_matching,
    dpm,
    parse_matching,
    pm,
    pm_inverse,
    rotate,
)
from ratdyck.noncrossing import NonCrossingPartition, ncp, ref_partition, rot_partition
from ratdyck.paths import Slope, enumerate_paths, path_from_steps, path_from_word, star_path
from ratdyck.promotion import evacuation_fast, promotion


def blocks(m):
    return m.blocks


def test_pm_worked_examples():
    assert blocks(pm(path_from_steps(Slope(1, 1, 3), [1, 2, 5]))) == (
        (1, 4), (2, 3), (5, 6),
    )
    assert blocks(pm(path_from_steps(Slope(2, 3, 2), [1, 2, 5, 7]))) == (
        (1, 4, 10), (2, 3), (5, 6, 9), (7, 8),
    )
    assert blocks(pm(path_from_steps(Slope(1, 2, 3), [1, 3, 5]))) == (
        (1, 2, 9), (3, 4, 8), (5, 6, 7),
    )


def test_pm_inverse_examples():
    m = canonical_matching(9, [(1, 2, 3), (4, 5, 9), (6, 7, 8)])
    assert pm_inverse(m, Slope(1, 2, 3)).steps == (1, 4, 6)
    m = canonical_matching(6, [(1, 4), (2, 3), (5, 6)])
    assert pm_inverse(m, Slope(1, 1, 3)).steps == (1, 2, 5)
    with pytest.raises(ValueError):
        pm_inverse(canonical_matching(6, [(1, 2), (3, 6), (4, 5)]), Slope(1, 2, 2))


@pytest.mark.parametrize("a,b,n", [(1, 2, 3), (1, 2, 4), (2, 3, 2)])
def test_pm_roundtrip(a, b, n):
    slope = Slope(a, b, n)
    for p in enumerate_paths(slope):
        assert pm_inverse(pm(p), slope) == p


def test_dpm_examples():
    assert blocks(dpm(path_from_steps(Slope(2, 3, 2), [1, 2, 5, 7]))) == (
        (1, 10), (2, 4), (3,), (5, 7, 9), (6,), (8,),
    )
    p = path_from_steps(Slope(1, 1, 3), [1, 2, 5])
    assert dpm(p) == pm(p)
    assert blocks(dpm(path_from_steps(Slope(1, 2, 1), [1]))) == ((1, 3), (2,))


def test_bar_examples():
    m = canonical_matching(10, [(1, 4, 10), (2, 3), (5, 6, 9), (7, 8)])
    assert blocks(bar(m)) == ((1, 7, 10), (2, 5, 6), (3, 4), (8, 9))
    assert bar(bar(m)) == m
    unit = canonical_matching(2, [(1, 2)])
    assert bar(unit) == unit


def test_rotate_examples():
    m = canonical_matching(6, [(1, 2), (3, 4), (5, 6)])
    assert blocks(rotate(m)) == ((1, 6), (2, 3), (4, 5))
    r = m
    for _ in range(6):
        r = rotate(r)
    assert r == m
    p135 = path_from_steps(Slope(1, 1, 3), [1, 3, 5])
    assert pm(promotion(p135)) == rotate(pm(p135))


@pytest.mark.parametrize("k,nmax", [(1, 5), (2, 5), (3, 5)])
def test_pm_promotion_is_rotation(k, nmax):
    for n in range(1, nmax + 1):
        for p in enumerate_paths(Slope(1, k, n)):
            assert pm(promotion(p)) == rotate(pm(p))


@pytest.mark.parametrize("a,b,n", [(1, 1, 4), (1, 2, 3), (2, 3, 2), (3, 2, 2)])
def test_pm_evacuation_is_bar(a, b, n):
    for p in enumerate_paths(Slope(a, b, n)):
        assert pm(evacuation_fast(p)) == bar(pm(p))


@pytest.mark.parametrize("k,n", [(1, 4), (2, 3), (3, 2)])
def test_unit_slope_block_sizes(k, n):
    for p in enumerate_paths(Slope(1, k, n)):
        assert all(len(b) == k + 1 for b in pm(p).blocks)


@pytest.mark.parametrize("a,b,n", [(2, 1, 2), (3, 2, 2), (3, 1, 2)])
def test_steep_slope_singletons(a, b, n):
    for p in enumerate_paths(Slope(a, b, n)):
        assert any(len(b) == 1 for b in pm(p).blocks)


def test_negative_control_rot_fails_for_steep_slopes():
    # the promoted matching is NOT the rotation for a >= 2
    slope = Slope(2, 3, 1)
    p12 = path_from_steps(slope, [1, 2])
    p13 = path_from_steps(slope, [1, 3])
    assert blocks(pm(p12)) == ((1, 4, 5), (2, 3))
    assert blocks(pm(p13)) == ((1, 2, 5), (3, 4))
    assert promotion(p12) == p13
    assert rotate(pm(p13)) == pm(p12)
    assert pm(promotion(p12)) != rotate(pm(p12))


def test_matching_validation_and_parse():
    with pytest.raises(ValueError):
        PerfectMatching(4, ((1, 3), (2, 4)))  # crossing
    with pytest.raises(ValueError):
        PerfectMatching(4, ((1, 2), (3,)))  # not a partition
    m = parse_matching("{1,4,10},{2,3},{5,6,9},{7,8}", 10)
    assert str(m) == "{1,4,10},{2,3},{5,6,9},{7,8}"
    assert m.to_json() == [[1, 4, 10], [2, 3], [5, 6, 9], [7, 8]]


def test_matching_is_a_partition_but_never_equals_one():
    m = canonical_matching(6, [(1, 2), (3, 4), (5, 6)])
    q = ncp(6, [(1, 2), (3, 4), (5, 6)])
    assert isinstance(m, NonCrossingPartition) and m.ground_size == m.n == 6
    assert m != q and q != m
    # rotation and reflection are the partition relabellings, kept a matching
    assert type(rotate(m)) is type(bar(m)) is PerfectMatching
    assert rotate(m).blocks == rot_partition(q).blocks
    assert bar(m).blocks == ref_partition(q).blocks
    assert str(m) == "{1,2},{3,4},{5,6}" and str(q) == "1.2/3.4/5.6"


def test_dpm_validates_one_matching(monkeypatch):
    # the matching kernels and the dihedral relabels build their matchings
    # unchecked, by the lemmas in their docstrings (tests/test_kernels.py
    # routes them through the validator); parsing still validates once
    calls = []
    rule = noncrossing.broken_block_rule
    monkeypatch.setattr(noncrossing, "broken_block_rule",
                        lambda blocks, n: calls.append(n) or rule(blocks, n))
    p = path_from_steps(Slope(2, 3, 2), [1, 2, 5, 7])
    m = pm(p)
    assert dpm(p) == bar(pm(star_path(p))) and rotate(m) != m
    assert calls == []
    parse_matching("{1,4,10},{2,3},{5,6,9},{7,8}", 10)
    assert calls == [10]


def test_an_unchecked_matching_is_validated_when_unpickled():
    m = PerfectMatching._caller_checked(4, ((1, 2), (3, 4)))
    assert m == parse_matching("{1,2},{3,4}", 4) and hash(m) == hash(parse_matching("{1,2},{3,4}", 4))
    assert pickle.loads(pickle.dumps(m)) == m
    crossing = PerfectMatching._caller_checked(4, ((1, 3), (2, 4)))
    with pytest.raises(ValueError, match="blocks are crossing"):
        pickle.loads(pickle.dumps(crossing))
