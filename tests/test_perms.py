from fractions import Fraction

import pytest

from ratdyck.matchings import canonical_matching, pm
from ratdyck.paths import Slope, enumerate_paths, path_from_word, top_path
from ratdyck.perms import (
    Permutation321,
    dyck1,
    dyck2,
    dyck3,
    e_p,
    e_p_inverse,
    e_q,
    e_v,
    e_w,
    enumerate_321_avoiding,
    parse_permutation,
    pm_cross,
    pm_cross_path,
    rsk_hat,
    rsk_path,
    rsk_two_row,
)
from ratdyck.promotion import dual_promotion, evacuation_fast
from ratdyck.rowmotion import partial_rowvacuation, rowmotion


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation321((3, 2, 1))
    with pytest.raises(ValueError):
        Permutation321((1, 1, 2))
    assert parse_permutation("24153").values == (2, 4, 1, 5, 3)
    assert parse_permutation("2,4,1,5,3").values == (2, 4, 1, 5, 3)


def test_enumeration_is_catalan():
    assert [len(enumerate_321_avoiding(n)) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]


def test_grid_paths_of_13425():
    w = Permutation321((1, 3, 4, 2, 5))
    assert e_p(w).word == "URUURURRUR"
    assert e_v(w).word == "UURUURRURR"
    assert e_q(w).word == "UUURRUURRR"
    assert e_w(w).word == "URUUURRRUR"


def test_peak_path_of_identity():
    n = 4
    w = Permutation321(tuple(range(1, n + 1)))
    assert e_p(w).word == "URURURUR"


def test_e_p_inverse_completion():
    p = path_from_word(Slope(1, 1, 5), "UURUURURRR")
    w = e_p_inverse(p)
    assert e_p(w) == p
    assert w.values == (2, 4, 5, 1, 3)


@pytest.mark.parametrize("n", range(1, 8))
def test_rothe_roundtrip_and_involutions(n):
    for p in enumerate_paths(Slope(1, 1, n)):
        assert e_p(e_p_inverse(p)) == p
        assert dyck2(dyck2(p)) == p
        assert dyck3(dyck3(p)) == p


def test_transpose_path_is_inverse_peak_path():
    for n in range(1, 7):
        for w in enumerate_321_avoiding(n):
            assert e_w(w) == e_p(w.inverse())


def test_valley_map_examples():
    p = path_from_word(Slope(1, 1, 5), "URUURURRUR")
    assert dyck1(p).word == "UURUURRURR"
    assert dyck3(p).word == "URUUURRRUR"
    assert dyck3(path_from_word(Slope(1, 1, 5), "URUUURRRUR")).word == "URUURURRUR"
    assert dyck2(top_path(Slope(1, 1, 4))).word == "URURURUR"


def test_rsk_examples():
    w = Permutation321((1, 3, 5, 2, 4))
    ins, rec = rsk_two_row(w)
    assert ins == [[1, 2, 4], [3, 5]] and rec == [[1, 2, 3], [4, 5]]
    assert rsk_hat(w).steps == (1, 2, 4, 6, 7)
    ident = Permutation321((1, 2, 3, 4))
    assert rsk_hat(ident) == top_path(Slope(1, 1, 4))
    # a third insertion row can only come from a forbidden pattern
    with pytest.raises(ValueError):
        Permutation321((3, 2, 1, 4))


def test_pm_cross_examples():
    w = Permutation321((3, 1, 4, 2, 5))
    assert pm_cross(w).blocks == ((1, 4), (2, 3), (5, 6), (7, 8), (9, 10))
    assert pm_cross_path(w) == rsk_hat(w)
    ident = Permutation321((1, 2, 3, 4))
    assert pm_cross(ident).blocks == ((1, 8), (2, 7), (3, 6), (4, 5))
    unit = Permutation321((1,))
    assert pm_cross(unit) == canonical_matching(2, [(1, 2)])


def pm_cross_reference(w):
    """``pm_cross`` with each crossing point an exact ``Fraction``,
    x = (ac-bd)/((a+c)-(b+d)), ordered along each arc by (x, other arc)."""
    n = w.n
    arcs = sorted((w.values[n - i], n + i) for i in range(1, n + 1))
    crossings = [[] for _ in arcs]
    for i1, (a, c) in enumerate(arcs):
        for i2, (b, d) in enumerate(arcs):
            if i1 < i2 and a < b < c < d:
                x = Fraction(a * c - b * d, (a + c) - (b + d))
                crossings[i1].append((x, i2))
                crossings[i2].append((x, i1))
    for lst in crossings:
        lst.sort()

    def trace(start):
        arc = next(i for i, (a, c) in enumerate(arcs) if start in (a, c))
        going_right = arcs[arc][0] == start
        idx = 0 if going_right else len(crossings[arc]) - 1
        while 0 <= idx < len(crossings[arc]):
            x, other = crossings[arc][idx]
            previous = arc
            arc, going_right = other, not going_right
            at = crossings[arc].index((x, previous))
            idx = at + 1 if going_right else at - 1
        return arcs[arc][1] if going_right else arcs[arc][0]

    pairs, seen = [], set()
    for p in range(1, 2 * n + 1):
        if p not in seen:
            q = trace(p)
            seen.update((p, q))
            pairs.append((p, q))
    return canonical_matching(2 * n, pairs)


@pytest.mark.parametrize("n", range(1, 9))
def test_rsk_hat_equals_pm_cross(n):
    # and pm_cross, ordering crossings by integer cross-multiplication,
    # equals its Fraction form
    for w in enumerate_321_avoiding(n):
        assert pm(rsk_hat(w)) == pm_cross(w) == pm_cross_reference(w)


@pytest.mark.parametrize("n", range(1, 7))
def test_insertion_map_conjugations(n):
    for p in enumerate_paths(Slope(1, 1, n)):
        img = rsk_path(p)
        assert rsk_path(rowmotion(p)) == dual_promotion(img)
        assert rsk_path(partial_rowvacuation(p)) == evacuation_fast(img)
        assert rsk_path(dyck3(p)) == evacuation_fast(img)
        assert rsk_path(dyck2(p)) == evacuation_fast(dual_promotion(img))

