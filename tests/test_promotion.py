import types

import pytest

import ratdyck
from ratdyck.paths import Slope, enumerate_paths, iterate, path_from_steps, star_path, top_path
from ratdyck.promotion import (
    dual_evacuation,
    dual_evacuation_by_star,
    dual_evacuation_fast,
    dual_promotion,
    evacuation,
    evacuation_fast,
    promotion,
    toggle,
)

P2357 = path_from_steps(Slope(2, 3, 2), [1, 2, 5, 7])


def s(p):
    return "".join(str(u) for u in p.steps)


def test_toggle_worked_examples():
    assert s(toggle(2, P2357)) == "1357"
    assert s(toggle(4, P2357)) == "1247"
    assert s(toggle(5, P2357)) == "1267"
    assert s(toggle(6, P2357)) == "1256"
    assert s(toggle(7, P2357)) == "1258"
    for i in (1, 3, 8, 9):
        assert toggle(i, P2357) == P2357
    with pytest.raises(ValueError):
        toggle(10, P2357)


def test_toggle_involution():
    for p in enumerate_paths(Slope(1, 2, 3)):
        for i in range(1, 9):
            assert toggle(i, toggle(i, p)) == p


def test_promotion_worked_examples():
    assert s(promotion(P2357)) == "1346"
    assert s(dual_promotion(P2357)) == "1368"
    orb = ["147", "136", "125"]
    for src, dst in zip(orb, orb[1:] + orb[:1]):
        p = path_from_steps(Slope(1, 2, 3), [int(c) for c in src])
        assert s(promotion(p)) == dst


def test_evacuation_worked_examples():
    assert s(evacuation(P2357)) == "1238"
    assert s(dual_evacuation(P2357)) == "1247"
    assert s(evacuation_fast(P2357)) == "1238"
    assert s(dual_evacuation_fast(P2357)) == "1247"
    # the classical top path is an evacuation fixed point; for k >= 2 the
    # reference pairing sends the top path 123 to 135 instead
    assert evacuation_fast(top_path(Slope(1, 1, 4))) == top_path(Slope(1, 1, 4))
    assert s(evacuation_fast(top_path(Slope(1, 2, 3)))) == "135"


@pytest.mark.parametrize("a,b,n", [(1, 1, 5), (1, 2, 3), (1, 3, 2), (2, 3, 2), (3, 2, 2)])
def test_fast_forms_match_toggle_forms(a, b, n):
    for p in enumerate_paths(Slope(a, b, n)):
        assert evacuation(p) == evacuation_fast(p)
        assert dual_evacuation(p) == dual_evacuation_fast(p)
        assert dual_evacuation(p) == dual_evacuation_by_star(p)


@pytest.mark.parametrize("a,b,n", [(1, 1, 5), (1, 2, 4), (2, 3, 2), (2, 5, 2)])
def test_operator_relations(a, b, n):
    slope = Slope(a, b, n)
    for p in enumerate_paths(slope):
        assert dual_promotion(promotion(p)) == p
        assert evacuation(evacuation(p)) == p
        assert dual_evacuation(dual_evacuation(p)) == p
        assert iterate(promotion, dual_promotion, p, slope.total_steps) == dual_evacuation_fast(
            evacuation_fast(p)
        )
        assert evacuation_fast(promotion(p)) == dual_promotion(evacuation_fast(p))


def test_classical_evacuation_is_star():
    for n in range(1, 6):
        for p in enumerate_paths(Slope(1, 1, n)):
            assert evacuation_fast(p) == star_path(p)
            assert dual_evacuation_fast(p) == star_path(p)


def test_package_names_the_submodules():
    assert isinstance(ratdyck.promotion, types.ModuleType)
    assert isinstance(ratdyck.rowmotion, types.ModuleType)
    assert ratdyck.promotion.promotion is promotion
