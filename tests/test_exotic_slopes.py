"""Regression sweep over slope families outside the default domains.

The general-slope code paths (window admissibility, negative-rank sweeps,
slope-line intersections) must not be tuned to the default families, so a
spread of other coprime slopes is exercised end to end.
"""

import pytest

from ratdyck.matchings import bar, pm
from ratdyck.matching_map import mat, mat_inverse
from ratdyck.paths import Slope, count_paths, count_paths_dp, enumerate_paths, iterate
from ratdyck.promotion import (
    dual_evacuation_fast,
    dual_promotion,
    evacuation_fast,
    promotion,
)
from ratdyck.rowmotion import rowmotion, rowmotion_structural


@pytest.mark.parametrize(
    "a,b,n",
    [
        (3, 4, 2), (4, 3, 2), (5, 2, 2), (5, 3, 1), (3, 5, 2), (4, 5, 1),
        (5, 4, 1), (1, 4, 3), (4, 1, 3), (1, 5, 2), (5, 1, 2), (2, 7, 1),
        (7, 2, 1), (3, 7, 1), (7, 3, 1),
    ],
)
def test_core_maps_on_exotic_slopes(a, b, n):
    slope = Slope(a, b, n)
    paths = enumerate_paths(slope)
    assert len(paths) == count_paths(slope) == count_paths_dp(slope)
    for p in paths:
        q = mat(p)
        assert mat_inverse(q) == p
        assert mat(rowmotion(p)) == dual_promotion(q)
        assert rowmotion(p) == rowmotion_structural(p)
        assert pm(evacuation_fast(p)) == bar(pm(p))
        assert iterate(promotion, dual_promotion, p, slope.total_steps) == dual_evacuation_fast(
            evacuation_fast(p)
        )
