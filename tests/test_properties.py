"""Seeded property tests on random paths beyond the sizes that enumeration
reaches.

A random path draws each up step u_j uniformly from [u_{j-1} + 1,
step_bound(j)]; every draw is a valid path, though not a uniform one.  The
matching map runs at about 40-60 steps on five slopes, at 160 steps on
(1,1) and (2,3) and at 2,000-4,000 steps on four slopes, the rank sweeps at about 80 steps on six slopes; every
other property runs at size 20-40.
"""

import random

import pytest

from ratdyck.matching_map import mat, mat_inverse
from ratdyck.matchings import pm, pm_inverse
from ratdyck.paths import RationalDyckPath, Slope
from ratdyck.promotion import evacuation, evacuation_fast
from ratdyck.rowmotion import dual_rowvacuation, rowmotion, rowmotion_structural, rowvacuation
from test_rowmotion import check_sweeps_against_reference

MAP_SLOPES = [(1, 1, 40), (1, 2, 20), (2, 3, 20), (3, 5, 20), (3, 2, 20)]
MAT_SLOPES = [(1, 1, 20), (1, 2, 20), (2, 3, 12), (3, 5, 8), (3, 2, 12), (1, 1, 80), (2, 3, 32),
              (1, 1, 2000), (2, 3, 400), (3, 5, 250), (1, 3, 500)]
SWEEP_SLOPES = [(1, 1, 40), (1, 2, 27), (2, 3, 16), (3, 2, 16), (3, 5, 10), (5, 3, 10)]


def random_paths(a, b, n, count, seed):
    slope = Slope(a, b, n)
    rng = random.Random(seed)
    paths = []
    for _ in range(count):
        steps = [0]
        for j in range(1, slope.up_count + 1):
            steps.append(rng.randint(steps[-1] + 1, slope.step_bound(j)))
        paths.append(RationalDyckPath(slope, tuple(steps[1:])))
    return paths


@pytest.mark.parametrize("a,b,n", MAP_SLOPES)
def test_random_path_properties(a, b, n):
    for p in random_paths(a, b, n, 3, seed=a * 100 + b * 10 + n):
        assert rowmotion(p) == rowmotion_structural(p)
        assert rowvacuation(rowvacuation(p)) == p
        assert dual_rowvacuation(dual_rowvacuation(p)) == p
        assert pm_inverse(pm(p), p.slope) == p
        assert evacuation(p) == evacuation_fast(p)


@pytest.mark.parametrize("a,b,n", MAT_SLOPES)
def test_random_path_mat_roundtrips(a, b, n):
    for p in random_paths(a, b, n, 2, seed=a * 100 + b * 10 + n):
        assert mat_inverse(mat(p)) == p
        assert mat(mat_inverse(p)) == p


@pytest.mark.parametrize("a,b,n", SWEEP_SLOPES)
def test_random_path_sweeps(a, b, n):
    for p in random_paths(a, b, n, 2, seed=a * 100 + b * 10 + n):
        check_sweeps_against_reference(p)
