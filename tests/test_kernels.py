"""The per-path kernels against small reference implementations.

Each reference is the direct form of the kernel's definition: build the
swapped path and see whether it is valid, search window lengths one by one,
intersect the slope line with the path in rationals.
"""

import math
from fractions import Fraction

import pytest

from ratdyck.matching_map import _window_ups, window_length
from ratdyck.matchings import canonical_matching, pm
from ratdyck.paths import (
    RationalDyckPath,
    Slope,
    enumerate_paths,
    enumerate_words,
    word_above_line,
)
from ratdyck.promotion import toggle

SLOPES = [(1, 1, 6), (1, 2, 4), (2, 3, 3), (3, 2, 3), (3, 5, 2), (5, 3, 2)]


def toggle_reference(i, p):
    here = set(p.steps)
    if (i in here) == (i + 1 in here):
        return p
    try:
        return RationalDyckPath(p.slope, tuple(sorted(here ^ {i, i + 1})))
    except ValueError:
        return p


def window_ups_reference(slope, length):
    c = 1
    while window_length(slope, c) <= length:
        if window_length(slope, c) == length:
            return c
        c += 1
    return None


def pm_reference(p):
    """Each block: the up step and the unused rights up to the first point
    where the line of slope a/b from the up step's base meets the path."""
    s = p.slope
    a, b = s.a, s.b
    verts = p.vertices()
    unused = set(range(1, s.total_steps + 1)) - set(p.steps)
    blocks = []
    for m in range(s.up_count, 0, -1):
        u = p.steps[m - 1]
        x0, y0 = u - m, m - 1
        for k in range(u + 1, s.total_steps + 1):
            (x1, y1), (x2, y2) = verts[k - 1], verts[k]
            if y1 == y2:
                xs = Fraction(x0 * a + (y1 - y0) * b, a)
                if x1 <= xs <= x2:
                    bound = math.floor(xs) + y1
                    break
            else:
                ys = Fraction(y0 * b + (x1 - x0) * a, b)
                if y1 <= ys <= y2:
                    bound = x1 + ys
                    break
        members = {j for j in unused if u < j <= bound}
        unused -= members
        blocks.append([u, *members])
    return canonical_matching(s.total_steps, blocks)


@pytest.mark.parametrize("a,b,n", SLOPES)
def test_toggle_matches_construct_and_catch(a, b, n):
    slope = Slope(a, b, n)
    for p in enumerate_paths(slope):
        for i in range(1, slope.total_steps):
            got = toggle(i, p)
            assert got == toggle_reference(i, p)
            # no swap returns the very same object
            assert (got is p) == (got == p)


@pytest.mark.parametrize("a,b,n", SLOPES)
def test_window_ups_closed_form(a, b, n):
    slope = Slope(a, b, n)
    for length in range(-1, slope.total_steps + 1):
        assert _window_ups(slope, length) == window_ups_reference(slope, length)


@pytest.mark.parametrize("a,b,n", SLOPES)
def test_pm_matches_rational_intersection(a, b, n):
    for p in enumerate_paths(Slope(a, b, n)):
        assert pm(p) == pm_reference(p)


@pytest.mark.parametrize("a,b,n", [(2, 3, 2), (3, 2, 2)])
def test_constructor_rejects_every_invalid_step_set(a, b, n):
    slope = Slope(a, b, n)
    for word in enumerate_words(slope):
        if word_above_line(slope, word):
            assert RationalDyckPath(slope, word).steps == word
        else:
            with pytest.raises(ValueError):
                RationalDyckPath(slope, word)
