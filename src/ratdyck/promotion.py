"""Toggles on step sequences and the four linear-extension operators.

The toggle t_i swaps the letters at positions i and i+1 when the result is
still a valid path.  In every toggle product the rightmost factor acts
first; this convention is pinned by the worked promotion of the (2,3)-path
1257 to 1346.
"""

from __future__ import annotations

from bisect import bisect_left

from .matchings import dpm, pm
from .paths import RationalDyckPath, memo_image, star_path


def toggle(i: int, p: RationalDyckPath) -> RationalDyckPath:
    """Swap the letters at positions i and i+1 if the result is a path.

    Moving an up step earlier always keeps a path; moving one later keeps a
    path iff it stays within its step bound.  Returns ``p`` itself when
    nothing swaps.
    """
    s = p.slope
    if not 1 <= i <= s.total_steps - 1:
        raise ValueError(f"toggle index {i} outside [1,{s.total_steps - 1}]")
    steps = p.steps
    j = bisect_left(steps, i)  # up steps before position i
    up_here = j < len(steps) and steps[j] == i
    k = j + up_here  # index of the first up step after position i
    up_next = k < len(steps) and steps[k] == i + 1
    if up_here == up_next:
        return p
    if up_here:
        if i + 1 > s.step_bound(j + 1):
            return p
        return RationalDyckPath(s, steps[:j] + (i + 1,) + steps[j + 1 :])
    return RationalDyckPath(s, steps[:j] + (i,) + steps[j + 1 :])


@memo_image
def promotion(p: RationalDyckPath) -> RationalDyckPath:
    for i in range(1, p.slope.total_steps):
        p = toggle(i, p)
    return p


@memo_image
def dual_promotion(p: RationalDyckPath) -> RationalDyckPath:
    for i in range(p.slope.total_steps - 1, 0, -1):
        p = toggle(i, p)
    return p


@memo_image
def evacuation(p: RationalDyckPath) -> RationalDyckPath:
    """Evacuation as the triangular toggle product (truncated promotions)."""
    for top in range(p.slope.total_steps - 1, 0, -1):
        for i in range(1, top + 1):
            p = toggle(i, p)
    return p


@memo_image
def dual_evacuation(p: RationalDyckPath) -> RationalDyckPath:
    for low in range(1, p.slope.total_steps):
        for i in range(p.slope.total_steps - 1, low - 1, -1):
            p = toggle(i, p)
    return p


@memo_image
def evacuation_fast(p: RationalDyckPath) -> RationalDyckPath:
    """Evacuation read off the matching: steps are N+1-max(block)."""
    total = p.slope.total_steps
    steps = sorted(total + 1 - block[-1] for block in pm(p).blocks)
    return RationalDyckPath(p.slope, tuple(steps))


@memo_image
def dual_evacuation_fast(p: RationalDyckPath) -> RationalDyckPath:
    """Dual evacuation via the dual matching: remove the barred block minima."""
    total = p.slope.total_steps
    removed = {total + 1 - block[0] for block in dpm(p).blocks}
    steps = tuple(i for i in range(1, total + 1) if i not in removed)
    return RationalDyckPath(p.slope, steps)


@memo_image
def dual_evacuation_by_star(p: RationalDyckPath) -> RationalDyckPath:
    """ev* as star-conjugated ev; used as a cross-check."""
    return star_path(evacuation(star_path(p)))
