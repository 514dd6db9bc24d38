"""Toggles on step sequences and the four linear-extension operators.

The toggle t_i swaps the letters at positions i and i+1 when the result is
still a valid path.  In every toggle product the rightmost factor acts
first; this convention is pinned by the worked promotion of the (2,3)-path
1257 to 1346.

``toggle`` is the toggle API: one index applies one toggle, and a run of
indices (a range of step 1 or -1) applies their product on one up-step mask
through ``_toggle_runs``.  Promotion and dual promotion are each one
``toggle`` call over a run; evacuation and dual evacuation call
``_toggle_runs`` on their triangles of runs directly.  Both toggle kernels
build their images unchecked (``RationalDyckPath._caller_checked``): the
swap test each makes is the constructor's bound for the one step it moves,
and the rest of the path is the argument's, validated when that was built.
The matching formulas build validated paths.
"""

from __future__ import annotations

from bisect import bisect_left

from .matchings import dpm, pm
from .paths import RationalDyckPath, memo_image, star_path


def toggle(i: int | range, p: RationalDyckPath) -> RationalDyckPath:
    """Swap the letters at positions i and i+1 if the result is a path.

    Moving an up step earlier always keeps a path; moving one later keeps a
    path iff it stays within its step bound.  Returns ``p`` itself when
    nothing swaps.

    A run ``i`` (a nonempty range of step 1 or -1 inside [1, (a+b)n - 1])
    gives the product of its toggles, applied in the range's order, as one
    ``_toggle_runs`` pass with one build; ``_toggle_runs``' lemma covers its
    image.  It too returns ``p`` itself when nothing swaps.

    Lemma: the image of one index passes the constructor.  One up step
    moves, between positions i and i+1 of [1, (a+b)n], and the other letter
    there is a right step, so the steps keep their number and strict order.
    An up step moved left only lowers its position; the (j+1)-th moved right
    to i+1 is tested against step_bound(j+1) here.
    """
    s = p.slope
    if isinstance(i, range):
        inside = range(1, s.total_steps)
        if not (i and i.step in (1, -1) and i[0] in inside and i[-1] in inside):
            raise ValueError(f"toggle run {i} is not a nonempty range of step 1 or -1 "
                             f"in [1,{s.total_steps - 1}]")
        q = _toggle_runs(p, [i])
        return p if q.steps == p.steps else q
    if not 0 < i < (s.a + s.b) * s.n:
        raise ValueError(f"toggle index {i} outside [1,{s.total_steps - 1}]")
    steps = p.steps
    j = bisect_left(steps, i)  # up steps before position i
    up_here = j < len(steps) and steps[j] == i
    k = j + up_here  # index of the first up step after position i
    up_next = k < len(steps) and steps[k] == i + 1
    if up_here == up_next:
        return p
    if up_here:
        # a call, not inlined: the kernel tests loosen Slope.step_bound to
        # show that the routed images catch a loose toggle bound
        if i + 1 > s.step_bound(j + 1):
            return p
        return RationalDyckPath._caller_checked(s, steps[:j] + (i + 1,) + steps[j + 1 :])
    return RationalDyckPath._caller_checked(s, steps[:j] + (i,) + steps[j + 1 :])


@memo_image
def promotion(p: RationalDyckPath) -> RationalDyckPath:
    """The toggle product t_{N-1} ... t_1 (t_1 acts first), N = (a+b)n."""
    return toggle(range(1, p.slope.total_steps), p)


@memo_image
def dual_promotion(p: RationalDyckPath) -> RationalDyckPath:
    """The toggle product t_1 ... t_{N-1} (t_{N-1} acts first)."""
    return toggle(range(p.slope.total_steps - 1, 0, -1), p)


def _toggle_runs(p: RationalDyckPath, runs) -> RationalDyckPath:
    """Apply t_i for i in each run in turn (a range of step 1 or -1) to one
    up-step mask of ``p``, then build one path.  The swaps are ``toggle``'s:
    an up step moves left always, and the (j+1)-th moves right iff
    a(i-j) <= bj, where j (the up steps before i) is kept as i moves.

    Lemma: the image passes the constructor.  Every run lies in
    [1, (a+b)n - 1], so swaps keep the a*n up steps inside [1, (a+b)n], and
    read off a mask they are strictly increasing.  An up step moved left
    only lowers its position; the (j+1)-th moves right to i+1 only if
    a(i-j) <= bj, i.e. i+1 <= step_bound(j+1)."""
    a, b = p.slope.a, p.slope.b
    up = [False] * (p.slope.total_steps + 1)  # up[i]: position i holds an up step
    for u in p.steps:
        up[u] = True
    for run in runs:
        ascending = run.step > 0
        j = sum(up[: run.start])
        for i in run:
            if up[i] != up[i + 1] and (up[i + 1] or a * (i - j) <= b * j):
                up[i], up[i + 1] = up[i + 1], up[i]
            j += up[i] if ascending else -up[i - 1]
    return RationalDyckPath._caller_checked(p.slope, tuple(i for i, x in enumerate(up) if x))


@memo_image
def evacuation(p: RationalDyckPath) -> RationalDyckPath:
    """Evacuation as the triangular toggle product (truncated promotions)."""
    total = p.slope.total_steps
    return _toggle_runs(p, (range(1, top + 1) for top in range(total - 1, 0, -1)))


@memo_image
def dual_evacuation(p: RationalDyckPath) -> RationalDyckPath:
    total = p.slope.total_steps
    return _toggle_runs(p, (range(total - 1, low - 1, -1) for low in range(1, total)))


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


def dual_evacuation_by_star(p: RationalDyckPath) -> RationalDyckPath:
    """ev* as star-conjugated ev; used as a cross-check."""
    return star_path(evacuation(star_path(p)))
