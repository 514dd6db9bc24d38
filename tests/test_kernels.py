"""The kernels against small reference implementations.

Each reference is the direct form of the kernel's definition: build the
swapped path and see whether it is valid, search window lengths one by one,
intersect the slope line with the path in rationals, sum Bizley's formula
over partitions, grow and scan the matching map's candidates one element
at a time with a fresh admissibility parse per size, walk every set
partition and keep the non-crossing ones, and build chains from the
all-pairs refinement table.
"""

import math
import random
from fractions import Fraction

import pytest

from ratdyck.matching_map import (
    _grow_sequence,
    _height,
    _representing_length,
    _window_ups,
    admissible,
    k_sequence,
    mat,
    window_length,
)
from ratdyck.matchings import canonical_matching, pm, pm_inverse
from ratdyck.noncrossing import NonCrossingChain, enumerate_chains, enumerate_ncps, ncp
from ratdyck.paths import (
    RationalDyckPath,
    Slope,
    count_paths,
    count_paths_dp,
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


@pytest.mark.parametrize(
    "steps,message",
    [
        ((1, 2, 3), "expected 2 up steps, got 3"),
        ((2, 2), "step sequence must be strictly increasing: (2, 2)"),
        ((0, 2), "step positions must lie in [1,4]: (0, 2)"),
        ((1, 5), "step positions must lie in [1,4]: (1, 5)"),
        ((2, 3), "step 1 at position 2 exceeds bound 1"),
        ((1, 4), "step 2 at position 4 exceeds bound 3"),
        # breaks the order and the bound: the order is reported
        ((3, 1), "step sequence must be strictly increasing: (3, 1)"),
    ],
)
def test_constructor_messages(steps, message):
    with pytest.raises(ValueError) as info:
        RationalDyckPath(Slope(1, 1, 2), steps)
    assert str(info.value) == message


# -- counting ---------------------------------------------------------------

COUNT_SLOPES = [(1, 1), (1, 2), (2, 3), (3, 2), (3, 5)]


def _partition_multiplicities(n):
    """All ways to write n = sum j*k_j, as {j: k_j} with k_j >= 1."""
    out = []

    def rec(remaining, max_part, acc):
        if remaining == 0:
            out.append(dict(acc))
            return
        for j in range(min(max_part, remaining), 0, -1):
            acc[j] = acc.get(j, 0) + 1
            rec(remaining - j, j, acc)
            acc[j] -= 1
            if acc[j] == 0:
                del acc[j]

    rec(n, n, {})
    return out


def count_paths_reference(slope):
    """Bizley's formula as a sum over the partitions of n, in rationals."""
    a, b, n = slope.a, slope.b, slope.n
    coeff = [Fraction(0)] + [
        Fraction(math.comb((a + b) * j, a * j), j * (a + b)) for j in range(1, n + 1)
    ]
    total = Fraction(0)
    for counts in _partition_multiplicities(n):
        term = Fraction(1)
        for j, kj in counts.items():
            term *= coeff[j] ** kj / math.factorial(kj)
        total += term
    assert total.denominator == 1
    return int(total)


@pytest.mark.parametrize("a,b", COUNT_SLOPES)
def test_count_paths_matches_partition_sum(a, b):
    for n in range(1, 13):
        slope = Slope(a, b, n)
        assert count_paths(slope) == count_paths_reference(slope)


@pytest.mark.parametrize("a,b", COUNT_SLOPES)
def test_count_paths_matches_dp_beyond_partition_scale(a, b):
    slope = Slope(a, b, 60)
    assert count_paths(slope) == count_paths_dp(slope)


# -- the matching map -------------------------------------------------------


def grow_sequence_reference(start, pool, increasing):
    seq = [start]
    remaining = sorted(pool - {start})
    cur = start
    while remaining:
        if increasing:
            nxt = next((x for x in remaining if x > cur), remaining[0])
        else:
            nxt = next((x for x in reversed(remaining) if x < cur), remaining[-1])
        seq.append(nxt)
        remaining.remove(nxt)
        cur = nxt
    return seq


def represents_reference(slope, start, candidate):
    bn = slope.right_count
    start_key = (_height(slope, start), start > bn)
    return all((_height(slope, x), x > bn) < start_key for x in candidate if x != start)


def reference_entries(p):
    """For each valley entry: its candidate sequence, grown element by
    element, the blocks built before it, and the largest representing,
    admissible prefix, found by scanning every size bottom-up with a fresh
    ``admissible`` call each."""
    s = p.slope
    pool = set(range(1, s.total_steps + 1))
    built = []
    for entry in k_sequence(p).entries:
        start = entry.numeric(s)
        seq = grow_sequence_reference(start, pool, entry.barred)
        best = None
        for size in range(min(s.b // s.a + 1, len(seq)), len(seq) + 1):
            if represents_reference(s, start, seq[:size]) and admissible(s, seq[:size], built):
                best = size
        block = tuple(sorted(seq[:best]))
        yield seq, tuple(built), block
        built.append(block)
        pool.difference_update(block)


def mat_reference(p):
    built = [block for _, _, block in reference_entries(p)]
    return pm_inverse(canonical_matching(p.slope.total_steps, built), p.slope)


def random_path(slope, rng):
    """Each up step u_j uniform in [u_{j-1} + 1, step_bound(j)]."""
    steps = [0]
    for j in range(1, slope.up_count + 1):
        steps.append(rng.randint(steps[-1] + 1, slope.step_bound(j)))
    return RationalDyckPath(slope, tuple(steps[1:]))


# about 40 steps, where the admissibility parse nests deepest
MEMO_SLOPES = [(2, 3, 8), (3, 5, 5), (3, 2, 8)]


@pytest.mark.parametrize("a,b,n", [(1, 1, 7), (1, 2, 5), (2, 3, 3), (3, 2, 3), (3, 5, 2)])
def test_mat_matches_bottom_up_scan(a, b, n):
    for p in enumerate_paths(Slope(a, b, n)):
        assert mat(p) == mat_reference(p)


@pytest.mark.parametrize("a,b,n", MEMO_SLOPES)
def test_mat_matches_bottom_up_scan_on_random_paths(a, b, n):
    rng = random.Random(a * 100 + b * 10 + n)
    for _ in range(2):
        p = random_path(Slope(a, b, n), rng)
        assert mat(p) == mat_reference(p)


@pytest.mark.parametrize("a,b,n", MEMO_SLOPES)
def test_shared_memo_gives_fresh_verdicts(a, b, n):
    # one memo per entry, shared over every prefix of its sequence in a
    # shuffled order, so verdicts stored for one candidate are read back
    # for others, larger and smaller
    slope = Slope(a, b, n)
    rng = random.Random(a * 1000 + b * 100 + n)
    p = random_path(slope, rng)
    for seq, built, _ in reference_entries(p):
        sizes = list(range(1, len(seq) + 1))
        rng.shuffle(sizes)
        memo = {}
        for size in sizes:
            shared = admissible(slope, seq[:size], built, memo)
            assert shared == admissible(slope, seq[:size], built), (p, seq[:size], built)


def test_grow_sequence_matches_linear_loop():
    rng = random.Random(20261018)
    for _ in range(300):
        pool = set(rng.sample(range(1, 61), rng.randint(1, 30)))
        start = rng.choice(sorted(pool))
        for increasing in (True, False):
            assert _grow_sequence(start, pool, increasing) == grow_sequence_reference(
                start, pool, increasing
            )


def test_representing_length_matches_prefix_scan():
    # (3,2) and (5,3) give barred positions of equal height, where the
    # entry must lose the tie
    rng = random.Random(7)
    for a, b, n in [(1, 2, 4), (3, 2, 3), (5, 3, 2)]:
        slope = Slope(a, b, n)
        for _ in range(200):
            seq = rng.sample(range(1, slope.total_steps + 1), rng.randint(1, slope.total_steps))
            longest = max(
                size for size in range(1, len(seq) + 1)
                if represents_reference(slope, seq[0], seq[:size])
            )
            assert _representing_length(slope, seq) == longest


# -- partitions and chains --------------------------------------------------


def enumerate_ncps_reference(n):
    """Every set partition of [1, n], as the walk that puts x into each open
    block and then into a new one, keeping the non-crossing ones."""
    out = []

    def rec(partial, x):
        if x > n:
            try:
                out.append(ncp(n, [tuple(b) for b in partial]))
            except ValueError:
                pass
            return
        for b in partial:
            b.append(x)
            rec(partial, x + 1)
            b.pop()
        partial.append([x])
        rec(partial, x + 1)
        partial.pop()

    rec([], 1)
    return tuple(out)


@pytest.mark.parametrize("n", range(0, 9))
def test_enumerate_ncps_matches_set_partition_walk(n):
    assert enumerate_ncps(n) == enumerate_ncps_reference(n)


def enumerate_chains_reference(n, k):
    parts = enumerate_ncps(n)
    finer = {p: [q for q in parts if q.refines(p)] for p in parts}
    out = []

    def rec(acc):
        if len(acc) == k:
            out.append(NonCrossingChain(k, tuple(acc)))
            return
        for q in finer[acc[-1]]:
            rec(acc + [q])

    for p in parts:
        rec([p])
    return tuple(out)


@pytest.mark.parametrize("n,k", [(n, 1) for n in range(1, 8)] + [(n, 2) for n in range(1, 6)])
def test_enumerate_chains_matches_refinement_table(n, k):
    assert enumerate_chains(n, k) == enumerate_chains_reference(n, k)
