"""The kernels against small reference implementations.

Each reference is the direct form of the kernel's definition: build the
swapped path and see whether it is valid, search window lengths one by one,
intersect the slope line with the path in rationals, sum Bizley's formula
over partitions, grow and scan the matching map's candidates one element
at a time with a fresh admissibility parse per size that searches every
sub-window in full, search every assignment of valley values for the
inverse, test every pair of blocks for a crossing, walk every set
partition and keep the non-crossing ones, build chains from the all-pairs
refinement table, invert the Kreweras complement by applying it 2n - 1
times, validate blocks by four separate checks, and tabulate orbits with
every path keyed by its name.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from ratdyck import registry
from ratdyck.matching_map import (
    _grow_sequence,
    _height,
    _representing_length,
    _window_ups,
    admissible,
    drop_spans,
    k_sequence,
    mat,
    mat_inverse,
    window_length,
)
from ratdyck.matchings import PerfectMatching, canonical_matching, pm, pm_inverse
from ratdyck.noncrossing import (
    NonCrossingChain,
    NonCrossingPartition,
    broken_block_rule,
    enumerate_chains,
    enumerate_ncps,
    is_noncrossing,
    kre,
    kre_inverse,
    ncp,
)
from ratdyck.paths import (
    RationalDyckPath,
    Slope,
    count_paths,
    count_paths_dp,
    enumerate_paths,
    enumerate_words,
    image_scope,
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


def window_reference(slope, tags, i, j, c_total, own, verdicts):
    """Whether [i, j] parses as one complete window of ``c_total`` up steps
    rooted at i, owning the positions tagged ``own``: the recursive parse in
    full, with no window accepted unparsed.  ``verdicts`` caches sub-windows
    for one fixed ``tags``."""
    a, b = slope.a, slope.b
    seen = set()

    def sub_window(pos, q, c_sub):
        if (pos, q) not in verdicts:
            kind, idx = tags[pos]
            span = range(pos + 1, q + 1)
            if any(tags[x] == ("C", -1) for x in span):
                verdicts[pos, q] = False
            elif kind == "U":
                rights = [x for x, tag in tags.items() if tag == ("R", idx)]
                verdicts[pos, q] = all(x <= q for x in rights) and window_reference(
                    slope, tags, pos, q, c_sub, ("R", idx), verdicts
                )
            else:
                verdicts[pos, q] = window_reference(slope, tags, pos, q, c_sub, ("F", -1), verdicts)
        return verdicts[pos, q]

    def rec(pos, ups, after_open_return):
        if pos > j:
            return ups == c_total - 1
        if (pos, ups, after_open_return) in seen:
            return False
        seen.add((pos, ups, after_open_return))
        kind, idx = tags[pos]
        if (kind, idx) == own:
            if (pos == j or b * (1 + ups) > a * (pos - i - ups)) and rec(pos + 1, ups, False):
                return True
        if kind in ("U", "F") and not after_open_return:
            c_sub = 1
            while (q := pos + window_length(slope, c_sub) - 1) <= j:
                ups2 = ups + c_sub
                if (
                    sub_window(pos, q, c_sub)
                    and (q == j or b * (1 + ups2) > a * (q - i - ups2))
                    and rec(q + 1, ups2, (b * c_sub) % a != 0)
                ):
                    return True
                c_sub += 1
        return False

    return rec(i + 1, 0, False)


def admissible_reference(slope, candidate, built=()):
    """The candidate's span tagged afresh (root, candidate rights, built up
    steps and rights, free), then parsed in full by ``window_reference``."""
    cand = sorted(set(candidate))
    lo, hi = cand[0], cand[-1]
    inside = []
    for block in built:
        block = tuple(sorted(block))
        if lo <= block[0] and block[-1] <= hi:
            inside.append(block)
        elif any(lo <= x <= hi for x in block):
            return False
    tags = {pos: ("F", -1) for pos in range(lo, hi + 1)}
    for idx, block in enumerate(inside):
        tags[block[0]] = ("U", idx)
        for x in block[1:]:
            tags[x] = ("R", idx)
    for x in cand[1:]:
        tags[x] = ("C", -1)
    tags[lo] = ("root", -1)
    c_top = window_ups_reference(slope, hi - lo + 1)
    if c_top is None:
        return False
    future_needed = c_top - 1 - len(inside)
    if future_needed < 0 or future_needed > slope.up_count - len(built) - 1:
        return False
    return window_reference(slope, tags, lo, hi, c_top, ("C", -1), {})


def reference_entries(p):
    """For each valley entry: its candidate sequence, grown element by
    element, the blocks built before it, and the largest representing,
    admissible prefix, found by scanning every size bottom-up with a fresh
    ``admissible_reference`` call each."""
    s = p.slope
    pool = set(range(1, s.total_steps + 1))
    built = []
    for entry in k_sequence(p).entries:
        start = entry.numeric(s)
        seq = grow_sequence_reference(start, pool, entry.barred)
        best = None
        for size in range(min(s.b // s.a + 1, len(seq)), len(seq) + 1):
            if represents_reference(s, start, seq[:size]) and admissible_reference(
                s, seq[:size], built
            ):
                best = size
        block = tuple(sorted(seq[:best]))
        yield seq, tuple(built), block
        built.append(block)
        pool.difference_update(block)


def mat_reference(p):
    built = [block for _, _, block in reference_entries(p)]
    return pm_inverse(canonical_matching(p.slope.total_steps, built), p.slope)


def mat_inverse_reference(q):
    """Every assignment of the selected valley values to the rows, searched
    exhaustively; the path if exactly one assignment gives one."""
    s = q.slope
    bn, an = s.right_count, s.up_count
    selections = []
    for block in pm(q).blocks:
        best = max(block, key=lambda pos: (_height(s, pos), pos > bn))
        selections.append((s.total_steps + 1 - best, True) if best > bn else (best, False))
    barred_rows = {v for v, barred in selections if barred}
    values = [v for v, barred in selections if not barred]
    solutions = []

    def rec(m, prev, remaining, acc):
        if m > an:
            if not remaining:
                solutions.append(tuple(acc))
            return
        if an + 1 - m in barred_rows:
            candidates = [(prev + 1, remaining)]
        elif m == 1:
            candidates = []
        else:
            candidates = [
                (bn - v + 1 + m, remaining[:idx] + remaining[idx + 1 :])
                for idx, v in enumerate(remaining)
                if bn - v + 1 + m > prev + 1
            ]
        for u, rest in candidates:
            if u <= s.step_bound(m):
                rec(m + 1, u, rest, acc + [u])

    rec(1, 0, values, [])
    if len(solutions) != 1:
        raise ValueError(f"{len(solutions)} reconstructions")
    return RationalDyckPath(s, solutions[0])


def random_path(slope, rng):
    """Each up step u_j uniform in [u_{j-1} + 1, step_bound(j)]."""
    steps = [0]
    for j in range(1, slope.up_count + 1):
        steps.append(rng.randint(steps[-1] + 1, slope.step_bound(j)))
    return RationalDyckPath(slope, tuple(steps[1:]))


MAT_DESK_SLOPES = [(1, 1, 7), (1, 2, 5), (2, 3, 3), (3, 2, 3), (3, 5, 2)]
# about 40 steps, where the admissibility parse nests deepest
MEMO_SLOPES = [(2, 3, 8), (3, 5, 5), (3, 2, 8)]


@pytest.mark.parametrize("a,b,n", MAT_DESK_SLOPES)
def test_mat_matches_bottom_up_scan(a, b, n):
    for p in enumerate_paths(Slope(a, b, n)):
        assert mat(p) == mat_reference(p)


@pytest.mark.parametrize("a,b,n", MEMO_SLOPES)
def test_mat_matches_bottom_up_scan_on_random_paths(a, b, n):
    rng = random.Random(a * 100 + b * 10 + n)
    for _ in range(2):
        p = random_path(Slope(a, b, n), rng)
        assert mat(p) == mat_reference(p)


@pytest.mark.parametrize("a,b,n", MAT_DESK_SLOPES)
def test_mat_inverse_matches_exhaustive_search(a, b, n):
    for p in enumerate_paths(Slope(a, b, n)):
        assert mat_inverse(p) == mat_inverse_reference(p)


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 3), (3, 2), (3, 5), (5, 3)])
def test_all_free_windows_parse(a, b):
    # the lemma behind accepting an all-free sub-window unparsed
    slope = Slope(a, b, 40)
    for length in range(1, 41):
        c = window_ups_reference(slope, length)
        if c is not None:
            tags = {pos: ("F", -1) for pos in range(length)}
            assert window_reference(slope, tags, 0, length - 1, c, ("F", -1), {}), length


@pytest.mark.parametrize("a,b,n", MEMO_SLOPES)
def test_shared_memo_gives_fresh_verdicts(a, b, n):
    # one memo for the whole path, as in mat: every prefix of each entry's
    # sequence is asked in a shuffled order, so verdicts stored for one
    # candidate are read back for others, larger and smaller, and for the
    # entries after it once drop_spans has pruned the built block's spans
    slope = Slope(a, b, n)
    rng = random.Random(a * 1000 + b * 100 + n)
    p = random_path(slope, rng)
    memo = {}
    for seq, built, block in reference_entries(p):
        sizes = list(range(1, len(seq) + 1))
        rng.shuffle(sizes)
        for size in sizes:
            shared = admissible(slope, seq[:size], built, memo)
            assert shared == admissible(slope, seq[:size], built), (p, seq[:size], built)
        drop_spans(memo, block)


@pytest.mark.parametrize("a,b,n", [(3, 2, 3), (2, 3, 3), (3, 5, 2), (5, 3, 2)])
def test_memo_replay_across_entries(a, b, n):
    # one memo carried over every entry of a path, asked about the prefixes
    # of the cyclic sequence from every free start in both directions and
    # checked against the full parse: more candidates than mat asks, enough
    # to read back spans that a later block lands in, so a memo that
    # drop_spans did not prune gives stale verdicts
    slope = Slope(a, b, n)
    rng = random.Random(a * 1000 + b * 100 + n)
    for _ in range(4):
        p = random_path(slope, rng)
        memo = {}
        for seq, built, block in reference_entries(p):
            pool = set(seq)
            candidates = [
                grown[:size]
                for start in pool
                for grown in (_grow_sequence(start, pool, True), _grow_sequence(start, pool, False))
                for size in range(1, len(grown) + 1)
            ]
            rng.shuffle(candidates)
            for cand in candidates:
                shared = admissible(slope, cand, built, memo)
                assert shared == admissible_reference(slope, cand, built), (p, cand, built)
            drop_spans(memo, block)


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


def noncrossing_reference(blocks):
    """No two elements of one block separate two elements of another."""
    for b1, b2 in itertools.combinations(blocks, 2):
        for i, k in itertools.combinations(b1, 2):
            if any(i < j < k for j in b2) and any(l < i or l > k for l in b2):
                return False
    return True


def set_partitions(n):
    """Every set partition of [1, n], as the walk that puts x into each open
    block and then into a new one; blocks sorted, ordered by minimum."""

    def rec(partial, x):
        if x > n:
            yield tuple(tuple(b) for b in partial)
            return
        for b in partial:
            b.append(x)
            yield from rec(partial, x + 1)
            b.pop()
        partial.append([x])
        yield from rec(partial, x + 1)
        partial.pop()

    return rec([], 1)


@pytest.mark.parametrize("n", range(0, 9))
def test_stack_scan_matches_pairwise_check(n):
    for blocks in set_partitions(n):
        assert is_noncrossing(blocks, n) == noncrossing_reference(blocks), blocks


def enumerate_ncps_reference(n):
    """The non-crossing set partitions of [1, n], in the walk's order."""
    return tuple(ncp(n, b) for b in set_partitions(n) if noncrossing_reference(b))


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


@pytest.mark.parametrize(
    "n,k",
    [(n, 1) for n in range(1, 8)] + [(n, 2) for n in range(1, 8)] + [(n, 3) for n in range(1, 7)],
)
def test_enumerate_chains_matches_refinement_table(n, k):
    assert enumerate_chains(n, k) == enumerate_chains_reference(n, k)


def kre_inverse_reference(chain):
    """kre has order 2n on chains of [1, n] (kre² = rot), so kre^(2n-1)."""
    for _ in range(2 * chain.n - 1):
        chain = kre(chain)
    return chain


@pytest.mark.parametrize("n,k", [(n, k) for k in (1, 2) for n in range(1, 8)])
def test_kre_inverse_matches_iterated_kre(n, k):
    # the scope shares kre's images along each orbit, so the iterated form
    # costs about one kre per chain
    with image_scope():
        for c in enumerate_chains(n, k):
            assert kre_inverse(c) == kre_inverse_reference(c), c


def test_kre_inverse_along_a_long_orbit():
    # quadruples 4i+1..4i+4 refined into nested pairs, 40 elements
    coarse = ncp(40, [range(i, i + 4) for i in range(1, 41, 4)])
    fine = ncp(40, [pair for i in range(1, 41, 4) for pair in ((i, i + 3), (i + 1, i + 2))])
    c = NonCrossingChain(2, (coarse, fine))
    for _ in range(80):
        assert kre_inverse(c) == kre_inverse_reference(c), c
        c = kre(c)


# -- block validation -------------------------------------------------------


def block_check_reference(blocks, n):
    """The first rule broken, by four separate checks in the order the
    constructors report them: partition, sorted, ordered, non-crossing."""
    elems = sorted(x for b in blocks for x in b)
    if elems != list(range(1, n + 1)):
        return 1
    if any(tuple(sorted(b)) != b for b in blocks):
        return 2
    if any(x[0] >= y[0] for x, y in zip(blocks, blocks[1:])):
        return 3
    if not noncrossing_reference(blocks):
        return 4
    return 0


def block_messages(blocks, n):
    """Each constructor's message for each rule, word for word."""
    return {
        PerfectMatching: (
            "blocks must partition the ground set",
            "block elements must be sorted ascending",
            "blocks must be ordered by minimum",
            f"blocks are crossing: {blocks}",
        ),
        NonCrossingPartition: (
            f"blocks must partition [1,{n}]",
            "block elements must be sorted",
            "blocks must be ordered by minimum",
            f"partition crosses: {blocks}",
        ),
    }


def assert_block_verdicts(blocks, n):
    # An empty block has no minimum, so it breaks the ordering rule.  The
    # separate ordering check crashed reading that minimum, or, given the
    # single block () of [1, 0], had no pair to compare and passed it.
    try:
        want = block_check_reference(blocks, n)
    except IndexError:
        want = 3
    if want == 0 and () in blocks:
        want = 3
    assert broken_block_rule(blocks, n) == want, (blocks, n)
    for cls, messages in block_messages(blocks, n).items():
        if want == 0:
            assert cls(n, blocks).blocks == blocks
        else:
            with pytest.raises(ValueError) as err:
                cls(n, blocks)
            assert str(err.value) == messages[want - 1], (cls, blocks, n)


@pytest.mark.parametrize("n", range(0, 8))
def test_block_rule_matches_separate_checks(n):
    for blocks in set_partitions(n):
        assert_block_verdicts(blocks, n)


def _corruptions(blocks, n):
    """Each way to break one rule: an unsorted block, a duplicate, an
    element out of range, a missing element, misordered blocks, an empty
    block, and a list given as a block."""
    out = []
    for i, b in enumerate(blocks):
        rest = lambda new: blocks[:i] + new + blocks[i + 1:]
        if len(b) > 1:
            out.append(rest((b[::-1],)))
            out.append(rest((b[1:],)))
        else:
            out.append(rest(()))
        for x in (0, -1, n + 1) + b[:1]:
            out.append(rest((tuple(sorted(b + (x,))),)))
        out.append(rest((list(b),)))
        out.append(blocks[:i] + ((),) + blocks[i:])
        for j in range(i + 1, len(blocks)):
            swapped = list(blocks)
            swapped[i], swapped[j] = blocks[j], blocks[i]
            out.append(tuple(swapped))
    return out


@pytest.mark.parametrize("n", range(1, 6))
def test_block_rule_on_malformed_blocks(n):
    # single corruptions, and pairs of them so that the order of the rules
    # is tested where two are broken at once
    for blocks in set_partitions(n):
        for once in _corruptions(blocks, n):
            assert_block_verdicts(once, n)
            if n <= 3:
                for twice in _corruptions(tuple(tuple(b) for b in once), n):
                    assert_block_verdicts(twice, n)
    assert_block_verdicts(((),), 0)


# -- orbit tables -----------------------------------------------------------


def orbit_table_reference(map_name, slope):
    """Every path keyed by its name."""
    m = registry.resolve_path_map(map_name, slope)
    paths = enumerate_paths(slope)
    images = {str(p): m.fn(p) for p in paths}
    if len({str(q) for q in images.values()}) != len(paths):
        seen = {}
        for src, img in images.items():
            if str(img) in seen:
                raise ValueError(
                    f"map {map_name!r} is not bijective on ({slope.a},{slope.b}) n={slope.n}: "
                    f"{seen[str(img)]} and {src} both map to {img}"
                )
            seen[str(img)] = src
    cycles = []
    done = set()
    for p in paths:
        if str(p) in done:
            continue
        cyc = [str(p)]
        q = images[str(p)]
        while str(q) != str(p):
            cyc.append(str(q))
            q = images[str(q)]
        done.update(cyc)
        cycles.append(cyc)
    cycles.sort(key=lambda c: c[0])
    return cycles


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.mark.parametrize("a,b,n", [(1, 1, 5), (1, 2, 3), (2, 3, 2), (3, 2, 2)])
def test_orbit_table_matches_name_keyed_walk(a, b, n):
    slope = Slope(a, b, n)
    for name, m in registry.PATH_MAPS.items():
        if m.applies(slope):
            got = _outcome(registry.orbit_table, name, slope)
            assert got == _outcome(orbit_table_reference, name, slope), name


def test_orbit_table_names_the_first_collision(monkeypatch):
    slope = Slope(1, 1, 4)
    paths = enumerate_paths(slope)
    # the last path and every path from the third on collapse to the third
    squash = lambda p: p if p in paths[:2] else paths[2]
    monkeypatch.setitem(registry.PATH_MAPS, "promotion", registry.PathMap("promotion", squash))
    message = (
        "map 'promotion' is not bijective on (1,1) n=4: "
        f"{paths[2]} and {paths[3]} both map to {paths[2]}"
    )
    with pytest.raises(ValueError) as err:
        registry.orbit_table("promotion", slope)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        orbit_table_reference("promotion", slope)
    assert str(err.value) == message
