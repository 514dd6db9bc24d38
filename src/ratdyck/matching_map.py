"""The valley sequence of a path and the matching map with its inverse.

Every row of a path (rows indexed from the top) contributes one entry to
the valley sequence: the reversed column of its valley, or a barred row
index when the row has no valley.  The matching map grows one matching
block per entry, decreasing from unbarred entries and increasing from the
position of barred ones, always cyclically inside the set of unused
positions, and extends each block to the largest admissible size.

Admissibility of a candidate block is the first-return-window condition:
its positional span must parse as one complete window whose own rights
alternate with complete nested windows, each rooted at a built block's up
step or at a free position holding a later block (possibly wrapping around
built material), with every interior prefix strictly above the slope line
and a mid-step return never followed directly by another up step.
``mat`` decides it by window arithmetic on the candidate alone
(``admissible``): the span has the length of a complete window, and the own
rights keep the window above the line until it closes with that window's
up count (``window_arithmetic``).  Every admissible block passes that test,
so the first size it accepts, from the representing length down, is at
least the largest admissible one, and the final round trip through ``pm``
shows that every block kept was admissible (the lemma is in ``mat``'s
docstring).  So nothing of the built blocks is read while ``mat`` builds:
it keeps the blocks for the round trip and the unused positions as a ring
linked both ways.  Each entry walks that ring from its start, upward when
barred and downward when not, over at most b + 1 positions, and taking a
block unlinks its positions in O(1) each.
``mat_inverse`` rebuilds the path greedily from the bottom row up: the
valley values can only go in descending order, so there is no search.
"""

from __future__ import annotations

from functools import lru_cache

from .matchings import pm
from .paths import InvariantError, RationalDyckPath, Slope, Value, memo_image


class BarInt(Value):
    __slots__ = ("value", "barred")
    value: int
    barred: bool

    def __init__(self, value: int, barred: bool) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "barred", barred)

    def numeric(self, slope: Slope) -> int:
        return slope.total_steps + 1 - self.value if self.barred else self.value

    def __str__(self) -> str:
        return f"~{self.value}" if self.barred else str(self.value)


class BarSequence(Value):
    __slots__ = ("entries",)
    entries: tuple[BarInt, ...]

    def __init__(self, entries: tuple[BarInt, ...]) -> None:
        object.__setattr__(self, "entries", entries)

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.entries)


def _valley_entries(p: RationalDyckPath) -> list[tuple[int, bool]]:
    """The valley sequence as (value, barred) pairs, rows from the top."""
    steps, an, bn = p.steps, p.slope.up_count, p.slope.right_count
    return [(bn - (steps[m - 1] - m) + 1, False) if m >= 2 and steps[m - 1] > steps[m - 2] + 1
            else (an + 1 - m, True) for m in range(an, 0, -1)]  # the m-th up step from below


def k_sequence(p: RationalDyckPath) -> BarSequence:
    """One entry per row from the top: reversed valley column, or barred row."""
    return BarSequence(tuple(BarInt(value, barred) for value, barred in _valley_entries(p)))


def window_length(slope: Slope, ups: int) -> int:
    """Length of a complete first-return window containing ``ups`` up steps."""
    return ups + slope.b * ups // slope.a


def _height(slope: Slope, pos: int) -> int:
    bn = slope.right_count
    if pos <= bn:
        return pos
    i = slope.total_steps + 1 - pos
    return -(-slope.b * i // slope.a)  # ceil(b*i/a)


@lru_cache(maxsize=64)
def _slope_tables(slope: Slope) -> tuple[tuple, tuple[int, ...]]:
    """What depends only on the slope: ``ups[n]`` for n up to the size, the
    up count of a stretch of n positions filled by complete windows, or
    None when no such filling exists (``admissible`` gives the proof); and
    ``keys[x]``, which orders positions by height, bars winning ties."""
    total = slope.total_steps
    ups = [None] * (total + 1)
    c = 0
    while (n := window_length(slope, c)) <= total:
        ups[n] = c
        c += 1
    keys = tuple(2 * _height(slope, x) + (x > slope.right_count) for x in range(total + 1))
    return tuple(ups), keys


def window_arithmetic(a: int, b: int, ups: tuple, root: int, rights) -> int | None:
    """The up count of a window rooted at ``root`` up to the last of its own
    ``rights`` (sorted ascending), for slope a/b and the slope's ``ups``
    (``_slope_tables``); None when a stretch before that right cannot fill
    or an own right before it is not strictly above the line.  It reads no
    layout (``admissible`` gives the proof)."""
    count, slack, prev = 1, b, root
    for x in rights:
        u = ups[x - prev - 1]
        if slack <= 0 or u is None:
            return None
        count += u
        slack += (a + b) * u - a * (x - prev)
        prev = x
    return count


def admissible(slope: Slope, candidate) -> bool:
    """Whether ``candidate``, positions of [1, (a+b)n], passes the window
    arithmetic of a matching block: its span [lo, hi] has the length of a
    complete window of some c up steps, and its own rights (its positions
    after lo) keep the window strictly above the line until it closes with
    count c (``window_arithmetic``).

    The test is necessary for admissibility and reads only the candidate:
    a built block with a position in the span, a stretch that a built block
    keeps from filling, or a span asking for more up steps after lo than
    the built blocks inside it and the blocks still to come can give, goes
    unseen.  On a span with no built position it is exact when at least c
    blocks, this one included, are still to come (below).  It is exact on
    every block ``mat`` keeps (the lemma in ``mat``'s docstring), so on
    every call ``mat`` makes on a path it maps: the calls before the block
    kept reject, as the parse does.

    The closure count.  The parse also asks that the built up steps inside
    the span number at most c - 1, and that the rest of those c - 1 up
    steps number at most the blocks still to come after this one.
    Dropping that count from a necessary test leaves it necessary, so by
    the lemma ``mat`` returns the same path as with it or raises
    ``InvariantError``, and it returns exactly when the count holds on
    every call it makes that the arithmetic accepts.  At a = 1 ``mat``
    tries one size per entry, so the count could only refuse, and on every
    path that ``mat`` maps with it that call accepts: there it is implied.
    At a >= 2 no proof is known.  It held on each of the more than 55
    million calls ``mat`` made over every path of 17 slope families with
    a >= 2, among them (2,3) and (3,2) up to n = 5, (3,5) and (5,3) up to
    n = 3 and (2,1) up to n = 7, and on 1,026 seeded random paths of up to
    12,000 steps, the calls the arithmetic rejects included.
    ``tests/test_kernels.py`` keeps a copy of the count and checks it on
    four of those paths and on 80 sampled ones.

    Stretches.  Cut a window rooted at i at its own rights: each stretch
    (between the root and the first own right, between two own rights, or
    after the last one up to the window's end) is filled by complete
    sub-windows, since a sub-window cannot hold an own right.  Measure the
    slack b*U - a*R of U up steps and R rights.  A complete window of c up
    steps has c + floor(b*c/a) positions and slack (b*c) mod a, in [0, a)
    and 0 unless it returns mid-step, and such a window is followed by an
    own right or ends the window, so every sub-window of a stretch but the
    last has slack 0.  Hence a stretch of n positions filled with u up steps
    has slack (a+b)*u - a*n in [0, a).  That interval is shorter than a + b,
    so u = ceil(a*n/(a+b)) is the only candidate, and it fits exactly when n
    is the length of a complete window of u up steps (or n = 0):
    ``_slope_tables`` gives u as ``ups[n]``, or None.  A stretch of such a
    length with no built position always fills, with U^u R^(n-u), one
    window rooted at a free position: the u - 1 up steps after its root form
    one such window (by induction; none for u = 1), which is followed only
    by rights, and every interior prefix after them has r < b*u/a rights,
    strictly above the line.  The span's stretches then ask for c - 1 up
    steps of blocks still to come, which is all the parse adds.

    The arithmetic.  The slack from the root is b after it; a stretch of n
    positions and u up steps raises it by (a+b)*u - a*n >= 0, and an own
    right lowers it by a.  Inside a stretch it never drops below its value
    at the stretch start: inside each of its sub-windows the slack from the
    sub-window's root stays positive, and each sub-window but the last ends
    with slack 0.  So the line tests inside a stretch hold once the tests
    at the own rights hold: positive slack after each own right that is not
    the window's end.  With the up counts read off the lengths, those tests
    and the window's own count (1 plus the up counts of the stretches is
    its c) are plain arithmetic.  A complete window ends with slack
    (b*c) mod a >= 0, and each of its m own rights lowers the slack by a
    while each stretch raises it by less than a, so b + (a-1)*m - a*m >= 0:
    a candidate of more than b + 1 positions never closes, and ``mat`` tries
    only the first b + 1 positions of each entry's cyclic order.
    """
    cand = sorted(candidate)
    if not cand:
        return False
    lo, ups = cand[0], _slope_tables(slope)[0]
    c = ups[cand[-1] - lo + 1]
    return c is not None and window_arithmetic(slope.a, slope.b, ups, lo, cand[1:]) == c


def _walk(link: list[int], keys: tuple[int, ...], start: int, width: int) -> list[int]:
    """The positions of the ring ``link`` from ``start`` on, at most
    ``width`` of them, up to the first whose key is at least the start's:
    the longest prefix whose start stays its height-maximal element (bars
    winning ties, as ``keys`` orders positions), or the inverse map could
    not select it back.  A walk never comes back to ``start``, whose key
    stops it."""
    seq = [start]
    start_key = keys[start]
    x = start
    for _ in range(width - 1):
        x = link[x]
        if keys[x] >= start_key:
            break
        seq.append(x)
    return seq


@memo_image
def mat(p: RationalDyckPath) -> RationalDyckPath:
    """The matching map.

    The unused positions form a ring: ``after`` and ``before`` link each to
    the next unused position above and below it, cyclically, ``taken``
    marks the used ones and ``left`` counts the rest.  Each entry walks the
    ring from its start (``_walk``), along ``after`` when barred and along
    ``before`` when not, over at most min(b + 1, ``left``) positions, and
    stops at its representing length.  It takes the largest size, from that
    length down to min(floor(b/a) + 1, ``left``), whose prefix
    ``admissible`` accepts (at a = 1 every block has b + 1 positions, the
    one size tried), and unlinks the block's positions from the ring.
    ``admissible`` is the window arithmetic of the candidate alone, which
    every admissible block passes, so the size taken is at least the
    largest admissible one.  The window nesting, the stretch fill and the
    closure count are settled by the final round trip instead, on the
    blocks sorted once by their minima: by the lemma below, on every path
    on which ``mat`` returns, each block taken was admissible given the
    blocks before it, so its size is the largest admissible one, and by
    induction over the entries the blocks are the ones the full parse
    gives.

    Lemma: if ``pm(q)`` equals the built blocks, where q is the path whose
    up steps are the block minima, each block was admissible given the
    blocks built before it.  ``pm`` gives the up step of q at lo its rights
    up to the first return of the slope line from lo that no up step after
    lo took, so q's steps on the block's span [lo, hi] form one complete
    window rooted at lo whose own rights are the block's rights: they
    alternate with complete windows, each rooted at an up step of q in the
    span and holding all of its block, and every interior prefix stays
    strictly above the line.  A block built before lo's is such a nested
    window, laid out as built; every other position in the span was free
    when lo's block was built and gets q's step.  That is a parse of the
    span as admissibility asks for, with the nesting, the stretch fill and
    the closure count (the up steps inside are its c - 1) all holding.
    Hence a block that passes the arithmetic but fails the nesting, a
    stretch or the closure count makes the round trip fail (or an earlier
    check raise), and ``mat`` raises ``InvariantError``.
    """
    s = p.slope
    total, b = s.total_steps, s.b
    smallest = b // s.a + 1
    after = [*range(1, total + 1), 1]
    before = [0, total, *range(1, total)]
    taken = bytearray(total + 1)
    left = total
    keys = _slope_tables(s)[1]
    blocks: list[tuple[int, ...]] = []
    for value, barred in _valley_entries(p):
        start = total + 1 - value if barred else value
        if taken[start]:
            raise InvariantError(
                f"matching map start {start} already consumed on {p} "
                "(admissibility interpretation bug)"
            )
        # no prefix longer than b + 1 (see admissible) or the representing length closes
        width = min(b + 1, left)
        seq = _walk(after if barred else before, keys, start, width)
        for size in range(len(seq), min(smallest, width) - 1, -1):
            if admissible(s, seq[:size]):
                break
        else:
            raise InvariantError(
                f"no admissible block for entry {'~' * barred}{value} of {p} "
                "(admissibility interpretation bug)"
            )
        block = tuple(sorted(seq[:size]))
        blocks.append(block)
        for x in block:
            above, below = after[x], before[x]
            after[below] = above
            before[above] = below
            taken[x] = 1
        left -= size
    if left:
        raise InvariantError(f"matching map left positions unused on {p}")
    # the path whose up steps are the block minima, if its matching is the
    # built one; a mismatch is a defect here, not bad input
    blocks.sort()
    try:
        q = RationalDyckPath(s, tuple(block[0] for block in blocks))
        if pm(q).blocks == tuple(blocks):
            return q
    except ValueError:
        pass
    raise InvariantError(f"matching map built blocks on {p} that are no path's matching")


@memo_image
def mat_inverse(q: RationalDyckPath) -> RationalDyckPath:
    """Pick the height-maximal representative of every matching block (bars
    win ties), then rebuild the unique path with that valley set.  ``q`` is
    a validated path and ``mat`` is onto (``mat-roundtrip`` checks it
    inverts ``mat`` on every desk path), so selections that fit no path are
    a defect here, not bad input: they raise ``InvariantError``."""
    s = q.slope
    total, bn, an = s.total_steps, s.right_count, s.up_count
    keys = _slope_tables(s)[1]
    # each block selects one entry: a barred row or an unbarred valley value
    bars: list[int] = []
    values: list[int] = []
    for block in pm(q).blocks:
        best = max(block, key=keys.__getitem__)
        if best > bn:
            bars.append(total + 1 - best)
        else:
            values.append(best)

    barred_rows = set(bars)
    if len(barred_rows) != len(bars):
        raise InvariantError(f"selected bars collide for {q}")
    # Valley rows from the bottom up need strictly increasing u - m, that is
    # strictly decreasing values, so the values can only go in descending
    # order: the greedy rebuild is the one candidate.
    values.sort(reverse=True)
    steps: list[int] = []
    prev, used = 0, 0
    for m in range(1, an + 1):
        if an + 1 - m in barred_rows:
            u = prev + 1
        elif m == 1 or used == len(values) or bn - values[used] + 1 + m <= prev + 1:
            # the bottom row never holds a valley, and a valley needs a value
            raise InvariantError(f"selections of {q} do not form a valid valley sequence")
        else:
            u = bn - values[used] + 1 + m
            used += 1
        steps.append(u)
        prev = u
    if used != len(values):
        raise InvariantError(f"selections of {q} leave valley values unused")
    try:
        return RationalDyckPath(s, tuple(steps))
    except ValueError as exc:
        raise InvariantError(f"selections of {q} rebuild no path: {exc}") from exc
