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

``mat`` keeps the unused positions as one sorted list and builds only the
first b + 1 positions of each entry's cyclic order, since no larger block
closes.  It lays the built blocks out once per call (``BuiltBlocks``, which
also holds the slope constants and the complete-window lengths) and keeps
one memo for its whole call: the verdicts of windows rooted at built up
steps, keyed by span, and one forward table per free root (``FreeTable``),
which reads the span one step at a time and settles every window rooted
there, whatever its end.  Each new block drops exactly the spans and the
tables whose range holds one of its positions (``drop_spans``).  A
candidate whose span is a single window is settled without a parse,
windows rooted at a built up step that hold only part of a block fail,
free-rooted windows with no built position inside always parse, and a
parse whose own rights are forced drops the states whose slack can no
longer close (``admissible`` gives the proofs).  ``mat_inverse`` rebuilds
the path greedily from the bottom row up: the valley values can only go in
descending order, so there is nothing to search.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .matchings import canonical_matching, pm, pm_inverse
from .paths import InvariantError, RationalDyckPath, Slope, memo_image


@dataclass(frozen=True)
class BarInt:
    value: int
    barred: bool

    def numeric(self, slope: Slope) -> int:
        return slope.total_steps + 1 - self.value if self.barred else self.value

    def __str__(self) -> str:
        return f"~{self.value}" if self.barred else str(self.value)


@dataclass(frozen=True)
class BarSequence:
    entries: tuple[BarInt, ...]

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.entries)


def parse_bar_sequence(text: str) -> BarSequence:
    entries = []
    for part in text.replace(" ", "").split(","):
        if part.startswith("~"):
            entries.append(BarInt(int(part[1:]), True))
        else:
            entries.append(BarInt(int(part), False))
    return BarSequence(tuple(entries))


def k_sequence(p: RationalDyckPath) -> BarSequence:
    """One entry per row from the top: reversed valley column, or barred row."""
    s = p.slope
    an, bn = s.up_count, s.right_count
    entries = []
    for i in range(1, an + 1):
        m = an + 1 - i
        u_m = p.steps[m - 1]
        has_valley = m >= 2 and u_m > p.steps[m - 2] + 1
        if has_valley:
            entries.append(BarInt(bn - (u_m - m) + 1, False))
        else:
            entries.append(BarInt(i, True))
    return BarSequence(tuple(entries))


def window_length(slope: Slope, ups: int) -> int:
    """Length of a complete first-return window containing ``ups`` up steps."""
    return ups + slope.b * ups // slope.a


def _window_ups(slope: Slope, length: int) -> int | None:
    """The up count of a complete window of this length, if one exists.

    c + floor(b*c/a) = length puts c in [a*length/(a+b), a*(length+1)/(a+b)),
    an interval shorter than one, so the only candidate is the ceiling.
    """
    a, b = slope.a, slope.b
    c = -(-a * length // (a + b))
    return c if c >= 1 and window_length(slope, c) == length else None


# Position tags.  A built block's other positions carry the position of its
# up step, so a window rooted there owns the positions tagged with its root.
FREE, UP, CAND = -1, -2, -3


def _stretches(rights: list[int]) -> list[int]:
    """Entry k counts the non-empty stretches between consecutive positions
    of the sorted ``rights[k:]``, for k from 0 to len(rights)."""
    if len(rights) < 2:
        return [0, 0]
    count = [0] * (len(rights) + 1)
    for k in range(len(rights) - 2, -1, -1):
        count[k] = count[k + 1] + (rights[k + 1] > rights[k] + 1)
    return count


class BuiltBlocks:
    """The blocks built so far, laid out as every admissibility parse reads
    them, with what depends only on the slope, so that the set-up is paid
    once per block or once per ``mat`` call and not once per candidate.

    ``tag`` marks each position ``FREE``, ``UP`` (a block's smallest
    position, its up step) or with its block's up step.  ``lowest`` and
    ``highest`` hold the extremes of the block at each built position, and
    values no span check trips on at free ones.  ``after`` gives the first
    built position past each position, and ``rights`` the other positions
    of each block, keyed by its up step.  ``length[c]`` is the length of a
    complete window of c up steps, for every window that fits in the size.
    """

    __slots__ = ("slope", "a", "b", "up_count", "length",
                 "tag", "lowest", "highest", "after", "rights")

    def __init__(self, slope: Slope, size: int, blocks=()) -> None:
        """``blocks`` are sorted ascending, as ``add`` takes them."""
        a, b = slope.a, slope.b
        self.slope, self.a, self.b, self.up_count = slope, a, b, slope.up_count
        # c + floor(b*c/a) > c*(a+b)/a - 1, so no larger c fits in size + 1
        self.length = [window_length(slope, c) for c in range(a * (size + 2) // (a + b) + 1)]
        self.tag = [FREE] * (size + 2)
        self.lowest = [size + 2] * (size + 2)
        self.highest = [0] * (size + 2)
        self.after = [size + 2] * (size + 2)
        self.rights: dict[int, list[int]] = {}
        for block in blocks:
            self.add(block)

    def add(self, block) -> None:
        """Lay out one new block, sorted ascending."""
        lo, hi = block[0], block[-1]
        for x in block:
            self.tag[x] = self.lowest[x] = lo
            self.highest[x] = hi
            y = x - 1
            while y >= 0 and self.after[y] > x:
                self.after[y] = x
                y -= 1
        self.tag[lo] = UP
        self.rights[lo] = list(block[1:])

    def encloses(self, lo: int, hi: int) -> bool:
        """Whether every block with a position in [lo, hi] lies inside it."""
        return min(self.lowest[lo : hi + 1]) >= lo and max(self.highest[lo : hi + 1]) <= hi


class FreeTable:
    """The windows rooted at one free position i, scanned forward from i up
    to i + len(shut) - 1, for every end at once (``admissible`` gives the
    proof).

    ``shut[k]`` and ``opened[k]`` are bit masks over u, the up steps past
    the root: bit u is set when a run of items (single steps at free
    positions, complete windows of built blocks) fills i+1 .. i+k with u up
    steps, every item but the last ending strictly above the line, and the
    last one is not (``shut``) or is (``opened``) a block window returning
    mid-step.  ``pending`` maps each end the scan has not reached to the
    block windows that end there, as (up step, up count, mask of the up
    counts before the up step) triples.
    """

    __slots__ = ("shut", "opened", "pending")

    def __init__(self) -> None:
        self.shut, self.opened, self.pending = [1], [0], {}


def drop_spans(memo: dict, block) -> None:
    """Forget every memoized span [i, j], and every table rooted at i and
    scanned up to j, holding a position of ``block`` (sorted ascending):
    the entries ``admissible`` may keep once ``block`` is built."""
    first, last = block[0], block[-1]
    stale = []
    for key in memo:
        if type(key) is int:  # a table, see FreeTable
            lo, hi = key, key + len(memo[key].shut) - 1
        else:
            lo, hi = key
        if lo <= last and first <= hi and block[bisect_left(block, lo)] <= hi:
            stale.append(key)
    for key in stale:
        del memo[key]


def admissible(slope: Slope, candidate, built=(), memo=None) -> bool:
    """Whether ``candidate`` closes as a maximal matching block given the
    already-built blocks, a sequence of blocks or a ``BuiltBlocks`` laid out
    for ``slope``.

    The span [min, max] of the candidate must parse as one complete window:
    the candidate's rights alternate with complete sub-windows, each rooted
    at a built up step (owning exactly its block's rights) or at a free
    position (a later block, possibly wrapping around built material), every
    interior prefix stays strictly above the slope line, and the number of
    later up steps consumed inside matches the closure count.

    The checks run cheapest first, and each input gets the verdict or the
    exception that the full parse gives it.  The span length, the window
    nesting and the closure count are read off ``BuiltBlocks``, which also
    holds the slope constants and the complete-window lengths, so a call
    that fails one of them does no parse.  The candidate's positions are
    marked in ``built.tag`` for the parse and restored before it returns or
    raises.

    A single window is settled without a parse.  When the span length is
    1 + floor(b/a), the window holds c = 1 up step, its root, so no
    sub-window (of at least one up step) fits in it, and every other
    position of the span must be one of the candidate's own rights.  Those
    floor(b/a) rights keep every interior prefix strictly above the line,
    since r < floor(b/a) rights give a*r < b, and the last one closes the
    window.  So once the span length, the nesting and the closure count
    hold, such a candidate is admissible iff it fills its span.

    Two facts settle many sub-windows without a search.  A built position
    can only be parsed inside the window rooted at its block's up step, so
    a window rooted at a built up step that holds part of a block but not
    all of it fails.  And a sub-window rooted at a free position with no
    built position inside it always parses: its complete length holds c up
    steps and floor(b*c/a) rights, and U^c R^floor(b*c/a) fills it, since
    the c - 1 up steps after the root form one such window (by induction;
    none for c = 1) and every interior prefix after them has r < b*c/a
    rights, strictly above the line.

    Every other window rooted at a free position i is read off one forward
    table per root (``FreeTable``), which answers every end j at once.
    Measure the slack b*(1+u) - a*r from the root, for u up steps past it
    and r rights.  The table reads the span one item at a time: a free
    position is one up or right step, and a built up step opens one of its
    block's complete windows (a span verdict).  [i, j] of c up steps parses
    iff some run of such items fills it with c - 1 up steps past the root,
    the slack positive after every item that ends before j (that is,
    (a+b)*u > a*k - b after k positions), and no up step right after a
    block window that returned mid-step.  A parse gives such a run: write
    each free sub-window out as an up step and its own run; inside it the
    slack stays above its value before the sub-window, which is positive,
    and an item after a window that returned mid-step is an own right (a
    right step), since such a window is followed by one or ends its
    enclosing window, which then returns mid-step too.  A run gives a
    parse: cut each free up step's window at the first item end where the
    slack measured from that step is 0, or is below a and is j or has a
    right step next.  Slack moves by +b, by -a or, across a block window
    (inside which it stays above its value before), by less than a, so the
    slack from that step is positive inside the window and below a at its
    end, the window has the length of a complete one, windows cut this way
    nest, and one that returns mid-step is followed by a right step, which
    is an own right of the window around it.  Each item is constrained by itself and the state
    before it only: (k, u, whether the last item was a block window that
    returned mid-step).  Only the last item reads j, and it may touch the
    line, so the states reached by runs whose items all end strictly above
    the line are the same for every end past them, and the verdict for
    [i, j] is whether a last item ending at j reaches u = c - 1.  The table
    keeps, for each k, the up counts of the runs whose last item ends at
    i + k, before that item's line test, as bit masks, so a verdict is one
    bit.  It scans only as far as the ends asked for, and asks about a block
    window only once the scan reaches its end.

    Where the own rights of a window are forced, as the candidate's are at
    the top and a block's are in the window rooted at its up step, the
    parse also drops states by their slack.  Each own right lowers the
    slack by a.  A sub-window of c' up steps raises it by (b*c') mod a < a,
    which is nonzero only when it returns mid-step, and such a window is
    followed by an own right or ends the window.  So the sub-windows filling
    one stretch between own rights raise the slack by less than a in all,
    and the stretches holding no position raise it by nothing.  A complete
    window of c up steps ends with slack (b*c) mod a.  So with slack S, n
    own rights ahead and g non-empty stretches ahead (counting the one
    after the last own right, which holds sub-windows iff the window does
    not end on an own right), the final slack lies in
    [S - a*n, S - a*n + (a-1)*g], and a state whose range misses
    (b*c) mod a cannot close.  At the root of a candidate of s positions,
    S = b, n = s - 1 and g <= n, so a candidate of more than b + 1
    positions never closes, and ``mat`` builds only the first b + 1
    positions of each entry's cyclic order.  A sub-window also ends before
    the next own right, which it could not hold.

    ``memo`` shares sub-window verdicts, keyed by span, and free-root
    tables, keyed by root, between calls.  The parse never asks about a
    sub-window holding a candidate position, since it could neither own nor
    open on one, so a verdict for [i, j] depends only on the built blocks
    with a position in [i, j].  A table scanned from i to e depends only on
    the tags in [i, e] and on verdicts of block windows inside it.  It reaches
    e only while some [i, j] with j >= e is asked, so no candidate position
    lies in [i, e] as it scans; and a later call whose candidate has a
    position x there asks only about ends before x, which read nothing at
    or past x.  So the memo stays valid while blocks are built as long as
    ``drop_spans`` removes, for each new block, the spans and the tables
    whose scanned range holds one of its positions: ``mat`` keeps one memo
    for its whole call.  Without one, the call keeps a private memo.
    """
    cand = sorted(set(candidate))
    if not cand:
        return False
    lo, hi = cand[0], cand[-1]
    if not isinstance(built, BuiltBlocks):
        blocks = [sorted(block) for block in built]
        size = max([slope.total_steps, hi, *(block[-1] for block in blocks)])
        built = BuiltBlocks(slope, size, blocks)
    elif built.slope is not slope and built.slope != slope:
        raise ValueError(f"blocks laid out for {built.slope}, not {slope}")
    tag, highest, after = built.tag, built.highest, built.after
    own_rights = cand[1:]
    for x in own_rights:
        if tag[x] != FREE:
            if not built.encloses(lo, hi):
                return False  # window nesting would be violated
            raise ValueError("candidate overlaps a built block")
    c_top = _window_ups(slope, hi - lo + 1)
    if c_top is None or not built.encloses(lo, hi):
        return False
    future_needed = c_top - 1 - tag[lo : hi + 1].count(UP)
    if future_needed < 0 or future_needed > built.up_count - len(built.rights) - 1:
        return False
    if c_top == 1:
        return len(cand) == hi - lo + 1  # a single window, see the docstring

    a, b, length = built.a, built.b, built.length
    if memo is None:
        memo = {}

    def window_ok(i: int, j: int, c: int) -> bool:
        """[i, j], of complete-window length for c up steps and free of
        candidate positions, is one window rooted at i, a free position or
        a built up step."""
        if tag[i] == FREE:
            if after[i] > j:
                return True  # no built position inside
            table = memo.get(i)
            if table is None:
                table = memo[i] = FreeTable()
            if len(table.shut) <= j - i:
                scan(i, j, table)
            return (table.shut[j - i] | table.opened[j - i]) >> (c - 1) & 1 == 1
        if highest[i] > j:
            return False
        verdict = memo.get((i, j))
        if verdict is None:  # whole blocks only, see the docstring
            verdict = memo[i, j] = built.encloses(i, j) and parse(
                i, j, c, i, built.rights[i]
            )
        return verdict

    def scan(i: int, j: int, table: FreeTable) -> None:
        """Extend the table of the free root i to the runs ending at j."""
        shut, opened, pending = table.shut, table.opened, table.pending
        for x in range(i + len(shut), j + 1):
            # the states before x: the runs over k positions that end
            # strictly above the line, (a+b)*u > a*k - b
            k = x - 1 - i
            least = (a * k - b) // (a + b) + 1
            closed = shut[k] >> least << least
            reach_shut = reach_open = 0
            t = tag[x]
            if t == FREE:  # an up step, or a right
                reach_shut = (closed << 1) | closed | (opened[k] >> least << least)
            elif t == UP and closed:  # the windows of the block built here
                c = bisect_left(length, highest[x] - x + 1)
                if c < len(length):
                    pending.setdefault(x + length[c] - 1, []).append((x, c, closed))
            for p, c, before in pending.get(x, ()):
                if window_ok(p, x, c):
                    if b * c % a:
                        reach_open |= before << c
                    else:
                        reach_shut |= before << c
                if c + 1 < len(length):
                    pending.setdefault(p + length[c + 1] - 1, []).append((p, c + 1, before))
            pending.pop(x, None)
            shut.append(reach_shut)
            opened.append(reach_open)

    def parse(i: int, j: int, c_total: int, own: int, forced: list[int]) -> bool:
        """Whether [i, j] is one window of ``c_total`` up steps rooted at i
        whose own rights are exactly ``forced``, the positions tagged
        ``own``."""
        seen: set[tuple[int, int, bool]] = set()
        s_final = b * c_total % a
        n = len(forced)
        ends_open = tag[j] != own
        stretches = _stretches(forced)

        def rec(pos: int, ups: int, after_open_return: bool) -> bool:
            # after_open_return: the previous item was a window whose first
            # return is mid-step, so the next step cannot be an up step
            if pos > j:
                return ups == c_total - 1
            state = (pos, ups, after_open_return)
            if state in seen:
                return False
            seen.add(state)
            # the slack bound, see the docstring
            k = bisect_left(forced, pos)
            low = b * (1 + ups) - a * (pos - 1 - i - ups) - a * (n - k)
            if s_final < low:
                return False
            if s_final > low:  # the stretches ahead must make up the rest
                fills = stretches[k] + ends_open + (k < n and pos < forced[k])
                if s_final > low + (a - 1) * fills:
                    return False
            t = tag[pos]
            if t == own:
                rights = (pos - i) - ups
                if (pos == j or b * (1 + ups) > a * rights) and rec(pos + 1, ups, False):
                    return True
            if (t == FREE or t == UP) and not after_open_return:
                # a sub-window ends before the next own right, which it could
                # not hold, and holds at most the up steps this window lacks
                end = forced[k] - 1 if k < n else j
                for c_sub in range(1, c_total - ups):
                    q = pos + length[c_sub] - 1
                    if q > end:
                        break
                    ups2 = ups + c_sub
                    if (
                        (q == j or b * (1 + ups2) > a * (q - i - ups2))
                        and window_ok(pos, q, c_sub)
                        and rec(q + 1, ups2, b * c_sub % a != 0)
                    ):
                        return True
            return False

        return rec(i + 1, 0, False)

    for x in own_rights:
        tag[x] = CAND
    try:
        return parse(lo, hi, c_top, CAND, own_rights)
    finally:
        for x in own_rights:
            tag[x] = FREE


def _cyclic_prefix(free: list[int], i: int, size: int, increasing: bool) -> list[int]:
    """The first ``size`` (at most ``len(free)``) positions of the sorted
    list ``free`` in cyclic order from ``free[i]``, ascending or
    descending."""
    if increasing:
        seq = free[i : i + size]
        return seq + free[: size - len(seq)]
    seq = free[max(i + 1 - size, 0) : i + 1][::-1]
    return seq + free[len(free) - (size - len(seq)) :][::-1]


def _representing_length(slope: Slope, seq: list[int]) -> int:
    """Length of the longest prefix of ``seq`` whose first element stays the
    height-maximal element of it (bars winning ties), or the inverse map
    could not select it back."""
    bn = slope.right_count
    start_key = (_height(slope, seq[0]), seq[0] > bn)
    for size, x in enumerate(seq[1:], start=1):
        if (_height(slope, x), x > bn) >= start_key:
            return size
    return len(seq)


@memo_image
def mat(p: RationalDyckPath) -> RationalDyckPath:
    """The matching map."""
    s = p.slope
    total = s.total_steps
    ktilde = s.b // s.a
    free = list(range(1, total + 1))  # the unused positions, sorted
    built: list[tuple[int, ...]] = []
    layout = BuiltBlocks(s, total)
    verdicts: dict[tuple[int, int], bool] = {}  # kept valid by drop_spans
    for entry in k_sequence(p).entries:
        start = entry.numeric(s)
        i = bisect_left(free, start)
        if i == len(free) or free[i] != start:
            raise InvariantError(
                f"matching map start {start} already consumed on {p} "
                "(admissibility interpretation bug)"
            )
        # Every prefix past b + 1 positions (see admissible) or past the
        # representing length fails, so only the first b + 1 positions of
        # the cyclic order are built, and the largest admissible size is
        # the first one found scanning down from there.
        seq = _cyclic_prefix(free, i, min(s.b + 1, len(free)), increasing=entry.barred)
        first = min(ktilde + 1, len(seq))
        last = _representing_length(s, seq)
        for best in range(last, first - 1, -1):
            if admissible(s, seq[:best], layout, verdicts):
                break
        else:
            raise InvariantError(
                f"no admissible block for entry {entry} of {p} "
                "(admissibility interpretation bug)"
            )
        block = tuple(sorted(seq[:best]))
        built.append(block)
        layout.add(block)
        drop_spans(verdicts, block)
        for x in block:
            del free[bisect_left(free, x)]
    if free:
        raise InvariantError(f"matching map left positions unused on {p}")
    return pm_inverse(canonical_matching(total, built), s)


def _height(slope: Slope, pos: int) -> int:
    bn = slope.right_count
    if pos <= bn:
        return pos
    i = slope.total_steps + 1 - pos
    return -(-slope.b * i // slope.a)  # ceil(b*i/a)


@memo_image
def mat_inverse(q: RationalDyckPath) -> RationalDyckPath:
    """Pick the height-maximal representative of every matching block (bars
    win ties), then rebuild the unique path with that valley set.  Raises
    ``ValueError`` when the selections fit no path."""
    s = q.slope
    total, bn, an = s.total_steps, s.right_count, s.up_count
    selections: list[BarInt] = []
    for block in pm(q).blocks:
        best = max(block, key=lambda pos: (_height(s, pos), pos > bn))
        if best > bn:
            selections.append(BarInt(total + 1 - best, True))
        else:
            selections.append(BarInt(best, False))

    barred_rows = {e.value for e in selections if e.barred}
    if len(barred_rows) != sum(1 for e in selections if e.barred):
        raise ValueError(f"selected bars collide for {q}")
    # Valley rows from the bottom up need strictly increasing u - m, that is
    # strictly decreasing values, so the values can only go in descending
    # order: the greedy rebuild is the one candidate.
    values = sorted((e.value for e in selections if not e.barred), reverse=True)
    steps: list[int] = []
    prev, used = 0, 0
    for m in range(1, an + 1):
        if an + 1 - m in barred_rows:
            u = prev + 1
        elif m == 1 or used == len(values) or bn - values[used] + 1 + m <= prev + 1:
            # the bottom row never holds a valley, and a valley needs a value
            raise ValueError(f"selections of {q} do not form a valid valley sequence")
        else:
            u = bn - values[used] + 1 + m
            used += 1
        steps.append(u)
        prev = u
    if used != len(values):
        raise ValueError(f"selections of {q} leave valley values unused")
    return RationalDyckPath(s, tuple(steps))
