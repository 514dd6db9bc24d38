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
``admissible`` settles it by arithmetic on the stretches between the
candidate's positions, reading only a stretch that holds a built position,
off one forward table per stretch start (``StretchTable``); it gives the
proofs.  ``mat`` tries only the first b + 1 positions of each entry's
cyclic order of unused positions, and calls ``admissible`` only while more
than one size remains: a block of the smallest size floor(b/a) + 1 is
checked by its window arithmetic alone (``window_arithmetic``), and the
final round trip through ``pm`` settles the rest (the lemma is in
``mat``'s docstring).  So at a = 1, where every block has that size, no
layout is built.  Elsewhere ``mat`` lays the blocks out from the first
entry with a real choice on (``BuiltBlocks``, O(|block|) per block, the
slope's constants cached per slope), takes each block's window arithmetic
from its accepted span, and keeps its stretch tables from then on,
dropping exactly those a new block lands in (``drop_spans``).
``mat_inverse`` rebuilds the path greedily from the bottom row up: the
valley values can only go in descending order, so there is no search.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
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


def parse_bar_sequence(text: str) -> BarSequence:
    entries = []
    for part in text.replace(" ", "").split(","):
        barred = part.startswith("~")
        entries.append(BarInt(int(part[barred:]), barred))
    return BarSequence(tuple(entries))


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
def _slope_tables(slope: Slope, size: int) -> tuple[tuple, ...]:
    """What depends only on the slope and the size: ``length[c]``, the
    length of a complete window of c up steps, for every window that fits
    in the size; ``ups[n]``, the up count of a stretch of n positions
    filled by complete windows, or None when no such filling exists;
    ``keys[x]``, which orders positions by height, bars winning ties; and
    ``least[k]``, the least up count u with slack at least 0 over k + 1
    positions, (a+b)*u >= a*(k+1)."""
    a, b, bn = slope.a, slope.b, slope.right_count
    # c + floor(b*c/a) > c*(a+b)/a - 1, so no larger c fits in size + 1
    length = tuple(window_length(slope, c) for c in range(a * (size + 2) // (a + b) + 1))
    ups = tuple(map({n: c for c, n in enumerate(length)}.get, range(size + 3)))
    keys = tuple(2 * _height(slope, x) + (x > bn) for x in range(size + 1))
    least = tuple(-(-a * (k + 1) // (a + b)) for k in range(size + 2))
    return length, ups, keys, least


def window_arithmetic(a: int, b: int, ups: tuple, root: int, rights) -> tuple[int, int] | None:
    """The up count of a window rooted at ``root`` up to the last of its own
    ``rights`` (sorted ascending), and its slack after it, for slope a/b
    and the slope's ``ups`` (``_slope_tables``); None when a stretch before
    that right cannot fill or an own right before it is not strictly above
    the line.  It reads no layout (``admissible`` gives the proof)."""
    count, slack, prev = 1, b, root
    for x in rights:
        u = ups[x - prev - 1]
        if slack <= 0 or u is None:
            return None
        count += u
        slack += (a + b) * u - a * (x - prev)
        prev = x
    return count, slack


# Position tags.  A built block's other positions carry the position of its
# up step, so a window rooted there owns the positions tagged with its root.
FREE, UP = -1, -2


class BuiltBlocks:
    """The blocks built so far, laid out as every admissibility check reads
    them, with what depends only on the slope or on one block, so that the
    set-up is paid once per slope, block or ``mat`` call and not once per
    candidate.  Adding a block costs O(|block|).

    ``tag`` marks each position ``FREE``, ``UP`` (a block's smallest
    position, its up step) or with its block's up step.  ``lowest`` and
    ``highest`` hold the extremes of the block at each built position, and
    values no span check trips on at free ones.  ``built`` lists the built
    positions in order and then size + 2, so ``built_in`` is one bisection.
    ``rights`` holds the other positions of each block and ``shape`` the
    arithmetic of the windows rooted at it (``admissible`` gives both),
    keyed by its up step.  ``length``, ``ups`` and ``least`` are the
    slope's, cached per slope and size (``_slope_tables``).
    """

    __slots__ = ("slope", "a", "b", "up_count", "length", "ups", "least",
                 "tag", "lowest", "highest", "built", "rights", "shape")

    def __init__(self, slope: Slope, size: int, blocks=()) -> None:
        """``blocks`` are sorted ascending, as ``add`` takes them."""
        self.slope, self.a, self.b, self.up_count = slope, slope.a, slope.b, slope.up_count
        self.length, self.ups, _, self.least = _slope_tables(slope, size)
        self.tag = [FREE] * (size + 2)
        self.lowest = [size + 2] * (size + 2)
        self.highest = [0] * (size + 2)
        self.built = [size + 2]
        self.rights: dict[int, list | tuple] = {}
        self.shape: dict[int, tuple[int, int] | None] = {}
        for block in blocks:
            self.add(block)

    def add(self, block, shape=None) -> None:
        """Lay out one new block, sorted ascending; ``shape`` is its
        ``window_arithmetic``, when the caller already has it."""
        lo, hi = block[0], block[-1]
        tag, lowest, highest, built = self.tag, self.lowest, self.highest, self.built
        for x in block:
            tag[x] = lowest[x] = lo
            highest[x] = hi
            insort(built, x)
        tag[lo] = UP
        self.rights[lo] = rights = block[1:]
        if shape is None:
            shape = window_arithmetic(self.a, self.b, self.ups, lo, rights)
        self.shape[lo] = shape

    def built_in(self, s: int, e: int) -> bool:
        """Whether a built position lies in [s, e]."""
        return self.built[bisect_left(self.built, s)] <= e

    def up_steps(self, s: int, e: int) -> int:
        """The number of built up steps in [s, e]."""
        return self.tag[s : e + 1].count(UP)

    def encloses(self, lo: int, hi: int) -> bool:
        """Whether every block with a position in [lo, hi] lies inside it."""
        return min(self.lowest[lo : hi + 1]) >= lo and max(self.highest[lo : hi + 1]) <= hi

    def filled(self, prev: int, ends, memo: StretchTables) -> bool:
        """Whether the stretches after ``prev`` and after each of ``ends``
        but the last, each up to the next end (exclusive), fill, given
        their lengths do."""
        built, ups = self.built, self.ups
        for x in ends:
            if built[bisect_right(built, prev)] < x:  # a built position inside
                n = x - prev - 1
                table = memo.get(prev + 1)
                if table is None:
                    table = memo[prev + 1] = StretchTable()
                if len(table.shut) <= n:
                    self.scan(prev + 1, x - 1, table, memo)
                if not (table.shut[n] | table.opened[n]) >> ups[n] & 1:
                    return False
            prev = x
        return True

    def scan(self, s: int, e: int, table: StretchTable, memo: StretchTables) -> None:
        """Extend the table of the stretches starting at s to the runs
        ending at e."""
        a, b, length, ups, least = self.a, self.b, self.length, self.ups, self.least
        tag, highest, shapes, rights = self.tag, self.highest, self.shape, self.rights
        shut, opened, pending, readers = table.shut, table.opened, table.pending, memo.readers
        bit = 1 << s
        for x in range(s + len(shut) - 1, e + 1):
            k = x - s  # the runs over s .. x-1
            reach_shut = reach_open = 0
            t = tag[x]
            if t == FREE:  # an up step, or a right
                reach_shut = (shut[k] << 1) | shut[k] | opened[k]
                readers[x] = readers.get(x, 0) | bit
            elif t == UP and shut[k] and shapes[x] is not None:
                c = bisect_left(length, highest[x] - x + 1)
                if c < len(length):
                    pending.setdefault(x + length[c] - 1, []).append((x, c, shut[k]))
            for p, c, before in pending.pop(x, ()):
                # [p, x] is one window of c up steps rooted at p if the stretch
                # after the block's last right fills (there is none if x is it)
                count, slack = shapes[p]
                last = highest[p]
                u = 0 if x == last else ups[x - last] if slack > 0 else None
                if u is not None and count + u == c and self.filled(p, [*rights[p], x + 1], memo):
                    if b * c % a:
                        reach_open |= before << c
                    else:
                        reach_shut |= before << c
                if slack > 0 and c + 1 < len(length):  # see admissible
                    pending.setdefault(p + length[c + 1] - 1, []).append((p, c + 1, before))
            m = least[k]  # slack at least 0
            shut.append(reach_shut >> m << m)
            opened.append(reach_open >> m << m)


class StretchTable:
    """The fillings of the stretches starting at one position s, scanned
    forward from s up to s + len(shut) - 2, for every end at once
    (``admissible`` gives the proof).

    ``shut[k]`` and ``opened[k]`` are bit masks over u: bit u is set when a
    run of items (single steps at free positions, complete windows of built
    blocks) fills s .. s+k-1 with u up steps, the slack b*u - a*r of every
    prefix of items is at least 0, and the last item is not (``shut``) or
    is (``opened``) a block window returning mid-step.  ``pending`` maps
    each end the scan has not reached to the block windows that end there,
    as (up step, up count, mask of the up counts before the up step)
    triples.
    """

    __slots__ = ("shut", "opened", "pending")

    def __init__(self) -> None:
        self.shut, self.opened, self.pending = [1], [0], {}


class StretchTables(dict):
    """Stretch tables by start, and ``readers``: for each position some
    table read free, the starts of the tables that did, as a bit mask."""

    def __init__(self) -> None:
        self.readers: dict[int, int] = {}


def drop_spans(memo: StretchTables, block) -> None:
    """Forget every table whose scanned range holds a position of ``block``,
    as ``admissible`` needs once it is built.  Its positions were free until
    now, so only the starts ``readers`` gives for them are visited; the
    table now at such a start is stale iff its range reaches the position
    (the one that read it may since have been dropped and scanned again)."""
    readers = memo.readers
    for x in block if readers else ():
        starts = readers.pop(x, 0)
        while starts:  # a table at s that read x covers x while it is kept
            s = starts.bit_length() - 1
            starts ^= 1 << s
            if s in memo and s + len(memo[s].shut) - 2 >= x:
                del memo[s]


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
    nesting and the closure count are read off ``BuiltBlocks``, so a call
    that fails one of them reads no stretch, and a span with no built
    position reads neither.  The layout is only read.

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
    ``BuiltBlocks.ups`` gives u, or None.  A stretch of such a length with
    no built position always fills, with U^u R^(n-u), one window rooted at a
    free position: the u - 1 up steps after its root form one such window
    (by induction; none for u = 1), which is followed only by rights, and
    every interior prefix after them has r < b*u/a rights, strictly above
    the line.

    The arithmetic.  The slack from the root is b after it; a stretch of n
    positions and u up steps raises it by (a+b)*u - a*n >= 0, and an own
    right lowers it by a.  Inside a stretch it never drops below its value
    at the stretch start (see the tables below), so the line tests inside a
    stretch hold once the tests at the own rights hold: positive slack
    after each own right that is not the window's end.  With the up counts
    read off the lengths, those tests and the closure count (1 plus the up
    counts of the stretches is the window's c) are plain arithmetic
    (``window_arithmetic``, which reads no layout).  A complete window ends
    with slack (b*c) mod a >= 0, and each of its m own rights lowers the
    slack by a while each stretch raises it by less than a, so b + (a-1)*m
    - a*m >= 0: a candidate of more than b + 1 positions never closes, and
    ``mat`` builds only the first b + 1 positions of each entry's cyclic
    order.  The slack after the last own right telescopes to (a+b)*c -
    a*(its span length), which is (b*c) mod a for an accepted block, so
    ``mat`` lays a block out with that arithmetic and does not run it
    again.  At the smallest size, floor(b/a) + 1, ``mat`` has no choice
    left and does not call this function: it runs only the span length,
    the closure count and this arithmetic, and its final round trip stands
    in for the nesting and the stretches (see ``mat``).

    The tables.  A stretch that holds a built position is read off one
    forward table per stretch start s (``StretchTable``), which answers
    every end e at once.  Read the stretch one item at a time: a free
    position is one up or right step, and a built up step opens one of its
    block's complete windows (settled as below).  [s, e] is filled by
    complete sub-windows with u up steps iff some run of such items fills it
    with u up steps, with slack (from s) at least 0 after every item, and
    no up step right after a block window that returned mid-step.  A filling
    gives such a run: write each free-rooted sub-window out as an up step
    and its own items, recursively; inside a window the slack from its root
    is positive after every item but the last and at least 0 after it, so
    the slack from s never drops below its value at the window's start,
    which is 0 for every sub-window of the stretch; and a window that
    returned mid-step is followed by an own right (a right step) or ends
    its enclosing window, which then returns mid-step too.  A run gives a
    filling: cut each free up step's window at the first item end where the
    slack measured from that step is 0, or is below a and is e or has a
    right step next.  Slack moves by +b, by -a or, across a block window
    (inside which it stays above its value before), by less than a, so the
    slack from that step is positive inside the window and below a at its
    end, the window has the length of a complete one, windows cut this way
    nest, and one that returns mid-step is followed by a right step or by
    e.  At the stretch level the slack from s is 0 before each item: a
    right step there, or after a window returning mid-step, would take it
    below 0, so the stretch is a run of complete windows and only the last
    may return mid-step.  Each item is constrained by itself and the state
    before it only: (k, u, whether the last item was a block window that
    returned mid-step), so the states reached over s .. s+k-1 are the same
    for every end past them, and the verdict for [s, e] is whether u is
    reached at e.  The table keeps, for each k, the up counts reached as bit
    masks, so a verdict is one bit.  It scans only as far as the ends asked
    for, and asks about a block window only once the scan reaches its end.

    Windows rooted at a built up step i own exactly the block's rights, so
    they hold all of them, and their arithmetic up to the last right
    depends on the block alone: ``BuiltBlocks.shape`` keeps it, or None
    when no window rooted there closes.  A window that ends past the last
    right adds one stretch and needs positive slack after that right, so a
    block without it has at most one window, and the tables ask no further.
    A block with a position in such a window but not inside it puts a built
    position in a stretch that no run can pass (a right whose up step lies
    outside, or an up step whose windows end past the stretch), so the
    stretches settle the window nesting too.

    ``memo`` (``StretchTables``) shares the stretch tables between calls.
    Every stretch read lies between two consecutive positions of the
    candidate, or inside a block window read from such a stretch, so no
    candidate position is in it: a table scanned from s to e reads only the
    layout inside [s, e] and the windows of built blocks inside it, which
    read only the tables of their own stretches.  So a table stays valid
    while blocks are built as long as no new block lands in [s, e], and
    ``drop_spans`` removes, for each new block, the tables whose scanned
    range holds one of its positions: ``mat`` keeps one memo from its first
    real choice to the end of its call.  Without one, the call keeps a
    private memo.
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
    own_rights = cand[1:]
    inside = built.built_in(lo, hi)
    if inside and not built.encloses(lo, hi):
        return False  # window nesting would be violated
    if inside and any(map(built.highest.__getitem__, own_rights)):  # an own right is built
        raise ValueError("candidate overlaps a built block")
    c_top = built.ups[hi - lo + 1]
    if c_top is None:
        return False
    future_needed = c_top - 1 - (built.up_steps(lo, hi) if inside else 0)
    if not 0 <= future_needed < built.up_count - len(built.rights):
        return False
    shape = window_arithmetic(built.a, built.b, built.ups, lo, own_rights)
    if shape is None or shape[0] != c_top:
        return False
    return not inside or built.filled(lo, own_rights, StretchTables() if memo is None else memo)


def _cyclic_prefix(free: list[int], i: int, size: int, increasing: bool) -> list[int]:
    """The first ``size`` (at most ``len(free)``) positions of the sorted
    list ``free`` in cyclic order from ``free[i]``, ascending or
    descending."""
    if increasing:
        seq = free[i : i + size]
        return seq + free[: size - len(seq)]
    seq = free[max(i + 1 - size, 0) : i + 1][::-1]
    return seq + free[len(free) - (size - len(seq)) :][::-1]


def _representing_length(keys: tuple[int, ...], seq: list[int]) -> int:
    """Length of the longest prefix of ``seq`` whose first element stays the
    height-maximal element of it (bars winning ties, as ``keys`` orders
    positions), or the inverse map could not select it back."""
    start_key = keys[seq[0]]
    for size in range(1, len(seq)):
        if keys[seq[size]] >= start_key:
            return size
    return len(seq)


@memo_image
def mat(p: RationalDyckPath) -> RationalDyckPath:
    """The matching map.

    Each entry takes the largest size, from its representing length down,
    whose prefix ``admissible`` accepts, and at ``forced`` = min(floor(b/a)
    + 1, the prefix length) it takes the prefix whenever it closes at all:
    ``admissible`` is called only while more than one size remains, so never
    at a = 1, where every block has b + 1 positions.  At the forced size
    only ``admissible``'s layout-free checks run, in O(|block|): the span
    has the length of a complete window, the closure count holds against
    the built up steps inside the span, and the own-right arithmetic closes
    (``window_arithmetic``).  The window nesting and the stretch fill are
    settled by the final round trip instead.

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
    span as ``admissible`` asks for, with the nesting, the stretch fill and
    the closure count (the up steps inside are its c - 1) all holding, so
    ``admissible`` accepts the block.  Hence a block taken at the forced
    size that fails the nesting or a stretch makes the round trip fail (or
    an earlier check raise), and ``mat`` raises ``InvariantError`` as it did
    when it called ``admissible`` there; on every path on which it returns,
    ``admissible`` would have accepted each forced block, so the output is
    the same.

    The layout and the stretch tables are built at the first entry with a
    real choice, from the blocks built so far (``{up step: (block,
    arithmetic)}``), and kept from then on as ``admissible`` describes: at a
    = 1 neither is ever built.
    """
    s = p.slope
    total, a, b, up_count = s.total_steps, s.a, s.b, s.up_count
    smallest = b // a + 1
    free = list(range(1, total + 1))  # the unused positions, sorted
    ups, keys = _slope_tables(s, total)[1:3]
    blocks: dict[int, tuple[tuple[int, ...], tuple[int, int]]] = {}
    minima: list[int] = []  # the built up steps, sorted
    layout = tables = None  # laid out at the first real choice, tables kept valid by drop_spans
    for value, barred in _valley_entries(p):
        start = total + 1 - value if barred else value
        i = bisect_left(free, start)
        if i == len(free) or free[i] != start:
            raise InvariantError(
                f"matching map start {start} already consumed on {p} "
                "(admissibility interpretation bug)"
            )
        # no prefix longer than b + 1 (see admissible) or the representing length closes
        seq = _cyclic_prefix(free, i, min(b + 1, len(free)), barred)
        top, forced = _representing_length(keys, seq), min(smallest, len(seq))
        best = forced
        if top > forced:
            if layout is None:
                layout, tables = BuiltBlocks(s, total), StretchTables()
                for block, shape in blocks.values():
                    layout.add(block, shape)
            for size in range(top, forced, -1):
                if admissible(s, seq[:size], layout, tables):
                    best = size
                    break
        block = tuple(sorted(seq[:best]))
        lo, hi = block[0], block[-1]
        c = ups[hi - lo + 1]
        if best > forced:
            shape = (c, b * c % a)  # the arithmetic admissible accepted
        else:  # admissible's layout-free checks; the round trip settles the rest
            inside = bisect_right(minima, hi) - bisect_left(minima, lo)
            shape = None
            if top >= forced and c is not None and 0 <= c - 1 - inside < up_count - len(blocks):
                shape = window_arithmetic(a, b, ups, lo, block[1:])
            if shape is None or shape[0] != c:
                raise InvariantError(
                    f"no admissible block for entry {'~' * barred}{value} of {p} "
                    "(admissibility interpretation bug)"
                )
        blocks[lo] = block, shape
        insort(minima, lo)
        if layout is not None:
            layout.add(block, shape)
            drop_spans(tables, block)
        for x in block:
            del free[bisect_left(free, x)]
    if free:
        raise InvariantError(f"matching map left positions unused on {p}")
    # the path whose up steps are the block minima, if its matching is the
    # built one; a mismatch is a defect here, not bad input
    try:
        q = RationalDyckPath(s, tuple(minima))
        if pm(q).blocks == tuple(blocks[lo][0] for lo in minima):
            return q
    except ValueError:
        pass
    raise InvariantError(f"matching map built blocks on {p} that are no path's matching")


@memo_image
def mat_inverse(q: RationalDyckPath) -> RationalDyckPath:
    """Pick the height-maximal representative of every matching block (bars
    win ties), then rebuild the unique path with that valley set.  Raises
    ``ValueError`` when the selections fit no path."""
    s = q.slope
    total, bn, an = s.total_steps, s.right_count, s.up_count
    keys = _slope_tables(s, total)[2]
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
        raise ValueError(f"selected bars collide for {q}")
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
            raise ValueError(f"selections of {q} do not form a valid valley sequence")
        else:
            u = bn - values[used] + 1 + m
            used += 1
        steps.append(u)
        prev = u
    if used != len(values):
        raise ValueError(f"selections of {q} leave valley values unused")
    return RationalDyckPath(s, tuple(steps))
