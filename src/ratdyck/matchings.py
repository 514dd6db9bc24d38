"""Non-crossing perfect matchings of rational Dyck paths.

The matching of a path is defined block by block, from the top up step
down: the block of the m-th up step consists of the up-step position
together with the still-unused right-step positions up to the first return
of the line of slope a/b drawn from the base of that up step.  The first
return is found on the integer levels b*y - a*x of the path's vertices, so
no rational intersection point is ever formed.  One left-to-right scan
with a stack of open up steps builds every block at once, in O((a+b)n)
(``_scan_blocks``); the dual matching is the same scan run right to left on
the path itself, with the roles of up and right steps exchanged (``dpm``).

A matching is a ``NonCrossingPartition`` of [1, (a+b)n]: it shares the
partition's canonical constructor, unchecked builder, cached hash and
dihedral relabels, and keeps only its own text form and messages.  Parsed,
constructed and unpickled matchings are validated as partitions are
(``noncrossing.broken_block_rule``); ``pm`` and ``dpm`` build theirs
unchecked by the lemma of ``_scan_blocks``, and ``bar`` and ``rotate`` by
the lemmas of ``NonCrossingPartition._reflected`` and
``NonCrossingPartition._rotated``: a reflection or rotation of the polygon
keeps each block sorted (all but the one wrapped block, which is rebuilt),
keeps the chords non-crossing and the blocks in order by minimum after one
sort or one insertion.
"""

from __future__ import annotations

import re

from .noncrossing import NonCrossingPartition
from .paths import InvariantError, RationalDyckPath, Slope, memo_image


class PerfectMatching(NonCrossingPartition):
    """Partition of [1, ground_size] into non-crossing blocks.  A matching
    never equals a partition with the same blocks."""

    __slots__ = ()

    @property
    def ground_size(self) -> int:
        return self.n

    _rule_messages = (
        "blocks must partition the ground set",
        "block elements must be sorted ascending",
        "blocks must be ordered by minimum",
        "blocks are crossing: {blocks}",
    )

    def __str__(self) -> str:
        return ",".join("{" + ",".join(str(x) for x in b) + "}" for b in self.blocks)

    def to_json(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]


canonical_matching = PerfectMatching.canonical


def parse_matching(text: str, ground: int) -> PerfectMatching:
    text = text.replace(" ", "")
    if not re.fullmatch(r"\{([0-9]+(,[0-9]+)*)?\}(,\{([0-9]+(,[0-9]+)*)?\})*", text):
        raise ValueError(f"bad matching literal: {text!r}")
    blocks = [tuple(int(x) for x in part.split(",") if x) for part in text[1:-1].split("},{")]
    return canonical_matching(ground, blocks)


def _scan_blocks(p: RationalDyckPath, dual: bool) -> tuple[tuple[int, ...], ...]:
    """The blocks of the slope-line matching of ``p``, or with ``dual`` of
    the matching of its transposed path read back on ``p``, each ascending
    and ordered by minimum.

    Walking on from the m-th up step u, the level H = b*y - a*x relative to
    its base H(u-1) starts at b, rises by b per up step and falls by a per
    right step.  The line first returns on the first right step that starts
    at a relative level d <= a; it meets that step at d/a along it, so the
    step itself belongs to the window exactly when d == a.  Blocks are built
    from the top up step down, each taking the untaken right steps of its
    window.

    One left-to-right scan builds them all, on a stack of the up steps whose
    windows are open, each with its base level:

    - If u1 < u2 are both open at u2, then H(u2-1) > H(u1-1): inside u1's
      window every vertex before the return lies strictly above u1's base.
      So the bases rise up the stack, a right step starts at a higher
      relative level for every entry below the top than for the top, and
      windows close innermost first.
    - A right step starting at relative level d lies in the window of an
      open up step iff d >= a, and is its first return iff d <= a.  Blocks
      are built from the top up step down, each taking only untaken steps,
      so the step belongs to the latest up step whose window holds it.
      That is the top of the stack once the entries it returns to short of
      their window (d < a) are popped; the top pops too when d == a.

    The transposed path, of slope (b,a), reads ``p`` right to left with up
    and right steps exchanged.  So the dual scan is this scan of it, run on
    ``p`` from the last step to the first: a right step opens a window and
    rises by a, and an up step falls by b and is taken when d >= b.  A
    closing step left over with the stack empty breaks the construction.
    The dual scan's blocks come descending, in order of maximum; reversed,
    and sorted once by minimum, they are in the matching's order.

    Lemma (the blocks need no check): every position either opens a block
    or is taken by the top window, and otherwise the scan raises
    ``InvariantError``, so the blocks partition [1, (a+b)n].  Blocks open in
    scan order, and each grows in scan order.  A block grows only while its
    window is on top of the stack and never after it is popped: windows
    close innermost first, so no two blocks cross, read in either direction.
    """
    s = p.slope
    total = s.total_steps
    if dual:
        order, rise, fall = range(total, 0, -1), s.a, s.b
    else:
        order, rise, fall = range(1, total + 1), s.b, s.a
    is_up = [False] * (total + 1)
    for u in p.steps:
        is_up[u] = True
    blocks = []
    stack = []  # (block, base level) of the open windows
    level = 0
    for k in order:
        if is_up[k] != dual:  # k opens a window
            block = [k]
            blocks.append(block)
            stack.append((block, level))
            level += rise
            continue
        while stack:
            block, base = stack[-1]
            d = level - base
            if d >= fall:
                block.append(k)
                if d == fall:
                    stack.pop()
                break
            stack.pop()
        else:
            raise InvariantError(f"step {k} of {p.steps} lies in no window")
        level -= fall
    return tuple(sorted(tuple(b[::-1]) for b in blocks)) if dual else tuple(map(tuple, blocks))


@memo_image
def pm(p: RationalDyckPath) -> PerfectMatching:
    """The slope-line matching of a path, built unchecked by the lemma of
    ``_scan_blocks``."""
    return PerfectMatching._caller_checked(p.slope.total_steps, _scan_blocks(p, False))


def pm_inverse(m: PerfectMatching, slope: Slope) -> RationalDyckPath:
    """Path whose up steps sit at the block minima; validates the round trip."""
    steps = tuple(sorted(block[0] for block in m.blocks))
    path = RationalDyckPath(slope, steps)
    if pm(path) != m:
        raise ValueError(f"matching {m} is not the matching of any {slope} path")
    return path


def bar(m: PerfectMatching) -> PerfectMatching:
    """Relabel i -> ground+1-i; an involution preserving non-crossingness."""
    return m._reflected()


def rotate(m: PerfectMatching) -> PerfectMatching:
    """Shift every element down by one cyclically (1 -> ground)."""
    return m._rotated(-1)


@memo_image
def dpm(p: RationalDyckPath) -> PerfectMatching:
    """The dual matching, ``bar(pm(star_path(p)))``, scanned on ``p`` itself
    (see ``_scan_blocks``), built unchecked by the scan's lemma read right to
    left."""
    return PerfectMatching._caller_checked(p.slope.total_steps, _scan_blocks(p, True))
