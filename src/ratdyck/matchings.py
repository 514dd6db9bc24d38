"""Non-crossing perfect matchings of rational Dyck paths.

The matching of a path is produced block by block, from the top up step
down: the block of the m-th up step consists of the up-step position
together with the still-unused right-step positions up to the first return
of the line of slope a/b drawn from the base of that up step.  The first
return is found on the integer levels b*y - a*x of the path's vertices, so
no rational intersection point is ever formed.

A matching is a ``NonCrossingPartition`` of [1, (a+b)n]: it shares the
partition's validation (``noncrossing.broken_block_rule``), canonical
constructor and relabelling, and keeps only its own text form and
messages.
"""

from __future__ import annotations

from .noncrossing import NonCrossingPartition
from .paths import RationalDyckPath, Slope, memo_image, star_path


class PerfectMatching(NonCrossingPartition):
    """Partition of [1, ground_size] into non-crossing blocks.  A matching
    never equals a partition with the same blocks."""

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
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"bad matching literal: {text!r}")
    blocks = [
        tuple(int(x) for x in part.split(",") if x)
        for part in text[1:-1].split("},{")
    ]
    return canonical_matching(ground, blocks)


def _pm_blocks(p: RationalDyckPath) -> tuple[tuple[int, ...], ...]:
    """The blocks of the slope-line matching of a path, in canonical order.

    Walking on from the m-th up step, the level b*(y - y0) - a*(x - x0)
    relative to its base (x0, y0) starts at b, rises by b per up step and
    falls by a per right step.  The line first returns on the first right
    step that starts at a level d <= a; it meets that step at x0 + d/a, so the
    step itself belongs to the block exactly when d == a.
    """
    s = p.slope
    a, b = s.a, s.b
    is_up = [False] * (s.total_steps + 1)
    for u in p.steps:
        is_up[u] = True
    taken = is_up[:]  # up positions and right positions already in a block

    blocks = []
    for u in reversed(p.steps):
        block = [u]
        level = b
        k = u + 1
        while is_up[k] or level > a:
            if is_up[k]:
                level += b
            else:
                if not taken[k]:
                    block.append(k)
                level -= a
            k += 1
        if level == a and not taken[k]:
            block.append(k)
        for j in block[1:]:
            taken[j] = True
        blocks.append(tuple(block))
    # each block ascends, and the block minima descend
    return tuple(reversed(blocks))


@memo_image
def pm(p: RationalDyckPath) -> PerfectMatching:
    """The slope-line matching of a path (see ``_pm_blocks``)."""
    return PerfectMatching(p.slope.total_steps, _pm_blocks(p))


def pm_inverse(m: PerfectMatching, slope: Slope) -> RationalDyckPath:
    """Path whose up steps sit at the block minima; validates the round trip."""
    steps = tuple(sorted(block[0] for block in m.blocks))
    path = RationalDyckPath(slope, steps)
    if pm(path) != m:
        raise ValueError(f"matching {m} is not the matching of any {slope} path")
    return path


def bar(m: PerfectMatching) -> PerfectMatching:
    """Relabel i -> ground+1-i; an involution preserving non-crossingness."""
    return m.relabel(lambda x: m.n + 1 - x)


def rotate(m: PerfectMatching) -> PerfectMatching:
    """Shift every element down by one cyclically (1 -> ground)."""
    return m.relabel(lambda x: (x - 2) % m.n + 1)


@memo_image
def dpm(p: RationalDyckPath) -> PerfectMatching:
    """The dual matching: bar of the matching of the transposed path, built
    and validated once from the transposed path's blocks."""
    g = p.slope.total_steps
    return canonical_matching(g, [[g + 1 - x for x in b] for b in _pm_blocks(star_path(p))])
