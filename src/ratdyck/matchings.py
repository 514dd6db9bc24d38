"""Non-crossing perfect matchings of rational Dyck paths.

The matching of a path is produced block by block, from the top up step
down: the block of the m-th up step consists of the up-step position
together with the still-unused right-step positions up to the first return
of the line of slope a/b drawn from the base of that up step.  The first
return is found on the integer levels b*y - a*x of the path's vertices, so
no rational intersection point is ever formed.

Every matching is validated in full when built, by the one linear pass that
also validates non-crossing partitions (``noncrossing.broken_block_rule``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .noncrossing import broken_block_rule
from .paths import RationalDyckPath, Slope, memo_image, star_path


@dataclass(frozen=True)
class PerfectMatching:
    """Partition of [1, ground_size] into non-crossing blocks."""

    ground_size: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rule = broken_block_rule(self.blocks, self.ground_size)
        if rule:
            raise ValueError((
                "blocks must partition the ground set",
                "block elements must be sorted ascending",
                "blocks must be ordered by minimum",
                f"blocks are crossing: {self.blocks}",
            )[rule - 1])

    def __str__(self) -> str:
        return ",".join("{" + ",".join(str(x) for x in b) + "}" for b in self.blocks)

    def to_json(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]


def canonical_matching(ground: int, blocks) -> PerfectMatching:
    canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
    return PerfectMatching(ground, canon)


def parse_matching(text: str, ground: int) -> PerfectMatching:
    text = text.replace(" ", "")
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"bad matching literal: {text!r}")
    blocks = [
        tuple(int(x) for x in part.split(",") if x)
        for part in text[1:-1].split("},{")
    ]
    return canonical_matching(ground, blocks)


@memo_image
def pm(p: RationalDyckPath) -> PerfectMatching:
    """The slope-line matching of a path.

    Walking on from the m-th up step, the level b*(y - y0) - a*(x - x0)
    relative to its base (x0, y0) starts at b, rises by b per up step and
    falls by a per right step.  The line first returns on the first right
    step that starts at a level d <= a; it meets that step at x0 + d/a, so the
    step itself belongs to the block exactly when d == a.
    """
    s = p.slope
    a, b = s.a, s.b
    total = s.total_steps
    is_up = [False] * (total + 1)
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
    return PerfectMatching(total, tuple(reversed(blocks)))


def pm_inverse(m: PerfectMatching, slope: Slope) -> RationalDyckPath:
    """Path whose up steps sit at the block minima; validates the round trip."""
    steps = tuple(sorted(block[0] for block in m.blocks))
    path = RationalDyckPath(slope, steps)
    if pm(path) != m:
        raise ValueError(f"matching {m} is not the matching of any {slope} path")
    return path


def bar(m: PerfectMatching) -> PerfectMatching:
    """Relabel i -> ground+1-i; an involution preserving non-crossingness."""
    g = m.ground_size
    return canonical_matching(g, [[g + 1 - x for x in block] for block in m.blocks])


def rotate(m: PerfectMatching) -> PerfectMatching:
    """Shift every element down by one cyclically (1 -> ground)."""
    g = m.ground_size
    return canonical_matching(g, [[(x - 2) % g + 1 for x in block] for block in m.blocks])


@memo_image
def dpm(p: RationalDyckPath) -> PerfectMatching:
    """The dual matching: bar of the matching of the transposed path."""
    return bar(pm(star_path(p)))
