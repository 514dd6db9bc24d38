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
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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


def admissible(slope: Slope, candidate, built=(), memo=None) -> bool:
    """Whether ``candidate`` closes as a maximal matching block given the
    already-built blocks.

    The span [min, max] of the candidate must parse as one complete window:
    the candidate's rights alternate with complete sub-windows, each rooted
    at a built up step (owning exactly its block's rights) or at a free
    position (a later block, possibly wrapping around built material), every
    interior prefix stays strictly above the slope line, and the number of
    later up steps consumed inside matches the closure count.

    ``memo`` shares sub-window verdicts between calls, keyed by span.  A
    sub-window holding a candidate position fails at once, since the parse
    can neither own nor open on one; that check comes before any lookup, so
    every stored verdict depends on ``built`` alone.  A memo is therefore
    valid only while ``built`` stays the same: ``mat`` starts a fresh one for
    each valley entry and shares it across the sizes it tries.  Without one,
    the call keeps a private memo.
    """
    cand = sorted(set(candidate))
    if not cand:
        return False
    lo, hi = cand[0], cand[-1]
    inside: list[tuple[int, ...]] = []
    for block in built:
        block = tuple(sorted(block))
        if lo <= block[0] and block[-1] <= hi:
            inside.append(block)
        elif any(lo <= x <= hi for x in block):
            return False  # window nesting would be violated

    tags: dict[int, tuple[str, int]] = {pos: ("F", -1) for pos in range(lo, hi + 1)}
    for idx, block in enumerate(inside):
        tags[block[0]] = ("U", idx)
        for x in block[1:]:
            tags[x] = ("R", idx)
    for x in cand[1:]:
        if tags[x] != ("F", -1):
            raise ValueError("candidate overlaps a built block")
        tags[x] = ("C", -1)
    tags[lo] = ("root", -1)

    c_top = _window_ups(slope, hi - lo + 1)
    if c_top is None:
        return False
    future_needed = c_top - 1 - len(inside)
    if future_needed < 0 or future_needed > slope.up_count - len(built) - 1:
        return False

    a, b = slope.a, slope.b
    if memo is None:
        memo = {}

    def window_ok(i: int, j: int, c: int) -> bool:
        """[i, j], of complete-window length for c up steps, is one window
        rooted at i."""
        k = bisect_right(cand, i)
        if k < len(cand) and cand[k] <= j:
            return False
        key = (i, j)
        if key not in memo:
            memo[key] = _window_ok(i, j, c)
        return memo[key]

    def _window_ok(i: int, j: int, c: int) -> bool:
        kind, idx = tags[i]
        if kind == "U":
            if inside[idx][-1] > j:
                return False
            own = ("R", idx)
        elif kind == "F":
            own = ("F", -1)
        else:
            return False
        return parse(i, j, c, own)

    def parse(i: int, j: int, c_total: int, own: tuple[str, int]) -> bool:
        seen: set[tuple[int, int, bool]] = set()

        def rec(pos: int, ups: int, after_open_return: bool) -> bool:
            # after_open_return: the previous item was a window whose first
            # return is mid-step, so the next step cannot be an up step
            if pos > j:
                return ups == c_total - 1
            if (pos, ups, after_open_return) in seen:
                return False
            seen.add((pos, ups, after_open_return))
            kind, idx = tags[pos]
            if (kind, idx) == own:
                rights = (pos - i) - ups
                if pos == j or b * (1 + ups) > a * rights:
                    if rec(pos + 1, ups, False):
                        return True
            if kind in ("U", "F") and not after_open_return:
                c_sub = 1
                q = pos + window_length(slope, 1) - 1
                while q <= j:
                    if window_ok(pos, q, c_sub):
                        ups2 = ups + c_sub
                        rights2 = (q - i) - ups2
                        if q == j or b * (1 + ups2) > a * rights2:
                            inexact = (b * c_sub) % a != 0
                            if rec(q + 1, ups2, inexact):
                                return True
                    c_sub += 1
                    q = pos + window_length(slope, c_sub) - 1
            return False

        return rec(i + 1, 0, False)

    return parse(lo, hi, c_top, ("C", -1))


def _grow_sequence(start: int, pool: set[int], increasing: bool) -> list[int]:
    """The pool in cyclic order from ``start`` (a member of it), ascending or
    descending."""
    ordered = sorted(pool)
    i = bisect_left(ordered, start)
    if increasing:
        return ordered[i:] + ordered[:i]
    return ordered[i::-1] + ordered[:i:-1]


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
    pool = set(range(1, total + 1))
    built: list[tuple[int, ...]] = []
    for entry in k_sequence(p).entries:
        start = entry.numeric(s)
        if start not in pool:
            raise InvariantError(
                f"matching map start {start} already consumed on {p} "
                "(admissibility interpretation bug)"
            )
        seq = _grow_sequence(start, pool, increasing=entry.barred)
        # Every prefix past the representing length fails, so the largest
        # admissible size is the first one found scanning down from it.
        first = min(ktilde + 1, len(seq))
        verdicts: dict[tuple[int, int], bool] = {}  # valid while built is fixed
        best = next(
            (size for size in range(_representing_length(s, seq), first - 1, -1)
             if admissible(s, seq[:size], built, verdicts)),
            None,
        )
        if best is None:
            raise InvariantError(
                f"no admissible block for entry {entry} of {p} "
                "(admissibility interpretation bug)"
            )
        block = tuple(sorted(seq[:best]))
        built.append(block)
        pool.difference_update(block)
    if pool:
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
    win ties), then rebuild the unique path with that valley set."""
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
    values = sorted((e.value for e in selections if not e.barred), reverse=True)

    solutions: list[tuple[int, ...]] = []

    def rec(m: int, prev: int, remaining: list[int], acc: list[int]) -> None:
        if m > an:
            if not remaining:
                solutions.append(tuple(acc))
            return
        row = an + 1 - m
        if row in barred_rows:
            u = 1 if m == 1 else prev + 1
            if u <= s.step_bound(m):
                acc.append(u)
                rec(m + 1, u, remaining, acc)
                acc.pop()
        else:
            if m == 1:
                return  # the bottom row can never hold a valley
            for idx, v in enumerate(remaining):
                u = bn - v + 1 + m
                if u > prev + 1 and u <= s.step_bound(m):
                    acc.append(u)
                    rec(m + 1, u, remaining[:idx] + remaining[idx + 1 :], acc)
                    acc.pop()

    rec(1, 0, values, [])
    if len(solutions) != 1:
        raise ValueError(
            f"selections of {q} do not form a valid valley sequence "
            f"({len(solutions)} reconstructions)"
        )
    return RationalDyckPath(s, solutions[0])
