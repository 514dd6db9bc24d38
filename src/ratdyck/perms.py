"""321-avoiding permutations, their grid-diagram paths, and two-row RSK.

A permutation is drawn on an n-by-n grid with a mark in column i (from the
left) and row w_i (from the bottom).  Marks on or above the main diagonal
are the peaks of the classical path of the permutation; the marks below the
diagonal drive the two companion paths.  Peak/valley coordinates here are
lattice points: a peak at (x, y) means the path passes through (x, y)
arriving upward and leaving rightward.

Every grid path is built from its peaks as a step sequence, and read back
the same way.  Reflection across the diagonal swaps coordinates, so the two
reflected paths are built from the swapped corners of their marks.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import cmp_to_key
from itertools import pairwise

from .matchings import PerfectMatching, canonical_matching
from .paths import InvariantError, RationalDyckPath, Slope, Value, memo_image


class Permutation321(Value):
    __slots__ = ("values",)
    values: tuple[int, ...]

    def __init__(self, values: tuple[int, ...]) -> None:
        object.__setattr__(self, "values", values)
        n = len(values)
        if sorted(values) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of [1,{n}]: {values}")
        if not _is_321_avoiding(values):
            raise ValueError(f"permutation contains a 321 pattern: {values}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.values,) == (other.values,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.values,))

    @property
    def n(self) -> int:
        return len(self.values)

    def inverse(self) -> "Permutation321":
        inv = [0] * self.n
        for i, v in enumerate(self.values, start=1):
            inv[v - 1] = i
        return Permutation321(tuple(inv))

    def __str__(self) -> str:
        if self.n <= 9:
            return "".join(str(v) for v in self.values)
        return ",".join(str(v) for v in self.values)


def _is_321_avoiding(values: tuple[int, ...]) -> bool:
    # a permutation avoids 321 iff the values that are not left-to-right
    # maxima increase
    top = last = 0
    for v in values:
        if v > top:
            top = v
        elif v < last:
            return False
        else:
            last = v
    return True


def parse_permutation(text: str) -> Permutation321:
    text = text.strip()
    if not re.fullmatch(r"[0-9]+( *, *[0-9]+)*", text):
        raise ValueError(f"bad permutation literal: {text!r}")
    if "," in text:
        vals = tuple(int(x) for x in text.split(","))
    else:
        vals = tuple(int(c) for c in text)
    return Permutation321(vals)


def enumerate_321_avoiding(n: int) -> list[Permutation321]:
    out = []

    def rec(prefix: list[int], remaining: set[int]) -> None:
        if not remaining:
            out.append(Permutation321(tuple(prefix)))
            return
        for v in sorted(remaining):
            prefix.append(v)
            if _is_321_avoiding(tuple(prefix)):
                remaining.remove(v)
                rec(prefix, remaining)
                remaining.add(v)
            prefix.pop()

    rec([], set(range(1, n + 1)))
    return out


def classical_slope(n: int) -> Slope:
    return Slope(1, 1, n)


def _path_from_peaks(n: int, peaks: list[tuple[int, int]]) -> RationalDyckPath:
    """The classical path through (x, y) peaks: the up steps y' in
    (y_prev, y] of a peak at (x, y) sit at positions x + y'."""
    steps: list[int] = []
    cx = cy = 0
    for x, y in peaks:
        if x < cx or y <= cy:
            raise ValueError(f"peaks are not increasing: {peaks}")
        steps.extend(range(x + cy + 1, x + y + 1))
        cx, cy = x, y
    return RationalDyckPath(classical_slope(n), tuple(steps))


def _peaks(p: RationalDyckPath) -> list[tuple[int, int]]:
    """(u - m, m) for the m-th up step u when step u + 1 is not an up step."""
    s = p.steps
    return [(u - m, m) for m, u in enumerate(s, start=1) if m == len(s) or s[m] != u + 1]


def e_p(w: Permutation321) -> RationalDyckPath:
    """Path whose peaks sit at the northwest corners of the on/above marks."""
    return _path_from_peaks(w.n, [(i - 1, v) for i, v in enumerate(w.values, start=1) if v >= i])


def e_p_inverse(p: RationalDyckPath) -> Permutation321:
    n = p.slope.n
    if (p.slope.a, p.slope.b) != (1, 1):
        raise ValueError("the grid construction needs a classical path")
    assign = {x + 1: y for x, y in _peaks(p)}
    free = iter(sorted(set(range(1, n + 1)) - set(assign.values())))
    return Permutation321(tuple(assign.get(col) or next(free) for col in range(1, n + 1)))


def e_v(w: Permutation321) -> RationalDyckPath:
    """Path whose peaks sit over the valleys of e_p(w), completed with
    diagonal peaks whenever the required peaks alone are unreachable.
    Those valleys lie between consecutive on/above marks, at (x2, y1)."""
    n = w.n
    marks = [(i - 1, v) for i, v in enumerate(w.values, start=1) if v >= i]
    required = [(x2 - 1, y1 + 1) for (_, y1), (x2, _) in pairwise(marks)]
    peaks: list[tuple[int, int]] = []
    height = 0
    for x, y in required:
        while height < x:
            peaks.append((height, height + 1))
            height += 1
        peaks.append((x, y))
        height = y
    while height < n:
        peaks.append((height, height + 1))
        height += 1
    return _path_from_peaks(n, peaks)


def e_q(w: Permutation321) -> RationalDyckPath:
    """Reflection of the below-diagonal path whose up-right corners sit at
    the northwest corners of the strictly-below marks."""
    peaks = []
    y_prev = 0
    for i, v in enumerate(w.values, start=1):
        if v < i:
            peaks.append((y_prev, i - 1))
            y_prev = v
    peaks.append((y_prev, w.n))
    return _path_from_peaks(w.n, peaks)


def e_w(w: Permutation321) -> RationalDyckPath:
    """Reflection of the below-diagonal path with valleys at the southeast
    corners of the on/below marks."""
    peaks = [(v - 1, i) for i, v in enumerate(w.values, start=1) if v <= i]
    if peaks[0][0] != 0:
        raise InvariantError(f"first grid valley off the floor: {w}")
    return _path_from_peaks(w.n, peaks)


@memo_image
def dyck1(p: RationalDyckPath) -> RationalDyckPath:
    return e_v(e_p_inverse(p))


@memo_image
def dyck2(p: RationalDyckPath) -> RationalDyckPath:
    return e_q(e_p_inverse(p))


@memo_image
def dyck3(p: RationalDyckPath) -> RationalDyckPath:
    return e_w(e_p_inverse(p))


# ---------------------------------------------------------------------------
# Two-row RSK


def rsk_two_row(w: Permutation321) -> tuple[list[list[int]], list[list[int]]]:
    """Row-insertion RSK; rejects shapes with more than two rows."""
    insertion: list[list[int]] = [[], []]
    recording: list[list[int]] = [[], []]
    for pos, v in enumerate(w.values, start=1):
        row = 0
        while True:
            # each row is sorted, so the bumped entry is the first one past v
            bigger = bisect_right(insertion[row], v)
            if bigger == len(insertion[row]):
                insertion[row].append(v)
                recording[row].append(pos)
                break
            insertion[row][bigger], v = v, insertion[row][bigger]
            row += 1
            if row > 1:
                raise ValueError(f"insertion needs more than two rows: {w}")
    return insertion, recording


def rsk_hat(w: Permutation321) -> RationalDyckPath:
    """Path whose left half reads the insertion tableau and right half the
    recording tableau."""
    n = w.n
    insertion, recording = rsk_two_row(w)
    steps = insertion[0] + [2 * n + 1 - i for i in reversed(recording[1])]
    return RationalDyckPath(classical_slope(n), tuple(steps))


def _crossing_order(x: tuple[int, int, int], y: tuple[int, int, int]) -> int:
    """The order of two crossings on one arc, each (numerator, positive
    denominator, other arc): by position, then by the other arc."""
    return x[0] * y[1] - y[0] * x[1] or x[2] - y[2]


def pm_cross(w: Permutation321) -> PerfectMatching:
    """Resolve every crossing of the strand diagram of w planarly.

    Arcs are drawn as semicircles; two interleaved arcs (a,c), (b,d) with
    a < b < c < d cross once at x = (bd-ac)/((b+d)-(a+c)), whose
    denominator is positive.  Smoothing a crossing joins the two left
    branches and the two right branches, so a strand switches arcs and
    reverses direction at every crossing it meets.  The crossings along an
    arc are ordered by integer cross-multiplication, ties broken by the
    other arc's index.
    """
    n = w.n
    arcs = sorted((w.values[n - i], n + i) for i in range(1, n + 1))
    # each crossing as (numerator, denominator, the other arc)
    crossings: list[list[tuple[int, int, int]]] = [[] for _ in arcs]
    for i1, (a, c) in enumerate(arcs):
        for i2, (b, d) in enumerate(arcs):
            if i1 < i2 and a < b < c < d:
                num, den = b * d - a * c, (b + d) - (a + c)
                crossings[i1].append((num, den, i2))
                crossings[i2].append((num, den, i1))
    for lst in crossings:
        lst.sort(key=cmp_to_key(_crossing_order))

    def trace(start: int) -> int:
        arc = next(i for i, (a, c) in enumerate(arcs) if start in (a, c))
        going_right = arcs[arc][0] == start
        idx = 0 if going_right else len(crossings[arc]) - 1
        while 0 <= idx < len(crossings[arc]):
            num, den, other = crossings[arc][idx]
            previous = arc
            arc, going_right = other, not going_right
            at = crossings[arc].index((num, den, previous))
            idx = at + 1 if going_right else at - 1
        return arcs[arc][1] if going_right else arcs[arc][0]

    pairs = []
    seen: set[int] = set()
    for p in range(1, 2 * n + 1):
        if p not in seen:
            q = trace(p)
            seen.update((p, q))
            pairs.append((p, q))
    return canonical_matching(2 * n, [list(pair) for pair in pairs])


def pm_cross_path(w: Permutation321) -> RationalDyckPath:
    steps = tuple(sorted(arc[0] for arc in pm_cross(w).blocks))
    return RationalDyckPath(classical_slope(w.n), steps)


@memo_image
def rsk_path(p: RationalDyckPath) -> RationalDyckPath:
    """The RSK correspondence transported to a map on classical paths."""
    return rsk_hat(e_p_inverse(p))

