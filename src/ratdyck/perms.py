"""321-avoiding permutations, their grid-diagram paths, and two-row RSK.

A permutation is drawn on an n-by-n grid with a mark in column i (from the
left) and row w_i (from the bottom).  Marks on or above the main diagonal
are the peaks of the classical path of the permutation; the marks below the
diagonal drive the two companion paths.  Peak/valley coordinates here are
lattice points: a peak at (x, y) means the path passes through (x, y)
arriving upward and leaving rightward.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matchings import PerfectMatching, canonical_matching
from .paths import InvariantError, RationalDyckPath, Slope, memo_image, path_from_word


@dataclass(frozen=True)
class Permutation321:
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.values)
        if sorted(self.values) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of [1,{n}]: {self.values}")
        if not _is_321_avoiding(self.values):
            raise ValueError(f"permutation contains a 321 pattern: {self.values}")

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
    # a 321 pattern exists iff some value has a larger value before it and a
    # smaller value after it
    n = len(values)
    prefix_max = 0
    for i, v in enumerate(values):
        if prefix_max > v and any(w < v for w in values[i + 1 :]):
            return False
        prefix_max = max(prefix_max, v)
    return True


def parse_permutation(text: str) -> Permutation321:
    text = text.strip()
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


@dataclass(frozen=True)
class RotheMarks:
    """Grid marks of a permutation, split by position against the diagonal."""

    n: int
    above: tuple[tuple[int, int], ...]
    diagonal: tuple[tuple[int, int], ...]
    below: tuple[tuple[int, int], ...]


def rothe_marks(w: Permutation321) -> RotheMarks:
    """One mark per column at (column, value), classified by the diagonal."""
    above, diag, below = [], [], []
    for i, v in enumerate(w.values, start=1):
        (above if v > i else diag if v == i else below).append((i, v))
    return RotheMarks(w.n, tuple(above), tuple(diag), tuple(below))


def _path_from_peaks(n: int, peaks: list[tuple[int, int]]) -> RationalDyckPath:
    """The above-diagonal path through (x, y) peaks, in U/R letters."""
    word = []
    cx = cy = 0
    for x, y in peaks:
        if x < cx or y <= cy:
            raise ValueError(f"peaks are not increasing: {peaks}")
        word.append("R" * (x - cx) + "U" * (y - cy))
        cx, cy = x, y
    word.append("R" * (n - cx))
    return path_from_word(classical_slope(n), "".join(word))


def _peaks_of_path(p: RationalDyckPath) -> list[tuple[int, int]]:
    word = p.word
    verts = p.vertices()
    return [verts[i] for i in range(1, len(word)) if word[i - 1] == "U" and word[i] == "R"]


def _valleys_of_path(p: RationalDyckPath) -> list[tuple[int, int]]:
    word = p.word
    verts = p.vertices()
    return [verts[i] for i in range(1, len(word)) if word[i - 1] == "R" and word[i] == "U"]


def e_p(w: Permutation321) -> RationalDyckPath:
    """Path whose peaks sit at the northwest corners of the on/above marks."""
    marks = rothe_marks(w)
    peaks = sorted((i - 1, v) for i, v in marks.above + marks.diagonal)
    return _path_from_peaks(w.n, peaks)


def e_p_inverse(p: RationalDyckPath) -> Permutation321:
    n = p.slope.n
    if (p.slope.a, p.slope.b) != (1, 1):
        raise ValueError("the grid construction needs a classical path")
    assign = {x + 1: y for x, y in _peaks_of_path(p)}
    free_vals = sorted(set(range(1, n + 1)) - set(assign.values()))
    vals = []
    it = iter(free_vals)
    for col in range(1, n + 1):
        vals.append(assign.get(col) or next(it))
    return Permutation321(tuple(vals))


def e_v(w: Permutation321) -> RationalDyckPath:
    """Path whose peaks sit over the valleys of e_p(w), completed with
    diagonal peaks whenever the required peaks alone are unreachable."""
    n = w.n
    required = [(x - 1, y + 1) for x, y in _valleys_of_path(e_p(w))]
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
    n = w.n
    corners = [(i - 1, v) for i, v in rothe_marks(w).below]
    word = []
    cx = cy = 0
    for x, y in corners:
        word.append("R" * (x - cx) + "U" * (y - cy))
        cx, cy = x, y
    word.append("R" * (n - cx) + "U" * (n - cy))
    return _reflect_word(n, "".join(word))


def e_w(w: Permutation321) -> RationalDyckPath:
    """Reflection of the below-diagonal path with valleys at the southeast
    corners of the on/below marks."""
    n = w.n
    marks = rothe_marks(w)
    valleys = sorted((i, v - 1) for i, v in marks.below + marks.diagonal)
    word = []
    cx = cy = 0
    first = True
    for x, y in valleys:
        if first:
            if y != 0:
                raise InvariantError(f"first grid valley off the floor: {valleys}")
            word.append("R" * x)
            first = False
        else:
            word.append("U" * (y - cy) + "R" * (x - cx))
        cx, cy = x, y
    word.append("U" * (n - cy))
    return _reflect_word(n, "".join(word))


def _reflect_word(n: int, word: str) -> RationalDyckPath:
    swapped = word.translate(str.maketrans("UR", "RU"))
    return path_from_word(classical_slope(n), swapped)


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
            bigger = next((k for k, x in enumerate(insertion[row]) if x > v), None)
            if bigger is None:
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
    letters = [""] * (2 * n)
    first_ins = set(insertion[0])
    first_rec = set(recording[0])
    for i in range(1, n + 1):
        letters[i - 1] = "U" if i in first_ins else "R"
        letters[2 * n - i] = "R" if i in first_rec else "U"
    return path_from_word(classical_slope(n), "".join(letters))


def pm_cross(w: Permutation321) -> PerfectMatching:
    """Resolve every crossing of the strand diagram of w planarly.

    Arcs are drawn as semicircles; two interleaved arcs (a,c), (b,d) cross
    once at x = (ac-bd)/((a+c)-(b+d)).  Smoothing a crossing joins the two
    left branches and the two right branches, so a strand switches arcs and
    reverses direction at every crossing it meets.
    """
    n = w.n
    arcs = sorted((w.values[n - i], n + i) for i in range(1, n + 1))
    crossings: list[list[tuple[Fraction, int]]] = [[] for _ in arcs]
    for i1, (a, c) in enumerate(arcs):
        for i2, (b, d) in enumerate(arcs):
            if i1 < i2 and a < b < c < d:
                x = Fraction(a * c - b * d, (a + c) - (b + d))
                crossings[i1].append((x, i2))
                crossings[i2].append((x, i1))
    for lst in crossings:
        lst.sort()

    def trace(start: int) -> int:
        arc = next(i for i, (a, c) in enumerate(arcs) if start in (a, c))
        going_right = arcs[arc][0] == start
        idx = 0 if going_right else len(crossings[arc]) - 1
        while 0 <= idx < len(crossings[arc]):
            x, other = crossings[arc][idx]
            previous = arc
            arc, going_right = other, not going_right
            at = crossings[arc].index((x, previous))
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

