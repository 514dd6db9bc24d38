"""Rational Dyck paths with coprime slope, their encodings and basic maps.

A path of slope (a, b) and size n runs from (0, 0) to (b*n, a*n) in unit up
and right steps, staying weakly above the line y = a*x/b.  The canonical
encoding is the *step sequence*: the ascending list of positions (among all
(a+b)*n steps, 1-based) occupied by the a*n up steps.  Everything else (the
U/R word, the two-row tableau, the Young rows of the region below the top
path) is a derived view.

All comparisons against the boundary line use exact integer
cross-multiplication, and counting is exact integer arithmetic.

``image_scope`` shares map images across a run: while one is open, every
map decorated with ``memo_image`` computes its image of each argument once
and hands back the stored result afterwards, ``enumerate_paths`` returns the
scope's canonical path objects, and path images are interned to them.  Only
pure one-argument maps with frozen results may carry the decorator.  Outside
a scope nothing is cached: a decorated map calls straight through.
"""

from __future__ import annotations

import math
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import combinations
from typing import Callable, Iterator


class InvariantError(AssertionError):
    """An internal invariant broke: a defect in the library, not bad input."""


@dataclass(frozen=True)
class Slope:
    """Coprime slope parameters and path size."""

    a: int
    b: int
    n: int

    # The dataclass hash, cached on first use: memo tables hash the same
    # slopes and paths over and over.  The cache stays out of pickles.
    _hash = None

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.a, self.b, self.n))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        return {"a": self.a, "b": self.b, "n": self.n}

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 1:
            raise ValueError(f"slope parameters must be positive, got ({self.a},{self.b})")
        if math.gcd(self.a, self.b) != 1:
            raise ValueError(f"slope parameters must be coprime, got ({self.a},{self.b})")
        if self.n < 1:
            raise ValueError(f"size must be at least 1, got {self.n}")

    @property
    def total_steps(self) -> int:
        return (self.a + self.b) * self.n

    @property
    def up_count(self) -> int:
        return self.a * self.n

    @property
    def right_count(self) -> int:
        return self.b * self.n

    def step_bound(self, j: int) -> int:
        """Largest allowed position of the j-th up step (1-based j)."""
        return (j - 1) * self.b // self.a + j

    def transpose(self) -> "Slope":
        return Slope(self.b, self.a, self.n)


@dataclass(frozen=True)
class RationalDyckPath:
    """A rational Dyck path, stored as its ascending step sequence."""

    slope: Slope
    steps: tuple[int, ...]

    _hash = None  # as on Slope

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.slope, self.steps))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        return {"slope": self.slope, "steps": self.steps}

    def __post_init__(self) -> None:
        s = self.slope
        steps = self.steps
        if len(steps) != s.up_count:
            raise ValueError(f"expected {s.up_count} up steps, got {len(steps)}")
        # The step bound alone decides validity: the step-bound-geometry
        # identity checks it against the line y = ax/b (word_above_line).
        # One pass with the bound inlined; _step_error names the first rule
        # broken, in a fixed order, only when this pass fails.
        a, b = s.a, s.b
        prev = 0
        for j, u in enumerate(steps, start=1):
            if not prev < u <= (j - 1) * b // a + j:
                raise ValueError(_step_error(s, steps))
            prev = u

    @property
    def word(self) -> str:
        up = set(self.steps)
        return "".join("U" if i in up else "R" for i in range(1, self.slope.total_steps + 1))

    def vertices(self) -> list[tuple[int, int]]:
        """Lattice points visited, from (0,0) to (bn, an)."""
        pts = [(0, 0)]
        x = y = 0
        up = set(self.steps)
        for i in range(1, self.slope.total_steps + 1):
            if i in up:
                y += 1
            else:
                x += 1
            pts.append((x, y))
        return pts

    def up_x(self, m: int) -> int:
        """x-coordinate of the m-th up step (1-based from the bottom)."""
        return self.steps[m - 1] - m

    def steps_str(self) -> str:
        return ",".join(str(u) for u in self.steps)

    def to_json(self) -> dict:
        s = self.slope
        return {"a": s.a, "b": s.b, "n": s.n, "steps": list(self.steps)}

    def __str__(self) -> str:
        return self.steps_str()


def _step_error(s: Slope, steps: tuple[int, ...]) -> str:
    """The message for a step sequence of the right length that is invalid."""
    if any(y <= x for x, y in zip(steps, steps[1:])):
        return f"step sequence must be strictly increasing: {steps}"
    if steps[0] < 1 or steps[-1] > s.total_steps:
        return f"step positions must lie in [1,{s.total_steps}]: {steps}"
    j, u = next((j, u) for j, u in enumerate(steps, start=1) if u > s.step_bound(j))
    return f"step {j} at position {u} exceeds bound {s.step_bound(j)}"


# ---------------------------------------------------------------------------
# Image scope


class _Images:
    """The images stored while a scope is open: one table per map, the
    canonical path objects, and the enumerated slopes."""

    def __init__(self) -> None:
        self.tables: defaultdict[Callable, dict] = defaultdict(dict)
        self.paths: dict[RationalDyckPath, RationalDyckPath] = {}
        self.enumerated: dict[Slope, tuple[RationalDyckPath, ...]] = {}

    def intern(self, x):
        """The canonical object equal to ``x``, if ``x`` is a path."""
        if type(x) is RationalDyckPath:
            return self.paths.setdefault(x, x)
        return x


_images: _Images | None = None


@contextmanager
def image_scope() -> Iterator[None]:
    """Share map images until the scope closes.  Inside an open scope this
    opens nothing, so the outermost scope decides how long images live."""
    global _images
    if _images is not None:
        yield
        return
    _images = _Images()
    try:
        yield
    finally:
        _images = None


def memo_image(fn: Callable) -> Callable:
    """Inside an image scope, compute ``fn``'s image of each argument once;
    outside one, call ``fn`` directly.  ``fn`` must be a pure map of one
    argument whose results are frozen."""

    @wraps(fn)
    def memoized(x):
        scope = _images
        if scope is None:
            return fn(x)
        table = scope.tables[fn]
        try:
            return table[x]
        except KeyError:
            pass
        image = scope.intern(fn(x))
        table[scope.intern(x)] = image
        return image

    return memoized


def _weakly_above_line(slope: Slope, steps: tuple[int, ...]) -> bool:
    x = y = 0
    up = set(steps)
    for i in range(1, slope.total_steps + 1):
        if i in up:
            y += 1
        else:
            x += 1
            if slope.b * y < slope.a * x:
                return False
    return True


def steps_within_bound(slope: Slope, steps: tuple[int, ...]) -> bool:
    """The arithmetic bound u_j <= floor((j-1)b/a) + j, without geometry."""
    if len(steps) != slope.up_count or any(y <= x for x, y in zip(steps, steps[1:])):
        return False
    if steps and (steps[0] < 1 or steps[-1] > slope.total_steps):
        return False
    return all(u <= slope.step_bound(j) for j, u in enumerate(steps, start=1))


def word_above_line(slope: Slope, steps: tuple[int, ...]) -> bool:
    """The geometric condition alone, on an arbitrary step set."""
    if len(steps) != slope.up_count or any(y <= x for x, y in zip(steps, steps[1:])):
        return False
    if steps and (steps[0] < 1 or steps[-1] > slope.total_steps):
        return False
    return _weakly_above_line(slope, steps)


def path_from_steps(slope: Slope, steps) -> RationalDyckPath:
    return RationalDyckPath(slope, tuple(int(u) for u in steps))


def path_from_word(slope: Slope, word: str) -> RationalDyckPath:
    if set(word) - {"U", "R"}:
        raise ValueError(f"word must be over U/R: {word!r}")
    steps = tuple(i for i, c in enumerate(word, start=1) if c == "U")
    if len(word) != slope.total_steps:
        raise ValueError(f"word length {len(word)} != {slope.total_steps}")
    return RationalDyckPath(slope, steps)


def parse_steps(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.replace(" ", "").split(",") if part)


def top_path(slope: Slope) -> RationalDyckPath:
    return RationalDyckPath(slope, tuple(range(1, slope.up_count + 1)))


def lowest_path(slope: Slope) -> RationalDyckPath:
    return RationalDyckPath(slope, tuple(slope.step_bound(j) for j in range(1, slope.up_count + 1)))


def enumerate_paths(slope: Slope) -> list[RationalDyckPath]:
    """All paths of the slope in lexicographic order on step sequences.

    Inside an image scope, a new list of the scope's canonical paths."""
    scope = _images
    if scope is None:
        return [RationalDyckPath(slope, s) for s in _step_sequences(slope)]
    paths = scope.enumerated.get(slope)
    if paths is None:
        paths = tuple(scope.intern(RationalDyckPath(slope, s)) for s in _step_sequences(slope))
        scope.enumerated[slope] = paths
    return list(paths)


def iter_step_sequences(slope: Slope) -> Iterator[tuple[int, ...]]:
    an = slope.up_count

    def extend(prefix: list[int]) -> Iterator[tuple[int, ...]]:
        j = len(prefix)
        if j == an:
            yield tuple(prefix)
            return
        lo = prefix[-1] + 1 if prefix else 1
        for u in range(lo, slope.step_bound(j + 1) + 1):
            prefix.append(u)
            yield from extend(prefix)
            prefix.pop()

    yield from extend([])


@lru_cache(maxsize=None)
def _step_sequences(slope: Slope) -> tuple[tuple[int, ...], ...]:
    return tuple(iter_step_sequences(slope))


def count_paths(slope: Slope) -> int:
    """Number of paths, by Bizley's formula (Bizley 1954), in exact integers.

    The counts have generating function exp(sum_j C((a+b)j, aj) x^j / (j(a+b))),
    and the power-series exponential gives the recurrence
    m(a+b) F_m = sum_{j=1..m} C((a+b)j, aj) F_{m-j} with F_0 = 1.  Every F_m
    is a path count, so each division is exact.
    """
    a, b, n = slope.a, slope.b, slope.n
    binoms = [math.comb((a + b) * j, a * j) for j in range(n + 1)]
    counts = [1]
    for m in range(1, n + 1):
        total = sum(binoms[j] * counts[m - j] for j in range(1, m + 1))
        value, rest = divmod(total, m * (a + b))
        if rest:
            raise InvariantError(f"path count for {slope} is not integral at size {m}")
        counts.append(value)
    return counts[n]


def count_paths_dp(slope: Slope) -> int:
    """Independent count by dynamic programming over lattice points."""
    a, b, n = slope.a, slope.b, slope.n
    bn, an = b * n, a * n
    col = [1] * (an + 1)  # x = 0: the straight climb
    for x in range(1, bn + 1):
        new = [0] * (an + 1)
        for y in range(an + 1):
            if b * y < a * x:
                continue
            # arrive by a right step (col[y]) or an up step (new[y-1])
            new[y] = col[y] + (new[y - 1] if y > 0 else 0)
        col = new
    return col[an]


def is_prime(p: RationalDyckPath) -> bool:
    """True iff the path touches y = ax/b only at its two endpoints."""
    s = p.slope
    verts = p.vertices()
    return not any(s.b * y == s.a * x for x, y in verts[1:-1])


# ---------------------------------------------------------------------------
# Two-row tableau view


@dataclass(frozen=True)
class ABTableau:
    """Two-row tableau of a path: first row the up positions, second the rest."""

    slope: Slope
    first_row: tuple[int, ...]
    second_row: tuple[int, ...]

    def __post_init__(self) -> None:
        s = self.slope
        total = s.total_steps
        if sorted(self.first_row + self.second_row) != list(range(1, total + 1)):
            raise ValueError("rows must partition the ground set")
        if len(self.first_row) != s.up_count:
            raise ValueError(f"first row must have {s.up_count} entries")
        # Row contents must come from a valid path of this slope.
        RationalDyckPath(s, tuple(sorted(self.first_row)))


def to_tableau(p: RationalDyckPath) -> ABTableau:
    total = p.slope.total_steps
    second = tuple(i for i in range(1, total + 1) if i not in set(p.steps))
    return ABTableau(p.slope, p.steps, second)


def from_tableau(t: ABTableau) -> RationalDyckPath:
    return RationalDyckPath(t.slope, tuple(sorted(t.first_row)))


def star(t: ABTableau) -> ABTableau:
    """Exchange the two rows under i -> (a+b)n+1-i; an involution onto (b,a)."""
    total = t.slope.total_steps
    new_first = tuple(sorted(total + 1 - i for i in t.second_row))
    new_second = tuple(sorted(total + 1 - i for i in t.first_row))
    return ABTableau(t.slope.transpose(), new_first, new_second)


def star_path(p: RationalDyckPath) -> RationalDyckPath:
    """The path-level star: an (a,b)-path read as a (b,a)-path."""
    return from_tableau(star(to_tableau(p)))


# ---------------------------------------------------------------------------
# Young-row (region) coordinates


def young_rows(p: RationalDyckPath) -> tuple[int, ...]:
    """Boxes between the path and the top path, per row from the top."""
    an = p.slope.up_count
    return tuple(p.steps[an - i] - (an + 1 - i) for i in range(1, an + 1))


def region_rows(slope: Slope) -> tuple[int, ...]:
    """Row lengths of the full region below the top path (the staircase)."""
    an = slope.up_count
    return tuple((an - i) * slope.b // slope.a for i in range(1, an + 1))


def path_from_young_rows(slope: Slope, rows) -> RationalDyckPath:
    rows = tuple(rows)
    an = slope.up_count
    if len(rows) != an:
        raise ValueError(f"expected {an} rows, got {len(rows)}")
    if any(r < 0 for r in rows) or any(x < y for x, y in zip(rows, rows[1:])):
        raise ValueError(f"rows must be non-negative and weakly decreasing: {rows}")
    staircase = region_rows(slope)
    if any(r > cap for r, cap in zip(rows, staircase)):
        raise ValueError(f"rows {rows} do not fit inside the staircase {staircase}")
    steps = tuple(rows[an - j] + j for j in range(1, an + 1))
    return RationalDyckPath(slope, steps)


def enumerate_words(slope: Slope) -> Iterator[tuple[int, ...]]:
    """All step sets of the right length, valid or not (for boundary tests)."""
    for combo in combinations(range(1, slope.total_steps + 1), slope.up_count):
        yield combo
