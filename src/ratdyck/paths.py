"""Rational Dyck paths with coprime slope, their encodings and basic maps.

A path of slope (a, b) and size n runs from (0, 0) to (b*n, a*n) in unit up
and right steps, staying weakly above the line y = a*x/b.  The canonical
encoding is the *step sequence*: the ascending list of positions (among all
(a+b)*n steps, 1-based) occupied by the a*n up steps.  Everything else (the
U/R word, the two-row tableau, the Young rows of the region below the top
path) is a derived view.

All comparisons against the boundary line use exact integer
cross-multiplication, and counting is exact integer arithmetic.

A path is built either by its constructor, which validates the steps, or
by ``RationalDyckPath._caller_checked``, which does not; partitions and
matchings likewise have ``NonCrossingPartition._caller_checked``, and
chains ``NonCrossingChain._caller_checked``.  Both builders of paths and
of partitions set their slots through bound slot descriptors, and no other
code may call those setters.  Parsing, the public constructors, unpickling
and every other map validate.  Only a kernel whose output is valid by how
it is built, stated as a lemma in its docstring, may build it unchecked:
``enumerate_paths``, the toggle kernels of ``promotion``, the row sweep of
``rowmotion`` and the chain encoder ``noncrossing.ncp_to_dyck`` for paths;
``matchings.pm``, ``matchings.dpm``, the dihedral relabels
``NonCrossingPartition._rotated`` and ``NonCrossingPartition._reflected``
and the stack walk ``noncrossing.enumerate_ncps`` for matchings and
partitions; and ``noncrossing.enumerate_chains`` for chains.  The
``noncrossing`` module docstring states the lemma of each of its builders.

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
from functools import lru_cache, wraps
from itertools import combinations
from typing import Callable, Iterator


class InvariantError(AssertionError):
    """An internal invariant broke: a defect in the library, not bad input."""


class Value:
    """Base of the immutable value classes.

    The fields are the class's annotated names, in order.  Each subclass
    declares them in ``__slots__`` and writes its own ``__init__``, which
    sets them past the base's guard and then validates them: no code is
    generated, so importing the classes costs next to nothing.  The base
    forbids assignment and deletion, and gives the repr ``Name(field=value,
    ...)``, pickling through the constructor, and equality and hashing over
    the fields, equal only within one class.  Classes compared and hashed
    in hot loops write their own ``__eq__`` and ``__hash__`` over the same
    fields, as a field tuple, and those used as memo keys (slopes, paths,
    partitions, matchings and chains) cache that hash in a ``_hash`` slot on
    first use, kept out of equality and pickles.  Classes built in hot loops
    (paths, partitions, matchings) likewise set their slots through
    module-level bound slot descriptors, such as
    ``RationalDyckPath.steps.__set__``, called only by their own builders;
    the others use ``object.__setattr__``."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__) or cls._fields

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is immutable")


class Slope(Value):
    """Coprime slope parameters and path size."""

    # _hash caches the field-tuple hash on first use: memo tables hash the
    # same slopes and paths over and over.  It stays out of pickles.
    __slots__ = ("a", "b", "n", "_hash")
    a: int
    b: int
    n: int

    def __init__(self, a: int, b: int, n: int) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_hash", None)
        if a < 1 or b < 1:
            raise ValueError(f"slope parameters must be positive, got ({a},{b})")
        if math.gcd(a, b) != 1:
            raise ValueError(f"slope parameters must be coprime, got ({a},{b})")
        if n < 1:
            raise ValueError(f"size must be at least 1, got {n}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.n) == (other.a, other.b, other.n)
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.a, self.b, self.n))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        return f"({self.a},{self.b}) n={self.n}"

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


class RationalDyckPath(Value):
    """A rational Dyck path, stored as its ascending step sequence.

    There are two ways to build one.  The constructor checks the steps in
    one pass and raises ``ValueError`` naming the first rule broken.
    ``_caller_checked`` sets the fields without a check, for a kernel whose
    construction already implies every condition the constructor checks:
    the length a*n, strictly increasing steps in [1, (a+b)n], and each
    u_j <= step_bound(j).  A caller is added only with that implication
    written as a lemma in its docstring, and the same rule holds for
    ``NonCrossingPartition._caller_checked`` and
    ``NonCrossingChain._caller_checked``; the allowed callers of all three
    are listed in the tests, and the values they build are checked against
    the constructors there."""

    __slots__ = ("slope", "steps", "_hash")  # _hash as on Slope
    slope: Slope
    steps: tuple[int, ...]

    def __init__(self, slope: Slope, steps: tuple[int, ...]) -> None:
        _set_slope(self, slope)
        _set_steps(self, steps)
        _set_hash(self, None)
        if len(steps) != slope.up_count:
            raise ValueError(f"expected {slope.up_count} up steps, got {len(steps)}")
        # The step bound alone decides validity: the step-bound-geometry
        # identity checks this constructor against the line y = ax/b
        # (word_above_line).
        # One pass with the bound inlined; _step_error names the first rule
        # broken, in a fixed order, only when this pass fails.
        a, b = slope.a, slope.b
        prev = 0
        for j, u in enumerate(steps, start=1):
            if not prev < u <= (j - 1) * b // a + j:
                raise ValueError(_step_error(slope, steps))
            prev = u

    @classmethod
    def _caller_checked(cls, slope: Slope, steps: tuple[int, ...]) -> "RationalDyckPath":
        """The path with these steps, which the caller has proven valid."""
        p = object.__new__(cls)
        _set_slope(p, slope)
        _set_steps(p, steps)
        _set_hash(p, None)
        return p

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.slope, self.steps) == (other.slope, other.steps)
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.slope, self.steps))
            object.__setattr__(self, "_hash", h)
        return h

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

    def steps_str(self) -> str:
        return ",".join(str(u) for u in self.steps)

    def to_json(self) -> dict:
        s = self.slope
        return {"a": s.a, "b": s.b, "n": s.n, "steps": list(self.steps)}

    def __str__(self) -> str:
        return self.steps_str()


# The slot setters the two builders above set a path's fields with: one
# descriptor call each, where object.__setattr__ looks the name up first.
# Nothing else may call them (pinned in the tests): on a live path they would
# rewrite a frozen, hashed and interned value.
_set_slope = RationalDyckPath.slope.__set__
_set_steps = RationalDyckPath.steps.__set__
_set_hash = RationalDyckPath._hash.__set__


def _step_error(s: Slope, steps: tuple[int, ...]) -> str:
    """The message for a step sequence of the right length that is invalid.
    Raises ``InvariantError`` if ``Slope.step_bound`` allows every step,
    since then the constructor's inline bound disagrees with it."""
    if any(y <= x for x, y in zip(steps, steps[1:])):
        return f"step sequence must be strictly increasing: {steps}"
    if steps[0] < 1 or steps[-1] > s.total_steps:
        return f"step positions must lie in [1,{s.total_steps}]: {steps}"
    bad = next(((j, u) for j, u in enumerate(steps, start=1) if u > s.step_bound(j)), None)
    if bad is None:
        raise InvariantError(f"the constructor's inline step bound refuses {steps}, "
                             "which Slope.step_bound allows")
    j, u = bad
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


def iterate(fn: Callable, inverse: Callable | None, x, power: int):
    """``fn`` applied ``power`` times to ``x``; a negative power applies
    ``inverse`` instead."""
    step = fn if power >= 0 else inverse
    for _ in range(abs(power)):
        x = step(x)
    return x


def word_above_line(slope: Slope, steps: tuple[int, ...]) -> bool:
    """The geometric condition alone, on any word of the slope: a*n
    ascending up-step positions in [1, (a+b)n], as `enumerate_words`
    yields them."""
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
    """All paths of the slope in lexicographic order on step sequences,
    built unchecked.

    Lemma: ``_step_sequences`` extends each sequence of j - 1 steps by every
    j-th step from one past its last (from 1 for the first) up to
    ``step_bound(j)``, which is at most (a+b)n, until there are a*n; so
    every sequence is strictly increasing, within its bounds, of the right
    length, and passes the constructor.

    Inside an image scope, a new list of the scope's canonical paths."""
    scope = _images
    if scope is not None and slope in scope.enumerated:
        return list(scope.enumerated[slope])
    paths = [RationalDyckPath._caller_checked(slope, s) for s in _step_sequences(slope)]
    if scope is not None:
        paths = list(scope.enumerated.setdefault(slope, tuple(map(scope.intern, paths))))
    return paths


@lru_cache(maxsize=128)
def _step_sequences(slope: Slope) -> tuple[tuple[int, ...], ...]:
    """Every step sequence of the slope, built one up step at a time, with
    no recursion: each level extends the sequences of the one before it, in
    order, by each allowed next step in increasing order, so the last level
    is in lexicographic order."""
    level = [()]
    for j in range(1, slope.up_count + 1):
        # a call, not inlined: the kernel tests loosen Slope.step_bound to
        # show that the routed enumeration catches a loose bound
        stop = slope.step_bound(j) + 1
        level = [s + (u,) for s in level for u in range(s[-1] + 1 if s else 1, stop)]
    return tuple(level)


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


class ABTableau(Value):
    """Two-row tableau of a path: first row the up positions, second the rest."""

    __slots__ = ("slope", "first_row", "second_row")
    slope: Slope
    first_row: tuple[int, ...]
    second_row: tuple[int, ...]

    def __init__(self, slope: Slope, first_row: tuple[int, ...],
                 second_row: tuple[int, ...]) -> None:
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "first_row", first_row)
        object.__setattr__(self, "second_row", second_row)
        total = slope.total_steps
        if sorted(first_row + second_row) != list(range(1, total + 1)):
            raise ValueError("rows must partition the ground set")
        if len(first_row) != slope.up_count:
            raise ValueError(f"first row must have {slope.up_count} entries")
        # Row contents must come from a valid path of this slope.
        RationalDyckPath(slope, tuple(sorted(first_row)))


def to_tableau(p: RationalDyckPath) -> ABTableau:
    total = p.slope.total_steps
    up = set(p.steps)
    second = tuple(i for i in range(1, total + 1) if i not in up)
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
    """``from_tableau(star(to_tableau(p)))`` built as one (b,a)-path."""
    total = p.slope.total_steps
    up = set(p.steps)
    steps = tuple(total + 1 - i for i in range(total, 0, -1) if i not in up)
    return RationalDyckPath(p.slope.transpose(), steps)


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
    """Weakly decreasing rows inside the staircase are exactly steps
    u_j = r_(an+1-j) + j of a path, so the path's check is the rows' check;
    only when it fails are the rows scanned for the rule they break."""
    rows = tuple(rows)
    try:
        return RationalDyckPath(slope, tuple(r + j for j, r in enumerate(reversed(rows), start=1)))
    except ValueError:
        pass
    if len(rows) != slope.up_count:
        raise ValueError(f"expected {slope.up_count} rows, got {len(rows)}")
    if any(r < 0 for r in rows) or any(x < y for x, y in zip(rows, rows[1:])):
        raise ValueError(f"rows must be non-negative and weakly decreasing: {rows}")
    raise ValueError(f"rows {rows} do not fit inside the staircase {region_rows(slope)}")


def enumerate_words(slope: Slope) -> Iterator[tuple[int, ...]]:
    """All step sets of the right length, valid or not (for boundary tests)."""
    for combo in combinations(range(1, slope.total_steps + 1), slope.up_count):
        yield combo
