"""Maximal cover-inclusive tilings of the region above a (1,k)-path.

The region between a path and the top path is tiled by ribbons whose cell
centers trace (1,k)-paths.  The maximal cover-inclusive tiling is built from
its history lines: processing rows bottom-up, a line sweeps right through
free cells and climbs one row when blocked, provided the opened ribbon debt
can still be repaid further along; each line is then cut greedily into the
longest complete ribbons.  Each line is the rim of the cells still free,
so a list of row lengths is all the state it needs, and the line itself is
a list of run lengths: its rights in the start row, then the rights in each
row it climbs into.  Its debt is a running sum of k less each row's run,
clipped at zero, so the line stops where that sum is last least
(`_line_runs`).  `max_tiling` reads the greedy cut off the runs, one entry
per ribbon (`_cut`), and spells its tiles out as cells; `kappa` counts the
tiles from the runs alone, since every up step lies inside a ribbon.
Tiles are removed lowest-first (leftmost on ties), which is the lines from
the bottom start row up, each from its last tile to its first
(`max_tiling`).  Each removal contributes the transposition (south-most
step index, rightmost step index) read on the current lower boundary.
"""

from __future__ import annotations

from itertools import accumulate

from .matchings import pm
from .matching_map import mat
from .paths import (
    RationalDyckPath,
    Value,
    iterate,
    memo_image,
    path_from_young_rows,
    young_rows,
)
from .perms import Permutation321
from .promotion import dual_promotion, promotion


class DyckTile(Value):
    """A ribbon tile; cells are (row, col) pairs in inner-path order."""

    __slots__ = ("cells", "size")
    cells: tuple[tuple[int, int], ...]
    size: int

    def __init__(self, cells: tuple[tuple[int, int], ...], size: int) -> None:
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "size", size)

    def to_json(self) -> dict:
        return {"cells": [list(c) for c in self.cells], "size": self.size}


class Tiling(Value):
    __slots__ = ("base_path", "tiles")
    base_path: RationalDyckPath
    tiles: tuple[DyckTile, ...]  # removal order: lines bottom-up, each from its last tile

    def __init__(self, base_path: RationalDyckPath, tiles: tuple[DyckTile, ...]) -> None:
        object.__setattr__(self, "base_path", base_path)
        object.__setattr__(self, "tiles", tiles)

    def to_json(self) -> list[dict]:
        return [t.to_json() for t in self.tiles]


def _require_unit_a(p: RationalDyckPath) -> int:
    if p.slope.a != 1:
        raise ValueError(f"tilings are defined for slope (1,k) only, got {p.slope}")
    return p.slope.b


def _line_runs(p: RationalDyckPath) -> list[list[int]]:
    """Each history line as run lengths, indexed by starting row (1 = top):
    ``[r0, r1, ...]`` is the move word R^r0 U R^r1 U R^r2 ... of the line's
    cells, and an empty list a line with no cell.

    Lines start from the bottom row up.  A line sweeps right through free cells and
    climbs one row when blocked, but only if the climb's opened ribbon debt
    (k rights per up) can still be repaid further along the same policy.

    The lines are rims.  Before line i is drawn, the free cells form a Young
    diagram with no cell below row i: each earlier line took its whole start
    row and, in every row it climbed into, a right end.  So line i runs row i
    to its end, and the cell above is free there because rows weakly
    decrease.  In each row r it climbs into, it enters at the end of the row
    below and runs to the row's end, ``rows[r - 1] - rows[r]`` rights, which
    leaves that row one cell shorter than the row below was: rows still
    weakly decrease.  The row lengths are therefore the whole state.

    Last-minimum lemma: put x_t = k - (the run in row i - t), the debt a
    climb into the t-th row above opens less the rights it pays there, and
    S_t = x_1 + ... + x_t with S_0 = 0.  Line i climbs exactly m rows, m the
    last index in 0..i-1 at which S is least.

    - The debt after t climbs (k opened per climb, one repaid per right
      step, never below 0) is the Lindley recursion
      d_t = max(d_{t-1} + x_t, 0), d_0 = 0, which is S_t - min_{s<=t} S_s.
    - A line that owes climbs.  From zero debt at t it climbs only if the
      lookahead repays: a climb's debt k, then a climb at every row end
      while it owes, so its debt after t' climbs is S_t' - S_t.  That is
      exactly when some later S_t' is at most S_t.
    - Zero debt at t means S_t is the least of S_0..S_t.  So the line stops
      at the first t where S_t is least so far and below every later S: at
      the last least S.  Row 1 has no row above, and m <= i - 1.
    """
    k = _require_unit_a(p)
    n = p.slope.n
    rows = list(young_rows(p))  # free cells per row, rows[r - 1] for row r

    lines: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(n, 0, -1):
        if not rows[i - 1]:
            continue
        s = low = 0
        top = i  # row i - m, the row the line ends in
        for r in range(i - 1, 0, -1):
            s += k - (rows[r - 1] - rows[r])
            if s <= low:
                low, top = s, r
        lines[i] = [rows[i - 1] - 1] + [rows[r - 1] - rows[r] for r in range(i - 1, top - 1, -1)]
        rows[top - 1 : i - 1] = [x - 1 for x in rows[top:i]]
        rows[i - 1] = 0
    return lines


def _cut(runs: list[int], k: int) -> list[tuple[int, int, int, int]]:
    """The greedy cut of the line of ``runs`` into its longest complete
    ribbons, one entry ``(t, j, s, e)`` per ribbon: the one-cell tiles of
    run t from j rights into it up to its last cell, then the ribbon from
    that cell to e rights into run s (a one-cell ribbon if s == t), with
    s - t ups.

    A tile starts at a cell and grows while the balance k*ups - rights of
    its moves stays non-negative; it ends at the last zero of that balance,
    its start if there is no other, and the next tile starts one move on.
    So a cell followed by R is a one-cell tile: inside a run, every cell
    but the last is one.  From a run's last cell the balance rises by k at
    each U and falls by the next run's length, so its zeros are found run
    by run: the ribbon ends where a run brings the balance below zero, at
    the zero inside that run, or else at the last zero before the line
    ends.
    """
    cut: list[tuple[int, int, int, int]] = []
    last = len(runs) - 1
    t = j = 0  # the next tile starts after j rights of run t
    while t <= last:
        s, e = t, runs[t]  # the last zero so far: (run, rights into it)
        balance = 0
        for u in range(t + 1, last + 1):
            balance += k
            run = runs[u]
            if balance <= run:
                s, e = u, balance
                if balance < run:
                    break
            balance -= run
        cut.append((t, j, s, e))
        if e < runs[s]:
            t, j = s, e + 1
        else:
            t, j = s + 1, 0
    return cut


@memo_image
def max_tiling(p: RationalDyckPath) -> Tiling:
    """The maximal cover-inclusive tiling, tiles listed in removal order.

    Each entry ``(t, j, s, e)`` of ``_cut`` is spelled out as cells, the
    ribbon first and then the one-cell tiles before it, right to left: run
    t of line i lies in row i - t, from the column where run t - 1 ended.

    Removal takes, among the tiles whose cells are the right ends of their
    rows and whose removal leaves rows weakly decreasing, the lowest first
    cell, leftmost on ties.  That order is the lines from the bottom start
    row up, each line's tiles from the last cut to the first:

    - Two tiles of one line meet at a right step.  After an up step the
      line's debt is at least k > 0, and by the last-minimum lemma of
      `_line_runs` it is 0 again where the line ends, so the line repays it
      at a later right step.  The running balance
      k*ups - rights of the tile being cut is at most that debt, and it
      falls by one per right step, so it reaches 0 again by then without
      going negative; a cut that stopped just before an up step would not
      have been the longest.
    - By the rim lemma of `_line_runs`, the cells left after the outer
      lines and the tail tiles of the current line are the inner lines'
      Young diagram plus a head of the current line, cut after a tile.  That
      head ends before a right step or at the line's end, so its union with
      the inner diagram is a Young diagram, and the tail tile is removable.
    - The current line holds the right end of every row from its start row
      up to the tail tile's top row.  Any other removable tile lies in rows
      strictly above, so its first cell is higher than the tail tile's.
    """
    k = _require_unit_a(p)
    lines = _line_runs(p)
    tiles = []
    for i in range(len(lines) - 1, 0, -1):
        runs = lines[i]
        cols = list(accumulate(runs, initial=1))  # run t from column cols[t] to cols[t + 1]
        for t, j, s, e in reversed(_cut(runs, k)):
            cells = [(i - t, cols[t + 1])]
            for u in range(t + 1, s + 1):
                stop = cols[u] + (e if u == s else runs[u])
                cells.extend((i - u, c) for c in range(cols[u], stop + 1))
            tiles.append(DyckTile(tuple(cells), s - t))
            for c in range(cols[t + 1] - 1, cols[t] + j - 1, -1):
                tiles.append(DyckTile(((i - t, c),), 0))
    return Tiling(p, tuple(tiles))


def tile_transpositions(t: Tiling) -> list[tuple[int, int]]:
    """One (south-most step, rightmost step) transposition per tile."""
    an = t.base_path.slope.up_count
    out = []
    for tile in t.tiles:
        r1, c1 = tile.cells[0]
        r2, c2 = tile.cells[-1]
        out.append((c1 + an - r1, c2 + an - r2 + 1))
    return out


def _apply_transpositions(p: RationalDyckPath) -> list[tuple[int, ...]]:
    """Blocks of the matching after acting by the tiling transpositions."""
    m = pm(p)
    owner = [0] * (m.ground_size + 1)  # the block each position belongs to
    for b, block in enumerate(m.blocks):
        for x in block:
            owner[x] = b
    for i, j in tile_transpositions(max_tiling(p)):
        owner[i], owner[j] = owner[j], owner[i]
    blocks: list[list[int]] = [[] for _ in m.blocks]
    for x in range(1, m.ground_size + 1):
        blocks[owner[x]].append(x)
    return [tuple(b) for b in blocks]


@memo_image
def dt_map(p: RationalDyckPath) -> Permutation321:
    """Transposition action on the chord pairs, read back as a permutation."""
    if (p.slope.a, p.slope.b) != (1, 1):
        raise ValueError("the permutation reading needs a classical path")
    n = p.slope.n
    partner: dict[int, int] = {}
    for block in _apply_transpositions(p):
        lo, hi = block
        partner[lo], partner[hi] = hi, lo
    values = tuple(partner[2 * n + 1 - i] for i in range(1, n + 1))
    return Permutation321(values)


@memo_image
def kappa(p: RationalDyckPath) -> tuple[int, ...]:
    """Tile counts of the history lines, top line first.

    A line of ``runs`` has u = len(runs) - 1 up steps and sum(runs) + u + 1
    cells, and every up step lies inside a ribbon (the first bullet of
    `max_tiling`).  A ribbon with v ups has (k + 1)v + 1 cells, so the line
    has sum(runs) - k*u + 1 tiles: rows[i - 1] - min S in the terms of
    `_line_runs`, with the rows as line i starts."""
    k = p.slope.b
    return tuple(
        sum(runs) - k * (len(runs) - 1) + 1 if runs else 0 for runs in _line_runs(p)[1:])


def kappa_by_transpositions(p: RationalDyckPath) -> tuple[int, ...]:
    """Independent route: inversion counts of the transposed matching."""
    _require_unit_a(p)
    n = p.slope.n
    blocks = _apply_transpositions(p)
    rest = {}
    for block in blocks:
        anchor = next(x for x in block if x <= n)
        rest[anchor] = [x for x in block if x != anchor]
    out = []
    for i in range(1, n + 1):
        earlier = [x for l in range(1, n - i + 1) for x in rest[l]]
        out.append(sum(1 for x in earlier if x < min(rest[n + 1 - i])))
    return tuple(out)


@memo_image
def rsk_hat_inverse(p: RationalDyckPath) -> RationalDyckPath:
    """Row profile (n-i)k - kappa_i, clipped to its maximal Young diagram."""
    k = _require_unit_a(p)
    n = p.slope.n
    kap = kappa(p)
    profile = [(n - i) * k - kap[i - 1] for i in range(1, n + 1)]
    rows = []
    cur = profile[0]
    for y in profile:
        cur = min(cur, y)
        rows.append(cur)
    return path_from_young_rows(p.slope, tuple(rows))


@memo_image
def rsk_hat_path(p: RationalDyckPath) -> RationalDyckPath:
    """The RSK-type correspondence as a path map, via the matching map."""
    _require_unit_a(p)
    return iterate(promotion, dual_promotion, mat(p), -(p.slope.n - 1))


# ---------------------------------------------------------------------------
# Structural checks used by the verification harness


def _is_valid_tile_shape(cells: tuple[tuple[int, int], ...], k: int) -> bool:
    if not cells:
        return False
    ups = rights = 0
    for prev, cur in zip(cells, cells[1:]):
        if cur == (prev[0] - 1, prev[1]):
            ups += 1
        elif cur == (prev[0], prev[1] + 1):
            rights += 1
        else:
            return False
        if rights > k * ups:
            return False
    return rights == k * ups


def is_cover_inclusive(t: Tiling) -> bool:
    """Shifting any tile one unit southeast lands it below the base path or
    entirely inside a single other tile."""
    rows = young_rows(t.base_path)

    def below(cell: tuple[int, int]) -> bool:
        i, j = cell
        return i > len(rows) or j > rows[i - 1]

    others = [set(x.cells) for x in t.tiles]
    for idx, tile in enumerate(t.tiles):
        shifted = {(i + 1, j + 1) for i, j in tile.cells}
        if all(below(c) for c in shifted):
            continue
        if any(
            jdx != idx and shifted <= cells for jdx, cells in enumerate(others)
        ):
            continue
        return False
    return True


def is_maximal(t: Tiling) -> bool:
    """No two adjacent tiles merge into a valid tile of a tiling that is
    still cover-inclusive."""
    k = t.base_path.slope.b
    tiles = list(t.tiles)
    for i in range(len(tiles)):
        for j in range(len(tiles)):
            if i == j:
                continue
            merged_cells = _try_merge(tiles[i], tiles[j], k)
            if merged_cells is None:
                continue
            rest = [x for idx, x in enumerate(tiles) if idx not in (i, j)]
            candidate = Tiling(
                t.base_path, tuple(rest + [DyckTile(merged_cells, _ribbon_size(merged_cells))])
            )
            if is_cover_inclusive(candidate):
                return False
    return True


def _ribbon_size(cells: tuple[tuple[int, int], ...]) -> int:
    return sum(1 for a, b in zip(cells, cells[1:]) if b[0] == a[0] - 1)


def _try_merge(t1: DyckTile, t2: DyckTile, k: int):
    """Cells of t1 followed by t2 if they chain into a valid ribbon."""
    last, first = t1.cells[-1], t2.cells[0]
    if first not in ((last[0] - 1, last[1]), (last[0], last[1] + 1)):
        return None
    cells = t1.cells + t2.cells
    return cells if _is_valid_tile_shape(cells, k) else None
