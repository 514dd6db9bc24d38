"""Maximal cover-inclusive tilings of the region above a (1,k)-path.

The region between a path and the top path is tiled by ribbons whose cell
centers trace (1,k)-paths.  The maximal cover-inclusive tiling is built from
its history lines: processing rows bottom-up, a line sweeps right through
free cells and climbs one row when blocked, provided the opened ribbon debt
can still be repaid further along; each line is then cut greedily into the
longest complete ribbons.  Tiles are removed lowest-first (leftmost on
ties), each removal contributing the transposition (south-most step index,
rightmost step index) read on the current lower boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matchings import pm
from .matching_map import mat
from .paths import (
    InvariantError,
    RationalDyckPath,
    iterate,
    memo_image,
    path_from_young_rows,
    young_rows,
)
from .perms import Permutation321
from .promotion import dual_promotion, promotion


@dataclass(frozen=True)
class DyckTile:
    """A ribbon tile; cells are (row, col) pairs in inner-path order."""

    cells: tuple[tuple[int, int], ...]
    size: int

    def to_json(self) -> dict:
        return {"cells": [list(c) for c in self.cells], "size": self.size}


@dataclass(frozen=True)
class Tiling:
    base_path: RationalDyckPath
    tiles: tuple[DyckTile, ...]  # in removal order, bottom to top

    def to_json(self) -> list[dict]:
        return [t.to_json() for t in self.tiles]


def _require_unit_a(p: RationalDyckPath) -> int:
    if p.slope.a != 1:
        raise ValueError(f"tilings are defined for slope (1,k) only, got {p.slope}")
    return p.slope.b


def _threads(p: RationalDyckPath) -> list[list[tuple[int, int]]]:
    """Cells visited by each history line, indexed by starting row (1 = top).

    A line sweeps right through free cells and climbs when blocked, but only
    if the climb's opened ribbon debt (k rights per up) can still be repaid
    further along; the lookahead follows the same deterministic policy.
    """
    k = _require_unit_a(p)
    rows = young_rows(p)
    n = p.slope.n
    free = {(i, j) for i in range(1, n + 1) for j in range(1, rows[i - 1] + 1)}

    def repayable(r: int, c: int, debt: int) -> bool:
        while True:
            if (r, c + 1) in free:
                c += 1
                debt -= 1
                if debt <= 0:
                    return True
            elif r > 1 and (r - 1, c) in free:
                r -= 1
                debt += k
            else:
                return False

    threads: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for i in range(n, 0, -1):
        if (i, 1) not in free:
            continue
        cells = [(i, 1)]
        free.discard((i, 1))
        r, c = i, 1
        debt = 0
        while True:
            if (r, c + 1) in free:
                c += 1
                debt = max(debt - 1, 0)
            elif r > 1 and (r - 1, c) in free and repayable(r - 1, c, debt + k):
                r -= 1
                debt += k
            else:
                break
            cells.append((r, c))
            free.discard((r, c))
        threads[i] = cells
    return threads


def _cut_thread(cells: list[tuple[int, int]], k: int) -> list[DyckTile]:
    """Greedy longest complete ribbons along one history line."""
    tiles = []
    start = 0
    while start < len(cells):
        ups = rights = 0
        best_len = 1
        best_size = 0
        for idx in range(start + 1, len(cells)):
            prev, cur = cells[idx - 1], cells[idx]
            if cur[0] == prev[0] - 1:
                ups += 1
            else:
                rights += 1
                if rights > k * ups:
                    break
            if rights == k * ups:
                best_len = idx - start + 1
                best_size = ups
        tiles.append(DyckTile(tuple(cells[start : start + best_len]), best_size))
        start += best_len
    return tiles


@memo_image
def max_tiling(p: RationalDyckPath) -> Tiling:
    """The maximal cover-inclusive tiling, tiles listed in removal order."""
    k = _require_unit_a(p)
    all_tiles = [t for thread in _threads(p) for t in _cut_thread(thread, k)]
    order = _removal_order(p, all_tiles)
    return Tiling(p, tuple(order))


def _removal_order(p: RationalDyckPath, tiles: list[DyckTile]) -> list[DyckTile]:
    rows = list(young_rows(p))
    remaining = list(tiles)
    ordered = []
    while remaining:
        candidates = [t for t in remaining if _removable(rows, t)]
        if not candidates:
            raise InvariantError(f"tiling of {p} is stuck: {remaining}")
        candidates.sort(key=lambda t: (-t.cells[0][0], t.cells[0][1]))
        tile = candidates[0]
        for i, j in tile.cells:
            rows[i - 1] -= 1
        ordered.append(tile)
        remaining.remove(tile)
    return ordered


def _removable(rows: list[int], tile: DyckTile) -> bool:
    per_row: dict[int, list[int]] = {}
    for i, j in tile.cells:
        per_row.setdefault(i, []).append(j)
    new_rows = list(rows)
    for i, cols in per_row.items():
        # the tile's cells must be the current right end of the row
        if sorted(cols) != list(range(rows[i - 1] - len(cols) + 1, rows[i - 1] + 1)):
            return False
        new_rows[i - 1] -= len(cols)
    return all(x >= y for x, y in zip(new_rows, new_rows[1:]))


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
    blocks = [set(b) for b in pm(p).blocks]
    for i, j in tile_transpositions(max_tiling(p)):
        swap = {i: j, j: i}
        blocks = [{swap.get(x, x) for x in block} for block in blocks]
    return [tuple(sorted(b)) for b in blocks]


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
    """Tile counts of the history lines, top line first."""
    k = _require_unit_a(p)
    threads = _threads(p)
    return tuple(len(_cut_thread(threads[i], k)) for i in range(1, p.slope.n + 1))


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


def _tile_cell_set(t: DyckTile) -> set[tuple[int, int]]:
    return set(t.cells)


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

    others = [_tile_cell_set(x) for x in t.tiles]
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
