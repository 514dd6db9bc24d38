"""The box poset between a path and the top path; rowmotion and rowvacuation.

Cells are addressed (row, col), row 1 at the top, col 1 at the left; row i
holds floor((an-i)*b/a) cells.  An order filter is the left-justified box
collection above a path, i.e. exactly its Young rows.  The cell rank is
rank(i, j) = R_max - (i-1) - (j-1) with R_max = floor((an-1)*b/a) - 1, which
matches both the classical staircase ranks and the k-Dyck rank tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .paths import (
    RationalDyckPath,
    Slope,
    memo_image,
    path_from_young_rows,
    region_rows,
    young_rows,
)


@dataclass(frozen=True)
class BoxRegion:
    """The region's geometry, computed on first use and then kept."""

    slope: Slope

    @cached_property
    def row_lengths(self) -> tuple[int, ...]:
        return region_rows(self.slope)

    @cached_property
    def max_rank(self) -> int:
        s = self.slope
        return (s.up_count - 1) * s.b // s.a - 1

    @cached_property
    def min_rank(self) -> int:
        # for a > b some cells sit below rank 0 (the region is not graded
        # with all minima at rank zero); sweeps must still cover them
        return min(self.cells_by_rank, default=self.max_rank)

    def rank(self, i: int, j: int) -> int:
        return self.max_rank - (i - 1) - (j - 1)

    @cached_property
    def cells_by_rank(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """The cells of each rank, top row first."""
        by_rank: dict[int, list[tuple[int, int]]] = {}
        for i, length in enumerate(self.row_lengths, start=1):
            for j in range(1, length + 1):
                by_rank.setdefault(self.rank(i, j), []).append((i, j))
        return {r: tuple(cells) for r, cells in by_rank.items()}


@lru_cache(maxsize=128)
def box_region(slope: Slope) -> BoxRegion:
    """The slope's region, built once and shared by every map on it."""
    return BoxRegion(slope)


@dataclass(frozen=True)
class OrderFilter:
    """A filter of the box region, stored as weakly decreasing row prefixes."""

    region: BoxRegion
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        caps = self.region.row_lengths
        if len(self.rows) != len(caps):
            raise ValueError("wrong number of rows")
        if any(r < 0 or r > cap for r, cap in zip(self.rows, caps)):
            raise ValueError(f"rows {self.rows} outside the region {caps}")
        if any(x < y for x, y in zip(self.rows, self.rows[1:])):
            raise ValueError(f"not up-left closed: {self.rows}")


def filter_of_path(p: RationalDyckPath) -> OrderFilter:
    return OrderFilter(box_region(p.slope), young_rows(p))


def path_of_filter(f: OrderFilter) -> RationalDyckPath:
    return path_from_young_rows(f.region.slope, f.rows)


def _sweep(p: RationalDyckPath, region: BoxRegion, ranks) -> RationalDyckPath:
    """Toggle the ranks in order; toggles of equal rank commute and are
    applied row by row from the top."""
    rows = list(young_rows(p))
    last = len(rows) - 1
    cells = region.cells_by_rank
    for r in ranks:
        for i, j in cells.get(r, ()):
            k = i - 1
            if j == rows[k] + 1:
                # addable iff the cell above is present (the one to the
                # left is, as rows are left-justified)
                if k == 0 or rows[k - 1] >= j:
                    rows[k] = j
            elif j == rows[k]:
                # removable iff the cell below is absent
                if k == last or rows[k + 1] <= j - 1:
                    rows[k] = j - 1
    return path_from_young_rows(p.slope, rows)


def rank_toggle(r: int, p: RationalDyckPath) -> RationalDyckPath:
    region = box_region(p.slope)
    if region.max_rank >= 0 and not region.min_rank <= r <= region.max_rank:
        raise ValueError(f"rank {r} outside [{region.min_rank},{region.max_rank}]")
    return _sweep(p, region, (r,))


@memo_image
def rowmotion(p: RationalDyckPath) -> RationalDyckPath:
    """Rank toggles from the top rank down to the lowest."""
    region = box_region(p.slope)
    return _sweep(p, region, range(region.max_rank, region.min_rank - 1, -1))


@memo_image
def rowmotion_inverse(p: RationalDyckPath) -> RationalDyckPath:
    region = box_region(p.slope)
    return _sweep(p, region, range(region.min_rank, region.max_rank + 1))


@memo_image
def rowmotion_structural(p: RationalDyckPath) -> RationalDyckPath:
    """Independent oracle: complement of the down-set of the filter minima."""
    region = box_region(p.slope)
    caps = region.row_lengths
    rows = young_rows(p)
    an = len(rows)
    cells = {(i, j) for i in range(1, an + 1) for j in range(1, rows[i - 1] + 1)}
    minima = [
        (i, j)
        for (i, j) in cells
        if (i + 1, j) not in cells and (i, j + 1) not in cells
    ]
    new_rows = []
    for i in range(1, an + 1):
        # cells (i, j) dominated by some minimum (i0, j0) with i >= i0, j >= j0
        dominated = [j0 for (i0, j0) in minima if i >= i0]
        cut = min(dominated) if dominated else caps[i - 1] + 1
        new_rows.append(min(cut - 1, caps[i - 1]))
    return path_from_young_rows(p.slope, tuple(new_rows))


@memo_image
def rowvacuation(p: RationalDyckPath) -> RationalDyckPath:
    """Triangular sweeps: full sweep first, then sweeps stopping ever higher."""
    region = box_region(p.slope)
    lo, hi = region.min_rank, region.max_rank
    return _sweep(p, region, (r for m in range(lo, hi + 1) for r in range(hi, m - 1, -1)))


@memo_image
def dual_rowvacuation(p: RationalDyckPath) -> RationalDyckPath:
    region = box_region(p.slope)
    lo, hi = region.min_rank, region.max_rank
    return _sweep(p, region, (r for top in range(hi, lo - 1, -1) for r in range(lo, top + 1)))


@memo_image
def partial_rowvacuation(p: RationalDyckPath) -> RationalDyckPath:
    """Rowvacuation without its initial full sweep (so rvac = this o rowmotion)."""
    region = box_region(p.slope)
    lo, hi = region.min_rank, region.max_rank
    return _sweep(p, region, (r for m in range(lo + 1, hi + 1) for r in range(hi, m - 1, -1)))
