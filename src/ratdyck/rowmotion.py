"""The box poset between a path and the top path; rowmotion and rowvacuation.

Cells are addressed (row, col), row 1 at the top, col 1 at the left; row i
holds floor((an-i)*b/a) cells.  An order filter is the left-justified box
collection above a path, i.e. exactly its Young rows.  The cell rank is
rank(i, j) = R_max - (i-1) - (j-1) with R_max = floor((an-1)*b/a) - 1, which
matches both the classical staircase ranks and the k-Dyck rank tables.

Every map here is a product of rank toggles (Cameron-Fon-Der-Flaass,
European J. Combin. 1995; Striker-Williams, European J. Combin. 2012), and
every such product is a list of windows: a window [m, h] toggles each rank
from h down to m (descending) or from m up to h (ascending).  Rowmotion is
one descending window over all ranks, its inverse one ascending window,
rowvacuation the descending windows [m, R_max] for m from the lowest rank
up, and dual rowvacuation the ascending windows [R_min, t] for t from R_max
down.  By the lemma below a window is one pass over the rows, so a sweep
costs O(an) and a rowvacuation O(an) per rank.  The sweep builds its image
unchecked (``RationalDyckPath._caller_checked``): its writes keep the rows
weakly decreasing inside the region, which is all the constructor checks
(see ``_sweep``).  The structural oracle builds a validated path.

Let r be the length of row i, cap its length in the full region and
A = R_max - (i-1) - r the rank of its addable cell (column r+1).  Its last
cell (column r) has rank A+1, and ranks fall by one per column to the
right and per row down.  A row above the first counts as full, a row below
the last as empty.

Lemma.  In a descending window [m, h], the new row i depends only on the
new row above it and the old row below it:
  - it loses its last cell iff m <= A+1 <= h and the old row below is
    shorter than r;
  - otherwise, if m <= A <= h, r < cap and the new row above is longer
    than r, it grows to min(cap, new row above, r + A - m + 1);
  - otherwise it stays r.
In an ascending window [m, h], the new row i depends only on the old row
above it and the new row below it:
  - it gains one cell iff m <= A <= h, r < cap and the old row above is
    longer than r;
  - otherwise, if m <= A+1 <= h and the new row below is shorter than r,
    it shrinks to max(new row below, r - (h - A));
  - otherwise it stays r.
So a descending window updates the rows in place from the top, an ascending
one from the bottom.  Equivalently, the second cases set the row to
max(r, min(cap, new row above, r + A - m + 1)) and
min(r, max(new row below, r - (h - A))) whenever A, resp. A+1, lies in the
window.  A row i > R_max + 2 - m has A < m - 1 and always stays.

Proof.  Two cells of one rank are incomparable, so their toggles commute,
and the rows may be visited in any order within a rank.  A cell of row i
other than its last present one and its first absent one is never toggled:
it has a present right neighbour or an absent left one.  So when neither A
nor A+1 lies in the window, the row stays.

Descending ranks meet row i's cells from left to right, so nothing happens
to the row before rank A+1.  There its last cell goes iff the cell below it
is absent.  That cell has rank A; by now the row below has been toggled only
at ranks above A+1, i.e. in columns c <= r-2, and such a toggle moves its
length between c-1 and c, both below r.  So "the row below is shorter than
r" reads the same on the old row below.  Once the last cell is gone, the
row's later cells lie right of its new first absent cell, and the row is
done.  Otherwise, if A <= h, ranks A, A-1, ... add columns r+1, r+2, ...
one at a time while the column fits in the cap, its rank A-(c-r-1) is at
least m, and the cell above it is present.  The cell above column c has
rank one higher, so the row above has been visited there; its later toggles
lie in columns c' >= c+2 and move its length between c'-1 and c', both at
least c.  So "the row above reaches c" reads the same on the new row above,
and the run stops at the first column that fails one of the three tests:
the min.  The run is empty unless the first column r+1 passes, i.e. r < cap
and the row above is longer than r; the rank test passes there since A >= m.

Ascending ranks meet row i's cells from right to left, so its first absent
cell comes first, at rank A.  It is added iff the cell above is present;
that cell has rank A+1, and the row above has been toggled only in columns
c' >= r+2, which moves its length between c'-1 and c', both above r.  So
that reads the same on the old row above.  Once the cell is added, the
row's later cells lie left of its new last cell, and the row is done.
Otherwise, if A+1 >= m, ranks A+1, A+2, ... remove columns r, r-1, ... one
at a time while the rank A+1+(r-c) is at most h and the cell below is
absent.  The cell below column c has rank one lower, so the row below has
been visited there; its later toggles lie in columns c' <= c-2 and move its
length between c'-1 and c', both below c.  So that reads the same on the
new row below, and the run stops at the first column that fails: the max.
The run is empty unless the first column r passes, i.e. the row below is
shorter than r; the rank test passes there since A+1 <= h.  QED
"""

from __future__ import annotations

from functools import lru_cache

from .paths import (
    RationalDyckPath,
    Slope,
    Value,
    memo_image,
    path_from_young_rows,
    region_rows,
    young_rows,
)


class BoxRegion(Value):
    """The region's geometry, computed once when the region is built.

    ``row_lengths``, ``max_rank`` and ``min_rank`` are slots but not
    fields: equality, hashing and pickling go by the slope alone.
    ``min_rank`` is the lowest cell rank, that of the last cell of some
    row; for a > b it can be below 0, and it is ``max_rank`` in an empty
    region."""

    __slots__ = ("slope", "row_lengths", "max_rank", "min_rank")
    slope: Slope

    def __init__(self, slope: Slope) -> None:
        object.__setattr__(self, "slope", slope)
        rows = region_rows(slope)
        top = (slope.up_count - 1) * slope.b // slope.a - 1
        bottom = min((top - k - cap + 1 for k, cap in enumerate(rows) if cap), default=top)
        object.__setattr__(self, "row_lengths", rows)
        object.__setattr__(self, "max_rank", top)
        object.__setattr__(self, "min_rank", bottom)

    def rank(self, i: int, j: int) -> int:
        return self.max_rank - (i - 1) - (j - 1)


@lru_cache(maxsize=128)
def box_region(slope: Slope) -> BoxRegion:
    """The slope's region, built once and shared by every map on it."""
    return BoxRegion(slope)


def _sweep(p: RationalDyckPath, region: BoxRegion, windows, descending: bool) -> RationalDyckPath:
    """Toggle the ranks of each window [m, h] in turn, from h down to m if
    ``descending``, else from m up to h: one pass over the rows per window,
    by the lemma in the module docstring.  ``p`` itself comes back when no
    row changes.

    Lemma: the image passes the constructor.  Each write clamps row i
    between the row below and the row above (new or old, as the branch
    reads them) and keeps it at most its cap; a row shrinks only to the
    row below and grows only up to the row above, so the rows stay weakly
    decreasing in [0, cap].  Such rows are the steps u_j = r_(an+1-j) + j
    of a path: strictly increasing from 1, each within step_bound(j),
    since the cap of row an+1-j is floor((j-1)b/a)."""
    caps = region.row_lengths
    an = len(caps)
    # rows[1..an] are the Young rows; rows[0] is a full row above the first
    # and rows[an + 1] an empty row below the last
    rows = [caps[0], *young_rows(p), 0]
    base = region.max_rank + 1  # the addable cell of row i has rank base - i - rows[i]
    for m, h in windows:
        # below row base - m + 1 every addable cell has rank under m - 1
        last = min(an, base - m + 1)
        if descending:
            # rows[i - 1] is already new, rows[i + 1] still old
            for i in range(1, last + 1):
                r = rows[i]
                a = base - i - r
                if m <= a + 1 <= h and rows[i + 1] < r:
                    rows[i] = r - 1
                elif m <= a <= h and r < caps[i - 1] and r < rows[i - 1]:
                    rows[i] = min(caps[i - 1], rows[i - 1], r + a - m + 1)
        else:
            # rows[i + 1] is already new, rows[i - 1] still old
            for i in range(last, 0, -1):
                r = rows[i]
                a = base - i - r
                if m <= a <= h and r < caps[i - 1] and r < rows[i - 1]:
                    rows[i] = r + 1
                elif m <= a + 1 <= h and rows[i + 1] < r:
                    rows[i] = max(rows[i + 1], r - (h - a))
    steps = tuple(r + j for j, r in enumerate(rows[an:0:-1], start=1))
    return p if steps == p.steps else RationalDyckPath._caller_checked(p.slope, steps)


def rank_toggle(r: int, p: RationalDyckPath) -> RationalDyckPath:
    region = box_region(p.slope)
    if region.max_rank >= 0 and not region.min_rank <= r <= region.max_rank:
        raise ValueError(f"rank {r} outside [{region.min_rank},{region.max_rank}]")
    return _sweep(p, region, [(r, r)], True)


@memo_image
def rowmotion(p: RationalDyckPath) -> RationalDyckPath:
    """Rank toggles from the top rank down to the lowest."""
    region = box_region(p.slope)
    return _sweep(p, region, [(region.min_rank, region.max_rank)], True)


@memo_image
def rowmotion_inverse(p: RationalDyckPath) -> RationalDyckPath:
    region = box_region(p.slope)
    return _sweep(p, region, [(region.min_rank, region.max_rank)], False)


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
    return _sweep(p, region, [(m, hi) for m in range(lo, hi + 1)], True)


@memo_image
def dual_rowvacuation(p: RationalDyckPath) -> RationalDyckPath:
    region = box_region(p.slope)
    lo, hi = region.min_rank, region.max_rank
    return _sweep(p, region, [(lo, top) for top in range(hi, lo - 1, -1)], False)


def partial_rowvacuation(p: RationalDyckPath) -> RationalDyckPath:
    """Rowvacuation without its initial full sweep (so rvac = this o rowmotion)."""
    region = box_region(p.slope)
    lo, hi = region.min_rank, region.max_rank
    return _sweep(p, region, [(m, hi) for m in range(lo + 1, hi + 1)], True)
