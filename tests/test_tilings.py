import random

import pytest

from ratdyck.matchings import pm
from ratdyck.paths import (
    InvariantError,
    Slope,
    enumerate_paths,
    path_from_steps,
    path_from_word,
    top_path,
    young_rows,
)
from ratdyck.perms import enumerate_321_avoiding, rsk_hat, rsk_path
from ratdyck.promotion import dual_promotion
from ratdyck.rowmotion import rowmotion
from ratdyck.tilings import (
    DyckTile,
    Tiling,
    _apply_transpositions,
    _cut,
    _line_runs,
    _require_unit_a,
    dt_map,
    is_cover_inclusive,
    is_maximal,
    kappa,
    kappa_by_transpositions,
    max_tiling,
    rsk_hat_inverse,
    rsk_hat_path,
    tile_transpositions,
)
from test_kernels import uniform_paths_up_to
from test_properties import random_paths


def s(p):
    return "".join(str(u) for u in p.steps)


def test_tiling_worked_example():
    p = path_from_word(Slope(1, 1, 5), "UURRURURUR")
    t = max_tiling(p)
    assert tile_transpositions(t) == [(4, 9), (3, 4), (4, 7)]
    assert [tile.size for tile in t.tiles] == [2, 0, 1]
    assert str(dt_map(p)) == "31425"
    assert max_tiling(top_path(Slope(1, 1, 4))).tiles == ()


def test_tiling_json():
    p = path_from_steps(Slope(1, 2, 3), [1, 4, 7])
    payload = max_tiling(p).to_json()
    assert payload[0]["size"] == 1
    assert sorted(map(tuple, payload[0]["cells"])) == [(1, 2), (1, 3), (1, 4), (2, 2)]


def test_dt_map_identity_permutation():
    top = top_path(Slope(1, 1, 4))
    assert dt_map(top).values == (1, 2, 3, 4)


@pytest.mark.parametrize("n", range(1, 7))
def test_dt_map_inverts_insertion(n):
    for w in enumerate_321_avoiding(n):
        assert dt_map(rsk_hat(w)) == w


def test_kappa_worked_examples():
    assert kappa(path_from_steps(Slope(1, 2, 3), [1, 4, 7])) == (1, 2, 0)
    assert kappa(path_from_steps(Slope(1, 2, 3), [1, 2, 7])) == (4, 0, 0)
    assert kappa(top_path(Slope(1, 2, 3))) == (0, 0, 0)


def test_rsk_inverse_worked_examples():
    assert s(rsk_hat_inverse(path_from_steps(Slope(1, 2, 3), [1, 4, 7]))) == "126"
    assert s(rsk_hat_inverse(path_from_steps(Slope(1, 2, 3), [1, 2, 7]))) == "123"
    orbits = [
        ["147", "126", "134", "136", "137", "127", "123"],
        ["146", "124"],
        ["145", "125"],
        ["135"],
    ]
    for orbit in orbits:
        for src, dst in zip(orbit, orbit[1:] + orbit[:1]):
            p = path_from_steps(Slope(1, 2, 3), [int(c) for c in src])
            assert s(rsk_hat_inverse(p)) == dst


def test_rsk_hat_path_example():
    p147 = path_from_steps(Slope(1, 2, 3), [1, 4, 7])
    assert s(rsk_hat_path(p147)) == "123"
    assert s(rsk_hat_inverse(path_from_steps(Slope(1, 2, 3), [1, 2, 3]))) == "147"
    with pytest.raises(ValueError):
        rsk_hat_path(path_from_steps(Slope(2, 3, 1), [1, 2]))


@pytest.mark.parametrize("k,nmax", [(1, 5), (2, 5), (3, 5)])
def test_rsk_roundtrip_and_conjugation(k, nmax):
    for n in range(1, nmax + 1):
        for p in enumerate_paths(Slope(1, k, n)):
            assert rsk_hat_path(rsk_hat_inverse(p)) == p
            assert rsk_hat_inverse(rsk_hat_path(p)) == p
            assert rsk_hat_inverse(dual_promotion(p)) == rowmotion(rsk_hat_inverse(p))


@pytest.mark.parametrize("k,nmax", [(1, 6), (2, 5), (3, 5)])
def test_kappa_routes_agree(k, nmax):
    for n in range(1, nmax + 1):
        for p in enumerate_paths(Slope(1, k, n)):
            assert kappa(p) == kappa_by_transpositions(p)


@pytest.mark.parametrize("k,nmax", [(1, 5), (2, 5), (3, 5)])
def test_structural_checks(k, nmax):
    for n in range(1, nmax + 1):
        for p in enumerate_paths(Slope(1, k, n)):
            t = max_tiling(p)
            assert is_cover_inclusive(t)
            assert is_maximal(t)


def test_classical_composite_agrees():
    for n in range(1, 6):
        for p in enumerate_paths(Slope(1, 1, n)):
            assert rsk_hat_path(p) == rsk_path(p)


# ---------------------------------------------------------------------------
# Oracles: the construction as worded, on a set of free cells, with the
# removal order found greedily and the transpositions applied to whole blocks


def threads_reference(p):
    """History lines walked cell by cell through the free cells."""
    k = p.slope.b
    rows = young_rows(p)
    n = p.slope.n
    free = {(i, j) for i in range(1, n + 1) for j in range(1, rows[i - 1] + 1)}

    def repayable(r, c, debt):
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

    threads = [[] for _ in range(n + 1)]
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


def line_runs_reference(p):
    """The history lines as run lengths, by the debt walk: each line pays
    its runs off against its debt, and from zero debt climbs only if a
    lookahead along the rows above repays a fresh climb's debt."""
    k = _require_unit_a(p)
    n = p.slope.n
    rows = list(young_rows(p))  # free cells per row, rows[r - 1] for row r

    def repayable(r: int, c: int) -> bool:
        debt = k
        while rows[r - 1] - c < debt:
            if r == 1:
                return False
            debt += k - (rows[r - 1] - c)
            c = rows[r - 1]
            r -= 1
        return True

    lines: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(n, 0, -1):
        r, c, debt = i, 1, 0
        while rows[r - 1] >= c:
            end = rows[r - 1]
            lines[i].append(end - c)
            rows[r - 1] = c - 1
            debt = max(debt - (end - c), 0)
            if r == 1 or not (debt or repayable(r - 1, end)):
                break
            r, c, debt = r - 1, end, debt + k
    return lines


def removable_reference(rows, tile):
    """The tile is the right end of each row it meets, and removing it
    leaves the rows weakly decreasing."""
    per_row = {}
    for i, j in tile.cells:
        per_row.setdefault(i, []).append(j)
    new_rows = list(rows)
    for i, cols in per_row.items():
        if sorted(cols) != list(range(rows[i - 1] - len(cols) + 1, rows[i - 1] + 1)):
            return False
        new_rows[i - 1] -= len(cols)
    return all(x >= y for x, y in zip(new_rows, new_rows[1:]))


def removal_order_reference(p, tiles):
    """Remove the lowest removable tile, leftmost on ties, until none is left."""
    rows = list(young_rows(p))
    remaining = list(tiles)
    ordered = []
    while remaining:
        candidates = [t for t in remaining if removable_reference(rows, t)]
        if not candidates:
            raise InvariantError(f"tiling of {p} is stuck: {remaining}")
        tile = min(candidates, key=lambda t: (-t.cells[0][0], t.cells[0][1]))
        for i, j in tile.cells:
            rows[i - 1] -= 1
        ordered.append(tile)
        remaining.remove(tile)
    return ordered


def apply_transpositions_reference(p, tiling):
    """Each transposition rebuilds every block of the matching."""
    blocks = [set(b) for b in pm(p).blocks]
    for i, j in tile_transpositions(tiling):
        swap = {i: j, j: i}
        blocks = [{swap.get(x, x) for x in block} for block in blocks]
    return [tuple(sorted(b)) for b in blocks]


def cells_of_runs(runs, row=None):
    """A line's cells from its runs, starting in ``row`` (by default low
    enough to climb them all) from column 1."""
    r, c, cells = len(runs) if row is None else row, 1, []
    for run in runs:
        cells.extend((r, j) for j in range(c, c + run + 1))
        c += run
        r -= 1
    return cells


def cut_reference(cells, k):
    """Greedy longest complete ribbons along one history line, cell by cell."""
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


def tiling_oracle_paths():
    for k, nmax in [(1, 8), (2, 5), (3, 4)]:
        for n in range(1, nmax + 1):
            yield from enumerate_paths(Slope(1, k, n))
    for k, n in [(1, 60), (2, 30), (3, 20)]:
        yield from random_paths(1, k, n, 10, seed=1000 * k + n)


def test_tilings_match_the_worded_construction():
    for p in tiling_oracle_paths():
        k = p.slope.b
        threads = threads_reference(p)
        assert [cells_of_runs(runs, i) for i, runs in enumerate(_line_runs(p))] == threads
        cut = [t for thread in threads for t in cut_reference(thread, k)]
        reference = Tiling(p, tuple(removal_order_reference(p, cut)))
        assert max_tiling(p) == reference
        assert _apply_transpositions(p) == apply_transpositions_reference(p, reference)


def test_lines_stop_at_the_last_least_sum():
    # the closed rule of ``_line_runs`` against the debt walk it replaced
    paths = [
        *(p for k, n in [(1, 9), (2, 6), (3, 5), (5, 3)]
          for p in enumerate_paths(Slope(1, k, n))),
        *uniform_paths_up_to(1, 1, 800, per_size=1),
        *uniform_paths_up_to(1, 3, 100, per_size=4),
    ]
    for p in paths:
        assert _line_runs(p) == line_runs_reference(p), p


def kappa_by_cut_threads(p, threads):
    """Cut every history line into tiles and count them."""
    return tuple(len(cut_reference(threads[i], p.slope.b)) for i in range(1, p.slope.n + 1))


@pytest.mark.parametrize("k,n", [(1, 8), (2, 5), (3, 4)])
def test_kappa_counts_the_cut_on_every_path(k, n):
    for p in enumerate_paths(Slope(1, k, n)):
        assert kappa(p) == kappa_by_cut_threads(p, threads_reference(p)), p


def test_kappa_counts_the_cut_on_uniform_paths():
    # the lines walked cell by cell would take seconds at this size, so they
    # come from the debt walk, which shares no code with ``_line_runs``
    for p in uniform_paths_up_to(1, 1, 200, per_size=8):
        threads = [cells_of_runs(runs) for runs in line_runs_reference(p)]
        assert kappa(p) == kappa_by_cut_threads(p, threads), p


@pytest.mark.parametrize("k,nmax", [(1, 200), (3, 60)])
def test_max_tiling_is_the_cut_on_uniform_paths(k, nmax):
    # the lines bottom-up, each cut cell by cell and read from its last tile
    for p in uniform_paths_up_to(1, k, nmax, per_size=4):
        lines = line_runs_reference(p)
        tiles = [
            tile
            for i in range(p.slope.n, 0, -1)
            for tile in reversed(cut_reference(cells_of_runs(lines[i], i), k))
        ]
        assert max_tiling(p) == Tiling(p, tuple(tiles)), p


def tiles_of_cut(runs, k):
    """The tiles of ``_cut``, sliced in line order out of the line's cells:
    the cell j rights into run t is cell number sum(runs[:t]) + t + j."""
    cells = cells_of_runs(runs)

    def at(t, j):
        return sum(runs[:t]) + t + j

    tiles = []
    for t, j, s, e in _cut(runs, k):
        tiles.extend(DyckTile((c,), 0) for c in cells[at(t, j) : at(t, runs[t])])
        tiles.append(DyckTile(tuple(cells[at(t, runs[t]) : at(s, e) + 1]), s - t))
    return tiles


def test_count_cut_matches_the_cut_on_any_runs():
    # run words no history line has, too: ribbons that never come back to zero
    rng = random.Random(22)
    for _ in range(3000):
        k = rng.randint(1, 4)
        runs = [rng.randint(0, 6) for _ in range(rng.randint(1, 8))]
        assert tiles_of_cut(runs, k) == cut_reference(cells_of_runs(runs), k), (runs, k)
    assert _cut([], 1) == []


def test_removal_order_reference_reports_a_stuck_tiling():
    p = path_from_word(Slope(1, 1, 5), "UURRURURUR")
    tiles = max_tiling(p).tiles
    with pytest.raises(InvariantError, match="stuck"):
        removal_order_reference(p, tiles[1:])
