"""The kernels against small reference implementations.

Each reference is the direct form of the kernel's definition: build the
swapped path and see whether it is valid, evacuate by one toggle call (and
one validated path) per factor, route unchecked paths, partitions and
matchings through the validating constructors, search window lengths one
by one,
intersect the slope line with the path in rationals, walk forward from
each up step to its line's first return, read the dual matching off the
transposed path, sum Bizley's formula over partitions, grow and scan the
matching map's candidates one element at a time with a fresh admissibility
parse per size that searches every sub-window in full, slice each entry's
candidates out of a sorted list of unused positions, put the whole pool
in cyclic order by one sort, search every assignment of valley values for
the inverse, test every pair of blocks for a crossing, walk every set
partition and keep the non-crossing ones, count partitions and chains by
the Catalan and Fuss-Catalan numbers, build chains from the all-pairs
refinement table, splice chain paths at slot boundaries one block at a
time, invert the Kreweras complement by applying it 2n - 1 times, validate
blocks by four separate checks, tabulate orbits with every path keyed by
its name, spell grid paths as U/R words read back through their vertices
and reflect them by swapping letters, look for a 321 pattern by scanning
the suffix of every value, find each bumped entry of a two-row
insertion by scanning its row, rename a partition's elements one call at
a time and re-sort its blocks, and enumerate step sequences by recursion.
"""

import collections
import functools
import itertools
import math
import random
import types
from bisect import bisect_left, bisect_right, insort
from fractions import Fraction

import pytest

from ratdyck import matching_map, registry
from ratdyck import matchings as matchings_module
from ratdyck import noncrossing as noncrossing_module
from ratdyck import paths as paths_module
from ratdyck import rowmotion as rowmotion_module
from ratdyck.cli import main
from ratdyck.matching_map import (
    _height,
    _slope_tables,
    _walk,
    admissible,
    k_sequence,
    mat,
    mat_inverse,
    window_length,
)
from ratdyck.matchings import (
    PerfectMatching,
    _scan_blocks,
    bar,
    canonical_matching,
    dpm,
    pm,
    pm_inverse,
    rotate,
)
from ratdyck.noncrossing import (
    NonCrossingChain,
    NonCrossingPartition,
    _sorted_blocks,
    broken_block_rule,
    dyck_to_ncp,
    enumerate_chains,
    enumerate_ncps,
    kre,
    kre_inverse,
    ncp,
    ncp_to_dyck,
    ref,
    rot,
    rot_inverse,
)
from ratdyck.paths import (
    InvariantError,
    RationalDyckPath,
    Slope,
    count_paths,
    count_paths_dp,
    enumerate_paths,
    enumerate_words,
    image_scope,
    path_from_word,
    star_path,
    word_above_line,
)
from ratdyck.perms import (
    _is_321_avoiding,
    _path_from_peaks,
    _peaks,
    e_p,
    e_p_inverse,
    e_q,
    e_v,
    e_w,
    enumerate_321_avoiding,
    rsk_hat,
    rsk_two_row,
)
from ratdyck.promotion import (
    _toggle_runs,
    dual_evacuation,
    dual_promotion,
    evacuation,
    promotion,
    toggle,
)
from ratdyck.rowmotion import (
    BoxRegion,
    box_region,
    dual_rowvacuation,
    partial_rowvacuation,
    rank_toggle,
    rowmotion,
    rowmotion_inverse,
    rowvacuation,
)

SLOPES = [(1, 1, 6), (1, 2, 4), (2, 3, 3), (3, 2, 3), (3, 5, 2), (5, 3, 2)]


def toggle_reference(i, p):
    here = set(p.steps)
    if (i in here) == (i + 1 in here):
        return p
    try:
        return RationalDyckPath(p.slope, tuple(sorted(here ^ {i, i + 1})))
    except ValueError:
        return p


def evacuation_reference(p):
    for top in range(p.slope.total_steps - 1, 0, -1):
        for i in range(1, top + 1):
            p = toggle(i, p)
    return p


def dual_evacuation_reference(p):
    for low in range(1, p.slope.total_steps):
        for i in range(p.slope.total_steps - 1, low - 1, -1):
            p = toggle(i, p)
    return p


def window_ups_reference(slope, length):
    c = 1
    while window_length(slope, c) <= length:
        if window_length(slope, c) == length:
            return c
        c += 1
    return None


def pm_reference(p):
    """Each block: the up step and the unused rights up to the first point
    where the line of slope a/b from the up step's base meets the path."""
    s = p.slope
    a, b = s.a, s.b
    verts = p.vertices()
    unused = set(range(1, s.total_steps + 1)) - set(p.steps)
    blocks = []
    for m in range(s.up_count, 0, -1):
        u = p.steps[m - 1]
        x0, y0 = u - m, m - 1
        for k in range(u + 1, s.total_steps + 1):
            (x1, y1), (x2, y2) = verts[k - 1], verts[k]
            if y1 == y2:
                xs = Fraction(x0 * a + (y1 - y0) * b, a)
                if x1 <= xs <= x2:
                    bound = math.floor(xs) + y1
                    break
            else:
                ys = Fraction(y0 * b + (x1 - x0) * a, b)
                if y1 <= ys <= y2:
                    bound = x1 + ys
                    break
        members = {j for j in unused if u < j <= bound}
        unused -= members
        blocks.append([u, *members])
    return canonical_matching(s.total_steps, blocks)


@pytest.mark.parametrize("a,b,n", SLOPES)
def test_toggle_matches_construct_and_catch(a, b, n):
    slope = Slope(a, b, n)
    for p in enumerate_paths(slope):
        for i in range(1, slope.total_steps):
            got = toggle(i, p)
            assert got == toggle_reference(i, p)
            # no swap returns the very same object
            assert (got is p) == (got == p)


def assert_mask_kernel(p):
    total = p.slope.total_steps
    for i in range(1, total):
        # one toggle, met ascending and descending
        assert _toggle_runs(p, [range(i, i + 1)]) == toggle(i, p)
        assert _toggle_runs(p, [range(i, i - 1, -1)]) == toggle(i, p)
    assert _toggle_runs(p, [range(1, total)]) == promotion(p)
    assert _toggle_runs(p, [range(total - 1, 0, -1)]) == dual_promotion(p)


@pytest.mark.parametrize("a,b,n", SLOPES)
def test_toggle_evacuations_match_per_toggle_loops(a, b, n):
    for p in enumerate_paths(Slope(a, b, n)):
        assert evacuation(p) == evacuation_reference(p)
        assert dual_evacuation(p) == dual_evacuation_reference(p)
        assert_mask_kernel(p)


# the (a, b) of test_properties.MAP_SLOPES at 80 to 100 steps
MASK_SLOPES = [(1, 1, 40), (1, 2, 30), (2, 3, 20), (3, 5, 12), (3, 2, 20)]


@pytest.mark.parametrize("a,b,n", MASK_SLOPES)
def test_toggle_evacuations_on_random_paths(a, b, n):
    rng = random.Random(a * 100 + b * 10 + n)
    for _ in range(3):
        p = random_path(Slope(a, b, n), rng)
        assert evacuation(p) == evacuation_reference(p)
        assert dual_evacuation(p) == dual_evacuation_reference(p)
        assert_mask_kernel(p)


def unchecked_images(p, chains=True):
    """Every image of ``p`` that a kernel builds unchecked: each toggle, the
    toggle products, the row sweeps, each rank toggle, both matchings with
    the reflected and rotated matching, and, with ``chains``, both rotations
    and the reflection of the chain of a (1,k) path."""
    region = box_region(p.slope)
    maps = [promotion, dual_promotion, evacuation, dual_evacuation, rowmotion,
            rowmotion_inverse, rowvacuation, dual_rowvacuation, partial_rowvacuation]
    m = pm(p)
    images = ([toggle(i, p) for i in range(1, p.slope.total_steps)]
              + [f(p) for f in maps]
              + [rank_toggle(r, p) for r in range(region.min_rank, region.max_rank + 1)]
              + [m, dpm(p), bar(m), rotate(m)])
    if chains and p.slope.a == 1:
        chain = dyck_to_ncp(p)
        images += [rot(chain), ref(chain), rot_inverse(chain)]
    return images


# the chain kernels' caches, which would hand a routed run values built
# before it, and a later unrouted run values built by routing
CHAIN_CACHES = ("enumerate_ncps", "enumerate_chains", "_chain_table")


def clear_chain_caches():
    for name in CHAIN_CACHES:
        getattr(noncrossing_module, name).cache_clear()


def routed(monkeypatch, fn, *args):
    """``fn(*args)`` with every path, partition, matching and chain that a
    kernel builds unchecked routed through its validating constructor, which
    raises on an invalid one."""
    with monkeypatch.context() as patched:
        patched.setattr(RationalDyckPath, "_caller_checked", RationalDyckPath)
        patched.setattr(NonCrossingPartition, "_caller_checked",
                        classmethod(lambda cls, n, blocks: cls(n, blocks)))
        patched.setattr(NonCrossingChain, "_caller_checked",
                        classmethod(lambda cls, k, layers: cls(k, layers)))
        clear_chain_caches()
        try:
            return fn(*args)
        finally:
            clear_chain_caches()


def routed_images(paths, monkeypatch, chains=True):
    return routed(monkeypatch, lambda: [unchecked_images(p, chains) for p in paths])


def enumerated(slope):
    """``enumerate_paths`` outside an image scope and inside one."""
    with image_scope():
        scoped = enumerate_paths(slope)
    return [enumerate_paths(slope), scoped]


def routed_paths(a, b, n, uniform):
    slope = Slope(a, b, n)
    if not uniform:
        return enumerate_paths(slope)
    rng = random.Random(a * 1000 + b * 100 + n)
    return [uniform_path(slope, rng) for _ in range(uniform)]


@pytest.mark.parametrize("a,b,n,uniform", [
    *((a, b, n, 0) for a, b, n in registry.DEFAULT_DOMAINS),
    (1, 1, 9, 0), (1, 2, 6, 0), (1, 1, 200, 3), (3, 5, 20, 5),
])
def test_unchecked_images_pass_the_constructor(a, b, n, uniform, monkeypatch):
    # the enumeration is routed, and the chain maps run, only on domains
    # small enough to enumerate: dyck_to_ncp reads the whole chain table
    if not uniform:
        slope = Slope(a, b, n)
        assert routed(monkeypatch, enumerated, slope) == enumerated(slope)
    paths = routed_paths(a, b, n, uniform)
    chains = not uniform
    assert routed_images(paths, monkeypatch, chains) == [unchecked_images(p, chains) for p in paths]


def loose_step_bound(slope, j):
    return (j - 1) * slope.b // slope.a + j + 1


def loose_region(slope):
    region = BoxRegion(slope)
    object.__setattr__(region, "row_lengths", tuple(cap + 1 for cap in region.row_lengths))
    return region


def scan_giving_a_step_below_the_top(p, dual):
    """``_scan_blocks`` with one right step of a nested block given to a
    window below the top, one whose block encloses it."""
    blocks = [list(b) for b in _scan_blocks(p, dual)]
    for outer, inner in itertools.permutations(blocks, 2):
        if len(inner) > 2 and outer[0] < inner[0] and inner[-1] < outer[-1]:
            outer.append(inner.pop(1))
            outer.sort()
            break
    return tuple(map(tuple, blocks))


def relabel_reference(x, f):
    """``x`` with each element renamed f(x), one call per element, each
    block sorted and the blocks ordered by minimum afterwards; built
    through the unchecked builder, which the routed run validates."""
    return x._caller_checked(x.n, _sorted_blocks([f(y) for y in b] for b in x.blocks))


ROTATED = NonCrossingPartition._rotated
REFLECTED = NonCrossingPartition._reflected
SWAP_2_3 = {2: 3, 3: 2}


def rotated_with_a_transposition(self, step):
    """``_rotated`` with 2 and 3 exchanged after it: no dihedral map."""
    return relabel_reference(ROTATED(self, step), lambda x: SWAP_2_3.get(x, x))


def reflected_with_a_transposition(self):
    """``_reflected`` with 2 and 3 exchanged after it: no dihedral map."""
    return relabel_reference(REFLECTED(self), lambda x: SWAP_2_3.get(x, x))


@pytest.mark.parametrize("target,name,broken", [
    (Slope, "step_bound", loose_step_bound),
    (rowmotion_module, "box_region", loose_region),
    (matchings_module, "_scan_blocks", scan_giving_a_step_below_the_top),
    (NonCrossingPartition, "_rotated", rotated_with_a_transposition),
    (NonCrossingPartition, "_reflected", reflected_with_a_transposition),
])
def test_routed_images_catch_a_loose_kernel_bound(target, name, broken, monkeypatch):
    # toggle reads step_bound, which the constructor inlines, and the sweep
    # clamps by the region's caps: either one too loose builds paths that
    # only the routed run refuses (with step_bound loosened, the constructor
    # finds no step past it and reports the two bounds disagreeing); a scan
    # or a rotation or reflection that breaks its lemma builds crossing
    # matchings and partitions that only the routed run refuses
    paths = [*enumerate_paths(Slope(1, 1, 6)), *enumerate_paths(Slope(1, 2, 4))]
    monkeypatch.setattr(target, name, broken)
    for p in paths:
        unchecked_images(p)
    with pytest.raises((ValueError, InvariantError)):
        routed_images(paths, monkeypatch)


@pytest.mark.parametrize("a,b,n", [(1, 1, 6), (1, 2, 4), (2, 3, 2)])
def test_routed_enumeration_catches_a_loose_enumerator_bound(a, b, n, monkeypatch):
    # a fresh sequence cache, dropped with the patch, so that no sequence
    # enumerated under the loose bound outlives the test
    monkeypatch.setattr(paths_module, "_step_sequences",
                        functools.lru_cache(paths_module._step_sequences.__wrapped__))
    monkeypatch.setattr(Slope, "step_bound", loose_step_bound)
    slope = Slope(a, b, n)
    enumerated(slope)
    with pytest.raises((ValueError, InvariantError)):
        routed(monkeypatch, enumerated, slope)


def ncps_keeping_enclosed_blocks(n):
    """``enumerate_ncps`` with no block ever leaving the stack: x may join
    a block that a later chord encloses, so crossing partitions come out,
    built unchecked."""
    out, blocks = [], []

    def rec(x):
        if x > n:
            out.append(NonCrossingPartition._caller_checked(n, tuple(map(tuple, blocks))))
            return
        for b in blocks:
            b.append(x)
            rec(x + 1)
            b.pop()
        blocks.append([x])
        rec(x + 1)
        blocks.pop()

    rec(1)
    return tuple(out)


def ncp_to_dyck_shifting_back(chain):
    """``ncp_to_dyck`` with each pass turning ``U w R`` into ``U R w``, the
    shift run backwards, so that up steps move later, past their bounds."""
    k, n = chain.k, chain.n
    width = k + 1
    chunks = ["U" + "R" * k] * (n + 1)
    for layer in reversed(chain.layers):
        for b in layer.blocks:
            if len(b) > 1:
                word = "".join([chunks[x] for x in b])
                word = "UR" + word[1:-1]
                for i, x in enumerate(b):
                    chunks[x] = word[i * width:(i + 1) * width]
    steps = tuple(i for i, c in enumerate("".join(chunks[1:]), 1) if c == "U")
    return RationalDyckPath._caller_checked(Slope(1, k, n), steps)


def chain_kernel_images(n, k):
    """What the chain kernels build unchecked on [1, n]: the partitions, the
    k-chains and the path of each chain."""
    chains = noncrossing_module.enumerate_chains(n, k)
    return [noncrossing_module.enumerate_ncps(n), chains,
            [noncrossing_module.ncp_to_dyck(c) for c in chains]]


@pytest.mark.parametrize("name,broken", [
    ("enumerate_ncps", ncps_keeping_enclosed_blocks),
    ("ncp_to_dyck", ncp_to_dyck_shifting_back),
])
@pytest.mark.parametrize("n,k", [(5, 1), (5, 2)])
def test_routed_chain_kernels_catch_a_broken_lemma(name, broken, n, k, monkeypatch):
    # fresh caches, dropped with the patch, so that nothing the broken
    # kernel built outlives the test; the broken walk builds crossing
    # partitions and the backward shift paths past their bounds, which
    # only the routed run refuses
    for cache in CHAIN_CACHES:
        fn = broken if cache == name else getattr(noncrossing_module, cache).__wrapped__
        monkeypatch.setattr(noncrossing_module, cache, functools.lru_cache(fn))
    if name not in CHAIN_CACHES:
        monkeypatch.setattr(noncrossing_module, name, broken)
    chain_kernel_images(n, k)
    with pytest.raises(ValueError):
        routed(monkeypatch, chain_kernel_images, n, k)


def step_sequences_reference(slope):
    """The step sequences by depth-first recursion, one level per up step,
    each step from one past the last up to its bound."""
    an = slope.up_count

    def extend(prefix):
        j = len(prefix)
        if j == an:
            yield tuple(prefix)
            return
        lo = prefix[-1] + 1 if prefix else 1
        for u in range(lo, slope.step_bound(j + 1) + 1):
            prefix.append(u)
            yield from extend(prefix)
            prefix.pop()

    return tuple(extend([]))


@pytest.mark.parametrize("a,b,n", [*SLOPES, (1, 1, 9), (2, 1, 5), (1, 4, 3)])
def test_step_sequences_match_the_recursive_walk(a, b, n):
    slope = Slope(a, b, n)
    assert paths_module._step_sequences.__wrapped__(slope) == step_sequences_reference(slope)


# every matching of these slopes, and every partition of [1, n] for n <= 8,
# singletons at 1 and at n, the one partition of [1, 1] and the empty
# partition of [1, 0] among them
RELABEL_SLOPES = [(1, 1, 6), (1, 2, 4), (2, 3, 2), (2, 5, 2)]


@pytest.mark.parametrize("kind,size", [*(("matchings", s) for s in RELABEL_SLOPES),
                                       *(("partitions", n) for n in range(0, 9))])
def test_dihedral_relabels_match_the_per_element_relabel(kind, size):
    if kind == "matchings":
        values = [pm(p) for p in enumerate_paths(Slope(*size))]
    else:
        values = enumerate_ncps(size)
    for x in values:
        n = x.n
        down, up = ROTATED(x, -1), ROTATED(x, 1)
        assert down == relabel_reference(x, lambda y: (y - 2) % n + 1), x
        assert up == relabel_reference(x, lambda y: y % n + 1), x
        assert REFLECTED(x) == relabel_reference(x, lambda y: n + 1 - y), x
        for image in (down, up, REFLECTED(x)):
            assert type(image) is type(x) and broken_block_rule(image.blocks, n) == 0, x


@pytest.mark.parametrize("a,b,n", SLOPES)
def test_window_ups_closed_form(a, b, n):
    slope = Slope(a, b, n)
    # the up counts admissible reads off the slope's tables, for every length
    # a span or stretch of the size can have
    ups = _slope_tables(slope)[0]
    size = slope.total_steps
    assert len(ups) == size + 1 and ups[0] == 0  # the empty stretch
    for length in range(1, size + 1):
        assert ups[length] == window_ups_reference(slope, length)


@pytest.mark.parametrize("a,b,n", SLOPES)
def test_pm_matches_rational_intersection(a, b, n):
    for p in enumerate_paths(Slope(a, b, n)):
        assert pm(p) == pm_reference(p)


def pm_blocks_by_forward_walk(p):
    """The blocks from the top up step down, each walking forward from its
    up step to the first return of its line and taking the right steps not
    yet taken: O(sum of window spans), O(N^2) on the top path."""
    s = p.slope
    a, b = s.a, s.b
    is_up = [False] * (s.total_steps + 1)
    for u in p.steps:
        is_up[u] = True
    taken = is_up[:]
    blocks = []
    for u in reversed(p.steps):
        block = [u]
        level = b
        k = u + 1
        while is_up[k] or level > a:
            if is_up[k]:
                level += b
            else:
                if not taken[k]:
                    block.append(k)
                level -= a
            k += 1
        if level == a and not taken[k]:
            block.append(k)
        for j in block[1:]:
            taken[j] = True
        blocks.append(tuple(block))
    return tuple(reversed(blocks))


# every path of these, and seeded uniform paths up to these
SCAN_SLOPES = [(1, 1, 8), (1, 2, 5), (1, 3, 4), (2, 3, 3), (3, 2, 3), (3, 5, 2), (5, 3, 2),
               (2, 1, 4)]
SCAN_UNIFORM_SLOPES = [(1, 1, 200), (2, 3, 40), (3, 5, 20), (5, 2, 20)]


def uniform_paths_up_to(a, b, nmax, per_size=20):
    """``per_size`` seeded uniform paths at each of ten sizes up to nmax."""
    rng = random.Random(a * 1000 + b * 100 + nmax)
    step = nmax // 10
    for n in range(step, nmax + 1, step):
        slope = Slope(a, b, n)
        for _ in range(per_size):
            yield uniform_path(slope, rng)


def assert_scans_match_references(paths):
    for p in paths:
        assert pm(p).blocks == pm_blocks_by_forward_walk(p), p
        assert dpm(p).blocks == bar(pm(star_path(p))).blocks, p


@pytest.mark.parametrize("a,b,n", SCAN_SLOPES)
def test_matching_scans_match_the_references_on_every_path(a, b, n):
    assert_scans_match_references(enumerate_paths(Slope(a, b, n)))


@pytest.mark.parametrize("a,b,nmax", SCAN_UNIFORM_SLOPES)
def test_matching_scans_match_the_references_on_uniform_paths(a, b, nmax):
    assert_scans_match_references(uniform_paths_up_to(a, b, nmax))


def test_matching_scan_reports_a_step_in_no_window():
    # RU, which no path is: each scan meets its closing step with no window open
    bad = types.SimpleNamespace(slope=Slope(1, 1, 1), steps=(2,))
    with pytest.raises(InvariantError, match="step 1 of \\(2,\\) lies in no window"):
        _scan_blocks(bad, False)
    with pytest.raises(InvariantError, match="step 2 of \\(2,\\) lies in no window"):
        _scan_blocks(bad, True)


@pytest.mark.parametrize("a,b,n", [(2, 3, 2), (3, 2, 2)])
def test_constructor_rejects_every_invalid_step_set(a, b, n):
    slope = Slope(a, b, n)
    for word in enumerate_words(slope):
        if word_above_line(slope, word):
            assert RationalDyckPath(slope, word).steps == word
        else:
            with pytest.raises(ValueError):
                RationalDyckPath(slope, word)


@pytest.mark.parametrize(
    "steps,message",
    [
        ((1, 2, 3), "expected 2 up steps, got 3"),
        ((2, 2), "step sequence must be strictly increasing: (2, 2)"),
        ((0, 2), "step positions must lie in [1,4]: (0, 2)"),
        ((1, 5), "step positions must lie in [1,4]: (1, 5)"),
        ((2, 3), "step 1 at position 2 exceeds bound 1"),
        ((1, 4), "step 2 at position 4 exceeds bound 3"),
        # breaks the order and the bound: the order is reported
        ((3, 1), "step sequence must be strictly increasing: (3, 1)"),
    ],
)
def test_constructor_messages(steps, message):
    with pytest.raises(ValueError) as info:
        RationalDyckPath(Slope(1, 1, 2), steps)
    assert str(info.value) == message


# -- counting ---------------------------------------------------------------

COUNT_SLOPES = [(1, 1), (1, 2), (2, 3), (3, 2), (3, 5)]


def _partition_multiplicities(n):
    """All ways to write n = sum j*k_j, as {j: k_j} with k_j >= 1."""
    out = []

    def rec(remaining, max_part, acc):
        if remaining == 0:
            out.append(dict(acc))
            return
        for j in range(min(max_part, remaining), 0, -1):
            acc[j] = acc.get(j, 0) + 1
            rec(remaining - j, j, acc)
            acc[j] -= 1
            if acc[j] == 0:
                del acc[j]

    rec(n, n, {})
    return out


def count_paths_reference(slope):
    """Bizley's formula as a sum over the partitions of n, in rationals."""
    a, b, n = slope.a, slope.b, slope.n
    coeff = [Fraction(0)] + [
        Fraction(math.comb((a + b) * j, a * j), j * (a + b)) for j in range(1, n + 1)
    ]
    total = Fraction(0)
    for counts in _partition_multiplicities(n):
        term = Fraction(1)
        for j, kj in counts.items():
            term *= coeff[j] ** kj / math.factorial(kj)
        total += term
    assert total.denominator == 1
    return int(total)


@pytest.mark.parametrize("a,b", COUNT_SLOPES)
def test_count_paths_matches_partition_sum(a, b):
    for n in range(1, 13):
        slope = Slope(a, b, n)
        assert count_paths(slope) == count_paths_reference(slope)


@pytest.mark.parametrize("a,b", COUNT_SLOPES)
def test_count_paths_matches_dp_beyond_partition_scale(a, b):
    slope = Slope(a, b, 60)
    assert count_paths(slope) == count_paths_dp(slope)


# -- the matching map -------------------------------------------------------


def grow_sequence_reference(start, pool, increasing):
    seq = [start]
    remaining = sorted(pool - {start})
    cur = start
    while remaining:
        if increasing:
            nxt = next((x for x in remaining if x > cur), remaining[0])
        else:
            nxt = next((x for x in reversed(remaining) if x < cur), remaining[-1])
        seq.append(nxt)
        remaining.remove(nxt)
        cur = nxt
    return seq


def _grow_sequence(start, pool, increasing):
    """The whole pool in cyclic order from ``start`` (a member of it),
    ascending or descending, by one sort of the pool."""
    ordered = sorted(pool)
    i = ordered.index(start)
    if increasing:
        return ordered[i:] + ordered[:i]
    return ordered[i::-1] + ordered[:i:-1]


def cyclic_prefix_reference(free, i, size, increasing):
    """The first ``size`` (at most ``len(free)``) positions of the sorted
    list ``free`` in cyclic order from ``free[i]``, ascending or
    descending, sliced out of the list."""
    if increasing:
        seq = free[i : i + size]
        return seq + free[: size - len(seq)]
    seq = free[max(i + 1 - size, 0) : i + 1][::-1]
    return seq + free[len(free) - (size - len(seq)) :][::-1]


def representing_length_reference(keys, seq):
    """Length of the longest prefix of ``seq`` whose first element stays the
    height-maximal element of it, as ``keys`` orders positions, by a scan
    of ``seq``."""
    start_key = keys[seq[0]]
    for size in range(1, len(seq)):
        if keys[seq[size]] >= start_key:
            return size
    return len(seq)


def ring(order):
    """The ring ``_walk`` reads: ``link[x]`` is the member of ``order``
    after x, cyclically."""
    link = [0] * (max(order) + 1)
    for x, y in zip(order, order[1:] + order[:1]):
        link[x] = y
    return link


def represents_reference(slope, start, candidate):
    bn = slope.right_count
    start_key = (_height(slope, start), start > bn)
    return all((_height(slope, x), x > bn) < start_key for x in candidate if x != start)


def window_reference(slope, tags, i, j, c_total, own, verdicts):
    """Whether [i, j] parses as one complete window of ``c_total`` up steps
    rooted at i, owning the positions tagged ``own``: the recursive parse in
    full, with no window accepted unparsed.  ``verdicts`` caches sub-windows
    for one fixed ``tags``."""
    a, b = slope.a, slope.b
    seen = set()

    def sub_window(pos, q, c_sub):
        if (pos, q) not in verdicts:
            kind, idx = tags[pos]
            span = range(pos + 1, q + 1)
            if any(tags[x] == ("C", -1) for x in span):
                verdicts[pos, q] = False
            elif kind == "U":
                rights = [x for x, tag in tags.items() if tag == ("R", idx)]
                verdicts[pos, q] = all(x <= q for x in rights) and window_reference(
                    slope, tags, pos, q, c_sub, ("R", idx), verdicts
                )
            else:
                verdicts[pos, q] = window_reference(slope, tags, pos, q, c_sub, ("F", -1), verdicts)
        return verdicts[pos, q]

    def rec(pos, ups, after_open_return):
        if pos > j:
            return ups == c_total - 1
        if (pos, ups, after_open_return) in seen:
            return False
        seen.add((pos, ups, after_open_return))
        kind, idx = tags[pos]
        if (kind, idx) == own:
            if (pos == j or b * (1 + ups) > a * (pos - i - ups)) and rec(pos + 1, ups, False):
                return True
        if kind in ("U", "F") and not after_open_return:
            c_sub = 1
            while (q := pos + window_length(slope, c_sub) - 1) <= j:
                ups2 = ups + c_sub
                if (
                    sub_window(pos, q, c_sub)
                    and (q == j or b * (1 + ups2) > a * (q - i - ups2))
                    and rec(q + 1, ups2, (b * c_sub) % a != 0)
                ):
                    return True
                c_sub += 1
        return False

    return rec(i + 1, 0, False)


def admissible_reference(slope, candidate, built=()):
    """The candidate's span tagged afresh (root, candidate rights, built up
    steps and rights, free), then parsed in full by ``window_reference``."""
    cand = sorted(set(candidate))
    lo, hi = cand[0], cand[-1]
    inside = []
    for block in built:
        block = tuple(sorted(block))
        if lo <= block[0] and block[-1] <= hi:
            inside.append(block)
        elif any(lo <= x <= hi for x in block):
            return False
    tags = {pos: ("F", -1) for pos in range(lo, hi + 1)}
    for idx, block in enumerate(inside):
        tags[block[0]] = ("U", idx)
        for x in block[1:]:
            tags[x] = ("R", idx)
    for x in cand[1:]:
        tags[x] = ("C", -1)
    tags[lo] = ("root", -1)
    c_top = window_ups_reference(slope, hi - lo + 1)
    if c_top is None:
        return False
    future_needed = c_top - 1 - len(inside)
    if future_needed < 0 or future_needed > slope.up_count - len(built) - 1:
        return False
    return window_reference(slope, tags, lo, hi, c_top, ("C", -1), {})


def assert_necessary(slope, cand, built):
    """``admissible`` accepts ``cand`` whenever the full parse does, and
    agrees with it when no built position lies in the span."""
    verdict = admissible(slope, cand)
    lo, hi = min(cand), max(cand)
    if any(lo <= x <= hi for block in built for x in block):
        assert verdict or not reference_verdict(slope, cand, built), (cand, built)
    else:
        assert verdict == reference_verdict(slope, cand, built), (cand, built)


def reference_entries(p):
    """For each valley entry: its candidate sequence, grown element by
    element, the blocks built before it, and the largest representing,
    admissible prefix, found by scanning every size bottom-up with a fresh
    ``admissible_reference`` call each."""
    s = p.slope
    pool = set(range(1, s.total_steps + 1))
    built = []
    for entry in k_sequence(p).entries:
        start = entry.numeric(s)
        seq = grow_sequence_reference(start, pool, entry.barred)
        best = None
        for size in range(min(s.b // s.a + 1, len(seq)), len(seq) + 1):
            if represents_reference(s, start, seq[:size]) and admissible_reference(
                s, seq[:size], built
            ):
                best = size
        block = tuple(sorted(seq[:best]))
        yield seq, tuple(built), block
        built.append(block)
        pool.difference_update(block)


def mat_reference(p):
    built = [block for _, _, block in reference_entries(p)]
    return pm_inverse(canonical_matching(p.slope.total_steps, built), p.slope)


def mat_inverse_reference(q):
    """Every assignment of the selected valley values to the rows, searched
    exhaustively; the path if exactly one assignment gives one."""
    s = q.slope
    bn, an = s.right_count, s.up_count
    selections = []
    for block in pm(q).blocks:
        best = max(block, key=lambda pos: (_height(s, pos), pos > bn))
        selections.append((s.total_steps + 1 - best, True) if best > bn else (best, False))
    barred_rows = {v for v, barred in selections if barred}
    values = [v for v, barred in selections if not barred]
    solutions = []

    def rec(m, prev, remaining, acc):
        if m > an:
            if not remaining:
                solutions.append(tuple(acc))
            return
        if an + 1 - m in barred_rows:
            candidates = [(prev + 1, remaining)]
        elif m == 1:
            candidates = []
        else:
            candidates = [
                (bn - v + 1 + m, remaining[:idx] + remaining[idx + 1 :])
                for idx, v in enumerate(remaining)
                if bn - v + 1 + m > prev + 1
            ]
        for u, rest in candidates:
            if u <= s.step_bound(m):
                rec(m + 1, u, rest, acc + [u])

    rec(1, 0, values, [])
    if len(solutions) != 1:
        raise ValueError(f"{len(solutions)} reconstructions")
    return RationalDyckPath(s, solutions[0])


def random_path(slope, rng):
    """Each up step u_j uniform in [u_{j-1} + 1, step_bound(j)]."""
    steps = [0]
    for j in range(1, slope.up_count + 1):
        steps.append(rng.randint(steps[-1] + 1, slope.step_bound(j)))
    return RationalDyckPath(slope, tuple(steps[1:]))


def uniform_path(slope, rng):
    """A uniformly drawn path: each up step is drawn with weight the number
    of ways to place the up steps after it."""
    an = slope.up_count
    bound = [0] + [slope.step_bound(j) for j in range(1, an + 1)]
    # ways[j][u]: the ways to place the up steps after the j-th, sitting at u
    ways = [[1] * (bound[an] + 2)]
    for j in range(an - 1, -1, -1):
        after = ways[-1]
        row = [0] * (bound[an] + 2)
        for u in range(bound[j + 1] - 1, -1, -1):
            row[u] = row[u + 1] + after[u + 1]
        ways.append(row)
    ways.reverse()
    steps, u = [], 0
    for j in range(1, an + 1):
        r = rng.randrange(ways[j - 1][u])
        u += 1
        while r >= ways[j][u]:
            r -= ways[j][u]
            u += 1
        steps.append(u)
    return RationalDyckPath(slope, tuple(steps))


MAT_DESK_SLOPES = [(1, 1, 7), (1, 2, 5), (2, 3, 3), (3, 2, 3), (3, 5, 2)]
# about 40 steps, where the admissibility parse nests deepest
MEMO_SLOPES = [(2, 3, 8), (3, 5, 5), (3, 2, 8)]


@pytest.mark.parametrize("a,b,n", MAT_DESK_SLOPES)
def test_mat_matches_bottom_up_scan(a, b, n):
    for p in enumerate_paths(Slope(a, b, n)):
        assert mat(p) == mat_reference(p)


@pytest.mark.parametrize("a,b,n", MEMO_SLOPES)
def test_mat_matches_bottom_up_scan_on_random_paths(a, b, n):
    rng = random.Random(a * 100 + b * 10 + n)
    for _ in range(2):
        p = random_path(Slope(a, b, n), rng)
        assert mat(p) == mat_reference(p)


@pytest.mark.parametrize("a,b,n", MAT_DESK_SLOPES)
def test_mat_inverse_matches_exhaustive_search(a, b, n):
    for p in enumerate_paths(Slope(a, b, n)):
        assert mat_inverse(p) == mat_inverse_reference(p)


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 3), (3, 2), (3, 5), (5, 3)])
def test_all_free_windows_parse(a, b):
    # the lemma behind accepting a stretch with no built position unread
    slope = Slope(a, b, 40)
    for length in range(1, 41):
        c = window_ups_reference(slope, length)
        if c is not None:
            tags = {pos: ("F", -1) for pos in range(length)}
            assert window_reference(slope, tags, 0, length - 1, c, ("F", -1), {}), length


@pytest.mark.parametrize("a,b,n", MEMO_SLOPES)
def test_shared_memo_gives_fresh_verdicts(a, b, n):
    # every prefix of each entry's whole cyclic sequence on a path of about
    # 40 steps, past the b + 1 positions mat tries
    slope = Slope(a, b, n)
    rng = random.Random(a * 1000 + b * 100 + n)
    p = random_path(slope, rng)
    for seq, built, _ in reference_entries(p):
        for size in range(1, len(seq) + 1):
            assert_necessary(slope, seq[:size], built)


@pytest.mark.parametrize("a,b,n", [(3, 2, 3), (2, 3, 3), (3, 5, 2), (5, 3, 2)])
def test_memo_replay_across_entries(a, b, n):
    # the prefixes of the cyclic sequence from every free start in both
    # directions, before every entry of a path: more candidates than mat
    # asks, spanning blocks built earlier and positions built later
    slope = Slope(a, b, n)
    rng = random.Random(a * 1000 + b * 100 + n)
    for _ in range(4):
        p = random_path(slope, rng)
        for built, _ in mat_entries(p):
            used = {x for blk in built for x in blk}
            for cand in all_cyclic_prefixes(free_pool(slope, used)):
                assert_necessary(slope, cand, built)


def mat_entries(p):
    """For each valley entry: the blocks built before it and its own block,
    read off ``mat(p)`` (an entry's block is the one holding its start)."""
    s = p.slope
    owner = {x: tuple(sorted(block)) for block in pm(mat(p)).blocks for x in block}
    built = []
    for entry in k_sequence(p).entries:
        block = owner[entry.numeric(s)]
        yield tuple(built), block
        built.append(block)


# The caches below are shared by the tests of this module: the layouts (the
# blocks mat has built before an entry) of a slope, the cyclic prefixes of a
# set of free positions, and the verdicts of the full parse.


def first_layouts(paths):
    """The blocks built before each entry of each path, as ``mat_entries``
    gives them, each tuple once, in the order first met."""
    return list(dict.fromkeys(built for p in paths for built, _ in mat_entries(p)))


@functools.cache
def slope_layouts(slope):
    """``first_layouts`` of every path of the slope."""
    return first_layouts(enumerate_paths(slope))


def free_pool(slope, used):
    return frozenset(range(1, slope.total_steps + 1)) - used


@functools.cache
def all_cyclic_prefixes(pool):
    """Every prefix of the cyclic order of the frozenset ``pool`` from each
    of its positions, ascending and descending."""
    return tuple(
        grown[:size]
        for start in pool
        for grown in (_grow_sequence(start, pool, True), _grow_sequence(start, pool, False))
        for size in range(1, len(grown) + 1)
    )


@functools.cache
def cyclic_prefixes(pool):
    """``all_cyclic_prefixes``, once per set of positions."""
    prefixes = {}
    for cand in all_cyclic_prefixes(pool):
        prefixes.setdefault(frozenset(cand), cand)
    return tuple(prefixes.values())


_verdicts = {}


def reference_verdict(slope, cand, built):
    """``admissible_reference``, computed once per key: a verdict depends
    only on the candidate, the blocks meeting its span and the number of
    blocks built."""
    lo, hi = min(cand), max(cand)
    meeting = tuple(block for block in built if block[0] <= hi and lo <= block[-1])
    key = (slope, tuple(sorted(cand)), meeting, len(built))
    if key not in _verdicts:
        _verdicts[key] = admissible_reference(slope, cand, built)
    return _verdicts[key]


def assert_prefix_verdicts(slope, layouts):
    """``assert_necessary`` on every cyclic prefix of the free positions of
    each layout (the blocks built before an entry).  A verdict depends only
    on the candidate, the blocks meeting its span and the number of blocks
    built, so each such triple is checked once."""
    checked = set()
    for built in layouts:
        used = {x for block in built for x in block}
        for cand in cyclic_prefixes(free_pool(slope, used)):
            lo, hi = min(cand), max(cand)
            meeting = tuple(block for block in built if block[0] <= hi and lo <= block[-1])
            key = (tuple(sorted(cand)), meeting, len(built))
            if key not in checked:
                checked.add(key)
                assert_necessary(slope, cand, built)


@pytest.mark.parametrize("a,b,n", [(2, 3, 3), (3, 2, 3), (3, 5, 2), (5, 3, 2)])
def test_stretch_tables_on_every_path(a, b, n):
    # wrap-around prefixes span built blocks, whose nesting and stretches
    # the arithmetic does not read
    slope = Slope(a, b, n)
    assert_prefix_verdicts(slope, slope_layouts(slope))


@pytest.mark.parametrize("a,b,n", [(2, 3, 8), (3, 5, 5)])
def test_stretch_tables_on_uniform_paths(a, b, n):
    slope = Slope(a, b, n)
    rng = random.Random(a * 1000 + b * 100 + n)
    assert_prefix_verdicts(slope, first_layouts([uniform_path(slope, rng) for _ in range(3)]))


def stretch_ups_reference(slope, tags, s, e, verdicts):
    """The up counts of every filling of [s, e] by complete windows, each
    parsed in full by ``window_reference`` (rooted at a free position, or at
    a built up step and holding all of its block), none but the last
    returning mid-step."""
    a, b = slope.a, slope.b
    found = set()

    def rec(pos, ups):
        if pos > e:
            found.add(ups)
            return
        kind, idx = tags[pos]
        if kind == "R":
            return
        own = ("F", -1) if kind == "F" else ("R", idx)
        c = 1
        while (q := pos + window_length(slope, c) - 1) <= e:
            if (
                (q == e or b * c % a == 0)
                and (kind == "F" or all(x <= q for x, tag in tags.items() if tag == own))
                and window_reference(slope, tags, pos, q, c, own, verdicts)
            ):
                rec(q + 1, ups + c)
            c += 1

    rec(s, 0)
    return found


@pytest.mark.parametrize("a,b,n", [(1, 2, 4), (2, 3, 3), (3, 2, 3), (3, 5, 2), (5, 3, 2)])
def test_stretch_lemma(a, b, n):
    # every stretch of every layout of the slope fills only with the one up
    # count ups reads off its length, always when it holds no built
    # position; and admissible accepts every cyclic prefix of the free
    # positions, of at most b + 1 of them, that the full parse accepts
    slope = Slope(a, b, n)
    size = slope.total_steps
    ups = _slope_tables(slope)[0]
    layouts = dict.fromkeys(frozenset(built) for built in slope_layouts(slope))
    fillings = {}
    for built in layouts:
        built = sorted(built)
        owner = {x: block for block in built for x in block}
        tags = {x: ("F", -1) for x in range(1, size + 1)}
        for idx, block in enumerate(built):
            tags[block[0]] = ("U", idx)
            tags.update((x, ("R", idx)) for x in block[1:])
        verdicts = {}
        # a filling of [s, e] reads only its positions and the extremes of
        # their blocks, relative to s; relative[s][k] reads position s + k
        relative = {
            s: [
                (tags[x][0], owner[x][0] - s, owner[x][-1] - s) if x in owner else None
                for x in range(s, size + 1)
            ]
            for s in range(1, size + 2)
        }

        def reference(s, e):
            key = tuple(relative[s][: e - s + 1])
            if key not in fillings:
                fillings[key] = stretch_ups_reference(slope, tags, s, e, verdicts)
            return fillings[key]

        for s in range(1, size + 2):
            for e in range(s - 1, size + 1):
                u = ups[e - s + 1]
                found = reference(s, e)
                assert found <= {u}, (built, s, e)
                if u is not None and not any(s <= x <= e for x in owner):
                    assert found == {u}, (built, s, e)
        used = set(owner)
        for cand in cyclic_prefixes(free_pool(slope, used)):
            if len(cand) <= b + 1:
                assert_necessary(slope, cand, built)


@pytest.mark.parametrize(
    "a,b,n,uniform",
    [(1, 1, 6, 0), (1, 2, 4, 0), (1, 3, 3, 0), (2, 3, 3, 0), (3, 2, 3, 0), (3, 5, 2, 0),
     (5, 3, 2, 0), (2, 3, 8, 3), (3, 5, 5, 3), (1, 1, 40, 3)],
)
def test_every_block_is_admissible_given_the_blocks_before(a, b, n, uniform, monkeypatch):
    # mat takes each block on arithmetic alone and leaves the nesting and
    # the stretch fill to its final round trip (the lemma in its
    # docstring); the full parse confirms each block it builds
    slope = Slope(a, b, n)
    if uniform:
        rng = random.Random(a * 1000 + b * 100 + n + 4)
        paths = [uniform_path(slope, rng) for _ in range(uniform)]
    else:
        paths = enumerate_paths(slope)
    calls = collections.Counter()
    check = matching_map.admissible

    def counted_check(*args):
        calls["admissible"] += 1
        return check(*args)

    monkeypatch.setattr(matching_map, "admissible", counted_check)
    entries = 0
    for p in paths:
        for built, block in mat_entries(p):
            entries += 1
            assert reference_verdict(slope, block, built), (p, block, built)
    # at least one call per entry, and one only at a = 1, where every block
    # has the forced size b + 1
    assert calls["admissible"] >= entries
    assert (calls["admissible"] == entries) == (a == 1)


@pytest.mark.parametrize(
    "a,b,n,uniform",
    [(*slope, 0) for slope in MAT_DESK_SLOPES] + [(*slope, 3) for slope in MEMO_SLOPES],
)
def test_admissible_is_exact_on_every_call_mat_makes(a, b, n, uniform, monkeypatch):
    # the arithmetic is only necessary in general, but on every call mat
    # makes it gives the verdict of the full parse: the calls before the
    # size taken reject, and the block taken is admissible (the lemma in
    # mat's docstring)
    slope = Slope(a, b, n)
    if uniform:
        rng = random.Random(a * 1000 + b * 100 + n + 5)
        paths = [uniform_path(slope, rng) for _ in range(uniform)]
    else:
        paths = enumerate_paths(slope)
    for p in paths:
        calls = recorded_calls(p, monkeypatch)
        built = [block for _, block in mat_entries(p)]
        assert len({k for _, k, _ in calls}) == slope.up_count
        for cand, k, verdict in calls:
            assert verdict == reference_verdict(slope, cand, tuple(built[:k])), (p, cand, k)


def recorded_calls(p, monkeypatch):
    """The ``admissible`` calls ``mat(p)`` makes, each as (candidate, blocks
    built before it, verdict).  An entry's calls end at the one call that
    accepts, so the blocks built are the calls accepted before."""
    check = matching_map.admissible
    calls = []
    built = 0

    def recorded(slope, cand):
        nonlocal built
        verdict = check(slope, cand)
        calls.append((tuple(cand), built, verdict))
        built += verdict
        return verdict

    with monkeypatch.context() as patched:
        patched.setattr(matching_map, "admissible", recorded)
        mat(p)
    return calls


def admissible_calls_reference(p):
    """The ``admissible`` calls of the list-based walk, each as (candidate,
    blocks built, verdict): the unused positions in a sorted list, each
    entry's cyclic prefix sliced out of it and scanned for its representing
    length, and each position taken deleted from the list."""
    s = p.slope
    free = list(range(1, s.total_steps + 1))
    keys = _slope_tables(s)[1]
    calls = []
    for built, entry in enumerate(k_sequence(p).entries):
        seq = cyclic_prefix_reference(
            free, free.index(entry.numeric(s)), min(s.b + 1, len(free)), entry.barred
        )
        longest = representing_length_reference(keys, seq)
        for size in range(longest, min(s.b // s.a + 1, len(seq)) - 1, -1):
            calls.append((tuple(seq[:size]), built, admissible(s, seq[:size])))
            if calls[-1][2]:
                break
        for x in seq[:size]:
            free.remove(x)
    return calls


@pytest.mark.parametrize(
    "a,b,n,uniform",
    [(*slope, 0) for slope in MAT_DESK_SLOPES]
    + [(*slope, 3) for slope in MEMO_SLOPES + [(1, 1, 40)]],
)
def test_mat_makes_the_admissible_calls_of_the_list_walk(a, b, n, uniform, monkeypatch):
    # the ring walk asks admissible about the same candidates, in the same
    # order and with the same blocks built, as the sorted list it replaced,
    # so the traced call count and accept ratio stay put
    slope = Slope(a, b, n)
    if uniform:
        rng = random.Random(a * 1000 + b * 100 + n + 4)
        paths = [uniform_path(slope, rng) for _ in range(uniform)]
    else:
        paths = enumerate_paths(slope)
    for p in paths:
        assert recorded_calls(p, monkeypatch) == admissible_calls_reference(p), p


def closure_count(slope, cand, minima):
    """The closure count ``admissible`` once tested beside the arithmetic,
    given ``minima``, the sorted up steps of the blocks built: on a span of
    the length of a complete window of c up steps, the c - 1 up steps after
    its root less the built ones inside it number at least 0 and fewer
    than the blocks not yet built."""
    lo, hi = min(cand), max(cand)
    c = _slope_tables(slope)[0][hi - lo + 1]
    inside = bisect_right(minima, hi) - bisect_left(minima, lo)
    return c is None or 0 <= c - 1 - inside < slope.up_count - len(minima)


def step_bound_path(slope, seed):
    """A seeded random path: each up step drawn uniformly between the one
    before it and its step bound, as the matching map scale smoke tests
    draw theirs."""
    rng = random.Random(seed)
    steps = [0]
    for j in range(1, slope.up_count + 1):
        steps.append(rng.randint(steps[-1] + 1, slope.step_bound(j)))
    return RationalDyckPath(slope, tuple(steps[1:]))


@pytest.mark.parametrize(
    "a,b,n,uniform",
    [(2, 3, 2000, 0), (3, 5, 1000, 0), (3, 2, 2000, 0), (5, 3, 800, 0),
     (2, 3, 60, 40), (3, 5, 30, 40)],
)
def test_closure_count_holds_on_every_call_mat_makes(a, b, n, uniform, monkeypatch):
    # the closure count, which admissible leaves out, holds on every call
    # mat makes on these paths, so it decides none of them (at a = 1 it is
    # implied: mat makes one call per entry, and that call accepts)
    slope = Slope(a, b, n)
    if uniform:
        rng = random.Random(a * 1000 + b * 100 + n + 6)
        paths = [uniform_path(slope, rng) for _ in range(uniform)]
    else:
        paths = [step_bound_path(slope, 1)]
    for p in paths:
        minima = []
        calls = recorded_calls(p, monkeypatch)
        for cand, built, verdict in calls:
            assert built == len(minima)
            assert closure_count(slope, cand, minima), (p, cand)
            if verdict:
                insort(minima, min(cand))
        assert len(minima) == slope.up_count
        assert any(not verdict for *_, verdict in calls)


@pytest.mark.parametrize("a,b,n", [(1, 1, 6), (1, 2, 4), (2, 3, 3), (3, 5, 2)])
def test_a_wrong_block_choice_is_an_invariant_error(a, b, n, monkeypatch, capsys):
    # with the nearest free position skipped wherever the pool is large
    # enough, mat builds blocks the valley sequence does not ask for: the
    # forced-size arithmetic or the final round trip must report a broken
    # invariant, never crash on a block that cannot close
    walk = matching_map._walk

    def skipping(link, keys, start, width):
        pool, x = 1, link[start]
        while x != start:
            pool, x = pool + 1, link[x]
        if pool <= width + 1:
            return walk(link, keys, start, width)
        skipped = list(link)
        skipped[start] = link[link[start]]
        return walk(skipped, keys, start, width)

    monkeypatch.setattr(matching_map, "_walk", skipping)
    slope = Slope(a, b, n)
    broken = []
    for p in enumerate_paths(slope):
        try:
            q = mat(p)
        except InvariantError:
            broken.append(p)
        else:
            assert mat_inverse(q) == p, p
    assert broken
    code = main(["apply", "--map", "mat", "--a", str(a), "--b", str(b), "--n", str(n),
                 "--path", broken[0].steps_str()])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert out.err.startswith("internal error: ") and len(out.err.splitlines()) == 1


def test_a_wrong_selection_in_mat_inverse_is_an_invariant_error(monkeypatch, capsys):
    # every argument of mat_inverse is a validated path and mat is onto, so
    # selections that fit no path are a defect: with the keys reversed each
    # block selects its lowest position, and the CLI must exit 3, not 2
    tables = matching_map._slope_tables

    def reversed_keys(slope):
        ups, keys = tables(slope)
        return ups, tuple(-k for k in keys)

    monkeypatch.setattr(matching_map, "_slope_tables", reversed_keys)
    broken = []
    for p in enumerate_paths(Slope(1, 2, 4)):
        try:
            mat_inverse(p)
        except InvariantError:
            broken.append(p)
    assert broken
    code = main(["apply", "--map", "mat-inverse", "--a", "1", "--b", "2", "--n", "4",
                 "--path", broken[0].steps_str()])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert out.err.startswith("internal error: ") and len(out.err.splitlines()) == 1


@pytest.mark.parametrize("a,b,n", [(2, 3, 8), (3, 5, 5)])
def test_table_replay_across_entries(a, b, n):
    # every cyclic prefix before every entry of a uniform path, where the
    # built blocks nest deepest
    slope = Slope(a, b, n)
    rng = random.Random(a * 1000 + b * 100 + n + 2)
    for _ in range(3):
        p = uniform_path(slope, rng)
        for built, _ in mat_entries(p):
            used = {x for blk in built for x in blk}
            for cand in cyclic_prefixes(free_pool(slope, used)):
                assert_necessary(slope, cand, built)


def test_grow_sequence_matches_linear_loop():
    rng = random.Random(20261018)
    for _ in range(300):
        pool = set(rng.sample(range(1, 61), rng.randint(1, 30)))
        start = rng.choice(sorted(pool))
        for increasing in (True, False):
            assert _grow_sequence(start, pool, increasing) == grow_sequence_reference(
                start, pool, increasing
            )


def test_cyclic_prefix_matches_whole_sequence():
    # mat walks only the first min(b + 1, len) positions of the cyclic
    # order; pools shorter than b + 1 and starts near either end wrap.  Keys
    # that put every start on top let the walk run its full width
    rng = random.Random(20261019)
    for _ in range(400):
        pool = sorted(rng.sample(range(1, 41), rng.randint(1, 12)))
        b = rng.randint(1, 8)
        size = min(b + 1, len(pool))
        after, before = ring(pool), ring(pool[::-1])
        for i, start in enumerate(pool):
            keys = [0] * 41
            keys[start] = 1
            for increasing in (True, False):
                whole = _grow_sequence(start, set(pool), increasing)[:size]
                link = after if increasing else before
                assert _walk(link, keys, start, size) == whole, (pool, start, b, increasing)
                assert cyclic_prefix_reference(pool, i, size, increasing) == whole


@pytest.mark.parametrize("a,b,n", SLOPES)
def test_single_window_candidates(a, b, n):
    # the lemma behind settling a span of 1 + floor(b/a) positions without a
    # parse: every candidate in every such span, with no blocks built and
    # with the blocks built before each entry of three paths
    slope = Slope(a, b, n)
    span = 1 + b // a
    assert _slope_tables(slope)[0][span] == 1
    rng = random.Random(a * 100 + b * 10 + n)
    layouts = [()] + [
        built
        for p in rng.sample(list(enumerate_paths(slope)), 3)
        for _, built, _ in reference_entries(p)
    ]
    for built in layouts:
        used = {x for block in built for x in block}
        for lo in range(1, slope.total_steps - span + 2):
            hi = lo + span - 1
            inner = [x for x in range(lo + 1, hi) if x not in used]
            if lo in used or hi in used:
                continue
            for k in range(len(inner) + 1):
                for middle in itertools.combinations(inner, k):
                    cand = [lo, *middle, hi] if hi > lo else [lo]
                    assert admissible(slope, cand) == admissible_reference(
                        slope, cand, built
                    ), (cand, built)


def test_representing_length_matches_prefix_scan():
    # (3,2) and (5,3) give barred positions of equal height, where the
    # entry must lose the tie
    rng = random.Random(7)
    for a, b, n in [(1, 2, 4), (3, 2, 3), (5, 3, 2)]:
        slope = Slope(a, b, n)
        keys = _slope_tables(slope)[1]
        for _ in range(200):
            seq = rng.sample(range(1, slope.total_steps + 1), rng.randint(1, slope.total_steps))
            longest = max(
                size for size in range(1, len(seq) + 1)
                if represents_reference(slope, seq[0], seq[:size])
            )
            assert _walk(ring(seq), keys, seq[0], len(seq)) == seq[:longest]
            assert representing_length_reference(keys, seq) == longest


# -- partitions and chains --------------------------------------------------


def noncrossing_reference(blocks):
    """No two elements of one block separate two elements of another."""
    for b1, b2 in itertools.combinations(blocks, 2):
        for i, k in itertools.combinations(b1, 2):
            if any(i < j < k for j in b2) and any(l < i or l > k for l in b2):
                return False
    return True


def set_partitions(n):
    """Every set partition of [1, n], as the walk that puts x into each open
    block and then into a new one; blocks sorted, ordered by minimum."""

    def rec(partial, x):
        if x > n:
            yield tuple(tuple(b) for b in partial)
            return
        for b in partial:
            b.append(x)
            yield from rec(partial, x + 1)
            b.pop()
        partial.append([x])
        yield from rec(partial, x + 1)
        partial.pop()

    return rec([], 1)


@pytest.mark.parametrize("n", range(0, 9))
def test_stack_scan_matches_pairwise_check(n):
    for blocks in set_partitions(n):
        assert (broken_block_rule(blocks, n) == 0) == noncrossing_reference(blocks), blocks


def enumerate_ncps_reference(n):
    """The non-crossing set partitions of [1, n], in the walk's order."""
    return tuple(ncp(n, b) for b in set_partitions(n) if noncrossing_reference(b))


@pytest.mark.parametrize("n", range(0, 10))
def test_enumerate_ncps_matches_set_partition_walk(n):
    assert enumerate_ncps(n) == enumerate_ncps_reference(n)


@pytest.mark.parametrize("n", range(0, 12))
def test_enumerate_ncps_counts_catalan(n):
    # uncached, so the largest tables do not outlive the test
    assert len(enumerate_ncps.__wrapped__(n)) == math.comb(2 * n, n) // (n + 1)


@pytest.mark.parametrize("n,k", [*((n, 2) for n in range(1, 8)), *((n, 3) for n in range(1, 7))])
def test_enumerate_chains_counts_fuss_catalan(n, k):
    # the k-chains of [1, n] number C((k+1)n, n)/(kn+1): 7,752 at (7,2)
    assert len(enumerate_chains.__wrapped__(n, k)) == math.comb((k + 1) * n, n) // (k * n + 1)


def enumerate_chains_reference(n, k):
    parts = enumerate_ncps(n)
    finer = {p: [q for q in parts if q.refines(p)] for p in parts}
    out = []

    def rec(acc):
        if len(acc) == k:
            out.append(NonCrossingChain(k, tuple(acc)))
            return
        for q in finer[acc[-1]]:
            rec(acc + [q])

    for p in parts:
        rec([p])
    return tuple(out)


@pytest.mark.parametrize(
    "n,k",
    [(n, 1) for n in range(1, 8)] + [(n, 2) for n in range(1, 8)] + [(n, 3) for n in range(1, 7)],
)
def test_enumerate_chains_matches_refinement_table(n, k):
    assert enumerate_chains(n, k) == enumerate_chains_reference(n, k)


def _increment(u):
    if len(u) == 1:
        return u
    if u[0] != 1 or u[1] <= 2:
        raise InvariantError(f"cannot shift up steps of {u}")
    return (1,) + tuple(x - 1 for x in u[1:])


def _glue(children, k):
    """Splice child paths at slot boundaries; children sorted by minimum."""
    elems = []
    u = ()
    for ce, cu in children:
        if not elems:
            elems, u = list(ce), cu
            continue
        i = sum(1 for e in elems if e < ce[0])
        pos = (k + 1) * i
        width = (k + 1) * len(ce)
        u = (
            tuple(x for x in u if x <= pos)
            + tuple(x + pos for x in cu)
            + tuple(x + width for x in u if x > pos)
        )
        elems = sorted(elems + ce)
    return elems, u


def _build_block(block, chain, t):
    k = chain.k
    if t == k:
        children = [[x] for x in block]
    else:
        layer = chain.layers[t]  # the (t+1)-th layer
        children = [list(b) for b in layer.blocks if set(b) <= set(block)]
    parts = []
    for child in sorted(children, key=lambda c: c[0]):
        if t == k:
            parts.append((child, (1,)))
        else:
            parts.append((child, _build_block(tuple(child), chain, t + 1)[1]))
    elems, u = _glue(parts, k)
    return elems, _increment(u)


def ncp_to_dyck_reference(chain):
    """The path of each block glues its sub-blocks' paths, spliced at the
    slot of each one's rank among the elements already placed, then shifts
    every up step after the first one position earlier."""
    parts = [(list(b), _build_block(b, chain, 1)[1]) for b in chain.layers[0].blocks]
    _, u = _glue(parts, chain.k)
    return RationalDyckPath(Slope(1, chain.k, chain.n), u)


@pytest.mark.parametrize(
    "n,k", [(n, 1) for n in range(1, 9)] + [(n, k) for k in (2, 3) for n in range(1, 7)]
)
def test_ncp_to_dyck_matches_splice(n, k):
    for c in enumerate_chains(n, k):
        assert ncp_to_dyck(c) == ncp_to_dyck_reference(c), c


def random_ncp_blocks(elems, rng):
    """A random non-crossing partition of the sorted ``elems``: each element
    joins one of the blocks it can join without a crossing (those on the
    stack), closing the blocks above it, or opens a new one."""
    blocks, stack = [], []
    for x in elems:
        i = rng.randrange(len(stack) + 1)
        if i < len(stack):
            del stack[i + 1:]
            stack[i].append(x)
        else:
            stack.append([x])
            blocks.append(stack[-1])
    return blocks


@pytest.mark.parametrize("n,k", [(n, k) for n in (100, 400) for k in (1, 2, 3)])
def test_ncp_to_dyck_matches_splice_on_random_chains(n, k):
    rng = random.Random(n * 10 + k)
    for _ in range(5):
        c = random_chain(n, k, rng)
        assert ncp_to_dyck(c) == ncp_to_dyck_reference(c), c


def random_chain(n, k, rng):
    """A random k-chain of [1, n], refined block by block as
    ``enumerate_chains`` does."""
    layers = [ncp(n, random_ncp_blocks(range(1, n + 1), rng))]
    for _ in range(k - 1):
        layers.append(ncp(n, [c for b in layers[-1].blocks for c in random_ncp_blocks(b, rng)]))
    return NonCrossingChain(k, tuple(layers))


def kre_inverse_reference(chain):
    """kre has order 2n on chains of [1, n] (kre² = rot), so kre^(2n-1)."""
    for _ in range(2 * chain.n - 1):
        chain = kre(chain)
    return chain


@pytest.mark.parametrize("n,k", [(n, k) for k in (1, 2) for n in range(1, 8)])
def test_kre_inverse_matches_iterated_kre(n, k):
    # the scope shares kre's images along each orbit, so the iterated form
    # costs about one kre per chain
    with image_scope():
        for c in enumerate_chains(n, k):
            assert kre_inverse(c) == kre_inverse_reference(c), c


def test_kre_inverse_along_a_long_orbit():
    # quadruples 4i+1..4i+4 refined into nested pairs, 40 elements
    coarse = ncp(40, [range(i, i + 4) for i in range(1, 41, 4)])
    fine = ncp(40, [pair for i in range(1, 41, 4) for pair in ((i, i + 3), (i + 1, i + 2))])
    c = NonCrossingChain(2, (coarse, fine))
    for _ in range(80):
        assert kre_inverse(c) == kre_inverse_reference(c), c
        c = kre(c)


# -- block validation -------------------------------------------------------


def block_check_reference(blocks, n):
    """The first rule broken, by four separate checks in the order the
    constructors report them: partition, sorted, ordered, non-crossing."""
    elems = sorted(x for b in blocks for x in b)
    if elems != list(range(1, n + 1)):
        return 1
    if any(tuple(sorted(b)) != b for b in blocks):
        return 2
    if any(x[0] >= y[0] for x, y in zip(blocks, blocks[1:])):
        return 3
    if not noncrossing_reference(blocks):
        return 4
    return 0


def block_messages(blocks, n):
    """Each constructor's message for each rule, word for word."""
    return {
        PerfectMatching: (
            "blocks must partition the ground set",
            "block elements must be sorted ascending",
            "blocks must be ordered by minimum",
            f"blocks are crossing: {blocks}",
        ),
        NonCrossingPartition: (
            f"blocks must partition [1,{n}]",
            "block elements must be sorted",
            "blocks must be ordered by minimum",
            f"partition crosses: {blocks}",
        ),
    }


def assert_block_verdicts(blocks, n):
    # An empty block has no minimum, so it breaks the ordering rule.  The
    # separate ordering check crashed reading that minimum, or, given the
    # single block () of [1, 0], had no pair to compare and passed it.
    try:
        want = block_check_reference(blocks, n)
    except IndexError:
        want = 3
    if want == 0 and () in blocks:
        want = 3
    assert broken_block_rule(blocks, n) == want, (blocks, n)
    for cls, messages in block_messages(blocks, n).items():
        if want == 0:
            assert cls(n, blocks).blocks == blocks
        else:
            with pytest.raises(ValueError) as err:
                cls(n, blocks)
            assert str(err.value) == messages[want - 1], (cls, blocks, n)


@pytest.mark.parametrize("n", range(0, 8))
def test_block_rule_matches_separate_checks(n):
    for blocks in set_partitions(n):
        assert_block_verdicts(blocks, n)


def _corruptions(blocks, n):
    """Each way to break one rule: an unsorted block, a duplicate, an
    element out of range, a missing element, misordered blocks, an empty
    block, and a list given as a block."""
    out = []
    for i, b in enumerate(blocks):
        rest = lambda new: blocks[:i] + new + blocks[i + 1:]
        if len(b) > 1:
            out.append(rest((b[::-1],)))
            out.append(rest((b[1:],)))
        else:
            out.append(rest(()))
        for x in (0, -1, n + 1) + b[:1]:
            out.append(rest((tuple(sorted(b + (x,))),)))
        out.append(rest((list(b),)))
        out.append(blocks[:i] + ((),) + blocks[i:])
        for j in range(i + 1, len(blocks)):
            swapped = list(blocks)
            swapped[i], swapped[j] = blocks[j], blocks[i]
            out.append(tuple(swapped))
    return out


@pytest.mark.parametrize("n", range(1, 6))
def test_block_rule_on_malformed_blocks(n):
    # single corruptions, and pairs of them so that the order of the rules
    # is tested where two are broken at once
    for blocks in set_partitions(n):
        for once in _corruptions(blocks, n):
            assert_block_verdicts(once, n)
            if n <= 3:
                for twice in _corruptions(tuple(tuple(b) for b in once), n):
                    assert_block_verdicts(twice, n)
    assert_block_verdicts(((),), 0)


# -- orbit tables -----------------------------------------------------------


def orbit_table_reference(map_name, slope):
    """Every path keyed by its name."""
    m = registry.resolve_path_map(map_name, slope)
    paths = enumerate_paths(slope)
    images = {str(p): m.fn(p) for p in paths}
    if len({str(q) for q in images.values()}) != len(paths):
        seen = {}
        for src, img in images.items():
            if str(img) in seen:
                raise ValueError(
                    f"map {map_name!r} is not bijective on ({slope.a},{slope.b}) n={slope.n}: "
                    f"{seen[str(img)]} and {src} both map to {img}"
                )
            seen[str(img)] = src
    cycles = []
    done = set()
    for p in paths:
        if str(p) in done:
            continue
        cyc = [str(p)]
        q = images[str(p)]
        while str(q) != str(p):
            cyc.append(str(q))
            q = images[str(q)]
        done.update(cyc)
        cycles.append(cyc)
    cycles.sort(key=lambda c: c[0])
    return cycles


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.mark.parametrize("a,b,n", [
    (1, 1, 5), (1, 2, 3), (2, 3, 2), (3, 2, 2), (1, 1, 7), (1, 3, 3), (2, 5, 2),
])
def test_orbit_table_matches_name_keyed_walk(a, b, n):
    # (1,1,7) and (2,5,2) have up steps at positions 10 and up, so names
    # built from the digit table and their sort ("1,10,..." before
    # "1,2,...") are checked against str(p); (1,3,3) tops out at 9.  The
    # indexed toggles are built by resolve_path_map, not listed in
    # PATH_MAPS, and their indices run one past each end
    slope = Slope(a, b, n)
    region = rowmotion_module.box_region(slope)
    names = [name for name, m in registry.PATH_MAPS.items() if m.applies(slope)]
    names += [f"toggle:{i}" for i in range(slope.total_steps + 1)]
    names += [f"rank-toggle:{r}" for r in range(region.min_rank - 1, region.max_rank + 2)]
    for name in names:
        got = _outcome(registry.orbit_table, name, slope)
        assert got == _outcome(orbit_table_reference, name, slope), name


def test_orbit_table_names_the_first_collision(monkeypatch):
    slope = Slope(1, 1, 4)
    paths = enumerate_paths(slope)
    # the last path and every path from the third on collapse to the third
    squash = lambda p: p if p in paths[:2] else paths[2]
    monkeypatch.setitem(registry.PATH_MAPS, "promotion", registry.PathMap("promotion", squash))
    message = (
        "map 'promotion' is not bijective on (1,1) n=4: "
        f"{paths[2]} and {paths[3]} both map to {paths[2]}"
    )
    with pytest.raises(ValueError) as err:
        registry.orbit_table("promotion", slope)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        orbit_table_reference("promotion", slope)
    assert str(err.value) == message


def path_from_peaks_reference(n, peaks):
    word = []
    cx = cy = 0
    for x, y in peaks:
        if x < cx or y <= cy:
            raise ValueError(f"peaks are not increasing: {peaks}")
        word.append("R" * (x - cx) + "U" * (y - cy))
        cx, cy = x, y
    word.append("R" * (n - cx))
    return path_from_word(Slope(1, 1, n), "".join(word))


def corners_reference(p, first, second):
    """The vertices between a `first` step and a `second` step: peaks for
    U then R, valleys for R then U."""
    word = p.word
    verts = p.vertices()
    return [verts[i] for i in range(1, len(word)) if word[i - 1] == first and word[i] == second]


def reflect_reference(n, word):
    return path_from_word(Slope(1, 1, n), word.translate(str.maketrans("UR", "RU")))


def e_v_reference(w):
    n = w.n
    required = [(x - 1, y + 1) for x, y in corners_reference(e_p(w), "R", "U")]
    peaks = []
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
    return path_from_peaks_reference(n, peaks)


def e_q_reference(w):
    n = w.n
    word = []
    cx = cy = 0
    for x, y in [(i - 1, v) for i, v in enumerate(w.values, start=1) if v < i]:
        word.append("R" * (x - cx) + "U" * (y - cy))
        cx, cy = x, y
    word.append("R" * (n - cx) + "U" * (n - cy))
    return reflect_reference(n, "".join(word))


def e_w_reference(w):
    n = w.n
    valleys = sorted((i, v - 1) for i, v in enumerate(w.values, start=1) if v <= i)
    assert valleys[0][1] == 0
    word = ["R" * valleys[0][0]]
    for (cx, cy), (x, y) in zip(valleys, valleys[1:]):
        word.append("U" * (y - cy) + "R" * (x - cx))
    word.append("U" * (n - valleys[-1][1]))
    return reflect_reference(n, "".join(word))


def rsk_hat_reference(w):
    n = w.n
    insertion, recording = rsk_two_row(w)
    letters = [""] * (2 * n)
    for i in range(1, n + 1):
        letters[i - 1] = "U" if i in insertion[0] else "R"
        letters[2 * n - i] = "R" if i in recording[0] else "U"
    return path_from_word(Slope(1, 1, n), "".join(letters))


def assert_grid_paths(p):
    n = p.slope.n
    peaks = _peaks(p)
    assert peaks == corners_reference(p, "U", "R")
    assert _path_from_peaks(n, peaks) == path_from_peaks_reference(n, peaks) == p
    w = e_p_inverse(p)
    assert e_p(w) == p
    assert e_v(w) == e_v_reference(w)
    assert e_q(w) == e_q_reference(w)
    assert e_w(w) == e_w_reference(w)
    assert rsk_hat(w) == rsk_hat_reference(w)


@pytest.mark.parametrize("n", range(1, 10))
def test_grid_paths_match_word_builders(n):
    for p in enumerate_paths(Slope(1, 1, n)):
        assert_grid_paths(p)


@pytest.mark.parametrize("n", [200, 1000])
def test_grid_paths_match_word_builders_on_random_paths(n):
    rng = random.Random(n)
    for _ in range(5):
        assert_grid_paths(random_path(Slope(1, 1, n), rng))


def test_path_from_peaks_rejects_unordered_peaks():
    for peaks in ([(1, 2), (0, 3)], [(0, 2), (1, 2)]):
        with pytest.raises(ValueError, match="peaks are not increasing"):
            _path_from_peaks(3, peaks)
        with pytest.raises(ValueError, match="peaks are not increasing"):
            path_from_peaks_reference(3, peaks)


def is_321_avoiding_reference(values):
    """No value has a larger value before it and a smaller value after it."""
    prefix_max = 0
    for i, v in enumerate(values):
        if prefix_max > v and any(w < v for w in values[i + 1 :]):
            return False
        prefix_max = max(prefix_max, v)
    return True


@pytest.mark.parametrize("n", range(1, 8))
def test_linear_321_rule_matches_pairwise_scan(n):
    for perm in itertools.permutations(range(1, n + 1)):
        for k in range(n + 1):
            assert _is_321_avoiding(perm[:k]) == is_321_avoiding_reference(perm[:k])


def rsk_two_row_reference(w):
    """Row insertion that scans each row from the left for the bumped entry."""
    insertion, recording = [[], []], [[], []]
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


def test_rsk_two_row_matches_row_scan():
    for n in range(1, 9):
        for w in enumerate_321_avoiding(n):
            assert rsk_two_row(w) == rsk_two_row_reference(w)
    rng = random.Random(2000)
    for _ in range(5):
        w = e_p_inverse(random_path(Slope(1, 1, 2000), rng))
        assert rsk_two_row(w) == rsk_two_row_reference(w)
