"""Named map registry, identity registry, and the verification engine.

Each identity is a row: a domain (the paths of a slope, its chains of
non-crossing partitions, or its 321-avoiding permutations) and two sides,
one-argument functions of an object of that domain.  The identity holds
when both sides are equal on every object; a predicate row has the constant
``True`` as its right side, and a compound row compares tuples.  Slope
parameters come from the object (``p.slope.b``, ``c.n``).  ``verify`` runs
a row over its domain and reports each counterexample with both sides, as
``object: lhs=… rhs=…``, instead of raising.

A side calls every map through its module at call time (``lambda p:
mt.pm(p)``, never a captured ``mt.pm``), so that patching a module binding
reaches the identities too.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, pairwise
from typing import Callable

from . import matching_map as mm
from . import matchings as mt
from . import noncrossing as nc
from . import paths as pa
from . import perms as pe
from . import promotion as pr
from . import rowmotion as rw
from . import tilings as ti
from .paths import RationalDyckPath, Slope


# ---------------------------------------------------------------------------
# Map registry (path maps and chain maps for the CLI)


@dataclass(frozen=True)
class PathMap:
    name: str
    fn: Callable[[RationalDyckPath], RationalDyckPath]
    inverse: Callable[[RationalDyckPath], RationalDyckPath] | None = None
    applies: Callable[[Slope], bool] = lambda s: True


def _unit_a(s: Slope) -> bool:
    return s.a == 1


def _classical(s: Slope) -> bool:
    return (s.a, s.b) == (1, 1)


PATH_MAPS: dict[str, PathMap] = {}
CHAIN_MAPS: dict[str, tuple[Callable, Callable | None]] = {
    "rot": (nc.rot, nc.rot_inverse),
    "ref": (nc.ref, nc.ref),
    "kre": (nc.kre, nc.kre_inverse),
    "su": (nc.su, nc.su),
    "lk": (nc.lk, nc.lk),
    "lift": (nc.lift, None),
}


def _register_path_maps() -> None:
    def add(name, fn, inverse=None, applies=lambda s: True):
        PATH_MAPS[name] = PathMap(name, fn, inverse, applies)

    add("promotion", pr.promotion, pr.dual_promotion)
    add("dual-promotion", pr.dual_promotion, pr.promotion)
    add("evacuation", pr.evacuation_fast, pr.evacuation_fast)
    add("dual-evacuation", pr.dual_evacuation_fast, pr.dual_evacuation_fast)
    add("rowmotion", rw.rowmotion, rw.rowmotion_inverse)
    add("rowvacuation", rw.rowvacuation, rw.rowvacuation)
    add("dual-rowvacuation", rw.dual_rowvacuation, rw.dual_rowvacuation)
    add("mat", mm.mat, mm.mat_inverse)
    add("mat-inverse", mm.mat_inverse, mm.mat)
    add("rsk", ti.rsk_hat_path, ti.rsk_hat_inverse, _unit_a)
    add("rsk-inverse", ti.rsk_hat_inverse, ti.rsk_hat_path, _unit_a)
    add("dyck1", pe.dyck1, rw.rowmotion_inverse, _classical)
    add("dyck2", pe.dyck2, pe.dyck2, _classical)
    add("dyck3", pe.dyck3, pe.dyck3, _classical)
    for cname, (cfn, cinv) in CHAIN_MAPS.items():
        inv = partial(nc.transport, cinv) if cinv else None
        add(cname, partial(nc.transport, cfn), inv, _unit_a)


_register_path_maps()


def resolve_path_map(name: str, slope: Slope) -> PathMap:
    kind, colon, index = name.partition(":")
    if colon and kind in ("toggle", "rank-toggle"):
        # ASCII digits only, as in every literal: int() also reads "1_0",
        # "+2", " 2" and non-ASCII digits; rank indices go below 0 when a > b
        if not re.fullmatch(r"-?[0-9]+", index):
            raise ValueError(f"map {name!r} needs an integer index, got {index!r}")
        i = int(index)
        kernel = pr.toggle if kind == "toggle" else rw.rank_toggle
        fn = lambda p: kernel(i, p)
        return PathMap(name, fn, fn)
    try:
        m = PATH_MAPS[name]
    except KeyError:
        raise KeyError(f"unknown map {name!r}; known: {sorted(PATH_MAPS)}") from None
    if not m.applies(slope):
        raise ValueError(f"map {name!r} is not defined for slope ({slope.a},{slope.b})")
    return m


# ---------------------------------------------------------------------------
# Identity registry


@dataclass
class VerificationReport:
    identity: str
    a: int
    b: int
    n: int
    domain_size: int
    status: str
    counterexamples: list[str] = field(default_factory=list)
    seconds: float = 0.0
    expected: str = "pass"

    @property
    def ok(self) -> bool:
        return self.status == self.expected

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "a": self.a,
            "b": self.b,
            "n": self.n,
            "domain": self.domain_size,
            "status": self.status,
            "expected": self.expected,
            "counterexamples": self.counterexamples,
            "seconds": round(self.seconds, 3),
        }


@dataclass(frozen=True)
class Identity:
    name: str
    summary: str
    check: Callable[[Slope], tuple[int, list[str]]]
    applies: Callable[[Slope], bool] = lambda s: True
    expected_pass: Callable[[Slope], bool] = lambda s: True
    max_n: Callable[[Slope], int] = lambda s: 99
    # what ``check`` walks, for the CLI's domain guard: a noun and a count
    # for each kind of object
    walks: tuple[tuple[str, Callable[[Slope], int]], ...] = (("paths", pa.count_paths),)


IDENTITIES: dict[str, Identity] = {}

# The three domains of the rows.
_paths = lambda s: pa.enumerate_paths(s)
_chains = lambda s: nc.enumerate_chains(s.n, s.b)
_perms = lambda s: pe.enumerate_321_avoiding(s.n)


def _show(side) -> str:
    if isinstance(side, tuple):
        return "(" + ", ".join(str(x) for x in side) + ")"
    return str(side)


def _sides(domain, lhs, rhs) -> Callable[[Slope], tuple[int, list[str]]]:
    """The check of a row: both sides on every object of the domain.  Each of
    the first ten objects where they differ is reported with both sides.  A
    constant ``rhs`` (``True`` for a predicate) stands for itself."""
    rhs_of = rhs if callable(rhs) else lambda x: rhs

    def check(slope: Slope) -> tuple[int, list[str]]:
        objects = domain(slope)
        bad = []
        for x in objects:
            left, right = lhs(x), rhs_of(x)
            if left != right:
                bad.append(f"{x}: lhs={_show(left)} rhs={_show(right)}")
                if len(bad) >= 10:
                    break
        return len(objects), bad

    return check


def _ident(name, summary, domain, lhs, rhs, **options) -> None:
    IDENTITIES[name] = Identity(name, summary, _sides(domain, lhs, rhs), **options)


# -- counting and encodings -------------------------------------------------


# ``_count_check`` enumerates a slope only up to this many paths
_ENUMERATED = 200_000


def _count_check(s: Slope) -> tuple[int, list[str]]:
    formula = pa.count_paths(s)
    dp = pa.count_paths_dp(s)
    bad = []
    if formula != dp:
        bad.append(f"formula={formula} dp={dp}")
    if dp <= _ENUMERATED and (enumerated := len(pa.enumerate_paths(s))) != dp:
        bad.append(f"enumeration={enumerated} dp={dp}")
    return dp, bad


def _enumerated(s: Slope) -> int:
    """The paths ``_count_check`` materializes: all of them up to
    ``_ENUMERATED``, else none.  The count is at least the one-block term
    C((a+b)n, an)/((a+b)n) of Bizley's sum, so past that bound the paths
    are not counted, and the guard's sweep over the sizes stays cheap."""
    a, b, n = s.a, s.b, s.n
    if math.comb((a + b) * n, a * n) > _ENUMERATED * (a + b) * n:
        return 0
    count = pa.count_paths(s)
    return count if count <= _ENUMERATED else 0


def _lattice_points(s: Slope) -> int:
    """The points of the (bn+1) x (an+1) grid that ``count_paths_dp`` fills,
    each with an integer of up to about (a+b)n bits."""
    return (s.b * s.n + 1) * (s.a * s.n + 1)


def _word_count(s: Slope) -> int:
    return math.comb(s.total_steps, s.up_count)


def _bound_check(s: Slope) -> tuple[int, list[str]]:
    bad = []
    for word in pa.enumerate_words(s):
        try:
            pa.RationalDyckPath(s, word)
            accepted = True
        except ValueError:
            accepted = False
        if accepted != (above := pa.word_above_line(s, word)):
            bad.append(f"{','.join(map(str, word))}: lhs={accepted} rhs={above}")
            if len(bad) >= 10:
                break
    return _word_count(s), bad


IDENTITIES["count-enumeration"] = Identity(
    "count-enumeration", "Bizley-recurrence count equals the lattice DP count "
    "and the materialized enumeration on moderate domains", _count_check,
    walks=(("lattice points", _lattice_points), ("paths", _enumerated)))
IDENTITIES["step-bound-geometry"] = Identity(
    "step-bound-geometry", "the step-position bound and the geometric "
    "above-the-line test agree on every candidate word", _bound_check,
    max_n=lambda s: 3 if s.a * s.b == 1 else 2,
    walks=(("words", _word_count),))

_ident("young-roundtrip", "region rows determine the path and vice versa", _paths,
       lambda p: pa.path_from_young_rows(p.slope, pa.young_rows(p)), lambda p: p)
_ident("star-involution", "row exchange is an involution onto the transposed slope", _paths,
       lambda p: (pa.star(pa.star(t := pa.to_tableau(p))), pa.star(t).slope),
       lambda p: (pa.to_tableau(p), p.slope.transpose()))
_ident("tableau-roundtrip", "two-row tableau round trip", _paths,
       lambda p: pa.from_tableau(pa.to_tableau(p)), lambda p: p)
_ident("prime-endpoints", "prime paths touch the boundary line only at the ends", _paths,
       lambda p: pa.is_prime(p),
       lambda p: sum(1 for x, y in p.vertices() if p.slope.b * y == p.slope.a * x) == 2)


# -- matchings ----------------------------------------------------------------


def _noncrossing(blocks) -> bool:
    """A pairwise check, independent of the constructor's stack scan: no
    block has elements i < k with another block both inside and outside
    (i, k)."""
    return not any(
        any(i < j < k for j in b2) and any(l < i or l > k for l in b2)
        for b1, b2 in combinations(blocks, 2)
        for i, k in combinations(b1, 2)
    )


_ident("pm-roundtrip", "block minima recover the path", _paths,
       lambda p: mt.pm_inverse(mt.pm(p), p.slope), lambda p: p)
_ident("pm-noncrossing", "matching blocks never cross", _paths,
       lambda p: _noncrossing(mt.pm(p).blocks), True)
_ident("pm-block-size", "matching blocks of a (1,k)-path all have k+1 elements", _paths,
       lambda p: {len(b) for b in mt.pm(p).blocks}, lambda p: {p.slope.b + 1},
       applies=_unit_a)
_ident("pm-singleton-block", "matchings of steep paths contain a singleton block", _paths,
       lambda p: min(len(b) for b in mt.pm(p).blocks), 1, applies=lambda s: s.a > s.b)
_ident("bar-involution", "the bar relabeling is an involution", _paths,
       lambda p: mt.bar(mt.bar(mt.pm(p))), lambda p: mt.pm(p))
_ident("rotate-order", "rotating (a+b)n times is the identity", _paths,
       lambda p: pa.iterate(mt.rotate, None, mt.pm(p), p.slope.total_steps),
       lambda p: mt.pm(p))
_ident("pm-rot", "the matching of the promoted path is the rotated matching", _paths,
       lambda p: mt.pm(pr.promotion(p)), lambda p: mt.rotate(mt.pm(p)),
       expected_pass=_unit_a)
_ident("pm-ev-bar", "the matching of the evacuated path is the barred matching", _paths,
       lambda p: mt.pm(pr.evacuation_fast(p)), lambda p: mt.bar(mt.pm(p)))
_ident("dpm-equals-pm", "the dual matching coincides with the matching classically", _paths,
       lambda p: mt.dpm(p), lambda p: mt.pm(p), applies=_classical)


# -- promotion/evacuation -----------------------------------------------------


_ident("toggle-involution", "every toggle is an involution", _paths,
       lambda p: all(pr.toggle(i, pr.toggle(i, p)) == p for i in range(1, p.slope.total_steps)),
       True, max_n=lambda s: 4)
_ident("promotion-inverse", "dual promotion inverts promotion", _paths,
       lambda p: (pr.dual_promotion(pr.promotion(p)), pr.promotion(pr.dual_promotion(p))),
       lambda p: (p, p))
_ident("evacuation-involution", "evacuation squares to the identity", _paths,
       lambda p: pr.evacuation(pr.evacuation(p)), lambda p: p)
_ident("dual-evacuation-involution", "dual evacuation squares to the identity", _paths,
       lambda p: pr.dual_evacuation(pr.dual_evacuation(p)), lambda p: p)
_ident("promotion-order", "promotion to the (a+b)n equals both evacuations composed", _paths,
       lambda p: pa.iterate(pr.promotion, pr.dual_promotion, p, p.slope.total_steps),
       lambda p: pr.dual_evacuation_fast(pr.evacuation_fast(p)))
_ident("evacuation-promotion-conjugate", "evacuation conjugates promotion to its inverse",
       _paths, lambda p: pr.evacuation_fast(pr.promotion(p)),
       lambda p: pr.dual_promotion(pr.evacuation_fast(p)))
_ident("dual-evacuation-star", "dual evacuation is star-conjugated evacuation", _paths,
       lambda p: pr.dual_evacuation_fast(p), lambda p: pr.dual_evacuation_by_star(p))
_ident("fast-evacuation", "toggle evacuation equals the matching-maxima formula", _paths,
       lambda p: pr.evacuation(p), lambda p: pr.evacuation_fast(p))
_ident("fast-dual-evacuation", "toggle dual evacuation equals the dual-matching formula",
       _paths, lambda p: pr.dual_evacuation(p), lambda p: pr.dual_evacuation_fast(p))
_ident("ev-star", "evacuation is the star map classically", _paths,
       lambda p: (pr.evacuation_fast(p), pr.dual_evacuation_fast(p)),
       lambda p: (pa.star_path(p), pa.star_path(p)), applies=_classical)


# -- rowmotion ----------------------------------------------------------------


def _ranks(s: Slope) -> range:
    region = rw.box_region(s)
    return range(region.min_rank, region.max_rank + 1)


def _rowmotion_order(s: Slope) -> int:
    """The rank span plus two, or 0 on an empty region."""
    ranks = _ranks(s)
    return len(ranks) + 1 if ranks else 0


_ident("rank-toggle-involution", "every rank toggle is an involution", _paths,
       lambda p: all(rw.rank_toggle(r, rw.rank_toggle(r, p)) == p for r in _ranks(p.slope)),
       True, max_n=lambda s: 4)
_ident("rowmotion-structural", "toggle rowmotion equals the filter-complement oracle",
       _paths, lambda p: rw.rowmotion(p), lambda p: rw.rowmotion_structural(p))
_ident("rowmotion-roundtrip", "rowmotion composed with its inverse sweep is trivial",
       _paths, lambda p: rw.rowmotion_inverse(rw.rowmotion(p)), lambda p: p)
_ident("rowvacuation-involution", "rowvacuation squares to the identity", _paths,
       lambda p: rw.rowvacuation(rw.rowvacuation(p)), lambda p: p)
_ident("dual-rowvacuation-involution", "dual rowvacuation squares to the identity", _paths,
       lambda p: rw.dual_rowvacuation(rw.dual_rowvacuation(p)), lambda p: p)
_ident("rowvacuation-rowmotion-conjugate", "rowvacuation conjugates rowmotion to its inverse",
       _paths, lambda p: rw.rowvacuation(rw.rowmotion(p)),
       lambda p: rw.rowmotion_inverse(rw.rowvacuation(p)))
_ident("dual-rowvacuation-rowmotion-conjugate",
       "dual rowvacuation conjugates rowmotion to its inverse", _paths,
       lambda p: rw.dual_rowvacuation(rw.rowmotion(p)),
       lambda p: rw.rowmotion_inverse(rw.dual_rowvacuation(p)))
_ident("rowmotion-order-rowvacuation",
       "rowmotion to the rank span plus two equals both rowvacuations composed", _paths,
       lambda p: pa.iterate(rw.rowmotion, rw.rowmotion_inverse, p, _rowmotion_order(p.slope)),
       lambda p: rw.dual_rowvacuation(rw.rowvacuation(p)))
_ident("rowmotion-valley-map", "rowmotion is the valley-peak path map classically", _paths,
       lambda p: rw.rowmotion(p), lambda p: pe.dyck1(p), applies=_classical)
_ident("rowvacuation-lalanne-kreweras",
       "rowvacuation is the two-row grid involution classically", _paths,
       lambda p: rw.rowvacuation(p), lambda p: pe.dyck2(p), applies=_classical)
_ident("dual-rowvacuation-ev-lalanne-kreweras",
       "dual rowvacuation is evacuation after the grid involution classically", _paths,
       lambda p: rw.dual_rowvacuation(p), lambda p: pr.evacuation_fast(pe.dyck2(p)),
       applies=_classical)
_ident("rowmotion-power-evacuation", "rowmotion to the n equals evacuation classically",
       _paths, lambda p: pa.iterate(rw.rowmotion, rw.rowmotion_inverse, p, p.slope.n),
       lambda p: pr.evacuation_fast(p), applies=_classical)


# -- grid permutation maps ----------------------------------------------------


_ident("rothe-roundtrip", "peak extraction and completion invert each other", _perms,
       lambda w: pe.e_p_inverse(pe.e_p(w)), lambda w: w, applies=_classical)
_ident("transpose-path-inverse-permutation",
       "the below-diagonal peak path equals the peak path of the inverse", _perms,
       lambda w: pe.e_w(w), lambda w: pe.e_p(w.inverse()), applies=_classical)
_ident("lalanne-kreweras-involution", "the below-diagonal corner map is an involution",
       _paths, lambda p: pe.dyck2(pe.dyck2(p)), lambda p: p, applies=_classical)
_ident("transpose-map-involution", "the transpose path map is an involution", _paths,
       lambda p: pe.dyck3(pe.dyck3(p)), lambda p: p, applies=_classical)
_ident("rsk-crossing-resolution", "two-row insertion and strand smoothing agree", _perms,
       lambda w: mt.pm(pe.rsk_hat(w)), lambda w: pe.pm_cross(w), applies=_classical)
_ident("rsk-tiling-roundtrip", "the tiling map inverts the insertion path map", _perms,
       lambda w: ti.dt_map(pe.rsk_hat(w)), lambda w: w, applies=_classical)
_ident("rsk-rowmotion", "the insertion path map turns rowmotion into inverse promotion",
       _paths, lambda p: pe.rsk_path(rw.rowmotion(p)),
       lambda p: pr.dual_promotion(pe.rsk_path(p)), applies=_classical)
_ident("rsk-partial-rowvacuation",
       "the insertion path map turns the truncated sweep product into evacuation", _paths,
       lambda p: pe.rsk_path(rw.partial_rowvacuation(p)),
       lambda p: pr.evacuation_fast(pe.rsk_path(p)), applies=_classical)
_ident("rsk-transpose-evacuation",
       "the insertion path map turns the transpose map into evacuation", _paths,
       lambda p: pe.rsk_path(pe.dyck3(p)), lambda p: pr.evacuation_fast(pe.rsk_path(p)),
       applies=_classical)
_ident("rsk-lalanne-kreweras",
       "the insertion path map turns the grid involution into evacuation after "
       "inverse promotion", _paths, lambda p: pe.rsk_path(pe.dyck2(p)),
       lambda p: pr.evacuation_fast(pr.dual_promotion(pe.rsk_path(p))), applies=_classical)
_ident("mat-lalanne-kreweras",
       "the matching map turns the grid involution into evacuation after promotion", _paths,
       lambda p: mm.mat(pe.dyck2(mm.mat_inverse(p))),
       lambda p: pr.evacuation_fast(pr.promotion(p)), applies=_classical)
_ident("rsk-mat-evacuation",
       "the insertion path map is promotion after the matching map after evacuation", _paths,
       lambda p: pe.rsk_path(p), lambda p: pr.promotion(mm.mat(pr.evacuation_fast(p))),
       applies=_classical)
_ident("mat-crossing-evacuation",
       "the matching map is inverse promotion after strand smoothing after evacuation",
       _paths, lambda p: mm.mat(p),
       lambda p: pr.dual_promotion(pe.pm_cross_path(pe.e_p_inverse(pr.evacuation_fast(p)))),
       applies=_classical)
_ident("valley-map-kreweras",
       "the valley-peak map is the inverse complement transported through insertion",
       _paths, lambda p: pe.dyck1(p),
       lambda p: pe.e_p(ti.dt_map(nc.transport(nc.kre_inverse, pe.rsk_path(p)))),
       applies=_classical, max_n=lambda s: 6)
_ident("rowmotion-transpose-simion-ullman",
       "rowmotion after the transpose map matches the boundary involution "
       "transported through insertion", _paths, lambda p: rw.rowmotion(pe.dyck3(p)),
       lambda p: pe.e_p(ti.dt_map(nc.transport(nc.su, pe.rsk_path(p)))),
       applies=_classical, max_n=lambda s: 6)


# -- tilings ------------------------------------------------------------------


_ident("tiling-structure", "every maximal tiling is cover-inclusive and unmergeable",
       _paths, lambda p: (ti.is_cover_inclusive(t := ti.max_tiling(p)), ti.is_maximal(t)),
       (True, True), applies=_unit_a, max_n=lambda s: 5)
_ident("kappa-line-transposition",
       "history-line tile counts equal the transposition inversion counts", _paths,
       lambda p: ti.kappa(p), lambda p: ti.kappa_by_transpositions(p),
       applies=_unit_a, max_n=lambda s: 5)
_ident("rsk-composition-roundtrip",
       "the tiling inverse and the promotion-matching composite invert each other", _paths,
       lambda p: (ti.rsk_hat_path(ti.rsk_hat_inverse(p)), ti.rsk_hat_inverse(ti.rsk_hat_path(p))),
       lambda p: (p, p), applies=_unit_a, max_n=lambda s: 5)
_ident("rsk-inverse-rowmotion", "the tiling inverse turns inverse promotion into rowmotion",
       _paths, lambda p: ti.rsk_hat_inverse(pr.dual_promotion(p)),
       lambda p: rw.rowmotion(ti.rsk_hat_inverse(p)), applies=_unit_a, max_n=lambda s: 5)
_ident("rsk-path-classical",
       "the promotion-matching composite matches the insertion path map classically",
       _paths, lambda p: ti.rsk_hat_path(p), lambda p: pe.rsk_path(p), applies=_classical)


# -- matching map -------------------------------------------------------------


_ident("mat-roundtrip", "the matching map and its inverse are mutually inverse", _paths,
       lambda p: (mm.mat_inverse(mm.mat(p)), mm.mat(mm.mat_inverse(p))), lambda p: (p, p))
_ident("mat-rowmotion", "the matching map turns rowmotion into inverse promotion", _paths,
       lambda p: mm.mat(rw.rowmotion(p)), lambda p: pr.dual_promotion(mm.mat(p)))
_ident("ev-rowvacuation",
       "evacuation is the k-fold inverse rowmotion after rowvacuation, transported", _paths,
       lambda p: pr.evacuation_fast(p),
       lambda p: mm.mat(pa.iterate(rw.rowmotion, rw.rowmotion_inverse,
                                   rw.rowvacuation(mm.mat_inverse(p)), -p.slope.b)),
       applies=_unit_a, max_n=lambda s: 4)
_ident("promotion-power-rowvacuations",
       "a fixed promotion power matches both rowvacuations composed, transported", _paths,
       lambda p: pa.iterate(pr.promotion, pr.dual_promotion, p,
                            -p.slope.n * p.slope.b + p.slope.b - 1),
       lambda p: mm.mat(rw.dual_rowvacuation(rw.rowvacuation(mm.mat_inverse(p)))),
       applies=_unit_a, max_n=lambda s: 4)
_ident("su-rowvacuation", "the boundary involution matches rowvacuation, transported",
       _paths, lambda p: nc.transport(nc.su, p),
       lambda p: mm.mat(pa.iterate(rw.rowmotion, rw.rowmotion_inverse,
                                   rw.rowvacuation(mm.mat_inverse(p)), -(p.slope.b - 1))),
       applies=_unit_a, max_n=lambda s: 4)
_ident("lk-rowvacuation", "the grid involution matches rowvacuation, transported", _paths,
       lambda p: nc.transport(nc.lk, p),
       lambda p: mm.mat(pa.iterate(rw.rowmotion, rw.rowmotion_inverse,
                                   rw.rowvacuation(mm.mat_inverse(p)), -2 * p.slope.b)),
       applies=_unit_a, max_n=lambda s: 4)
_ident("kre-squared-rowmotion", "the squared complement matches a rowmotion power, "
       "transported", _paths, lambda p: nc.transport(lambda c: nc.kre(nc.kre(c)), p),
       lambda p: mm.mat(pa.iterate(rw.rowmotion, rw.rowmotion_inverse,
                                   mm.mat_inverse(p), -(p.slope.b + 1))),
       applies=_unit_a, max_n=lambda s: 4)


# -- non-crossing chains ------------------------------------------------------


@pa.memo_image
def _grid_conjugation(x: nc.NonCrossingPartition) -> nc.NonCrossingPartition:
    """The two-row grid involution ``dyck2`` carried to one partition through
    the chain bijection, the Rothe map and the tiling map: the oracle of
    ``nc.lk_partition``, which is rotation after the boundary involution."""
    path = pe.e_p(ti.dt_map(nc.ncp_to_dyck(nc.NonCrossingChain(1, (x,)))))
    return nc.dyck_to_ncp(pe.rsk_hat(pe.e_p_inverse(pe.dyck2(path)))).layers[0]


_ident("chain-roundtrip", "the chain-path bijection round-trips", _chains,
       lambda c: nc.dyck_to_ncp(nc.ncp_to_dyck(c)), lambda c: c, applies=_unit_a)
_ident("kre-squared-rotation", "the complement squares to rotation", _chains,
       lambda c: nc.kre(nc.kre(c)), lambda c: nc.rot(c), applies=_unit_a)
_ident("rotation-order", "rotating n times is the identity", _chains,
       lambda c: pa.iterate(nc.rot, None, c, c.n), lambda c: c, applies=_unit_a)
_ident("reflection-involution", "reflection is an involution", _chains,
       lambda c: nc.ref(nc.ref(c)), lambda c: c, applies=_unit_a)
_ident("su-involution", "the boundary involution squares to the identity", _chains,
       lambda c: nc.su(nc.su(c)), lambda c: c, applies=_unit_a)
_ident("lk-involution", "the grid involution squares to the identity on chains", _chains,
       lambda c: nc.lk(nc.lk(c)), lambda c: c, applies=_unit_a)
_ident("su-rot-conjugate", "rotation conjugates through the boundary involution", _chains,
       lambda c: nc.su(nc.rot(c)), lambda c: pa.iterate(nc.rot, None, nc.su(c), c.n - 1),
       applies=_unit_a)
_ident("lk-rot-conjugate", "rotation conjugates through the grid involution", _chains,
       lambda c: nc.lk(nc.rot(c)), lambda c: pa.iterate(nc.rot, None, nc.lk(c), c.n - 1),
       applies=_unit_a)
_ident("lk-su-rotation", "the grid involution, conjugated through the chain, Rothe and "
       "tiling maps, and the boundary involution compose to rotation", _chains,
       lambda c: nc.NonCrossingChain(c.k, tuple(map(_grid_conjugation, nc.su(c).layers[::-1]))),
       lambda c: nc.rot(c), applies=_unit_a)
_ident("kre-ref-su", "the complement is reflection after the boundary involution "
       "(definitional: su_partition is ref_partition after kre_partition)", _chains,
       lambda c: nc.kre(c), lambda c: nc.ref(nc.su(c)), applies=_unit_a)
_ident("kre-su-twist", "the complement twists through the boundary involution", _chains,
       lambda c: nc.kre(nc.su(c)), lambda c: nc.su(nc.kre_inverse(c)), applies=_unit_a)
_ident("kre-lk-twist", "the complement twists through the grid involution", _chains,
       lambda c: nc.kre(nc.lk(c)), lambda c: nc.lk(nc.kre_inverse(c)), applies=_unit_a)
_ident("rank-reversal", "complement-type maps reverse the rank", _chains,
       lambda c: {nc.rank(layer) + nc.rank(f(layer)) for layer in c.layers
                  for f in (nc.kre_partition, nc.su_partition, nc.lk_partition)},
       lambda c: {c.n - 1}, applies=_unit_a)
_ident("kre-order-reversing", "the complement reverses refinement", _chains,
       lambda c: all(x.refines(y) for x, y in pairwise(nc.kre_partition(l) for l in c.layers)),
       True, applies=_unit_a)
_ident("kre-promotion", "the complement matches promotion through the chain bijection",
       _paths, lambda p: nc.transport(nc.kre, p), lambda p: pr.promotion(p),
       applies=_classical)
_ident("rot-promotion-power", "rotation matches the (k+1)-st promotion power, "
       "transported", _paths, lambda p: nc.transport(nc.rot, p),
       lambda p: pa.iterate(pr.promotion, pr.dual_promotion, p, p.slope.b + 1),
       applies=_unit_a)
_ident("su-ev-promotion", "the boundary involution matches evacuation after promotion, "
       "transported", _paths, lambda p: nc.transport(nc.su, p),
       lambda p: pr.evacuation_fast(pr.promotion(p)), applies=_unit_a)
_ident("lk-ev-promotion", "the grid involution matches evacuation after inverse "
       "promotion powers, transported", _paths, lambda p: nc.transport(nc.lk, p),
       lambda p: pr.evacuation_fast(pa.iterate(pr.promotion, pr.dual_promotion, p, -p.slope.b)),
       applies=_unit_a)
_ident("lift-promotion", "the delta shift matches promotion through the chain "
       "bijection", _paths, lambda p: nc.transport(nc.lift, p), lambda p: pr.promotion(p),
       applies=_unit_a, max_n=lambda s: 4)


# ---------------------------------------------------------------------------
# Engine


DEFAULT_DOMAINS: list[tuple[int, int, int]] = [
    (1, 1, 6),
    (1, 2, 4),
    (1, 3, 3),
    (2, 3, 2),
    (3, 2, 2),
    (2, 5, 2),
]


def identity(name: str) -> Identity:
    try:
        return IDENTITIES[name]
    except KeyError:
        raise KeyError(f"unknown identity {name!r}; known: {sorted(IDENTITIES)}") from None


def verify(name: str, slope: Slope) -> VerificationReport:
    ident = identity(name)
    if not ident.applies(slope):
        raise ValueError(f"identity {name!r} does not apply to slope ({slope.a},{slope.b})")
    start = time.perf_counter()
    with pa.image_scope():
        size, bad = ident.check(slope)
    elapsed = time.perf_counter() - start
    return VerificationReport(
        identity=name,
        a=slope.a,
        b=slope.b,
        n=slope.n,
        domain_size=size,
        status="pass" if not bad else "fail",
        counterexamples=bad,
        seconds=elapsed,
        expected="pass" if ident.expected_pass(slope) else "fail",
    )


def default_suite(max_n: int | None = None) -> list[VerificationReport]:
    """Every identity over the default domains, in one image scope: each map
    image is computed by the first identity that needs it."""
    reports = []
    with pa.image_scope():
        for name, ident in sorted(IDENTITIES.items()):
            for a, b, nmax in DEFAULT_DOMAINS:
                for n in range(1, nmax + 1):
                    slope = Slope(a, b, n)
                    if not ident.applies(slope):
                        continue
                    if n > ident.max_n(slope):
                        continue
                    if max_n is not None and n > max_n:
                        continue
                    reports.append(verify(name, slope))
    return reports


def orbit_table(map_name: str, slope: Slope) -> list[list[str]]:
    """The cycles of a map on a slope, each named by its paths and starting
    at its first path in enumeration order, sorted by that path's name.

    The map becomes a permutation of path ranks (positions in
    ``enumerate_paths`` order), and the cycles are read off that array.
    Every enumerated path is on this slope, so its step tuple alone keys
    its rank; an image is looked up by its steps only once it is checked to
    be a path on this slope.  Names are joined from one digit string per
    position, as ``str`` writes them."""
    m = resolve_path_map(map_name, slope)
    paths = pa.enumerate_paths(slope)
    rank = {p.steps: i for i, p in enumerate(paths)}
    path_class = pa.RationalDyckPath
    images: list[int] = []
    for p in paths:
        q = m.fn(p)
        if q.__class__ is path_class and (q.slope is slope or q.slope == slope):
            j = rank.get(q.steps)
            if j is not None:
                images.append(j)
                continue
        raise pa.InvariantError(
            f"map {map_name!r} sends {p} to {q}, which is not a path of {slope}"
        )
    digits = [str(x) for x in range(slope.total_steps + 1)]
    names = [",".join([digits[u] for u in p.steps]) for p in paths]
    source = [-1] * len(paths)
    for i, j in enumerate(images):
        if source[j] >= 0:
            raise ValueError(
                f"map {map_name!r} is not bijective on {slope}: "
                f"{names[source[j]]} and {names[i]} both map to {names[j]}"
            )
        source[j] = i
    cycles = []
    done = [False] * len(paths)
    for i in range(len(paths)):
        if done[i]:
            continue
        cyc = []
        j = i
        while not done[j]:
            done[j] = True
            cyc.append(names[j])
            j = images[j]
        cycles.append(cyc)
    cycles.sort(key=lambda c: c[0])
    return cycles


def apply_map(
    map_name: str, slope: Slope, x: RationalDyckPath | nc.NonCrossingChain, power: int = 1
) -> RationalDyckPath | nc.NonCrossingChain:
    """A registered map to the ``power`` on a path, or on a chain when ``x``
    is a ``NonCrossingChain``; a negative power iterates the inverse.

    Every registered map is a bijection, so once the orbit of ``x`` comes
    back to ``x`` after L steps only ``|power| mod L`` more are taken: at
    most 2L steps, whatever the power."""
    if isinstance(x, nc.NonCrossingChain):
        if map_name not in CHAIN_MAPS:
            raise ValueError(f"map {map_name!r} does not act on chains")
        fn, inverse = CHAIN_MAPS[map_name]
    else:
        m = resolve_path_map(map_name, slope)
        fn, inverse = m.fn, m.inverse
    if power < 0 and inverse is None:
        raise ValueError(f"map {map_name!r} has no registered inverse")
    step = fn if power >= 0 else inverse
    y = x
    for done in range(1, abs(power) + 1):
        y = step(y)
        if y == x:
            return pa.iterate(step, None, x, abs(power) % done)
    return y
