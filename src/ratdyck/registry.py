"""Named map registry, identity registry, and the verification engine.

Identities are registered with the slope families they apply to and a
default exhaustive domain; ``verify`` evaluates both sides of an identity
on every enumerated object and reports counterexamples instead of raising.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
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


def _chain_as_path_map(chain_fn, inverse=None):
    def fn(p: RationalDyckPath) -> RationalDyckPath:
        return nc.ncp_to_dyck(chain_fn(nc.dyck_to_ncp(p)))

    inv = None
    if inverse is not None:
        def inv(p: RationalDyckPath) -> RationalDyckPath:
            return nc.ncp_to_dyck(inverse(nc.dyck_to_ncp(p)))

    return fn, inv


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


def _iterate(f, x, times):
    for _ in range(times):
        x = f(x)
    return x


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
        fn, inv = _chain_as_path_map(cfn, cinv)
        add(cname, fn, inv, _unit_a)


_register_path_maps()


def resolve_path_map(name: str, slope: Slope) -> PathMap:
    if name.startswith("toggle:"):
        i = int(name.split(":", 1)[1])
        fn = lambda p: pr.toggle(i, p)
        return PathMap(name, fn, fn)
    if name.startswith("rank-toggle:"):
        r = int(name.split(":", 1)[1])
        fn = lambda p: rw.rank_toggle(r, p)
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


IDENTITIES: dict[str, Identity] = {}


def _ident(name, summary, applies=lambda s: True, expected_pass=lambda s: True, max_n=lambda s: 99):
    def wrap(fn):
        IDENTITIES[name] = Identity(name, summary, fn, applies, expected_pass, max_n)
        return fn

    return wrap


def _path_check(slope: Slope, relation) -> tuple[int, list[str]]:
    paths = pa.enumerate_paths(slope)
    bad = []
    for p in paths:
        if not relation(p):
            bad.append(str(p))
            if len(bad) >= 10:
                break
    return len(paths), bad


def _chain_check(slope: Slope, relation) -> tuple[int, list[str]]:
    chains = nc.enumerate_chains(slope.n, slope.b)
    bad = []
    for c in chains:
        if not relation(c):
            bad.append(str(c))
            if len(bad) >= 10:
                break
    return len(chains), bad


def _perm_check(slope: Slope, relation) -> tuple[int, list[str]]:
    perms = pe.enumerate_321_avoiding(slope.n)
    bad = []
    for w in perms:
        if not relation(w):
            bad.append(str(w))
            if len(bad) >= 10:
                break
    return len(perms), bad



# -- counting and encodings -------------------------------------------------


@_ident("count-enumeration", "Bizley-recurrence count equals the lattice DP count "
        "and the materialized enumeration on moderate domains")
def _c_count(s: Slope):
    formula = pa.count_paths(s)
    dp = pa.count_paths_dp(s)
    bad = []
    if formula != dp:
        bad.append(f"formula={formula} dp={dp}")
    if dp <= 200_000 and len(pa.enumerate_paths(s)) != dp:
        bad.append(f"enumeration!={dp}")
    return dp, bad


@_ident("step-bound-geometry", "the step-position bound and the geometric "
        "above-the-line test agree on every candidate word", max_n=lambda s: 3 if s.a * s.b == 1 else 2)
def _c_bound(s: Slope):
    total = 0
    bad = []
    for word in pa.enumerate_words(s):
        total += 1
        if pa.steps_within_bound(s, word) != pa.word_above_line(s, word):
            bad.append(str(word))
            if len(bad) >= 10:
                break
    return total, bad


@_ident("young-roundtrip", "region rows determine the path and vice versa")
def _c_young(s: Slope):
    return _path_check(s, lambda p: pa.path_from_young_rows(s, pa.young_rows(p)) == p)


@_ident("star-involution", "row exchange is an involution onto the transposed slope")
def _c_star(s: Slope):
    def rel(p):
        t = pa.to_tableau(p)
        back = pa.star(pa.star(t))
        return back == t and pa.star(t).slope == s.transpose()

    return _path_check(s, rel)


@_ident("tableau-roundtrip", "two-row tableau round trip")
def _c_tab(s: Slope):
    return _path_check(s, lambda p: pa.from_tableau(pa.to_tableau(p)) == p)


@_ident("prime-endpoints", "prime paths touch the boundary line only at the ends")
def _c_prime(s: Slope):
    def rel(p):
        verts = p.vertices()
        touches = sum(1 for x, y in verts if s.b * y == s.a * x)
        return pa.is_prime(p) == (touches == 2)

    return _path_check(s, rel)


# -- matchings ----------------------------------------------------------------


@_ident("pm-roundtrip", "block minima recover the path")
def _c_pm_rt(s: Slope):
    return _path_check(s, lambda p: mt.pm_inverse(mt.pm(p), s) == p)


@_ident("pm-noncrossing", "matching blocks never cross")
def _c_pm_nc(s: Slope):
    def rel(p):
        m = mt.pm(p)
        for bi in range(len(m.blocks)):
            for bj in range(bi + 1, len(m.blocks)):
                b1, b2 = m.blocks[bi], m.blocks[bj]
                for i in b1:
                    for k in b1:
                        if i < k and any(i < j < k for j in b2) and any(
                            l < i or l > k for l in b2
                        ):
                            return False
        return True

    return _path_check(s, rel)


@_ident("pm-block-size", "matching blocks of a (1,k)-path all have k+1 elements",
        applies=_unit_a)
def _c_pm_size(s: Slope):
    return _path_check(
        s, lambda p: all(len(b) == s.b + 1 for b in mt.pm(p).blocks)
    )


@_ident("pm-singleton-block", "matchings of steep paths contain a singleton block",
        applies=lambda s: s.a > s.b)
def _c_pm_single(s: Slope):
    return _path_check(s, lambda p: any(len(b) == 1 for b in mt.pm(p).blocks))


@_ident("bar-involution", "the bar relabeling is an involution")
def _c_bar(s: Slope):
    return _path_check(s, lambda p: mt.bar(mt.bar(mt.pm(p))) == mt.pm(p))


@_ident("rotate-order", "rotating (a+b)n times is the identity")
def _c_rot_ord(s: Slope):
    def rel(p):
        m = mt.pm(p)
        return _iterate(mt.rotate, m, s.total_steps) == m

    return _path_check(s, rel)


@_ident("pm-rot", "the matching of the promoted path is the rotated matching",
        expected_pass=_unit_a)
def _c_pm_rot(s: Slope):
    return _path_check(
        s, lambda p: mt.pm(pr.promotion(p)) == mt.rotate(mt.pm(p))
    )


@_ident("pm-ev-bar", "the matching of the evacuated path is the barred matching")
def _c_pm_ev(s: Slope):
    return _path_check(s, lambda p: mt.pm(pr.evacuation_fast(p)) == mt.bar(mt.pm(p)))


@_ident("dpm-equals-pm", "the dual matching coincides with the matching classically",
        applies=_classical)
def _c_dpm(s: Slope):
    return _path_check(s, lambda p: mt.dpm(p) == mt.pm(p))


# -- promotion/evacuation -----------------------------------------------------


@_ident("toggle-involution", "every toggle is an involution", max_n=lambda s: 4)
def _c_tog(s: Slope):
    def rel(p):
        return all(
            pr.toggle(i, pr.toggle(i, p)) == p for i in range(1, s.total_steps)
        )

    return _path_check(s, rel)


@_ident("promotion-inverse", "dual promotion inverts promotion")
def _c_prom_inv(s: Slope):
    return _path_check(
        s,
        lambda p: pr.dual_promotion(pr.promotion(p)) == p
        and pr.promotion(pr.dual_promotion(p)) == p,
    )


@_ident("evacuation-involution", "evacuation squares to the identity")
def _c_ev_inv(s: Slope):
    return _path_check(s, lambda p: pr.evacuation(pr.evacuation(p)) == p)


@_ident("dual-evacuation-involution", "dual evacuation squares to the identity")
def _c_dev_inv(s: Slope):
    return _path_check(s, lambda p: pr.dual_evacuation(pr.dual_evacuation(p)) == p)


@_ident("promotion-order", "promotion to the (a+b)n equals both evacuations composed")
def _c_prom_ord(s: Slope):
    return _path_check(
        s,
        lambda p: pr.promotion_power(p, s.total_steps)
        == pr.dual_evacuation_fast(pr.evacuation_fast(p)),
    )


@_ident("evacuation-promotion-conjugate", "evacuation conjugates promotion to its inverse")
def _c_ev_conj(s: Slope):
    return _path_check(
        s,
        lambda p: pr.evacuation_fast(pr.promotion(p))
        == pr.dual_promotion(pr.evacuation_fast(p)),
    )


@_ident("dual-evacuation-star", "dual evacuation is star-conjugated evacuation")
def _c_dev_star(s: Slope):
    return _path_check(s, lambda p: pr.dual_evacuation_fast(p) == pr.dual_evacuation_by_star(p))


@_ident("fast-evacuation", "toggle evacuation equals the matching-maxima formula")
def _c_fast_ev(s: Slope):
    return _path_check(s, lambda p: pr.evacuation(p) == pr.evacuation_fast(p))


@_ident("fast-dual-evacuation", "toggle dual evacuation equals the dual-matching formula")
def _c_fast_dev(s: Slope):
    return _path_check(s, lambda p: pr.dual_evacuation(p) == pr.dual_evacuation_fast(p))


@_ident("ev-star", "evacuation is the star map classically", applies=_classical)
def _c_ev_star(s: Slope):
    return _path_check(
        s,
        lambda p: pr.evacuation_fast(p) == pa.star_path(p)
        and pr.dual_evacuation_fast(p) == pa.star_path(p),
    )


# -- rowmotion ----------------------------------------------------------------


@_ident("rank-toggle-involution", "every rank toggle is an involution", max_n=lambda s: 4)
def _c_rtog(s: Slope):
    region = rw.box_region(s)

    def rel(p):
        if region.max_rank < region.min_rank:
            return True
        return all(
            rw.rank_toggle(r, rw.rank_toggle(r, p)) == p
            for r in range(region.min_rank, region.max_rank + 1)
        )

    return _path_check(s, rel)


@_ident("rowmotion-structural", "toggle rowmotion equals the filter-complement oracle")
def _c_row_struct(s: Slope):
    return _path_check(s, lambda p: rw.rowmotion(p) == rw.rowmotion_structural(p))


@_ident("rowmotion-roundtrip", "rowmotion composed with its inverse sweep is trivial")
def _c_row_rt(s: Slope):
    return _path_check(s, lambda p: rw.rowmotion_inverse(rw.rowmotion(p)) == p)


@_ident("rowvacuation-involution", "rowvacuation squares to the identity")
def _c_rvac_inv(s: Slope):
    return _path_check(s, lambda p: rw.rowvacuation(rw.rowvacuation(p)) == p)


@_ident("dual-rowvacuation-involution", "dual rowvacuation squares to the identity")
def _c_drvac_inv(s: Slope):
    return _path_check(s, lambda p: rw.dual_rowvacuation(rw.dual_rowvacuation(p)) == p)


@_ident("rowvacuation-rowmotion-conjugate", "rowvacuation conjugates rowmotion to its inverse")
def _c_rvac_conj(s: Slope):
    return _path_check(
        s,
        lambda p: rw.rowvacuation(rw.rowmotion(p)) == rw.rowmotion_inverse(rw.rowvacuation(p)),
    )


@_ident("dual-rowvacuation-rowmotion-conjugate",
        "dual rowvacuation conjugates rowmotion to its inverse")
def _c_drvac_conj(s: Slope):
    return _path_check(
        s,
        lambda p: rw.dual_rowvacuation(rw.rowmotion(p))
        == rw.rowmotion_inverse(rw.dual_rowvacuation(p)),
    )


@_ident("rowmotion-order-rowvacuation",
        "rowmotion to the rank span plus two equals both rowvacuations composed")
def _c_row_ord(s: Slope):
    region = rw.box_region(s)
    power = (region.max_rank - region.min_rank) + 2 if region.max_rank >= region.min_rank else 0
    return _path_check(
        s,
        lambda p: rw.rowmotion_power(p, power)
        == rw.dual_rowvacuation(rw.rowvacuation(p)),
    )


@_ident("rowmotion-valley-map", "rowmotion is the valley-peak path map classically",
        applies=_classical)
def _c_row_d1(s: Slope):
    return _path_check(s, lambda p: rw.rowmotion(p) == pe.dyck1(p))


@_ident("rowvacuation-lalanne-kreweras",
        "rowvacuation is the two-row grid involution classically", applies=_classical)
def _c_rvac_d2(s: Slope):
    return _path_check(s, lambda p: rw.rowvacuation(p) == pe.dyck2(p))


@_ident("dual-rowvacuation-ev-lalanne-kreweras",
        "dual rowvacuation is evacuation after the grid involution classically",
        applies=_classical)
def _c_drvac_d2(s: Slope):
    return _path_check(
        s, lambda p: rw.dual_rowvacuation(p) == pr.evacuation_fast(pe.dyck2(p))
    )


@_ident("rowmotion-power-evacuation", "rowmotion to the n equals evacuation classically",
        applies=_classical)
def _c_row_ev(s: Slope):
    return _path_check(
        s, lambda p: rw.rowmotion_power(p, s.n) == pr.evacuation_fast(p)
    )


# -- grid permutation maps ----------------------------------------------------


@_ident("rothe-roundtrip", "peak extraction and completion invert each other",
        applies=_classical)
def _c_rothe(s: Slope):
    return _perm_check(s, lambda w: pe.e_p_inverse(pe.e_p(w)) == w)


@_ident("transpose-path-inverse-permutation",
        "the below-diagonal peak path equals the peak path of the inverse",
        applies=_classical)
def _c_ew(s: Slope):
    return _perm_check(s, lambda w: pe.e_w(w) == pe.e_p(w.inverse()))


@_ident("lalanne-kreweras-involution", "the below-diagonal corner map is an involution",
        applies=_classical)
def _c_d2(s: Slope):
    return _path_check(s, lambda p: pe.dyck2(pe.dyck2(p)) == p)


@_ident("transpose-map-involution", "the transpose path map is an involution",
        applies=_classical)
def _c_d3(s: Slope):
    return _path_check(s, lambda p: pe.dyck3(pe.dyck3(p)) == p)


@_ident("rsk-crossing-resolution", "two-row insertion and strand smoothing agree",
        applies=_classical)
def _c_rsk_pmx(s: Slope):
    return _perm_check(s, lambda w: mt.pm(pe.rsk_hat(w)) == pe.pm_cross(w))


@_ident("rsk-tiling-roundtrip", "the tiling map inverts the insertion path map",
        applies=_classical)
def _c_rsk_dt(s: Slope):
    return _perm_check(s, lambda w: ti.dt_map(pe.rsk_hat(w)) == w)


@_ident("rsk-rowmotion", "the insertion path map turns rowmotion into inverse promotion",
        applies=_classical)
def _c_cd1(s: Slope):
    return _path_check(
        s,
        lambda p: pe.rsk_path(rw.rowmotion(p)) == pr.dual_promotion(pe.rsk_path(p)),
    )


@_ident("rsk-partial-rowvacuation",
        "the insertion path map turns the truncated sweep product into evacuation",
        applies=_classical)
def _c_cd2(s: Slope):
    return _path_check(
        s,
        lambda p: pe.rsk_path(rw.partial_rowvacuation(p))
        == pr.evacuation_fast(pe.rsk_path(p)),
    )


@_ident("rsk-transpose-evacuation",
        "the insertion path map turns the transpose map into evacuation",
        applies=_classical)
def _c_cd3(s: Slope):
    return _path_check(
        s, lambda p: pe.rsk_path(pe.dyck3(p)) == pr.evacuation_fast(pe.rsk_path(p))
    )


@_ident("rsk-lalanne-kreweras",
        "the insertion path map turns the grid involution into evacuation after "
        "inverse promotion", applies=_classical)
def _c_cd4(s: Slope):
    return _path_check(
        s,
        lambda p: pe.rsk_path(pe.dyck2(p))
        == pr.evacuation_fast(pr.dual_promotion(pe.rsk_path(p))),
    )


@_ident("mat-lalanne-kreweras",
        "the matching map turns the grid involution into evacuation after promotion",
        applies=_classical)
def _c_cd5(s: Slope):
    return _path_check(
        s,
        lambda p: mm.mat(pe.dyck2(mm.mat_inverse(p)))
        == pr.evacuation_fast(pr.promotion(p)),
    )


@_ident("rsk-mat-evacuation",
        "the insertion path map is promotion after the matching map after evacuation",
        applies=_classical)
def _c_rskmat(s: Slope):
    return _path_check(
        s, lambda p: pe.rsk_path(p) == pr.promotion(mm.mat(pr.evacuation_fast(p)))
    )


@_ident("mat-crossing-evacuation",
        "the matching map is inverse promotion after strand smoothing after evacuation",
        applies=_classical)
def _c_matpmx(s: Slope):
    return _path_check(
        s,
        lambda p: mm.mat(p)
        == pr.dual_promotion(pe.pm_cross_path(pe.e_p_inverse(pr.evacuation_fast(p)))),
    )


@_ident("valley-map-kreweras",
        "the valley-peak map is the inverse complement transported through insertion",
        applies=_classical, max_n=lambda s: 6)
def _c_d1kre(s: Slope):
    def rel(p):
        q = pe.rsk_path(p)
        q = nc.ncp_to_dyck(nc.kre_inverse(nc.dyck_to_ncp(q)))
        return pe.dyck1(p) == pe.e_p(ti.dt_map(q))

    return _path_check(s, rel)


@_ident("rowmotion-transpose-simion-ullman",
        "rowmotion after the transpose map matches the boundary involution "
        "transported through insertion", applies=_classical, max_n=lambda s: 6)
def _c_rvd3(s: Slope):
    def rel(p):
        q = pe.rsk_path(p)
        q = nc.ncp_to_dyck(nc.su(nc.dyck_to_ncp(q)))
        return rw.rowmotion(pe.dyck3(p)) == pe.e_p(ti.dt_map(q))

    return _path_check(s, rel)


# -- tilings ------------------------------------------------------------------


@_ident("tiling-structure", "every maximal tiling is cover-inclusive and unmergeable",
        applies=_unit_a, max_n=lambda s: 5)
def _c_tiling(s: Slope):
    def rel(p):
        t = ti.max_tiling(p)
        return ti.is_cover_inclusive(t) and ti.is_maximal(t)

    return _path_check(s, rel)


@_ident("kappa-line-transposition",
        "history-line tile counts equal the transposition inversion counts",
        applies=_unit_a, max_n=lambda s: 5)
def _c_kappa(s: Slope):
    return _path_check(s, lambda p: ti.kappa(p) == ti.kappa_by_transpositions(p))


@_ident("rsk-composition-roundtrip",
        "the tiling inverse and the promotion-matching composite invert each other",
        applies=_unit_a, max_n=lambda s: 5)
def _c_rsk_rt(s: Slope):
    return _path_check(
        s,
        lambda p: ti.rsk_hat_path(ti.rsk_hat_inverse(p)) == p
        and ti.rsk_hat_inverse(ti.rsk_hat_path(p)) == p,
    )


@_ident("rsk-inverse-rowmotion",
        "the tiling inverse turns inverse promotion into rowmotion",
        applies=_unit_a, max_n=lambda s: 5)
def _c_rskk(s: Slope):
    return _path_check(
        s,
        lambda p: ti.rsk_hat_inverse(pr.dual_promotion(p))
        == rw.rowmotion(ti.rsk_hat_inverse(p)),
    )


@_ident("rsk-path-classical",
        "the promotion-matching composite matches the insertion path map classically",
        applies=_classical)
def _c_rsk_cl(s: Slope):
    return _path_check(s, lambda p: ti.rsk_hat_path(p) == pe.rsk_path(p))


# -- matching map -------------------------------------------------------------


@_ident("mat-roundtrip", "the matching map and its inverse are mutually inverse")
def _c_mat_rt(s: Slope):
    return _path_check(
        s, lambda p: mm.mat_inverse(mm.mat(p)) == p and mm.mat(mm.mat_inverse(p)) == p
    )


@_ident("mat-rowmotion", "the matching map turns rowmotion into inverse promotion")
def _c_mat_row(s: Slope):
    return _path_check(
        s, lambda p: mm.mat(rw.rowmotion(p)) == pr.dual_promotion(mm.mat(p))
    )


@_ident("ev-rowvacuation",
        "evacuation is the k-fold inverse rowmotion after rowvacuation, transported",
        applies=_unit_a, max_n=lambda s: 4)
def _c_evrvac(s: Slope):
    k = s.b
    return _path_check(
        s,
        lambda p: pr.evacuation_fast(p)
        == mm.mat(rw.rowmotion_power(rw.rowvacuation(mm.mat_inverse(p)), -k)),
    )


@_ident("promotion-power-rowvacuations",
        "a fixed promotion power matches both rowvacuations composed, transported",
        applies=_unit_a, max_n=lambda s: 4)
def _c_md1(s: Slope):
    k, n = s.b, s.n
    return _path_check(
        s,
        lambda p: pr.promotion_power(p, -n * k + k - 1)
        == mm.mat(rw.dual_rowvacuation(rw.rowvacuation(mm.mat_inverse(p)))),
    )


@_ident("su-rowvacuation", "the boundary involution matches rowvacuation, transported",
        applies=_unit_a, max_n=lambda s: 4)
def _c_md2(s: Slope):
    k = s.b

    def rel(p):
        lhs = nc.ncp_to_dyck(nc.su(nc.dyck_to_ncp(p)))
        return lhs == mm.mat(rw.rowmotion_power(rw.rowvacuation(mm.mat_inverse(p)), -(k - 1)))

    return _path_check(s, rel)


@_ident("lk-rowvacuation", "the grid involution matches rowvacuation, transported",
        applies=_unit_a, max_n=lambda s: 4)
def _c_md3(s: Slope):
    k = s.b

    def rel(p):
        lhs = nc.ncp_to_dyck(nc.lk(nc.dyck_to_ncp(p)))
        return lhs == mm.mat(rw.rowmotion_power(rw.rowvacuation(mm.mat_inverse(p)), -2 * k))

    return _path_check(s, rel)


@_ident("kre-squared-rowmotion", "the squared complement matches a rowmotion power, "
        "transported", applies=_unit_a, max_n=lambda s: 4)
def _c_md4(s: Slope):
    k = s.b

    def rel(p):
        lhs = nc.ncp_to_dyck(nc.kre(nc.kre(nc.dyck_to_ncp(p))))
        return lhs == mm.mat(rw.rowmotion_power(mm.mat_inverse(p), -(k + 1)))

    return _path_check(s, rel)


# -- non-crossing chains ------------------------------------------------------


@_ident("chain-roundtrip", "the chain-path bijection round-trips", applies=_unit_a)
def _c_chain_rt(s: Slope):
    return _chain_check(s, lambda c: nc.dyck_to_ncp(nc.ncp_to_dyck(c)) == c)


@_ident("kre-squared-rotation", "the complement squares to rotation", applies=_unit_a)
def _c_kre2(s: Slope):
    return _chain_check(s, lambda c: nc.kre(nc.kre(c)) == nc.rot(c))


@_ident("rotation-order", "rotating n times is the identity", applies=_unit_a)
def _c_rotn(s: Slope):
    return _chain_check(s, lambda c: _iterate(nc.rot, c, s.n) == c)


@_ident("reflection-involution", "reflection is an involution", applies=_unit_a)
def _c_ref2(s: Slope):
    return _chain_check(s, lambda c: nc.ref(nc.ref(c)) == c)


@_ident("su-involution", "the boundary involution squares to the identity",
        applies=_unit_a)
def _c_su2(s: Slope):
    return _chain_check(s, lambda c: nc.su(nc.su(c)) == c)


@_ident("lk-involution", "the grid involution squares to the identity on chains",
        applies=_unit_a)
def _c_lk2(s: Slope):
    return _chain_check(s, lambda c: nc.lk(nc.lk(c)) == c)


@_ident("su-rot-conjugate", "rotation conjugates through the boundary involution",
        applies=_unit_a)
def _c_surot(s: Slope):
    inv_rot = lambda c: _iterate(nc.rot, c, s.n - 1)
    return _chain_check(s, lambda c: nc.su(nc.rot(c)) == inv_rot(nc.su(c)))


@_ident("lk-rot-conjugate", "rotation conjugates through the grid involution",
        applies=_unit_a)
def _c_lkrot(s: Slope):
    inv_rot = lambda c: _iterate(nc.rot, c, s.n - 1)
    return _chain_check(s, lambda c: nc.lk(nc.rot(c)) == inv_rot(nc.lk(c)))


@_ident("lk-su-rotation", "the two involutions compose to rotation", applies=_unit_a)
def _c_lksu(s: Slope):
    return _chain_check(s, lambda c: nc.lk(nc.su(c)) == nc.rot(c))


@_ident("kre-ref-su", "the complement is reflection after the boundary involution "
        "(definitional: su_partition is ref_partition after kre_partition)",
        applies=_unit_a)
def _c_krerefsu(s: Slope):
    return _chain_check(s, lambda c: nc.kre(c) == nc.ref(nc.su(c)))


@_ident("kre-su-twist", "the complement twists through the boundary involution",
        applies=_unit_a)
def _c_kresu(s: Slope):
    return _chain_check(s, lambda c: nc.kre(nc.su(c)) == nc.su(nc.kre_inverse(c)))


@_ident("kre-lk-twist", "the complement twists through the grid involution",
        applies=_unit_a)
def _c_krelk(s: Slope):
    return _chain_check(s, lambda c: nc.kre(nc.lk(c)) == nc.lk(nc.kre_inverse(c)))


@_ident("rank-reversal", "complement-type maps reverse the rank", applies=_unit_a)
def _c_rankrev(s: Slope):
    def rel(c):
        return all(
            nc.rank(layer) + nc.rank(f(layer)) == s.n - 1
            for layer in c.layers
            for f in (nc.kre_partition, nc.su_partition, nc.lk_partition)
        )

    return _chain_check(s, rel)


@_ident("kre-order-reversing", "the complement reverses refinement", applies=_unit_a)
def _c_kreorder(s: Slope):
    def rel(c):
        imgs = [nc.kre_partition(layer) for layer in c.layers]
        return all(
            imgs[i].refines(imgs[i + 1]) for i in range(len(imgs) - 1)
        )

    return _chain_check(s, rel)


@_ident("kre-promotion", "the complement matches promotion through the chain bijection",
        applies=_classical)
def _c_krepro(s: Slope):
    return _path_check(
        s, lambda p: nc.ncp_to_dyck(nc.kre(nc.dyck_to_ncp(p))) == pr.promotion(p)
    )


@_ident("rot-promotion-power", "rotation matches the (k+1)-st promotion power, "
        "transported", applies=_unit_a)
def _c_rotpro(s: Slope):
    k = s.b
    return _path_check(
        s,
        lambda p: nc.ncp_to_dyck(nc.rot(nc.dyck_to_ncp(p)))
        == pr.promotion_power(p, k + 1),
    )


@_ident("su-ev-promotion", "the boundary involution matches evacuation after promotion, "
        "transported", applies=_unit_a)
def _c_supro(s: Slope):
    return _path_check(
        s,
        lambda p: nc.ncp_to_dyck(nc.su(nc.dyck_to_ncp(p)))
        == pr.evacuation_fast(pr.promotion(p)),
    )


@_ident("lk-ev-promotion", "the grid involution matches evacuation after inverse "
        "promotion powers, transported", applies=_unit_a)
def _c_lkpro(s: Slope):
    k = s.b
    return _path_check(
        s,
        lambda p: nc.ncp_to_dyck(nc.lk(nc.dyck_to_ncp(p)))
        == pr.evacuation_fast(pr.promotion_power(p, -k)),
    )


@_ident("lift-promotion", "the weight lift matches promotion through the chain "
        "bijection", applies=_unit_a, max_n=lambda s: 4)
def _c_liftpro(s: Slope):
    return _path_check(
        s, lambda p: nc.ncp_to_dyck(nc.lift(nc.dyck_to_ncp(p))) == pr.promotion(p)
    )


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


def verify(name: str, slope: Slope) -> VerificationReport:
    try:
        ident = IDENTITIES[name]
    except KeyError:
        raise KeyError(f"unknown identity {name!r}; known: {sorted(IDENTITIES)}") from None
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
    ``enumerate_paths`` order), and the cycles are read off that array."""
    m = resolve_path_map(map_name, slope)
    paths = pa.enumerate_paths(slope)
    rank = {p: i for i, p in enumerate(paths)}
    images: list[int] = []
    for p in paths:
        q = m.fn(p)
        try:
            images.append(rank[q])
        except KeyError:
            raise pa.InvariantError(
                f"map {map_name!r} sends {p} to {q}, which is not a path of "
                f"({slope.a},{slope.b}) n={slope.n}"
            ) from None
    names = [str(p) for p in paths]
    source = [-1] * len(paths)
    for i, j in enumerate(images):
        if source[j] >= 0:
            raise ValueError(
                f"map {map_name!r} is not bijective on ({slope.a},{slope.b}) n={slope.n}: "
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


def apply_map(map_name: str, slope: Slope, p: RationalDyckPath, power: int = 1) -> RationalDyckPath:
    m = resolve_path_map(map_name, slope)
    if power >= 0:
        fn = m.fn
    else:
        if m.inverse is None:
            raise ValueError(f"map {map_name!r} has no registered inverse")
        fn = m.inverse
    for _ in range(abs(power)):
        p = fn(p)
    return p
