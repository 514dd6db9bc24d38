"""Acceptance criteria, one test per criterion, each printing a verdict line."""

import math
import time

from ratdyck.golden import golden_suite
from ratdyck.matching_map import mat, mat_inverse
from ratdyck.matchings import pm, rotate
from ratdyck.paths import (
    Slope,
    count_paths,
    count_paths_dp,
    enumerate_paths,
    path_from_steps,
    path_from_word,
)
from ratdyck.promotion import (
    dual_evacuation,
    dual_promotion,
    evacuation,
    promotion,
)
from ratdyck.matchings import bar, dpm
from ratdyck.registry import default_suite, verify
from ratdyck.tilings import dt_map, kappa, max_tiling, rsk_hat_inverse, tile_transpositions


def _verdict(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS", flush=True)


def test_acceptance_1_counting():
    start = time.perf_counter()
    assert [count_paths(Slope(1, 1, n)) for n in range(1, 6)] == [1, 2, 5, 14, 42]
    assert count_paths(Slope(1, 2, 3)) == 12
    assert count_paths(Slope(2, 3, 2)) == 23
    for a in range(1, 6):
        for b in range(1, 6):
            if math.gcd(a, b) != 1:
                continue
            n = 1
            while a * b * n <= 16:
                slope = Slope(a, b, n)
                formula = count_paths(slope)
                assert formula == count_paths_dp(slope), slope
                if formula <= 200_000:
                    assert formula == len(enumerate_paths(slope)), slope
                n += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"counting took {elapsed:.1f}s"
    _verdict(1, "counting")


def test_acceptance_2_golden_tables():
    start = time.perf_counter()
    reports = golden_suite()
    failures = [r for r in reports if r.status != "pass"]
    assert not failures, failures
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"golden tables took {elapsed:.2f}s"
    _verdict(2, "golden tables")


def test_acceptance_3_worked_examples():
    s23 = Slope(2, 3, 2)
    p = path_from_steps(s23, [1, 2, 5, 7])
    assert str(pm(p)) == "{1,4,10},{2,3},{5,6,9},{7,8}"
    assert str(dpm(p)) == "{1,10},{2,4},{3},{5,7,9},{6},{8}"
    assert str(bar(pm(p))) == "{1,7,10},{2,5,6},{3,4},{8,9}"
    assert promotion(p).steps == (1, 3, 4, 6)
    assert dual_promotion(p).steps == (1, 3, 6, 8)
    assert evacuation(p).steps == (1, 2, 3, 8)
    assert dual_evacuation(p).steps == (1, 2, 4, 7)

    # the five worked matching-map instances
    p11 = path_from_word(Slope(1, 1, 5), "URUURURRUR")
    assert mat(p11).word == "URURUURURR"
    p147 = path_from_steps(Slope(1, 2, 3), [1, 4, 7])
    assert mat(p147).steps == (1, 4, 6)
    assert mat_inverse(path_from_steps(Slope(1, 2, 3), [1, 4, 6])).steps == (1, 4, 7)
    assert mat(path_from_steps(s23, [1, 3, 5, 6])).steps == (1, 3, 4, 7)
    assert mat_inverse(path_from_steps(s23, [1, 3, 4, 7])).steps == (1, 3, 5, 6)
    mat12 = {p.steps: mat(p).steps for p in enumerate_paths(Slope(1, 2, 2))}
    assert mat12 == {(1, 4): (1, 4), (1, 3): (1, 2), (1, 2): (1, 3)}
    mat21 = {p.steps: mat(p).steps for p in enumerate_paths(Slope(2, 1, 2))}
    assert mat21 == {
        (1, 2, 4, 5): (1, 2, 3, 4),
        (1, 2, 3, 4): (1, 2, 3, 5),
        (1, 2, 3, 5): (1, 2, 4, 5),
    }

    tiling_path = path_from_word(Slope(1, 1, 5), "UURRURURUR")
    assert tile_transpositions(max_tiling(tiling_path)) == [(4, 9), (3, 4), (4, 7)]
    assert str(dt_map(tiling_path)) == "31425"
    assert kappa(p147) == (1, 2, 0)
    assert rsk_hat_inverse(p147).steps == (1, 2, 6)
    assert rsk_hat_inverse(path_from_steps(Slope(1, 2, 3), [1, 2, 7])).steps == (1, 2, 3)
    _verdict(3, "worked examples")


def test_acceptance_4_identity_suite():
    start = time.perf_counter()
    reports = default_suite()
    assert len(reports) == 1067
    unexpected = [r for r in reports if not r.ok]
    assert not unexpected, [
        (r.identity, (r.a, r.b, r.n), r.counterexamples[:2]) for r in unexpected
    ]
    # the headline identities run on every required slope family
    covered = {(r.identity, r.a, r.b, r.n) for r in reports}
    for a, b, nmax in [(1, 1, 6), (1, 2, 4), (1, 3, 3), (2, 3, 2), (3, 2, 2), (2, 5, 2)]:
        assert ("mat-rowmotion", a, b, nmax) in covered
        assert ("promotion-order", a, b, nmax) in covered
    for k, n in [(1, 4), (2, 4), (3, 3)]:
        assert ("ev-rowvacuation", 1, k, n) in covered
        assert ("lift-promotion", 1, k, min(n, 4)) in covered
    for k, n in [(1, 5), (2, 4), (3, 3)]:
        assert ("rsk-composition-roundtrip", 1, k, n) in covered
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"identity suite took {elapsed:.1f}s"
    _verdict(4, f"identity suite, {len(reports)} reports in {elapsed:.1f}s")


def test_acceptance_5_oracle_cross_checks():
    for a, b, nmax in [(1, 1, 6), (1, 2, 4), (1, 3, 3), (2, 3, 2), (3, 2, 2), (2, 5, 2)]:
        for n in range(1, nmax + 1):
            slope = Slope(a, b, n)
            assert verify("rowmotion-structural", slope).status == "pass"
            assert verify("fast-evacuation", slope).status == "pass"
            assert verify("fast-dual-evacuation", slope).status == "pass"
            if a == 1:
                assert verify("kappa-line-transposition", slope).status == "pass"
    _verdict(5, "oracle cross-checks")


def test_acceptance_6_negative_control():
    slope = Slope(2, 3, 1)
    report = verify("pm-rot", slope)
    assert report.status == "fail" and report.expected == "fail"
    p12 = path_from_steps(slope, [1, 2])
    p13 = path_from_steps(slope, [1, 3])
    assert pm(p12).blocks == ((1, 4, 5), (2, 3))
    assert pm(p13).blocks == ((1, 2, 5), (3, 4))
    assert promotion(p12) == p13
    assert rotate(pm(p13)) == pm(p12)
    assert pm(promotion(p12)) != rotate(pm(p12))
    _verdict(6, "negative control")
