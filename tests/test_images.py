"""The image scope: shared map images inside a run, nothing cached outside.

Inside ``image_scope`` every decorated map must return exactly its unscoped
image, kept apart per map; the scope must close when the suite returns or
raises, so that a later, differently behaving map is not answered from an
old run's images.
"""

from dataclasses import replace

import pytest

from ratdyck import matching_map, paths
from ratdyck.matching_map import mat, mat_inverse
from ratdyck.matchings import dpm, pm
from ratdyck.noncrossing import (
    dyck_to_ncp,
    kre,
    kre_inverse,
    kre_partition,
    lk,
    lk_partition,
    ncp_to_dyck,
    ref,
    ref_partition,
    rot,
    rot_partition,
    su,
    su_partition,
)
from ratdyck.paths import InvariantError, Slope, enumerate_paths, image_scope, path_from_steps
from ratdyck.perms import dyck1, dyck2, dyck3, rsk_path
from ratdyck.promotion import (
    dual_evacuation,
    dual_evacuation_fast,
    dual_promotion,
    evacuation,
    evacuation_fast,
    promotion,
)
from ratdyck.registry import IDENTITIES, default_suite, verify
from ratdyck.rowmotion import (
    dual_rowvacuation,
    rowmotion,
    rowmotion_inverse,
    rowvacuation,
)
from ratdyck.tilings import dt_map, kappa, max_tiling, rsk_hat_inverse, rsk_hat_path

# every map that carries the memo decorator, by the type it takes
PATH_MAPS = [
    pm, dpm,
    promotion, dual_promotion, evacuation, dual_evacuation, evacuation_fast,
    dual_evacuation_fast,
    rowmotion, rowmotion_inverse, rowvacuation, dual_rowvacuation,
    mat, mat_inverse, dyck_to_ncp,
    rsk_path, dyck1, dyck2, dyck3,
    rsk_hat_path, rsk_hat_inverse, max_tiling, dt_map, kappa,
]
CHAIN_MAPS = [ncp_to_dyck, rot, ref, kre, kre_inverse, su, lk]
PARTITION_MAPS = [rot_partition, ref_partition, kre_partition, su_partition, lk_partition]


def _image(f, x):
    """The image, or the type of the error a map outside its domain raises."""
    try:
        return f(x)
    except ValueError as exc:
        return type(exc)


def _calls(p):
    calls = [(f, p) for f in PATH_MAPS]
    if p.slope.a == 1:
        chain = dyck_to_ncp(p)
        calls += [(f, chain) for f in CHAIN_MAPS]
        calls += [(f, layer) for f in PARTITION_MAPS for layer in chain.layers]
    return calls


@pytest.mark.parametrize("a,b,n", [(1, 1, 5), (1, 2, 3), (2, 3, 2), (3, 2, 2)])
def test_scoped_images_equal_unscoped_images(a, b, n):
    slope = Slope(a, b, n)
    expected = {(f, x): _image(f, x) for p in enumerate_paths(slope) for f, x in _calls(p)}
    with image_scope():
        # all maps on one path before the next path: a memo keyed by the
        # argument alone would hand one map's image to the next
        for p in enumerate_paths(slope):
            for f, x in _calls(p):
                got = _image(f, x)
                assert got == expected[f, x], (f.__name__, str(x))
                if not isinstance(got, type):
                    # kre_inverse and su_partition hand back an inner map's
                    # stored image, so look in the map's own table too
                    assert f(x) is got, f"{f.__name__} is not memoized"
                    assert x in paths._images.tables[f.__wrapped__], f.__name__


@pytest.mark.parametrize("outcome", ["returns", "raises"])
def test_scope_closes_when_the_suite_ends(monkeypatch, outcome):
    p = path_from_steps(Slope(1, 2, 3), (1, 4, 7))
    ident = IDENTITIES["young-roundtrip"]

    def check(slope):
        mat(p)
        if outcome == "raises":
            raise InvariantError("broken on purpose")
        return ident.check(slope)

    monkeypatch.setitem(IDENTITIES, ident.name, replace(ident, check=check))
    if outcome == "raises":
        with pytest.raises(InvariantError, match="broken on purpose"):
            default_suite(max_n=1)
    else:
        assert default_suite(max_n=1)
    assert paths._images is None
    # outside any scope the map runs again, so a broken kernel shows (every
    # block of a (1,k) path has the forced size, checked by window arithmetic)
    monkeypatch.setattr(matching_map, "window_arithmetic", lambda *args: None)
    with pytest.raises(InvariantError, match="no admissible block"):
        mat(p)


def test_enumeration_inside_a_scope_is_a_fresh_list_of_shared_paths():
    slope = Slope(2, 3, 2)
    plain = enumerate_paths(slope)
    with image_scope():
        first = enumerate_paths(slope)
        second = enumerate_paths(slope)
        assert first == plain and second == plain
        assert first is not second
        assert all(x is y for x, y in zip(first, second))
        first.clear()
        assert enumerate_paths(slope) == plain
        # an inner scope (as verify opens) leaves the outer one open
        verify("young-roundtrip", slope)
        assert enumerate_paths(slope)[0] is second[0]
    assert enumerate_paths(slope)[0] is not second[0]


def test_suite_reports_match_verify_on_its_own():
    for report in default_suite(max_n=3):
        alone = verify(report.identity, Slope(report.a, report.b, report.n))
        assert replace(alone, seconds=0.0) == replace(report, seconds=0.0)
