import pytest

from ratdyck.noncrossing import (
    NonCrossingChain,
    NonCrossingPartition,
    dyck_to_ncp,
    enumerate_chains,
    enumerate_ncps,
    kre,
    kre_inverse,
    kre_partition,
    lift,
    lk,
    lk_partition,
    ncp,
    ncp_to_dyck,
    parse_chain,
    parse_ncp,
    rank,
    ref,
    ref_partition,
    rot,
    rot_inverse,
    rot_partition,
    su,
    su_partition,
)
from ratdyck.paths import Slope, enumerate_paths, iterate, path_from_steps
from ratdyck.promotion import dual_promotion, evacuation_fast, promotion
from ratdyck.registry import CHAIN_MAPS


def test_partition_validation():
    with pytest.raises(ValueError):
        ncp(4, [(1, 3), (2, 4)])
    # an empty block has no minimum; it sorts first and breaks the ordering
    with pytest.raises(ValueError, match="^blocks must be ordered by minimum$"):
        ncp(3, [(), (1, 2, 3)])
    assert str(parse_ncp("1.3/2/4.5.7/6")) == "1.3/2/4.5.7/6"


def test_chain_validation():
    with pytest.raises(ValueError):
        parse_chain("1.2/3;1.2.3")  # second layer does not refine the first
    chain = parse_chain("1.2.3;1.2/3;1/2/3")
    assert chain.k == 3 and chain.n == 3
    assert chain.weight(1, 2) == 2 and chain.weight(1, 3) == 1 and chain.weight(2, 3) == 1


def test_enumeration_counts():
    assert [len(enumerate_ncps(n)) for n in range(1, 6)] == [1, 2, 5, 14, 42]
    assert len(enumerate_chains(3, 2)) == 12  # matches the path count
    assert len(enumerate_chains(4, 2)) == 55


def test_chain_to_path_worked_examples():
    assert ncp_to_dyck(parse_chain("1.3/2/4.5.7/6")).word == "UUURRRUURUURRR"
    assert ncp_to_dyck(parse_chain("1.2.3.4;2.3.4/1;2.3/1/4")).steps == (1, 4, 6, 11)
    assert ncp_to_dyck(parse_chain("1.2.3.4;1.4/2.3;1.4/2/3")).steps == (1, 2, 4, 7)


@pytest.mark.parametrize("k,nmax", [(1, 6), (2, 4), (3, 3)])
def test_bijection_roundtrip(k, nmax):
    for n in range(1, nmax + 1):
        for c in enumerate_chains(n, k):
            assert dyck_to_ncp(ncp_to_dyck(c)) == c


def test_map_worked_examples():
    pi = parse_ncp("1.3/2/4.5.7/6")
    assert str(rot_partition(pi)) == "1/2.7/3.4.6/5"
    assert str(ref_partition(pi)) == "1.3.4/2/5.7/6"
    assert str(kre_partition(pi)) == "1.2/3.7/4/5.6"
    assert str(su_partition(pi)) == "1.5/2.3/4/6.7"
    assert str(lk_partition(pi)) == "1.2/3/4.7/5.6"
    single = parse_ncp("1.2.3")
    assert rot_partition(single) == single
    assert str(su(parse_chain("1.2.3.4;1.4/2.3;1.4/2/3"))) == "1/2.3.4;1/2.4/3;1/2/3/4"


def test_rank_examples():
    assert rank(parse_ncp("1.2.3")) == 2
    assert rank(parse_ncp("1/2/3")) == 0
    for n in range(2, 7):
        for pi in enumerate_ncps(n):
            for f in (kre_partition, su_partition, lk_partition):
                assert rank(pi) + rank(f(pi)) == n - 1


@pytest.mark.parametrize("k,nmax", [(1, 6), (2, 4), (3, 3)])
def test_group_relations(k, nmax):
    for n in range(2, nmax + 1):
        for c in enumerate_chains(n, k):
            assert kre(kre(c)) == rot(c)
            assert su(su(c)) == c
            assert lk(lk(c)) == c
            assert ref(ref(c)) == c
            assert lk(su(c)) == rot(c)
            assert kre(c) == ref(su(c))
            assert kre(kre_inverse(c)) == c
            r = c
            for _ in range(n):
                r = rot(r)
            assert r == c


@pytest.mark.parametrize("k,nmax", [(1, 7), (2, 5), (3, 4)])
def test_rot_inverse_undoes_rot(k, nmax):
    for n in range(1, nmax + 1):
        for c in enumerate_chains(n, k):
            assert rot(rot_inverse(c)) == c
            assert rot_inverse(rot(c)) == c
    # `apply --map rot --power -1` takes the direct inverse
    assert CHAIN_MAPS["rot"] == (rot, rot_inverse)


def test_kre_reverses_refinement():
    for c in enumerate_chains(4, 3):
        images = [kre_partition(layer) for layer in c.layers]
        for finer, coarser in zip(images, images[1:]):
            assert finer.refines(coarser)


def test_lift_worked_examples():
    chain = parse_chain("1.2.3.4;2.4/1/3")
    lifted = lift(chain)
    assert str(lifted) == "1.4/2.3;1.4/2.3"
    assert ncp_to_dyck(chain).steps == (1, 3, 5, 6)
    assert ncp_to_dyck(lifted).steps == (1, 2, 4, 5)
    singles = parse_chain("1/2/3;1/2/3;1/2/3")
    assert str(lift(singles)) == "1.2.3;1/2/3;1/2/3"


@pytest.mark.parametrize("k,nmax", [(1, 6), (2, 5), (3, 4)])
def test_lift_matches_promotion_extended(k, nmax):
    for n in range(1, nmax + 1):
        for p in enumerate_paths(Slope(1, k, n)):
            assert ncp_to_dyck(lift(dyck_to_ncp(p))) == promotion(p)


@pytest.mark.parametrize("k,nmax", [(1, 5), (2, 4), (3, 3)])
def test_conjugation_identities(k, nmax):
    for n in range(1, nmax + 1):
        for p in enumerate_paths(Slope(1, k, n)):
            chain = dyck_to_ncp(p)
            assert ncp_to_dyck(rot(chain)) == iterate(promotion, dual_promotion, p, k + 1)
            assert ncp_to_dyck(su(chain)) == evacuation_fast(promotion(p))
            assert ncp_to_dyck(lk(chain)) == evacuation_fast(
                iterate(promotion, dual_promotion, p, -k)
            )
            assert ncp_to_dyck(lift(chain)) == promotion(p)
            if k == 1:
                assert ncp_to_dyck(kre(chain)) == promotion(p)


def test_kre_partition_orbit():
    x = parse_ncp("1.2/3", 3)
    seen = [str(x)]
    for _ in range(3):
        x = kre_partition(x)
        seen.append(str(x))
    assert seen == ["1.2/3", "1/2.3", "1.3/2", "1.2/3"]
