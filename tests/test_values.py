"""The contract every value class keeps: frozen fields, equality within one
class, hashing, a dataclass-style repr and pickling through the
constructor."""

import pickle

import pytest

from ratdyck.matching_map import BarInt, BarSequence
from ratdyck.matchings import PerfectMatching
from ratdyck.noncrossing import NonCrossingChain, NonCrossingPartition
from ratdyck.paths import ABTableau, RationalDyckPath, Slope
from ratdyck.perms import Permutation321
from ratdyck.rowmotion import BoxRegion
from ratdyck.tilings import DyckTile, Tiling

S = Slope(2, 3, 2)
P = RationalDyckPath(S, (1, 2, 5, 7))
Q = RationalDyckPath(S, (1, 2, 3, 4))
A = NonCrossingPartition(3, ((1, 2), (3,)))
B = NonCrossingPartition(3, ((1,), (2, 3)))
T = DyckTile(((1, 1), (1, 2)), 1)

# class, its fields in order, and the fields of two different objects
CASES = [
    (Slope, ("a", "b", "n"), (2, 3, 2), (3, 2, 2)),
    (RationalDyckPath, ("slope", "steps"), (S, (1, 2, 5, 7)), (S, (1, 2, 3, 4))),
    (ABTableau, ("slope", "first_row", "second_row"),
     (S, (1, 2, 5, 7), (3, 4, 6, 8, 9, 10)), (S, (1, 2, 3, 4), (5, 6, 7, 8, 9, 10))),
    (NonCrossingPartition, ("n", "blocks"), (3, ((1, 2), (3,))), (3, ((1,), (2, 3)))),
    (PerfectMatching, ("n", "blocks"), (4, ((1, 2), (3, 4))), (4, ((1, 4), (2, 3)))),
    (NonCrossingChain, ("k", "layers"), (2, (A, A)), (2, (A, NonCrossingPartition(3, ((1,), (2,), (3,)))))),
    (BarInt, ("value", "barred"), (3, False), (3, True)),
    (BarSequence, ("entries",), ((BarInt(3, False),),), ((BarInt(3, True),),)),
    (DyckTile, ("cells", "size"), (((1, 1), (1, 2)), 1), (((1, 1),), 1)),
    (Tiling, ("base_path", "tiles"), (P, (T,)), (Q, (T,))),
    (Permutation321, ("values",), ((2, 1, 3),), ((1, 3, 2),)),
    (BoxRegion, ("slope",), (Slope(1, 1, 3),), (Slope(1, 2, 3),)),
]


@pytest.mark.parametrize("cls,fields,values,other", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_class_contract(cls, fields, values, other):
    x, y, z = cls(*values), cls(*values), cls(*other)
    assert not hasattr(cls, "__dataclass_fields__")  # no generated methods
    assert not hasattr(x, "__dict__")  # slots only

    for name in fields:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = None
    assert tuple(getattr(x, f) for f in fields) == values

    assert x == y and not x != y and hash(x) == hash(y)
    assert x != z and not x == z
    assert x != values  # not even to its own field tuple

    assert repr(x) == f"{cls.__name__}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"

    assert x.__reduce__() == (cls, values)  # pickles go through __init__
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(x, protocol))
        assert type(back) is cls and back == x and hash(back) == hash(x)


def test_equal_only_within_one_class():
    # a matching never equals a partition with the same blocks
    m = PerfectMatching(3, ((1, 2), (3,)))
    assert m != A and A != m and not m == A
    assert {m, A} == {m, A} and len({m, A}) == 2


def test_hot_classes_hash_as_their_field_tuples():
    assert hash(S) == hash((2, 3, 2))
    assert hash(P) == hash((S, (1, 2, 5, 7)))
    assert hash(A) == hash((3, ((1, 2), (3,))))
    assert hash(PerfectMatching(4, ((1, 4), (2, 3)))) == hash((4, ((1, 4), (2, 3))))
    assert hash(NonCrossingChain(2, (A, A))) == hash((2, (A, A)))
    assert hash(Permutation321((2, 1, 3))) == hash(((2, 1, 3),))


# a path, a partition and a matching, each built by its constructor and by
# the unchecked builder, which sets the same slots through bound descriptors
BUILDS = [
    (RationalDyckPath, (S, (1, 2, 5, 7))),
    (NonCrossingPartition, (3, ((1, 2), (3,)))),
    (PerfectMatching, (4, ((1, 4), (2, 3)))),
]


@pytest.mark.parametrize("cls,values", BUILDS, ids=[c[0].__name__ for c in BUILDS])
def test_unchecked_builds_keep_the_value_contract(cls, values):
    x, y = cls(*values), cls._caller_checked(*values)
    assert type(y) is cls and y == x
    slots = [s for klass in cls.__mro__ for s in getattr(klass, "__slots__", ())]
    for v in (x, y):
        for name in slots:
            with pytest.raises(AttributeError):
                setattr(v, name, None)
            with pytest.raises(AttributeError):
                delattr(v, name)
    if "_hash" in slots:  # computed on first use, never at build time
        assert x._hash is None and y._hash is None
        assert hash(y) == y._hash
    assert hash(y) == hash(x)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(y, protocol) == pickle.dumps(x, protocol)


def unchecked_chain(k, layers):
    """A chain whose layers are built by the unchecked builder."""
    return NonCrossingChain(k, tuple(NonCrossingPartition._caller_checked(x.n, x.blocks)
                                     for x in layers))


# a partition, a matching and a chain, each built unchecked (a chain from
# unchecked layers) and by its constructor: the hash cached on first use
HASHED = [
    (NonCrossingPartition._caller_checked, NonCrossingPartition, (3, ((1, 2), (3,)))),
    (PerfectMatching._caller_checked, PerfectMatching, (4, ((1, 4), (2, 3)))),
    (unchecked_chain, NonCrossingChain, (2, (A, NonCrossingPartition(3, ((1,), (2,), (3,)))))),
]


@pytest.mark.parametrize("build,cls,values", HASHED, ids=[c[1].__name__ for c in HASHED])
def test_cached_hashes_match_fresh_values_and_stay_out_of_pickles(build, cls, values):
    x = build(*values)
    unhashed = pickle.dumps(x)
    assert x._hash is None
    assert hash(x) == x._hash == hash(cls(*values)) == hash(values)
    assert pickle.dumps(x) == unhashed  # the cached hash stays out of pickles
    back = pickle.loads(unhashed)
    assert type(back) is cls and back == x and back._hash is None
    assert hash(back) == hash(x)
