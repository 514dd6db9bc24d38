import pickle

import pytest

from ratdyck.paths import (
    RationalDyckPath,
    Slope,
    count_paths,
    count_paths_dp,
    enumerate_paths,
    enumerate_words,
    from_tableau,
    is_prime,
    lowest_path,
    path_from_steps,
    path_from_word,
    path_from_young_rows,
    star,
    star_path,
    steps_within_bound,
    to_tableau,
    top_path,
    word_above_line,
    young_rows,
)


def test_slope_validation():
    with pytest.raises(ValueError):
        Slope(2, 4, 1)
    with pytest.raises(ValueError):
        Slope(1, 1, 0)
    with pytest.raises(ValueError):
        Slope(0, 1, 1)


def test_path_from_steps_examples():
    p = path_from_steps(Slope(1, 1, 3), [1, 3, 5])
    assert p.word == "URURUR"
    path_from_steps(Slope(1, 2, 3), [1, 2, 6])
    with pytest.raises(ValueError):
        path_from_steps(Slope(1, 1, 2), [2, 3])
    with pytest.raises(ValueError):
        path_from_steps(Slope(1, 1, 2), [1, 1])
    with pytest.raises(ValueError):
        path_from_steps(Slope(1, 1, 2), [1])


def test_enumeration_examples():
    seqs = {p.steps for p in enumerate_paths(Slope(1, 1, 3))}
    assert seqs == {(1, 3, 5), (1, 3, 4), (1, 2, 5), (1, 2, 4), (1, 2, 3)}
    assert len(enumerate_paths(Slope(1, 2, 3))) == 12
    assert [p.steps for p in enumerate_paths(Slope(1, 1, 1))] == [(1,)]


def test_count_examples():
    assert [count_paths(Slope(1, 1, n)) for n in range(1, 6)] == [1, 2, 5, 14, 42]
    assert count_paths(Slope(2, 3, 2)) == 23
    assert count_paths(Slope(1, 2, 3)) == 12


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 3), (3, 2), (2, 1), (3, 4)])
def test_count_matches_dp_and_enumeration(a, b):
    for n in range(1, 4):
        slope = Slope(a, b, n)
        assert count_paths(slope) == count_paths_dp(slope) == len(enumerate_paths(slope))


def test_tableau_examples():
    t = to_tableau(path_from_steps(Slope(1, 1, 3), [1, 2, 5]))
    assert t.first_row == (1, 2, 5) and t.second_row == (3, 4, 6)
    t = to_tableau(path_from_steps(Slope(1, 2, 3), [1, 3, 5]))
    assert t.first_row == (1, 3, 5) and t.second_row == (2, 4, 6, 7, 8, 9)
    t = to_tableau(top_path(Slope(2, 3, 2)))
    assert t.first_row == (1, 2, 3, 4) and t.second_row == tuple(range(5, 11))


def test_star_examples():
    t = to_tableau(path_from_steps(Slope(2, 3, 2), [1, 2, 5, 7]))
    s = star(t)
    assert s.slope == Slope(3, 2, 2)
    assert s.second_row == (4, 6, 9, 10)
    assert s.first_row == (1, 2, 3, 5, 7, 8)
    assert star(s) == t
    p = path_from_steps(Slope(1, 1, 3), [1, 3, 5])
    assert star_path(p).steps == (1, 3, 5)


@pytest.mark.parametrize("a,b,n", [(1, 1, 4), (1, 2, 3), (2, 3, 2), (3, 2, 2)])
def test_star_involution_and_tableau_roundtrip(a, b, n):
    for p in enumerate_paths(Slope(a, b, n)):
        t = to_tableau(p)
        assert from_tableau(t) == p
        assert star(star(t)) == t


def test_young_rows_examples():
    assert young_rows(path_from_steps(Slope(1, 2, 3), [1, 4, 7])) == (4, 2, 0)
    assert young_rows(path_from_steps(Slope(1, 2, 3), [1, 2, 6])) == (3, 0, 0)
    assert young_rows(top_path(Slope(2, 3, 2))) == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        path_from_young_rows(Slope(1, 2, 3), (0, 2, 0))
    with pytest.raises(ValueError):
        path_from_young_rows(Slope(1, 2, 3), (5, 0, 0))


@pytest.mark.parametrize("a,b,n", [(1, 1, 5), (1, 2, 3), (2, 3, 2)])
def test_young_rows_roundtrip(a, b, n):
    for p in enumerate_paths(Slope(a, b, n)):
        assert path_from_young_rows(p.slope, young_rows(p)) == p


def test_is_prime_examples():
    assert is_prime(path_from_steps(Slope(1, 1, 3), [1, 2, 3]))
    assert not is_prime(path_from_steps(Slope(1, 1, 3), [1, 3, 5]))
    assert not is_prime(lowest_path(Slope(2, 3, 2)))


@pytest.mark.parametrize("a,b,n", [(1, 1, 3), (1, 2, 2), (2, 3, 1), (2, 1, 2), (3, 2, 1)])
def test_step_bound_equals_geometry(a, b, n):
    slope = Slope(a, b, n)
    for word in enumerate_words(slope):
        assert steps_within_bound(slope, word) == word_above_line(slope, word)


def test_word_roundtrip():
    p = path_from_word(Slope(2, 3, 2), "UURRURURRR")
    assert p.steps == (1, 2, 5, 7)
    assert p.word == "UURRURURRR"


def test_cached_hash_changes_no_value_repr_or_pickle():
    p = RationalDyckPath(Slope(2, 3, 2), (1, 2, 5, 7))
    fresh = pickle.dumps(p)
    assert hash(p) == hash((Slope(2, 3, 2), (1, 2, 5, 7)))
    assert hash(p.slope) == hash((2, 3, 2))
    assert pickle.dumps(p) == fresh  # the cached hash stays out of pickles
    q = pickle.loads(fresh)
    assert q == p and hash(q) == hash(p)
    assert repr(q) == "RationalDyckPath(slope=Slope(a=2, b=3, n=2), steps=(1, 2, 5, 7))"
