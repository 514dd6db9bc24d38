import pytest

from ratdyck.matching_map import admissible, k_sequence, mat, mat_inverse
from ratdyck.matchings import pm
from ratdyck.paths import Slope, enumerate_paths, path_from_steps, path_from_word
from ratdyck.promotion import dual_promotion
from ratdyck.rowmotion import rowmotion


def s(p):
    return "".join(str(u) for u in p.steps)


def test_k_sequence_worked_examples():
    p = path_from_word(Slope(1, 1, 5), "URUURURRUR")
    assert str(k_sequence(p)) == "2,4,~3,5,~5"
    assert str(k_sequence(path_from_steps(Slope(1, 2, 3), [1, 4, 7]))) == "3,5,~3"
    assert str(k_sequence(path_from_steps(Slope(2, 3, 2), [1, 3, 5, 6]))) == "~1,5,6,~4"


def test_mat_worked_examples():
    p = path_from_word(Slope(1, 1, 5), "URUURURRUR")
    q = mat(p)
    assert q.word == "URURUURURR"
    assert pm(q).blocks == ((1, 2), (3, 4), (5, 10), (6, 7), (8, 9))
    assert s(mat(path_from_steps(Slope(1, 2, 3), [1, 4, 7]))) == "146"
    assert pm(mat(path_from_steps(Slope(1, 2, 3), [1, 4, 7]))).blocks == (
        (1, 2, 3), (4, 5, 9), (6, 7, 8),
    )
    assert s(mat(path_from_steps(Slope(2, 3, 2), [1, 3, 5, 6]))) == "1347"


def test_mat_small_slope_orbits():
    seq = {s(p): s(mat(p)) for p in enumerate_paths(Slope(1, 2, 2))}
    assert seq == {"14": "14", "13": "12", "12": "13"}
    seq = {
        ",".join(map(str, p.steps)): ",".join(map(str, mat(p).steps))
        for p in enumerate_paths(Slope(2, 1, 2))
    }
    assert seq == {
        "1,2,4,5": "1,2,3,4",
        "1,2,3,4": "1,2,3,5",
        "1,2,3,5": "1,2,4,5",
    }


def test_mat_inverse_worked_examples():
    assert s(mat_inverse(path_from_steps(Slope(1, 2, 3), [1, 4, 6]))) == "147"
    assert (
        ",".join(map(str, mat_inverse(path_from_steps(Slope(2, 3, 2), [1, 3, 4, 7])).steps))
        == "1,3,5,6"
    )


def test_admissible_worked_examples():
    slope = Slope(2, 3, 2)
    assert not admissible(slope, [10, 1])
    assert admissible(slope, [10, 1, 2])
    assert not admissible(slope, [10, 1, 2, 3])
    # the blocks built before: (1, 2, 10), then (4, 5)
    assert admissible(slope, [5, 4])
    assert not admissible(slope, [5, 4, 3])
    assert not admissible(slope, [6, 3])
    assert admissible(slope, [6, 3, 9])
    assert not admissible(slope, [6, 3, 9, 8])


def test_admissible_single_up_run():
    # one up step with floor(b/a) rights closes a window when a <= b
    assert admissible(Slope(1, 2, 2), [1, 2, 3])
    assert not admissible(Slope(1, 2, 2), [1, 2])
    assert admissible(Slope(2, 3, 2), [5, 4])
    assert admissible(Slope(2, 1, 2), [6])


@pytest.mark.parametrize(
    "a,b,nmax",
    [(1, 1, 6), (1, 2, 4), (1, 3, 3), (2, 3, 2), (3, 2, 2), (2, 5, 2), (2, 1, 3)],
)
def test_mat_bijection_and_rowmotion_commutation(a, b, nmax):
    for n in range(1, nmax + 1):
        slope = Slope(a, b, n)
        for p in enumerate_paths(slope):
            q = mat(p)
            assert mat_inverse(q) == p
            assert mat(mat_inverse(p)) == p
            assert mat(rowmotion(p)) == dual_promotion(q)
