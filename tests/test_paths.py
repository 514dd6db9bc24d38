import ast
import itertools
import pathlib
import pickle

import pytest

import ratdyck
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
    region_rows,
    star,
    star_path,
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


DESK_SLOPES = [
    (1, 1, 6), (1, 2, 4), (1, 3, 3), (2, 3, 3), (3, 2, 3), (2, 5, 2), (5, 3, 2), (2, 1, 4),
]


@pytest.mark.parametrize("a,b,n", DESK_SLOPES)
def test_star_path_is_the_tableau_star(a, b, n):
    for p in enumerate_paths(Slope(a, b, n)):
        assert star_path(p) == from_tableau(star(to_tableau(p)))
        assert star_path(p).slope == Slope(b, a, n)


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


@pytest.mark.parametrize(
    "rows,message",
    [
        ((4, 2), "expected 3 rows, got 2"),
        ((0, 0, 0, 0), "expected 3 rows, got 4"),
        ((-1,), "expected 3 rows, got 1"),
        ((1, 0, -1), "rows must be non-negative and weakly decreasing: (1, 0, -1)"),
        ([0, 1, 0], "rows must be non-negative and weakly decreasing: (0, 1, 0)"),
        # negative and over the staircase: the sign rule is reported
        ((9, 0, -1), "rows must be non-negative and weakly decreasing: (9, 0, -1)"),
        ((5, 2, 0), "rows (5, 2, 0) do not fit inside the staircase (4, 2, 0)"),
        ((4, 3, 0), "rows (4, 3, 0) do not fit inside the staircase (4, 2, 0)"),
        ((4, 2, 1), "rows (4, 2, 1) do not fit inside the staircase (4, 2, 0)"),
    ],
)
def test_path_from_young_rows_messages(rows, message):
    with pytest.raises(ValueError) as info:
        path_from_young_rows(Slope(1, 2, 3), rows)
    assert str(info.value) == message


def young_rows_reference(slope, rows):
    """Check the rows in three scans, then build the path."""
    rows = tuple(rows)
    an = slope.up_count
    if len(rows) != an:
        raise ValueError(f"expected {an} rows, got {len(rows)}")
    if any(r < 0 for r in rows) or any(x < y for x, y in zip(rows, rows[1:])):
        raise ValueError(f"rows must be non-negative and weakly decreasing: {rows}")
    staircase = region_rows(slope)
    if any(r > cap for r, cap in zip(rows, staircase)):
        raise ValueError(f"rows {rows} do not fit inside the staircase {staircase}")
    return RationalDyckPath(slope, tuple(rows[an - j] + j for j in range(1, an + 1)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("a,b,n", [(1, 2, 3), (2, 3, 2), (3, 2, 1), (2, 1, 2)])
def test_path_from_young_rows_matches_three_scans(a, b, n):
    # every row tuple one short, exact and one long, each row from -1 to
    # one past the longest staircase row
    slope = Slope(a, b, n)
    values = range(-1, max(region_rows(slope)) + 2)
    for length in (slope.up_count - 1, slope.up_count, slope.up_count + 1):
        for rows in itertools.product(values, repeat=length):
            assert _outcome(path_from_young_rows, slope, rows) == _outcome(
                young_rows_reference, slope, rows)


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
    # the constructor's own verdict, not a copy of its bound
    slope = Slope(a, b, n)
    for word in enumerate_words(slope):
        try:
            RationalDyckPath(slope, word)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == word_above_line(slope, word), word


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


# the kernels whose docstrings prove their images valid: each may build them
# unchecked, through any _caller_checked (of paths, of partitions and
# matchings, or of chains), and nothing else may
CALLER_CHECKED = {("promotion.py", "toggle"), ("promotion.py", "_toggle_runs"),
                  ("rowmotion.py", "_sweep"), ("paths.py", "enumerate_paths"),
                  ("matchings.py", "pm"), ("matchings.py", "dpm"),
                  ("noncrossing.py", "_rotated"), ("noncrossing.py", "_reflected"),
                  ("noncrossing.py", "enumerate_ncps"), ("noncrossing.py", "enumerate_chains"),
                  ("noncrossing.py", "ncp_to_dyck")}


def unchecked_uses(tree):
    return {id(node) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_caller_checked"}


def test_only_the_proven_kernels_build_unchecked_paths():
    callers = set()
    for f in pathlib.Path(ratdyck.__file__).parent.rglob("*.py"):
        tree = ast.parse(f.read_text())
        inside = set()
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and unchecked_uses(fn):
                callers.add((f.name, fn.name))
                inside |= unchecked_uses(fn)
        assert inside == unchecked_uses(tree), f"{f.name} uses it outside a function"
    assert callers == CALLER_CHECKED


# the bound slot setters, by module and class: each sets one slot past the
# immutability guard, so only that class's two builders may call it
SLOT_SETTERS = {("paths.py", "RationalDyckPath"): {"_set_slope", "_set_steps", "_set_hash"},
                ("noncrossing.py", "NonCrossingPartition"): {"_set_n", "_set_blocks",
                                                             "_set_hash"}}


def test_slot_setters_are_called_only_by_their_own_builders():
    found = {}
    for f in pathlib.Path(ratdyck.__file__).parent.rglob("*.py"):
        tree = ast.parse(f.read_text())
        # the setters, each bound at top level as _set_x = Class.x.__set__
        owner, allowed = {}, set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id.startswith("_set_") for t in node.targets):
                [target], value = node.targets, node.value
                assert (isinstance(value, ast.Attribute) and value.attr == "__set__"
                        and isinstance(value.value, ast.Attribute)
                        and isinstance(value.value.value, ast.Name)
                        and target.id == "_set_" + value.value.attr.lstrip("_")), ast.unparse(node)
                owner[target.id] = value.value.value.id
                found.setdefault((f.name, owner[target.id]), set()).add(target.id)
                allowed |= {id(n) for n in ast.walk(node)}
        # the uses allowed: each class's setters in its __init__ and
        # _caller_checked, and each of the two sets every one of them
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            own = {name for name, c in owner.items() if c == cls.name}
            builders = [fn for fn in cls.body if isinstance(fn, ast.FunctionDef)
                        and fn.name in ("__init__", "_caller_checked")]
            for fn in builders:
                uses = [n for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id in own]
                assert {n.id for n in uses} == own, f"{cls.name}.{fn.name}"
                allowed |= {id(n) for n in uses}
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else "")
            if name.startswith("_set_") or name == "__set__":
                assert id(node) in allowed, f"{f.name}:{getattr(node, 'lineno', '?')} uses {name}"
    assert found == SLOT_SETTERS


def test_an_unchecked_path_is_validated_when_unpickled():
    slope = Slope(1, 1, 2)
    p = RationalDyckPath._caller_checked(slope, (1, 3))
    assert p == path_from_steps(slope, [1, 3]) and hash(p) == hash(path_from_steps(slope, [1, 3]))
    assert pickle.loads(pickle.dumps(p)) == p
    bad = RationalDyckPath._caller_checked(slope, (3, 4))
    with pytest.raises(ValueError, match="step 1 at position 3 exceeds bound 1"):
        pickle.loads(pickle.dumps(bad))
