import json
import os
import re
import subprocess
import sys

import pytest

import ratdyck
from ratdyck import golden, matching_map, paths, promotion, registry
from ratdyck.cli import main
from ratdyck.golden import golden_suite
from ratdyck.matchings import pm
from ratdyck.noncrossing import parse_chain
from ratdyck.paths import InvariantError, Slope, count_paths_dp, path_from_steps, top_path
from ratdyck.registry import IDENTITIES, apply_map, orbit_table, verify


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_verify_single_identity():
    report = verify("mat-rowmotion", Slope(2, 3, 2))
    assert report.status == "pass" and report.domain_size == 23
    report = verify("ev-star", Slope(1, 1, 4))
    assert report.status == "pass"


def test_verify_negative_control():
    report = verify("pm-rot", Slope(2, 3, 1))
    assert report.status == "fail" and report.expected == "fail" and report.ok
    assert report.counterexamples


def test_counterexample_shows_both_sides():
    # the path, then the matching of its promotion and its rotated matching
    report = verify("pm-rot", Slope(2, 3, 1))
    assert report.counterexamples == ["1,2: lhs={1,2,5},{3,4} rhs={1,2},{3,4,5}"]


def test_compound_row_shows_both_tuples(monkeypatch):
    # with promotion standing in for its inverse, both round trips are
    # promotion squared, and each side prints as a tuple of paths
    monkeypatch.setattr(promotion, "dual_promotion", promotion.promotion)
    report = verify("promotion-inverse", Slope(1, 2, 2))
    assert report.status == "fail" and report.domain_size == 3
    assert report.counterexamples == [
        "1,2: lhs=(1,3, 1,3) rhs=(1,2, 1,2)",
        "1,3: lhs=(1,4, 1,4) rhs=(1,3, 1,3)",
        "1,4: lhs=(1,2, 1,2) rhs=(1,4, 1,4)",
    ]


def test_verify_unknown_or_inapplicable():
    with pytest.raises(KeyError):
        verify("no-such-identity", Slope(1, 1, 2))
    with pytest.raises(ValueError):
        verify("lift-promotion", Slope(2, 3, 1))


def test_orbit_table():
    cycles = orbit_table("promotion", Slope(1, 2, 3))
    assert ["1,2,5", "1,4,7", "1,3,6"] in cycles
    assert len(cycles) == 2
    cycles = orbit_table("rowmotion", Slope(1, 2, 3))
    assert ["1,2,6", "1,4,5", "1,3,7"] in cycles
    cycles = orbit_table("mat", Slope(1, 2, 3))
    assert sorted(len(c) for c in cycles) == [1, 1, 3, 7]


def test_apply_map_powers():
    slope = Slope(1, 2, 3)
    p = path_from_steps(slope, (1, 4, 6))
    assert apply_map("promotion", slope, p, 1).steps == (1, 3, 5)
    assert apply_map("promotion", slope, p, -1).steps == (1, 2, 7)
    assert apply_map("toggle:3", slope, path_from_steps(slope, (1, 4, 7)), 1).steps == (1, 3, 7)


def test_apply_map_power_past_the_orbit_length():
    # promotion has order 8 on (1,1,4), and rot order 7 on a 7-element chain
    slope = Slope(1, 1, 4)
    p = path_from_steps(slope, (1, 2, 3, 4))
    q = path_from_steps(slope, (1, 3, 4, 6))
    assert apply_map("promotion", slope, p, 10**12) == p
    assert apply_map("promotion", slope, q, 10**12 + 3) == apply_map("promotion", slope, q, 3)
    assert apply_map("promotion", slope, q, -(10**12) - 3) == apply_map("promotion", slope, q, 5)
    chain = parse_chain("1.4/2.3/5/6.7", 7)
    assert apply_map("rot", Slope(1, 1, 7), chain, 10**12) == apply_map(
        "rot", Slope(1, 1, 7), chain, 10**12 % 7)


def test_cli_apply_huge_power(capsys):
    code, out, _ = run(capsys, "apply", "--map", "promotion", "--power", "1000000000000",
                       "--a", "1", "--b", "1", "--n", "4", "--path", "1,2,3,4")
    assert code == 0 and out == "1,2,3,4"


def test_golden_suite_passes():
    reports = golden_suite()
    assert len(reports) == 12
    assert all(r.status == "pass" for r in reports)


def test_every_identity_has_summary():
    for name, ident in IDENTITIES.items():
        assert ident.summary, name


def test_cli_count_and_enum(capsys):
    code, out, _ = run(capsys, "count", "--a", "2", "--b", "3", "--n", "2")
    assert code == 0 and out == "23"
    code, out, _ = run(capsys, "enum", "--a", "1", "--b", "1", "--n", "3")
    assert code == 0 and len(out.splitlines()) == 5
    code, out, _ = run(capsys, "count", "--a", "1", "--b", "1", "--n", "5",
                       "--format", "json")
    assert code == 0 and json.loads(out)["count"] == 42


@pytest.mark.parametrize("a,n,paths", [(1000, 1, 1), (499, 2, 500)])
def test_cli_enumerates_slopes_deeper_than_the_recursion_limit(capsys, a, n, paths):
    # a*n up steps, one enumeration level each: enumeration builds the
    # sequences level by level, where one recursion per up step overflowed
    slope = ("--a", str(a), "--b", "1", "--n", str(n))
    code, out, _ = run(capsys, "enum", *slope)
    assert code == 0 and len(out.splitlines()) == paths == count_paths_dp(Slope(a, 1, n))
    code, out, _ = run(capsys, "orbit", "--map", "promotion", *slope, "--format", "json")
    assert code == 0 and sum(map(len, json.loads(out)["cycles"])) == paths
    code, out, _ = run(capsys, "verify", "--identity", "young-roundtrip", *slope)
    assert code == 0 and out.startswith(f"PASS young-roundtrip ({a},1) n={n} over {paths} objects")


def test_cli_count_beyond_partition_scale(capsys):
    code, out, _ = run(capsys, "count", "--a", "2", "--b", "3", "--n", "60")
    assert code == 0 and out == str(count_paths_dp(Slope(2, 3, 60)))


def test_cli_apply(capsys):
    code, out, _ = run(capsys, "apply", "--map", "evacuation", "--a", "2", "--b", "3",
                       "--n", "2", "--path", "1,2,5,7")
    assert code == 0 and out == "1,2,3,8"
    code, out, _ = run(capsys, "apply", "--map", "kre", "--a", "1", "--b", "1",
                       "--n", "3", "--ncp", "1.2/3")
    assert code == 0 and out == "1/2.3"
    code, out, _ = run(capsys, "apply", "--map", "promotion", "--power", "-1",
                       "--a", "1", "--b", "2", "--n", "3", "--path", "1,3,5")
    assert code == 0 and out == "1,4,6"


def test_cli_bad_input_exit_code(capsys):
    code, _, err = run(capsys, "apply", "--map", "promotion", "--a", "1", "--b", "1",
                       "--n", "2", "--path", "2,3")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "apply", "--map", "no-such-map", "--a", "1", "--b", "1",
                       "--n", "2", "--path", "1,2")
    assert code == 2
    code, _, err = run(capsys, "orbit", "--map", "rsk", "--a", "2", "--b", "3",
                       "--n", "1")
    assert code == 2


@pytest.mark.parametrize("argv,noun,known", [
    (("apply", "--map", "nope", "--a", "1", "--b", "1", "--n", "2", "--path", "1,2"),
     "map", registry.PATH_MAPS),
    (("orbit", "--map", "nope", "--a", "1", "--b", "1", "--n", "2"), "map", registry.PATH_MAPS),
    (("verify", "--identity", "nope"), "identity", IDENTITIES),
])
def test_cli_unknown_name_message(capsys, argv, noun, known):
    # one unquoted line: the KeyError's message, not its repr
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: unknown {noun} 'nope'; known: {sorted(known)}"


@pytest.mark.parametrize("source", [("--path", "1,3,5"), ("--ncp", "1.2/3")])
def test_cli_apply_without_inverse(capsys, source):
    code, out, err = run(capsys, "apply", "--map", "lift", "--power", "-1", "--a", "1",
                         "--b", "1", "--n", "3", *source)
    assert code == 2 and out == ""
    assert err == "error: map 'lift' has no registered inverse"


def test_cli_apply_path_map_to_chain(capsys):
    code, out, err = run(capsys, "apply", "--map", "promotion", "--a", "1", "--b", "1",
                         "--n", "3", "--ncp", "1.2/3")
    assert code == 2 and out == ""
    assert err == "error: map 'promotion' does not act on chains"


def test_cli_invariant_error_exit_code(capsys, monkeypatch):
    # a broken invariant is told apart from bad input: exit 3, one line (every
    # block of a (1,k) path has the forced size, checked by window arithmetic)
    monkeypatch.setattr(matching_map, "window_arithmetic", lambda *args: None)
    code, out, err = run(capsys, "apply", "--map", "mat", "--a", "1", "--b", "2",
                         "--n", "3", "--path", "1,4,7")
    assert code == 3 and out == ""
    assert err.startswith("internal error: no admissible block for entry")
    assert len(err.splitlines()) == 1
    code, _, err = run(capsys, "apply", "--map", "mat", "--a", "1", "--b", "2",
                       "--n", "3", "--path", "1,5,7")
    assert code == 2 and err.startswith("error: ")


def test_mat_blocks_of_no_path_are_an_invariant_error(capsys, monkeypatch):
    # mat checks its blocks against the matching of the path they give; a
    # mismatch is a library defect, exit 3, not the exit 2 of bad input
    monkeypatch.setattr(matching_map, "pm", lambda q: pm(top_path(q.slope)))
    p = path_from_steps(Slope(1, 2, 3), (1, 4, 7))
    with pytest.raises(InvariantError, match="that are no path's matching"):
        matching_map.mat(p)
    code, out, err = run(capsys, "apply", "--map", "mat", "--a", "1", "--b", "2",
                         "--n", "3", "--path", "1,4,7")
    assert code == 3 and out == ""
    assert err == "internal error: matching map built blocks on 1,4,7 that are no path's matching"
    assert len(err.splitlines()) == 1


def test_cli_orbit_and_verify(capsys):
    code, out, _ = run(capsys, "orbit", "--map", "rowmotion", "--a", "1", "--b", "2",
                       "--n", "3")
    assert code == 0 and "1,2,6 -> 1,4,5 -> 1,3,7" in out
    code, out, _ = run(capsys, "verify", "--identity", "mat-rowmotion", "--a", "2",
                       "--b", "3", "--n", "2")
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run(capsys, "verify", "--identity", "pm-rot", "--a", "2",
                       "--b", "3", "--n", "1")
    assert code == 0 and "expected failure" in out


def test_orbit_image_outside_the_slope_is_an_invariant_error(capsys, monkeypatch):
    # a registered map must stay on its slope; leaving it is a library
    # defect.  The orbit table ranks paths by their steps alone, so an image
    # with the steps of a path but on another slope, or no path at all, must
    # be refused as well
    cases = [
        (lambda p: top_path(Slope(p.slope.a, p.slope.b, p.slope.n + 1)), "1,2,3"),
        (lambda p: path_from_steps(Slope(1, 1, 2), (1, 2)), "1,2"),
        (pm, "{1,5,6},{2,3,4}"),
    ]
    for leave, image in cases:
        monkeypatch.setitem(registry.PATH_MAPS, "promotion", registry.PathMap("promotion", leave))
        with pytest.raises(InvariantError):
            orbit_table("promotion", Slope(1, 2, 2))
        code, out, err = run(capsys, "orbit", "--map", "promotion", "--a", "1", "--b", "2",
                             "--n", "2")
        assert code == 3 and out == ""
        assert err == (f"internal error: map 'promotion' sends 1,2 to {image}, "
                       "which is not a path of (1,2) n=2")


@pytest.mark.parametrize("argv", [
    ("enum",),
    ("orbit", "--map", "promotion"),
    ("convert", "--path", "1,2,3,4,5", "--to", "ncp"),
    ("verify", "--identity", "mat-rowmotion"),
    ("apply", "--map", "rot", "--path", "1,2,3,4,5"),
    ("apply", "--map", "lk", "--path", "1,2,3,4,5"),
    ("apply", "--map", "su", "--path", "1,2,3,4,5"),
])
def test_cli_domain_guard(capsys, argv):
    # (1,1) n=5 has 42 paths, and its chain table 42 chains
    slope = ("--a", "1", "--b", "1", "--n", "5")
    code, out, err = run(capsys, *argv, *slope, "--max-domain", "41")
    assert code == 2 and out == ""
    assert err == "error: (1,1) n=5 has more than 41 paths; raise --max-domain to enumerate it"
    code, out, _ = run(capsys, *argv, *slope, "--max-domain", "42")
    assert code == 0 and out


@pytest.mark.parametrize("command", [("orbit", "--map", "mat"), ("enum",),
                                     ("apply", "--map", "mat", "--path", "1,2,3")])
def test_cli_negative_max_domain_is_refused(capsys, command):
    # a negative limit is bad input on every command that takes one, even
    # where nothing would be enumerated; 0 still refuses every slope
    slope = ("--a", "1", "--b", "1", "--n", "3")
    code, out, err = run(capsys, *command, *slope, "--max-domain", "-1")
    assert code == 2 and out == ""
    assert err == "error: --max-domain must be at least 0, got -1"
    code, out, err = run(capsys, "orbit", "--map", "mat", *slope, "--max-domain", "0")
    assert code == 2 and err.startswith("error: (1,1) n=3 has more than 0 paths")


@pytest.mark.parametrize("n", ["13", "14", "1000000"])
def test_cli_domain_guard_default(capsys, n):
    # the default admits (1,1) n=12 (208,012 paths) and nothing larger; the
    # sizes are counted from 1 up, so a huge n is refused at once
    for argv in (("enum",), ("orbit", "--map", "promotion"),
                 ("verify", "--identity", "ev-star"),
                 ("apply", "--map", "kre", "--path", "1")):
        code, out, err = run(capsys, *argv, "--a", "1", "--b", "1", "--n", n)
        assert code == 2 and out == ""
        assert err == (f"error: (1,1) n={n} has more than 250000 paths; "
                       "raise --max-domain to enumerate it")


def test_cli_domain_guard_counts_words(capsys):
    # step-bound-geometry walks every word of the slope, C(2n, n) of them at
    # (1,1): 2,704,156 at n=12, which has 208,012 paths, and 20 at n=3
    code, out, err = run(capsys, "verify", "--identity", "step-bound-geometry",
                         "--a", "1", "--b", "1", "--n", "12")
    assert code == 2 and out == ""
    assert err == ("error: (1,1) n=12 has more than 250000 words; "
                   "raise --max-domain to enumerate it")
    slope = ("--a", "1", "--b", "1", "--n", "3")
    code, out, err = run(capsys, "verify", "--identity", "step-bound-geometry", *slope)
    assert code == 0 and err == ""
    assert out.startswith("PASS step-bound-geometry (1,1) n=3 over 20 objects in ")
    code, out, err = run(capsys, "verify", "--identity", "step-bound-geometry", *slope,
                         "--max-domain", "19")
    assert code == 2 and out == ""
    assert err == "error: (1,1) n=3 has more than 19 words; raise --max-domain to enumerate it"


def test_failing_word_check_reports_every_word(monkeypatch):
    # the check stops collecting at the tenth bad word, but its domain is
    # still every word of the slope, C(6, 3) = 20 at (1,1) n=3, as a row
    # over paths reports all of its paths
    geometric = paths.word_above_line
    monkeypatch.setattr(paths, "word_above_line", lambda s, word: not geometric(s, word))
    report = verify("step-bound-geometry", Slope(1, 1, 3))
    assert report.status == "fail" and len(report.counterexamples) == 10
    assert report.domain_size == 20
    # each bad word shows both sides: the constructor's verdict, then the
    # (inverted) geometric one
    assert report.counterexamples[:2] == ["1,2,3: lhs=True rhs=False", "1,2,4: lhs=True rhs=False"]
    for x in report.counterexamples:
        lhs, rhs = re.fullmatch(r"[\d,]+: lhs=(True|False) rhs=(True|False)", x).groups()
        assert lhs != rhs


def test_failing_count_check_reports_both_counts(monkeypatch):
    monkeypatch.setattr(paths, "enumerate_paths", lambda s: [])
    report = verify("count-enumeration", Slope(1, 1, 3))
    assert report.status == "fail" and report.counterexamples == ["enumeration=0 dp=5"]


def test_cli_domain_guard_counts_enumerated_paths(capsys):
    # count-enumeration enumerates a slope only up to 200,000 paths: past
    # that it only counts, in milliseconds, so the guard lets it run; below
    # it the enumerated paths are limited as on any other row
    code, out, err = run(capsys, "verify", "--identity", "count-enumeration",
                         "--a", "2", "--b", "3", "--n", "36")
    assert code == 0 and err == ""
    assert out.startswith("PASS count-enumeration (2,3) n=36 over ")
    code, out, err = run(capsys, "verify", "--identity", "count-enumeration",
                         "--a", "1", "--b", "1", "--n", "8", "--max-domain", "1429")
    assert code == 2 and out == ""
    assert err == "error: (1,1) n=8 has more than 1429 paths; raise --max-domain to enumerate it"
    code, out, err = run(capsys, "verify", "--identity", "count-enumeration",
                         "--a", "1", "--b", "1", "--n", "8", "--max-domain", "1430")
    assert code == 0 and out.startswith("PASS count-enumeration (1,1) n=8 over 1430 objects")
    # the exact counts fill (bn+1)(an+1) lattice points, 4001^2 at (1,1)
    # n=4000, so a huge n is refused at once
    code, out, err = run(capsys, "verify", "--identity", "count-enumeration",
                         "--a", "1", "--b", "1", "--n", "4000")
    assert code == 2 and out == ""
    assert err == ("error: (1,1) n=4000 has more than 250000 lattice points; "
                   "raise --max-domain to enumerate it")


def test_cli_domain_guard_on_chains(capsys):
    # every chain map acts on the chain itself and runs past any --max-domain
    chain = "1.2.3.4.5;1.2/3.4.5"
    for name in ("rot", "ref", "kre", "su", "lk", "lift"):
        code, out, err = run(capsys, "apply", "--map", name, "--a", "1", "--b", "2", "--n", "5",
                             "--ncp", chain, "--max-domain", "1")
        assert code == 0 and out and err == "", name


def test_cli_verify_rejects_max_n_below_one(capsys):
    # a bound below 1 would run no report and pass vacuously
    for bad in ("0", "-2"):
        code, out, err = run(capsys, "verify", "--max-n", bad)
        assert code == 2 and out == ""
        assert err == f"error: --max-n must be at least 1, got {bad}"


def test_cli_verify_profile(capsys):
    # --profile N puts the N functions with the most self time on stderr
    # and leaves stdout as it is; only the measured seconds may differ
    argv = ("verify", "--identity", "mat-rowmotion", "--a", "2", "--b", "3", "--n", "2")
    seconds = re.compile(r"in \d+\.\d\ds|\"seconds\": [0-9.e-]+")
    for fmt in ("text", "json"):
        code, plain, err = run(capsys, *argv, "--format", fmt)
        assert code == 0 and err == ""
        code, profiled, err = run(capsys, *argv, "--format", fmt, "--profile", "4")
        assert code == 0 and seconds.sub("", profiled) == seconds.sub("", plain)
        assert "Ordered by: internal time" in err
        rows = err.split("filename:lineno(function)")[1].strip().splitlines()
        assert len(rows) == 4 and all(row.split()[0][0].isdigit() for row in rows), err
    for bad in ("0", "-1"):
        code, out, err = run(capsys, *argv, "--profile", bad)
        assert code == 2 and out == ""
        assert err == f"error: --profile must be at least 1, got {bad}"


def test_cli_golden(capsys):
    code, out, _ = run(capsys, "golden")
    assert code == 0 and out.count("PASS") == 12


def test_cli_failed_verification_exit_code(capsys, monkeypatch):
    # a broken map is a failed verification (exit 1), not bad input (2) or a
    # broken invariant (3); each counterexample shows both sides
    monkeypatch.setattr(promotion, "evacuation_fast", lambda p: p)
    code, out, _ = run(capsys, "verify", "--identity", "fast-evacuation",
                       "--a", "1", "--b", "1", "--n", "3")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("FAIL fast-evacuation (1,1) n=3")
    assert lines[0].endswith("[UNEXPECTED]")
    assert lines[1:] and all(re.search(r": lhs=\S+ rhs=\S+$", x) for x in lines[1:])
    monkeypatch.setattr(golden, "promotion", lambda p: p)
    code, out, _ = run(capsys, "golden")
    assert code == 1 and "FAIL golden-promotion" in out


def test_cli_convert(capsys):
    code, out, _ = run(capsys, "convert", "--a", "1", "--b", "2", "--n", "3",
                       "--path", "1,4,7", "--to", "ncp")
    assert code == 0 and out == "1/2/3;1/2/3"
    code, out, _ = run(capsys, "convert", "--a", "1", "--b", "2", "--n", "3",
                       "--ncp", "1.2.3;1.2.3", "--to", "path")
    assert code == 0 and out == "1,2,5"
    code, out, _ = run(capsys, "convert", "--a", "2", "--b", "3", "--n", "2",
                       "--path", "1,2,5,7", "--to", "matching")
    assert code == 0 and out == "{1,4,10},{2,3},{5,6,9},{7,8}"
    code, out, _ = run(capsys, "convert", "--a", "2", "--b", "3", "--n", "2",
                       "--path", "1,3,5,6", "--to", "ksequence")
    assert code == 0 and out == "~1,5,6,~4"
    code, out, _ = run(capsys, "convert", "--a", "1", "--b", "1", "--n", "5",
                       "--perm", "13425", "--to", "word")
    assert code == 0 and out == "URUURURRUR"
    code, out, _ = run(capsys, "convert", "--a", "1", "--b", "1", "--n", "3",
                       "--matching", "{1,4},{2,3},{5,6}", "--to", "path")
    assert code == 0 and out == "1,2,5"


# every --to target on the (1,2,3) path 1,3,5: the text line and the JSON
# payload; perm needs a classical path, so it is pinned on (1,1,3) 1,2,4
CONVERT_TARGETS = {
    "path": ("1,3,5", {"a": 1, "b": 2, "n": 3, "steps": [1, 3, 5]}),
    "word": ("URURURRRR", {"word": "URURURRRR"}),
    "tableau": ("[1, 3, 5] / [2, 4, 6, 7, 8, 9]",
                {"first_row": [1, 3, 5], "second_row": [2, 4, 6, 7, 8, 9]}),
    "young": ("2,1,0", {"rows": [2, 1, 0]}),
    "matching": ("{1,2,9},{3,4,8},{5,6,7}", [[1, 2, 9], [3, 4, 8], [5, 6, 7]]),
    "dual-matching": ("{1,9},{2},{3,8},{4},{5,7},{6}", [[1, 9], [2], [3, 8], [4], [5, 7], [6]]),
    "ksequence": ("5,6,~3", {"entries": "5,6,~3"}),
    "ncp": ("1.2.3;1/2.3", {"chain": "1.2.3;1/2.3"}),
    "perm": ("231", {"values": [2, 3, 1]}),
}


@pytest.mark.parametrize("target", CONVERT_TARGETS)
def test_cli_convert_every_target(capsys, target):
    text, payload = CONVERT_TARGETS[target]
    path = ("--b", "1", "--path", "1,2,4") if target == "perm" else ("--b", "2", "--path", "1,3,5")
    argv = ("convert", "--a", "1", "--n", "3", *path, "--to", target)
    assert run(capsys, *argv) == (0, text, "")
    assert run(capsys, *argv, "--format", "json") == (0, json.dumps(payload, indent=2), "")


def test_cli_convert_to_perm_needs_a_classical_path(capsys):
    code, out, err = run(capsys, "convert", "--a", "1", "--b", "2", "--n", "3",
                         "--path", "1,3,5", "--to", "perm")
    assert (code, out) == (2, "") and err == "error: the grid construction needs a classical path"


@pytest.mark.parametrize("literal,message", [
    ("{}", "blocks must partition the ground set"),
    ("{1,2},{}", "blocks must be ordered by minimum"),
])
def test_cli_empty_block_in_matching(capsys, literal, message):
    # an empty block has no minimum; the canonical sort hands it to the block
    # rule, which reports bad input
    code, out, err = run(capsys, "convert", "--a", "1", "--b", "1", "--n", "1",
                         "--matching", literal, "--to", "path")
    assert code == 2 and out == ""
    assert err == f"error: {message}"


@pytest.mark.parametrize("argv,message", [
    (("convert", "--a", "2", "--b", "3", "--n", "3", "--ncp", "1.2.3", "--to", "path"),
     "chain with 1 layers needs slope (1,1), got (2,3)"),
    (("convert", "--a", "1", "--b", "1", "--n", "3", "--ncp", "1.2.3;1.2/3", "--to", "path"),
     "chain with 2 layers needs slope (1,2), got (1,1)"),
    (("apply", "--map", "kre", "--a", "2", "--b", "3", "--n", "3", "--ncp", "1.2.3"),
     "chain with 1 layers needs slope (1,1), got (2,3)"),
    (("apply", "--map", "kre", "--a", "1", "--b", "3", "--n", "3", "--ncp", "1.2.3;1.2/3"),
     "chain with 2 layers needs slope (1,2), got (1,3)"),
    (("convert", "--a", "2", "--b", "3", "--n", "5", "--perm", "2,1,3", "--to", "path"),
     "permutation of length 3 needs slope (1,1) n=3, got (2,3) n=5"),
    (("convert", "--a", "1", "--b", "1", "--n", "5", "--perm", "2,1,3", "--to", "path"),
     "permutation of length 3 needs slope (1,1) n=3, got (1,1) n=5"),
    (("convert", "--a", "1", "--b", "2", "--n", "3", "--perm", "2,1,3", "--to", "path"),
     "permutation of length 3 needs slope (1,1) n=3, got (1,2) n=3"),
    (("apply", "--map", "toggle:abc", "--a", "1", "--b", "1", "--n", "3", "--path", "1,2,4"),
     "map 'toggle:abc' needs an integer index, got 'abc'"),
    (("apply", "--map", "toggle:", "--a", "1", "--b", "1", "--n", "3", "--path", "1,2,4"),
     "map 'toggle:' needs an integer index, got ''"),
    (("apply", "--map", "rank-toggle:", "--a", "1", "--b", "1", "--n", "3", "--path", "1,2,4"),
     "map 'rank-toggle:' needs an integer index, got ''"),
    (("orbit", "--map", "toggle:abc", "--a", "1", "--b", "1", "--n", "3"),
     "map 'toggle:abc' needs an integer index, got 'abc'"),
    (("orbit", "--map", "rank-toggle:x", "--a", "1", "--b", "1", "--n", "3"),
     "map 'rank-toggle:x' needs an integer index, got 'x'"),
    *((("apply", "--map", f"{kind}:{index}", "--a", "1", "--b", "1", "--n", "6",
        "--path", "1,2,3,4,5,10"), f"map '{kind}:{index}' needs an integer index, got {index!r}")
      for kind in ("toggle", "rank-toggle")
      for index in ("1_0", "+2", " 2", "2 ", "\u0662", "--1", "-", "0x2")),
])
def test_cli_input_must_match_the_slope(capsys, argv, message):
    # a chain or permutation read against other slope flags used to convert
    # to the path of its own slope and exit 0; a toggle index that is no
    # integer used to print int()'s own message, and one that int() reads
    # though it is no run of ASCII digits after an optional minus ("1_0" as
    # 10, "+2", " 2" and an Arabic-Indic two as 2) used to apply that toggle
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}"


@pytest.mark.parametrize("option,literal,kind", [
    ("--ncp", "1./2/3", "partition"),
    ("--ncp", "x", "partition"),
    ("--ncp", "\u0661.2/3", "partition"),
    ("--matching", "{1,x},{3,4}", "matching"),
    ("--matching", "{1,,2},{3,4}", "matching"),
    ("--matching", "{,1,2},{3,4,}", "matching"),
    ("--matching", "{1,2},{3,\u0664}", "matching"),
    ("--path", "1,x", "step"),
    ("--path", "1,,2", "step"),
    ("--path", ",1,2,", "step"),
    ("--path", "1,2,\u0664", "step"),
    ("--perm", "2,x,1", "permutation"),
    ("--perm", "2,,1,3", "permutation"),
    ("--perm", "2,1,3,", "permutation"),
    ("--perm", "\u0662,1,3", "permutation"),
])
def test_cli_bad_literal_names_itself(capsys, option, literal, kind):
    # an element that is no integer used to print int()'s own message, and
    # empty step, permutation and matching entries were dropped; a digit
    # outside ASCII 0-9, which int() reads, is refused too
    code, out, err = run(capsys, "convert", "--a", "1", "--b", "1", "--n", "3",
                         option, literal, "--to", "path")
    assert code == 2 and out == ""
    assert err == f"error: bad {kind} literal: {literal!r}"


def test_cli_message_names_the_slope_as_every_other_does(capsys):
    code, out, err = run(capsys, "convert", "--a", "2", "--b", "3", "--n", "1",
                         "--matching", "{1,2},{3,4,5}", "--to", "path")
    assert code == 2 and out == ""
    assert err == "error: matching {1,2},{3,4,5} is not the matching of any (2,3) n=1 path"


@pytest.mark.parametrize("argv,option", [
    (("convert", "--ncp", "", "--to", "path"), "ncp"),
    (("convert", "--perm", "", "--to", "path"), "perm"),
    (("convert", "--matching", "", "--to", "path"), "matching"),
    (("convert", "--path", "", "--to", "word"), "path"),
    (("convert", "--word", "", "--to", "path"), "word"),
    (("apply", "--map", "kre", "--ncp", ""), "ncp"),
    (("apply", "--map", "promotion", "--path", ""), "path"),
])
def test_cli_empty_literal_is_refused_by_name(capsys, argv, option):
    # an empty literal used to count as a missing one and ask for a path
    code, out, err = run(capsys, *argv, "--a", "1", "--b", "1", "--n", "3")
    assert code == 2 and out == ""
    assert err == f"error: --{option} is empty"


def modules_loaded_by_cli_import(names):
    """Which of ``names`` a fresh interpreter has loaded after ``import ratdyck.cli``."""
    code = f"import ratdyck.cli, sys; print(sorted({set(names)!r} & set(sys.modules)))"
    src = os.path.dirname(os.path.dirname(ratdyck.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip()


def test_cli_starts_without_fractions():
    # no library path imports fractions, which loads decimal and numbers:
    # perms.pm_cross orders its crossing points by integer cross-multiplication
    assert modules_loaded_by_cli_import({"fractions", "decimal", "numbers"}) == "[]"


def test_cli_starts_without_the_profiler():
    # cProfile and pstats are imported by verify --profile alone
    assert modules_loaded_by_cli_import({"cProfile", "pstats"}) == "[]"


def test_cli_exits_141_when_its_reader_goes_away():
    # the 16,796 paths of (1,1) n=10 are about 350 KB, far past a pipe's
    # buffer: the reader takes one line and closes the pipe, and the CLI
    # exits as a writer killed by SIGPIPE would, without a traceback
    src = os.path.dirname(os.path.dirname(ratdyck.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ratdyck.cli", "enum", "--a", "1", "--b", "1", "--n", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    try:
        assert proc.stdout.readline() == b"1,2,3,4,5,6,7,8,9,10\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141 and err == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
