import json
import re

import pytest

from ratdyck import golden, matching_map, promotion, registry
from ratdyck.cli import main
from ratdyck.golden import golden_suite
from ratdyck.matchings import pm
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
    # a broken invariant is told apart from bad input: exit 3, one line
    monkeypatch.setattr(matching_map, "admissible", lambda *args: False)
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
    # a registered map must stay on its slope; leaving it is a library defect
    leave = lambda p: top_path(Slope(p.slope.a, p.slope.b, p.slope.n + 1))
    monkeypatch.setitem(registry.PATH_MAPS, "promotion", registry.PathMap("promotion", leave))
    with pytest.raises(InvariantError):
        orbit_table("promotion", Slope(1, 2, 2))
    code, out, err = run(capsys, "orbit", "--map", "promotion", "--a", "1", "--b", "2",
                         "--n", "2")
    assert code == 3 and out == ""
    assert err == ("internal error: map 'promotion' sends 1,2 to 1,2,3, "
                   "which is not a path of (1,2) n=2")


@pytest.mark.parametrize("argv", [
    ("enum",),
    ("orbit", "--map", "promotion"),
    ("convert", "--path", "1,2,3,4,5", "--to", "ncp"),
    ("verify", "--identity", "mat-rowmotion"),
    ("apply", "--map", "rot", "--path", "1,2,3,4,5"),
    ("apply", "--map", "lk", "--path", "1,2,3,4,5"),
    ("apply", "--map", "lk", "--ncp", "1.2/3/4.5"),
])
def test_cli_domain_guard(capsys, argv):
    # (1,1) n=5 has 42 paths, and its chain table 42 chains
    slope = ("--a", "1", "--b", "1", "--n", "5")
    code, out, err = run(capsys, *argv, *slope, "--max-domain", "41")
    assert code == 2 and out == ""
    assert err == "error: (1,1) n=5 has more than 41 paths; raise --max-domain to enumerate it"
    code, out, _ = run(capsys, *argv, *slope, "--max-domain", "42")
    assert code == 0 and out


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


def test_cli_domain_guard_on_chains(capsys):
    # lk sends each layer through the (1,1) chain table of the chain's size,
    # whatever the chain's slope; the other chain maps act on the chain
    # itself and run past any --max-domain
    chain = "1.2.3.4.5;1.2/3.4.5"
    code, out, err = run(capsys, "apply", "--map", "lk", "--a", "1", "--b", "2", "--n", "5",
                         "--ncp", chain, "--max-domain", "41")
    assert code == 2 and out == ""
    assert err == "error: (1,1) n=5 has more than 41 paths; raise --max-domain to enumerate it"
    for name in ("rot", "ref", "kre", "su", "lift"):
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
])
def test_cli_input_must_match_the_slope(capsys, argv, message):
    # a chain or permutation read against other slope flags used to convert
    # to the path of its own slope and exit 0
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}"
