import json

import pytest

from ratdyck import matching_map
from ratdyck.cli import main
from ratdyck.golden import golden_suite
from ratdyck.paths import Slope, count_paths_dp, path_from_steps
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


def test_cli_verify_rejects_max_n_below_one(capsys):
    # a bound below 1 would run no report and pass vacuously
    for bad in ("0", "-2"):
        code, out, err = run(capsys, "verify", "--max-n", bad)
        assert code == 2 and out == ""
        assert err == f"error: --max-n must be at least 1, got {bad}"


def test_cli_golden(capsys):
    code, out, _ = run(capsys, "golden")
    assert code == 0 and out.count("PASS") == 12


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
