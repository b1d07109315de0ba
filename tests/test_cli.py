"""CLI surface: subcommand output, exit codes, JSON reports, determinism."""

import json
import subprocess
import sys

import pytest

from polarmap.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_polar_prints_components(capsys):
    code, out, err = run(capsys, "polar", "x0*x1*x2")
    assert code == 0
    assert out.splitlines() == ["component 0: x1*x2",
                                "component 1: x0*x2",
                                "component 2: x0*x1"]


def test_moving_prints_base_and_components(capsys):
    code, out, err = run(capsys, "moving", "x0^2*x1*x2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "base divisor: x0"
    assert lines[1] == "component 0: 2*x1*x2"
    assert len(lines) == 4


def test_moving_rejects_linear_input(capsys):
    code, out, err = run(capsys, "moving", "x0+x1")
    assert code == 2
    assert "degree at least 2" in err


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "polar", "x0^2 +")
    assert code == 2
    assert "line 1" in err and "column 7" in err


def test_homaloidal_standard_cremona(capsys):
    code, out, err = run(capsys, "homaloidal", "x0*x1*x2*x3", "-p", "101")
    assert code == 0
    report = json.loads(out)
    assert report["homaloidal"] is True
    assert report["degree"] == 1
    assert report["fiber_histogram"] == {"1": 1000000, "10000": 4}
    assert report["mode"] == "exhaustive"
    assert report["p"] == 101
    assert any("base_case" in entry for entry in report["certificate"])


def test_homaloidal_smooth_conic(capsys):
    # not a product of linear forms: oracle only, no certificate
    code, out, err = run(capsys, "homaloidal", "x1^2 - x0*x2", "-p", "101")
    assert code == 0
    report = json.loads(out)
    assert report["degree"] == 1
    assert report["homaloidal"] is True
    assert report["certificate"] == []


def test_homaloidal_cone_needs_ambient(capsys):
    code, out, err = run(capsys, "homaloidal", "x0*x1", "-p", "101",
                         "--ambient", "2")
    assert code == 0
    report = json.loads(out)
    assert report["dominant"] is False
    assert report["homaloidal"] is False
    assert report["n"] == 2


def test_homaloidal_two_prime_stability(capsys):
    code, out, err = run(capsys, "homaloidal", "x0*x1*x2*(x0+x1+x2)",
                         "-p", "101", "-p", "211")
    assert code == 0
    report = json.loads(out)
    assert report["homaloidal"] is False
    assert report["degree"] == 3
    assert {"prime_stability": {"primes": [101, 211], "agree": True}} \
        in report["certificate"]


def test_certify_requires_arrangement(capsys):
    code, out, err = run(capsys, "certify", "x1^2 - x0*x2")
    assert code == 2


def test_certify_chain(capsys):
    code, out, err = run(capsys, "certify", "x0^2*x1*x2", "-p", "101")
    assert code == 0
    report = json.loads(out)
    steps = [e for e in report["certificate"] if "step" in e]
    assert len(steps) == 1
    assert steps[0]["reduced"] is True


def test_bad_prime_exit_code(capsys):
    code, out, err = run(capsys, "certify", "x0*x1*x2", "-p", "11")
    assert code == 3
    assert "inconsistency" in err


def test_resource_bound_exit_code(capsys):
    code, out, err = run(capsys, "homaloidal",
                         "x0*x1*x2*x3*x4*x5", "-p", "101")
    assert code == 4
    assert "resource bound" in err


def test_json_file_output(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "homaloidal", "x0*x1*x2", "-p", "101",
                         "--json", str(path))
    assert code == 0
    assert "report written" in out
    report = json.loads(path.read_text())
    assert report["homaloidal"] is True
    assert report["input"] == "x0*x1*x2"


def test_file_input(capsys, tmp_path):
    path = tmp_path / "input.txt"
    path.write_text("x0*x1*x2\n")
    code, out, err = run(capsys, "polar", "--file", str(path))
    assert code == 0
    assert "component 0: x1*x2" in out
    code, out, err = run(capsys, "polar")
    assert code == 2
    code, out, err = run(capsys, "polar", "x0*x1", "--file", str(path))
    assert code == 2


def test_deterministic_reports(capsys):
    argv = ("homaloidal", "x0*x1*x2*x3*x4", "-p", "31",
            "--mode", "sample", "--targets", "64", "--seed", "5")
    _, out_a, _ = run(capsys, *argv)
    _, out_b, _ = run(capsys, *argv)
    a, b = json.loads(out_a), json.loads(out_b)
    a["millis"] = b["millis"] = 0
    assert a == b
    assert a["seed"] == 5 and a["mode"] == "sample"


def test_classify_p1_pairs(capsys):
    code, out, err = run(capsys, "classify", "--n", "1", "--r", "1")
    assert code == 0
    assert "arrangements: 6" in out
    assert "homaloidal: 6" in out
    assert "disagreements: 0" in out


def test_classify_counts_match_rank(capsys, tmp_path):
    path = tmp_path / "census.json"
    code, out, err = run(capsys, "classify", "--n", "2", "--r", "2",
                         "-p", "101", "--json", str(path))
    assert code == 0
    summary = json.loads(path.read_text())
    assert summary["arrangements"] == 286
    assert summary["homaloidal"] == summary["full_rank"] == 246
    assert summary["disagreements"] == 0


def test_classify_exits_3_when_the_rank_over_q_disagrees(capsys, monkeypatch):
    # the independent count is a second route to the structural verdict:
    # a rank that disagrees with it stops the census
    from polarmap import cli
    monkeypatch.setattr(cli, "exact_rank", lambda rows, field: 0)
    code, out, err = run(capsys, "classify", "--n", "1", "--r", "1")
    assert code == 3
    assert "rank over Q False" in err and "arrangements:" not in out


def test_classify_deduplicates_coefficients(capsys, tmp_path):
    path = tmp_path / "census.json"
    code, out, _ = run(capsys, "classify", "--n", "1", "--r", "1",
                       "--coefficients", "1,1,0", "--json", str(path))
    assert code == 0
    assert out.splitlines()[0] == \
        "census n=1 r=1 coefficients {0,1} primes {101}"
    assert json.loads(path.read_text())["coefficients"] == [0, 1]
    code, plain, _ = run(capsys, "classify", "--n", "1", "--r", "1",
                         "--coefficients", "0,1")
    assert code == 0 and plain == out


@pytest.mark.parametrize("argv", [
    ("homaloidal", "x0*x1"),
    ("classify", "--n", "2", "--r", "2"),
])
def test_workers_is_an_unknown_option(capsys, argv):
    # every scan runs in the calling process: there is no worker count
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--workers", "2"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --workers 2" in captured.err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_are_refused(capsys, workers):
    # no worker count is accepted, so none below one is either
    with pytest.raises(SystemExit) as exit_:
        main(["homaloidal", "x0*x1", "--workers", workers])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --workers {workers}" in captured.err


def test_classify_rejects_big_parameters(capsys):
    code, out, err = run(capsys, "classify", "--n", "7", "--r", "1")
    assert code == 2


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "polarmap.cli",
                           "polar", "x0*x1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "component 0: x1" in proc.stdout


def test_closed_stdout_exits_1_silently():
    # about 175 KB of output, more than a pipe holds, so the CLI is still
    # writing when the reader closes the pipe after the first line
    proc = subprocess.Popen([sys.executable, "-m", "polarmap.cli",
                             "polar", "(x0+x1+x2+x3)^20"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert first.startswith("component 0: 20*x0^19 + ")
    assert err == ""


def test_certify_cone_at_two_primes(capsys):
    code, out, err = run(capsys, "certify", "x1*x2*(x1-x2)", "--ambient", "2",
                         "-p", "101", "-p", "211")
    assert code == 0, err
    report = json.loads(out)
    assert report["homaloidal"] is False and report["dominant"] is False


def test_homaloidal_cone_at_two_primes(capsys):
    code, out, err = run(capsys, "homaloidal", "x0*x1", "--ambient", "2",
                         "-p", "101", "-p", "211")
    assert code == 0, err
    report = json.loads(out)
    assert report["homaloidal"] is False and report["dominant"] is False


def test_targets_past_the_bound_exit_4(capsys):
    code, out, err = run(capsys, "homaloidal", "x0*x1*x2", "--mode", "sample",
                         "--targets", "65537")
    assert code == 4 and out == ""
    assert "more than 65536 targets" in err


def without_millis(text):
    report = json.loads(text)
    del report["millis"]
    return report


def test_repeated_prime_is_scanned_once(capsys):
    code, once, err = run(capsys, "certify", "x0*x1*x2", "-p", "101")
    assert code == 0, err
    code, twice, err = run(capsys, "certify", "x0*x1*x2", "-p", "101",
                           "-p", "101")
    assert code == 0, err
    assert without_millis(twice) == without_millis(once)
    assert not any("prime_stability" in e
                   for e in json.loads(twice)["certificate"])
    code, out, err = run(capsys, "classify", "--n", "1", "--r", "1",
                         "-p", "101", "-p", "211", "-p", "101")
    assert code == 0, err
    assert out.splitlines()[0].endswith("primes {101,211}")


def test_classify_at_two_primes(capsys):
    code, out, err = run(capsys, "classify", "--n", "2", "--r", "2",
                         "-p", "101", "-p", "211")
    assert code == 0, err
    assert "arrangements: 286" in out
    assert "homaloidal: 246" in out
    assert "primes {101,211}" in out
