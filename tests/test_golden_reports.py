"""Byte-for-byte CLI reports, replayed against stored outputs.

The files under data/golden/ hold the stdout of each command with the
"millis" value set to 0 (for classify: the summary lines and the --json
file).  Any change to a verdict, a report field or the JSON layout shows
up here as a diff.
"""

import os
import re

import pytest

from polarmap.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")

REPORTS = {
    "certify_x0cubed_x1_x2": ["certify", "x0^3*x1*x2"],
    "homaloidal_quadric_p3": ["homaloidal", "x0^2 + x1^2 + x2^2 + x3^2"],
    "homaloidal_conic_two_primes": ["homaloidal", "x1^2 - x0*x2",
                                    "-p", "101", "-p", "211"],
    "homaloidal_cremona_p4_sampled": ["homaloidal", "x0*x1*x2*x3*x4",
                                      "-p", "31", "--mode", "sample",
                                      "--targets", "64", "--seed", "5"],
    "certify_twisted_cube": ["certify", "x0*x1*(x0+x1)*(x0-x1)",
                             "-p", "109", "-p", "227"],
}


def golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden(capsys, name):
    assert main(REPORTS[name]) == 0
    out = re.sub(r'"millis": \d+', '"millis": 0', capsys.readouterr().out)
    assert out == golden(name + ".json")


def test_classify_matches_golden(capsys, tmp_path):
    path = tmp_path / "census.json"
    assert main(["classify", "--n", "2", "--r", "2", "--json", str(path)]) == 0
    assert capsys.readouterr().out == golden("classify_n2_r2.txt")
    assert path.read_text(encoding="utf-8") == golden("classify_n2_r2.json")
