"""The judge: degree, dominant and homaloidal from hand-built scan
measurements, each bar hit exactly and missed by one, and no scan deciding
on its own."""

import numpy as np
import pytest

from polarmap import oracle
from polarmap.oracle import _judge

# P^2 at p=11: 133 points, image bar 11^2 - 5*11 = 66.  A histogram size
# of 10 = p-1 or more is never generic, so it holds the rest of the
# non-base domain without moving the degree.
EXHAUSTIVE = dict(p=11, n=2, mode="exhaustive", seed=None, targets=None,
                  domain=133)
# P^2 at p=31, 64 targets; rows spanning the dual space, and rows on the
# hyperplane y_2 = 0
SAMPLED = dict(p=31, n=2, mode="sample", seed=0, targets=64, domain=993)
SPANNING = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
FLAT = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 2, 0]])

# name: (measurement, (degree, dominant, homaloidal))
CASES = {
    "image_bar_exactly": (
        dict(EXHAUSTIVE, base_points=67, histogram={1: 66}, size1=66,
             drawn=66), (1, True, True)),
    "image_bar_one_below_vetoes": (
        dict(EXHAUSTIVE, base_points=68, histogram={1: 65}, size1=65,
             drawn=65), (1, False, False)),
    "exhaustive_share_exactly_9_10": (
        dict(EXHAUSTIVE, base_points=33, histogram={1: 90, 10: 1}, size1=90,
             drawn=100), (1, True, True)),
    "exhaustive_share_one_short": (
        dict(EXHAUSTIVE, base_points=33, histogram={1: 89, 11: 1}, size1=89,
             drawn=100), (1, True, False)),
    "exhaustive_degree_2_vetoes": (
        dict(EXHAUSTIVE, base_points=34, histogram={1: 95, 2: 2}, size1=95,
             drawn=99), (2, True, False)),
    "sampled_share_exactly_3_4": (
        dict(SAMPLED, base_points=0, histogram={1: 48, 32: 1}, size1=48,
             drawn=64, rows=SPANNING), (1, True, True)),
    "sampled_share_one_short": (
        dict(SAMPLED, base_points=0, histogram={1: 47, 32: 1}, size1=47,
             drawn=64, rows=SPANNING), (1, True, False)),
    "sampled_degree_2_vetoes": (
        dict(SAMPLED, base_points=0, histogram={1: 60, 2: 2}, size1=60,
             drawn=64, rows=SPANNING), (2, True, False)),
    "sampled_not_spanning_vetoes": (
        dict(SAMPLED, base_points=0, histogram={1: 64}, size1=64, drawn=64,
             rows=FLAT), (1, False, False)),
}


@pytest.mark.parametrize("name", CASES)
def test_judge_decides_each_bar(name):
    measurement, expected = CASES[name]
    report = _judge(**measurement)
    assert (report.degree, report.dominant, report.homaloidal) == expected
    assert type(report.dominant) is bool and type(report.homaloidal) is bool
    # the measured fields pass through; the image is the histogram's total
    assert (report.p, report.mode, report.seed, report.targets,
            report.domain_size, report.base_points, report.fiber_histogram) == (
        measurement["p"], measurement["mode"], measurement["seed"],
        measurement["targets"], measurement["domain"],
        measurement["base_points"], measurement["histogram"])
    assert report.image_size == sum(measurement["histogram"].values())


def names_of(fn):
    """Global and attribute names a function's code reads, its nested
    comprehensions' included."""
    stack, names = [fn.__code__], set()
    while stack:
        code = stack.pop()
        names.update(code.co_names)
        stack += [c for c in code.co_consts if hasattr(c, "co_names")]
    return names


@pytest.mark.parametrize("scan", ["scan_exhaustive", "scan_sampled",
                                  "scan_primes"])
def test_no_scan_names_a_bar(scan):
    names = names_of(getattr(oracle, scan))
    assert not [name for name in names
                if name.startswith(("_DEGREE_IMAGE_", "_EXHAUSTIVE_SIZE1_",
                                    "_SAMPLED_SIZE1_"))
                or name in ("DegreeReport", "_degree_estimate",
                            "dominance_by_span")]


@pytest.mark.parametrize("reader", ["_degree_estimate", "scan_primes"])
def test_the_generic_size_cutoff_has_one_home(reader):
    # both read p-1 through _generic_size rather than restating it
    assert "_generic_size" in names_of(getattr(oracle, reader))
