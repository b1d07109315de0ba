"""The judge: degree, dominant and homaloidal from hand-built scan
measurements, each bar hit exactly and missed by one, no scan deciding on
its own, no report reading a degree of p-1 or more, and dominant read as
the Jacobian-rank reference reads it."""

import functools
import inspect
import time
from itertools import combinations

import pytest

from polarmap import oracle
from polarmap.arrangement import LinearFormProduct
from polarmap.cli import _census_rows
from polarmap.oracle import _judge, scan_exhaustive, scan_sampled
from polarmap.parsing import parse_arrangement, parse_polynomial
from polarmap.polar import moving_part
from polarmap.verdict import full_verdict

from jacobian import is_dominant
from lattice import lattice_degree

# P^2 at p=11: 133 points.  A histogram size of 10 = p-1 or more is never
# generic, so it holds the rest of the non-base domain without moving the
# degree.  bound is D^n, here of a quadratic map of P^2.
EXHAUSTIVE = dict(p=11, mode="exhaustive", seed=None, targets=None,
                  domain=133, bound=4)
# P^2 at p=101: 10,303 points, so 2 image points are a tiny share of an
# image of thousands
LARGE = dict(p=101, mode="exhaustive", seed=None, targets=None,
             domain=10303, bound=4)
# P^2 at p=31, 64 targets
SAMPLED = dict(p=31, mode="sample", seed=0, targets=64, domain=993, bound=4)

# name: (measurement, (degree, dominant, homaloidal))
CASES = {
    "exhaustive_all_size_1": (
        dict(EXHAUSTIVE, base_points=67, histogram={1: 66}, size1=66,
             drawn=66), (1, True, True)),
    # one image point fewer than exhaustive_all_size_1, 65 of the 133:
    # how much of P^2 the image covers decides nothing
    "small_image_does_not_veto": (
        dict(EXHAUSTIVE, base_points=68, histogram={1: 65}, size1=65,
             drawn=65), (1, True, True)),
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
             drawn=64), (1, True, True)),
    "sampled_share_one_short": (
        dict(SAMPLED, base_points=0, histogram={1: 47, 32: 1}, size1=47,
             drawn=64), (1, True, False)),
    "sampled_degree_2_vetoes": (
        dict(SAMPLED, base_points=0, histogram={1: 60, 2: 2}, size1=60,
             drawn=64), (2, True, False)),
    # the measurement of a scan whose 64 target rows all lie on y_2 = 0:
    # the judge reads no target rows, so they cannot veto
    "flat_target_rows_do_not_veto": (
        dict(SAMPLED, base_points=0, histogram={1: 64}, size1=64, drawn=64),
        (1, True, True)),
    # no size below p-1 held by 2 image points: degree 0, so not dominant,
    # though every one of the six points of P^1(F_5) maps
    "exhaustive_no_generic_size": (
        dict(p=5, mode="exhaustive", seed=None, targets=None, domain=6,
             bound=2, base_points=0, histogram={1: 1, 5: 1}, size1=1,
             drawn=6), (0, False, False)),
    "sampled_no_generic_size": (
        dict(SAMPLED, base_points=0, histogram={1: 1, 30: 31}, size1=1,
             drawn=64), (0, False, False)),
    # the Cremona map at p=11: three contracted lines of p-1 points each
    "exhaustive_contracted_lines_are_not_generic": (
        dict(EXHAUSTIVE, base_points=3, histogram={1: 100, 10: 3}, size1=100,
             drawn=130), (1, True, False)),
    # the bound D^n: a size equal to it is read, one past it is not, however
    # many image points hold it
    "size_at_the_bound_is_read": (
        dict(LARGE, base_points=295, histogram={1: 9000, 2: 500, 4: 2},
             size1=9000, drawn=10008), (4, True, False)),
    "size_above_the_bound_is_not_read": (
        dict(LARGE, base_points=53, histogram={1: 9000, 2: 500, 5: 50},
             size1=9000, drawn=10250), (2, True, False)),
    # a share of the image decides nothing: 2 of 9,502 image points read a
    # size, 1 does not
    "size_held_by_two_points_is_read": (
        dict(LARGE, base_points=291, histogram={1: 9000, 2: 500, 6: 2},
             size1=9000, drawn=10012, bound=16), (6, True, False)),
    "size_held_by_one_point_is_not_read": (
        dict(LARGE, base_points=297, histogram={1: 9000, 2: 500, 6: 1},
             size1=9000, drawn=10006, bound=16), (2, True, False)),
    # the contracted size p-1 is never read, whatever the bound
    "size_p_minus_1_is_never_read": (
        dict(LARGE, base_points=6, histogram={1: 4953, 2: 384, 3: 1392,
                                              100: 4},
             size1=4953, drawn=10297, bound=10 ** 6), (3, True, False)),
    # where the bound reaches p-2 it cannot tell a contracted line from a
    # generic fiber: size p-2 is read
    "size_p_minus_2_within_the_bound_is_read": (
        dict(EXHAUSTIVE, base_points=35, histogram={1: 50, 9: 2, 10: 3},
             size1=50, drawn=98, bound=16), (9, True, False)),
    # one point of size 3 beside a contracted size: no generic size
    "one_point_and_a_contracted_size_read_0": (
        dict(LARGE, base_points=10200, histogram={3: 1, 100: 1}, size1=0,
             drawn=103), (0, False, False)),
    # P^1 at p=101, all 102 points on one image point: not dominant
    "one_fiber_of_the_whole_line_reads_0": (
        dict(p=101, mode="exhaustive", seed=None, targets=None, domain=102,
             bound=2, base_points=0, histogram={102: 1}, size1=0, drawn=102),
        (0, False, False)),
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
    # nor a degree rule or cutoff helper: scan_primes compares the judged
    # fields alike at every prime
    names = names_of(getattr(oracle, scan))
    assert not [name for name in names
                if name.startswith(("_DEGREE_IMAGE_", "_EXHAUSTIVE_SIZE1_",
                                    "_SAMPLED_SIZE1_"))
                or name in ("DegreeReport", "_degree_estimate",
                            "dominance_by_span", "_generic_size")]


def test_judge_has_one_dominant_rule():
    # dominant is degree > 0 in both modes: no rank of target rows, and no
    # n to size an image bar with
    assert "dominance_by_span" not in names_of(_judge)
    assert not {"n", "rows"} & set(inspect.signature(_judge).parameters)


# (text, parser, nvars, exhaustive primes, sampled primes); a sampled scan
# of P^4 at p=101 takes 0.65 s (2-vCPU Xeon VM), so the P^4 inputs run at
# 13 and 31
DOMINANCE_CORPUS = [
    # the twisted cube, degree 3, at primes where cubing is 3-to-1
    ("x0*x1*(x0+x1)*(x0-x1)", parse_arrangement, None, (109, 227),
     (109, 227)),
    # degree 6 (tests/lattice.py), with a fiber of 6 on 2 image points at p=61
    ("x2*(x1-x2)*(x0-x1-x2)*(x0-x2)*(x0+x1)", parse_arrangement, None,
     (61,), (61,)),
    ("x0^3 + x1^3 + x2^3 + x0*x1*x2", parse_polynomial, None, (31, 101),
     (31, 101)),
    ("x0^4 + x1^4 + x2^4", parse_polynomial, None, (31, 101), (31, 101)),
    ("x0*x1*x2*(x0+x1+x2)", parse_arrangement, None, (31, 101), (31, 101)),
    # cones: x2 does not occur
    ("x0*x1*(x0-x1)", parse_arrangement, 3, (31, 101), (31, 101)),
    ("x0^2 + x1^2", parse_polynomial, 3, (31, 101), (31, 101)),
    # vanishing Hessians: Gordan-Noether and a Perazzo cubic, whose first
    # three partials are forms in x3, x4 alone
    ("x0*x3^2 + x1*x3*x4 + x2*x4^2", parse_polynomial, None, (13,), (31,)),
    ("x0*x3^2 + x1*x3*x4 + x2*x4^2 + x3^3 + x4^3", parse_polynomial, None,
     (13,), (31,)),
]


@functools.cache
def calibration():
    """Seconds of a fixed calibration scan in this process, best of 5: 50
    exhaustive scans of the standard Cremona map at p=61, small scans like
    those the checks below time.  The checks bound their wall time by a
    multiple of it, so a machine whose speed drifts moves both alike; each
    multiple is the earlier absolute bound over the calibration's median of
    7 runs on a 2-core Xeon VM (10.5 ms)."""
    cremona = moving_part(parse_arrangement("x0*x1*x2")).moving
    best = float("inf")
    for _ in range(5):
        started = time.monotonic()
        for _ in range(50):
            scan_exhaustive(cremona, 61)
        best = min(best, time.monotonic() - started)
    return best


def test_dominant_is_the_jacobian_rank():
    # dominant reads degree > 0 in both modes; the reference is the rank
    # of the moving map's Jacobian mod 2^61 - 1, which shares no code
    # with the scans
    started = time.monotonic()
    expected = []
    for text, parse, nvars, exhaustive, sampled in DOMINANCE_CORPUS:
        source = parse(text, nvars=nvars)
        reference = is_dominant(moving_part(source).moving)
        expected.append(reference)
        for mode, primes in (("exhaustive", exhaustive), ("sample", sampled)):
            for p in primes:
                report = full_verdict(source, primes=(p,), mode=mode)
                assert report.dominant == reference, (text, mode, p)
    assert expected == [True] * 5 + [False] * 4
    assert time.monotonic() - started < 48 * calibration()


def census_single_forms():
    """The census's one-form arrangements of P^2: each {-1,0,1} row, alone
    and cubed."""
    return [LinearFormProduct([row], [m]) for row in _census_rows(3, (-1, 0, 1))
            for m in (1, 3)]


def test_no_report_reads_a_degree_of_p_minus_1_or_more():
    # none of these maps is dominant: constant maps of linear forms and of
    # x0^2 on P^1, two cones of P^2, the census's single forms; their
    # fibers all hold p points or more, so no size is generic
    started = time.monotonic()
    inputs = [parse_polynomial("x0+x1"), parse_arrangement("x0+x1"),
              parse_polynomial("x0 - x2", nvars=3),
              parse_arrangement("x0^2", nvars=2),
              parse_polynomial("x0^2 + x1^2", nvars=3),
              parse_arrangement("x0*x1*(x0-x1)", nvars=3)]
    reports = [full_verdict(F, primes=(p,))
               for F in inputs + census_single_forms() for p in (7, 31, 101)]
    # Gordan-Noether: a vanishing Hessian, so not dominant; the rows of
    # its sampled image span the dual space all the same
    reports.append(full_verdict(
        parse_polynomial("x0*x3^2 + x1*x3*x4 + x2*x4^2"), primes=(31,),
        mode="sample", seed=0))
    for report in reports:
        # the rule: a generic size below p-1, or 0 and not dominant
        assert 0 <= report.degree < report.p - 1
        assert report.degree > 0 or not report.dominant
    # and as none of these maps is dominant, none shows a generic size
    assert {(r.degree, r.dominant, r.homaloidal) for r in reports} == {
        (0, False, False)}
    assert len(reports) == 3 * (6 + 26) + 1
    assert time.monotonic() - started < 48 * calibration()


DEGREE_6 = "x2*(x1-x2)*(x0-x1-x2)*(x0-x2)*(x0+x1)"


@functools.cache
def five_line_arrangements():
    """The 1,287 choices of 5 of the 13 census rows of P^2, each with the
    moving part of its product."""
    return [(chosen, moving_part(LinearFormProduct(chosen)).moving)
            for chosen in combinations(_census_rows(3, (-1, 0, 1)), 5)]


def test_exhaustive_degree_is_the_lattice_degree_on_five_lines():
    # p=61 avoids the blind classes mod 3 and mod 12; a rule asking 0.5% of
    # the image to hold a size reads 132 of these wrong here, degree 6 as 4
    arrangements = five_line_arrangements()
    assert len(arrangements) == 1287
    started = time.monotonic()
    wrong = [chosen for chosen, moving in arrangements
             if scan_exhaustive(moving, 61).degree != lattice_degree(chosen)]
    assert wrong == []
    assert time.monotonic() - started < 95 * calibration()


def test_sampled_degree_never_exceeds_the_lattice_degree():
    # 64 targets rarely land on a fiber of the largest size, so a sampled
    # degree is a lower bound; a contracted line's p-2 points are no degree
    arrangements = five_line_arrangements()[::4]
    started = time.monotonic()
    for chosen, moving in arrangements:
        assert scan_sampled(moving, 61, seed=0).degree <= \
            lattice_degree(chosen), chosen
    assert time.monotonic() - started < 95 * calibration()


def test_degree_6_arrangement_reads_6():
    F = parse_arrangement(DEGREE_6)
    assert lattice_degree(F.forms) == 6
    moving = moving_part(F).moving
    assert [scan_exhaustive(moving, p).degree for p in (61, 101, 181)] == \
        [6, 6, 6]
