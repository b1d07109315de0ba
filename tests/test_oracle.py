"""Fiber-counting oracle: exact histograms at pinned primes, invariances,
resource guards, and the sampled mode's seeded determinism."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from polarmap import oracle
from polarmap.arrangement import LinearFormProduct
from polarmap.errors import (InconsistencyError, ReductionError,
                             ResourceBoundError)
from polarmap.fields import is_prime, residue
from polarmap.oracle import (DegreeReport, _degree_estimate,
                             check_contraction, dominance_by_span,
                             projective_size, scan_exhaustive, scan_primes,
                             scan_sampled)
from polarmap.parsing import parse_arrangement, parse_polynomial
from polarmap.polar import RationalMap, polar_system, moving_part
from polarmap.poly import Polynomial

from gens import random_arrangement
from processes import without_a_process
from projective import ProjectivePoint
from tables import residue_tables, split_tables


def polar_of(text):
    return polar_system(parse_polynomial(text))


def moving_of(text, nvars=None):
    return moving_part(parse_arrangement(text, nvars=nvars)).moving


def test_projective_point_normalization():
    pt = ProjectivePoint((2, 4, 6), 101)
    assert pt.coords == (1, 2, 3)
    # pivot not in first position: 5^-1 = 3 mod 7
    assert ProjectivePoint((0, 5, 3), 7).coords == (0, 1, 2)
    assert ProjectivePoint((0, 0, 9), 7).coords == (0, 0, 1)
    with pytest.raises(ValueError):
        ProjectivePoint((0, 0, 0), 7)
    with pytest.raises(ValueError):
        ProjectivePoint((7, 14), 7)


def test_projective_point_identity():
    a = ProjectivePoint((2, 4, 6), 101)
    b = ProjectivePoint((3, 6, 9), 101)
    assert a == b
    assert hash(a) == hash(b)
    assert a != ProjectivePoint((1, 2, 4), 101)
    assert repr(a) == "[1:2:3]"


def test_projective_point_key_injective():
    rng = random.Random(5)
    p = 13
    seen = {}
    for _ in range(300):
        coords = tuple(rng.randrange(p) for _ in range(3))
        if not any(coords):
            continue
        pt = ProjectivePoint(coords, p)
        index = pt.index()
        assert 0 <= index < projective_size(2, p)
        assert seen.setdefault(index, pt) == pt


def test_projective_size():
    assert projective_size(1, 2) == 3
    assert projective_size(2, 101) == 10303
    assert projective_size(3, 101) == 1040604


def test_standard_cremona_plane():
    rep = scan_exhaustive(polar_of("x0*x1*x2"), 101)
    assert rep.fiber_histogram == {1: 10000, 100: 3}
    assert rep.base_points == 3
    assert rep.image_size == 10003
    assert rep.degree == 1
    assert rep.dominant
    assert rep.homaloidal


def test_standard_cremona_plane_small_prime():
    # degree survives p=11; the 90% knob does not (contracted fibers eat
    # 30 of 130 non-base points), which is why verdict scans use p >= 101
    rep = scan_exhaustive(polar_of("x0*x1*x2"), 11)
    assert rep.fiber_histogram == {1: 100, 10: 3}
    assert rep.degree == 1
    assert rep.dominant
    assert not rep.homaloidal


def test_standard_cremona_space():
    rep = scan_exhaustive(polar_of("x0*x1*x2*x3"), 101)
    assert rep.fiber_histogram == {1: 1000000, 10000: 4}
    assert rep.degree == 1
    assert rep.homaloidal


def test_smooth_quadric_polar_is_linear():
    rep = scan_exhaustive(polar_of("x0^2 + x1^2 + x2^2 + x3^2"), 101)
    assert rep.fiber_histogram == {1: 1040604}
    assert rep.base_points == 0
    assert rep.degree == 1
    assert rep.homaloidal


def test_four_general_lines_degree_three():
    m = moving_of("x0*x1*x2*(x0+x1+x2)")
    rep = scan_exhaustive(m, 101)
    assert rep.fiber_histogram == {1: 4953, 2: 384, 3: 1392, 100: 4}
    assert rep.image_size == 6733
    assert rep.base_points == 6
    assert rep.degree == 3
    assert not rep.homaloidal


def test_four_general_lines_prime_stable():
    m = moving_of("x0*x1*x2*(x0+x1+x2)")
    rep = scan_exhaustive(m, 211)
    assert rep.fiber_histogram == {1: 22047, 2: 804, 3: 6744, 210: 4}
    assert rep.degree == 3
    assert not rep.homaloidal


def test_five_general_planes_degree_four():
    m = moving_of("x0*x1*x2*x3*(x0+x1+x2+x3)")
    rep = scan_exhaustive(m, 101)
    assert rep.degree == 4
    assert not rep.homaloidal
    assert rep.fiber_histogram[4] == 30210


def test_cone_not_dominant():
    rep = scan_exhaustive(moving_of("x0*x1", nvars=3), 101)
    assert rep.fiber_histogram == {101: 102}
    assert not rep.dominant
    assert not rep.homaloidal


def test_exhaustive_accounting():
    for rep in (scan_exhaustive(polar_of("x0*x1*x2"), 101),
                scan_exhaustive(moving_of("x0*x1*x2*(x0+x1+x2)"), 101),
                scan_exhaustive(moving_of("x0*x1", nvars=3), 101)):
        mapped = sum(s * c for s, c in rep.fiber_histogram.items())
        assert rep.base_points + mapped == rep.domain_size
        assert rep.domain_size == projective_size(3 - 1, 101)


def test_scaling_invariance():
    f = parse_polynomial("x0*x1*x2*(x0+x1+x2)")
    a = scan_exhaustive(polar_system(f), 101)
    b = scan_exhaustive(polar_system(f * 7), 101)
    assert a == b


def _random_linear_images(rng, nvars):
    """Invertible change of coordinates built from elementary row operations."""
    rows = [[1 if i == j else 0 for j in range(nvars)] for i in range(nvars)]
    for _ in range(8):
        i, j = rng.randrange(nvars), rng.randrange(nvars)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    vars_ = [Polynomial.variable(nvars, j) for j in range(nvars)]
    images = []
    for row in rows:
        acc = Polynomial.zero(nvars)
        for c, v in zip(row, vars_):
            acc = acc + v * c
        images.append(acc)
    return images


def test_projectivity_invariance_of_degree():
    rng = random.Random(17)
    for text, expected in (("x0*x1*x2", 1), ("x0*x1*x2*(x0+x1+x2)", 3)):
        m = moving_of(text)
        for _ in range(3):
            images = _random_linear_images(rng, 3)
            twisted = RationalMap([c.substitute(images) for c in m.components])
            assert scan_exhaustive(twisted, 101).degree == expected


def test_sampled_cremona_p4():
    rep = scan_sampled(polar_of("x0*x1*x2*x3*x4"), 31, targets=64, seed=0)
    assert rep.fiber_histogram == {1: 57, 27000: 4}
    assert rep.base_points == 9305
    assert rep.degree == 1
    assert rep.dominant
    assert rep.homaloidal
    assert rep.mode == "sample"


def test_sampled_seed_determinism():
    pm = polar_of("x0*x1*x2*x3*x4")
    a = scan_sampled(pm, 31, targets=64, seed=0)
    b = scan_sampled(pm, 31, targets=64, seed=0)
    assert a == b
    c = scan_sampled(pm, 31, targets=64, seed=1)
    assert c.degree == 1 and c.homaloidal


def test_sampled_non_homaloidal_map():
    # span test sees dominance even though the degree-3 map covers only
    # a Frobenius fraction of rational points
    rep = scan_sampled(moving_of("x0*x1*x2*(x0+x1+x2)"), 101, targets=64, seed=0)
    assert rep.dominant
    assert not rep.homaloidal


def test_sampled_needs_enough_targets():
    with pytest.raises(ValueError):
        scan_sampled(polar_of("x0*x1*x2"), 101, targets=3)


def test_dominance_by_span():
    pts = [ProjectivePoint(c, 101) for c in
           ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))]
    assert dominance_by_span(pts, 101)
    flat = [ProjectivePoint((a, b, 0), 101) for a, b in
            ((1, 0), (0, 1), (1, 1), (1, 2))]
    assert not dominance_by_span(flat, 101)
    with pytest.raises(ValueError):
        dominance_by_span(pts[:2], 101)
    with pytest.raises(ValueError, match="100 is not prime"):
        dominance_by_span(pts, 100)


def test_check_contraction_four_lines():
    F = parse_arrangement("x0*x1*x2*(x0+x1+x2)")
    for i in range(4):
        assert check_contraction(F, i, 101, samples=100, seed=0)


def test_check_contraction_multiplicity_blind():
    F = parse_arrangement("x0^3*x1*x2*(x0+x1+x2)")
    for i in range(4):
        assert check_contraction(F, i, 101, samples=50, seed=0)


def test_check_contraction_past_the_int32_index():
    # |P^3(F_1301)| > 2^31, past the scans' int32 index: the check compares
    # image rows, and each coordinate plane still maps to its dual point
    assert projective_size(3, 1301) >= 2 ** 31
    F = parse_arrangement("x0*x1*x2*x3")
    for i in range(4):
        assert check_contraction(F, i, 1301, samples=50, seed=0)


def test_check_contraction_has_no_size_limit():
    # |P^13(F_31)| > 2^63: the standard Cremona map of P^13 still sends
    # each coordinate hyperplane to its dual point
    assert projective_size(13, 31) >= 2 ** 63
    F = parse_arrangement(" * ".join(f"x{k}" for k in range(14)))
    for i in range(14):
        assert check_contraction(F, i, 31)


@pytest.mark.parametrize("components", [
    ("x0", "x1", "x2"),               # x0 = 0 maps to itself: y_0 = 0
    ("x1*x2", "x1*x2", "x0*x1"),      # x0 = 0 maps to (1:1:0): y_0 != 0
])
def test_check_contraction_refutes_a_wrong_image(monkeypatch, components):
    # the same hyperplane x0 = 0 of x0*x1*x2 under a map that does not
    # contract it to the dual point (1:0:0)
    F = parse_arrangement("x0*x1*x2")
    wrong = RationalMap([parse_polynomial(c, nvars=3) for c in components])
    decomposition = moving_part(F)
    decomposition.moving = wrong
    monkeypatch.setattr(oracle, "moving_part", lambda G: decomposition)
    assert not check_contraction(F, 0, 101)


def test_check_contraction_validation():
    F = parse_arrangement("x0*x1*x2")
    with pytest.raises(IndexError):
        check_contraction(F, 3, 101)
    with pytest.raises(TypeError):
        check_contraction(parse_polynomial("x0*x1*x2"), 0, 101)


@pytest.mark.parametrize("samples", [0, -1])
def test_check_contraction_needs_a_sample(monkeypatch, samples):
    # no sample point is no evidence: refused before any table is built
    def no_tables(*args):
        raise AssertionError("tables built for a check of no samples")

    monkeypatch.setattr(oracle, "_component_tables", no_tables)
    with pytest.raises(ValueError, match="at least one sample"):
        check_contraction(parse_arrangement("x0*x1*x2"), 0, 101,
                          samples=samples)


def test_degree_estimate_rules():
    # contracted images (size >= p-1) never count as generic
    assert _degree_estimate({1: 4953, 2: 384, 3: 1392, 100: 4}, 6733, 101) == 3
    assert _degree_estimate({1: 100, 10: 3}, 103, 11) == 1
    # nothing eligible: plain mode, smaller size on ties
    assert _degree_estimate({100: 1, 3: 1}, 2, 101) == 3


def test_degree_estimate_reads_the_image_fraction_knob(monkeypatch):
    # default 5/1000 of a 1000-point image: a size needs 5 image points
    assert _degree_estimate({1: 995, 3: 5}, 1000, 101) == 3
    assert _degree_estimate({1: 996, 3: 4}, 1000, 101) == 1
    # rounds up: 5/1000 of 1001 points is 5.005, so 5 points fall short
    assert _degree_estimate({1: 996, 3: 5}, 1001, 101) == 1
    monkeypatch.setattr(oracle, "_DEGREE_IMAGE_NUM", 4)
    assert _degree_estimate({1: 996, 3: 4}, 1000, 101) == 3


def test_rejects_composite_modulus():
    with pytest.raises(ValueError):
        scan_exhaustive(polar_of("x0*x1*x2"), 100)
    assert not is_prime(1)


def test_domain_bound(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_MAX_DOMAIN", 10000)
    with pytest.raises(ResourceBoundError):
        scan_exhaustive(polar_of("x0*x1*x2"), 101)


# Peak RSS of a fresh interpreter, in KiB, from its own address space:
# Linux carries the parent's high-water mark into a child's ru_maxrss
# across exec, so under a large test runner ru_maxrss would hide the scan,
# while VmHWM starts afresh with the exec.
PEAK_RSS_SCRIPT = """
import gc
from polarmap import oracle, parsing, polar

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:"))

det = "x0*x3*x5 - x0*x4^2 - x1^2*x5 + 2*x1*x2*x4 - x2^2*x3"
moving = polar.moving_part(parsing.parse_polynomial(det)).moving
# memory a reference cycle holds then stays held, wherever the collector
# would have run
gc.disable()
before = peak()
oracle.scan_sampled(moving, 31, targets=64, seed=0)
print(peak() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc/self/status")
def test_sampled_scan_peak_rss_stays_flat():
    # the det cubic's sampled scan raises the peak by 5-6 MiB; temporaries
    # kept past their task, as by a closure that calls itself (a reference
    # cycle), add about 20 MiB
    package_root = os.path.dirname(os.path.dirname(oracle.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS_SCRIPT], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    assert int(proc.stdout) <= 12 * 1024


@pytest.mark.parametrize("exhaustive_bound, sampled_bound", [
    (132, 133),   # |P^2(F_11)| = 133: only exhaustive mode refuses
    (133, 132),   # only sampled mode refuses
])
def test_default_domain_bounds_are_read_per_mode(monkeypatch, exhaustive_bound,
                                                 sampled_bound):
    # each mode reads its bound as it stands at call time
    monkeypatch.setattr(oracle, "DEFAULT_MAX_DOMAIN", exhaustive_bound)
    monkeypatch.setattr(oracle, "SAMPLED_MAX_DOMAIN", sampled_bound)
    pm = polar_of("x0*x1*x2")
    for bound, scans in (
            (exhaustive_bound, (lambda: scan_exhaustive(pm, 11),
                                lambda: scan_primes(pm, (11,))[0])),
            (sampled_bound, (lambda: scan_sampled(pm, 11, targets=8),
                             lambda: scan_primes(pm, (11,), mode="sample",
                                                 targets=8)[0]))):
        for scan in scans:
            if bound < projective_size(2, 11):
                with pytest.raises(ResourceBoundError, match=f"bound {bound}"):
                    scan()
            else:
                assert scan().domain_size == projective_size(2, 11)


def test_prime_bound_for_int32_scan():
    p = 46341
    while not is_prime(p):
        p += 1
    with pytest.raises(ResourceBoundError):
        scan_exhaustive(polar_of("x0^2 + x1^2"), p)


def test_bad_prime_raises_not_lies():
    # all components vanish mod 2
    m = RationalMap([parse_polynomial("2*x0", nvars=2),
                     parse_polynomial("2*x1", nvars=2)])
    with pytest.raises(ReductionError):
        scan_exhaustive(m, 2)


def test_denominator_divisible_by_p_raises():
    # 1/7 has no residue mod 7: the scan refuses rather than drop the term
    m = RationalMap([Polynomial(2, {(1, 0): Fraction(1, 7)}),
                     parse_polynomial("x1", nvars=2)])
    with pytest.raises(ReductionError, match="vanishes mod 7"):
        scan_exhaustive(m, 7)
    assert scan_exhaustive(m, 11).homaloidal


def _residue_split(rational_map, p):
    """The split of the tables straight from the residues of the
    components' coefficients."""
    return split_tables(residue_tables(rational_map, p), rational_map.n)


def test_integer_tables_match_the_polynomial_components():
    rng = random.Random(2024)
    scales = [Fraction(1), Fraction(-3, 2), Fraction(5, 4), Fraction(1, 9)]
    for _ in range(300):
        nvars = rng.randint(2, 4)
        A = random_arrangement(rng, nvars, rng.randint(1, 4), coeff_bound=3,
                               max_mult=3)
        moving = moving_part(A).moving
        # the same map read from its Polynomials, and a rescaled copy whose
        # integer terms need a common denominator
        rebuilt = RationalMap(list(moving.components))
        rescaled = RationalMap([c * rng.choice(scales)
                                for c in moving.components])
        for p in (7, 101, 46337):
            expected = _residue_split(moving, p)
            assert oracle._component_tables(moving, p) == expected, A
            assert oracle._component_tables(rebuilt, p) == expected, A
            assert oracle._component_tables(rescaled, p) == \
                _residue_split(rescaled, p), A


def test_integer_tables_refuse_a_map_that_vanishes_mod_p():
    # 2*x0, -2*x1: the moving part of certify "(x0+x1)*(x0-x1)" -p 2
    moving = moving_part(parse_arrangement("(x0+x1)*(x0-x1)")).moving
    with pytest.raises(ReductionError, match="every component vanishes mod 2"):
        oracle._component_tables(moving, 2)
    with pytest.raises(ReductionError, match="every component vanishes mod 2"):
        scan_primes(moving, (2,))


def test_integer_tables_name_the_first_coefficient_without_a_residue():
    # the common denominator 6 vanishes mod 3; the error names the first
    # coefficient in table order whose own denominator does
    m = RationalMap([Polynomial(2, {(1, 0): 1}),
                     Polynomial(2, {(1, 0): Fraction(1, 6),
                                    (0, 1): Fraction(2, 3)})])
    assert m.integer_terms() == (6, [{(1, 0): 6}, {(1, 0): 1, (0, 1): 4}])
    with pytest.raises(ReductionError,
                       match="^denominator of 2/3 vanishes mod 3$"):
        oracle._component_tables(m, 3)
    assert oracle._component_tables(m, 5) == _residue_split(m, 5)


def test_composite_modulus_is_refused():
    with pytest.raises(ValueError, match="100 is not prime"):
        scan_exhaustive(polar_of("x0*x1"), 100)


def test_worker_merge_matches_serial(monkeypatch):
    # 16-point chunks give the P^2(F_11) scans 12 tasks, one per prefix;
    # their merged reports equal the one-task scan whatever workers says,
    # and every task runs in this process
    pm = polar_of("x0*x1*x2")
    serial = (scan_exhaustive(pm, 11), scan_sampled(pm, 11, targets=8, seed=3))
    without_a_process(monkeypatch, 16)
    assert len(oracle._block_tasks(pm.n, 11)) == 12
    for workers in (1, 2, 64):
        assert scan_exhaustive(pm, 11, workers=workers) == serial[0]
        assert scan_sampled(pm, 11, targets=8, seed=3,
                            workers=workers) == serial[1]


def first_prime_from(p):
    while not is_prime(p):
        p += 1
    return p


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("moving, p, degree", [
    (lambda: polar_of("x0^3 + x1^3 + x2^3 + x0*x1*x2"), 103, 4),
    (lambda: polar_of("x0^4 + 3*x0^3*x1 + 2*x0^2*x1^2 + x0*x1^3 + x1^4"),
     103, 3),
    (lambda: moving_of("x0*x1*x2*(x0+x1+x2)"), 101, 3),
], ids=["hesse_cubic", "binary_quartic", "four_lines"])
def test_sampled_degree_is_the_exhaustive_rule(moving, p, degree, seed):
    # the targets are images of random points, so they over-represent big
    # fibers; the most common target size is not the generic degree
    rep = scan_sampled(moving(), p, targets=64, seed=seed)
    assert rep.degree == degree
    assert not rep.homaloidal


def test_sampled_targets_match_the_reference_evaluator():
    # the kernel's sampled targets against Polynomial.evaluate plus
    # ProjectivePoint, drawing the same seeded points one at a time
    for m, p, seed in ((polar_of("x0*x1*x2*x3*x4"), 31, 0),
                       (moving_of("x0^2*x1*(x0+x1+x2)"), 13, 4),
                       (polar_of("x0^3 + x1^3 + x2^3 + x0*x1*x2"), 103, 7)):
        rng = random.Random(seed)
        expected = []
        while len(expected) < 16:
            coords = [rng.randrange(p) for _ in range(m.nvars)]
            value = [residue(c.evaluate(coords), p) for c in m.components]
            if any(coords) and any(value):
                expected.append(ProjectivePoint(value, p).index())
        keys, rows = oracle._sample_targets(
            oracle._component_tables(m, p), m.nvars, p, 16, seed)
        assert keys.tolist() == expected
        assert [ProjectivePoint(r, p).index() for r in rows.tolist()] == expected


def test_sampled_scan_raises_on_an_empty_target_fiber(monkeypatch):
    # every target is the image of a domain point; if the scan's points
    # miss it, enumeration or keying is broken and must not pass silently
    real = oracle._chunk_points

    def stuck_points(n, p, lo, hi):
        coords = real(n, p, lo, hi)
        coords[:] = 1
        return coords

    monkeypatch.setattr(oracle, "_chunk_points", stuck_points)
    with pytest.raises(InconsistencyError):
        scan_sampled(polar_of("x0*x1*x2"), 101, targets=8, seed=0)


def test_targets_bound_refuses_before_drawing(monkeypatch):
    pm = polar_of("x0*x1*x2")
    expected = scan_sampled(pm, 11, targets=8, seed=0)
    real = oracle._sample_targets
    drawn = []

    def recording(*args):
        drawn.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, "_sample_targets", recording)
    monkeypatch.setattr(oracle, "SAMPLED_MAX_TARGETS", 8)
    with pytest.raises(ResourceBoundError, match="more than 8 targets"):
        scan_sampled(pm, 11, targets=9, seed=0)
    assert drawn == []
    assert scan_sampled(pm, 11, targets=8, seed=0) == expected
    assert len(drawn) == 1


def test_int32_accumulation_is_exact():
    # 48,516 terms of value p-1: the unreduced int32 sum would wrap
    p = 46337
    form = Polynomial(3, {(a, b, 310 - a - b): -1
                          for a in range(311) for b in range(311 - a)})
    assert len(form.terms) == 48516
    tables = residue_tables(RationalMap([form] * 3), p)
    images = oracle._evaluate_images(tables, np.ones((1, 3), dtype=np.int32), p)
    assert images.tolist() == [[44158] * 3]
    assert (-48516) % p == 44158


@pytest.mark.parametrize("copies", [1, 512])
def test_deferred_reduction_is_exact(copies):
    """Terms of (p-1)^2 go into the sum unreduced: at p = 30011 two of them
    fit above a reduced sum and three do not, so a sum reduced one term
    late wraps.  8 rows, or 4,096 as 512 copies of them (the two reducers
    of _evaluate_images), against Python integers."""
    p = 30011
    assert (p - 1) + 2 * (p - 1) ** 2 < 2 ** 31 <= 3 * (p - 1) ** 2
    # at x = (p-1, p-1, p-1) every odd-degree monomial is p-1, and so is
    # each coefficient -1 mod p; tables as _component_tables builds them,
    # but not homogeneous, as the prefix tables of a scan are not
    odd = {(a, b, d - a - b): -1 for d in (1, 3, 5)
           for a in range(d + 1) for b in range(d + 1 - a)}
    components = [
        {**odd, (0, 0, 0): -1},
        {(0, 0, 0): 7},
        # constants and terms of (p-1)^2 interleaved: the constant sorts
        # first, then x2^5, x1^5 and x0^5 between the even-degree terms
        {(0, 0, 0): -2, (0, 0, 5): -1, (0, 0, 2): -3, (0, 5, 0): -1,
         (0, 2, 2): -1, (5, 0, 0): -1},
    ]
    assert len(components[0]) == 35
    tables = [([e for e, _ in sorted(terms.items())],
               [c % p for _, c in sorted(terms.items())])
              for terms in components]
    rng = random.Random(p)
    rows = [[p - 1] * 3, [1, 1, 1], [0, 0, 0], [p - 1, 1, p - 1]] + \
        [[rng.randrange(p) for _ in range(3)] for _ in range(4)]
    expected = [[sum(c * pow(row[0], e[0], p) * pow(row[1], e[1], p) *
                     pow(row[2], e[2], p) for e, c in zip(exps, coeffs)) % p
                 for exps, coeffs in tables] for row in rows]
    coords = np.array(rows * copies, dtype=np.int32)
    images = oracle._evaluate_images(tables, coords, p)
    assert images.dtype == np.int32
    assert images.tolist() == expected * copies
    # (p-1)^2 = 1 mod p: 34 odd terms and the constant -1; -2 + 1 - 3 + 1 - 1 + 1
    assert expected[0] == [33, 7, p - 3]


def test_check_contraction_shares_the_scan_prime_bound():
    F = parse_arrangement("x0*x1*x2")
    with pytest.raises(ResourceBoundError):
        check_contraction(F, 0, first_prime_from(46341), samples=10)
    assert check_contraction(F, 0, first_prime_from(46000), samples=10)


def test_scan_primes_returns_one_report_per_prime(monkeypatch):
    m = moving_of("x0*x1*x2*(x0+x1+x2)")
    reps = scan_primes(m, (101, 211))
    assert [r.p for r in reps] == [101, 211]
    assert scan_primes(m) == reps[:1]    # oracle.DEFAULT_PRIMES
    assert reps[0] == scan_exhaustive(m, 101)
    assert [r.degree for r in reps] == [3, 3]
    reps = scan_primes(m, (101,), mode="sample", targets=64, seed=0)
    assert reps[0] == scan_sampled(m, 101, targets=64, seed=0)
    with pytest.raises(ValueError):
        scan_primes(m, ())
    with pytest.raises(ValueError):
        scan_primes(m, (101,), mode="montecarlo")
    monkeypatch.setattr(oracle, "DEFAULT_MAX_DOMAIN", 100)
    with pytest.raises(ResourceBoundError):
        scan_primes(m, (101,))


def test_scan_primes_scans_a_repeated_prime_once(monkeypatch):
    m = moving_of("x0*x1*x2*(x0+x1+x2)")
    expected = scan_primes(m, (101, 211))
    scanned = []
    real = oracle.scan_exhaustive

    def counted(rational_map, p):
        scanned.append(p)
        return real(rational_map, p)

    monkeypatch.setattr(oracle, "scan_exhaustive", counted)
    assert scan_primes(m, (101, 211, 101, 211)) == expected
    assert scanned == [101, 211]


def test_scan_primes_twisted_cube():
    cube = moving_of("x0*x1*(x0+x1)*(x0-x1)")
    # p = 109 and 227 are not 5 or 7 mod 12: both see the degree
    assert [r.degree for r in scan_primes(cube, (109, 227))] == [3, 3]
    # at p = 101 cubing is a bijection, so the map reads as birational
    with pytest.raises(InconsistencyError):
        scan_primes(cube, (101, 109))


def test_scan_primes_cone_degree_is_not_compared():
    # a cone's fibers have size about p; the fallback degree grows with p,
    # while dominant and homaloidal agree
    reps = scan_primes(moving_of("x0*x1*(x0-x1)", nvars=3), (101, 211))
    assert [r.degree >= r.p - 1 for r in reps] == [True, True]
    assert reps[0].degree != reps[1].degree
    assert not any(r.dominant or r.homaloidal for r in reps)


def test_reduce_matches_the_remainder():
    """The quotient route of _reduce against %, over several blocks and a
    partial last block, up to the largest int32 a Horner step reaches."""
    rng = np.random.default_rng(5)
    size = 3 * oracle._REDUCE_BLOCK + 17
    for dtype, high in ((np.int32, 2 ** 31 - 1), (np.int64, 2 ** 62)):
        values = rng.integers(0, high, size=size, dtype=dtype)
        for p in (2, 31, 46337):
            reduced = oracle._reduce(values.copy(), p)
            assert reduced.dtype == dtype
            assert np.array_equal(reduced, values % p)
    grid = values[:2 * 35].reshape(2, 35) % 1000
    assert np.array_equal(oracle._reduce(grid.copy(), 7), grid % 7)
    # a strided column would be reduced in a copy: refused
    with pytest.raises(ValueError, match="contiguous"):
        oracle._reduce(grid[:, 0], 7)


@pytest.mark.parametrize("size", [1199, 1200])
def test_reduce_in_place_on_both_sides_of_the_threshold(size):
    """np.remainder below _REDUCE_ROWS elements, the quotient route from
    it: either way in place, equal to %, and a strided array refused."""
    assert oracle._REDUCE_ROWS == 1200
    rng = np.random.default_rng(size)
    for p in (101, np.array(101, dtype=np.int32), 46337):
        values = rng.integers(0, 2 ** 31, size=size, dtype=np.int32)
        expected = values % p
        assert oracle._reduce(values, p) is values
        assert np.array_equal(values, expected)
        strided = rng.integers(0, 2 ** 31, size=2 * size, dtype=np.int32)[::2]
        before = strided.copy()
        with pytest.raises(ValueError, match="contiguous"):
            oracle._reduce(strided, p)
        assert np.array_equal(strided, before)


def test_a_map_that_vanishes_on_every_point_raises():
    # x0^2*x1 + x0*x1^2 = x0*x1*(x0 + x1) vanishes on all of P^1(F_2): no
    # fiber to count, no target to draw
    f = parse_polynomial("x0^2*x1 + x0*x1^2")
    m = RationalMap([f, f])
    with pytest.raises(ReductionError,
                       match="no points survive outside the base locus mod 2"):
        scan_exhaustive(m, 2)
    with pytest.raises(ReductionError,
                       match="could not find 3 non-base sample points mod 2"):
        scan_sampled(m, 2, targets=3)
