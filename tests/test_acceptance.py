"""Acceptance suite: ten criteria, one pass/fail line each.

Each test prints "ACCEPTANCE <k>: PASS" once its assertions hold (visible
under pytest -s, and in captured output otherwise); a failure prints the
FAIL line and re-raises.  Tolerances are exact unless a comment at the
assertion says otherwise.  Criterion 8 scans 8.6e8 points at p=61 and
dominates the runtime (a few minutes single-core).
"""

import functools
import random
import time
from itertools import combinations, product

import pytest

from polarmap.arrangement import LinearFormProduct, canonical_row
from polarmap.errors import ParseError
from polarmap.fields import QQ
from polarmap.oracle import check_contraction, scan_exhaustive, scan_sampled
from polarmap.parsing import format_canonical, parse_arrangement, parse_polynomial
from polarmap.polar import is_cone, moving_part, polar_system, restrict_arrangement
from polarmap.poly import Polynomial, exact_rank, gcd
from polarmap.verdict import (CremonaMap, full_verdict, monomial_moving_part,
                              structural_verdict)

from gens import random_poly
from projective import ProjectivePoint


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({label}): FAIL")
                raise
            print(f"\nACCEPTANCE {number} ({label}): PASS")
            return result
        return run
    return wrap


def census_rows(nvars):
    """All projective classes of nonzero vectors with entries in -1,0,1."""
    rows = set()
    for vec in product((-1, 0, 1), repeat=nvars):
        if any(vec):
            rows.add(canonical_row(vec))
    return sorted(rows)


@criterion(1, "standard Cremona n=1..3")
def test_criterion_1_standard_cremona():
    for n in (1, 2, 3):
        text = "*".join(f"x{i}" for i in range(n + 1))
        system = polar_system(parse_polynomial(text))
        started = time.monotonic()
        rep = scan_exhaustive(system, 101)
        elapsed = time.monotonic() - started
        assert rep.degree == 1
        assert rep.dominant
        assert rep.homaloidal
        if n == 3:
            assert elapsed < 60.0  # tolerance from the runtime bound


@criterion(2, "monomial family moving parts")
def test_criterion_2_monomial_family():
    for n in (2, 3):
        for m in (2, 3):
            exponents = (m,) + (1,) * n
            F = CremonaMap(exponents).polynomial()
            dec = moving_part(F)
            closed = monomial_moving_part(exponents)
            assert dec.moving == closed  # exact symbolic equality
            rep = scan_exhaustive(dec.moving, 101)
            assert rep.degree == 1


@criterion(3, "census: count criterion vs oracle")
def test_criterion_3_count_criterion_census():
    # full n=2 census, r <= 3, both primes, zero disagreements
    rows = census_rows(3)
    assert len(rows) == 13
    totals = {r: 0 for r in range(4)}
    homaloidal = {r: 0 for r in range(4)}
    full_rank = {r: 0 for r in range(4)}
    for r in range(4):
        for chosen in combinations(rows, r + 1):
            F = LinearFormProduct(chosen, nvars=3)
            structural = structural_verdict(F)
            dec = moving_part(F)
            for p in (101, 211):
                assert scan_exhaustive(dec.moving, p).homaloidal == structural
            totals[r] += 1
            homaloidal[r] += structural
            full_rank[r] += F.r == F.n and F.rank() == 3
    assert totals == {0: 13, 1: 78, 2: 286, 3: 715}
    assert homaloidal[3] == 0          # n+2 forms are never homaloidal
    assert homaloidal[2] == full_rank[2] == 246
    assert homaloidal[0] == homaloidal[1] == 0

    # n=3: seeded samples stand in for the infeasible full enumeration
    rows4 = census_rows(4)
    assert len(rows4) == 40
    rng = random.Random(2024)
    for _ in range(30):
        chosen = rng.sample(rows4, 5)
        F = LinearFormProduct(chosen, nvars=4)
        assert not structural_verdict(F)
        assert not scan_exhaustive(moving_part(F).moving, 101).homaloidal
    found = 0
    while found < 30:
        chosen = rng.sample(rows4, 4)
        F = LinearFormProduct(chosen, nvars=4)
        if F.rank() < 4:
            continue
        assert structural_verdict(F)
        assert scan_exhaustive(moving_part(F).moving, 101).homaloidal
        found += 1


@criterion(4, "multiplicity blindness")
def test_criterion_4_multiplicity_blindness():
    rows = census_rows(3)
    rng = random.Random(77)
    for _ in range(50):
        chosen = rng.sample(rows, rng.randrange(1, 6))
        mults = [rng.randrange(1, 4) for _ in chosen]
        F = LinearFormProduct(chosen, mults, nvars=3)
        # full_verdict raises InconsistencyError unless structural,
        # certificate, oracle(F), oracle(F_red) all agree
        rep = full_verdict(F, primes=(101,))
        assert rep.homaloidal == structural_verdict(F)
        assert rep.homaloidal == structural_verdict(F.reduced())


def _substituted(f, images):
    return f.substitute(images)


def _random_change(rng, nvars):
    rows = [[1 if i == j else 0 for j in range(nvars)] for i in range(nvars)]
    for _ in range(8):
        i, j = rng.randrange(nvars), rng.randrange(nvars)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    vars_ = [Polynomial.variable(QQ, nvars, k) for k in range(nvars)]
    images = []
    for row in rows:
        acc = Polynomial.zero(QQ, nvars)
        for c, v in zip(row, vars_):
            acc = acc + v * c
        images.append(acc)
    return images


@criterion(5, "cone detection")
def test_criterion_5_cones():
    plane_cone = parse_polynomial("x0*x1", nvars=3)
    space_cone = parse_polynomial("x0*x1", nvars=4)
    assert is_cone(plane_cone)
    assert is_cone(space_cone)
    for f, p in ((plane_cone, 101), (space_cone, 101)):
        rep = scan_exhaustive(moving_part(f).moving, p)
        assert not rep.dominant
    rng = random.Random(99)
    not_cone = parse_polynomial("x0*x1*x2")
    assert not is_cone(not_cone)
    for _ in range(20):
        images = _random_change(rng, 3)
        assert is_cone(_substituted(plane_cone, images))
        assert not is_cone(_substituted(not_cone, images))


@criterion(6, "hyperplane contraction")
def test_criterion_6_contraction():
    F = parse_arrangement("x0*x1*x2*x3")
    p = 101
    for i in range(4):
        assert check_contraction(F, i, p, samples=100, seed=0)
    # independent spot check: points of {X_i=0} land on the dual point
    reduced = [c.reduce_mod(p) for c in moving_part(F).moving.components]
    for i in range(4):
        dual = ProjectivePoint(F.forms[i], p)
        for t, s in ((1, 1), (2, 3), (5, 7), (11, 13), (29, 31)):
            point = [t if k == (i + 1) % 4 else s if k == (i + 2) % 4
                     else 1 if k == (i + 3) % 4 else 0 for k in range(4)]
            value = [c.evaluate(point) for c in reduced]
            assert ProjectivePoint(value, p) == dual


@criterion(7, "restriction hereditarity")
def test_criterion_7_restrictions():
    rows = census_rows(3)
    for size in (2, 3, 4):
        for chosen in combinations(rows, size):
            F = LinearFormProduct(chosen, nvars=3)
            for k in range(F.r + 1):
                restriction = restrict_arrangement(F, k)
                if structural_verdict(F):
                    assert structural_verdict(restriction)
                # span condition: the restriction along
                # L_k has a repeated form exactly when two other forms
                # become dependent together with L_k
                collision = any(
                    exact_rank([F.forms[a], F.forms[b], F.forms[k]], QQ) <= 2
                    for a, b in combinations(
                        [j for j in range(F.r + 1) if j != k], 2))
                assert restriction.is_squarefree() == (not collision)


@criterion(8, "non-arrangement homaloidal inputs")
def test_criterion_8_known_examples():
    quadric = polar_system(parse_polynomial("x0^2 + x1^2 + x2^2 + x3^2"))
    rep = scan_exhaustive(quadric, 101)
    assert rep.fiber_histogram == {1: 1040604}  # exact
    assert rep.degree == 1 and rep.homaloidal

    det = parse_polynomial(
        "x0*x3*x5 - x0*x4^2 - x1^2*x5 + 2*x1*x2*x4 - x2^2*x3")
    system = polar_system(det)
    verdicts = []
    for p in (31, 61):
        rep = scan_sampled(system, p, targets=64, seed=0)
        assert rep.degree == 1
        assert rep.homaloidal
        verdicts.append((rep.degree, rep.dominant, rep.homaloidal))
    assert verdicts[0] == verdicts[1]  # two-prime stability


@criterion(9, "polynomial property suites")
def test_criterion_9_property_suites():
    rng = random.Random(1234)
    euler = leibniz = roundtrip = divisibility = 0
    while euler < 1000:
        f = random_poly(rng, rng.randrange(1, 4), max_degree=3, max_terms=4,
                        homogeneous=True, nonzero=True)
        d = f.homogeneous_degree()
        total = Polynomial.zero(QQ, f.nvars)
        for i in range(f.nvars):
            total = total + Polynomial.variable(QQ, f.nvars, i) * f.derivative(i)
        assert total == f * d
        euler += 1
    while leibniz < 1000:
        nvars = rng.randrange(1, 4)
        f = random_poly(rng, nvars, max_degree=3, max_terms=4)
        g = random_poly(rng, nvars, max_degree=3, max_terms=4)
        i = rng.randrange(nvars)
        assert (f * g).derivative(i) == \
            f.derivative(i) * g + f * g.derivative(i)
        leibniz += 1
    while roundtrip < 1000:
        nvars = rng.randrange(1, 4)
        f = random_poly(rng, nvars, max_degree=3, max_terms=4, nonzero=True)
        g = random_poly(rng, nvars, max_degree=3, max_terms=4, nonzero=True)
        assert (f * g).exact_divide(g) == f
        roundtrip += 1
    while divisibility < 1000:
        nvars = rng.randrange(1, 4)
        a = random_poly(rng, nvars, max_degree=2, max_terms=3, nonzero=True)
        b = random_poly(rng, nvars, max_degree=2, max_terms=3, nonzero=True)
        if rng.random() < 0.5:  # plant a common factor half the time
            g = random_poly(rng, nvars, max_degree=2, max_terms=2,
                            nonzero=True)
            a, b = a * g, b * g
        h = gcd(a, b)
        assert a.exact_divide(h) * h == a
        assert b.exact_divide(h) * h == b
        divisibility += 1


@criterion(10, "parser round-trip and fuzz")
def test_criterion_10_parser():
    rng = random.Random(4321)
    for _ in range(200):
        nvars = rng.randrange(1, 5)
        f = random_poly(rng, nvars, max_degree=4, max_terms=6)
        assert parse_polynomial(format_canonical(f), nvars=nvars) == f
    alphabet = "x0123456789+-*^() \t\n.eEqQ/"
    for _ in range(600):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randrange(1, 60)))
        try:
            parse_polynomial(text)
        except ParseError:
            pass  # rejection is fine, crashing is not
