"""Rank criterion, descent certificates, the monomial family, and the
four-way agreement of full_verdict."""

import dataclasses
import random

import pytest

from polarmap import verdict
from polarmap.arrangement import LinearFormProduct
from polarmap.errors import InconsistencyError
from polarmap.parsing import parse_arrangement, parse_polynomial
from polarmap.polar import RationalMap, moving_part, restrict_arrangement
from polarmap.poly import Polynomial
from polarmap.verdict import (Certificate, CremonaMap, cremona_involution_check,
                              full_verdict, inductive_certificate,
                              monomial_moving_part, replay_certificate,
                              standard_cremona, structural_verdict)

from gens import random_arrangement


def test_structural_examples():
    assert structural_verdict(parse_arrangement("x0*x1*x2*x3"))
    assert not structural_verdict(parse_arrangement("x0*x1*x2*(x0+x1+x2)"))
    assert structural_verdict(parse_arrangement("x0^3*x1*x2"))
    with pytest.raises(TypeError):
        structural_verdict(parse_polynomial("x0*x1*x2"))


def test_structural_needs_full_rank():
    # r = n but the forms are dependent: still a cone, still false
    assert not structural_verdict(
        LinearFormProduct([(1, 0, 0), (0, 1, 0), (1, 1, 0)]))


def test_structural_multiplicity_blind():
    rng = random.Random(23)
    for _ in range(100):
        nvars = rng.randrange(2, 5)
        F = random_arrangement(rng, nvars, rng.randrange(1, nvars + 3),
                               max_mult=4)
        assert structural_verdict(F) == structural_verdict(F.reduced())


def test_certificate_standard_frame():
    cert = inductive_certificate(parse_arrangement("x0*x1*x2*x3"))
    assert cert.verdict
    assert len(cert.chain) == 2
    assert cert.base_case == {"n": 1, "forms": [[1, 0], [0, 1]]}
    assert cert.refutation is None
    assert replay_certificate(parse_arrangement("x0*x1*x2*x3"), cert)


def test_certificate_matches_reduction():
    F = parse_arrangement("x0^2*x1*x2")
    cert = inductive_certificate(F)
    cert_red = inductive_certificate(F.reduced())
    assert cert.verdict and cert_red.verdict
    assert [s.index for s in cert.chain] == [s.index for s in cert_red.chain]
    assert [s.arrangement for s in cert.chain] == \
        [s.arrangement for s in cert_red.chain]
    # only the reduced flag sees the multiplicity
    assert cert.chain[0].reduced
    assert not cert_red.chain[0].reduced


def test_certificate_rank_refutation():
    cert = inductive_certificate(parse_arrangement("x0*x1*(x0+x1)", nvars=3))
    assert not cert.verdict
    assert cert.chain == ()
    assert cert.refutation["reason"] == "rank-deficient"
    assert cert.refutation["rank"] == 2
    assert cert.refutation["required"] == 3


def test_certificate_count_refutation():
    cert = inductive_certificate(parse_arrangement("x0*x1*x2*(x0+x1+x2)"))
    assert not cert.verdict
    assert cert.refutation == {"reason": "r!=n", "r": 3, "n": 2}


def test_certificate_base_case_p1():
    assert inductive_certificate(parse_arrangement("x0*x1", nvars=2)).verdict
    assert not inductive_certificate(parse_arrangement("x0^5", nvars=2)).verdict
    three = parse_arrangement("x0*x1*(x0+x1)", nvars=2)
    cert = inductive_certificate(three)
    assert not cert.verdict
    assert cert.refutation["reason"] == "r!=n"


def test_certificate_agrees_with_rank_criterion():
    rng = random.Random(31)
    for _ in range(150):
        nvars = rng.randrange(2, 5)
        F = random_arrangement(rng, nvars, rng.randrange(1, nvars + 3),
                               max_mult=3)
        cert = inductive_certificate(F)
        assert cert.verdict == structural_verdict(F)
        if cert.verdict:
            assert len(cert.chain) == F.n - 1
            assert replay_certificate(F, cert)
        else:
            assert cert.refutation["reason"] in ("rank-deficient", "r!=n")


def test_certificate_entries_serializable():
    import json
    cert = inductive_certificate(parse_arrangement("x0^2*x1*x2*x3"))
    entries = cert.entries()
    assert json.loads(json.dumps(entries)) == entries
    assert entries[-1] == {"base_case": {"n": 1, "forms": [[1, 0], [0, 1]]}}


def test_standard_cremona_shape():
    c = standard_cremona(2)
    assert str(c) == "(x1*x2, x0*x2, x0*x1)"
    with pytest.raises(ValueError):
        standard_cremona(0)


def test_monomial_moving_part_coefficients():
    m = monomial_moving_part((2, 1, 1, 1))
    assert str(m) == "(2*x1*x2*x3, x0*x2*x3, x0*x1*x3, x0*x1*x2)"
    assert monomial_moving_part((1, 1, 1)) == standard_cremona(2)
    with pytest.raises(ValueError):
        monomial_moving_part((1, 0, 1))


def test_monomial_moving_part_is_moving_part():
    rng = random.Random(7)
    for _ in range(40):
        nvars = rng.randrange(2, 5)
        exps = tuple(rng.randrange(1, 4) for _ in range(nvars))
        closed = monomial_moving_part(exps)
        honest = moving_part(CremonaMap(exps).polynomial()).moving
        assert closed == honest


def linear_map(rows):
    """x -> A x over Q, for the matrix A with the given rows."""
    nvars = len(rows)
    unit = [tuple(int(j == k) for j in range(nvars)) for k in range(nvars)]
    return RationalMap([Polynomial(nvars, dict(zip(unit, row)))
                        for row in rows])


def test_homaloidal_moving_part_is_a_projective_image_of_cremona():
    # Theorem B, "in particular": with the forms of a homaloidal F as the
    # rows of A and its multiplicities as m, the moving part is
    # A^T . monomial_moving_part(m) . A, and that monomial map is
    # diag(m) . standard_cremona(n): projectivities around the standard map
    rng = random.Random(59)
    checked = 0
    while checked < 60:
        nvars = rng.randrange(2, 5)
        F = random_arrangement(rng, nvars, nvars, max_mult=3)
        if not structural_verdict(F):
            continue
        A = [list(row) for row in F.forms]
        m = F.multiplicities
        monomial = monomial_moving_part(m)
        assert moving_part(F).moving == linear_map(list(zip(*A))).compose(
            monomial.compose(linear_map(A)))
        diag = [[mi if j == i else 0 for j in range(nvars)]
                for i, mi in enumerate(m)]
        assert monomial == linear_map(diag).compose(standard_cremona(nvars - 1))
        checked += 1


def test_cremona_map_type():
    cm = CremonaMap((2, 1, 1))
    assert cm.n == 2
    assert str(cm.polynomial()) == "x0^2*x1*x2"
    assert cm.moving_map() == monomial_moving_part((2, 1, 1))
    with pytest.raises(ValueError):
        CremonaMap((1, -1, 1))
    with pytest.raises(ValueError):
        CremonaMap((3,))
    with pytest.raises(AttributeError):
        cm.exponents = (1, 1, 1)


def test_involution():
    for n in (1, 2, 3):
        assert cremona_involution_check(n)


def test_full_verdict_accepts_multiplied_frame():
    rep = full_verdict(parse_arrangement("x0^3*x1*x2*x3"), primes=(101,))
    assert rep.homaloidal
    assert rep.degree == 1
    assert rep.n == 3
    assert rep.field == "Fp" and rep.p == 101
    assert rep.mode == "exhaustive" and rep.seed is None
    assert any("restriction_check" in e for e in rep.certificate)
    check = next(e for e in rep.certificate if "restriction_check" in e)
    assert check["restriction_check"]["verdict"]


def test_full_verdict_rejects_four_lines():
    rep = full_verdict(parse_arrangement("x0*x1*x2*(x0+x1+x2)"),
                       primes=(101, 211))
    assert not rep.homaloidal
    assert rep.degree == 3
    assert any("refutation" in e for e in rep.certificate)
    assert {"prime_stability": {"primes": [101, 211], "agree": True}} \
        in rep.certificate


def test_full_verdict_repeated_prime_is_no_stability_check():
    F = parse_arrangement("x0*x1*x2")
    once = full_verdict(F, primes=(101,))
    twice = full_verdict(F, primes=(101, 101))
    assert not any("prime_stability" in e for e in twice.certificate)
    assert twice.certificate == once.certificate
    assert twice.fiber_histogram == once.fiber_histogram


def test_full_verdict_random_frame_image():
    # invertible integer change of coordinates applied to the frame rows
    rng = random.Random(41)
    rows = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    for _ in range(10):
        i, j = rng.randrange(4), rng.randrange(4)
        if i != j:
            c = rng.choice([-1, 1, 2])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    F = LinearFormProduct(rows)
    assert F.rank() == 4
    rep = full_verdict(F, primes=(101,))
    assert rep.homaloidal


def test_full_verdict_bad_prime_is_loud():
    # at p=11 the contracted loci eat too much of the domain for the 90%
    # knob, so the oracle contradicts the structure: must raise, not lie
    with pytest.raises(InconsistencyError):
        full_verdict(parse_arrangement("x0*x1*x2"), primes=(11,))


def test_full_verdict_raises_when_the_certificate_contradicts_the_rank(
        monkeypatch):
    real = verdict.inductive_certificate
    monkeypatch.setattr(
        verdict, "inductive_certificate",
        lambda F: dataclasses.replace(real(F), verdict=not real(F).verdict))
    with pytest.raises(InconsistencyError,
                       match="certificate says False, rank criterion says True"):
        full_verdict(parse_arrangement("x0*x1*x2"), primes=(101,))


def test_full_verdict_raises_when_f_and_f_red_disagree(monkeypatch):
    # the second scan is that of F_red: its flag flipped, the two oracle
    # routes disagree
    real, scans = verdict.scan_primes, []

    def flipped_second(rational_map, **scan):
        reports = real(rational_map, **scan)
        scans.append(rational_map)
        if len(scans) == 2:
            reports = [dataclasses.replace(r, homaloidal=not r.homaloidal)
                       for r in reports]
        return reports

    monkeypatch.setattr(verdict, "scan_primes", flipped_second)
    with pytest.raises(InconsistencyError,
                       match="oracle flags differ between F and F_red at "
                             "p=101: True vs False"):
        full_verdict(parse_arrangement("x0^2*x1*x2"), primes=(101,))
    assert len(scans) == 2


def test_full_verdict_raises_when_the_restriction_is_not_homaloidal(
        monkeypatch):
    # structural_verdict answers for F, then calls its restriction a cone
    real, verdicts = verdict.structural_verdict, []

    def false_after_the_first(F):
        verdicts.append(F)
        return real(F) if len(verdicts) == 1 else False

    monkeypatch.setattr(verdict, "structural_verdict", false_after_the_first)
    with pytest.raises(InconsistencyError,
                       match="restriction along form 0 of homaloidal .* is "
                             "not homaloidal"):
        full_verdict(parse_arrangement("x0*x1*x2"), primes=(101,))
    assert len(verdicts) == 2


def test_full_verdict_validation():
    with pytest.raises(ValueError):
        full_verdict(parse_arrangement("x0*x1*x2"), primes=())
    with pytest.raises(ValueError):
        full_verdict(parse_arrangement("x0*x1*x2"), primes=(101,),
                     mode="montecarlo")


@pytest.mark.parametrize("parse", [parse_polynomial, parse_arrangement])
@pytest.mark.parametrize("text", ["x0^2", "x0^3"])
def test_full_verdict_refuses_p0_before_any_scan(monkeypatch, parse, text):
    # one refusal for both input kinds, as the CLI gives it
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned an input on P^0")

    monkeypatch.setattr(verdict, "scan_primes", no_scan)
    with pytest.raises(ValueError,
                       match=r"^ambient space must be at least P\^1$"):
        full_verdict(parse(text))


def test_full_verdict_input_text_passthrough():
    rep = full_verdict(parse_arrangement("x0*x1*x2"), primes=(101,),
                       input_text="x0*x1*x2")
    assert rep.input == "x0*x1*x2"
    assert rep.fiber_histogram == {1: 10000, 100: 3}


def test_twisted_cube_map_needs_the_right_primes():
    # real/imaginary parts of (x0 + i*x1)^3: a degree-3 self-map of P^1
    # that is a bijection on F_p points exactly when p = 5 or 7 mod 12
    # (3 divides neither the split torus order p-1 when p = 1 mod 4 nor
    # the non-split order p+1 when p = 3 mod 4), i.e. at half of all primes.
    # Fiber counting alone cannot see the degree there; the structural
    # cross-check turns that into a loud error instead of a wrong answer.
    F = parse_arrangement("x0*x1*(x0+x1)*(x0-x1)")
    with pytest.raises(InconsistencyError):
        full_verdict(F, primes=(101,))
    with pytest.raises(InconsistencyError):
        full_verdict(F, primes=(211,))
    for p in (13, 23, 109, 227):  # p = +-1 mod 12: cubing is 3-to-1
        rep = full_verdict(F, primes=(p,))
        assert not rep.homaloidal
        assert rep.degree == 3
