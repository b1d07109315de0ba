import random
from fractions import Fraction

import pytest

from polarmap import (DegenerateRestrictionError, InexactDivisionError,
                      LinearFormProduct, Polynomial)
from polarmap import polar
from polarmap.oracle import scan_exhaustive
from polarmap.parsing import parse_arrangement, parse_polynomial
from polarmap.polar import (
    RationalMap,
    is_cone,
    moving_part,
    polar_system,
    restrict_arrangement,
)
from polarmap.poly import restrict_to_hyperplane
from gens import random_arrangement, random_poly


def test_polar_system_examples():
    quad = parse_polynomial("x0^2+x1^2+x2^2+x3^2")
    m = polar_system(quad)
    assert [str(c) for c in m.components] == ["2*x0", "2*x1", "2*x2", "2*x3"]

    cremona = polar_system(parse_polynomial("x0*x1*x2"))
    assert [str(c) for c in cremona.components] == ["x1*x2", "x0*x2", "x0*x1"]
    assert cremona.degree == 2
    assert cremona.n == 2
    assert cremona.component_gcd().degree() == 0


def test_polar_system_rejects_bad_input():
    with pytest.raises(ValueError):
        polar_system(Polynomial.zero(2))
    with pytest.raises(ValueError):
        polar_system(Polynomial.constant(2, 5))
    with pytest.raises(ValueError):
        polar_system(parse_polynomial("x0^2+x1"))


def test_polar_euler_link():
    rng = random.Random(200)
    for _ in range(50):
        f = random_poly(rng, 3, max_degree=4, homogeneous=True, nonzero=True)
        if f.homogeneous_degree() < 1:
            continue
        m = polar_system(f)
        total = Polynomial.zero(3)
        for i in range(3):
            total = total + Polynomial.variable(3, i) * m.components[i]
        assert total == f.homogeneous_degree() * f


def test_rational_map_validation():
    x0 = Polynomial.variable(2, 0)
    x1 = Polynomial.variable(2, 1)
    with pytest.raises(ValueError):
        RationalMap([x0])                       # wrong component count
    with pytest.raises(ValueError):
        RationalMap([x0, x1 ** 2])              # mixed degrees
    with pytest.raises(ValueError):
        RationalMap([Polynomial.zero(2), Polynomial.zero(2)])
    m = RationalMap([Polynomial.zero(2), x0])  # zero component allowed
    assert m.degree == 1


def test_base_divisor_factored():
    def base_divisor(text):
        return moving_part(parse_arrangement(text)).base_divisor

    assert str(base_divisor("x0*x1*x2*x3")) == "1"
    assert base_divisor("x0^3*x1^2*x2") == parse_polynomial("x0^2*x1", nvars=3)
    assert str(base_divisor("x0^2*x1*x2")) == "x0"


def test_moving_part_monomial_closed_form():
    A = parse_arrangement("x0^2*x1*x2")
    dec = moving_part(A)
    assert str(dec.base_divisor) == "x0"
    assert [str(c) for c in dec.moving.components] == ["2*x1*x2", "x0*x2", "x0*x1"]
    assert dec.reduced == parse_polynomial("x0*x1*x2")
    assert dec.moving.component_gcd().degree() == 0


def test_moving_part_squarefree_is_polar_system():
    f = parse_polynomial("x0*x1*x2")
    dec = moving_part(f)
    assert dec.base_divisor.degree() == 0
    assert dec.moving == polar_system(f)
    assert dec.reduced == f


def test_moving_part_paths_agree():
    rng = random.Random(201)
    for _ in range(15):
        A = random_arrangement(rng, 3, rng.randint(1, 3), max_mult=3)
        fast = moving_part(A)
        slow = moving_part(A.expand())
        # base divisors agree up to the monic normalization of the gcd path
        from polarmap.poly import monic
        if fast.base_divisor.degree() > 0:
            assert monic(fast.base_divisor) == slow.base_divisor
        else:
            assert slow.base_divisor.degree() == 0
        # the moving maps agree up to one scalar
        ratio = None
        for a, b in zip(fast.moving.components, slow.moving.components):
            assert a.is_zero == b.is_zero
            if a.is_zero:
                continue
            ea, ca = a.leading_term()
            eb, cb = b.leading_term()
            assert ea == eb
            r = ca / cb
            ratio = ratio or r
            assert r == ratio
            assert a == b * r


def test_moving_part_reconstructs_partials():
    A = parse_arrangement("(x0+x1)^2*x1*x2^3")
    dec = moving_part(A)
    F = A.expand()
    for i in range(3):
        assert dec.base_divisor * dec.moving.components[i] == F.derivative(i)
    assert dec.base_divisor * dec.reduced == F


def _reference_decomposition(F):
    """moving_part's three fields by expanding and dividing over Q."""
    base = Polynomial.constant(F.nvars, 1)
    for i, m in enumerate(F.multiplicities):
        base = base * F.form_polynomial(i) ** (m - 1)
    f = F.expand()
    moving = [f.derivative(k).exact_divide(base) for k in range(F.nvars)]
    return base, RationalMap(moving), f.exact_divide(base)


def _differential_arrangements():
    rng = random.Random(1901)
    for _ in range(40):
        nvars = rng.randint(2, 5)
        nforms = rng.randint(1, 6)
        # a degree cap keeps the expanded reference small in five variables
        cap = 12 if nvars <= 3 else 8
        A = random_arrangement(rng, nvars, nforms, coeff_bound=7, max_mult=4)
        while A.degree() > cap:
            A = random_arrangement(rng, nvars, nforms, coeff_bound=7, max_mult=4)
        yield A
        if nvars >= 3 and nforms >= 2:
            yield restrict_arrangement(A, rng.randrange(nforms))


def test_moving_part_matches_the_expanded_division():
    for A in _differential_arrangements():
        base, moving, reduced = _reference_decomposition(A)
        dec = moving_part(A)
        assert dec.base_divisor == base, A
        assert dec.moving == moving, A
        assert dec.reduced == reduced, A


def test_factored_moving_part_neither_expands_nor_divides(monkeypatch):
    def refuse(*args):
        raise AssertionError("factored input took the polynomial route")

    monkeypatch.setattr(Polynomial, "exact_divide", refuse)
    monkeypatch.setattr(LinearFormProduct, "expand", refuse)
    monkeypatch.setattr(polar, "polar_system", refuse)
    dec = moving_part(parse_arrangement("(x0+x1)^2*(x1-2*x2)*x2^3"))
    assert dec.base_divisor == parse_polynomial("(x0+x1)*x2^2")


@pytest.mark.parametrize("text, homaloidal", [
    ("(x0 + x1)*(x1 - x2)*(x2)*(x0 + x1 + x2)^3", False),
    ("(x0)*(x1)*(x2)", True),
])
def test_census_path_skips_the_validating_constructor(monkeypatch, text,
                                                      homaloidal):
    def refuse(*args):
        raise AssertionError("the census path validated a Polynomial")

    monkeypatch.setattr(Polynomial, "__init__", refuse)
    F = parse_arrangement(text, nvars=3)
    for G in (F, F.reduced()):
        report = scan_exhaustive(moving_part(G).moving, 101)
        assert report.homaloidal == homaloidal


def test_moving_part_raises_on_a_corrupted_product(monkeypatch):
    # positive coefficients throughout, so adding 1 never cancels a term,
    # and no form is a monomial, so no corruption is a mere rescaling
    A = parse_arrangement("(x0+x1)^2*(x1+2*x2)*(x0+x1+x2)^3*(x0+3*x2)")
    real = polar._int_product
    calls = []

    def counting(a, b):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(polar, "_int_product", counting)
    moving_part(A)
    assert len(calls) > 10
    for bad in range(len(calls)):
        seen = []

        def corrupting(a, b, bad=bad, seen=seen):
            out = real(a, b)
            if len(seen) == bad:
                out[max(out)] += 1
            seen.append(None)
            return out

        monkeypatch.setattr(polar, "_int_product", corrupting)
        with pytest.raises(InexactDivisionError):
            moving_part(A)


def test_reduced_part():
    A = parse_arrangement("x0^2*x1*x2")
    assert A.reduced().multiplicities == (1, 1, 1)
    B = parse_arrangement("x0*x1*x2")
    assert B.reduced() == B
    C = parse_arrangement("x0^3", nvars=1)
    assert C.reduced().multiplicities == (1,)


def test_is_cone_examples():
    assert is_cone(parse_polynomial("x0*x1", nvars=3))
    assert is_cone(parse_polynomial("x0*x1", nvars=4))
    assert not is_cone(parse_polynomial("x0^2+x1^2+x2^2"))
    assert not is_cone(parse_polynomial("x0*x1*x2*x3"))
    assert not is_cone(parse_polynomial("x0*x1", nvars=2))


def test_is_cone_invariant_under_coordinate_change():
    rng = random.Random(202)
    f = parse_polynomial("x0*x1", nvars=3)
    g = parse_polynomial("x0*x1*x2")
    for _ in range(20):
        images = _random_unimodular_images(rng, 3)
        assert is_cone(f.substitute(images))
        assert not is_cone(g.substitute(images))


def _random_unimodular_images(rng, nvars):
    # product of random elementary row operations applied to the identity
    rows = [[Fraction(1 if i == j else 0) for j in range(nvars)] for i in range(nvars)]
    for _ in range(6):
        i, j = rng.sample(range(nvars), 2)
        c = rng.randint(-2, 2)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return [Polynomial(nvars, {tuple(1 if t == j else 0 for t in range(nvars)): rows[i][j]
                               for j in range(nvars) if rows[i][j] != 0})
            for i in range(nvars)]


def test_restrict_arrangement_examples():
    A = parse_arrangement("x0*x1*x2*(x0+x1)")
    R = restrict_arrangement(A, 0)
    assert R.nvars == 2
    assert R.forms == ((1, 0), (0, 1))
    assert R.multiplicities == (2, 1)
    assert R.expand() == parse_polynomial("x0^2*x1", nvars=2)

    cremona = parse_arrangement("x0*x1*x2*x3")
    R2 = restrict_arrangement(cremona, 0)
    assert R2.forms == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert R2.multiplicities == (1, 1, 1)


def test_restrict_arrangement_multiplicity_total():
    rng = random.Random(203)
    for _ in range(30):
        A = random_arrangement(rng, 3, rng.randint(2, 4), max_mult=3)
        i = rng.randrange(len(A.forms))
        try:
            R = restrict_arrangement(A, i)
        except DegenerateRestrictionError:
            continue
        assert sum(R.multiplicities) == A.degree() - A.multiplicities[i]


def test_restrict_arrangement_matches_polynomial_restriction():
    # pivot coefficients of 2 and 3 make the restricted rows non-primitive
    rng = random.Random(204)
    from polarmap.poly import monic
    for nvars in range(2, 6):
        for _ in range(10):
            nforms = rng.randint(2, min(nvars + 1, 4))
            A = random_arrangement(rng, nvars, nforms, coeff_bound=3,
                                   max_mult=3)
            i = rng.randrange(nforms)
            R = restrict_arrangement(A, i)
            other = Polynomial.constant(nvars, 1)
            for j in range(nforms):
                if j != i:
                    other = other * A.form_polynomial(j) ** A.multiplicities[j]
            direct = restrict_to_hyperplane(other, A.form_polynomial(i))
            assert monic(R.expand()) == monic(direct)


def test_restrict_arrangement_index_bounds():
    A = parse_arrangement("x0*x1")
    with pytest.raises(IndexError):
        restrict_arrangement(A, 2)


def test_compose_and_involution_shape():
    cremona = polar_system(parse_polynomial("x0*x1*x2"))
    square = cremona.compose(cremona)
    stripped = square.with_base_stripped()
    assert stripped.is_scaled_identity()
    assert not cremona.is_scaled_identity()
