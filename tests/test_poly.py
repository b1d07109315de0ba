import functools
import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from polarmap import (
    DegenerateRestrictionError,
    InexactDivisionError,
    LinearFormProduct,
    Polynomial,
    ReductionError,
    canonical_row,
    exact_rank,
    gcd,
    residue,
    restrict_to_hyperplane,
)
from gens import random_poly, random_fraction_poly


def var(i, nvars=3):
    return Polynomial.variable(nvars, i)


def test_constructor_drops_zero_coefficients():
    p = Polynomial(2, {(1, 0): 1, (0, 1): 0})
    assert p.terms == {(1, 0): Fraction(1)}


def test_constructor_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1})
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0): 1})


def test_immutable():
    p = var(0)
    with pytest.raises(AttributeError):
        p.nvars = 5


def test_mul_examples():
    x0, x1, x2 = var(0), var(1), var(2)
    assert x0 * x1 == Polynomial(3, {(1, 1, 0): 1})
    assert (x0 + x1) * (x0 - x1) == x0 ** 2 - x1 ** 2
    assert (x0 ** 2 * x1 * x2).terms == {(2, 1, 1): Fraction(1)}


def test_mixed_field_rejected():
    # coefficients are ints or Fractions; a float is not exact
    with pytest.raises(TypeError):
        Polynomial(2, {(1, 0): 0.5})
    with pytest.raises(TypeError):
        var(0) * 0.5
    with pytest.raises(TypeError):
        var(0).evaluate([0.5, 1, 1])


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(200):
        a = random_poly(rng, 3)
        b = random_poly(rng, 3)
        c = random_poly(rng, 3)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_derivative_examples():
    x0, x1, x2 = var(0), var(1), var(2)
    f = x0 * x1 * x2
    assert f.derivative(0) == x1 * x2
    quad = x0 ** 2 + x1 ** 2 + x2 ** 2
    assert quad.derivative(1) == 2 * x1
    g = x0 ** 3 * x1 ** 2 * x2
    assert g.derivative(0) == 3 * x0 ** 2 * x1 ** 2 * x2
    with pytest.raises(IndexError):
        f.derivative(3)


def test_derivative_leibniz_random():
    rng = random.Random(102)
    for _ in range(200):
        a = random_poly(rng, 3)
        b = random_poly(rng, 3)
        i = rng.randrange(3)
        assert (a * b).derivative(i) == a.derivative(i) * b + a * b.derivative(i)
        assert (a + b).derivative(i) == a.derivative(i) + b.derivative(i)


def test_euler_relation_random():
    rng = random.Random(103)
    for _ in range(200):
        f = random_poly(rng, 3, homogeneous=True, nonzero=True)
        d = f.homogeneous_degree()
        total = Polynomial.zero(3)
        for i in range(3):
            total = total + var(i) * f.derivative(i)
        assert total == d * f


def test_homogeneity_bookkeeping():
    x0, x1 = var(0, 2), var(1, 2)
    assert (x0 * x1).homogeneous_degree() == 2
    assert not (x0 + x1 ** 2).is_homogeneous()
    with pytest.raises(ValueError):
        (x0 + x1 ** 2).homogeneous_degree()
    assert Polynomial.zero(2).degree() == -1


def test_exact_divide_examples():
    x0, x1, x2 = var(0), var(1), var(2)
    assert (x0 ** 2 * x1).exact_divide(x0) == x0 * x1
    assert (x0 ** 2 - x1 ** 2).exact_divide(x0 + x1) == x0 - x1
    # partials of X0^2*X1*X2 divided by the common factor X0
    F = x0 ** 2 * x1 * x2
    q = F.derivative(1).exact_divide(x0)
    assert q == x0 * x2
    assert q * x0 == F.derivative(1)


def test_exact_divide_failures_distinct():
    x0, x1 = var(0), var(1)
    with pytest.raises(InexactDivisionError):
        (x0 ** 2 + x1).exact_divide(x1)
    with pytest.raises(ZeroDivisionError):
        x0.exact_divide(Polynomial.zero(3))


def test_divide_multiply_roundtrip_random():
    rng = random.Random(104)
    for _ in range(200):
        a = random_poly(rng, 3, max_degree=2)
        b = random_poly(rng, 3, max_degree=2, nonzero=True)
        assert (a * b).exact_divide(b) == a


def test_gcd_examples():
    x0, x1, x2 = var(0), var(1), var(2)
    assert gcd(x0 * x1, x0 * x2) == x0
    F = x0 ** 3 * x1 ** 2 * x2
    parts = [F.derivative(i) for i in range(3)]
    g = gcd(gcd(parts[0], parts[1]), parts[2])
    assert g == x0 ** 2 * x1
    with pytest.raises(ValueError):
        gcd(Polynomial.zero(3), Polynomial.zero(3))


def test_gcd_known_factor_random():
    rng = random.Random(105)
    from polarmap.poly import monic
    for _ in range(60):
        a = random_poly(rng, 3, max_degree=2, nonzero=True)
        b = random_poly(rng, 3, max_degree=2, nonzero=True)
        g = random_poly(rng, 3, max_degree=1, max_terms=3, nonzero=True)
        if g.degree() == 0:
            continue
        found = gcd(g * a, g * b)
        # g divides the gcd; the gcd divides both products
        found.exact_divide(monic(g))
        (g * a).exact_divide(found)
        (g * b).exact_divide(found)


def test_gcd_monic_and_symmetric():
    rng = random.Random(106)
    from polarmap.poly import monic
    for _ in range(40):
        a = random_poly(rng, 2, max_degree=3, nonzero=True)
        b = random_poly(rng, 2, max_degree=3, nonzero=True)
        g1 = gcd(a, b)
        g2 = gcd(b, a)
        assert g1 == g2
        assert g1.leading_term()[1] == Fraction(1)
        assert gcd(a, Polynomial.zero(2)) == monic(a)


def test_evaluate():
    x0, x1, x2 = var(0), var(1), var(2)
    f = x0 * x1 * x2
    assert f.evaluate([1, 1, 1]) == 1
    conic = x1 ** 2 - x0 * x2
    assert conic.evaluate([1, 0, 0]) == 0
    assert conic.evaluate([Fraction(1, 2), 1, 2]) == 0
    with pytest.raises(ValueError):
        f.evaluate([1, 1])
    assert residue(f.evaluate([2, 3, 4]), 5) == (2 * 3 * 4) % 5


def test_evaluate_dual_point():
    f = Polynomial.constant(4, 1)
    for i in range(4):
        f = f * Polynomial.variable(4, i)
    values = [f.derivative(i).evaluate([0, 1, 1, 1]) for i in range(4)]
    assert values == [1, 0, 0, 0]


def test_pow_matches_repeated_multiplication():
    rng = random.Random(107)
    for _ in range(40):
        a = random_poly(rng, 2, max_degree=2)
        by_mul = Polynomial.constant(2, 1)
        for k in range(4):
            assert a ** k == by_mul
            by_mul = by_mul * a


def test_substitute_identity_and_composition():
    rng = random.Random(108)
    identity = [Polynomial.variable(3, i) for i in range(3)]
    for _ in range(30):
        f = random_poly(rng, 3)
        assert f.substitute(identity) == f


def test_reduce_mod_commutes_with_arithmetic():
    # reduction mod p is a ring map: evaluating over Q and then taking
    # residues agrees with taking residues first
    rng = random.Random(109)
    for _ in range(100):
        a = random_poly(rng, 3)
        b = random_fraction_poly(rng, 3)
        point = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(3)]
        for p in (101, 211):
            ra = residue(a.evaluate(point), p)
            rb = residue(b.evaluate(point), p)
            assert residue((a * b).evaluate(point), p) == ra * rb % p
            assert residue((a + b).evaluate(point), p) == (ra + rb) % p


def test_reduce_mod_denominator_collision():
    p = Polynomial(2, {(1, 0): Fraction(1, 101)})
    with pytest.raises(ReductionError):
        residue(p.evaluate([1, 1]), 101)
    assert residue(p.evaluate([1, 1]), 7) == pow(101, -1, 7)
    assert residue(-7, 5) == 3 and residue(Fraction(-1, 2), 7) == 3


def test_fraction_coefficients_survive_roundtrip():
    rng = random.Random(110)
    for _ in range(50):
        a = random_fraction_poly(rng, 2)
        b = random_fraction_poly(rng, 2)
        if b.is_zero:
            continue
        assert (a * b).exact_divide(b) == a


def test_restrict_examples():
    x0, x1, x2 = var(0), var(1), var(2)
    f = x1 * x2 * (x0 + x1)
    r = restrict_to_hyperplane(f, x0)
    # surviving coordinates are (x1, x2) renamed (x0, x1)
    y0, y1 = var(0, 2), var(1, 2)
    assert r == y0 ** 2 * y1

    # x1*x2 is untouched by {x0 = 0} apart from renaming
    assert restrict_to_hyperplane(x1 * x2, x0) == y0 * y1

    with pytest.raises(DegenerateRestrictionError):
        restrict_to_hyperplane(x1 * x2 * (x1 + x2), x1)


def test_restrict_validates_form():
    x0, x1 = var(0), var(1)
    with pytest.raises(ValueError):
        restrict_to_hyperplane(x0 * x1, Polynomial.zero(3))
    with pytest.raises(ValueError):
        restrict_to_hyperplane(x0 * x1, x0 * x1)


def test_restrict_general_form_pivot():
    x0, x1, x2 = var(0), var(1), var(2)
    # restrict x0 to {x0 + x1 = 0}: pivot is x0, so x0 -> -x1 -> -y0
    r = restrict_to_hyperplane(x0, x0 + x1)
    y0 = var(0, 2)
    assert r == -y0
    # scaling the form does not change the restriction
    assert restrict_to_hyperplane(x2 ** 2, 3 * (x0 + x1)) == restrict_to_hyperplane(x2 ** 2, x0 + x1)


def test_leading_term_grlex():
    x0, x1, x2 = var(0), var(1), var(2)
    f = x1 ** 2 + x0 * x2 + x2
    exps, coeff = f.leading_term()
    assert exps == (1, 0, 1)
    assert coeff == 1
    assert str(f) == "x0*x2 + x1^2 + x2"


def test_format_ordering_and_signs():
    x0, x1, x2 = var(0), var(1), var(2)
    assert str(x1 * x2) == "x1*x2"
    assert str(-(x0 ** 2) + x1 * x2) == "-x0^2 + x1*x2"
    assert str(Polynomial.zero(3)) == "0"
    assert str(Polynomial.constant(3, -3)) == "-3"
    assert str(2 * x0 ** 2 * x1 - x2 ** 3) == "2*x0^2*x1 - x2^3"


def test_exact_rank():
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[1, 1, 0], [0, 1, 1], [1, 0, -1]]) == 2
    # mod p: the determinant -5 vanishes mod 5 only
    assert exact_rank([[1, 2], [3, 1]]) == 2
    assert exact_rank([[1, 2], [3, 1]], 5) == 1
    assert exact_rank([[Fraction(1, 2), 1], [1, 2]], 7) == 1
    with pytest.raises(ReductionError):
        exact_rank([[Fraction(1, 7), 1]], 7)
    with pytest.raises(ValueError, match="100 is not prime"):
        exact_rank([[1, 0], [0, 1]], 100)
    # ragged rows are refused, whichever row is the short one
    for ragged in ([[1], [2, 5]], [[1, 2], [3]]):
        for p in (None, 7):
            with pytest.raises(ValueError, match="unequal length"):
                exact_rank(ragged, p)
    for p in (None, 7):
        with pytest.raises(TypeError):
            exact_rank([[1, 0.5]], p)


def test_canonical_row():
    assert canonical_row([2, 0, 0]) == (1, 0, 0)
    assert canonical_row([-1, 2, 0]) == (1, -2, 0)
    assert canonical_row([Fraction(1, 2), Fraction(1, 3), 0]) == (3, 2, 0)
    # ints far past 2^63 stay exact, alone and next to Fractions
    big = 3 ** 80
    assert canonical_row([-2 * big, 4 * big, 6 * big]) == (1, -2, -3)
    assert canonical_row([0, big, big + 1]) == (0, big, big + 1)
    assert canonical_row([Fraction(big, 7), -2 * big]) == (1, -14)
    with pytest.raises(ValueError):
        canonical_row([0, 0, 0])


def test_arrangement_merge_and_expand():
    A = LinearFormProduct([[1, 0, 0], [2, 0, 0], [0, 1, 0]])
    assert A.forms == ((1, 0, 0), (0, 1, 0))
    assert A.multiplicities == (2, 1)
    x0, x1 = var(0), var(1)
    assert A.expand() == x0 ** 2 * x1
    assert A.degree() == 3
    assert not A.is_squarefree()
    assert A.reduced().multiplicities == (1, 1)
    assert A.rank() == 2
    assert A.r == 1
    assert A.n == 2


def _integer_matrices(rng):
    """Integer matrices of every shape the elimination has to get right."""
    for rows, cols in [(1, 1), (1, 5), (5, 1), (3, 7), (7, 3), (6, 6)]:
        for bound in (3, 10 ** 9):
            yield [[rng.randint(-bound, bound) for _ in range(cols)]
                   for _ in range(rows)]
            # rank-deficient: a product through k < min(rows, cols)
            for k in range(min(rows, cols)):
                left = [[rng.randint(-bound, bound) for _ in range(k)]
                        for _ in range(rows)]
                right = [[rng.randint(-bound, bound) for _ in range(cols)]
                         for _ in range(k)]
                yield [[sum(a * b for a, b in zip(row, col))
                        for col in zip(*right)] or [0] * cols for row in left]
            # repeated rows and zero columns
            matrix = [[rng.randint(-bound, bound) for _ in range(cols)]
                      for _ in range(rows)]
            yield matrix + [list(matrix[0]), [-x for x in matrix[-1]]]
            yield [[0 if c % 2 else x for c, x in enumerate(row)]
                   for row in matrix]
    yield []


@functools.cache
def _signed_permutations(k):
    return [(perm, (-1) ** sum(a > b for a, b in combinations(perm, 2)))
            for perm in permutations(range(k))]


def _determinant(rows):
    """Leibniz's sum over permutations, in ints."""
    return sum(sign * math.prod(row[j] for row, j in zip(rows, perm))
               for perm, sign in _signed_permutations(len(rows)))


def _minor_rank(matrix, p=None):
    """The largest k with a nonzero k x k minor, minors taken mod p if given.

    A (k+1)-minor expands into k-minors, so the search stops at the first
    size whose minors all vanish.
    """
    if p is not None:
        matrix = [[x % p for x in row] for row in matrix]
    ncols = len(matrix[0]) if matrix else 0
    rank = 0
    for k in range(1, min(len(matrix), ncols) + 1):
        minors = (_determinant([[row[c] for c in cols] for row in chosen])
                  for chosen in combinations(matrix, k)
                  for cols in combinations(range(ncols), k))
        if not any(m if p is None else m % p for m in minors):
            break
        rank = k
    return rank


def test_exact_rank_is_the_largest_nonzero_minor():
    divisors = random.Random(1903)
    ranks = set()
    for matrix in _integer_matrices(random.Random(1902)):
        rank = _minor_rank(matrix)
        # dividing a row by a nonzero int keeps the rank over Q
        divided = [[Fraction(x, d) for x in row] for row, d in
                   zip(matrix, (divisors.randint(2, 9) for _ in matrix))]
        assert exact_rank(matrix) == exact_rank(divided) == rank, matrix
        for p in (5, 7, 101):
            assert exact_rank(matrix, p) == _minor_rank(matrix, p), (matrix, p)
        ranks.add(rank)
    assert ranks == set(range(7))


def test_arrangement_validation():
    with pytest.raises(ValueError):
        LinearFormProduct([[0, 0]])
    with pytest.raises(ValueError):
        LinearFormProduct([[1, 0]], [0])
    with pytest.raises(ValueError):
        LinearFormProduct([[1, 0], [1]], [1, 1])


def test_arrangement_identity_is_order_insensitive():
    A = LinearFormProduct([[1, 0], [0, 1]], [2, 3])
    B = LinearFormProduct([[0, 1], [1, 0]], [3, 2])
    assert A == B
    assert hash(A) == hash(B)
    assert A.sort_key() == B.sort_key()
