"""Sparse exact multivariate polynomial arithmetic.

A polynomial is a map from exponent vectors (tuples of non-negative ints,
one slot per variable) to nonzero rational coefficients.  Everything is
exact: coefficients are Fractions, no floating point anywhere.

The monomial order fixed for the whole package is graded lexicographic
with x0 > x1 > ... > xn.  It determines leading terms, the monic
normalization of GCDs, and the canonical printing order.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegenerateRestrictionError, InexactDivisionError
from .fields import is_prime, residue


def grlex_key(exps):
    """Sort key realizing graded lex with x0 > x1 > ...; larger key = larger monomial."""
    return (sum(exps), exps)


def _coerce(value):
    """An int or Fraction as a Fraction; anything else is refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot coerce {type(value).__name__} into Q")


class Polynomial:
    """Immutable sparse polynomial over Q in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        if nvars < 0:
            raise ValueError("variable count must be non-negative")
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has wrong length, expected {nvars}")
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValueError(f"exponents must be non-negative integers: {exps}")
            value = _coerce(coeff)
            if value:
                clean[exps] = value
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, nvars, terms):
        """A polynomial of terms the package built itself, unchecked.

        The keys must be exponent tuples of length nvars and the values
        ints or Fractions; ints are stored as Fractions, zeros dropped.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "terms", {
            e: c if type(c) is Fraction else Fraction(c)
            for e, c in terms.items() if c})
        return poly

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars, i):
        if not 0 <= i < nvars:
            raise IndexError(f"variable index {i} out of range for {nvars} variables")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exps: 1})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def homogeneous_degree(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no homogeneous degree")
        degrees = {sum(e) for e in self.terms}
        if len(degrees) != 1:
            raise ValueError("polynomial is not homogeneous")
        return degrees.pop()

    def leading_term(self):
        """(exponents, coefficient) of the graded-lex leading term."""
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), Fraction(0))

    def variables_present(self):
        present = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    present.add(i)
        return present

    def _check_same(self, other):
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, 0) + coeff
        return Polynomial._trusted(self.nvars, out)

    def __neg__(self):
        return Polynomial._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial._trusted(
                self.nvars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return Polynomial._trusted(self.nvars, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take non-negative integer exponents")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def derivative(self, i):
        """Formal partial derivative with respect to variable i."""
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range for {self.nvars} variables")
        out = {}
        for exps, coeff in self.terms.items():
            if exps[i] == 0:
                continue
            key = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
            out[key] = out.get(key, 0) + coeff * exps[i]
        return Polynomial._trusted(self.nvars, out)

    def evaluate(self, point):
        """Exact value, a Fraction, at a point of ints and Fractions."""
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} entries, expected {self.nvars}")
        values = [_coerce(x) for x in point]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for x, e in zip(values, exps):
                if e:
                    term *= x ** e
            total += term
        return total

    def exact_divide(self, divisor):
        """Quotient q with q * divisor = self, or InexactDivisionError.

        Division by the zero polynomial raises ZeroDivisionError, a
        different failure from a merely inexact quotient.
        """
        if not isinstance(divisor, Polynomial):
            raise TypeError("divisor must be a Polynomial")
        self._check_same(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return self
        lead_b = max(divisor.terms, key=grlex_key)
        lc_b = divisor.terms[lead_b]
        remainder = dict(self.terms)
        quotient = {}
        while remainder:
            lead_r = max(remainder, key=grlex_key)
            exps = tuple(a - b for a, b in zip(lead_r, lead_b))
            if any(e < 0 for e in exps):
                raise InexactDivisionError("leading term not divisible")
            coeff = remainder[lead_r] / lc_b
            quotient[exps] = coeff
            for eb, cb in divisor.terms.items():
                key = tuple(a + b for a, b in zip(exps, eb))
                acc = remainder.get(key, 0) - coeff * cb
                if acc:
                    remainder[key] = acc
                else:
                    remainder.pop(key, None)
        return Polynomial._trusted(self.nvars, quotient)

    def substitute(self, images):
        """Replace variable i by images[i]; images live in a common target ring."""
        if len(images) != self.nvars:
            raise ValueError(f"need {self.nvars} substitution images, got {len(images)}")
        if self.nvars == 0:
            raise ValueError("nothing to substitute in a 0-variable polynomial")
        target_nvars = images[0].nvars
        if any(img.nvars != target_nvars for img in images):
            raise ValueError("substitution images must share one ring")
        powers = [[Polynomial.constant(target_nvars, 1)] for _ in range(self.nvars)]

        def power_of(i, k):
            cache = powers[i]
            while len(cache) <= k:
                cache.append(cache[-1] * images[i])
            return cache[k]

        total = Polynomial.zero(target_nvars)
        for exps, coeff in self.terms.items():
            term = Polynomial.constant(target_nvars, coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * power_of(i, e)
            total = total + term
        return total

    # -- comparisons and printing ------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __str__(self):
        return format_terms(self)

    def __repr__(self):
        return format_terms(self)


def format_terms(poly):
    """Canonical text: graded-lex descending, minimal signs.

    This is the parseable canonical form for integer coefficients;
    Fractions print as 'a/b', which the integer-only grammar rejects.
    """
    if poly.is_zero:
        return "0"
    pieces = []
    for exps in sorted(poly.terms, key=grlex_key, reverse=True):
        coeff = poly.terms[exps]
        negative = coeff < 0
        magnitude = -coeff if negative else coeff
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"x{i}")
            elif e > 1:
                factors.append(f"x{i}^{e}")
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = str(magnitude) + "*" + "*".join(factors)
        pieces.append((negative, body))
    first_neg, first_body = pieces[0]
    out = ("-" if first_neg else "") + first_body
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out


# -- hyperplane restriction -------------------------------------------------

def restrict_to_hyperplane(poly, form):
    """Restrict poly to the hyperplane {form = 0} and drop one variable.

    The coordinate change is pinned for determinism: pivot on the first
    variable with a nonzero coefficient in form, solve for it, substitute,
    and reindex the remaining variables downward.  A nonzero input whose
    restriction vanishes identically (the hyperplane divides it) raises
    DegenerateRestrictionError.
    """
    if form.is_zero:
        raise ValueError("cannot restrict to the zero form")
    if not form.is_homogeneous() or form.homogeneous_degree() != 1:
        raise ValueError("restriction form must be homogeneous of degree 1")
    poly._check_same(form)
    nvars = poly.nvars
    coeffs = [form.coefficient(tuple(1 if j == i else 0 for j in range(nvars)))
              for i in range(nvars)]
    pivot = next(i for i, c in enumerate(coeffs) if c)
    target = nvars - 1
    images = []
    for t in range(nvars):
        if t == pivot:
            terms = {}
            for s in range(nvars):
                if s == pivot or not coeffs[s]:
                    continue
                slot = s if s < pivot else s - 1
                exps = tuple(1 if j == slot else 0 for j in range(target))
                terms[exps] = -(coeffs[s] / coeffs[pivot])
            images.append(Polynomial._trusted(target, terms))
        else:
            slot = t if t < pivot else t - 1
            images.append(Polynomial.variable(target, slot))
    restricted = poly.substitute(images)
    if restricted.is_zero and not poly.is_zero:
        raise DegenerateRestrictionError("restriction vanishes identically")
    return restricted


# -- exact rank ----------------------------------------------------------------

def exact_rank(rows, p=None):
    """Rank of a matrix of ints and Fractions, over Q or, given a prime p,
    over F_p: one fraction-free (Bareiss) elimination either way.

    Over Q each row is first scaled to integers by the lcm of its
    denominators.  After each pivot step every entry below it is then a
    minor of the matrix (Sylvester's identity), so dividing by the previous
    pivot is exact and no entry grows past the size of a minor.  Over F_p
    the entries are residues, every nonzero pivot is a unit, and the same
    step is reduced mod p instead of divided.
    """
    if p is not None and not is_prime(p):
        raise ValueError(f"{p} is not prime")
    matrix = []
    for row in map(list, rows):
        if any(type(x) is not int for x in row):
            row = [_coerce(x) for x in row]
            if p is None:
                scale = math.lcm(*(x.denominator for x in row))
                row = [x.numerator * (scale // x.denominator) for x in row]
        matrix.append(row if p is None else [residue(x, p) for x in row])
    ncols = len(matrix[0]) if matrix else 0
    if any(len(row) != ncols for row in matrix):
        raise ValueError("rows of unequal length")
    rank = 0
    previous = 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        top = matrix[rank]
        lead = top[col]
        for r in range(rank + 1, len(matrix)):
            row = matrix[r]
            factor = row[col]
            if p is None:
                matrix[r] = [(lead * x - factor * y) // previous
                             for x, y in zip(row, top)]
            else:
                matrix[r] = [(lead * x - factor * y) % p
                             for x, y in zip(row, top)]
        previous = lead
        rank += 1
        if rank == len(matrix):
            break
    return rank


# -- GCD ---------------------------------------------------------------------
#
# Recursive subresultant pseudo-remainder sequence in the smallest-index
# variable present, with content extraction.  Intermediate divisions follow
# Brown's beta/psi bookkeeping and are exact by construction; the worst case
# is exponential but inputs here stay at desk scale (degree <= ~12, <= 6
# variables), and factored arrangements never reach this path at all.

def gcd(a, b):
    """A GCD of a and b, monic in the graded-lex leading coefficient."""
    if not isinstance(a, Polynomial) or not isinstance(b, Polynomial):
        raise TypeError("gcd expects two Polynomials")
    a._check_same(b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero:
        return monic(b)
    if b.is_zero:
        return monic(a)
    return monic(_gcd_nonzero(a, b))


def monic(poly):
    """Scale a nonzero polynomial so its graded-lex leading coefficient is 1."""
    _, lc = poly.leading_term()
    if lc == 1:
        return poly
    return Polynomial._trusted(poly.nvars, {e: c / lc for e, c in poly.terms.items()})


def _one(poly):
    return Polynomial.constant(poly.nvars, 1)


def _gcd_nonzero(a, b):
    if a.degree() == 0 or b.degree() == 0:
        return _one(a)
    main = min(a.variables_present() | b.variables_present())
    da = _deg_in(a, main)
    db = _deg_in(b, main)
    if da == 0:
        return _gcd_nonzero(a, _content_in(b, main))
    if db == 0:
        return _gcd_nonzero(_content_in(a, main), b)
    content_a, primitive_a = _split_content(a, main)
    content_b, primitive_b = _split_content(b, main)
    common_content = _gcd_nonzero(content_a, content_b)
    last = _prs_last(primitive_a, primitive_b, main)
    if _deg_in(last, main) == 0:
        return common_content
    _, primitive_last = _split_content(last, main)
    return common_content * primitive_last


def _deg_in(poly, v):
    return max((e[v] for e in poly.terms), default=0)


def _coeffs_in(poly, v):
    """Coefficients of poly as a univariate in x_v; keys are x_v-degrees."""
    buckets = {}
    for exps, coeff in poly.terms.items():
        k = exps[v]
        stripped = exps[:v] + (0,) + exps[v + 1:]
        buckets.setdefault(k, {})[stripped] = coeff
    return {k: Polynomial._trusted(poly.nvars, t) for k, t in buckets.items()}


def _lc_in(poly, v):
    coeffs = _coeffs_in(poly, v)
    return coeffs[max(coeffs)]


def _content_in(poly, v):
    parts = list(_coeffs_in(poly, v).values())
    acc = parts[0]
    for part in parts[1:]:
        if acc.degree() == 0:
            break
        acc = _gcd_nonzero(acc, part)
    return acc


def _split_content(poly, v):
    content = _content_in(poly, v)
    if content.degree() == 0:
        return _one(poly), poly
    return content, poly.exact_divide(content)


def _shift_var(poly, v, k):
    """Multiply by x_v^k."""
    if k == 0:
        return poly
    terms = {e[:v] + (e[v] + k,) + e[v + 1:]: c for e, c in poly.terms.items()}
    return Polynomial._trusted(poly.nvars, terms)


def _prem(f, g, v):
    """Pseudo-remainder of f by g with respect to x_v: lc(g)^(df-dg+1) f mod g."""
    df = _deg_in(f, v)
    dg = _deg_in(g, v)
    if df < dg:
        return f
    steps_left = df - dg + 1
    lc_g = _lc_in(g, v)
    r = f
    dr = df
    while True:
        lc_r = _lc_in(r, v)
        steps_left -= 1
        r = r * lc_g - _shift_var(lc_r * g, v, dr - dg)
        if r.is_zero:
            break
        dr = _deg_in(r, v)
        if dr < dg:
            break
    for _ in range(steps_left):
        r = r * lc_g
    return r


def _prs_last(f, g, v):
    """Last nonzero element of the subresultant PRS of f, g in x_v.

    Both inputs are primitive with positive degree in x_v.  The quotient
    polynomials b below divide exactly (Brown); exact_divide enforces it.
    """
    n = _deg_in(f, v)
    m = _deg_in(g, v)
    if n < m:
        f, g, n, m = g, f, m, n
    d = n - m
    h = _prem(f, g, v) * ((-1) ** (d + 1))
    lc = _lc_in(g, v)
    c = -(lc ** d)
    while not h.is_zero:
        k = _deg_in(h, v)
        f, g, m, d = g, h, k, m - k
        b = (-lc) * (c ** d)
        h = _prem(f, g, v)
        if not h.is_zero:
            h = h.exact_divide(b)
        lc = _lc_in(g, v)
        if d > 1:
            c = ((-lc) ** d).exact_divide(c ** (d - 1))
        else:
            c = -lc
    return g
