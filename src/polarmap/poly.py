"""Sparse exact multivariate polynomial arithmetic.

A polynomial is a map from exponent vectors (tuples of non-negative ints,
one slot per variable) to nonzero coefficients in a ground field from
``polarmap.fields``.  Everything is exact: Fraction coefficients over Q,
int residues over F_p, no floating point anywhere.

The monomial order fixed for the whole package is graded lexicographic
with x0 > x1 > ... > xn.  It determines leading terms, the monic
normalization of GCDs, and the canonical printing order.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateRestrictionError, InexactDivisionError
from .fields import PrimeField


def grlex_key(exps):
    """Sort key realizing graded lex with x0 > x1 > ...; larger key = larger monomial."""
    return (sum(exps), exps)


class Polynomial:
    """Immutable sparse polynomial over a fixed field and variable count."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms):
        if nvars < 0:
            raise ValueError("variable count must be non-negative")
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has wrong length, expected {nvars}")
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValueError(f"exponents must be non-negative integers: {exps}")
            value = field.coerce(coeff)
            if not field.is_zero(value):
                clean[exps] = value
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars, value):
        return cls(field, nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, field, nvars, i):
        if not 0 <= i < nvars:
            raise IndexError(f"variable index {i} out of range for {nvars} variables")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(field, nvars, {exps: field.one})

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
        return self.terms.get(tuple(exps), self.field.zero)

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
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same(other)
        out = dict(self.terms)
        fld = self.field
        for exps, coeff in other.terms.items():
            acc = fld.add(out.get(exps, fld.zero), coeff)
            if fld.is_zero(acc):
                out.pop(exps, None)
            else:
                out[exps] = acc
        return Polynomial(fld, self.nvars, out)

    def __neg__(self):
        fld = self.field
        return Polynomial(fld, self.nvars, {e: fld.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        fld = self.field
        if isinstance(other, (int, Fraction)):
            scalar = fld.coerce(other)
            return Polynomial(fld, self.nvars, {e: fld.mul(c, scalar) for e, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc = fld.add(out.get(key, fld.zero), fld.mul(c1, c2))
                out[key] = acc
        return Polynomial(fld, self.nvars, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take non-negative integer exponents")
        result = Polynomial.constant(self.field, self.nvars, self.field.one)
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
        fld = self.field
        out = {}
        for exps, coeff in self.terms.items():
            if exps[i] == 0:
                continue
            key = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
            value = fld.mul(coeff, fld.coerce(exps[i]))
            if key in out:
                value = fld.add(out[key], value)
            out[key] = value
        return Polynomial(fld, self.nvars, out)

    def evaluate(self, point):
        """Exact value at a point given as a sequence of field elements."""
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} entries, expected {self.nvars}")
        fld = self.field
        values = [fld.coerce(x) for x in point]
        total = fld.zero
        for exps, coeff in self.terms.items():
            term = coeff
            for x, e in zip(values, exps):
                if e:
                    term = fld.mul(term, fld.power(x, e))
            total = fld.add(total, term)
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
        fld = self.field
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
            coeff = fld.div(remainder[lead_r], lc_b)
            quotient[exps] = coeff
            for eb, cb in divisor.terms.items():
                key = tuple(a + b for a, b in zip(exps, eb))
                acc = fld.sub(remainder.get(key, fld.zero), fld.mul(coeff, cb))
                if fld.is_zero(acc):
                    remainder.pop(key, None)
                else:
                    remainder[key] = acc
        return Polynomial(fld, self.nvars, quotient)

    def substitute(self, images):
        """Replace variable i by images[i]; images live in a common target ring."""
        if len(images) != self.nvars:
            raise ValueError(f"need {self.nvars} substitution images, got {len(images)}")
        if self.nvars == 0:
            raise ValueError("nothing to substitute in a 0-variable polynomial")
        fld = images[0].field
        target_nvars = images[0].nvars
        for img in images:
            if img.field != fld or img.nvars != target_nvars:
                raise ValueError("substitution images must share one ring")
        if fld != self.field:
            raise ValueError("substitution images must match the coefficient field")
        powers = [[Polynomial.constant(fld, target_nvars, fld.one)] for _ in range(self.nvars)]

        def power_of(i, k):
            cache = powers[i]
            while len(cache) <= k:
                cache.append(cache[-1] * images[i])
            return cache[k]

        total = Polynomial.zero(fld, target_nvars)
        for exps, coeff in self.terms.items():
            term = Polynomial.constant(fld, target_nvars, coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * power_of(i, e)
            total = total + term
        return total

    def reduce_mod(self, p):
        """Image under Q -> F_p (or F_p -> F_p identity); p prime."""
        fld = PrimeField(p) if isinstance(p, int) else p
        return Polynomial(fld, self.nvars, dict(self.terms))

    # -- comparisons and printing ------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.field == other.field and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def __str__(self):
        return format_terms(self)

    def __repr__(self):
        return format_terms(self)


def format_terms(poly):
    """Canonical text: graded-lex descending, minimal signs.

    Over Q this is the parseable canonical form (for integer coefficients;
    Fractions print as 'a/b' which the integer-only grammar rejects).
    Over F_p residues print as plain non-negative integers.
    """
    if poly.is_zero:
        return "0"
    signed = poly.field.characteristic == 0
    pieces = []
    for exps in sorted(poly.terms, key=grlex_key, reverse=True):
        coeff = poly.terms[exps]
        negative = signed and coeff < 0
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
    fld = poly.field
    coeffs = [form.coefficient(tuple(1 if j == i else 0 for j in range(nvars)))
              for i in range(nvars)]
    pivot = next(i for i, c in enumerate(coeffs) if not fld.is_zero(c))
    target = nvars - 1
    images = []
    for t in range(nvars):
        if t == pivot:
            terms = {}
            for s in range(nvars):
                if s == pivot or fld.is_zero(coeffs[s]):
                    continue
                slot = s if s < pivot else s - 1
                exps = tuple(1 if j == slot else 0 for j in range(target))
                terms[exps] = fld.neg(fld.div(coeffs[s], coeffs[pivot]))
            images.append(Polynomial(fld, target, terms))
        else:
            slot = t if t < pivot else t - 1
            images.append(Polynomial.variable(fld, target, slot))
    restricted = poly.substitute(images)
    if restricted.is_zero and not poly.is_zero:
        raise DegenerateRestrictionError("restriction vanishes identically")
    return restricted


# -- exact rank over the coefficient field ----------------------------------

def exact_rank(rows, field):
    """Rank of a matrix given as an iterable of coefficient rows."""
    matrix = [[field.coerce(x) for x in row] for row in rows]
    rank = 0
    col = 0
    ncols = len(matrix[0]) if matrix else 0
    while rank < len(matrix) and col < ncols:
        pivot_row = next((r for r in range(rank, len(matrix))
                          if not field.is_zero(matrix[r][col])), None)
        if pivot_row is None:
            col += 1
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        inv = field.inv(matrix[rank][col])
        matrix[rank] = [field.mul(inv, x) for x in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and not field.is_zero(matrix[r][col]):
                factor = matrix[r][col]
                matrix[r] = [field.sub(x, field.mul(factor, y))
                             for x, y in zip(matrix[r], matrix[rank])]
        rank += 1
        col += 1
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
    if lc == poly.field.one:
        return poly
    return Polynomial(poly.field, poly.nvars,
                      {e: poly.field.div(c, lc) for e, c in poly.terms.items()})


def _one(poly):
    return Polynomial.constant(poly.field, poly.nvars, poly.field.one)


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
    return {k: Polynomial(poly.field, poly.nvars, t) for k, t in buckets.items()}


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
    return Polynomial(poly.field, poly.nvars, terms)


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
