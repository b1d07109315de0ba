"""Polar systems and their decomposition into base divisor and moving part.

For a homogeneous F the polar map is the tuple of its partial derivatives,
a rational self-map of P^n.  The partials usually share a divisorial
factor (for F = prod L_i^{m_i} it is exactly prod L_i^{m_i - 1}); dividing
it out leaves the moving part, the map whose birationality decides
homaloidality.

For a factored F the moving part has a closed form: its k-th component is
sum_i m_i a_ik prod_{j != i} L_j, where a_ik is the x_k coefficient of
L_i.  It is built over the integers (canonical_row makes every form a
primitive integer vector, so by Gauss's lemma nothing is lost) and checked
exactly by the product rule: base * moving_k must equal the k-th partial
of base * reduced.
"""

from __future__ import annotations

import math

from .arrangement import LinearFormProduct
from .errors import DegenerateRestrictionError, InexactDivisionError
from .poly import Polynomial, exact_rank, gcd, grlex_key, monic


class RationalMap:
    """A tuple of n+1 equal-degree homogeneous polynomials in n+1 variables.

    Zero components are allowed (a partial can vanish identically); the
    map then lands inside a coordinate hyperplane, which is how cones show
    up downstream.  At least one component must be nonzero.
    """

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("a map needs at least one component")
        nvars = components[0].nvars
        if any(c.nvars != nvars for c in components):
            raise ValueError("components must share one ring")
        if len(components) != nvars:
            raise ValueError(f"{nvars} variables require {nvars} components, got {len(components)}")
        nonzero = [c for c in components if not c.is_zero]
        if not nonzero:
            raise ValueError("all components are zero")
        degrees = {c.homogeneous_degree() for c in nonzero}
        if len(degrees) != 1:
            raise ValueError("nonzero components must be homogeneous of equal degree")
        self.components = components
        self.nvars = nvars
        self.degree = degrees.pop()
        self._integer_terms = None

    @classmethod
    def _of_integer_terms(cls, nvars, tables):
        """The map whose k-th component has the terms of tables[k], a dict
        from exponent tuples to nonzero ints, kept as its integer terms."""
        rational_map = cls([Polynomial._trusted(nvars, t) for t in tables])
        rational_map._integer_terms = (1, tables)
        return rational_map

    def integer_terms(self):
        """(d, tables): component k is tables[k] / d, where tables[k] maps
        exponent tuples to ints and d is the least common denominator of
        all coefficients (cached).  The scans read the map from here."""
        if self._integer_terms is None:
            d = math.lcm(*(c.denominator for comp in self.components
                           for c in comp.terms.values()))
            self._integer_terms = (d, [
                {e: c.numerator * (d // c.denominator)
                 for e, c in comp.terms.items()}
                for comp in self.components])
        return self._integer_terms

    @property
    def n(self):
        """Dimension of source and target projective space."""
        return self.nvars - 1

    def component_gcd(self):
        acc = None
        for c in self.components:
            if c.is_zero:
                continue
            acc = c if acc is None else gcd(acc, c)
            if acc.degree() == 0:
                break
        return monic(acc)

    def compose(self, other):
        """self after other, as raw polynomials (no base stripping)."""
        if other.nvars != self.nvars:
            raise ValueError("maps must share one ring to compose")
        return RationalMap([c.substitute(list(other.components))
                            for c in self.components])

    def with_base_stripped(self):
        """Divide every component by the common divisor."""
        g = self.component_gcd()
        if g.degree() == 0:
            return self
        return RationalMap([c.exact_divide(g) for c in self.components])

    def is_scaled_identity(self):
        """True iff the components are (c*x0, ..., c*xn) for one scalar c."""
        scale = None
        for i, comp in enumerate(self.components):
            exps = tuple(1 if j == i else 0 for j in range(self.nvars))
            if set(comp.terms) != {exps}:
                return False
            c = comp.terms[exps]
            if scale is None:
                scale = c
            elif c != scale:
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, RationalMap):
            return NotImplemented
        return self.components == other.components

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    def __repr__(self):
        return f"RationalMap{self}"


def polar_system(f):
    """The map given by all partial derivatives of a homogeneous f."""
    if f.is_zero:
        raise ValueError("zero polynomial has no polar map")
    if not f.is_homogeneous():
        raise ValueError("polar map needs a homogeneous polynomial")
    if f.homogeneous_degree() < 1:
        raise ValueError("constant polynomial has no polar map")
    partials = [f.derivative(i) for i in range(f.nvars)]
    if all(p.is_zero for p in partials):
        raise ValueError("all partial derivatives vanish")
    return RationalMap(partials)


class PolarDecomposition:
    """base_divisor * moving[i] = the i-th partial; reduced = F / base_divisor.

    base_divisor and reduced may each be given as a function of no
    arguments instead, called on first access: the factored path builds
    those two polynomials only for a caller that reads them.
    """

    def __init__(self, base_divisor, moving, reduced):
        self._base_divisor = base_divisor
        self.moving = moving
        self._reduced = reduced

    @property
    def base_divisor(self):
        if callable(self._base_divisor):
            self._base_divisor = self._base_divisor()
        return self._base_divisor

    @property
    def reduced(self):
        if callable(self._reduced):
            self._reduced = self._reduced()
        return self._reduced


# Factored input is computed over Python ints, in term dicts keyed by packed
# exponents: the monomial prod x_j^e_j is the int sum_j e_j radix^j, so a
# product of monomials is a sum of keys.  radix = deg F + 1 exceeds every
# exponent of F and of its partials, so no digit carries.

def _int_product(a, b):
    """Product of two packed term dicts with int coefficients."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _int_derivative(terms, place, radix):
    """Partial of a packed term dict by the variable whose key is place."""
    out = {}
    for k, c in terms.items():
        e = k // place % radix
        if e:
            out[k - place] = c * e
    return out


def _packed_forms(F):
    """(radix, places, forms): F's forms as packed term dicts, where
    places[j] is the key of x_j."""
    radix = F.degree() + 1
    places = [radix ** j for j in range(F.nvars)]
    forms = [{place: a for place, a in zip(places, row) if a}
             for row in F.forms]
    return radix, places, forms


def _int_base(forms, multiplicities):
    """prod L_i^{m_i - 1} as a packed term dict."""
    base = {0: 1}
    for form, m in zip(forms, multiplicities):
        for _ in range(m - 1):
            base = _int_product(base, form)
    return base


def _unpacked(terms, nvars, radix):
    """A packed term dict keyed by exponent tuples instead."""
    unpacked = {}
    for k, c in terms.items():
        exps = []
        for _ in range(nvars):
            k, e = divmod(k, radix)
            exps.append(e)
        unpacked[tuple(exps)] = c
    return unpacked


def _polynomial(terms, nvars, radix):
    """A packed term dict as a Polynomial."""
    return Polynomial._trusted(nvars, _unpacked(terms, nvars, radix))


def _factored_moving_part(F):
    """moving_part of a LinearFormProduct, in integer arithmetic.

    others_i = prod_{j != i} L_j comes from prefix and suffix products;
    reduced = prod L_i, base = prod L_i^{m_i - 1}, and moving_k =
    sum_i m_i a_ik others_i.  Each moving_k is checked by the product rule,
    base * moving_k == d/dx_k (base * reduced) over Z, so a wrong
    coefficient anywhere raises InexactDivisionError as an inexact
    division would.
    """
    radix, places, forms = _packed_forms(F)
    prefixes = [{0: 1}]
    for form in forms[:-1]:
        prefixes.append(_int_product(prefixes[-1], form))
    others = [None] * len(forms)
    suffix = {0: 1}
    for i in reversed(range(len(forms))):
        others[i] = _int_product(prefixes[i], suffix)
        suffix = _int_product(suffix, forms[i])
    reduced = suffix
    base = _int_base(forms, F.multiplicities)
    f = _int_product(base, reduced)
    moving = []
    for k, place in enumerate(places):
        component = {}
        for row, m, other in zip(F.forms, F.multiplicities, others):
            scale = m * row[k]
            if scale:
                for key, c in other.items():
                    component[key] = component.get(key, 0) + scale * c
        component = {key: c for key, c in component.items() if c}
        if _int_product(base, component) != _int_derivative(f, place, radix):
            raise InexactDivisionError(
                f"moving part of {F} fails the product rule in x{k}")
        moving.append(component)
    nvars = F.nvars
    return PolarDecomposition(
        lambda: _polynomial(base, nvars, radix),
        RationalMap._of_integer_terms(
            nvars, [_unpacked(c, nvars, radix) for c in moving]),
        lambda: _polynomial(reduced, nvars, radix))


def moving_part(source):
    """Split the polar system of a polynomial or factored arrangement.

    Factored inputs take the closed form over the integers: base divisor
    prod L_i^{m_i - 1}, reduced prod L_i, and moving part
    sum_i m_i a_ik prod_{j != i} L_j, each component checked exactly by
    the product rule (_factored_moving_part).  Polynomial inputs compute
    the honest GCD of the partials.  Both paths produce a moving part with
    component gcd 1.
    """
    if isinstance(source, LinearFormProduct):
        return _factored_moving_part(source)
    if not isinstance(source, Polynomial):
        raise TypeError("moving_part takes a Polynomial or a LinearFormProduct")
    system = polar_system(source)
    base = system.component_gcd()
    if base.degree() == 0:
        return PolarDecomposition(base, system, source)
    moving = RationalMap([c if c.is_zero else c.exact_divide(base)
                          for c in system.components])
    return PolarDecomposition(base, moving, source.exact_divide(base))


def is_cone(f):
    """True iff the partials are linearly dependent over Q.

    Linear dependence of the partials says the zero set is a cone in
    suitable coordinates, and equivalently that the polar image lies in a
    hyperplane.  Pure linear algebra on the coefficient matrix, no
    sampling.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    partials = [f.derivative(i) for i in range(f.nvars)]
    monomials = sorted({e for p in partials for e in p.terms}, key=grlex_key)
    rows = [[p.terms.get(e, 0) for e in monomials] for p in partials]
    return exact_rank(rows) < f.nvars


def restrict_arrangement(F, i):
    """Drop L_i and restrict the other forms to the hyperplane {L_i = 0}.

    Uses the same pivot convention as restrict_to_hyperplane (first
    nonzero coefficient of L_i), then reindexes the surviving variables
    downward.  Each restricted row is a[pivot]*b - b[pivot]*a without the
    pivot slot: a nonzero multiple of b on the hyperplane, in integers,
    which canonical_row makes primitive.  Restricted forms that become
    projectively equal merge by summing multiplicities; a form
    proportional to L_i would restrict to zero and raises
    DegenerateRestrictionError (impossible for valid inputs, whose rows
    are pairwise distinct).
    """
    if not 0 <= i <= F.r:
        raise IndexError(f"form index {i} out of range")
    a = F.forms[i]
    pivot = next(t for t, c in enumerate(a) if c)
    rows = []
    mults = []
    for j, b in enumerate(F.forms):
        if j == i:
            continue
        row = [a[pivot] * b[t] - b[pivot] * a[t]
               for t in range(F.nvars) if t != pivot]
        if all(c == 0 for c in row):
            raise DegenerateRestrictionError(
                f"form {j} is proportional to form {i} on the hyperplane")
        rows.append(row)
        mults.append(F.multiplicities[j])
    return LinearFormProduct(rows, mults, F.nvars - 1)
