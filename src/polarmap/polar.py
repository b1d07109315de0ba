"""Polar systems and their decomposition into base divisor and moving part.

For a homogeneous F the polar map is the tuple of its partial derivatives,
a rational self-map of P^n.  The partials usually share a divisorial
factor (for F = prod L_i^{m_i} it is exactly prod L_i^{m_i - 1}); dividing
it out leaves the moving part, the map whose birationality decides
homaloidality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrangement import LinearFormProduct
from .errors import DegenerateRestrictionError
from .fields import QQ
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
        fld = components[0].field
        if any(c.nvars != nvars or c.field != fld for c in components):
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
        self.field = fld
        self.degree = degrees.pop()
        self._base_free = None

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

    @property
    def is_base_free(self):
        """True iff the nonzero components have gcd 1 (cached)."""
        if self._base_free is None:
            self._base_free = self.component_gcd().degree() == 0
        return self._base_free

    def evaluate(self, point):
        return [c.evaluate(point) for c in self.components]

    def compose(self, other):
        """self after other, as raw polynomials (no base stripping)."""
        if other.nvars != self.nvars or other.field != self.field:
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


def base_divisor_factored(F):
    """prod L_i^{m_i - 1}, built directly from the factored shape."""
    total = Polynomial.constant(QQ, F.nvars, 1)
    for i, m in enumerate(F.multiplicities):
        if m > 1:
            total = total * F.form_polynomial(i) ** (m - 1)
    return total


@dataclass
class PolarDecomposition:
    """base_divisor * moving[i] = the i-th partial; reduced = F / base_divisor."""
    base_divisor: Polynomial
    moving: RationalMap
    reduced: Polynomial


def moving_part(source):
    """Split the polar system of a polynomial or factored arrangement.

    Factored inputs take the closed-form base divisor and verify each
    division exactly; polynomial inputs compute the honest GCD of the
    partials.  Both paths produce a moving part with component gcd 1.
    """
    if isinstance(source, LinearFormProduct):
        f = source.expand(QQ)
        base = base_divisor_factored(source)
    elif isinstance(source, Polynomial):
        f = source
        base = None
    else:
        raise TypeError("moving_part takes a Polynomial or a LinearFormProduct")
    system = polar_system(f)
    if base is None:
        base = system.component_gcd()
    if base.degree() == 0:
        return PolarDecomposition(base, system, f)
    moving = RationalMap([c if c.is_zero else c.exact_divide(base)
                          for c in system.components])
    reduced = f.exact_divide(base)
    return PolarDecomposition(base, moving, reduced)


def is_cone(f):
    """True iff the partials are linearly dependent over the field.

    Linear dependence of the partials says the zero set is a cone in
    suitable coordinates, and equivalently that the polar image lies in a
    hyperplane.  Pure linear algebra on the coefficient matrix, no
    sampling.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    partials = [f.derivative(i) for i in range(f.nvars)]
    monomials = sorted({e for p in partials for e in p.terms}, key=grlex_key)
    rows = [[p.terms.get(e, f.field.zero) for e in monomials] for p in partials]
    return exact_rank(rows, f.field) < f.nvars


def restrict_arrangement(F, i):
    """Drop L_i and restrict the other forms to the hyperplane {L_i = 0}.

    Uses the same pivot convention as restrict_to_hyperplane (first
    nonzero coefficient of L_i), then reindexes the surviving variables
    downward.  Restricted forms that become projectively equal merge by
    summing multiplicities; a form proportional to L_i would restrict to
    zero and raises DegenerateRestrictionError (impossible for valid
    inputs, whose rows are pairwise distinct).
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
        scale = Fraction(b[pivot], a[pivot])
        row = [Fraction(b[t]) - scale * a[t] for t in range(F.nvars) if t != pivot]
        if all(c == 0 for c in row):
            raise DegenerateRestrictionError(
                f"form {j} is proportional to form {i} on the hyperplane")
        rows.append(row)
        mults.append(F.multiplicities[j])
    return LinearFormProduct(rows, mults, F.nvars - 1)
