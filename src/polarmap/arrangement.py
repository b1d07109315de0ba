"""Products of linear forms with multiplicities.

The factored shape F = L_0^{m_0} * ... * L_r^{m_r} is kept as a matrix of
form coefficients plus a multiplicity vector, never expanded unless asked.
Rows are canonicalized to primitive integer vectors (content 1, first
nonzero entry positive) so projective equality is plain tuple equality.
"""

from __future__ import annotations

import math

from .poly import Polynomial, exact_rank


def canonical_row(coeffs):
    """Primitive integer vector spanning the same line, first nonzero entry > 0.

    The coefficients are ints or Fractions: both have a numerator and a
    denominator.
    """
    if not any(coeffs):
        raise ValueError("linear form is identically zero")
    denom_lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (denom_lcm // c.denominator) for c in coeffs]
    content = math.gcd(*ints)
    if next(x for x in ints if x) < 0:
        content = -content
    return tuple(x // content for x in ints)


class LinearFormProduct:
    """A hyperplane arrangement with multiplicities: F = prod L_i^{m_i}."""

    __slots__ = ("nvars", "forms", "multiplicities")

    def __init__(self, forms, multiplicities=None, nvars=None):
        forms = [list(row) for row in forms]
        if not forms:
            raise ValueError("arrangement needs at least one form")
        if nvars is None:
            nvars = len(forms[0])
        if any(len(row) != nvars for row in forms):
            raise ValueError("all forms must have the same coefficient length")
        if multiplicities is None:
            multiplicities = [1] * len(forms)
        if len(multiplicities) != len(forms):
            raise ValueError("one multiplicity per form required")
        if any(not isinstance(m, int) or m < 1 for m in multiplicities):
            raise ValueError("multiplicities must be positive integers")
        merged = {}  # first-occurrence order
        for row, mult in zip(forms, multiplicities):
            key = canonical_row(row)
            merged[key] = merged.get(key, 0) + mult
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "forms", tuple(merged))
        object.__setattr__(self, "multiplicities", tuple(merged.values()))

    def __setattr__(self, name, value):
        raise AttributeError("LinearFormProduct is immutable")

    @property
    def r(self):
        """Number of distinct forms minus one."""
        return len(self.forms) - 1

    @property
    def n(self):
        """Ambient projective dimension."""
        return self.nvars - 1

    def degree(self):
        return sum(self.multiplicities)

    def is_squarefree(self):
        return all(m == 1 for m in self.multiplicities)

    def reduced(self):
        """Same forms, all multiplicities forced to 1."""
        return LinearFormProduct(self.forms, [1] * len(self.forms), self.nvars)

    def rank(self):
        return exact_rank(self.forms)

    def form_polynomial(self, i):
        terms = {}
        for t, c in enumerate(self.forms[i]):
            if c:
                exps = tuple(1 if j == t else 0 for j in range(self.nvars))
                terms[exps] = c
        return Polynomial(self.nvars, terms)

    def expand(self):
        """The product as an honest sparse polynomial."""
        total = Polynomial.constant(self.nvars, 1)
        for i, m in enumerate(self.multiplicities):
            total = total * self.form_polynomial(i) ** m
        return total

    def sort_key(self):
        """Order-insensitive identity, for deduplication."""
        return (self.nvars, tuple(sorted(zip(self.forms, self.multiplicities))))

    def __eq__(self, other):
        if not isinstance(other, LinearFormProduct):
            return NotImplemented
        return self.sort_key() == other.sort_key()

    def __hash__(self):
        return hash(self.sort_key())

    def __str__(self):
        pieces = []
        for i, m in enumerate(self.multiplicities):
            form = self.form_polynomial(i)
            text = str(form)
            if len(form.terms) > 1 or any(c != 1 for c in form.terms.values()):
                text = f"({text})"
            pieces.append(text if m == 1 else f"{text}^{m}")
        return " * ".join(pieces)

    def __repr__(self):
        return f"LinearFormProduct({self})"
