"""Seeded random generators shared by the test modules."""

import random
from fractions import Fraction

from polarmap import LinearFormProduct, Polynomial


def random_poly(rng, nvars, max_degree=3, max_terms=5, homogeneous=False,
                nonzero=False, coeff_bound=9):
    """Random sparse polynomial with small integer coefficients."""
    while True:
        terms = {}
        degree = rng.randint(0, max_degree) if homogeneous else None
        for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
            if homogeneous:
                exps = _random_composition(rng, degree, nvars)
            else:
                exps = tuple(rng.randint(0, max_degree) for _ in range(nvars))
                while sum(exps) > max_degree:
                    exps = tuple(rng.randint(0, max_degree) for _ in range(nvars))
            coeff = rng.randint(-coeff_bound, coeff_bound)
            terms[exps] = terms.get(exps, 0) + coeff
        poly = Polynomial(nvars, {e: c for e, c in terms.items() if c})
        if not nonzero or not poly.is_zero:
            return poly


def _random_composition(rng, total, slots):
    cuts = sorted(rng.randint(0, total) for _ in range(slots - 1)) if slots > 1 else []
    parts = []
    prev = 0
    for c in cuts + [total]:
        parts.append(c - prev)
        prev = c
    return tuple(parts)


def random_fraction_poly(rng, nvars, max_degree=3, max_terms=4):
    base = random_poly(rng, nvars, max_degree, max_terms)
    terms = {e: Fraction(c, rng.randint(1, 7)) for e, c in base.terms.items()}
    return Polynomial(nvars, terms)


def random_arrangement(rng, nvars, nforms, coeff_bound=2, max_mult=1):
    """Random pairwise-distinct forms; multiplicities uniform in [1, max_mult]."""
    rows = []
    seen = set()
    from polarmap import canonical_row
    while len(rows) < nforms:
        row = [rng.randint(-coeff_bound, coeff_bound) for _ in range(nvars)]
        if all(c == 0 for c in row):
            continue
        key = canonical_row(row)
        if key in seen:
            continue
        seen.add(key)
        rows.append(list(key))
    mults = [rng.randint(1, max_mult) for _ in range(nforms)]
    return LinearFormProduct(rows, mults, nvars)
