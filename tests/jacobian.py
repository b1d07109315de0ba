"""Reference dominance for the tests: the rank of a map's Jacobian at
seeded random points, in Python ints mod the prime 2^61 - 1, with its own
derivatives and its own elimination.

A map of P^n given by n+1 forms is dominant exactly when its affine cone
map is, that is when the Jacobian has rank n+1 at a generic point.  Full
rank at one point proves dominance; a deficient rank at every one of a
few random points is deficient generically but for a chance of about
degree / 2^61 per point (Schwartz-Zippel).
"""

import random

MODULUS = 2 ** 61 - 1


def _residue(c):
    # ints and Fractions alike; 2^61 - 1 divides no test coefficient's
    # denominator
    return c.numerator * pow(c.denominator, -1, MODULUS) % MODULUS


def _rank(rows):
    """Rank of a matrix mod MODULUS, by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, MODULUS)
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] * inverse % MODULUS
            if factor:
                rows[i] = [(a - factor * b) % MODULUS
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _jacobian_at(components, point):
    """d f_j / d x_v at the point, one row per component, term by term."""
    rows = []
    for comp in components:
        row = [0] * len(point)
        for e, c in comp.terms.items():
            c = _residue(c)
            for v, k in enumerate(e):
                if k:
                    term = c * k
                    for w, m in enumerate(e):
                        term = term * pow(point[w], m - (w == v), MODULUS)
                    row[v] = (row[v] + term) % MODULUS
        rows.append(row)
    return rows


def jacobian_rank(rational_map, points=3, seed=0):
    """The largest Jacobian rank of the map at `points` seeded random
    points, stopping early at full rank."""
    rng = random.Random(seed)
    nvars = rational_map.nvars
    best = 0
    for _ in range(points):
        point = [rng.randrange(MODULUS) for _ in range(nvars)]
        best = max(best, _rank(_jacobian_at(rational_map.components, point)))
        if best == nvars:
            break
    return best


def is_dominant(rational_map):
    """Full Jacobian rank at some seeded point."""
    return jacobian_rank(rational_map) == rational_map.nvars
