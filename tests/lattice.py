"""Exact polar degree of a plane arrangement, a test reference that shares
no code with the scans.

For lines L_0..L_r of P^2, pairwise distinct, the degree of the polar map
of their product is |mu| of the intersection lattice (Dimca & Papadima,
Ann. of Math. 158 (2003)), which in the plane is the closed form
sum over intersection points P of (m_P - 1), minus r, where m_P lines pass
through P.  Lines through one point (rank < 3) give 0: one point of
multiplicity r + 1.  Python ints only.
"""

from math import gcd


def _primitive(v):
    """The integer vector v over its content, first nonzero entry > 0."""
    content = gcd(*v)
    if next(c for c in v if c) < 0:
        content = -content
    return tuple(c // content for c in v)


def lattice_degree(forms):
    """|mu| of the lines a*x0 + b*x1 + c*x2, given as integer rows (a, b, c);
    repeated and proportional rows count once."""
    lines = {_primitive(row) for row in forms}
    points = {_primitive((a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                          a[0] * b[1] - a[1] * b[0]))
              for a in lines for b in lines if a < b}
    through = [sum(1 for line in lines
                   if sum(x * y for x, y in zip(line, point)) == 0)
               for point in points]
    return sum(m - 1 for m in through) - (len(lines) - 1)
