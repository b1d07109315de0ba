"""Reference projective points for the tests: pure-Python normalization
and the index the scan kernel assigns to a point of P^n(F_p)."""

from polarmap.oracle import projective_size


class ProjectivePoint:
    """Point of P^n(F_p), first nonzero coordinate scaled to 1."""

    __slots__ = ("coords", "p")

    def __init__(self, coords, p):
        reduced = [int(c) % p for c in coords]
        pivot = next((i for i, c in enumerate(reduced) if c), None)
        if pivot is None:
            raise ValueError("all coordinates are zero")
        inv = pow(reduced[pivot], -1, p)
        object.__setattr__(self, "coords", tuple(c * inv % p for c in reduced))
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("ProjectivePoint is immutable")

    def index(self):
        """Position in P^n(F_p): the blocks of smaller pivot come first,
        then the free digits, the coordinate after the pivot lowest."""
        n, p = len(self.coords) - 1, self.p
        pivot = self.coords.index(1)
        free = 0
        for c in reversed(self.coords[pivot + 1:]):
            free = free * p + c
        return projective_size(n, p) - projective_size(n - pivot, p) + free

    def __iter__(self):
        return iter(self.coords)

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.p == other.p and self.coords == other.coords

    def __hash__(self):
        return hash((self.p, self.coords))

    def __repr__(self):
        return "[" + ":".join(str(c) for c in self.coords) + "]"
