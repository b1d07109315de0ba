"""Structural homaloidality and its inductive certificate.

A product of linear forms has a birational moving polar map exactly when
the distinct forms number n+1 and are linearly independent, regardless of
multiplicities.  structural_verdict answers by rank alone;
inductive_certificate rederives the same answer by restricting to a
factor hyperplane one dimension at a time, down to the two-points-in-P^1
base case, recording every step so the descent can be replayed.
full_verdict runs both plus the fiber-counting oracle on the moving parts
of F and (when F has a repeated form) of its square-free reduction, and
treats any disagreement between the four routes as a hard error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .arrangement import LinearFormProduct
from .errors import InconsistencyError
from .fields import QQ
from .oracle import scan_primes
from .polar import RationalMap, moving_part, restrict_arrangement
from .poly import Polynomial
from .report import ReportDocument


class CremonaMap:
    """The monomial family X_0^{m_0} * ... * X_n^{m_n}, all m_i >= 1."""

    __slots__ = ("exponents",)

    def __init__(self, exponents):
        object.__setattr__(self, "exponents", _checked_exponents(exponents))

    def __setattr__(self, name, value):
        raise AttributeError("CremonaMap is immutable")

    @property
    def n(self):
        return len(self.exponents) - 1

    def polynomial(self):
        return Polynomial(QQ, len(self.exponents), {self.exponents: 1})

    def moving_map(self):
        return monomial_moving_part(self.exponents)

    def __repr__(self):
        return f"CremonaMap{self.exponents}"


@dataclass(frozen=True)
class CertificateStep:
    """One descent level: restriction of the (reduced) arrangement along
    the chosen form's hyperplane."""
    index: int
    arrangement: LinearFormProduct
    reduced: bool            # did this level drop multiplicities first


@dataclass(frozen=True)
class Certificate:
    verdict: bool
    chain: tuple              # CertificateStep, length n-1 when accepting
    base_case: dict | None    # accepting terminal: the two forms in P^1
    refutation: dict | None   # {"reason": "rank-deficient" | "r!=n", ...}

    def entries(self):
        """Chain as plain dicts, ready for the report's certificate field."""
        out = []
        for k, step in enumerate(self.chain):
            out.append({"step": k, "index": step.index,
                        "arrangement": str(step.arrangement),
                        "reduced": step.reduced})
        if self.verdict:
            out.append({"base_case": self.base_case})
        else:
            out.append({"refutation": self.refutation})
        return out


def structural_verdict(F):
    """True iff the distinct forms number n+1 and have full rank.

    Multiplicities play no role: F and its square-free reduction get the
    same answer.
    """
    if not isinstance(F, LinearFormProduct):
        raise TypeError("structural_verdict takes a LinearFormProduct")
    return F.r == F.n and F.rank() == F.nvars


def _checked_exponents(exponents):
    exponents = tuple(exponents)
    if len(exponents) < 2:
        raise ValueError("need at least two variables")
    if any(not isinstance(m, int) or m < 1 for m in exponents):
        raise ValueError("exponents must be positive integers")
    return exponents


def monomial_moving_part(exponents):
    """The moving polar map of X_0^{m_0}...X_n^{m_n} in closed form.

    Component i is m_i * prod_{j != i} X_j; dividing the partials by
    their gcd prod X_j^{m_j - 1} gives exactly this, so it must agree
    with moving_part of the expanded monomial.
    """
    exponents = _checked_exponents(exponents)
    nvars = len(exponents)
    components = []
    for i, m in enumerate(exponents):
        exps = tuple(0 if j == i else 1 for j in range(nvars))
        components.append(Polynomial(QQ, nvars, {exps: Fraction(m)}))
    return RationalMap(components)


def standard_cremona(n):
    """(prod_{j != 0} X_j, ..., prod_{j != n} X_j), the coordinate flip."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    return monomial_moving_part((1,) * (n + 1))


def cremona_involution_check(n):
    """Self-test: the standard map composed with itself, with the common
    divisor stripped, is the identity up to one scalar."""
    c = standard_cremona(n)
    return c.compose(c).with_base_stripped().is_scaled_identity()


def inductive_certificate(F):
    """Replay the descent: reduce, restrict along one form, recurse.

    Each level first checks the two refutation conditions (coefficient
    rank below n+1, then a form count different from n+1), then either
    lands in the P^1 base case of exactly two distinct forms or picks a
    restriction index.  Indices are tried in ascending order and the
    first square-free restriction wins; if none is square-free the first
    index is taken (such an arrangement is already doomed to refutation
    at a lower level, the choice only shapes the witness).
    """
    if not isinstance(F, LinearFormProduct):
        raise TypeError("inductive_certificate takes a LinearFormProduct")
    if F.n < 1:
        raise ValueError("ambient space must be at least P^1")
    chain = []
    current = F
    while True:
        n = current.n
        rank = current.rank()
        if rank < current.nvars:
            refutation = {"reason": "rank-deficient", "rank": rank,
                          "required": current.nvars, "r": current.r, "n": n}
            return Certificate(False, tuple(chain), None, refutation)
        if current.r != n:
            refutation = {"reason": "r!=n", "r": current.r, "n": n}
            return Certificate(False, tuple(chain), None, refutation)
        if n == 1:
            base = {"n": 1, "forms": [list(row) for row in current.forms]}
            return Certificate(True, tuple(chain), base, None)
        reduced = current.reduced()
        dropped = reduced != current
        for chosen in range(reduced.r + 1):
            restricted = restrict_arrangement(reduced, chosen)
            if restricted.is_squarefree():
                break
        else:
            chosen, restricted = 0, restrict_arrangement(reduced, 0)
        chain.append(CertificateStep(chosen, restricted, dropped))
        current = restricted


def replay_certificate(F, certificate):
    """Recompute an accepting chain from scratch; True iff every recorded
    arrangement matches the replayed restriction exactly."""
    current = F
    for step in certificate.chain:
        current = restrict_arrangement(current.reduced(), step.index)
        if current != step.arrangement:
            return False
    return True


def build_report(text, n, scan, certificate, started):
    """The JSON report of a verdict: the fields of the scan at the first
    prime, the certificate entries, and the time since `started`."""
    return ReportDocument(
        input=text, n=n, field="Fp", p=scan.p, seed=scan.seed, mode=scan.mode,
        fiber_histogram=dict(scan.fiber_histogram),
        image_size=scan.image_size, dominant=scan.dominant,
        degree=scan.degree, homaloidal=scan.homaloidal,
        certificate=certificate,
        millis=int((time.monotonic() - started) * 1000))


def full_verdict(F, input_text=None, **scan):
    """Check homaloidality four ways and insist the answers coincide.

    Routes: structural_verdict, inductive_certificate, and the oracle's
    homaloidal flag on the moving part of F and, when F has a repeated
    form, of its reduction (scan_primes, given the keywords primes, mode,
    targets and seed, requires the primes to agree).  A homaloidal
    F also gets the restriction cross-check (its first descent restriction
    must itself be structurally homaloidal).  Any mismatch raises
    InconsistencyError: a bug or a bad prime may not pass silently.
    """
    started = time.monotonic()
    structural = structural_verdict(F)
    certificate = inductive_certificate(F)
    if certificate.verdict != structural:
        raise InconsistencyError(
            f"certificate says {certificate.verdict}, rank criterion says "
            f"{structural} for {F}")
    reports = scan_primes(moving_part(F).moving, **scan)
    first = reports[0]
    # a square-free F is its own reduction, whose scan would repeat this one
    if not F.is_squarefree():
        first_red = scan_primes(moving_part(F.reduced()).moving, **scan)[0]
        if first.homaloidal != first_red.homaloidal:
            raise InconsistencyError(
                f"oracle flags differ between F and F_red at p={first.p}: "
                f"{first.homaloidal} vs {first_red.homaloidal}")
    # scan_primes made homaloidal agree at every prime: the first speaks for all
    if first.homaloidal != structural:
        raise InconsistencyError(
            f"oracle says homaloidal={first.homaloidal} at p={first.p}, "
            f"structure says {structural} for {F}")
    entries = certificate.entries()
    if structural and F.n >= 2:
        i0 = certificate.chain[0].index
        restriction = restrict_arrangement(F, i0)
        ok = structural_verdict(restriction)
        entries.append({"restriction_check": {
            "index": i0, "arrangement": str(restriction), "verdict": ok}})
        if not ok:
            raise InconsistencyError(
                f"restriction along form {i0} of homaloidal {F} is not "
                "homaloidal")
    if len(reports) > 1:
        entries.append({"prime_stability": {
            "primes": [r.p for r in reports], "agree": True}})
    return build_report(input_text if input_text is not None else str(F),
                        F.n, first, entries, started)
