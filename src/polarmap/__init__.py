"""Exact toolkit for polar maps of homogeneous polynomials.

Core objects: sparse exact polynomials over Q and F_p, factored products
of linear forms, polar systems and their moving parts, a finite-field
fiber-counting degree oracle, and the structural/inductive homaloidality
verdicts for arrangements.
"""

from .arrangement import LinearFormProduct, canonical_row
from .errors import (
    DegenerateRestrictionError,
    InconsistencyError,
    InexactDivisionError,
    ParseError,
    ReductionError,
    ResourceBoundError,
)
from .fields import QQ, PrimeField, RationalField, is_prime
from .oracle import (
    DegreeReport,
    check_contraction,
    dominance_by_span,
    projective_size,
    scan_exhaustive,
    scan_primes,
    scan_sampled,
)
from .parsing import (
    format_canonical,
    parse_arrangement,
    parse_polynomial,
)
from .polar import (
    PolarDecomposition,
    RationalMap,
    base_divisor_factored,
    is_cone,
    moving_part,
    polar_system,
    restrict_arrangement,
)
from .poly import Polynomial, exact_rank, gcd, monic, restrict_to_hyperplane
from .report import ReportDocument
from .verdict import (
    Certificate,
    CertificateStep,
    CremonaMap,
    cremona_involution_check,
    full_verdict,
    inductive_certificate,
    monomial_moving_part,
    replay_certificate,
    standard_cremona,
    structural_verdict,
)

__all__ = [
    "LinearFormProduct",
    "canonical_row",
    "DegenerateRestrictionError",
    "InconsistencyError",
    "InexactDivisionError",
    "ParseError",
    "ReductionError",
    "ResourceBoundError",
    "QQ",
    "PrimeField",
    "RationalField",
    "is_prime",
    "DegreeReport",
    "check_contraction",
    "dominance_by_span",
    "projective_size",
    "scan_exhaustive",
    "scan_primes",
    "scan_sampled",
    "format_canonical",
    "parse_arrangement",
    "parse_polynomial",
    "PolarDecomposition",
    "RationalMap",
    "base_divisor_factored",
    "is_cone",
    "moving_part",
    "polar_system",
    "restrict_arrangement",
    "Polynomial",
    "exact_rank",
    "gcd",
    "monic",
    "restrict_to_hyperplane",
    "ReportDocument",
    "Certificate",
    "CertificateStep",
    "CremonaMap",
    "cremona_involution_check",
    "full_verdict",
    "inductive_certificate",
    "monomial_moving_part",
    "replay_certificate",
    "standard_cremona",
    "structural_verdict",
]

__version__ = "0.1.0"
