"""Command-line front end: polar systems, moving parts, homaloidality
verdicts, descent certificates, and the small-arrangement census.

Exit codes: 0 success, 1 standard output closed by its reader (a broken
pipe, as in `| head -1`), 2 bad input (syntax or validation), 3 oracle
inconsistency or unusable prime, 4 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from itertools import combinations, product

from .arrangement import LinearFormProduct, canonical_row
from .errors import (InconsistencyError, ParseError, ReductionError,
                     ResourceBoundError)
from .fields import QQ
from .oracle import DEFAULT_PRIMES, SAMPLED_MAX_TARGETS, scan_primes
from .parsing import parse_arrangement, parse_polynomial
from .polar import moving_part, polar_system
from .poly import exact_rank
from .verdict import build_report, full_verdict, structural_verdict

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3
EXIT_RESOURCE = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="polarmap",
        description="polar maps of homogeneous polynomials: moving parts, "
                    "homaloidality verdicts, descent certificates")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_input(p):
        p.add_argument("expr", nargs="?", help="polynomial expression")
        p.add_argument("--file", help="read the expression from a file")
        p.add_argument("--ambient", type=int, metavar="N",
                       help="ambient projective dimension (default: inferred "
                            "from the highest variable index)")

    def add_scan(p):
        p.add_argument("-p", "--prime", type=int, action="append", metavar="P",
                       help="oracle prime, repeatable, each counted once; two "
                       "primes add a stability check (default "
                       f"{','.join(map(str, DEFAULT_PRIMES))})")
        p.add_argument("--mode", choices=("exhaustive", "sample"),
                       default="exhaustive")
        p.add_argument("--targets", type=int, default=64, help="sample size "
                       f"in sampled mode, at most {SAMPLED_MAX_TARGETS}")
        p.add_argument("--seed", type=int, default=0,
                       help="RNG seed in sampled mode")
        p.add_argument("--json", dest="json_path", metavar="PATH",
                       help="write the JSON report here; stdout then keeps "
                            "a one-line summary")

    p = sub.add_parser("polar", help="print the partial derivatives")
    add_input(p)
    p.set_defaults(run=cmd_polar)
    p = sub.add_parser("moving", help="print base divisor and moving part")
    add_input(p)
    p.set_defaults(run=cmd_moving)
    p = sub.add_parser("homaloidal",
                       help="decide homaloidality (any homogeneous input)")
    add_input(p)
    add_scan(p)
    p.set_defaults(run=cmd_homaloidal)
    p = sub.add_parser("certify",
                       help="full verdict with descent certificate "
                            "(product-of-linear-forms input)")
    add_input(p)
    add_scan(p)
    p.set_defaults(run=cmd_certify)
    p = sub.add_parser("classify",
                       help="census of square-free arrangements over a "
                            "small coefficient set")
    p.set_defaults(run=cmd_classify)
    p.add_argument("--n", type=int, required=True, dest="census_n",
                   help="ambient projective dimension")
    p.add_argument("--r", type=int, required=True, dest="census_r",
                   help="number of forms minus one")
    p.add_argument("--coefficients", default="-1,0,1",
                   help="comma-separated coefficient set")
    add_scan(p)
    return parser


def _nvars(args):
    return None if args.ambient is None else args.ambient + 1


def _scan_args(args):
    """scan_primes keywords from the scan flags."""
    return dict(primes=args.prime or DEFAULT_PRIMES, mode=args.mode,
                targets=args.targets, seed=args.seed)


def _input_text(args):
    if args.expr is not None and args.file is not None:
        raise ValueError("give an expression or --file, not both")
    if args.file is not None:
        with open(args.file, encoding="utf-8") as handle:
            return handle.read().strip()
    if args.expr is not None:
        return args.expr
    raise ValueError("no input: pass an expression or --file")


def _emit_report(report, args):
    text = report.to_json()
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"homaloidal: {report.homaloidal} (degree {report.degree}, "
              f"p={report.p}); report written to {args.json_path}")
    else:
        print(text)


def cmd_polar(args):
    f = parse_polynomial(_input_text(args), nvars=_nvars(args))
    system = polar_system(f)
    for i, comp in enumerate(system.components):
        print(f"component {i}: {comp}")
    return EXIT_OK


def cmd_moving(args):
    f = parse_polynomial(_input_text(args), nvars=_nvars(args))
    if f.is_zero or not f.is_homogeneous() or f.homogeneous_degree() < 2:
        raise ValueError("moving part needs a homogeneous input of degree "
                         "at least 2 (the polar map of a linear form is "
                         "constant)")
    dec = moving_part(f)
    print(f"base divisor: {dec.base_divisor}")
    for i, comp in enumerate(dec.moving.components):
        print(f"component {i}: {comp}")
    return EXIT_OK


def cmd_homaloidal(args):
    text = _input_text(args)
    try:
        arrangement = parse_arrangement(text, nvars=_nvars(args))
    except (ParseError, ValueError):
        arrangement = None
    started = time.monotonic()
    if arrangement is not None:
        report = full_verdict(arrangement, input_text=text, **_scan_args(args))
    else:
        f = parse_polynomial(text, nvars=_nvars(args), require_homogeneous=True)
        if f.is_zero or f.homogeneous_degree() < 1:
            raise ValueError("input must be homogeneous of degree at least 1")
        scan = scan_primes(moving_part(f).moving, **_scan_args(args))[0]
        report = build_report(text, f.nvars - 1, scan, [], started)
    _emit_report(report, args)
    return EXIT_OK


def cmd_certify(args):
    text = _input_text(args)
    arrangement = parse_arrangement(text, nvars=_nvars(args))
    report = full_verdict(arrangement, input_text=text, **_scan_args(args))
    _emit_report(report, args)
    return EXIT_OK


def _census_rows(nvars, coefficients):
    """Distinct projective classes of nonzero vectors over the set."""
    rows = set()
    for vec in product(coefficients, repeat=nvars):
        if any(vec):
            rows.add(canonical_row(vec))
    return sorted(rows)


def cmd_classify(args):
    try:
        coefficients = tuple(sorted(
            {int(c) for c in args.coefficients.split(",")}))
    except ValueError:
        raise ValueError(f"bad coefficient set {args.coefficients!r}")
    if args.census_n < 1 or args.census_n > 3:
        raise ValueError("census supports 1 <= n <= 3")
    if args.census_r < 0 or args.census_r > 5:
        raise ValueError("census supports 0 <= r <= 5")
    nvars = args.census_n + 1
    rows = _census_rows(nvars, coefficients)
    count = homaloidal_count = full_rank_count = 0
    scan_args = _scan_args(args)
    # the primes scanned, each once, as scan_primes reports them
    primes = scan_args["primes"]
    for chosen in combinations(rows, args.census_r + 1):
        F = LinearFormProduct(chosen, nvars=nvars)
        structural = structural_verdict(F)
        reports = scan_primes(moving_part(F).moving, **scan_args)
        primes = [r.p for r in reports]
        scan = reports[0]
        if scan.homaloidal != structural:
            raise InconsistencyError(
                f"census disagreement at p={scan.p} on {F}: structural "
                f"{structural}, oracle {scan.homaloidal}")
        # Gauss-Jordan over Q, not the Bareiss rank structural_verdict uses
        independent = F.r == F.n and exact_rank(F.forms, QQ) == nvars
        if independent != structural:
            raise InconsistencyError(
                f"census disagreement on {F}: structural {structural}, "
                f"rank over Q {independent}")
        count += 1
        homaloidal_count += structural
        full_rank_count += independent
    coeffs = ",".join(str(c) for c in coefficients)
    listed = ",".join(str(p) for p in primes)
    print(f"census n={args.census_n} r={args.census_r} "
          f"coefficients {{{coeffs}}} primes {{{listed}}}")
    print(f"arrangements: {count}")
    print(f"homaloidal: {homaloidal_count}")
    print(f"full-rank n+1-form sets (independent count): {full_rank_count}")
    print("disagreements: 0")
    if args.json_path:
        import json
        summary = {"n": args.census_n, "r": args.census_r,
                   "coefficients": list(coefficients),
                   "primes": list(primes), "arrangements": count,
                   "homaloidal": homaloidal_count,
                   "full_rank": full_rank_count, "disagreements": 0}
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # so that a closed pipe raises inside the try
        return code
    except BrokenPipeError:
        # stdout to devnull, so the flush at exit raises no more (Python docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InconsistencyError, ReductionError) as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ResourceBoundError as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
