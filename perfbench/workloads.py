"""Inputs of the four workloads and the checks that judge their outputs.

Every expected value here is derived by the benchmark itself (integer
determinants, point counts of P^n(F_p), closed-form fiber histograms), so a
check never depends on what the program printed on an earlier run.  The
module imports nothing from polarmap: the parent process uses it to build
command lists and judge results without loading the package under test.
"""

from __future__ import annotations

import json
import random
from itertools import combinations, product

CENSUS_PRIME = 101
EXHAUSTIVE_PRIMES = (211, 229)
QUADRIC_P3 = "x0^2 + x1^2 + x2^2 + x3^2"
CREMONA_P3 = "x0*x1*x2*x3"
DET_CUBIC = "x0*x3*x5 - x0*x4^2 - x1^2*x5 + 2*x1*x2*x4 - x2^2*x3"
DET_PRIME = 31
SAMPLED_TARGETS = 64

# Smooth hypersurfaces sampled with a fixed scan seed: (name, text, degree d,
# ambient n, prime, fixed seed or None for the run's seed).  Their polar
# maps have degree (d-1)^n.  The quadrics pass.  The Hesse cubic (degree 4)
# and the binary quartic (degree 3) fail: scan_sampled reports the fiber
# size held by the most targets, not the largest generic fiber size.  They
# use scan seed 0 whatever the run's seed, so they fail on every run and
# the failure count per round is fixed.
SMOOTH = (
    ("quadric_p4", "x0^2 + x1^2 + x2^2 + x3^2 + x4^2", 2, 4, 31, None),
    ("split_quadric_p3", "x0*x1 + x2*x3", 2, 3, 101, None),
    ("hesse_cubic", "x0^3 + x1^3 + x2^3 + x0*x1*x2", 3, 2, 103, 0),
    ("binary_quartic", "x0^4 + 3*x0^3*x1 + 2*x0^2*x1^2 + x0*x1^3 + x1^4",
     4, 1, 103, 0),
)
KNOWN_FAULTS = ("sampled:hesse_cubic:p103:w1", "sampled:binary_quartic:p103:w1")

TWISTED_CUBE = "x0*x1*(x0+x1)*(x0-x1)"


def op_id(workload, name, p, workers):
    """Name of one scan operation, the same in every round."""
    return f"{workload}:{name}:p{p}:w{workers}"


# -- census ------------------------------------------------------------------

def census_rows(nvars=3):
    """Nonzero vectors over {-1,0,1} up to sign, first nonzero entry +1."""
    rows = set()
    for vec in product((-1, 0, 1), repeat=nvars):
        if any(vec):
            sign = next(c for c in vec if c)
            rows.add(tuple(c * sign for c in vec))
    return sorted(rows)


def det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def census_expected(forms):
    """Homaloidal iff exactly 3 distinct forms with nonzero determinant."""
    distinct = sorted(set(forms))
    return len(distinct) == 3 and det3(*distinct) != 0


def form_text(row):
    parts = []
    for i, c in enumerate(row):
        if c:
            sign = "-" if c < 0 else "+"
            coeff = "" if abs(c) == 1 else f"{abs(c)}*"
            parts.append((sign, f"{coeff}x{i}"))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def arrangement_text(forms, mults):
    factors = []
    for row, m in zip(forms, mults):
        factors.append(f"({form_text(row)})" + (f"^{m}" if m > 1 else ""))
    return "*".join(factors)


def census_inputs(seed):
    """Every square-free arrangement of 1..4 census rows in P^2, plus one
    multiplicity variant of each, in seeded order.

    The variant cubes one seeded form, so every seed gives inputs of the
    same degrees and the cost of a round hardly depends on the seed.
    Returns (text, forms, expected homaloidal) triples.
    """
    rng = random.Random(seed)
    rows = census_rows()
    ops = []
    for r in range(1, 5):
        for forms in combinations(rows, r):
            expected = census_expected(forms)
            ops.append((arrangement_text(forms, [1] * r), forms, expected))
            mults = [1] * r
            mults[rng.randrange(r)] = 3
            ops.append((arrangement_text(forms, mults), forms, expected))
    rng.shuffle(ops)
    return ops


def check_census(expected, report):
    """Problems with one full_verdict report (a dict), as strings."""
    problems = []
    if report["homaloidal"] != expected:
        problems.append(f"homaloidal {report['homaloidal']}, expected {expected}")
    if expected and (report["degree"] != 1 or not report["dominant"]):
        problems.append(f"homaloidal input read as degree {report['degree']}, "
                        f"dominant {report['dominant']}")
    return problems


# -- exhaustive --------------------------------------------------------------

def projective_count(n, p):
    return sum(p ** k for k in range(n + 1))


def exhaustive_ops(seed):
    """(kind, prime, workers) for both maps at both primes, seeded order."""
    ops = [(kind, p, w) for kind in ("quadric", "cremona")
           for p in EXHAUSTIVE_PRIMES for w in (1, 2)]
    random.Random(seed).shuffle(ops)
    return ops


def exhaustive_expected(kind, p):
    """(fiber histogram, base points) in P^3 over F_p.

    The quadric's polar map is 2 * identity: every point is its own fiber.
    The standard Cremona map is a bijection on the torus ((p-1)^3 points),
    contracts each of the 4 coordinate planes minus its base lines onto a
    coordinate point ((p-1)^2 points each), and has the 6 coordinate lines
    (6(p+1) - 8 points) as base locus.
    """
    if kind == "quadric":
        return {1: projective_count(3, p)}, 0
    if kind == "cremona":
        return {1: (p - 1) ** 3, (p - 1) ** 2: 4}, 6 * (p + 1) - 8
    raise ValueError(f"unknown exhaustive map {kind!r}")


def check_exhaustive(kind, p, result):
    histogram, base = exhaustive_expected(kind, p)
    problems = []
    got = {int(k): v for k, v in result["fiber_histogram"].items()}
    if got != histogram:
        problems.append(f"histogram {got}, expected {histogram}")
    if result["base_points"] != base:
        problems.append(f"base points {result['base_points']}, expected {base}")
    if (result["degree"], result["dominant"], result["homaloidal"]) != (1, True, True):
        problems.append("birational map not read as degree 1, dominant, homaloidal")
    return problems


# -- sampled -----------------------------------------------------------------

def sampled_ops(seed):
    """(name, text, prime, workers, scan seed) for one round."""
    ops = [("det_cubic", DET_CUBIC, DET_PRIME, w, seed) for w in (1, 2)]
    for name, text, _, _, p, fixed in SMOOTH:
        ops.append((name, text, p, 1, seed if fixed is None else fixed))
    random.Random(seed).shuffle(ops)
    return ops


def check_sampled(name, p, result):
    problems = []
    sizes = {int(k) for k in result["fiber_histogram"]}
    if name == "det_cubic":
        if (result["degree"], result["dominant"], result["homaloidal"]) != (1, True, True):
            problems.append("det cubic not read as degree 1, dominant, homaloidal")
        # base locus: the rank-1 symmetric matrices, a Veronese surface
        if result["base_points"] != p * p + p + 1:
            problems.append(f"base points {result['base_points']}, "
                            f"expected {p * p + p + 1}")
        if not sizes <= {1, p * p}:
            problems.append(f"fiber sizes {sorted(sizes)} not within {{1, p^2}}")
        return problems
    for smooth_name, _, d, n, _, _ in SMOOTH:
        if smooth_name == name:
            break
    else:
        raise ValueError(f"unknown sampled input {name!r}")
    if result["degree"] != (d - 1) ** n:
        problems.append(f"degree {result['degree']}, expected (d-1)^n = {(d - 1) ** n}")
    # a smooth hypersurface's gradient vanishes nowhere when p does not divide d
    if result["base_points"] != 0:
        problems.append(f"base points {result['base_points']}, expected 0")
    if result["homaloidal"] != (d == 2):
        problems.append(f"homaloidal {result['homaloidal']}, expected {d == 2}")
    return problems


# -- cli ---------------------------------------------------------------------

def twisted_cube_blind(p):
    """The twisted cube map is cubing on F_p[i] points; every fiber has
    size 1 exactly when p = 5 or 7 mod 12."""
    return p % 12 in (5, 7)


def cli_commands(seed):
    """(name, argv) pairs: the README's example commands, seeded order."""
    cmds = [
        ("polar", ["polar", "x0^2 + 3*x1*x2"]),
        ("moving", ["moving", "x0*x1*x2"]),
        ("certify_monomial", ["certify", "x0^3*x1*x2"]),
        ("homaloidal_quadric", ["homaloidal", QUADRIC_P3]),
        ("homaloidal_det_sample", ["homaloidal", DET_CUBIC, "--mode", "sample",
                                   "-p", str(DET_PRIME), "--seed", "0"]),
        ("certify_twisted_two_primes", ["certify", TWISTED_CUBE,
                                        "-p", "109", "-p", "227"]),
        ("certify_twisted_default", ["certify", TWISTED_CUBE]),
        ("classify_n2_r2", ["classify", "--n", "2", "--r", "2"]),
    ]
    random.Random(seed).shuffle(cmds)
    return cmds


def _lines(stdout):
    return [line.strip() for line in stdout.strip().splitlines()]


def check_cli(name, returncode, stdout):
    default_p = 101
    expected_code = 0
    if name == "certify_twisted_default" and twisted_cube_blind(default_p):
        # the oracle is blind at this prime; structure disagrees: exit 3
        expected_code = 3
    if returncode != expected_code:
        return [f"exit code {returncode}, expected {expected_code}"]
    problems = []
    if name == "polar":
        # d/dx of x0^2 + 3*x1*x2: (2*x0, 3*x2, 3*x1)
        want = ["component 0: 2*x0", "component 1: 3*x2", "component 2: 3*x1"]
        if _lines(stdout) != want:
            problems.append(f"polar output {_lines(stdout)}")
    elif name == "moving":
        want = ["base divisor: 1", "component 0: x1*x2", "component 1: x0*x2",
                "component 2: x0*x1"]
        if _lines(stdout) != want:
            problems.append(f"moving output {_lines(stdout)}")
    elif name == "certify_monomial":
        # moving part is the standard Cremona map of P^2
        p = default_p
        problems += _check_report(stdout, degree=1, homaloidal=True,
                                  histogram={1: (p - 1) ** 2, p - 1: 3})
    elif name == "homaloidal_quadric":
        problems += _check_report(stdout, degree=1, homaloidal=True,
                                  histogram={1: projective_count(3, default_p)})
    elif name == "homaloidal_det_sample":
        problems += _check_report(stdout, degree=1, homaloidal=True,
                                  sizes={1, DET_PRIME ** 2})
    elif name == "certify_twisted_two_primes":
        problems += _check_report(stdout, degree=3, homaloidal=False)
    elif name == "classify_n2_r2":
        rows = census_rows()
        triples = list(combinations(rows, 3))
        full_rank = sum(det3(*t) != 0 for t in triples)
        lines = _lines(stdout)
        if f"arrangements: {len(triples)}" not in lines:
            problems.append(f"arrangement count wrong, expected {len(triples)}")
        if f"homaloidal: {full_rank}" not in lines:
            problems.append(f"homaloidal count wrong, expected {full_rank}")
    elif name != "certify_twisted_default":
        raise ValueError(f"unknown cli command {name!r}")
    return problems


def _check_report(stdout, degree, homaloidal, histogram=None, sizes=None):
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["output is not a JSON report"]
    problems = []
    if report["degree"] != degree or report["homaloidal"] != homaloidal:
        problems.append(f"degree {report['degree']} homaloidal "
                        f"{report['homaloidal']}, expected {degree} {homaloidal}")
    got = {int(k): v for k, v in report["fiber_histogram"].items()}
    if histogram is not None and got != histogram:
        problems.append(f"histogram {got}, expected {histogram}")
    if sizes is not None and not set(got) <= sizes:
        problems.append(f"fiber sizes {sorted(got)} not within {sorted(sizes)}")
    return problems
