"""Dominance and degree of a rational map by fiber counting over P^n(F_p).

Every point of P^n(F_p) is written with its first nonzero coordinate
normalized to 1, enumerated in blocks by the position of that pivot, and
pushed through the map in vectorized chunks.  Inside a block the last
coordinate x_n varies fastest, so every chunk (a multiple of p points) is
a grid of prefixes (x_0..x_{n-1}) times the p values of x_n: each
component f_j = sum_k g_{j,k}(x_0..x_{n-1}) x_n^k is evaluated once per
prefix as the coefficients g_{j,k}, then expanded over x_n by Horner's
rule.  Random sample points have no such grid and are evaluated row by
row.  _normalized_keys turns each image row into its index in
P^n(F_p) (pivot block, then the free digits: 0..projective_size(n, p) - 1,
and -1 for a base row); that index is the only encoding of a point.
Exhaustive mode counts the fiber of every image point in one dense int32
array indexed by it and reads the degree off the fiber-size histogram;
sampled mode picks seeded random targets, then counts their preimages in
one pass over the domain, indexing only the rows that pass a boolean table
over the targets' coordinate ratios (y_1/y_0, y_2/y_0); a dropped row
provably hits no target (scan_sampled).

Birationality proxy: a map defined over Q that is birational stays
birational mod all but finitely many primes, so a generic fiber of size 1
at two independent primes is strong evidence of degree 1.  Thresholds are
explicit knobs documented on the functions; bad primes surface as errors,
never as silently different answers.
"""

from __future__ import annotations

import collections
import functools
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arrangement import LinearFormProduct
from .errors import InconsistencyError, ReductionError, ResourceBoundError
from .fields import PrimeField
from .polar import moving_part
from .poly import exact_rank

# exhaustive mode holds one int32 fiber count per domain point (the quadric
# in P^3 at p=577, 1.92e8 points, peaks at 845 MiB, 4.6 bytes/pt) and
# refuses 2^31 points whatever the bound; sampled mode streams in constant
# memory and can afford more
DEFAULT_MAX_DOMAIN = 200_000_000
SAMPLED_MAX_DOMAIN = 2_000_000_000
_CHUNK = 1 << 20

# An image point counts toward the degree estimate only if its fiber size
# is shared by at least this fraction of the image: special loci (e.g. a
# contracted hyperplane) occupy ~1/p of the image and fall well below it,
# while every Frobenius class of a finite map sits well above it.
_DEGREE_IMAGE_NUM, _DEGREE_IMAGE_DEN = 5, 1000

# Exhaustive homaloidal knob: at least 90% of non-base domain points must
# sit in fibers of size 1.  Sampled knob: at least 75% of targets (random
# targets land on contracted loci with probability ~(n+1)/p, so the
# exhaustive knob would misfire at p=31).
_EXHAUSTIVE_SIZE1_NUM, _EXHAUSTIVE_SIZE1_DEN = 9, 10
_SAMPLED_SIZE1_NUM, _SAMPLED_SIZE1_DEN = 3, 4


@dataclass
class DegreeReport:
    p: int
    mode: str                    # "exhaustive" or "sample"
    seed: int | None
    targets: int | None
    domain_size: int
    base_points: int
    image_size: int
    fiber_histogram: dict        # fiber size -> count of image points
    degree: int
    dominant: bool
    homaloidal: bool


def projective_size(n, p):
    return (p ** (n + 1) - 1) // (p - 1)


def _component_tables(rational_map, p):
    """Reduce the components mod p into (exponent rows, coefficient) tables.

    Every kernel user builds its tables here, so this is where primes too
    large for the int32 kernel are refused.
    """
    fld = PrimeField(p)
    if p >= 46341:
        # kernel arithmetic runs in int32; products of two residues and
        # Horner steps, (p-1)^2 + (p-1), must stay below 2^31
        raise ResourceBoundError(f"prime {p} too large for the 32-bit scan")
    tables = []
    for comp in rational_map.components:
        terms = sorted(comp.reduce_mod(fld).terms.items())
        tables.append(([e for e, _ in terms], [c for _, c in terms]))
    if not any(coeffs for _, coeffs in tables):
        raise ReductionError(f"every component vanishes mod {p}; pick another prime")
    return tables


def _chunk_points(n, p, pivot, lo, hi):
    """Points lo..hi of the pivot block: coords (0,..,0,1,free digits).

    The block for pivot position k holds p^(n-k) points, indexed by the
    base-p digits of the free coordinates.  The scans call it with n-1 to
    build the prefixes of a chunk (_block_images); the random-point
    evaluators build their own rows.  int32 is safe throughout the scan:
    _component_tables keeps p < 46341, so a product of two residues, and
    a Horner step (p-1)^2 + (p-1), stay below 2^31.
    """
    count = hi - lo
    coords = np.zeros((count, n + 1), dtype=np.int32)
    coords[:, pivot] = 1
    idx = np.arange(lo, hi, dtype=np.int64)
    for slot in range(n, pivot, -1):
        coords[:, slot] = idx % p
        idx //= p
    return coords


def _evaluate_images(tables, coords, p):
    count, nvars = coords.shape
    images = np.zeros((count, len(tables)), dtype=np.int32)
    power_cache = {}
    # terms are < p each: after this many the int32 sum must be reduced
    terms_per_reduction = (2 ** 31 - 1) // (p - 1) - 1

    def power_column(v, e):
        key = (v, e)
        if key not in power_cache:
            if e == 1:
                power_cache[key] = coords[:, v]
            else:
                power_cache[key] = pow_mod_array(coords[:, v], e, p)
        return power_cache[key]

    for j, (exps, coeffs) in enumerate(tables):
        if not coeffs:
            continue
        acc = images[:, j]
        for t, (e, c) in enumerate(zip(exps, coeffs), 1):
            term = None
            for v, k in enumerate(e):
                if k:
                    col = power_column(v, k)
                    term = col if term is None else term * col % p
            if term is None:
                term = np.full(count, c, dtype=np.int32)
            elif c != 1:
                term = term * np.int32(c) % p
            acc += term
            if t % terms_per_reduction == 0:
                np.mod(acc, p, out=acc)
        np.mod(acc, p, out=acc)
    return images


def pow_mod_array(column, e, p):
    result = np.ones_like(column)
    base = column
    while e:
        if e & 1:
            result = result * base % p
        e >>= 1
        if e:
            base = base * base % p
    return result


@functools.lru_cache(maxsize=None)
def _inverse_table(p):
    return np.array([0] + [pow(v, p - 2, p) for v in range(1, p)],
                    dtype=np.int32)


def _normalized_keys(images, p):
    """(index of each image row in P^n(F_p), base count) for an image block.

    A row with pivot k (its first nonzero coordinate) is scaled so that
    c_k = 1; its index is the size of the blocks of smaller pivot,
    projective_size(n, p) - projective_size(n - k, p), plus the free
    digits sum_{j>k} c_j p^(j-k-1).  This numbers the points of P^n(F_p)
    0..projective_size(n, p) - 1.  Base rows (image identically zero) get
    -1, so callers drop or ignore them with index >= 0.

    A Horner pass over c_n..c_1 gives S = sum_{j>=1} c_j p^(j-1), which is
    the index of a pivot-0 row (about (p-1)/p of the rows); a row with
    pivot k >= 1 has S = p^(k-1) + p^k * (free digits).  Indices are int32
    while P^n(F_p) has fewer than 2^31 points, which covers every
    exhaustive scan, and int64 up to 2^63 points; S stays below p^n.
    """
    n = images.shape[1] - 1
    size = projective_size(n, p)
    if size >= 2 ** 63:
        raise ResourceBoundError(
            f"P^{n}(F_{p}) has {size} points, past the 64-bit point index")
    dtype = np.int32 if size < 2 ** 31 else np.int64
    pivots = np.argmax(images != 0, axis=1)
    pivot_values = np.take_along_axis(images, pivots[:, None], axis=1)[:, 0]
    scale = _inverse_table(p)[pivot_values]
    index = np.zeros(len(images), dtype=dtype)
    for j in range(n, 0, -1):
        index *= p
        index += images[:, j] * scale % p
    moved = np.flatnonzero(pivots)
    if moved.size:
        k = pivots[moved]
        starts = np.array([size - projective_size(n - i, p)
                           for i in range(n + 1)], dtype=dtype)
        powers = np.array([p ** i for i in range(n + 1)], dtype=dtype)
        index[moved] = starts[k] + index[moved] // powers[k]
    base = pivot_values == 0
    base_points = int(base.sum())
    if base_points:
        index[base] = -1
    return index, base_points


def _block_tasks(n, p):
    """(pivot, lo, hi) chunks tiling every pivot block once.

    A chunk holds a multiple of p points (at least p, at most _CHUNK when
    _CHUNK >= p), so below the last pivot lo and hi are multiples of p and
    a chunk is whole rows of the x_n grid; the last block is one point.
    """
    step = max(p, _CHUNK // p * p)
    return [(pivot, lo, min(lo + step, p ** (n - pivot)))
            for pivot in range(n + 1)
            for lo in range(0, p ** (n - pivot), step)]


def _split_tables(tables, n):
    """Split each component by the power of x_n, for _block_images.

    Returns (prefix tables, powers): prefix tables are _component_tables
    rows over x_0..x_{n-1}, one per (component j, power k) that occurs,
    holding g_{j,k}; powers[j] maps each such k to its prefix table.
    """
    prefix_tables, powers = [], []
    for exps, coeffs in tables:
        by_power = {}
        for e, c in zip(exps, coeffs):
            rows = by_power.setdefault(e[n], ([], []))
            rows[0].append(e[:n])
            rows[1].append(c)
        powers.append({})
        for k in sorted(by_power):
            powers[-1][k] = len(prefix_tables)
            prefix_tables.append(by_power[k])
    return prefix_tables, powers


def _block_images(split, n, p, pivot, lo, hi):
    """Images of points lo..hi of a pivot block, one row per point.

    Below the last pivot the chunk is (hi - lo) / p prefixes times the p
    values t of x_n: the g_{j,k} are evaluated once per prefix, then each
    component is expanded over t by Horner's rule with one reduction per
    step (acc < p, so acc * t + g <= (p-1)^2 + (p-1) < 2^31).  The last
    block, the single point (0,..,0,1), is a zero prefix at t = 1.
    """
    prefix_tables, powers = split
    if pivot == n:
        prefixes = np.zeros((1, n), dtype=np.int32)
        last = np.ones(1, dtype=np.int32)
    else:
        prefixes = _chunk_points(n - 1, p, pivot, lo // p, hi // p)
        last = np.arange(p, dtype=np.int32)
    values = _evaluate_images(prefix_tables, prefixes, p)
    # component-major, so each expansion runs on contiguous memory; the
    # transpose returned is the usual (points, components) view
    images = np.empty((len(powers), len(prefixes), len(last)), dtype=np.int32)
    for acc, component in zip(images, powers):
        if not component:
            acc[:] = 0
            continue
        top = max(component)
        if top == 0:
            acc[:] = values[:, component[0], None]
            continue
        np.multiply(values[:, component[top], None], last, out=acc)
        for k in range(top - 1, -1, -1):
            if k in component:
                acc += values[:, component[k], None]
            acc %= p
            if k:
                acc *= last
    return images.reshape(len(powers), -1).T


def _exhaustive_chunk(args):
    split, n, p, pivot, lo, hi = args
    index, base = _normalized_keys(_block_images(split, n, p, pivot, lo, hi), p)
    if base:
        index = index[index >= 0]
    return index, base


def _ratio_table(target_index, n, p):
    """Boolean prefilter over the ratios (y_1/y_0, y_2/y_0) of the targets.

    A point y hits a target t with t_0 != 0 only if y_0 != 0 and its
    ratios equal (t_1, t_2).  Such a target has pivot 0, so its index is
    below p^n and its digits 0 and 1 are t_1 and t_2.  Entry r_1 + p*r_2
    is set for each such target; with one ratio (n = 1, or p^2 above 2^20,
    where 64 targets fill at most 64/p of the ratios anyway) the table has
    p entries, indexed by r_1.  Rows with y_0 = 0, which include every
    base row and every preimage of a target with t_0 = 0, are kept by
    _sampled_chunk whatever the table says.
    """
    size = p * p if n >= 2 and p * p <= 1 << 20 else p
    table = np.zeros(size, dtype=bool)
    table[target_index[target_index < p ** n] % size] = True
    return table


def _sampled_chunk(args):
    split, n, p, pivot, lo, hi, target_index, table = args
    images = _block_images(split, n, p, pivot, lo, hi)
    # the prefilter drops only rows whose ratios no target has; the full
    # index comparison below stays the only hit test.  Products of two
    # residues stay below p^2 < 2^31, the ratio index below the table size
    scale = _inverse_table(p)[images[:, 0]]
    ratio = images[:, 1] * scale % p
    if table.size > p:
        ratio += images[:, 2] * scale % p * p
    keep = table[ratio]
    keep |= images[:, 0] == 0
    index, base = _normalized_keys(images[keep], p)
    # target indices are >= 0, so base rows (-1) never register a hit
    positions = np.searchsorted(target_index, index)
    positions[positions == len(target_index)] = 0
    hits = target_index[positions] == index
    counts = np.bincount(positions[hits], minlength=len(target_index))
    return counts, base


def _scan_workers(workers, domain):
    """Worker processes for a scan: workers (None means 1), except that a
    domain of one chunk runs in-process: starting a process pool costs
    more than such a scan."""
    workers = 1 if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return workers if domain > _CHUNK else 1


def _run_tasks(fn, args_list, workers):
    # a fork pool starts all its processes at the first submit: never more
    # than there are tasks
    workers = min(workers, len(args_list))
    if workers <= 1:
        for args in args_list:
            yield fn(args)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, args_list, chunksize=1)


def _check_domain(n, p, max_domain):
    domain = projective_size(n, p)
    if domain > max_domain:
        raise ResourceBoundError(
            f"P^{n}(F_{p}) has {domain} points, over the bound {max_domain}")
    return domain


def _degree_estimate(histogram, image_size, p):
    """Largest fiber size carried by a non-negligible share of the image.

    A finite map of degree d splits its generic fibers into Frobenius
    classes, so every size 1..d shows up on a constant fraction of the
    image; contracted subvarieties instead hit few image points with
    fibers of size at least p-1.  Sizes of p-1 or more are therefore
    never counted as generic, which assumes p-1 exceeds the true degree
    (pick a larger prime otherwise).
    """
    threshold = max(2, -(-image_size * _DEGREE_IMAGE_NUM // _DEGREE_IMAGE_DEN))
    eligible = [size for size, count in histogram.items()
                if size < p - 1 and count >= threshold]
    if eligible:
        return max(eligible)
    # degenerate histograms: fall back to the mode, smaller size on ties
    best = max(histogram.items(), key=lambda item: (item[1], -item[0]))
    return best[0]


def scan_exhaustive(rational_map, p, max_domain=DEFAULT_MAX_DOMAIN, workers=None):
    """Fiber histogram of the map over every point of P^n(F_p).

    dominant: image covers at least p^n - 5*p^(n-1) points (all integers,
    no rounding).  That bar is calibrated for degree-1 maps, whose image
    misses only base and contracted loci; a finite map of degree d > 1
    hits a constant fraction of rational points and reads as not dominant
    here (use dominance_by_span on its images for the geometric answer).
    homaloidal: dominant, degree estimate 1, and at least 90% of non-base
    domain points sit in size-1 fibers.
    """
    n = rational_map.n
    # building the tables refuses a composite or too large p first
    tables = _component_tables(rational_map, p)
    domain = _check_domain(n, p, max_domain)
    if domain >= 2 ** 31:
        raise ResourceBoundError(
            f"P^{n}(F_{p}) has {domain} points, past the int32 fiber counts")
    workers = _scan_workers(workers, domain)
    split = _split_tables(tables, n)
    tasks = _block_tasks(n, p)
    args_list = [(split, n, p, pivot, lo, hi) for pivot, lo, hi in tasks]
    fibers = np.zeros(domain, dtype=np.int32)
    # a task holds at least p points, which can exceed a small _CHUNK
    ones = np.ones(max(hi - lo for _, lo, hi in tasks), dtype=np.int32)
    base_points = 0
    for index, base in _run_tasks(_exhaustive_chunk, args_list, workers):
        # np.add.at would wrap a negative index silently
        if index.size and (index.min() < 0 or index.max() >= domain):
            raise InconsistencyError(
                f"an image index mod {p} lies outside P^{n}: indexing is broken")
        # numpy >= 1.25 runs ufunc.at on matching int32 arrays in a fast
        # path; a scalar 1 takes the slow generic loop
        np.add.at(fibers, index, ones[:index.size])
        base_points += base
    tally = collections.Counter()
    for lo in range(0, domain, _CHUNK):
        # slice by slice: a whole-array unique or bincount would copy it
        sizes, counts = np.unique(fibers[lo:lo + _CHUNK], return_counts=True)
        tally.update(dict(zip(sizes.tolist(), counts.tolist())))
    del tally[0]
    histogram = dict(sorted(tally.items()))
    image_size = sum(histogram.values())
    if image_size == 0:
        raise ReductionError(f"no points survive outside the base locus mod {p}")
    mapped = sum(s * c for s, c in histogram.items())
    if base_points + mapped != domain:
        raise InconsistencyError(
            f"accounting failed: {base_points} base + {mapped} mapped != {domain}")
    degree = _degree_estimate(histogram, image_size, p)
    dominant = image_size >= p ** n - 5 * p ** (n - 1)
    size1 = histogram.get(1, 0)
    homaloidal = (dominant and degree == 1 and
                  _EXHAUSTIVE_SIZE1_DEN * size1 >=
                  _EXHAUSTIVE_SIZE1_NUM * (domain - base_points))
    return DegreeReport(
        p=p, mode="exhaustive", seed=None, targets=None,
        domain_size=domain, base_points=base_points, image_size=image_size,
        fiber_histogram=histogram, degree=degree, dominant=dominant,
        homaloidal=homaloidal)


def _candidates(seed, p, width, rows):
    """Seeded uniform rows over F_p: batches of `rows`, at most 200 batches.

    Coordinates are drawn row after row, in the order one-at-a-time
    drawing would use, so a seed picks the same points in any batching.
    """
    rng = random.Random(seed)
    for _ in range(200):
        yield np.array([rng.randrange(p) for _ in range(rows * width)],
                       dtype=np.int64).reshape(rows, width)


def _sample_targets(tables, nvars, p, targets, seed):
    """Image indices and image rows of seeded random non-base domain points."""
    indices, rows = [], []
    found = 0
    for coords in _candidates(seed, p, nvars, targets):
        images = _evaluate_images(tables, coords.astype(np.int32), p)
        batch, _ = _normalized_keys(images, p)
        usable = coords.any(axis=1) & (batch >= 0)
        indices.append(batch[usable])
        rows.append(images[usable])
        found += int(usable.sum())
        if found >= targets:
            return (np.concatenate(indices)[:targets],
                    np.concatenate(rows)[:targets])
    raise ReductionError(
        f"could not find {targets} non-base sample points mod {p}")


def scan_sampled(rational_map, p, targets=64, seed=0,
                 max_domain=SAMPLED_MAX_DOMAIN, workers=None):
    """Fiber sizes of seeded random targets, counted in one domain pass.

    The histogram counts distinct sampled image points by fiber size, and
    the degree estimate reads it with _degree_estimate, the rule of
    exhaustive mode; dominance is the full-rank span test on the sampled
    images; homaloidal additionally requires degree 1 and 75% of targets
    in size-1 fibers.  Every target is the image of a sampled point, so a
    target counted with an empty fiber raises InconsistencyError.

    Only rows that pass the ratio prefilter (_ratio_table, built once per
    scan) are indexed and matched.  The filter is exact: a point and a
    target are equal in P^n only if they vanish at the same coordinates
    and have the same ratios, so a dropped row (y_0 != 0, ratios of no
    target with t_0 != 0) cannot hit any target.  Rows with y_0 = 0,
    among them every base row, are all kept, so base_points stays exact;
    the full-index comparison remains the only hit test, and a filter that
    lost a target's ratio would leave that target's fiber empty and raise.
    """
    n = rational_map.n
    tables = _component_tables(rational_map, p)
    domain = _check_domain(n, p, max_domain)
    if targets < n + 2:
        raise ValueError(f"need at least n+2 = {n + 2} targets for the span test")
    workers = _scan_workers(workers, domain)
    per_target, image_rows = _sample_targets(
        tables, rational_map.nvars, p, targets, seed)
    target_index, target_of = np.unique(per_target, return_inverse=True)
    split = _split_tables(tables, n)
    table = _ratio_table(target_index, n, p)
    args_list = [(split, n, p, pivot, lo, hi, target_index, table)
                 for pivot, lo, hi in _block_tasks(n, p)]
    parts = list(_run_tasks(_sampled_chunk, args_list, workers))
    fiber_counts = sum(counts for counts, _ in parts)
    base_points = sum(base for _, base in parts)
    if not fiber_counts.all():
        raise InconsistencyError(
            f"{int((fiber_counts == 0).sum())} sampled image points have no "
            f"preimage in the scan mod {p}: enumeration or indexing is broken")
    sizes, size_counts = np.unique(fiber_counts, return_counts=True)
    histogram = {int(s): int(c) for s, c in zip(sizes, size_counts)}
    degree = _degree_estimate(histogram, len(target_index), p)
    dominant = dominance_by_span(image_rows.tolist(), p)
    size1_targets = int((fiber_counts[target_of] == 1).sum())
    homaloidal = (dominant and degree == 1 and
                  _SAMPLED_SIZE1_DEN * size1_targets >=
                  _SAMPLED_SIZE1_NUM * targets)
    return DegreeReport(
        p=p, mode="sample", seed=seed, targets=targets,
        domain_size=domain, base_points=base_points,
        image_size=int(len(target_index)), fiber_histogram=histogram,
        degree=degree, dominant=dominant, homaloidal=homaloidal)


def scan_primes(rational_map, primes, mode="exhaustive", targets=64, seed=0,
                max_domain=None, workers=None):
    """One scan per prime in the given mode; the verdicts must agree.

    Returns the DegreeReports in the order of primes.  dominant and
    homaloidal must match at every prime.  degree is compared only when it
    is below p-1 at every prime, i.e. a generic fiber size: larger values
    are _degree_estimate's fallback, which for a non-dominant cone grows
    with p.  max_domain None takes the mode's default bound.  A
    disagreement raises InconsistencyError.
    """
    if not primes:
        raise ValueError("need at least one prime")
    if mode == "exhaustive":
        bound = DEFAULT_MAX_DOMAIN if max_domain is None else max_domain
        reports = [scan_exhaustive(rational_map, p, bound, workers)
                   for p in primes]
    elif mode == "sample":
        bound = SAMPLED_MAX_DOMAIN if max_domain is None else max_domain
        reports = [scan_sampled(rational_map, p, targets, seed, bound, workers)
                   for p in primes]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    first = reports[0]
    compare_degree = all(r.degree < r.p - 1 for r in reports)
    for r in reports[1:]:
        if (r.dominant, r.homaloidal) != (first.dominant, first.homaloidal) or \
                (compare_degree and r.degree != first.degree):
            raise InconsistencyError(
                f"verdicts disagree between p={first.p} and p={r.p}")
    return reports


def dominance_by_span(points, p):
    """True iff the given image points span the whole dual space.

    The contrapositive of the cone criterion: an image inside a hyperplane
    has coordinate vectors of deficient rank.  Needs at least n+2 points
    to be meaningful evidence of dominance.
    """
    coord_rows = [list(pt) for pt in points]
    if not coord_rows:
        raise ValueError("no image points given")
    nvars = len(coord_rows[0])
    if len(coord_rows) < nvars + 1:
        raise ValueError(f"need at least n+2 = {nvars + 1} points, got {len(coord_rows)}")
    fld = PrimeField(p)
    return exact_rank(coord_rows, fld) == nvars


def check_contraction(F, i, p, samples=100, seed=0):
    """True iff sampled points of {L_i = 0} all map to the dual point of L_i.

    Points are drawn from the hyperplane avoiding the other factors' zero
    sets, and the map evaluated is the moving part of the polar system of
    F (for square-free F that is the polar map itself; for higher
    multiplicities the raw partials all vanish on the hyperplane and only
    the moving part sees it).
    """
    if not isinstance(F, LinearFormProduct):
        raise TypeError("check_contraction takes a LinearFormProduct")
    if not 0 <= i <= F.r:
        raise IndexError(f"form index {i} out of range")
    tables = _component_tables(moving_part(F).moving, p)
    forms = np.array([[int(c) % p for c in form] for form in F.forms],
                     dtype=np.int64)
    row = forms[i]
    if not row.any():
        raise ReductionError(f"form {i} vanishes mod {p}; pick another prime")
    pivot = int(np.flatnonzero(row)[0])
    dual = _normalized_keys(row[None, :], p)[0][0]
    others = np.delete(forms, i, axis=0)
    free_slots = [t for t in range(F.nvars) if t != pivot]
    minus_inv_pivot = p - pow(int(row[pivot]), -1, p)
    found = 0
    for free in _candidates(seed, p, len(free_slots), samples):
        coords = np.zeros((samples, F.nvars), dtype=np.int64)
        coords[:, free_slots] = free
        coords[:, pivot] = coords @ row % p * minus_inv_pivot % p
        usable = free.any(axis=1) & (coords @ others.T % p != 0).all(axis=1)
        index, _ = _normalized_keys(
            _evaluate_images(tables, coords.astype(np.int32), p), p)
        index = index[usable & (index >= 0)][:samples - found]
        if (index != dual).any():
            return False
        found += len(index)
        if found == samples:
            return True
    raise ReductionError(
        f"hyperplane {i} yields no usable sample points mod {p}; "
        "retry with a larger prime")
