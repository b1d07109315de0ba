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
and -1 for a base row); that index is the only encoding of a point.  It
recurses on the pivot: rows with y_0 != 0 get their index from one Horner
pass over the ratios y_j / y_0, and only the ~1/p rows with y_0 = 0 go on
to columns 1..n, as points of P^(n-1) after the p^n of pivot 0.
Exhaustive mode counts the fiber of every image point in one dense int32
array indexed by it and reads the degree off the fiber-size histogram.
Sampled mode picks seeded random targets, then counts their preimages in
one pass over the domain.  Per chunk it first computes only the head,
w <= 3 components chosen once per scan with the lowest powers of x_n
(_head_columns), and looks each head up in a table of the heads a
target's preimage can have: c * head(t) for every target t and c in F_p,
indexed by the raw digits of the head while p^w <= 2^20, and by the
head's point of P^(w-1) past that.  A head free of x_n is the same along
a grid row, so it is evaluated and looked up once per prefix, and a kept
prefix keeps its whole row (the determinantal cubic, head (2, 4, 5),
keeps 6% of them); any other head is expanded over the grid and looked
up point by point.  Only what is kept gets its other components
evaluated and expanded, an index and a match; a dropped row provably
hits no target (scan_sampled).

Birationality proxy: a map defined over Q that is birational stays
birational mod all but finitely many primes, so a generic fiber of size 1
at two independent primes is strong evidence of degree 1.  Thresholds are
explicit knobs documented on the functions; bad primes surface as errors,
never as silently different answers.
"""

from __future__ import annotations

import collections
import functools
import os
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
# in P^3 at p=577, 1.92e8 points, peaks at 808 MiB, 4.4 bytes/pt); sampled
# mode streams in constant memory and can afford more, but first draws its
# targets as Python ints.  Scans read these bounds when they start, and
# both refuse 2^31 points whatever the bound (_check_domain).
DEFAULT_MAX_DOMAIN = 200_000_000
SAMPLED_MAX_DOMAIN = 2_000_000_000
SAMPLED_MAX_TARGETS = 1 << 16
DEFAULT_PRIMES = (101,)
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
    build the prefixes of a chunk (_block_grid); the random-point
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


# elements per quotient block of _reduce: 256 KiB of int32, cache-resident
_REDUCE_BLOCK = 1 << 16


def _reduce(values, p):
    """values % p in place for a contiguous integer array; returns it.

    numpy divides an integer array by a scalar with a multiply and shift
    but takes a remainder with one hardware division per element, so
    values - (values // p) * p, a block at a time through one small
    quotient buffer, runs in about a quarter of the time of np.remainder
    (int32, 2^20 elements, numpy 2.4).
    """
    if not values.flags.c_contiguous:
        # reshape would reduce a copy and leave values as they were
        raise ValueError("_reduce needs a contiguous array")
    flat = values.reshape(-1)
    quotient = np.empty(min(flat.size, _REDUCE_BLOCK), dtype=flat.dtype)
    for lo in range(0, flat.size, _REDUCE_BLOCK):
        block = flat[lo:lo + _REDUCE_BLOCK]
        q = quotient[:block.size]
        np.floor_divide(block, p, out=q)
        q *= p
        block -= q
    return values


def _normalized_keys(images, p):
    """(int32 index of each image row in P^n(F_p), base count) for a block.

    A row with pivot k (its first nonzero coordinate) is scaled so that
    c_k = 1; its index is the size of the blocks of smaller pivot,
    projective_size(n, p) - projective_size(n - k, p), plus the free
    digits sum_{j>k} c_j p^(j-k-1).  This numbers the points of P^n(F_p)
    0..projective_size(n, p) - 1.  Base rows (image identically zero) get
    -1, so callers drop or ignore them with index >= 0.  _pivot_index
    computes it by recursion on the pivot.  A P^n(F_p) of 2^31 points or
    more has no int32 index and is refused (_check_domain).
    """
    _check_domain(images.shape[1] - 1, p)
    return _pivot_index(images, p)


def _pivot_index(images, p):
    """_normalized_keys by recursion on the pivot: (index, base count).

    A row with y_0 != 0 has pivot 0 and index sum_{j>=1} (y_j / y_0) p^(j-1),
    one Horner pass over y_n..y_1 scaled by 1/y_0.  The rows with y_0 = 0
    (about 1/p of them) are points of P^(n-1) in columns 1..n, after the
    p^n points of pivot 0; rows zero all the way down are base rows.  The
    caller keeps P^n(F_p) under 2^31 points, so every step fits in int32.
    """
    n = images.shape[1] - 1
    scale = np.take(_inverse_table(p), images[:, 0])
    index = np.zeros(len(images), dtype=np.int32)
    # one reused product buffer: this loop runs on whole exhaustive chunks
    term = np.empty(len(images), dtype=np.int32)
    for j in range(n, 0, -1):
        index *= p
        index += _reduce(np.multiply(images[:, j], scale, out=term), p)
    rest = np.flatnonzero(scale == 0)
    if not rest.size:
        return index, 0
    if n == 0:
        index[rest] = -1
        return index, len(rest)
    sub, base = _pivot_index(images[rest, 1:], p)
    index[rest] = np.where(sub < 0, sub, sub + p ** n)
    return index, base


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


def _block_grid(n, p, pivot, lo, hi):
    """(prefixes x_0..x_{n-1}, the values t of x_n) of a chunk.

    Below the last pivot the chunk is (hi - lo) / p prefixes times the p
    values of x_n; the last block, the single point (0,..,0,1), is a zero
    prefix at t = 1.  Row r of the chunk is prefix r // len(t) at
    t[r % len(t)].
    """
    if pivot == n:
        return np.zeros((1, n), dtype=np.int32), np.ones(1, dtype=np.int32)
    return (_chunk_points(n - 1, p, pivot, lo // p, hi // p),
            np.arange(p, dtype=np.int32))


def _expand(coeffs, powers, t, p, out):
    """out[j] = sum_k g_{j,k} t^k mod p for the components in powers.

    coeffs[..., i] is the column of prefix table i, broadcast against t:
    (prefixes, 1) against the values of x_n for a grid, or (rows, 1)
    against each row's own t for gathered rows.  out holds one contiguous
    array per component.  Horner's rule with one reduction per step:
    acc < p, so acc * t + g <= (p-1)^2 + (p-1) < 2^31.
    """
    for acc, component in zip(out, powers):
        if not component:
            acc[:] = 0
            continue
        top = max(component)
        if top == 0:
            acc[:] = coeffs[..., component[0]]
            continue
        np.multiply(coeffs[..., component[top]], t, out=acc)
        for k in range(top - 1, -1, -1):
            if k in component:
                acc += coeffs[..., component[k]]
            _reduce(acc, p)
            if k:
                acc *= t


def _block_images(split, n, p, pivot, lo, hi):
    """Images of points lo..hi of a pivot block, one row per point.

    The g_{j,k} are evaluated once per prefix of the chunk (_block_grid),
    then every component is expanded over the grid of x_n values (_expand).
    """
    prefixes, last = _block_grid(n, p, pivot, lo, hi)
    values = _evaluate_images(split[0], prefixes, p)
    powers = split[1]
    # component-major, so each expansion runs on contiguous memory; the
    # transpose returned is the usual (points, components) view
    images = np.empty((len(powers), len(values), len(last)), dtype=np.int32)
    _expand(values[:, None, :], powers, last, p, images)
    return images.reshape(len(powers), -1).T


def _exhaustive_chunk(args):
    split, n, p, pivot, lo, hi = args
    index, base = _normalized_keys(_block_images(split, n, p, pivot, lo, hi), p)
    if base:
        index = index[index >= 0]
    return index, base


# the most entries of a head table (1 MiB of bool, sent to every task)
_HEAD_TABLE_ENTRIES = 1 << 20


def _head_width(n, p):
    # 3 while the projective layout of P^2(F_p) fits the table, else 2
    return min(n + 1, 3 if projective_size(2, p) < _HEAD_TABLE_ENTRIES else 2)


def _head_columns(powers, p):
    """The components that make the head of a sampled scan, in head order.

    The first _head_width(n, p) components by the top power of x_n they
    hold (powers from _split_tables), then by index, zero components last:
    a head free of x_n is looked up once per prefix, and a zero column
    filters nothing.  scan_sampled builds the head table and _sampled_chunk
    reads the heads on the columns this gives.
    """
    order = sorted(range(len(powers)),
                   key=lambda j: (not powers[j], max(powers[j], default=0), j))
    return order[:_head_width(len(powers) - 1, p)]


def _head_index(head, p):
    """Head table index of each head, given as columns (w, rows) of int32.

    Raw layout while p^w fits the table: the digits (y_0 p + y_1) p + y_2,
    which needs no division.  Past that, the projective layout: the
    head's index in P^(w-1)(F_p) (_pivot_index), and -1, the table's
    trailing entry, for the zero head.
    """
    if p ** len(head) <= _HEAD_TABLE_ENTRIES:
        index = head[0].copy()
        for column in head[1:]:
            index *= p
            index += column
        return index
    return _pivot_index(head.T, p)[0]


def _ratio_table(target_rows, columns, p):
    """Boolean prefilter over the heads of the targets' image rows.

    The head of a row is its coordinates on the head columns (_head_columns),
    w of them.  A row can equal a target t in P^n only as c * t, so its head
    is one of c * head(t), c in F_p, on any set of columns; c = 0 gives the
    zero head, which every base row has.  The raw layout (_head_index) sets
    all p multiples of every target's head, at most _HEAD_TABLE_ENTRIES
    entries; the projective layout sets one entry per target head, a point
    of P^(w-1)(F_p), and the trailing entry for the zero head.
    """
    width = len(columns)
    heads = np.ascontiguousarray(target_rows[:, columns].T, dtype=np.int32)
    if p ** width <= _HEAD_TABLE_ENTRIES:
        table = np.zeros(p ** width, dtype=bool)
        for c in range(p):
            table[_head_index(heads * np.int32(c) % p, p)] = True
        return table
    table = np.zeros(projective_size(width - 1, p) + 1, dtype=bool)
    table[_head_index(heads, p)] = True
    table[-1] = True
    return table


def _prefix_values(split, components, prefixes, p):
    """The g_{j,k} of the given components at each prefix.

    One column per prefix table, as _block_images evaluates them; those of
    the other components are left 0 and cost nothing.
    """
    prefix_tables, powers = split
    used = {i for j in components for i in powers[j].values()}
    return _evaluate_images(
        [table if i in used else ([], []) for i, table in enumerate(prefix_tables)],
        prefixes, p)


def _sampled_chunk(args):
    split, n, p, pivot, lo, hi, target_index, table = args
    powers = split[1]
    columns = _head_columns(powers, p)
    rest = [j for j in range(n + 1) if j not in columns]
    prefixes, last = _block_grid(n, p, pivot, lo, hi)
    # a head free of x_n is the same along a row of the grid: it is looked
    # up once per prefix (q = 1), else once per point (q = len(last))
    flat = not any(k for j in columns for k in powers[j])
    q = 1 if flat else len(last)
    head = np.empty((len(columns), len(prefixes), q), dtype=np.int32)
    _expand(_prefix_values(split, columns, prefixes, p)[:, None, :],
            [powers[j] for j in columns], last[:q], p, head)
    head = head.reshape(len(columns), -1)
    # the prefilter drops only heads no target has; only the kept rows get
    # their other components expanded, and the full index comparison below
    # stays the only hit test
    kept = np.flatnonzero(table[_head_index(head, p)])
    if flat:
        # a kept prefix keeps its whole row of the x_n grid
        values = _prefix_values(split, rest, prefixes[kept], p)
        t = last[None, :]
    else:
        # a kept point is one row, at its own value of x_n
        values = _prefix_values(split, rest, prefixes, p)[kept // q]
        t = last[kept % q][:, None]
    images = np.empty((n + 1, len(kept), t.shape[1]), dtype=np.int32)
    for i, j in enumerate(columns):
        images[j] = head[i, kept][:, None]
    _expand(values[:, None, :], [powers[j] for j in rest], t, p,
            [images[j] for j in rest])
    index, base = _normalized_keys(images.reshape(n + 1, -1).T, p)
    # target indices are >= 0, so base rows (-1) never register a hit
    positions = np.searchsorted(target_index, index)
    positions[positions == len(target_index)] = 0
    hits = target_index[positions] == index
    counts = np.bincount(positions[hits], minlength=len(target_index))
    return counts, base


def _check_workers(workers):
    """Refuse fewer than 1 worker process."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def _usable_cpus():
    """CPUs this process may run on: its affinity mask where the platform
    has one (taskset, cgroup cpusets), else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_tasks(fn, tables, n, p, workers, *extra):
    """fn((split, n, p, pivot, lo, hi, *extra)) for every chunk, in order.

    The one decision on processes: in-process for a domain of one chunk (a
    pool costs more than such a scan), else at most one per task (a fork
    pool starts all its processes at the first submit) and one per CPU the
    process may run on.
    """
    split = _split_tables(tables, n)
    args_list = [(split, n, p, pivot, lo, hi, *extra)
                 for pivot, lo, hi in _block_tasks(n, p)]
    if projective_size(n, p) <= _CHUNK:
        workers = 1
    workers = min(workers, len(args_list))
    if workers > 1:
        workers = min(workers, _usable_cpus())
    if workers <= 1:
        yield from map(fn, args_list)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, args_list, chunksize=1)


def _check_domain(n, p, bound=None):
    """|P^n(F_p)|, refused past the mode's bound, if one is given, and at
    2^31 points whatever the bound: point indices and fiber counts are int32."""
    domain = projective_size(n, p)
    if bound is not None and domain > bound:
        raise ResourceBoundError(
            f"P^{n}(F_{p}) has {domain} points, over the bound {bound}")
    if domain >= 2 ** 31:
        raise ResourceBoundError(
            f"P^{n}(F_{p}) has {domain} points, past the int32 point index")
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


def scan_exhaustive(rational_map, p, workers=1):
    """Fiber histogram of the map over every point of P^n(F_p).

    dominant: image covers at least p^n - 5*p^(n-1) points (all integers,
    no rounding).  That bar is calibrated for degree-1 maps, whose image
    misses only base and contracted loci; a finite map of degree d > 1
    hits a constant fraction of rational points and reads as not dominant
    here (use dominance_by_span on its images for the geometric answer).
    homaloidal: dominant, degree estimate 1, and at least 90% of non-base
    domain points sit in size-1 fibers.  Domain bound: DEFAULT_MAX_DOMAIN.
    """
    n = rational_map.n
    # building the tables refuses a composite or too large p first
    tables = _component_tables(rational_map, p)
    domain = _check_domain(n, p, DEFAULT_MAX_DOMAIN)
    _check_workers(workers)
    fibers = np.zeros(domain, dtype=np.int32)
    # a task holds at most max(p, _CHUNK) points, and no more than the domain
    ones = np.ones(min(domain, max(p, _CHUNK)), dtype=np.int32)
    base_points = 0
    for index, base in _run_tasks(_exhaustive_chunk, tables, n, p, workers):
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


def scan_sampled(rational_map, p, targets=64, seed=0, workers=1):
    """Fiber sizes of seeded random targets, counted in one domain pass.

    The histogram counts distinct sampled image points by fiber size, and
    the degree estimate reads it with _degree_estimate, the rule of
    exhaustive mode; dominance is the full-rank span test on the sampled
    images; homaloidal additionally requires degree 1 and 75% of targets
    in size-1 fibers.  Every target is the image of a sampled point, so a
    target counted with an empty fiber raises InconsistencyError.

    Only rows that pass the head prefilter (_ratio_table, built once per
    scan on the head columns) are expanded in full, indexed and matched.
    The filter is exact for any choice of head columns: a row equal to a
    target t in P^n is c * t for some c in F_p, so on those columns its
    head is c * head(t), which the table holds (the raw layout sets every
    multiple, the projective one the point head(t) and the zero head), and
    a dropped row cannot hit any target.  When no head column holds x_n,
    every row of a prefix's grid has that prefix's head, so the lookup per
    prefix keeps or drops the whole row, with the same verdict as the
    lookup per row.  The zero head, c = 0, is always kept, so every base
    row is and base_points stays exact; the full-index comparison remains
    the only hit test, and a filter that lost a target's head would leave
    that target's fiber empty and raise.
    """
    n = rational_map.n
    tables = _component_tables(rational_map, p)
    domain = _check_domain(n, p, SAMPLED_MAX_DOMAIN)
    if targets < n + 2:
        raise ValueError(f"need at least n+2 = {n + 2} targets for the span test")
    if targets > SAMPLED_MAX_TARGETS:
        raise ResourceBoundError(f"more than {SAMPLED_MAX_TARGETS} targets")
    _check_workers(workers)
    per_target, image_rows = _sample_targets(
        tables, rational_map.nvars, p, targets, seed)
    target_index, target_of = np.unique(per_target, return_inverse=True)
    columns = _head_columns(_split_tables(tables, n)[1], p)
    table = _ratio_table(image_rows, columns, p)
    parts = list(_run_tasks(_sampled_chunk, tables, n, p, workers,
                            target_index, table))
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


def scan_primes(rational_map, primes=DEFAULT_PRIMES, mode="exhaustive",
                targets=64, seed=0, workers=1):
    """One scan per prime in the given mode; the verdicts must agree.

    mode "exhaustive" runs scan_exhaustive, "sample" scan_sampled with
    targets and seed; the DegreeReports come back in the order of primes.
    dominant and homaloidal must match at every prime.  degree is compared
    only when it is below p-1 at every prime, i.e. a generic fiber size:
    larger values are _degree_estimate's fallback, which for a non-dominant
    cone grows with p.  A disagreement raises InconsistencyError.
    """
    if not primes:
        raise ValueError("need at least one prime")
    if mode == "exhaustive":
        scan = functools.partial(scan_exhaustive, workers=workers)
    elif mode == "sample":
        scan = functools.partial(scan_sampled, targets=targets, seed=seed,
                                 workers=workers)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    reports = [scan(rational_map, p) for p in primes]
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
    the moving part sees it).  An image row y is the dual point of the form
    a exactly when y != 0 and y * a_k = a * y_k mod p, k the pivot of a:
    rows are compared, nothing is indexed, so any size of P^n(F_p) works.
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
    others = np.delete(forms, i, axis=0)
    free_slots = [t for t in range(F.nvars) if t != pivot]
    minus_inv_pivot = p - pow(int(row[pivot]), -1, p)
    found = 0
    for free in _candidates(seed, p, len(free_slots), samples):
        coords = np.zeros((samples, F.nvars), dtype=np.int64)
        coords[:, free_slots] = free
        coords[:, pivot] = coords @ row % p * minus_inv_pivot % p
        usable = free.any(axis=1) & (coords @ others.T % p != 0).all(axis=1)
        images = _evaluate_images(tables, coords.astype(np.int32), p)
        images = images[usable & images.any(axis=1)][:samples - found]
        if (images * row[pivot] % p != row * images[:, [pivot]] % p).any():
            return False
        found += len(images)
        if found == samples:
            return True
    raise ReductionError(
        f"hyperplane {i} yields no usable sample points mod {p}; "
        "retry with a larger prime")
