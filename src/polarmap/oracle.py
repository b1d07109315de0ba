"""Dominance and degree of a rational map by fiber counting over P^n(F_p).

Every point of P^n(F_p) is written with its first nonzero coordinate
normalized to 1 and numbered by the position of that pivot, then by its
free digits, x_n lowest.  So every point but e_n = (0,..,0,1) is a prefix
(x_0..x_{n-1}), a point of P^(n-1)(F_p), times a value t of x_n, and its
index is the prefix's index times p plus t; e_n has the last index.  The
scans push the domain through the map in tasks, run one after the other
in the calling process, each the grid of a range of consecutive
prefixes, which may cross pivot blocks, times the p values of x_n: each
component f_j = sum_k g_{j,k}(x_0..x_{n-1}) x_n^k is evaluated once per
prefix as the coefficients g_{j,k}, then expanded over x_n by Horner's
rule.  The task that ends the range takes e_n on its own, its image read
off the g_{j,k}'s constant terms.  Random sample points have no grid:
their g_{j,k} are evaluated on their own x_0..x_{n-1} and expanded at
their own x_n, as a sampled task's gathered rows are (_row_images).
_normalized_keys turns each image row into its index in P^n(F_p) (pivot
block, then the free digits with x_n lowest, from 0 to
projective_size(n, p) - 1, and -1 for a base row); that index is the only
encoding of a point, and it is the point's position in the enumeration,
so under the identity a tile's points count into one contiguous run of
the fiber array.  It recurses on the pivot: rows with y_0 != 0 get their
index from one Horner pass over the ratios y_j / y_0, and only the ~1/p
rows with y_0 = 0 go on to columns 1..n, as points of P^(n-1) after the
p^n of pivot 0.
Exhaustive mode counts the fiber of every image point in one dense int32
array indexed by it: a task evaluates its g_{j,k} once, then expands,
keys and counts tiles of at most 2^16 points, cache-sized, into that
array, and the scan reads the degree off the fiber-size histogram, taken
a slice at a time.
Sampled mode picks seeded random targets, then counts their preimages in
one pass over the domain.  Per task it first computes only the head,
w <= 3 components chosen once per scan with the lowest powers of x_n
(_head_columns), and looks each head up in a table of the heads a
target's preimage can have: c * head(t) for every target t and c in F_p,
indexed by the raw digits of the head while p^w <= 2^20, and by the
head's point of P^(w-1) past that.  A head free of x_n is the same along
a grid row, so only its tables are evaluated on every prefix, it is
looked up once per prefix, and a kept prefix keeps its whole row (the
determinantal cubic, head (2, 4, 5), keeps 6% of them); any other head
is expanded over the grid from the g_{j,k} of every component, evaluated
once, and looked up point by point.  Only what is kept gets its full
image (_evaluate_images, then _expand_images, as exhaustive tiles do) and
an index; a dropped row provably hits no target (scan_sampled).  The
match is a binary search in the sorted target indices, reached only by
rows whose index has the low 16 bits of some target's (a 2^16-entry
bitmap built once per scan; 0.3% of the kept rows of the determinantal
cubic at p=31 pass it).

Every remainder mod p of the kernel goes through _reduce, in place.  It
skips numpy's per-element hardware division wherever the arrays are
large: remainders are taken as v - (v // p) * p, which numpy computes
with a multiply and shift, and digits the same way (_chunk_points).  The
evaluator adds each coefficient times monomial unreduced, reducing a
component's sum only every ~2^31 / p^2 terms (_evaluate_images).

Birationality proxy: a map defined over Q that is birational stays
birational mod all but finitely many primes, so a generic fiber of size 1
at two independent primes is strong evidence of degree 1.  The scans
measure; _judge alone decides degree, dominant and homaloidal, by the rules
stated there: degree is the largest fiber size held by two image points
within Bezout's bound D^n on a fiber's isolated points, and below p-1.
Bad primes surface as errors, never as silently different answers.
"""

from __future__ import annotations

import collections
import functools
import mmap
import random
from dataclasses import dataclass

import numpy as np

from .arrangement import LinearFormProduct
from .errors import InconsistencyError, ReductionError, ResourceBoundError
from .fields import is_prime, residue
from .polar import moving_part
from .poly import exact_rank

# exhaustive mode holds one int32 fiber count per domain point (the quadric
# in P^3 at p=577, 1.92e8 points, peaks at 772 MiB, 4.2 bytes/pt); sampled
# mode streams in constant memory and can afford more, but first draws its
# targets as Python ints.  Scans read these bounds when they start, and
# both refuse 2^31 points whatever the bound (_check_domain).
DEFAULT_MAX_DOMAIN = 200_000_000
SAMPLED_MAX_DOMAIN = 2_000_000_000
SAMPLED_MAX_TARGETS = 1 << 16
DEFAULT_PRIMES = (101,)
_CHUNK = 1 << 20

# the size-1 share bars of _judge, one per mode
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
    degree: int                  # generic fiber size; 0: none seen (_judge)
    dominant: bool
    homaloidal: bool


def projective_size(n, p):
    return (p ** (n + 1) - 1) // (p - 1)


def _component_tables(rational_map, p):
    """Reduce the components mod p, split by the power of x_n.

    Returns (prefix tables, powers): a prefix table is (exponent rows over
    x_0..x_{n-1}, coefficients), one per (component j, power k of x_n)
    that occurs, holding g_{j,k} where f_j = sum_k g_{j,k} x_n^k;
    powers[j] maps each such k to its prefix table, and a component that
    vanishes mod p has none.  The residues come from the map's integer
    terms and the inverse of their common denominator.  Terms are kept in
    exponent order, those whose residue is 0 dropped.  Every kernel user
    builds its tables here, so this is where composite moduli and primes
    too large for the int32 kernel are refused.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p >= 46341:
        # kernel arithmetic runs in int32; products of two residues and
        # Horner steps, (p-1)^2 + (p-1), must stay below 2^31
        raise ResourceBoundError(f"prime {p} too large for the 32-bit scan")
    denominator, numerators = rational_map.integer_terms()
    if denominator % p == 0:
        # p divides some coefficient's own denominator; residue names it
        for comp in rational_map.components:
            for _, c in sorted(comp.terms.items()):
                residue(c, p)
    scale = pow(denominator, -1, p)
    n = rational_map.n
    prefix_tables, powers = [], []
    for terms in numerators:
        by_power = {}
        for e, c in sorted(terms.items()):
            if r := c * scale % p:
                rows = by_power.setdefault(e[n], ([], []))
                rows[0].append(e[:n])
                rows[1].append(r)
        powers.append({})
        for k in sorted(by_power):
            powers[-1][k] = len(prefix_tables)
            prefix_tables.append(by_power[k])
    if not prefix_tables:
        raise ReductionError(f"every component vanishes mod {p}; pick another prime")
    return prefix_tables, powers


def _chunk_points(n, p, lo, hi, work=None):
    """Points lo..hi of P^n(F_p) in enumeration order, one row each.

    The block for pivot position k holds p^(n-k) points (0,..,0,1,free
    digits), indexed by the base-p digits of the free coordinates, x_n
    lowest, as _normalized_keys numbers images, after the blocks of
    smaller pivot.  Each block the range crosses fills its rows of the one
    column-major array in place.  The scans call it with n-1 to build the
    prefixes of a task.  int32 is safe throughout the scan: p < 46341
    (_component_tables), so a Horner step (p-1)^2 + (p-1) stays below
    2^31, and _check_domain keeps every position under 2^31.  A position
    put in column n splits into digits in place: idx // p (a multiply and
    shift in numpy, where idx % p divides per element) into the column
    above, and its multiple of p, to subtract, into the next one up.
    """
    coords = _work(work, "prefixes", n + 1, hi - lo).T
    start = 0
    for pivot in range(n + 1):
        end = start + p ** (n - pivot)
        if lo < end and start < hi:
            rows = coords[max(lo, start) - lo:min(hi, end) - lo]
            rows[:, :pivot] = 0
            rows[:, n] = np.arange(max(lo, start) - start,
                                   min(hi, end) - start, dtype=np.int32)
            for slot in range(n, pivot + 1, -1):
                np.floor_divide(rows[:, slot], p, out=rows[:, slot - 1])
                np.multiply(rows[:, slot - 1], p, out=rows[:, slot - 2])
                rows[:, slot] -= rows[:, slot - 2]
            rows[:, pivot] = 1
        start = end
    return coords


def _evaluate_images(tables, coords, p, work=None):
    """Images of the rows of coords under the tables, (rows, components).

    The scans pass prefix tables (_component_tables) and prefixes.  Each
    monomial is a product of powers reduced mod p, x_v^e built from
    x_v^(e-1) with one product and one _reduce, as Polynomial.substitute
    builds its powers; its coefficient multiplies it unreduced, a term of
    at most (p-1)^2, and goes straight into the component's int32 sum,
    which its first term assigns.  The sum is reduced every `period`
    terms: from a reduced sum of at most p-1, that many terms stay below
    2^31 (at least 1, as _component_tables keeps p(p-1) < 2^31).
    """
    period = (2 ** 31 - p) // (p - 1) ** 2
    # numpy converts a Python int operand anew on every call, which a 0-d
    # array skips: it tells on small rows, where each call costs the most
    modulus = np.array(p, dtype=np.int32)
    # component-major, so each sum is contiguous (as _reduce needs); the
    # transpose returned is the usual (rows, components) view
    images = _work(work, "values", len(tables), len(coords))
    product = _work(work, "keys", len(coords))
    quotient = getattr(work, "quotient", None)
    # powers[v][e - 1] is x_v^e.  power_column must not call itself: a
    # closure that does is a reference cycle, and it kept each call's
    # powers alive until the cyclic collector ran (peak RSS 34 -> 56 MiB on
    # a sampled scan of the determinantal cubic at p=31)
    powers = [[coords[:, v]] for v in range(coords.shape[1])]

    def power_column(v, e):
        column = powers[v]
        while len(column) < e:
            column.append(_reduce(column[-1] * column[0], modulus, quotient))
        return column[e - 1]

    for acc, (exps, coeffs) in zip(images, tables):
        if not coeffs:
            acc[:] = 0
        for t, (e, c) in enumerate(zip(exps, coeffs), 1):
            term = None
            for v, k in enumerate(e):
                if k:
                    col = power_column(v, k)
                    term = col if term is None else _reduce(
                        np.multiply(term, col, out=product), modulus, quotient)
            value = (c if term is None else term if c == 1
                     else np.multiply(term, c, out=product))
            if t == 1:
                acc[:] = value  # the first term assigns: nothing is cleared
            else:
                acc += value
            if t % period == 0:
                # about 2^31 / p^2 terms: reached only at large p, where
                # the rows are few
                _reduce(acc, modulus, quotient)
        _reduce(acc, modulus, quotient)
    return images.T


@functools.lru_cache(maxsize=None)
def _inverse_table(p):
    return np.array([0] + [pow(v, p - 2, p) for v in range(1, p)],
                    dtype=np.int32)


# elements per quotient block of _reduce, and at most the points of an
# exhaustive tile (_exhaustive_chunk): 256 KiB of int32, cache-resident
_REDUCE_BLOCK = 1 << 16

# elements from which _reduce takes the quotient route: on fewer, the fixed
# cost of its block loop exceeds the divisions of np.remainder (in place,
# int32, numpy 2.4, they break even between 1,050 and 1,280 elements)
_REDUCE_ROWS = 1200


def _reduce(values, p, quotient=None):
    """values % p in place for a contiguous integer array; returns it.

    The one reduction mod p of the kernel, at any size.  numpy divides an
    integer array by a scalar with a multiply and shift but takes a
    remainder with one hardware division per element, so from
    _REDUCE_ROWS elements values - (values // p) * p, a block at a time
    through one small quotient buffer, runs in about a quarter of the
    time of np.remainder (int32, 2^20 elements, numpy 2.4); below that
    np.remainder costs less.  A scan passes its workspace's quotient.
    """
    if not values.flags.c_contiguous:
        # reshape would reduce a copy and leave values as they were
        raise ValueError("_reduce needs a contiguous array")
    if values.size < _REDUCE_ROWS:
        return np.remainder(values, p, out=values)
    flat = values.reshape(-1)
    quotient = (np.empty(min(flat.size, _REDUCE_BLOCK), dtype=flat.dtype)
                if quotient is None else quotient)
    for lo in range(0, flat.size, _REDUCE_BLOCK):
        block = flat[lo:lo + _REDUCE_BLOCK]
        q = quotient[:block.size]
        np.floor_divide(block, p, out=q)
        q *= p
        block -= q
    return values


def _normalized_keys(images, p, work=None):
    """(int32 index of each image row in P^n(F_p), base count) for a block.

    A row with pivot k (its first nonzero coordinate) is scaled so that
    c_k = 1; its index is the size of the blocks of smaller pivot,
    projective_size(n, p) - projective_size(n - k, p), plus the free
    digits sum_{j>k} c_j p^(n-j), the last coordinate lowest, in the order
    _chunk_points enumerates the block.  This numbers the points of
    P^n(F_p) 0..projective_size(n, p) - 1.  Base rows (image identically
    zero) get -1, so callers drop or ignore them with index >= 0.
    _pivot_index computes it by recursion on the pivot.  A P^n(F_p) of
    2^31 points or more has no int32 index and is refused (_check_domain).
    In a workspace the index is valid until the task keys its next block.
    """
    _check_domain(images.shape[1] - 1, p)
    return _pivot_index(images, p, work)


def _pivot_index(images, p, work=None):
    """_normalized_keys by recursion on the pivot: (index, base count).

    A row with y_0 != 0 has pivot 0 and index sum_{j>=1} (y_j / y_0) p^(n-j),
    one Horner pass over y_1..y_n scaled by 1/y_0.  The rows with y_0 = 0
    (about 1/p of them) are points of P^(n-1) in columns 1..n, after the
    p^n points of pivot 0; rows zero all the way down are base rows.  The
    caller keeps P^n(F_p) under 2^31 points, so every step fits in int32.
    """
    n = images.shape[1] - 1
    rows = len(images)
    quotient = getattr(work, "quotient", None)
    if work is None:
        scale = np.take(_inverse_table(p), images[:, 0])
        index, term = np.empty_like(scale), np.empty_like(scale)
    else:
        # np.take would copy int32 pivots to intp: they go as intp where the
        # index and product columns go next (clipping spares a copy of out)
        scale, pair = work.scale[:rows], work.keys[:2 * rows]
        pivots = pair.view(np.intp)[:rows]
        pivots[:] = images[:, 0]
        np.take(_inverse_table(p), pivots, out=scale, mode="clip")
        index, term = pair.reshape(2, rows)
    if n:
        _reduce(np.multiply(images[:, 1], scale, out=index), p, quotient)
    else:
        index[:] = 0
    for j in range(2, n + 1):
        index *= p
        index += _reduce(np.multiply(images[:, j], scale, out=term), p,
                         quotient)
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
    """(lo, hi) ranges of prefix indices tiling P^(n-1)(F_p) once.

    Every point of P^n(F_p) but e_n = (0,..,0,1) is a prefix, a point of
    P^(n-1)(F_p), times a value t of x_n, and its index is the prefix's
    index times p plus t; e_n has the last index, projective_size(n, p) - 1.
    A task is the x_n grid of at most max(1, _CHUNK // p) consecutive
    prefixes, whole rows, its range running straight across the pivot
    blocks of P^(n-1); the task that ends the range also holds e_n
    (_last_image).  P^0 has no prefixes: its one task is (0, 0), e_0
    alone.
    """
    prefixes = projective_size(n - 1, p)
    step = max(1, _CHUNK // p)
    return [(lo, min(lo + step, prefixes))
            for lo in range(0, prefixes, step)] or [(0, 0)]


def _last_image(split, p):
    """The image of e_n = (0,..,0,1), one row, read off the split
    (_component_tables).

    f_j(e_n) = sum_k g_{j,k}(0,..,0): the constant terms of the component's
    prefix tables, summed mod p; nothing is evaluated.
    """
    prefix_tables, powers = split
    row = [sum(c for i in component.values()
               for e, c in zip(*prefix_tables[i]) if not any(e)) % p
           for component in powers]
    return np.array([row], dtype=np.int32)


def _expand_images(values, powers, t, p, work=None):
    """Images from the g_{j,k} of each prefix (rows of values) over t.

    values[:, i] is the column of prefix table i at each prefix
    (_evaluate_images), broadcast against t: the values of x_n for a
    grid, or (rows, 1), each row's own t, for gathered rows.  One image
    row per point, (points, components), x_n fastest: component j is
    sum_k g_{j,k} t^k mod p for the powers[j] of the split
    (_component_tables).  Horner's rule with one reduction per step:
    acc < p, so acc * t + g <= (p-1)^2 + (p-1) < 2^31.
    """
    coeffs = values[:, None, :]
    quotient = getattr(work, "quotient", None)
    # component-major, so each expansion runs on contiguous memory; the
    # transpose returned is the usual (points, components) view
    images = _work(work, "images", len(powers), len(values), t.shape[-1])
    for acc, component in zip(images, powers):
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
            _reduce(acc, p, quotient)
            if k:
                acc *= t
    return images.reshape(len(powers), -1).T


def _row_images(split, coords, p):
    """Images of whole points, one row each, as a sampled task's gathered
    rows: the g_{j,k} of each row's x_0..x_{n-1} (_evaluate_images),
    expanded at its own x_n (_expand_images)."""
    prefix_tables, powers = split
    n = coords.shape[1] - 1
    return _expand_images(_evaluate_images(prefix_tables, coords[:, :n], p),
                          powers, coords[:, n:], p)


def _exhaustive_chunk(args):
    """Key one task's points and count them into the scan's fibers.

    The g_{j,k} are evaluated once for all the task's prefixes; expansion,
    keys and counting then run on tiles of max(1, _REDUCE_BLOCK // p)
    prefixes, so every int32 column of a tile, at most _REDUCE_BLOCK
    points, stays in cache.  Row r of the task's grid is prefix lo + r // p,
    a point of P^(n-1)(F_p), at x_n = r % p: the point of index
    (lo + r // p) * p + r % p.  The task that ends the prefix range keys
    and counts e_n on its own.  fibers is the scan's int32 array of the
    domain, work its workspace.  Returns the task's base count, an int64.
    """
    split, n, p, lo, hi, fibers, work = args
    prefixes = _chunk_points(n - 1, p, lo, hi, work)
    t = np.arange(p, dtype=np.int32)
    prefix_tables, powers = split
    values = _evaluate_images(prefix_tables, prefixes, p, work)
    step = max(1, _REDUCE_BLOCK // p)
    # numpy >= 1.25 runs ufunc.at on matching int32 arrays in a fast path;
    # a scalar 1 takes the slow generic loop
    ones = np.ones(max(1, min(step, len(values)) * p), dtype=np.int32)

    def count(index, base):
        if base:
            index = index[index >= 0]
        # np.add.at would wrap a negative index silently
        if index.size and (index.min() < 0 or index.max() >= len(fibers)):
            raise InconsistencyError(
                f"an image index mod {p} lies outside P^{n}: indexing is broken")
        np.add.at(fibers, index, ones[:index.size])
        return base

    base = np.int64(0)
    for start in range(0, len(values), step):
        images = _expand_images(values[start:start + step], powers, t, p, work)
        base += count(*_normalized_keys(images, p, work))
    if hi == projective_size(n - 1, p):
        base += count(*_normalized_keys(_last_image(split, p), p))
    return base


# the most entries of a head table (1 MiB of bool)
_HEAD_TABLE_ENTRIES = 1 << 20


def _head_width(n, p):
    # 3 while the projective layout of P^2(F_p) fits the table, else 2
    return min(n + 1, 3 if projective_size(2, p) < _HEAD_TABLE_ENTRIES else 2)


def _head_columns(powers, p):
    """The components that make the head of a sampled scan, in head order.

    The first _head_width(n, p) components by the top power of x_n they
    hold (powers from _component_tables), then by index, zero components
    last: a head free of x_n is looked up once per prefix, and a zero
    column filters nothing.  scan_sampled builds the head table and _sampled_chunk
    reads the heads on the columns this gives.
    """
    order = sorted(range(len(powers)),
                   key=lambda j: (not powers[j], max(powers[j], default=0), j))
    return order[:_head_width(len(powers) - 1, p)]


def _head_index(head, p):
    """Head table index of each head, given as columns (w, rows) of int32.

    Raw layout while p^w fits the table: the digits (y_0 p + y_1) p + y_2,
    which needs no division, built in head[0] (callers are done with a
    head once it is looked up).  Past that, the projective layout: the
    head's index in P^(w-1)(F_p) (_pivot_index), and -1, the table's
    trailing entry, for the zero head.
    """
    if p ** len(head) <= _HEAD_TABLE_ENTRIES:
        index = head[0]
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


# entries of the bitmap of target indices' low bits (scan_sampled)
_MARK_BITS = 1 << 16


def _target_counts(index, target_index):
    """How many of the indices hit each target (binary search in the
    sorted target indices); base rows, -1, hit none."""
    positions = np.searchsorted(target_index, index)
    positions[positions == len(target_index)] = 0
    hits = target_index[positions] == index
    return np.bincount(positions[hits], minlength=len(target_index))


def _sampled_chunk(args):
    """(hits per target, base count) of one task's points.

    The scan fixes, once, the sorted target indices, the bitmap of their
    low 16 bits (marked), the head columns, the head table and the
    workspace.  The task's grid is that of _exhaustive_chunk.
    """
    split, n, p, lo, hi, target_index, marked, columns, table, work = args
    prefixes = _chunk_points(n - 1, p, lo, hi, work)
    t = np.arange(p, dtype=np.int32)
    prefix_tables, powers = split
    heads = [powers[j] for j in columns]
    # the prefilter drops only heads no target has; only the kept rows get
    # their images and an index, and the full index comparison below stays
    # the only hit test
    if not any(k for head in heads for k in head):
        # a head free of x_n is the same along a row of the grid: only the
        # head's tables are evaluated on every prefix, the head is looked
        # up once per prefix, and a kept prefix keeps its whole row (a zero
        # component has no table; an empty one evaluates to 0)
        head = _evaluate_images([prefix_tables[h[0]] if h else ([], [])
                                 for h in heads], prefixes, p, work)
        kept = np.flatnonzero(table[_head_index(head.T, p)])
        images = _expand_images(
            _evaluate_images(prefix_tables, prefixes[kept], p, work), powers,
            t, p, work)
    else:
        # else every g_{j,k} is evaluated once on every prefix, the head is
        # expanded over the grid and looked up per point, and a kept point
        # is one row, at its own value of x_n
        values = _evaluate_images(prefix_tables, prefixes, p, work)
        head = _expand_images(values, heads, t, p, work)
        kept = np.flatnonzero(table[_head_index(head.T, p)])
        images = _expand_images(values[kept // p], powers,
                                t[kept % p][:, None], p, work)
    index, base = _normalized_keys(images, p, work)
    # only rows whose low 16 bits are those of a target go on to the binary
    # search; the low bits go into the idle scale column
    low = np.bitwise_and(index, _MARK_BITS - 1,
                         out=_work(work, "scale", len(index)))
    counts = _target_counts(index[marked[low]], target_index)
    if hi == projective_size(n - 1, p):
        # e_n, keyed and matched on its own
        last_index, last_base = _normalized_keys(_last_image(split, p), p)
        counts += _target_counts(last_index, target_index)
        base += last_base
    return counts, base


def _run_tasks(fn, split, n, p, *extra):
    """fn((split, n, p, lo, hi, *extra, work)) for every task, in order.

    split is the caller's _component_tables of its map, work one
    _Workspace for all its tasks, or None for one task, with nothing to
    reuse (freed whole, a workspace cost each census scan 50-100 faults).
    Every task runs in the calling process, one after the other.  A fork pool
    was faster only on sampled scans of a few tasks, 47% slower near
    SAMPLED_MAX_DOMAIN (each task's arguments pickled the head table), and
    added about 25 MiB of peak RSS at every size.
    """
    tasks = _block_tasks(n, p)
    work = _Workspace(split, n, p) if len(tasks) > 1 else None
    for lo, hi in tasks:
        yield fn((split, n, p, lo, hi, *extra, work))


class _Workspace:
    """One scan's work arrays, sized once for a task of max(1, _CHUNK // p)
    prefixes and handed to every task: made per task, they were unmapped
    and faulted in again (20,000 minor faults on the determinantal cubic's
    sampled scan at p=31).  Each user writes every cell it reads (_work),
    returns no view, and may borrow a column idle at the time."""

    def __init__(self, split, n, p):
        prefixes = max(1, _CHUNK // p)
        points = prefixes * p
        tables, components = map(len, split)
        self.prefixes = _work_array(n * prefixes)
        self.values = _work_array(max(tables, components) * prefixes)
        self.images = _work_array(components * points)
        self.scale = _work_array(points)
        # the index and product columns, which take intp pivots first
        self.keys = _work_array(2 * points)
        self.quotient = _work_array(min(_REDUCE_BLOCK, points))


def _work_array(entries):
    """An int32 array that takes no page before it is written: from 4 MiB
    numpy advises huge pages, 2 MiB at a time (peak RSS +3 MiB on the
    determinantal cubic's sampled scan), so those are private maps."""
    if entries < 1 << 20:
        return np.empty(entries, dtype=np.int32)
    return np.frombuffer(mmap.mmap(-1, 4 * entries, flags=mmap.MAP_PRIVATE),
                         dtype=np.int32)


def _work(work, name, *shape):
    """The workspace buffer `name` shaped, or a fresh array without one."""
    if work is None:
        return np.empty(shape, dtype=np.int32)
    return getattr(work, name)[:np.prod(shape)].reshape(shape)


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


def _histogram(counts):
    """Fiber size -> image points, sizes ascending and 0 left out, of an
    array of fiber counts, a _CHUNK slice at a time (a whole-array unique
    or bincount would copy an exhaustive scan's array of the domain)."""
    tally = collections.Counter()
    for lo in range(0, len(counts), _CHUNK):
        sizes, points = np.unique(counts[lo:lo + _CHUNK], return_counts=True)
        tally.update(dict(zip(sizes.tolist(), points.tolist())))
    del tally[0]
    return dict(sorted(tally.items()))


def _judge(p, mode, seed, targets, domain, base_points, histogram, size1,
           drawn, bound):
    """The one DegreeReport of a scan: degree, dominant and homaloidal,
    decided from what the scan measured at p.

    Measured: domain, base points, the fiber histogram (image_size is its
    total) and a size-1 share size1 / drawn: histogram[1] over the non-base
    domain (mode "exhaustive"), size-1 targets over targets ("sample").
    bound is D^n for a map of degree D on P^n: off the base locus a fiber
    has at most D^n isolated points (refined Bezout), so a larger size is
    a positive-dimensional fiber, a contracted line's say.
    degree: the largest size s <= bound, s < p-1, held by at least 2 image
    points, or 0 when no size is: no generic fiber size was seen.  A map
    of degree d shows every size 1..d in its image, and a contracted locus
    has fibers of about p points (so p-1 must exceed d); a map that is not
    dominant, a cone's say, has fibers of about p points or more.  One
    image point is not enough: a positive-dimensional fiber not defined
    over F_p can hold few F_p-points.  Where bound >= p-2 the bound no
    longer separates a contracted line from a generic fiber, and its size
    can be read.  A sampled degree is a lower bound: few targets land on a
    fiber of the largest size.
    dominant: degree > 0 in either mode: a generic size below p-1 was seen.
    homaloidal: degree 1, which is dominant, and a size-1 share of at
    least 9/10 (exhaustive) or 3/4 (sampled: random targets hit contracted
    loci with probability ~(n+1)/p, so 9/10 would misfire at p=31).
    """
    degree = max((size for size, count in histogram.items()
                  if size <= bound and size < p - 1 and count >= 2),
                 default=0)
    num, den = ((_EXHAUSTIVE_SIZE1_NUM, _EXHAUSTIVE_SIZE1_DEN)
                if mode == "exhaustive" else
                (_SAMPLED_SIZE1_NUM, _SAMPLED_SIZE1_DEN))
    homaloidal = degree == 1 and den * size1 >= num * drawn
    return DegreeReport(p, mode, seed, targets, domain, base_points,
                        sum(histogram.values()), histogram, degree,
                        degree > 0, homaloidal)


def scan_exhaustive(rational_map, p, workers=1):
    """Fiber histogram of the map over every point of P^n(F_p), judged by
    _judge.  Domain bound: DEFAULT_MAX_DOMAIN.

    Every task counts, in this process, into one int32 array of the domain
    (_exhaustive_chunk, a cache-sized tile at a time).  workers is accepted
    and ignored, until the benchmark stops passing it (ROADMAP item 7).
    """
    n = rational_map.n
    # building the tables refuses a composite or too large p first
    split = _component_tables(rational_map, p)
    domain = _check_domain(n, p, DEFAULT_MAX_DOMAIN)
    fibers = np.zeros(domain, dtype=np.int32)
    base_points = int(sum(_run_tasks(_exhaustive_chunk, split, n, p, fibers)))
    histogram = _histogram(fibers)
    if not histogram:
        raise ReductionError(f"no points survive outside the base locus mod {p}")
    mapped = sum(s * c for s, c in histogram.items())
    if base_points + mapped != domain:
        raise InconsistencyError(
            f"accounting failed: {base_points} base + {mapped} mapped != {domain}")
    return _judge(p, "exhaustive", None, None, domain, base_points,
                  histogram, histogram.get(1, 0), domain - base_points,
                  rational_map.degree ** n)


def _candidates(seed, p, width, rows):
    """Seeded uniform rows over F_p: batches of `rows`, at most 200 batches.

    Coordinates are drawn row after row, in the order one-at-a-time
    drawing would use, so a seed picks the same points in any batching.
    """
    rng = random.Random(seed)
    for _ in range(200):
        yield np.array([rng.randrange(p) for _ in range(rows * width)],
                       dtype=np.int64).reshape(rows, width)


def _sample_targets(split, nvars, p, targets, seed):
    """Image indices and image rows of seeded random non-base domain points."""
    indices, rows = [], []
    found = 0
    for coords in _candidates(seed, p, nvars, targets):
        images = _row_images(split, coords.astype(np.int32), p)
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
    """Fiber sizes of seeded random targets, counted in one domain pass,
    judged by _judge.

    The histogram counts distinct sampled image points by fiber size; the
    targets' image rows serve only the prefilter.  Every target is the
    image of a sampled point, so a target counted with an empty fiber
    raises InconsistencyError.

    Only rows that pass the head prefilter (_ratio_table, built once per
    scan on the head columns) get images (_expand_images), keys and a match.
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
    that target's fiber empty and raise.  The bitmap of the targets' low 16
    bits in front of that comparison drops only rows whose index differs
    from every target's in those bits, hence from every target; the rows
    it keeps are compared in full, so two targets with the same low bits,
    and a row that shares a target's low bits only, count as before.

    The tasks run one after the other in this process (_run_tasks), each
    given the head columns, the head table and the bitmap built here.
    workers is accepted and ignored, until the benchmark stops passing it
    (ROADMAP item 7).
    """
    n = rational_map.n
    split = _component_tables(rational_map, p)
    domain = _check_domain(n, p, SAMPLED_MAX_DOMAIN)
    if targets < n + 2:
        raise ValueError(f"need at least n+2 = {n + 2} targets")
    if targets > SAMPLED_MAX_TARGETS:
        raise ResourceBoundError(f"more than {SAMPLED_MAX_TARGETS} targets")
    per_target, image_rows = _sample_targets(
        split, rational_map.nvars, p, targets, seed)
    target_index, target_of = np.unique(per_target, return_inverse=True)
    marked = np.zeros(_MARK_BITS, dtype=bool)
    marked[target_index & (_MARK_BITS - 1)] = True
    columns = _head_columns(split[1], p)
    parts = list(_run_tasks(_sampled_chunk, split, n, p, target_index, marked,
                            columns, _ratio_table(image_rows, columns, p)))
    fiber_counts = sum(counts for counts, _ in parts)
    base_points = sum(base for _, base in parts)
    if not fiber_counts.all():
        raise InconsistencyError(
            f"{int((fiber_counts == 0).sum())} sampled image points have no "
            f"preimage in the scan mod {p}: enumeration or indexing is broken")
    return _judge(p, "sample", seed, targets, domain, base_points,
                  _histogram(fiber_counts),
                  int((fiber_counts[target_of] == 1).sum()), targets,
                  rational_map.degree ** n)


def verdict_primes(primes):
    """The distinct primes of a verdict, in order.  None, a composite or
    one below 5 is refused: _judge reads only sizes below p-1 as a degree,
    and degree 2 must be readable.  The scans themselves take any prime."""
    primes = list(dict.fromkeys(primes))
    if not primes:
        raise ValueError("need at least one prime")
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p < 5:
            raise ValueError(f"prime {p} is below 5: degree 2 needs p-1 > 2")
    return primes


def scan_primes(rational_map, primes=DEFAULT_PRIMES, mode="exhaustive",
                targets=64, seed=0):
    """One scan per distinct prime in the given mode; the verdicts must agree.

    mode "exhaustive" runs scan_exhaustive, "sample" scan_sampled with
    targets and seed; verdict_primes checks every prime before any scan,
    and the DegreeReports come back in order, a repeated prime once.
    degree, dominant and homaloidal must match at every prime, else
    InconsistencyError: degree is a generic fiber size below p-1, or 0 when
    none was seen (_judge), so it means the same at every prime.
    """
    primes = verdict_primes(primes)
    if mode == "exhaustive":
        scan = scan_exhaustive
    elif mode == "sample":
        scan = functools.partial(scan_sampled, targets=targets, seed=seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    reports = [scan(rational_map, p) for p in primes]
    first = reports[0]
    for r in reports[1:]:
        if (r.degree, r.dominant, r.homaloidal) != \
                (first.degree, first.dominant, first.homaloidal):
            raise InconsistencyError(
                f"verdicts disagree between p={first.p} and p={r.p}")
    return reports


def dominance_by_span(points, p):
    """True iff the given image points span the whole dual space.

    The contrapositive of the cone criterion: an image inside a hyperplane
    has coordinate vectors of deficient rank.  Needs at least n+2 points
    to be meaningful evidence of dominance.  No verdict calls it.
    """
    coord_rows = [list(pt) for pt in points]
    if not coord_rows:
        raise ValueError("no image points given")
    nvars = len(coord_rows[0])
    if len(coord_rows) < nvars + 1:
        raise ValueError(f"need at least n+2 = {nvars + 1} points, got {len(coord_rows)}")
    return exact_rank(coord_rows, p) == nvars


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
    if samples < 1:
        # no point checked is no evidence of a contraction
        raise ValueError(f"need at least one sample, got {samples}")
    split = _component_tables(moving_part(F).moving, p)
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
        images = _row_images(split, coords.astype(np.int32), p)
        images = images[usable & images.any(axis=1)][:samples - found]
        if (images * row[pivot] % p != row * images[:, [pivot]] % p).any():
            return False
        found += len(images)
        if found == samples:
            return True
    raise ReductionError(
        f"hyperplane {i} yields no usable sample points mod {p}; "
        "retry with a larger prime")
