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
off the g_{j,k}'s constant terms.  Random sample points have no such grid
and are evaluated row by row.
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
image (_block_images, _expand_images, which also expand exhaustive
tiles) and an index; a dropped row provably hits no target
(scan_sampled).  The match is a binary search in the sorted target
indices, reached only by rows whose index has the low 16 bits of some
target's (a 2^16-entry bitmap built per task; 0.3% of the kept rows of
the determinantal cubic at p=31 pass it).

Remainders mod p skip numpy's per-element hardware division wherever the
arrays are large: digits and remainders are taken as v - (v // p) * p,
which numpy computes with a multiply and shift (_reduce), and the
evaluator adds each coefficient times monomial unreduced, reducing a
component's sum only every ~2^31 / p^2 terms (_evaluate_images).

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
from dataclasses import dataclass

import numpy as np

from .arrangement import LinearFormProduct
from .errors import InconsistencyError, ReductionError, ResourceBoundError
from .fields import PrimeField
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
    base-p digits of the free coordinates, x_n lowest, as _normalized_keys
    numbers images.  The scans call it with n-1 to
    build the prefixes of a task (_block_grid); the random-point
    evaluators build their own rows.  int32 is safe throughout the scan:
    _component_tables keeps p < 46341, so a product of two residues, and
    a Horner step (p-1)^2 + (p-1), stay below 2^31.  Positions are int32
    too, as _check_domain keeps P^n(F_p), and so every block, under 2^31
    points; each digit is idx - (idx // p) * p, a floor-divide by a
    scalar that numpy runs as a multiply and shift, where idx % p would
    take one hardware division per element.
    """
    count = hi - lo
    coords = np.zeros((count, n + 1), dtype=np.int32)
    coords[:, pivot] = 1
    idx = np.arange(lo, hi, dtype=np.int32)
    for slot in range(n, pivot, -1):
        quotient = idx // p
        coords[:, slot] = idx - quotient * p
        idx = quotient
    return coords


def _evaluate_images(tables, coords, p):
    """Images of the rows of coords under the tables, (rows, components).

    Each monomial is a product of powers reduced mod p; its coefficient
    multiplies it unreduced, a term of at most (p-1)^2, and goes straight
    into the component's int32 sum.  The sum is reduced every `period`
    terms: from a reduced sum of at most p-1, that many terms stay below
    2^31 (at least 1, as _component_tables keeps p(p-1) < 2^31).
    """
    count = len(coords)
    reduce = _reducer(count)
    period = (2 ** 31 - p) // (p - 1) ** 2
    # numpy converts a Python int operand anew on every call, which a 0-d
    # array skips: it tells on small rows, where each call costs the most
    modulus = np.array(p, dtype=np.int32)
    # component-major, so each sum is contiguous (as _reduce needs); the
    # transpose returned is the usual (rows, components) view
    images = np.zeros((len(tables), count), dtype=np.int32)
    power_cache = {}

    def power_column(v, e):
        key = (v, e)
        if key not in power_cache:
            if e == 1:
                power_cache[key] = coords[:, v]
            else:
                power_cache[key] = pow_mod_array(coords[:, v], e, modulus)
        return power_cache[key]

    for acc, (exps, coeffs) in zip(images, tables):
        if not coeffs:
            continue
        for t, (e, c) in enumerate(zip(exps, coeffs), 1):
            term = None
            for v, k in enumerate(e):
                if k:
                    col = power_column(v, k)
                    term = col if term is None else reduce(term * col, modulus)
            if term is None:
                acc += c
            elif c == 1:
                acc += term
            else:
                acc += term * c
            if t % period == 0:
                # about 2^31 / p^2 terms: reached only at large p, where
                # the rows are few
                np.remainder(acc, modulus, out=acc)
        acc[:] = reduce(acc, modulus)
    return images.T


# rows from which a product is reduced by _reduce: on fewer, its fixed cost
# per call exceeds the divisions of np.remainder (they break even near 2048
# int32 rows, numpy 2.4)
_REDUCE_ROWS = 1 << 12


def _reducer(rows):
    """The reduction for fresh arrays of this many rows: _reduce, in
    place, on large ones, np.remainder, a new array, on small ones.
    Either way use the array it returns."""
    return _reduce if rows >= _REDUCE_ROWS else np.remainder


def pow_mod_array(column, e, p):
    reduce = _reducer(len(column))
    result = np.ones_like(column)
    base = column
    while e:
        if e & 1:
            result = reduce(result * base, p)
        e >>= 1
        if e:
            base = reduce(base * base, p)
    return result


@functools.lru_cache(maxsize=None)
def _inverse_table(p):
    return np.array([0] + [pow(v, p - 2, p) for v in range(1, p)],
                    dtype=np.int32)


# elements per quotient block of _reduce, and at most the points of an
# exhaustive tile (_exhaustive_chunk): 256 KiB of int32, cache-resident
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
    digits sum_{j>k} c_j p^(n-j), the last coordinate lowest, in the order
    _chunk_points enumerates the block.  This numbers the points of
    P^n(F_p) 0..projective_size(n, p) - 1.  Base rows (image identically
    zero) get -1, so callers drop or ignore them with index >= 0.
    _pivot_index computes it by recursion on the pivot.  A P^n(F_p) of
    2^31 points or more has no int32 index and is refused (_check_domain).
    """
    _check_domain(images.shape[1] - 1, p)
    return _pivot_index(images, p)


def _pivot_index(images, p):
    """_normalized_keys by recursion on the pivot: (index, base count).

    A row with y_0 != 0 has pivot 0 and index sum_{j>=1} (y_j / y_0) p^(n-j),
    one Horner pass over y_1..y_n scaled by 1/y_0.  The rows with y_0 = 0
    (about 1/p of them) are points of P^(n-1) in columns 1..n, after the
    p^n points of pivot 0; rows zero all the way down are base rows.  The
    caller keeps P^n(F_p) under 2^31 points, so every step fits in int32.
    """
    n = images.shape[1] - 1
    scale = np.take(_inverse_table(p), images[:, 0])
    index = np.zeros(len(images), dtype=np.int32)
    # e_n's one row, and the ~1/p rows of a deeper pivot in a small scan,
    # are too few to pay for _reduce's block loop
    reduce = _reducer(len(images))
    # one reused product buffer: this loop runs on whole exhaustive chunks
    term = np.empty(len(images), dtype=np.int32)
    for j in range(1, n + 1):
        index *= p
        index += reduce(np.multiply(images[:, j], scale, out=term), p)
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
    prefixes (_block_grid), whole rows, its range running straight across
    the pivot blocks of P^(n-1); the task that ends the range also holds
    e_n (_last_image).  P^0 has no prefixes: its one task is (0, 0), e_0
    alone.
    """
    prefixes = projective_size(n - 1, p)
    step = max(1, _CHUNK // p)
    return [(lo, min(lo + step, prefixes))
            for lo in range(0, prefixes, step)] or [(0, 0)]


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


def _block_grid(n, p, lo, hi):
    """(prefixes x_0..x_{n-1}, the values t of x_n) of a task's grid.

    The prefixes are points lo..hi of P^(n-1)(F_p) in enumeration order,
    a _chunk_points piece of every pivot block of P^(n-1) the range
    crosses; t is the p values of x_n.  Row r of the grid is prefix
    r // p at t = r % p, the point of index (lo + r // p) * p + r % p.
    e_n is on no grid (_last_image).
    """
    pieces = []
    start = 0
    for pivot in range(n):
        end = start + p ** (n - 1 - pivot)
        if lo < end and start < hi:
            pieces.append(_chunk_points(n - 1, p, pivot, max(lo, start) - start,
                                        min(hi, end) - start))
        start = end
    t = np.arange(p, dtype=np.int32)
    if len(pieces) == 1:
        # most ranges lie in one block: its piece goes uncopied, since a
        # copy shifts malloc's thresholds and raises the scans' peak RSS
        return pieces[0], t
    return np.concatenate([np.zeros((0, n), dtype=np.int32), *pieces]), t


def _last_image(split, p):
    """The image of e_n = (0,..,0,1), one row, read off the split.

    f_j(e_n) = sum_k g_{j,k}(0,..,0): the constant terms of the component's
    prefix tables, summed mod p; nothing is evaluated.
    """
    prefix_tables, powers = split
    row = [sum(c for i in component.values()
               for e, c in zip(*prefix_tables[i]) if not any(e)) % p
           for component in powers]
    return np.array([row], dtype=np.int32)


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


def _block_images(split, prefixes, t, p):
    """Images of the points with prefixes x_0..x_{n-1} and x_n = t.

    The g_{j,k} are evaluated once per prefix, then expanded over t
    (_expand_images), the x_n grid of every prefix (_block_grid) or a
    part of it.
    """
    prefix_tables, powers = split
    return _expand_images(_evaluate_images(prefix_tables, prefixes, p),
                          powers, t, p)


def _expand_images(values, powers, t, p):
    """Images from the g_{j,k} of each prefix (rows of values) over t.

    One image row per point, (points, components), x_n fastest.
    """
    # component-major, so each expansion runs on contiguous memory; the
    # transpose returned is the usual (points, components) view
    images = np.empty((len(powers), len(values), t.shape[-1]), dtype=np.int32)
    _expand(values[:, None, :], powers, t, p, images)
    return images.reshape(len(powers), -1).T


def _exhaustive_chunk(args, fibers):
    """Key one task's points and count them into the scan's fibers.

    The g_{j,k} are evaluated once for all the task's prefixes; expansion,
    keys and counting then run on tiles of max(1, _REDUCE_BLOCK // p)
    prefixes, so every int32 column of a tile, at most _REDUCE_BLOCK
    points, stays in cache.  The task that ends the prefix range keys and
    counts e_n on its own.  fibers is the scan's int32 array of the
    domain.  Returns the task's base count, an int64.
    """
    split, n, p, lo, hi = args
    prefixes, last = _block_grid(n, p, lo, hi)
    prefix_tables, powers = split
    values = _evaluate_images(prefix_tables, prefixes, p)
    step = max(1, _REDUCE_BLOCK // p)
    # numpy >= 1.25 runs ufunc.at on matching int32 arrays in a fast path;
    # a scalar 1 takes the slow generic loop
    ones = np.ones(max(1, min(step, len(values)) * p), dtype=np.int32)

    def count(images):
        index, base = _normalized_keys(images, p)
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
        # a tile's images stay alive until the next tile's are made: freed
        # first, malloc unmaps them and every tile faults in fresh pages
        # (about 7,700 minor faults a task against 600, Cremona at p=211)
        images = _expand_images(values[start:start + step], powers, last, p)
        base += count(images)
    if hi == projective_size(n - 1, p):
        base += count(_last_image(split, p))
    return base


# the most entries of a head table (1 MiB of bool)
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


def _head_split(split, columns):
    """The _split_tables split of the head components alone, in head order."""
    prefix_tables, powers = split
    used = [i for j in columns for i in powers[j].values()]
    heads = [{k: used.index(i) for k, i in powers[j].items()} for j in columns]
    return [prefix_tables[i] for i in used], heads


# entries of the bitmap of target indices' low bits in _sampled_chunk
_MARK_BITS = 1 << 16


def _target_counts(index, target_index):
    """How many of the indices hit each target (binary search in the
    sorted target indices); base rows, -1, hit none."""
    positions = np.searchsorted(target_index, index)
    positions[positions == len(target_index)] = 0
    hits = target_index[positions] == index
    return np.bincount(positions[hits], minlength=len(target_index))


def _sampled_chunk(args):
    split, n, p, lo, hi, target_index, table = args
    columns = _head_columns(split[1], p)
    prefixes, last = _block_grid(n, p, lo, hi)
    prefix_tables, powers = split
    # the prefilter drops only heads no target has; only the kept rows get
    # their images and an index, and the full index comparison below stays
    # the only hit test
    if not any(k for j in columns for k in powers[j]):
        # a head free of x_n is the same along a row of the grid: only the
        # head's tables are evaluated on every prefix, the head is looked
        # up once per prefix, and a kept prefix keeps its whole row
        head = _block_images(_head_split(split, columns), prefixes, last[:1], p)
        kept = np.flatnonzero(table[_head_index(head.T, p)])
        images = _block_images(split, prefixes[kept], last, p)
    else:
        # else every g_{j,k} is evaluated once on every prefix, the head is
        # expanded over the grid and looked up per point, and a kept point
        # is one row, at its own value of x_n
        values = _evaluate_images(prefix_tables, prefixes, p)
        head = _expand_images(values, [powers[j] for j in columns], last, p)
        kept = np.flatnonzero(table[_head_index(head.T, p)])
        images = _expand_images(values[kept // p], powers,
                                last[kept % p][:, None], p)
    index, base = _normalized_keys(images, p)
    # only rows whose low 16 bits are those of a target go on to the binary
    # search
    marked = np.zeros(_MARK_BITS, dtype=bool)
    marked[target_index & (_MARK_BITS - 1)] = True
    counts = _target_counts(index[marked[index & (_MARK_BITS - 1)]],
                            target_index)
    if hi == projective_size(n - 1, p):
        # e_n, keyed and matched on its own
        last_index, last_base = _normalized_keys(_last_image(split, p), p)
        counts += _target_counts(last_index, target_index)
        base += last_base
    return counts, base


def _run_tasks(fn, split, n, p, *extra):
    """fn((split, n, p, lo, hi, *extra)) for every task, in order.

    split is the caller's _split_tables of its component tables.  Every
    task runs in the calling process, one after the other.  A fork pool
    was faster only on sampled scans of a few tasks, 47% slower near
    SAMPLED_MAX_DOMAIN (each task's arguments pickled the head table), and
    added about 25 MiB of peak RSS at every size.
    """
    for lo, hi in _block_tasks(n, p):
        yield fn((split, n, p, lo, hi, *extra))


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

    Every task counts, in this process, into one int32 array of the domain
    (_exhaustive_chunk, a cache-sized tile at a time), and the histogram
    is taken a _CHUNK slice at a time.  workers is accepted and ignored,
    until the benchmark stops passing it (ROADMAP item 7).
    """
    n = rational_map.n
    # building the tables refuses a composite or too large p first
    tables = _component_tables(rational_map, p)
    domain = _check_domain(n, p, DEFAULT_MAX_DOMAIN)
    fibers = np.zeros(domain, dtype=np.int32)
    base_points = int(sum(_run_tasks(
        functools.partial(_exhaustive_chunk, fibers=fibers),
        _split_tables(tables, n), n, p)))
    tally = collections.Counter()
    for lo in range(0, domain, _CHUNK):
        # slice by slice: a whole-array unique or bincount would copy it
        sizes, points = np.unique(fibers[lo:lo + _CHUNK], return_counts=True)
        tally.update(dict(zip(sizes.tolist(), points.tolist())))
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
    scan on the head columns) get images (_block_images), keys and a match.
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

    The tasks run one after the other in this process (_run_tasks).
    workers is accepted and ignored, until the benchmark stops passing it
    (ROADMAP item 7).
    """
    n = rational_map.n
    tables = _component_tables(rational_map, p)
    domain = _check_domain(n, p, SAMPLED_MAX_DOMAIN)
    if targets < n + 2:
        raise ValueError(f"need at least n+2 = {n + 2} targets for the span test")
    if targets > SAMPLED_MAX_TARGETS:
        raise ResourceBoundError(f"more than {SAMPLED_MAX_TARGETS} targets")
    per_target, image_rows = _sample_targets(
        tables, rational_map.nvars, p, targets, seed)
    target_index, target_of = np.unique(per_target, return_inverse=True)
    split = _split_tables(tables, n)
    table = _ratio_table(image_rows, _head_columns(split[1], p), p)
    parts = list(_run_tasks(_sampled_chunk, split, n, p, target_index, table))
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
                targets=64, seed=0):
    """One scan per distinct prime in the given mode; the verdicts must agree.

    mode "exhaustive" runs scan_exhaustive, "sample" scan_sampled with
    targets and seed; the DegreeReports come back in the order of primes,
    a repeated prime scanned and reported once.
    dominant and homaloidal must match at every prime.  degree is compared
    only when it is below p-1 at every prime, i.e. a generic fiber size:
    larger values are _degree_estimate's fallback, which for a non-dominant
    cone grows with p.  A disagreement raises InconsistencyError.
    """
    if not primes:
        raise ValueError("need at least one prime")
    if mode == "exhaustive":
        scan = scan_exhaustive
    elif mode == "sample":
        scan = functools.partial(scan_sampled, targets=targets, seed=seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    reports = [scan(rational_map, p) for p in dict.fromkeys(primes)]
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
    if samples < 1:
        # no point checked is no evidence of a contraction
        raise ValueError(f"need at least one sample, got {samples}")
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
