"""Exhaustive fiber counting: the dense projective index against the
unique-and-merge counter it replaced, the index against the reference
point, index bijectivity, the index as the enumeration position, int32
bounds, cache tiles, and scans of many tasks that start no process."""

import random
import tracemalloc

import numpy as np
import pytest

from polarmap import oracle
from polarmap.errors import InconsistencyError, ResourceBoundError
from polarmap.oracle import projective_size, scan_exhaustive, scan_sampled
from polarmap.parsing import parse_arrangement, parse_polynomial
from polarmap.polar import RationalMap, moving_part, polar_system

from processes import without_a_process
from projective import ProjectivePoint
from tables import residue_tables


def polar_of(text):
    return polar_system(parse_polynomial(text))


def moving_of(text, nvars=None):
    return moving_part(parse_arrangement(text, nvars=nvars)).moving


def block_points(n, p, pivot):
    """The pivot block of P^n(F_p), the points after the p^n + .. +
    p^(n-pivot+1) of smaller pivot."""
    start = projective_size(n, p) - projective_size(n - pivot, p)
    return oracle._chunk_points(n, p, start, start + p ** (n - pivot))


def reference_counts(rational_map, p):
    """(fiber histogram, base points, image size) by the former counter:
    np.unique per pivot block, then one global unique(return_inverse)
    merge.  It walks the blocks itself, not the scan's tasks, and
    evaluates whole-component tables (residue_tables)."""
    n = rational_map.n
    tables = residue_tables(rational_map, p)
    uniqs, counts, base_points = [], [], 0
    for pivot in range(n + 1):
        coords = block_points(n, p, pivot)
        keys, base = oracle._normalized_keys(
            oracle._evaluate_images(tables, coords, p), p)
        u, c = np.unique(keys[keys >= 0], return_counts=True)
        uniqs.append(u)
        counts.append(c)
        base_points += base
    final_keys, inverse = np.unique(np.concatenate(uniqs), return_inverse=True)
    fiber_sizes = np.zeros(len(final_keys), dtype=np.int64)
    np.add.at(fiber_sizes, inverse, np.concatenate(counts))
    sizes, size_counts = np.unique(fiber_sizes, return_counts=True)
    histogram = {int(s): int(c) for s, c in zip(sizes, size_counts)}
    return histogram, base_points, len(final_keys)


DET_CUBIC = "x0*x3*x5 - x0*x4^2 - x1^2*x5 + 2*x1*x2*x4 - x2^2*x3"

CASES = {
    "smooth_quadric_p3": (lambda: polar_of("x0^2 + x1^2 + x2^2 + x3^2"), 101),
    "cremona_p2": (lambda: polar_of("x0*x1*x2"), 101),
    "cremona_p3": (lambda: polar_of("x0*x1*x2*x3"), 101),
    "twisted_cube_p109": (lambda: moving_of("x0*x1*(x0+x1)*(x0-x1)"), 109),
    "twisted_cube_p101": (lambda: moving_of("x0*x1*(x0+x1)*(x0-x1)"), 101),
    "cone": (lambda: moving_of("x0*x1*(x0-x1)", nvars=3), 101),
    "four_lines": (lambda: moving_of("x0*x1*x2*(x0+x1+x2)"), 101),
    "det_cubic_p7": (lambda: polar_of(DET_CUBIC), 7),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_dense_counter_matches_the_merge_counter(monkeypatch, name, workers):
    build, p = CASES[name]
    rational_map = build()
    histogram, base, image = reference_counts(rational_map, p)
    serial = None
    if workers == 2:
        # every case fits in one default chunk; smaller chunks give it
        # several tasks and histogram slices, all in this process
        serial = scan_exhaustive(rational_map, p)
        without_a_process(monkeypatch,
                          max(16, projective_size(rational_map.n, p) // 6))
    rep = scan_exhaustive(rational_map, p, workers=workers)
    assert list(rep.fiber_histogram.items()) == list(histogram.items())
    assert rep.base_points == base
    assert rep.image_size == image
    assert serial is None or rep == serial


@pytest.mark.parametrize("parts", [3, 7, 20])
@pytest.mark.parametrize("name", sorted(CASES))
def test_pooled_scans_equal_in_process_ones(monkeypatch, name, parts):
    # asked for 2 or 64 workers, an exhaustive scan of many tasks counts
    # every task into its one array, in its own process
    build, p = CASES[name]
    rational_map = build()
    serial = scan_exhaustive(rational_map, p)
    without_a_process(monkeypatch,
                      max(16, projective_size(rational_map.n, p) // parts))
    # P^1 is one prefix, e_1 and one task
    tasks = len(oracle._block_tasks(rational_map.n, p))
    assert (tasks > 1) == (rational_map.n > 1)
    for workers in (2, 64):
        assert scan_exhaustive(rational_map, p, workers=workers) == serial


@pytest.mark.parametrize("block", [31, 7 * 31 + 3, 1 << 16])
def test_tiles_of_any_size_give_the_same_counts(monkeypatch, block):
    # _REDUCE_BLOCK // p prefixes a tile: one prefix a tile, 7 with a
    # ragged last tile (the one task's 993 = 7 * 141 + 6 prefixes), and the
    # default, against the unique-and-merge counter
    rational_map = polar_of("x0*x1*x2*x3")
    histogram, base, image = reference_counts(rational_map, 31)
    monkeypatch.setattr(oracle, "_REDUCE_BLOCK", block)
    rep = scan_exhaustive(rational_map, 31)
    assert list(rep.fiber_histogram.items()) == list(histogram.items())
    assert (rep.base_points, rep.image_size) == (base, image)


def test_prefix_coefficients_are_evaluated_once_per_task(monkeypatch):
    # the g_{j,k} of a task are evaluated once; its tiles only expand them
    evaluated, keyed = [], []
    real_evaluate, real_keys = oracle._evaluate_images, oracle._normalized_keys

    def evaluate(tables, coords, p, work=None):
        evaluated.append(len(coords))
        return real_evaluate(tables, coords, p, work)

    def keys(images, p, work=None):
        keyed.append(len(images))
        return real_keys(images, p, work)

    monkeypatch.setattr(oracle, "_evaluate_images", evaluate)
    monkeypatch.setattr(oracle, "_normalized_keys", keys)
    scan_exhaustive(polar_of("x0*x1*x2*x3"), 101)
    assert len(evaluated) == len(oracle._block_tasks(3, 101))
    assert len(keyed) > len(evaluated)
    assert max(keyed) <= oracle._REDUCE_BLOCK


@pytest.mark.parametrize("n, p", [(1, 2), (2, 2), (3, 2), (5, 2), (1, 3),
                                  (1, 101), (2, 5), (3, 7), (4, 3)])
def test_projective_index_is_a_bijection(n, p):
    # every point of P^n(F_p), each scaled by a nonzero factor, must hit
    # every position of the count array once
    indices = []
    for pivot in range(n + 1):
        points = block_points(n, p, pivot)
        factors = np.arange(len(points), dtype=np.int32) % (p - 1) + 1
        index, base = oracle._normalized_keys(points * factors[:, None] % p, p)
        assert base == 0
        assert index.dtype == np.int32
        indices.append(index)
    assert sorted(np.concatenate(indices).tolist()) == \
        list(range(projective_size(n, p)))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_a_point_keys_to_its_enumeration_position(n, p):
    # one numbering for points and images: a point's index is its position
    # in the enumeration, its pivot block's offset plus its place in the
    # block.  The points of any range lo..hi key to lo..hi: 2p-point pieces
    # of P^n, some ragged, all of P^n, and ranges across each boundary
    # between pivot blocks, from one point on either side to p + 1 before
    size = projective_size(n, p)
    starts = [size - projective_size(n - k, p) for k in range(1, n + 1)]
    ranges = [(lo, min(lo + 2 * p, size)) for lo in range(0, size, 2 * p)]
    ranges += [(0, size)] + [(max(0, start - before), min(size, start + after))
                             for start in starts
                             for before, after in ((1, 1), (p + 1, 2))]
    for lo, hi in ranges:
        points = oracle._chunk_points(n, p, lo, hi)
        assert points.dtype == np.int32 and points.shape == (hi - lo, n + 1)
        factors = np.arange(len(points), dtype=np.int32) % (p - 1) + 1
        index, base = oracle._normalized_keys(points * factors[:, None] % p, p)
        assert base == 0
        assert index.tolist() == list(range(lo, hi))


def identity_map(n):
    return RationalMap([parse_polynomial(f"x{j}", nvars=n + 1)
                        for j in range(n + 1)])


def all_points(n, p):
    """Every point of P^n(F_p) in index order."""
    return oracle._chunk_points(n, p, 0, projective_size(n, p))


@pytest.mark.parametrize("p", [2, 5])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_tasks_count_every_point_once_and_only_the_last_holds_e_n(
        monkeypatch, n, p):
    # 3 prefixes a task, so that ranges cross the pivot blocks of P^(n-1)
    # (p^(n-1), .., p, 1 prefixes); under the identity a task's own fiber
    # array and its sampled counts, every point a target, show the points
    # it scanned: its grid, indices lo * p..hi * p, and e_n in the last
    monkeypatch.setattr(oracle, "_CHUNK", 3 * p)
    prefixes, domain = projective_size(n - 1, p), projective_size(n, p)
    tasks = oracle._block_tasks(n, p)
    assert tasks[0][0] == 0 and tasks[-1][1] == prefixes
    assert all(a[1] == b[0] for a, b in zip(tasks, tasks[1:]))
    ends = np.cumsum([p ** (n - 1 - k) for k in range(n)])
    crossing = [(lo, hi) for lo, hi in tasks if ((lo < ends) & (ends < hi)).any()]
    assert crossing or n < 2
    split = oracle._component_tables(identity_map(n), p)
    target_index = np.arange(domain, dtype=np.int32)
    # every low-bit pattern of a target index is marked
    marked = np.zeros(oracle._MARK_BITS, dtype=bool)
    marked[target_index & (oracle._MARK_BITS - 1)] = True
    columns = oracle._head_columns(split[1], p)
    table = oracle._ratio_table(all_points(n, p), columns, p)
    counted = np.zeros(domain, dtype=np.int64)
    # one workspace for every task of both modes, as a scan hands it over
    work = oracle._Workspace(split, n, p)
    for lo, hi in tasks:
        expected = np.zeros(domain, dtype=np.int64)
        expected[lo * p:hi * p] = 1
        expected[-1] = hi == prefixes
        fibers = np.zeros(domain, dtype=np.int32)
        assert oracle._exhaustive_chunk((split, n, p, lo, hi, fibers, work)) == 0
        assert np.array_equal(fibers, expected), (lo, hi)
        counts, base = oracle._sampled_chunk(
            (split, n, p, lo, hi, target_index, marked, columns, table, work))
        assert np.array_equal(counts, expected) and base == 0, (lo, hi)
        counted += fibers
    assert (counted == 1).all()


@pytest.mark.parametrize("p", [3, 7])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_grid_points_key_to_prefix_index_times_p_plus_t(monkeypatch, n, p):
    # a grid row, prefix lo + r // p at x_n = t, scaled by a nonzero factor,
    # keys to (lo + r // p) * p + t, across pivot blocks (2 prefixes a task
    # of odd-sized blocks); the prefixes themselves key to lo..hi in P^(n-1)
    # and e_n, read off the identity's split, to the last index
    monkeypatch.setattr(oracle, "_CHUNK", 2 * p)
    rng = np.random.default_rng(n * p)
    for lo, hi in oracle._block_tasks(n, p):
        prefixes = oracle._chunk_points(n - 1, p, lo, hi)
        t = np.arange(p, dtype=np.int32)
        if n:
            assert oracle._normalized_keys(prefixes, p)[0].tolist() == \
                list(range(lo, hi))
        points = np.concatenate([np.repeat(prefixes, p, axis=0),
                                 np.tile(t, hi - lo)[:, None]], axis=1)
        factors = rng.integers(1, p, size=len(points), dtype=np.int32)
        index, base = oracle._normalized_keys(points * factors[:, None] % p, p)
        assert base == 0
        assert index.tolist() == list(range(lo * p, hi * p))
    split = oracle._component_tables(identity_map(n), p)
    index, base = oracle._normalized_keys(oracle._last_image(split, p), p)
    assert index.tolist() == [projective_size(n, p) - 1] and base == 0


@pytest.mark.parametrize("p", [5, 101])
def test_e_n_as_the_only_base_point(p):
    # (x0^2, x0*x1, x1^2) vanishes on P^2 only at e_2 = (0, 0, 1)
    m = RationalMap([parse_polynomial(text, nvars=3)
                     for text in ("x0^2", "x0*x1", "x1^2")])
    assert scan_exhaustive(m, p).base_points == 1
    assert scan_sampled(m, p, targets=8, seed=0).base_points == 1


def test_identity_tiles_key_to_contiguous_runs(monkeypatch):
    # the quadric's polar map is 2 * identity: every exhaustive tile counts
    # into one contiguous run of the fiber array, and the runs tile it
    runs = []
    real = oracle._normalized_keys

    def keys(images, p, work=None):
        index, base = real(images, p, work)
        run = np.arange(index[0], index[0] + len(index))
        assert np.array_equal(index, run)
        runs.append((int(index[0]), len(index)))
        return index, base

    monkeypatch.setattr(oracle, "_normalized_keys", keys)
    p = 211
    domain = projective_size(3, p)
    rep = scan_exhaustive(polar_of("x0^2 + x1^2 + x2^2 + x3^2"), p)
    assert rep.fiber_histogram == {1: domain}
    assert len(runs) > 1
    starts = np.cumsum([0] + [length for _, length in sorted(runs)])
    assert [start for start, _ in sorted(runs)] == starts[:-1].tolist()
    assert starts[-1] == domain


def random_rows(rng, n, p, count):
    """Rows of every pivot, a few zero rows, and random scalings."""
    rows = []
    for t in range(count):
        pivot = t % (n + 2)
        row = [0] * min(pivot, n + 1) + [rng.randrange(p)
                                         for _ in range(n + 1 - pivot)]
        if pivot <= n:
            row[pivot] = rng.randrange(1, p)
        rows.append(row)
    return rows


# p = 1289 is the largest prime with |P^3(F_p)| < 2^31, the int32 index
@pytest.mark.parametrize("n, p", [(2, 101), (3, 1289)])
def test_index_matches_the_reference_point(n, p):
    rows = random_rows(random.Random(n * p), n, p, 600)
    index, base = oracle._normalized_keys(np.array(rows, dtype=np.int32), p)
    expected = [ProjectivePoint(r, p).index() if any(r) else -1 for r in rows]
    assert index.tolist() == expected
    assert base == expected.count(-1) > 0
    assert index.dtype == np.int32


class RouteSpy:
    """Stands in for numpy in oracle: records the size of each array that
    _reduce hands to np.remainder or to its quotient route."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(np, name)

    def remainder(self, values, p, out=None):
        self.calls.append(("remainder", values.size))
        return np.remainder(values, p, out=out)

    def floor_divide(self, values, p, out=None):
        self.calls.append(("quotient", values.size))
        return np.floor_divide(values, p, out=out)


# below _REDUCE_ROWS elements _reduce takes np.remainder, from it the
# quotient route
@pytest.mark.parametrize("count", [1, 1199, 1200, 4095, 4096])
def test_index_of_few_and_many_rows(count, monkeypatch):
    assert oracle._REDUCE_ROWS == 1200
    spy = RouteSpy()
    monkeypatch.setattr(oracle, "np", spy)
    n, p = 3, 101
    rows = random_rows(random.Random(count), n, p, count)
    index, base = oracle._normalized_keys(np.array(rows, dtype=np.int32), p)
    monkeypatch.undo()
    expected = [ProjectivePoint(r, p).index() if any(r) else -1 for r in rows]
    assert index.tolist() == expected
    assert base == expected.count(-1)
    # the n products of the top level have a row each; deeper levels, on
    # the rows of a later pivot, fewer
    assert [size for _, size in spy.calls].count(count) == n
    assert spy.calls == [
        ("quotient" if size >= 1200 else "remainder", size)
        for _, size in spy.calls]


@pytest.mark.parametrize("pivot", [0, 1])
def test_chunk_points_at_the_top_of_the_int32_range(pivot):
    # the last positions of the largest int32 blocks, 1289^3 - 1 =
    # 2,141,700,568 at pivot 0, and the last index of pivot 1,
    # 1289^3 + 1289^2 - 1: digits by floor-divide against int64 %
    n, p = 3, 1289
    hi = p ** (n - pivot)
    lo = hi - 5000
    start = projective_size(n, p) - projective_size(n - pivot, p)
    coords = oracle._chunk_points(n, p, start + lo, start + hi)
    assert coords.dtype == np.int32
    idx = np.arange(lo, hi, dtype=np.int64)
    expected = np.zeros((hi - lo, n + 1), dtype=np.int64)
    expected[:, pivot] = 1
    for slot in range(n, pivot, -1):
        expected[:, slot] = idx % p
        idx //= p
    assert np.array_equal(coords, expected)
    assert coords[-1].tolist() == [0] * pivot + [1] + [p - 1] * (n - pivot)


def test_index_refused_at_2_31_points():
    # 1291 and 1297 are the next primes: past 2^31 points there is no int32
    # index, and the encoder refuses instead of wrapping
    assert projective_size(3, 1289) < 2 ** 31 <= projective_size(3, 1291)
    rows = np.array([[1, 2, 3, 4], [0, 0, 0, 5]], dtype=np.int32)
    for p in (1291, 1297):
        with pytest.raises(ResourceBoundError, match="int32 point index"):
            oracle._normalized_keys(rows, p)


def test_index_of_one_coordinate_rows():
    # P^0(F_p) is one point: every nonzero row is index 0, zero rows are base
    p = 7
    rows = [[c] for c in (3, 0, 1, 6, 0, 0, 5)]
    index, base = oracle._normalized_keys(np.array(rows, dtype=np.int32), p)
    expected = [ProjectivePoint(r, p).index() if any(r) else -1 for r in rows]
    assert index.tolist() == expected == [0, -1, 0, 0, -1, -1, 0]
    assert base == 3 and index.dtype == np.int32


@pytest.mark.parametrize("n, p", [(5, 31), (3, 1289)])
def test_index_of_mixed_pivots_matches_the_reference_point(n, p):
    # one block holding every pivot depth 0..n, base rows, and many rows of
    # pivot n (the deepest level of the pivot recursion), shuffled
    rng = random.Random(n + p)
    rows = random_rows(rng, n, p, 40 * (n + 2))
    rows += [[0] * n + [rng.randrange(1, p)] for _ in range(300)]
    rng.shuffle(rows)
    index, base = oracle._normalized_keys(np.array(rows, dtype=np.int32), p)
    expected = [ProjectivePoint(r, p).index() if any(r) else -1 for r in rows]
    assert index.tolist() == expected
    assert base == expected.count(-1) == 40
    assert expected.count(projective_size(n, p) - 1) >= 300
    assert index.dtype == np.int32


@pytest.mark.parametrize("bad_index", [-1, -2, -12, projective_size(2, 13),
                                       projective_size(2, 13) + 1, 13 ** 3,
                                       13 ** 3 + 1])
def test_scan_raises_on_a_key_without_index(monkeypatch, bad_index):
    real = oracle._normalized_keys

    def corrupted(images, p, work=None):
        index, base = real(images, p, work)
        index[0] = bad_index
        return index, base

    monkeypatch.setattr(oracle, "_normalized_keys", corrupted)
    with pytest.raises(InconsistencyError):
        scan_exhaustive(polar_of("x0^2 + x1^2 + x2^2"), 13)


@pytest.mark.parametrize("bad_index", [-2, projective_size(3, 13)])
def test_multi_task_scan_raises_on_a_key_without_index(monkeypatch, bad_index):
    # the range check runs in every task, with the message of a one-task scan
    real = oracle._normalized_keys

    def corrupted(images, p, work=None):
        index, base = real(images, p, work)
        index[0] = bad_index
        return index, base

    pm = polar_of("x0^2 + x1^2 + x2^2 + x3^2")
    monkeypatch.setattr(oracle, "_normalized_keys", corrupted)
    assert len(oracle._block_tasks(3, 13)) == 1
    with pytest.raises(InconsistencyError) as one_task:
        scan_exhaustive(pm, 13)
    without_a_process(monkeypatch, 13 ** 2)
    assert len(oracle._block_tasks(3, 13)) > 1
    with pytest.raises(InconsistencyError) as tasks:
        scan_exhaustive(pm, 13, workers=2)
    assert str(tasks.value) == str(one_task.value)


def test_scan_allocates_one_domain_array(monkeypatch):
    # tracemalloc sees numpy's allocations: the 4-byte-per-point fiber
    # array, and besides it only the buffers of a task, a tile and a
    # histogram slice, each far below a second array of the domain
    pm = polar_of("x0^2 + x1^2 + x2^2 + x3^2")
    p, chunk = 131, 1 << 14
    domain = projective_size(3, p)
    serial = scan_exhaustive(pm, p)
    without_a_process(monkeypatch, chunk)
    tracemalloc.start()
    try:
        rep = scan_exhaustive(pm, p, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep == serial
    # about 60 bytes per chunk point here; a second array adds 4 per domain
    # point, 550 per chunk point
    assert 4 * domain <= peak < 4 * domain + 128 * chunk


def test_int32_domain_refused_before_allocating(monkeypatch):
    # |P^3(F_1297)| = 2,183,508,580 >= 2^31: the int32 counts and indices
    # cannot hold it, whatever the domain bound
    assert projective_size(3, 1297) >= 2 ** 31
    monkeypatch.setattr(oracle, "DEFAULT_MAX_DOMAIN", 10 ** 10)

    def no_tasks(n, p):
        raise AssertionError("tasks built for a domain past the int32 bound")

    monkeypatch.setattr(oracle, "_block_tasks", no_tasks)
    with pytest.raises(ResourceBoundError):
        scan_exhaustive(polar_of("x0^2 + x1^2 + x2^2 + x3^2"), 1297)


def test_sampled_int32_domain_refused_before_drawing_targets(monkeypatch):
    # a raised sampled bound does not lift the int32 point index: the scan
    # refuses P^3(F_1297) before it draws a target
    monkeypatch.setattr(oracle, "SAMPLED_MAX_DOMAIN", 10 ** 10)

    def no_targets(*args):
        raise AssertionError("targets drawn for a domain past the int32 bound")

    monkeypatch.setattr(oracle, "_sample_targets", no_targets)
    with pytest.raises(ResourceBoundError, match="int32 point index"):
        scan_sampled(polar_of("x0^2 + x1^2 + x2^2 + x3^2"), 1297)


def test_one_chunk_scans_run_in_process(monkeypatch):
    # P^2(F_101) fits in one task: workers 2 runs it here, as workers 1 does
    pm = polar_of("x0*x1*x2")
    serial = (scan_exhaustive(pm, 101, workers=1),
              scan_sampled(pm, 101, targets=8, seed=3, workers=1))
    without_a_process(monkeypatch, oracle._CHUNK)
    assert len(oracle._block_tasks(pm.n, 101)) == 1
    assert scan_exhaustive(pm, 101, workers=2) == serial[0]
    assert scan_sampled(pm, 101, targets=8, seed=3, workers=2) == serial[1]
