"""Sampled scans: the head columns, the head-table prefilter against the
chunk that keys every row, the width cut, the rows it keeps against the
reference points, the per-prefix path of heads free of x_n, the bitmap of
the targets' low bits before the target search, and the empty-fiber safety
net."""

import functools
import tracemalloc

import numpy as np
import pytest

from polarmap import oracle
from polarmap.errors import InconsistencyError
from polarmap.oracle import projective_size, scan_exhaustive, scan_sampled
from polarmap.parsing import parse_arrangement, parse_polynomial
from polarmap.polar import RationalMap, moving_part, polar_system

from projective import ProjectivePoint


def polar_of(text, nvars=None):
    return polar_system(parse_polynomial(text, nvars=nvars))


def moving_of(text):
    return moving_part(parse_arrangement(text)).moving


DET_CUBIC = "x0*x3*x5 - x0*x4^2 - x1^2*x5 + 2*x1*x2*x4 - x2^2*x3"
QUARTIC = "x0^4 + 3*x0^3*x1 + 2*x0^2*x1^2 + x0*x1^3 + x1^4"
CREMONA_P4 = "x0*x1*x2*x3*x4"
QUADRIC_P3 = "x0^2 + x1^2 + x2^2 + x3^2"
QUADRIC_P4 = "x0^2 + x1^2 + x2^2 + x3^2 + x4^2"


def images_at(split, prefixes, t, p):
    """Images of the points with prefixes x_0..x_{n-1} and x_n = t."""
    return oracle._expand_images(oracle._evaluate_images(split[0], prefixes, p),
                                 split[1], t, p)


def chunk_images(split, n, p, lo, hi):
    """The image of every point of the task's grid, in scan order."""
    return images_at(split, oracle._chunk_points(n - 1, p, lo, hi),
                     np.arange(p, dtype=np.int32), p)


def task_args(split, n, p, lo, hi, target_index, table):
    """_sampled_chunk's arguments for one task, in order, as scan_sampled
    and _run_tasks pass them: the targets' low-bit bitmap, the head
    columns and a workspace added."""
    marked = np.zeros(oracle._MARK_BITS, dtype=bool)
    marked[target_index & (oracle._MARK_BITS - 1)] = True
    return (split, n, p, lo, hi, target_index, marked,
            oracle._head_columns(split[1], p), table,
            oracle._Workspace(split, n, p))


def keyed_chunk(args):
    """The reference: index every row of the task, e_n evaluated as a zero
    prefix at x_n = 1 after the grid of the last task, then match the
    targets."""
    split, n, p, lo, hi, target_index = args[:6]
    images = chunk_images(split, n, p, lo, hi)
    if hi == projective_size(n - 1, p):
        last = images_at(split, np.zeros((1, n), dtype=np.int32),
                         np.ones(1, dtype=np.int32), p)
        images = np.concatenate([images, last])
    index, base = oracle._normalized_keys(images, p)
    positions = np.searchsorted(target_index, index)
    positions[positions == len(target_index)] = 0
    hits = target_index[positions] == index
    counts = np.bincount(positions[hits], minlength=len(target_index))
    return counts, base


def pivot_targets(split, n, p, count):
    """Up to `count` image indices with t_0 = 0 from the first task, and
    an image row of each."""
    lo, hi = oracle._block_tasks(n, p)[0]
    images = chunk_images(split, n, p, lo, hi)
    index, _ = oracle._normalized_keys(images, p)
    keys, first = np.unique(index, return_index=True)
    # pivot-0 points have the indices below p^n
    pick = keys >= p ** n
    return keys[pick][:count], images[first[pick][:count]]


def targets_with_pivot_targets(rational_map, p, extra):
    """Sampled target indices and rows, plus `extra` t_0 = 0 targets."""
    n = rational_map.n
    split = oracle._component_tables(rational_map, p)
    sampled, rows = oracle._sample_targets(split, rational_map.nvars, p, 64, 0)
    target_keys = np.unique(sampled)
    pivot_keys = np.zeros(0, dtype=target_keys.dtype)
    if extra:
        pivot_keys, pivot_rows = pivot_targets(split, n, p, extra)
        assert len(pivot_keys) == extra
        target_keys = np.unique(np.concatenate([target_keys, pivot_keys]))
        rows = np.concatenate([rows, pivot_rows])
    return split, target_keys, rows, pivot_keys


def head_table(split, rows, p):
    """The scan's head table: the target rows on the chosen head columns."""
    return oracle._ratio_table(rows, oracle._head_columns(split[1], p), p)


def is_flat(split, p):
    """True when no head column holds x_n (the per-prefix path)."""
    powers = split[1]
    return not any(k for j in oracle._head_columns(powers, p) for k in powers[j])


def det_cubic_tasks(tasks):
    # the first task, the one whose prefixes cross from pivot 0 to pivot 1
    # of P^4, and the last, every pivot >= 2 block of P^4 and e_5
    return tasks[:1] + tasks[-2:]


CASES = {
    # head (2, 4, 5) free of x_5: whole grid rows; a task across pivot
    # blocks and the last task, with e_5
    "det_cubic_p31": (lambda: polar_of(DET_CUBIC), 31, det_cubic_tasks, 0, True),
    "det_cubic_p7": (lambda: polar_of(DET_CUBIC), 7, None, 0, True),
    # n = 1: w = 2, both components hold x_1
    "binary_quartic_p103": (lambda: polar_of(QUARTIC), 103, None, 0, False),
    # head (4, 0, 1): many rows with y_0 = 0 and many base rows
    "cremona_p4_p31": (lambda: moving_of(CREMONA_P4), 31, None, 0, False),
    # targets with t_0 = 0 on top of the sampled ones (the Cremona map
    # has four: the coordinate points e_1..e_4)
    "cremona_p4_pivot_targets": (lambda: moving_of(CREMONA_P4), 31, None, 4,
                                 False),
    "det_cubic_pivot_targets": (lambda: polar_of(DET_CUBIC), 31,
                                det_cubic_tasks, 8, True),
    # P^2(F_p) has 2^20 points or more: w = 2, head (0, 1) free of x_2
    "quadric_p1031": (lambda: polar_of("x0^2 + x1^2 + x2^2"), 1031, None, 0,
                      True),
    # and head (2, 0), which holds x_2 in column 0
    "cremona_p2_p1031": (lambda: polar_of("x0*x1*x2"), 1031, None, 0, False),
    # head (0, 1, 2) free of x_3 at the last prime of the raw head table,
    # 101^3 = 1,030,301 entries, and at the first past it (projective
    # heads on P^2)
    "quadric_p3_p101": (lambda: polar_of(QUADRIC_P3), 101, None, 0, True),
    "quadric_p3_p103": (lambda: polar_of(QUADRIC_P3), 103, None, 0, True),
    # head (0, 1, 3) free of x_3, not the first three columns
    "split_quadric_p101": (lambda: polar_of("x0*x1 + x2*x3"), 101, None, 0,
                           True),
    # projective heads on P^2 that hold x_2
    "cremona_p2_p103": (lambda: polar_of("x0*x1*x2"), 103, None, 0, False),
    # a small prime: many zero heads and base rows, most raw heads set
    "cremona_p4_p5": (lambda: moving_of(CREMONA_P4), 5, None, 0, False),
    # cones: head (2, 1, 0) holds the zero component and x_2
    "cone_p2_p101": (lambda: polar_of("x1*x2*(x1-x2)", nvars=3), 101, None,
                     0, False),
    # and head (1, 2, 3) free of x_4, the zero component outside it
    "quadric_cone_p4_p31": (lambda: polar_of("x1^2 + x2^2 + x3^2 + x4^2",
                                             nvars=5), 31, None, 0, True),
}


def counts_match_the_keyed_chunk(split, n, p, tasks, target_keys, table):
    """Assert _sampled_chunk equals keyed_chunk on every task; the summed
    counts."""
    total = np.zeros(len(target_keys), dtype=np.int64)
    for lo, hi in tasks:
        args = task_args(split, n, p, lo, hi, target_keys, table)
        expected_counts, expected_base = keyed_chunk(args)
        counts, base = oracle._sampled_chunk(*args)
        assert counts.dtype == expected_counts.dtype
        assert np.array_equal(counts, expected_counts), (lo, hi)
        assert base == expected_base, (lo, hi)
        total += counts
    return total


@pytest.mark.parametrize("name", sorted(CASES))
def test_prefiltered_chunk_matches_the_keyed_chunk(name):
    build, p, pick, extra, flat = CASES[name]
    rational_map = build()
    n = rational_map.n
    split, target_keys, rows, pivot_keys = targets_with_pivot_targets(
        rational_map, p, extra)
    assert is_flat(split, p) == flat
    table = head_table(split, rows, p)
    tasks = oracle._block_tasks(n, p)
    if pick:
        tasks = pick(tasks)
    assert tasks[-1][1] == projective_size(n - 1, p)
    total = counts_match_the_keyed_chunk(split, n, p, tasks, target_keys, table)
    if extra:
        # the t_0 = 0 targets really were hit
        assert total[np.isin(target_keys, pivot_keys)].all()


def test_a_scan_builds_its_head_once(monkeypatch):
    """The head columns and the head table are built once per scan and
    handed to every task, never again per task."""
    rational_map = polar_of(DET_CUBIC)
    expected = scan_sampled(rational_map, 7, targets=16, seed=2)
    calls = {"_head_columns": 0, "_ratio_table": 0}
    for name in calls:
        def counted(*args, real=getattr(oracle, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(oracle, name, counted)
    monkeypatch.setattr(oracle, "_CHUNK", 7 * 50)
    assert len(oracle._block_tasks(rational_map.n, 7)) > 50
    assert scan_sampled(rational_map, 7, targets=16, seed=2) == expected
    assert calls == {"_head_columns": 1, "_ratio_table": 1}


def low_bit_targets(split, n, p, task):
    """Image indices a, a + 2^16, c and c + 2^16 of the task's grid, and
    an image row of each: a and a + 2^16 share their low 16 bits, and
    c + 2^16 has those of c."""
    images = chunk_images(split, n, p, *task)
    index, _ = oracle._normalized_keys(images, p)
    keys, first = np.unique(index, return_index=True)
    upper = np.intersect1d(keys[keys >= 0], keys + (1 << 16),
                           assume_unique=True)
    assert len(upper) >= 4
    picked = [upper[0] - (1 << 16), upper[0], upper[-1] - (1 << 16), upper[-1]]
    assert len(set(picked)) == 4
    return picked, images[first[np.searchsorted(keys, picked)]]


@pytest.mark.parametrize("name", ["quadric_p3_p101", "det_cubic_p31"])
def test_low_bit_bitmap_passes_every_target_and_counts_no_other(name):
    """The bitmap of the targets' low 16 bits only narrows the rows sent to
    the binary search: two targets that share their low bits are both
    counted, and rows of a non-target with a target's low bits are not.
    On domains past 2^16 points, against the chunk that keys every row."""
    build, p, pick = CASES[name][:3]
    rational_map = build()
    n = rational_map.n
    assert projective_size(n, p) > 1 << 16
    split, sampled, rows, _ = targets_with_pivot_targets(rational_map, p, 0)
    tasks = oracle._block_tasks(n, p)
    (a, a_up, c, decoy), picked_rows = low_bit_targets(split, n, p, tasks[0])
    target_keys = np.unique(np.concatenate(
        [sampled, np.array([a, a_up, c], dtype=sampled.dtype)]))
    assert decoy not in target_keys
    assert (a & 0xFFFF) == (a_up & 0xFFFF) and (c & 0xFFFF) == (decoy & 0xFFFF)
    # the decoy's head is in the table too, so its rows pass the head
    # filter and only the bitmap and the index comparison stand between
    # them and a count
    table = head_table(split, np.concatenate([rows, picked_rows]), p)
    if pick:
        tasks = pick(tasks)
    total = counts_match_the_keyed_chunk(split, n, p, tasks, target_keys, table)
    assert total[np.isin(target_keys, [a, a_up, c])].all()


HEADS = {
    # the partials 2, 4 and 5 are free of x_5
    "det_cubic": (lambda: polar_of(DET_CUBIC), 31, [2, 4, 5]),
    "quadric_p4": (lambda: polar_of(QUADRIC_P4), 31, [0, 1, 2]),
    # only component 4, x0*x1*x2*x3, is free of x_4; then by index
    "cremona_p4": (lambda: moving_of(CREMONA_P4), 31, [4, 0, 1]),
    "split_quadric": (lambda: polar_of("x0*x1 + x2*x3"), 101, [0, 1, 3]),
    # w = 2 past the cut
    "cremona_p2_p1031": (lambda: polar_of("x0*x1*x2"), 1031, [2, 0]),
    "quadric_p2_p1031": (lambda: polar_of("x0^2 + x1^2 + x2^2"), 1031, [0, 1]),
    "binary_quartic": (lambda: polar_of(QUARTIC), 103, [0, 1]),
}


@pytest.mark.parametrize("name", sorted(HEADS))
def test_head_columns_take_the_lowest_powers_of_the_last_variable(name):
    build, p, columns = HEADS[name]
    rational_map = build()
    powers = oracle._component_tables(rational_map, p)[1]
    assert oracle._head_columns(powers, p) == columns


CONES = {
    # the zero partial comes last, though it holds no x_n; here after
    # x1^2 - 2*x1*x2 and 2*x1*x2 - x2^2, by their top powers of x_2
    "cone_p2": ("x1*x2*(x1-x2)", 3, 101, [2, 1, 0]),
    # past the head, or behind a column that holds x_3
    "quadric_cone_p4": ("x1^2 + x2^2 + x3^2 + x4^2", 5, 31, [1, 2, 3]),
    "quadric_cone_p3": ("x1^2 + x2^2 + x3^2", 4, 31, [1, 2, 3]),
}


@pytest.mark.parametrize("name", sorted(CONES))
def test_zero_components_of_a_cone_come_last(name):
    text, nvars, p, columns = CONES[name]
    rational_map = polar_system(parse_polynomial(text, nvars=nvars))
    assert rational_map.components[0].is_zero
    powers = oracle._component_tables(rational_map, p)[1]
    assert oracle._head_columns(powers, p) == columns


def multiples(heads, p):
    """Raw digits (y_0 p + y_1) p + y_2 of c * head, every c in F_p."""
    return {functools.reduce(lambda acc, y: acc * p + c * y % p, head, 0)
            for head in heads for c in range(p)}


@pytest.mark.parametrize("n, p, ratios", [
    (5, 31, 31 ** 2), (2, 1021, 1021 ** 2),   # |P^2(F_p)| < 2^20: w = 3
    (2, 1031, 1031), (5, 1031, 1031),         # |P^2(F_p)| >= 2^20: w = 2
    (1, 103, 103), (1, 31, 31),               # n = 1: w = 2
    (0, 7, 1),                                # P^0: w = 1
    # the raw cut: 101^3 = 1,030,301 entries, 103^3 > 2^20; for n = 1,
    # 1021^2 = 1,042,441 entries and 1031^2 > 2^20
    (2, 101, 101 ** 2), (2, 103, 103 ** 2), (5, 103, 103 ** 2),
    (1, 1021, 1021), (1, 1031, 1031),
])
def test_ratio_table_cut(n, p, ratios):
    # ratios = p^(w-1), the heads with y_0 != 0; w from the head columns of
    # n + 1 components free of x_n
    width = len(oracle._head_columns([[0]] * (n + 1), p))
    assert p ** (width - 1) == ratios
    table = oracle._ratio_table(np.ones((1, n + 1), dtype=np.int32),
                                list(range(width)), p)
    assert table.dtype == np.bool_
    assert table.size <= oracle._HEAD_TABLE_ENTRIES == 1 << 20
    if ratios * p <= 1 << 20:
        # raw: p^w heads, set for the multiples of (1, .., 1), 0 among them
        assert table.size == ratios * p
        assert set(np.flatnonzero(table).tolist()) == \
            multiples([[1] * width], p)
    else:
        # projective: a point of P^(w-1)(F_p) each, then the zero head,
        # 1021^2 + 1021 + 2 entries at p = 1021
        assert table.size == projective_size(width - 1, p) + 1 == \
            (ratios * p - 1) // (p - 1) + 1
        assert np.flatnonzero(table).tolist() == \
            [ProjectivePoint([1] * width, p).index(), table.size - 1]


def seeded_rows(count, p, seed):
    """count seeded rows of 4 residues mod p: every tenth is zero on its
    first three columns, and the one after it repeats it."""
    rows = np.random.default_rng(seed).integers(0, p, size=(count, 4),
                                                dtype=np.int32)
    rows[::10, :3] = 0
    rows[1::10] = rows[::10]
    return rows


def test_ratio_table_entries(monkeypatch):
    p = 7
    # heads (1, 0, 0), (2, 6, 3), (1, 6, 0), (0, 1, 2) with t_0 = 0, and
    # the zero head of a target (w = 3 needs n >= 2)
    rows = np.array([[1, 0, 0, 4], [2, 6, 3, 0], [1, 6, 0, 0], [0, 1, 2, 0],
                     [0, 0, 0, 5]], dtype=np.int32)
    three = oracle._ratio_table(rows, [0, 1, 2], p)
    assert three.size == p ** 3
    heads = rows[:, :3].tolist()
    assert set(np.flatnonzero(three).tolist()) == multiples(heads, p)
    # against the reference points: a raw head is set exactly when it is
    # zero, which no target needs, or a target's head in P^2
    target_heads = {ProjectivePoint(head, p) for head in heads if any(head)}
    for raw in range(p ** 3):
        digits = [raw // p ** 2, raw // p % p, raw % p]
        assert three[raw] == (not any(digits) or
                              ProjectivePoint(digits, p) in target_heads)
    # on P^1: t = (1, 3), (1, 6), (1, 0), (0, 1)
    two_rows = [[1, 3], [1, 6], [1, 0], [0, 1]]
    two = oracle._ratio_table(np.array(two_rows, dtype=np.int32), [0, 1], p)
    assert set(np.flatnonzero(two).tolist()) == multiples(two_rows, p)
    # on P^0 every head is a multiple of the point
    assert oracle._ratio_table(np.array([[3]], dtype=np.int32), [0], p).all()
    # any columns, in the order given: heads (y_3, y_1, y_2)
    picked = oracle._ratio_table(rows, [3, 1, 2], p)
    assert set(np.flatnonzero(picked).tolist()) == \
        multiples(rows[:, [3, 1, 2]].tolist(), p)
    # projective layout (p = 103): one entry per target head in P^2, and
    # the trailing entry, the zero head, set though no target has it
    q = 103
    projective = oracle._ratio_table(rows[:4], [0, 1, 2], q)
    assert projective.size == projective_size(2, q) + 1
    assert np.flatnonzero(projective).tolist() == \
        sorted(ProjectivePoint(head, q).index() for head in heads[:4]) + \
        [projective_size(2, q)]
    # more heads than a block of _REDUCE_BLOCK multiples holds: at p=101
    # (raw, w = 3) a block is 655 heads times c = 1..100, so the zero head
    # and 2,000 targets fill four blocks, the last one partly
    p = 101
    many = seeded_rows(2000, p, 3401)
    raw = oracle._ratio_table(many, [0, 1, 2], p)
    assert set(np.flatnonzero(raw).tolist()) == \
        multiples(many[:, :3].tolist(), p)
    # projective (p = 1031, w = 3): one multiple a head, so blocks of 512
    # heads give four again
    q = 1031
    monkeypatch.setattr(oracle, "_REDUCE_BLOCK", 512)
    many = seeded_rows(2000, q, 3402)
    projective = oracle._ratio_table(many, [0, 1, 2], q)
    assert projective.size == projective_size(2, q) + 1
    assert np.flatnonzero(projective).tolist() == sorted(
        {ProjectivePoint(head, q).index()
         for head in many[:, :3].tolist() if any(head)}) + \
        [projective_size(2, q)]


def test_ratio_table_memory():
    # SAMPLED_MAX_TARGETS targets at p=101 (raw, w = 3): 100 multiples of
    # 65,537 heads would take 75 MiB at once; a block at a time the build
    # peaks at 3.5 MiB (numpy 2.4): the 1 MiB table, the heads (0.75 MiB)
    # and their copy off the rows, one block of multiples and its index
    p = 101
    rows = seeded_rows(oracle.SAMPLED_MAX_TARGETS, p, 3403)
    tracemalloc.start()
    try:
        table = oracle._ratio_table(rows, [0, 1, 2], p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.size == p ** 3
    assert peak < 4 << 20


def recording_keys(monkeypatch):
    """Patch _normalized_keys to record every block of rows it is given."""
    keyed = []
    normalized_keys = oracle._normalized_keys

    def recording(images, p, work=None):
        keyed.append(images.copy())
        return normalized_keys(images, p, work)

    monkeypatch.setattr(oracle, "_normalized_keys", recording)
    return keyed


@pytest.mark.parametrize("extra", [0, 4])
def test_prefilter_keys_exactly_the_rows_with_a_target_head(monkeypatch, extra):
    """Rows whose head starts with a zero are kept only if their head is
    zero or a target's: checked against the reference points on a chunk
    with many of them."""
    rational_map = moving_of(CREMONA_P4)
    n, p = rational_map.n, 31
    split, target_keys, rows, pivot_keys = targets_with_pivot_targets(
        rational_map, p, extra)
    columns = oracle._head_columns(split[1], p)
    assert columns == [4, 0, 1]
    table = oracle._ratio_table(rows, columns, p)
    # the one task: every prefix of P^3(F_31), then e_4
    tasks = oracle._block_tasks(n, p)
    assert len(tasks) == 1
    lo, hi = tasks[0]
    images = chunk_images(split, n, p, lo, hi)
    target_heads = {ProjectivePoint(row, p)
                    for row in rows[:, columns].tolist() if any(row)}
    # each head as one base-p integer: a 1-D unique, not a row-wise one
    weights = p ** np.arange(len(columns) - 1, -1, -1)
    codes, of_row = np.unique(images[:, columns] @ weights, return_inverse=True)
    heads = codes[:, None] // weights % p
    passing = np.array([not any(head) or
                        ProjectivePoint(head, p) in target_heads
                        for head in heads.tolist()])
    expected = images[passing[of_row]]
    kept_zero_first = (expected[:, columns[0]] == 0).sum()
    assert kept_zero_first > 10_000
    if not extra:
        # the sampled targets miss e_1, so its preimages (head (0, 0, c))
        # drop out
        assert kept_zero_first < (images[:, columns[0]] == 0).sum()

    keyed = recording_keys(monkeypatch)
    oracle._sampled_chunk(*task_args(split, n, p, lo, hi, target_keys,
                                     table))
    assert len(keyed) == 2
    assert np.array_equal(keyed[0], expected)
    # e_4, keyed on its own: a base point, as every component holds three
    # of x_0..x_3
    assert keyed[1].tolist() == [[0, 0, 0, 0, 0]]
    # every t_0 = 0 target added has a preimage among the rows keyed
    zero_first = np.unique(keyed[0][keyed[0][:, 0] == 0], axis=0)
    hit = {ProjectivePoint(row, p).index()
           for row in zero_first.tolist() if any(row)}
    assert set(pivot_keys.tolist()) <= hit


def recording_evaluations(monkeypatch):
    """Patch _evaluate_images to record, per call, the tables it evaluates
    and the rows it evaluates them on."""
    calls = []
    evaluate_images = oracle._evaluate_images

    def recording(tables, coords, p, work=None):
        calls.append((tables, coords.copy()))
        return evaluate_images(tables, coords, p, work)

    monkeypatch.setattr(oracle, "_evaluate_images", recording)
    return calls


def test_prefilter_keys_few_rows(monkeypatch):
    """On the det cubic at p=31 the head (2, 4, 5) is free of x_5: the
    rows keyed are whole rows of the x_5 grid, most rows are dropped
    before keying, and only the head's prefix tables see the dropped
    prefixes."""
    rational_map = polar_of(DET_CUBIC)
    n, p = rational_map.n, 31
    split, target_keys, rows, _ = targets_with_pivot_targets(
        rational_map, p, 0)
    prefix_tables, powers = split
    columns = oracle._head_columns(powers, p)
    assert columns == [2, 4, 5] and is_flat(split, p)
    table = oracle._ratio_table(rows, columns, p)
    lo, hi = oracle._block_tasks(n, p)[0]
    assert hi < projective_size(n - 1, p)
    images = chunk_images(split, n, p, lo, hi)
    # the reference: a grid row is kept when its head, the same at every
    # value of x_5, is zero or a multiple of a target's head
    target_heads = {ProjectivePoint(row, p)
                    for row in rows[:, columns].tolist() if any(row)}
    grid_heads = images[:, columns].reshape(-1, p, len(columns))
    assert (grid_heads == grid_heads[:, :1]).all()
    passing = np.array([not any(head) or
                        ProjectivePoint(head, p) in target_heads
                        for head in grid_heads[:, 0].tolist()])
    expected = images.reshape(-1, p, n + 1)[passing].reshape(-1, n + 1)

    keyed = recording_keys(monkeypatch)
    calls = recording_evaluations(monkeypatch)
    oracle._sampled_chunk(*task_args(split, n, p, lo, hi, target_keys,
                                     table))
    assert len(keyed) == 1
    assert np.array_equal(keyed[0], expected)
    assert len(expected) < (hi - lo) * p // 5
    # the head split's tables on all hi - lo prefixes, then every prefix
    # table on the kept prefixes only, and no other call
    prefixes = oracle._chunk_points(n - 1, p, lo, hi)
    assert len(prefixes) == hi - lo
    head_tables = [prefix_tables[powers[j][0]] for j in columns]
    assert [tables for tables, _ in calls] == [head_tables, prefix_tables]
    assert np.array_equal(calls[0][1], prefixes)
    assert np.array_equal(calls[1][1], prefixes[passing])


@pytest.mark.parametrize("text, p, columns", [
    pytest.param(text, p, columns, id=f"{text}-{p}")
    for text, p, columns in [
        ("x0^2 + x1^2 + x2^2", 101, [0, 1, 2]),   # raw, w = 3
        ("x0^2 + x1^2 + x2^2", 103, [0, 1, 2]),   # projective, w = 3
        (QUARTIC, 103, [0, 1]),                   # raw, w = 2
        # heads free of x_3, looked up once per prefix
        (QUADRIC_P3, 101, [0, 1, 2]),             # raw
        (QUADRIC_P3, 103, [0, 1, 2]),             # projective
        ("x0*x1 + x2*x3", 101, [0, 1, 3]),        # raw, not the first three
    ]
])
def test_a_dropped_table_entry_raises(monkeypatch, text, p, columns):
    """A filter that loses a target's head must fail the scan, not pass."""
    rational_map = polar_of(text)
    assert scan_sampled(rational_map, p, targets=8, seed=0).dominant
    ratio_table = oracle._ratio_table

    def dropping(target_rows, chosen, p):
        # a row hits a target t only as c * t, c != 0: clearing the entry
        # of every such head loses all of t's preimages (a single raw
        # entry is one c alone)
        table = ratio_table(target_rows, chosen, p)
        assert chosen == columns
        head = next(row[chosen] for row in target_rows if row[chosen].any())
        for c in range(1, p):
            table[oracle._head_index(head[:, None] * c % p, p)] = False
        return table

    monkeypatch.setattr(oracle, "_ratio_table", dropping)
    with pytest.raises(InconsistencyError, match="no preimage"):
        scan_sampled(rational_map, p, targets=8, seed=0)


def test_e_n_alone_hits_its_target(monkeypatch):
    # the quadric's polar map is 2 * identity: the target e_2, the last
    # index, has e_2 as its only preimage, scanned apart from every grid;
    # a scan that loses it raises
    rational_map = polar_of("x0^2 + x1^2 + x2^2")
    p = 101
    last = projective_size(2, p) - 1
    sample_targets = oracle._sample_targets

    def with_e_n(*args):
        indices, rows = sample_targets(*args)
        assert last not in indices
        return (np.append(indices, np.int32(last)),
                np.concatenate([rows, np.array([[0, 0, 2]], dtype=rows.dtype)]))

    monkeypatch.setattr(oracle, "_sample_targets", with_e_n)
    rep = scan_sampled(rational_map, p, targets=8, seed=0)
    assert rep.image_size == 9 and rep.fiber_histogram == {1: 9}
    monkeypatch.setattr(oracle, "_last_image",
                        lambda split, p: np.zeros((1, 3), dtype=np.int32))
    with pytest.raises(InconsistencyError, match="1 sampled image points have no"):
        scan_sampled(rational_map, p, targets=8, seed=0)


def test_sampled_scan_of_a_map_of_p0():
    # P^0 has a head of one coordinate: every row passes
    rational_map = RationalMap([parse_polynomial("x0^2")])
    sampled = scan_sampled(rational_map, 7, targets=2)
    exhaustive = scan_exhaustive(rational_map, 7)
    assert (sampled.degree, sampled.dominant, sampled.homaloidal) == \
        (exhaustive.degree, exhaustive.dominant, exhaustive.homaloidal)
    assert sampled.base_points == exhaustive.base_points == 0
