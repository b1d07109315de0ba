"""Sampled scans: the head columns, the head-table prefilter against the
chunk that keys every row, the width cut, the rows it keeps against the
reference points, the per-prefix path of heads free of x_n, and the
empty-fiber safety net."""

import functools

import numpy as np
import pytest

from polarmap import oracle
from polarmap.errors import InconsistencyError
from polarmap.oracle import projective_size, scan_exhaustive, scan_sampled
from polarmap.parsing import parse_arrangement, parse_polynomial
from polarmap.polar import RationalMap, moving_part, polar_system

from projective import ProjectivePoint


def polar_of(text):
    return polar_system(parse_polynomial(text))


def moving_of(text):
    return moving_part(parse_arrangement(text)).moving


DET_CUBIC = "x0*x3*x5 - x0*x4^2 - x1^2*x5 + 2*x1*x2*x4 - x2^2*x3"
QUARTIC = "x0^4 + 3*x0^3*x1 + 2*x0^2*x1^2 + x0*x1^3 + x1^4"
CREMONA_P4 = "x0*x1*x2*x3*x4"
QUADRIC_P3 = "x0^2 + x1^2 + x2^2 + x3^2"
QUADRIC_P4 = "x0^2 + x1^2 + x2^2 + x3^2 + x4^2"


def keyed_chunk(args):
    """The reference: index every row of the chunk, then match the targets."""
    split, n, p, pivot, lo, hi, target_index = args[:7]
    index, base = oracle._normalized_keys(
        oracle._block_images(split, n, p, pivot, lo, hi), p)
    positions = np.searchsorted(target_index, index)
    positions[positions == len(target_index)] = 0
    hits = target_index[positions] == index
    counts = np.bincount(positions[hits], minlength=len(target_index))
    return counts, base


def pivot_targets(split, n, p, count):
    """Up to `count` image indices with t_0 = 0 from the first chunk, and
    an image row of each."""
    pivot, lo, hi = oracle._block_tasks(n, p)[0]
    images = oracle._block_images(split, n, p, pivot, lo, hi)
    index, _ = oracle._normalized_keys(images, p)
    keys, first = np.unique(index, return_index=True)
    # pivot-0 points have the indices below p^n
    pick = keys >= p ** n
    return keys[pick][:count], images[first[pick][:count]]


def targets_with_pivot_targets(rational_map, p, extra):
    """Sampled target indices and rows, plus `extra` t_0 = 0 targets."""
    n = rational_map.n
    tables = oracle._component_tables(rational_map, p)
    split = oracle._split_tables(tables, n)
    sampled, rows = oracle._sample_targets(tables, rational_map.nvars, p, 64, 0)
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
    # the first pivot-0 chunk, every pivot >= 1 block (the last is one point)
    return tasks[:1] + [task for task in tasks if task[0] >= 1]


CASES = {
    # head (2, 4, 5) free of x_5: whole grid rows; a pivot >= 1 block and
    # the one-point last block
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
}


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
    assert tasks[-1] == (n, 0, 1)
    total = np.zeros(len(target_keys), dtype=np.int64)
    for pivot, lo, hi in tasks:
        args = (split, n, p, pivot, lo, hi, target_keys, table)
        expected_counts, expected_base = keyed_chunk(args)
        counts, base = oracle._sampled_chunk(args)
        assert counts.dtype == expected_counts.dtype
        assert np.array_equal(counts, expected_counts), (pivot, lo, hi)
        assert base == expected_base, (pivot, lo, hi)
        total += counts
    if extra:
        # the t_0 = 0 targets really were hit
        assert total[np.isin(target_keys, pivot_keys)].all()


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
    tables = oracle._component_tables(rational_map, p)
    powers = oracle._split_tables(tables, rational_map.n)[1]
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
    tables = oracle._component_tables(rational_map, p)
    powers = oracle._split_tables(tables, rational_map.n)[1]
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
    # ratios = p^(w-1), the heads with y_0 != 0
    width = oracle._head_width(n, p)
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


def test_ratio_table_entries():
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


def recording_keys(monkeypatch):
    """Patch _normalized_keys to record every block of rows it is given."""
    keyed = []
    normalized_keys = oracle._normalized_keys

    def recording(images, p):
        keyed.append(images.copy())
        return normalized_keys(images, p)

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
    pivot, lo, hi = oracle._block_tasks(n, p)[0]
    images = oracle._block_images(split, n, p, pivot, lo, hi)
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
    oracle._sampled_chunk((split, n, p, pivot, lo, hi, target_keys, table))
    assert len(keyed) == 1
    assert np.array_equal(keyed[0], expected)
    # every t_0 = 0 target added has a preimage among the rows keyed
    zero_first = np.unique(keyed[0][keyed[0][:, 0] == 0], axis=0)
    hit = {ProjectivePoint(row, p).index()
           for row in zero_first.tolist() if any(row)}
    assert set(pivot_keys.tolist()) <= hit


def recording_evaluations(monkeypatch):
    """Patch _evaluate_images to record, per call, the indices of the
    tables it evaluates and the number of rows."""
    calls = []
    evaluate_images = oracle._evaluate_images

    def recording(tables, coords, p):
        calls.append(({i for i, (_, coeffs) in enumerate(tables) if coeffs},
                      len(coords)))
        return evaluate_images(tables, coords, p)

    monkeypatch.setattr(oracle, "_evaluate_images", recording)
    return calls


def test_prefilter_keys_few_rows(monkeypatch):
    """On the det cubic at p=31 the head (2, 4, 5) is free of x_5: the
    rows keyed are whole rows of the x_5 grid, most rows are dropped
    before keying, and the other prefix tables are evaluated on the kept
    prefixes only."""
    rational_map = polar_of(DET_CUBIC)
    n, p = rational_map.n, 31
    split, target_keys, rows, _ = targets_with_pivot_targets(
        rational_map, p, 0)
    prefix_tables, powers = split
    columns = oracle._head_columns(powers, p)
    assert columns == [2, 4, 5] and is_flat(split, p)
    table = oracle._ratio_table(rows, columns, p)
    pivot, lo, hi = oracle._block_tasks(n, p)[0]
    images = oracle._block_images(split, n, p, pivot, lo, hi)
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
    oracle._sampled_chunk((split, n, p, pivot, lo, hi, target_keys, table))
    assert len(keyed) == 1
    assert np.array_equal(keyed[0], expected)
    assert len(expected) < (hi - lo) // 5
    head_tables = {powers[j][0] for j in columns}
    rest_tables = set(range(len(prefix_tables))) - head_tables
    assert calls == [(head_tables, (hi - lo) // p),
                     (rest_tables, int(passing.sum()))]


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


def test_sampled_scan_of_a_map_of_p0():
    # P^0 has a head of one coordinate: every row passes
    rational_map = RationalMap([parse_polynomial("x0^2")])
    sampled = scan_sampled(rational_map, 7, targets=2)
    exhaustive = scan_exhaustive(rational_map, 7)
    assert (sampled.degree, sampled.dominant, sampled.homaloidal) == \
        (exhaustive.degree, exhaustive.dominant, exhaustive.homaloidal)
    assert sampled.base_points == exhaustive.base_points == 0
