"""Sampled scans: the ratio-table prefilter against the chunk that keys
every row, the one- and two-ratio cut, and the empty-fiber safety net."""

import numpy as np
import pytest

from polarmap import oracle
from polarmap.errors import InconsistencyError
from polarmap.oracle import scan_sampled
from polarmap.parsing import parse_arrangement, parse_polynomial
from polarmap.polar import moving_part, polar_system


def polar_of(text):
    return polar_system(parse_polynomial(text))


def moving_of(text):
    return moving_part(parse_arrangement(text)).moving


DET_CUBIC = "x0*x3*x5 - x0*x4^2 - x1^2*x5 + 2*x1*x2*x4 - x2^2*x3"
QUARTIC = "x0^4 + 3*x0^3*x1 + 2*x0^2*x1^2 + x0*x1^3 + x1^4"


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
    """Up to `count` image indices with t_0 = 0 from the first chunk."""
    pivot, lo, hi = oracle._block_tasks(n, p)[0]
    index, _ = oracle._normalized_keys(
        oracle._block_images(split, n, p, pivot, lo, hi), p)
    # pivot-0 points have the indices below p^n
    return np.unique(index[index >= p ** n])[:count]


def det_cubic_tasks(tasks):
    # the first pivot-0 chunk, every pivot >= 1 block (the last is one point)
    return tasks[:1] + [task for task in tasks if task[0] >= 1]


CASES = {
    # two ratios; a pivot >= 1 block and the one-point last block
    "det_cubic_p31": (lambda: polar_of(DET_CUBIC), 31, det_cubic_tasks, 0),
    # n = 1: one ratio
    "binary_quartic_p103": (lambda: polar_of(QUARTIC), 103, None, 0),
    # many rows with y_0 = 0 and many base rows
    "cremona_p4_p31": (lambda: moving_of("x0*x1*x2*x3*x4"), 31, None, 0),
    # targets with t_0 = 0 on top of the sampled ones (the Cremona map
    # has four: the coordinate points e_1..e_4)
    "cremona_p4_pivot_targets": (lambda: moving_of("x0*x1*x2*x3*x4"), 31,
                                 None, 4),
    "det_cubic_pivot_targets": (lambda: polar_of(DET_CUBIC), 31,
                                det_cubic_tasks, 8),
    # p^2 above 2^20: one ratio
    "quadric_p1031": (lambda: polar_of("x0^2 + x1^2 + x2^2"), 1031, None, 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_prefiltered_chunk_matches_the_keyed_chunk(name):
    build, p, pick, extra = CASES[name]
    rational_map = build()
    n = rational_map.n
    tables = oracle._component_tables(rational_map, p)
    split = oracle._split_tables(tables, n)
    sampled, _ = oracle._sample_targets(tables, rational_map.nvars, p, 64, 0)
    target_keys = np.unique(sampled)
    if extra:
        pivot_keys = pivot_targets(split, n, p, extra)
        assert len(pivot_keys) == extra
        target_keys = np.unique(np.concatenate([target_keys, pivot_keys]))
    table = oracle._ratio_table(target_keys, n, p)
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


@pytest.mark.parametrize("n, p, size", [
    (5, 31, 31 ** 2), (2, 1021, 1021 ** 2),   # p^2 <= 2^20: two ratios
    (2, 1031, 1031), (5, 1031, 1031),         # p^2 > 2^20: one ratio
    (1, 103, 103), (1, 31, 31),               # n = 1: one ratio
])
def test_ratio_table_cut(n, p, size):
    table = oracle._ratio_table(np.array([1], dtype=np.int64), n, p)
    assert table.dtype == np.bool_ and table.size == size
    assert table.nbytes <= 1 << 20


def test_ratio_table_entries():
    p = 7
    # t = (1, 0, 0, 4), (1, 3, 5, 0), (1, 6, 0, 0), and (0, 1, 2, 0) with
    # t_0 = 0, which sets no entry
    two = oracle._ratio_table(
        np.array([4 * p * p, 3 + 5 * p, 6, p ** 3 + 2], dtype=np.int32), 3, p)
    assert np.flatnonzero(two).tolist() == [0, 6, 3 + 5 * p]
    # on P^1: t = (1, 3), (1, 6), (1, 0), and (0, 1)
    one = oracle._ratio_table(np.array([3, 6, 0, p], dtype=np.int32), 1, p)
    assert np.flatnonzero(one).tolist() == [0, 3, 6]


def test_prefilter_keys_few_rows(monkeypatch):
    """On the det cubic at p=31 most rows are dropped before keying."""
    rational_map = polar_of(DET_CUBIC)
    n, p = rational_map.n, 31
    tables = oracle._component_tables(rational_map, p)
    split = oracle._split_tables(tables, n)
    sampled, _ = oracle._sample_targets(tables, rational_map.nvars, p, 64, 0)
    target_keys = np.unique(sampled)
    pivot, lo, hi = oracle._block_tasks(n, p)[0]
    keyed = []
    normalized_keys = oracle._normalized_keys

    def counting(images, p):
        keyed.append(len(images))
        return normalized_keys(images, p)

    monkeypatch.setattr(oracle, "_normalized_keys", counting)
    oracle._sampled_chunk((split, n, p, pivot, lo, hi, target_keys,
                           oracle._ratio_table(target_keys, n, p)))
    assert keyed and sum(keyed) < (hi - lo) // 5


@pytest.mark.parametrize("text, p", [
    ("x0^2 + x1^2 + x2^2", 101),   # two ratios
    (QUARTIC, 103),                # one ratio
])
def test_a_dropped_table_entry_raises(monkeypatch, text, p):
    """A filter that loses a target's ratio must fail the scan, not pass."""
    rational_map = polar_of(text)
    assert scan_sampled(rational_map, p, targets=8, seed=0).dominant
    ratio_table = oracle._ratio_table

    def dropping(target_keys, n, p):
        table = ratio_table(target_keys, n, p)
        pivot0 = target_keys[target_keys < p ** n]
        table[pivot0[0] % table.size] = False
        return table

    monkeypatch.setattr(oracle, "_ratio_table", dropping)
    with pytest.raises(InconsistencyError, match="no preimage"):
        scan_sampled(rational_map, p, targets=8, seed=0)
