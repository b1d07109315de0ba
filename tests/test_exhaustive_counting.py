"""Exhaustive fiber counting: the dense projective index against the
unique-and-merge counter it replaced, the index against the reference
point, index bijectivity, int32 bounds and in-process scans of small
domains."""

import random

import numpy as np
import pytest

from polarmap import oracle
from polarmap.cli import main
from polarmap.errors import InconsistencyError, ResourceBoundError
from polarmap.oracle import projective_size, scan_exhaustive, scan_sampled
from polarmap.parsing import parse_arrangement, parse_polynomial
from polarmap.polar import moving_part, polar_system

from projective import ProjectivePoint


def polar_of(text):
    return polar_system(parse_polynomial(text))


def moving_of(text, nvars=None):
    return moving_part(parse_arrangement(text, nvars=nvars)).moving


def reference_counts(rational_map, p):
    """(fiber histogram, base points, image size) by the former counter:
    np.unique per chunk, then one global unique(return_inverse) merge."""
    n = rational_map.n
    tables = oracle._component_tables(rational_map, p)
    uniqs, counts, base_points = [], [], 0
    for pivot, lo, hi in oracle._block_tasks(n, p):
        coords = oracle._chunk_points(n, p, pivot, lo, hi)
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


class CountingPool(oracle.ProcessPoolExecutor):
    built = 0

    def __init__(self, *args, **kwargs):
        CountingPool.built += 1
        super().__init__(*args, **kwargs)


class RefusedPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started for a one-chunk scan")


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
    if workers == 2:
        # every case fits in one default chunk and would run in-process;
        # smaller chunks send it through the pool and the slice loop
        domain = projective_size(rational_map.n, p)
        monkeypatch.setattr(oracle, "_CHUNK", max(16, domain // 6))
        CountingPool.built = 0
        monkeypatch.setattr(oracle, "ProcessPoolExecutor", CountingPool)
    rep = scan_exhaustive(rational_map, p, workers=workers)
    assert list(rep.fiber_histogram.items()) == list(histogram.items())
    assert rep.base_points == base
    assert rep.image_size == image
    if workers == 2:
        assert CountingPool.built == 1


@pytest.mark.parametrize("n, p", [(1, 2), (2, 2), (3, 2), (5, 2), (1, 3),
                                  (1, 101), (2, 5), (3, 7), (4, 3)])
def test_projective_index_is_a_bijection(n, p):
    # every point of P^n(F_p), each scaled by a nonzero factor, must hit
    # every position of the count array once
    indices = []
    for pivot, lo, hi in oracle._block_tasks(n, p):
        points = oracle._chunk_points(n, p, pivot, lo, hi)
        factors = np.arange(len(points), dtype=np.int32) % (p - 1) + 1
        index, base = oracle._normalized_keys(points * factors[:, None] % p, p)
        assert base == 0
        assert index.dtype == np.int32
        indices.append(index)
    assert sorted(np.concatenate(indices).tolist()) == \
        list(range(projective_size(n, p)))


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

    def corrupted(images, p):
        index, base = real(images, p)
        index[0] = bad_index
        return index, base

    monkeypatch.setattr(oracle, "_normalized_keys", corrupted)
    with pytest.raises(InconsistencyError):
        scan_exhaustive(polar_of("x0^2 + x1^2 + x2^2"), 13)


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
    pm = polar_of("x0*x1*x2")
    serial = (scan_exhaustive(pm, 101, workers=1),
              scan_sampled(pm, 101, targets=8, seed=3, workers=1))
    monkeypatch.setattr(oracle, "ProcessPoolExecutor", RefusedPool)
    assert scan_exhaustive(pm, 101, workers=2) == serial[0]
    assert scan_sampled(pm, 101, targets=8, seed=3, workers=2) == serial[1]


def run_classify(capsys, path, workers):
    assert main(["classify", "--n", "2", "--r", "2", "--workers", workers,
                 "--json", str(path)]) == 0
    return capsys.readouterr().out, path.read_bytes()


def test_classify_is_identical_at_one_and_two_workers(monkeypatch, capsys,
                                                      tmp_path):
    serial = run_classify(capsys, tmp_path / "w1.json", "1")
    # every scan of classify --n 2 fits in one chunk: no pool at all
    monkeypatch.setattr(oracle, "ProcessPoolExecutor", RefusedPool)
    assert run_classify(capsys, tmp_path / "w2.json", "2") == serial
