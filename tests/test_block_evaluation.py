"""Block-structured scan evaluation: the prefix-then-Horner evaluator
against the per-row evaluator it replaced in the scans, and chunk
tiling."""

import numpy as np
import pytest

from polarmap import oracle
from polarmap.fields import QQ
from polarmap.oracle import projective_size, scan_exhaustive, scan_sampled
from polarmap.parsing import parse_arrangement, parse_polynomial
from polarmap.polar import RationalMap, moving_part, polar_system
from polarmap.poly import Polynomial


def polar_of(text, nvars=None):
    return polar_system(parse_polynomial(text, nvars=nvars))


def moving_of(text, nvars=None):
    return moving_part(parse_arrangement(text, nvars=nvars)).moving


def map_of(*texts):
    return RationalMap([parse_polynomial(t, nvars=len(texts)) for t in texts])


def dense_binary(degree, coeff):
    """Every monomial x0^a x1^(degree-a) with the same coefficient."""
    return Polynomial(QQ, 2, {(a, degree - a): coeff for a in range(degree + 1)})


DET_CUBIC = "x0*x3*x5 - x0*x4^2 - x1^2*x5 + 2*x1*x2*x4 - x2^2*x3"
QUARTIC = "x0^4 + 3*x0^3*x1 + 2*x0^2*x1^2 + x0*x1^3 + x1^4"

def det_cubic_tasks(tasks):
    # the first task, the one whose prefixes cross from pivot 0 to pivot 1
    # of P^4, and the last, every pivot >= 2 block of P^4 and e_5
    return tasks[:1] + tasks[-2:]


CASES = {
    "det_cubic_p7": (lambda: polar_of(DET_CUBIC), 7),
    # every row of P^5(F_31) would take the per-row reference ~10 s; the
    # chunks picked run every code path
    "det_cubic_p31": (lambda: polar_of(DET_CUBIC), 31, det_cubic_tasks),
    "det_cubic_p3": (lambda: polar_of(DET_CUBIC), 3),
    "quadric_p2": (lambda: polar_of("x0^2 + x1^2 + x2^2"), 101),
    "quadric_p3": (lambda: polar_of("x0^2 + x1^2 + x2^2 + x3^2"), 101),
    "cremona_p2": (lambda: polar_of("x0*x1*x2"), 101),
    "cremona_p3": (lambda: polar_of("x0*x1*x2*x3"), 101),
    "cremona_p2_mod2": (lambda: polar_of("x0*x1*x2"), 2),
    "cremona_p3_mod3": (lambda: polar_of("x0*x1*x2*x3"), 3),
    "det_cubic_p2": (lambda: polar_of(DET_CUBIC), 2),
    "twisted_cube_p109": (lambda: moving_of("x0*x1*(x0+x1)*(x0-x1)"), 109),
    "binary_quartic_polar": (lambda: polar_of(QUARTIC), 103),
    "binary_quartic_degree4": (lambda: map_of(QUARTIC, "x0*x1^3"), 103),
    # first component zero, the others involve x_n
    "cone_zero_component": (lambda: polar_of("x1*x2*(x1-x2)", nvars=3), 101),
    # no component involves x_n, the last one is zero
    "independent_of_last": (lambda: moving_of("x0*x1*(x0-x1)", nvars=3), 101),
    "independent_of_last_full": (lambda: map_of("x0^2", "x0*x1", "x1^2"), 31),
    # every Horner step reaches (p-1)^2 + (p-1), just below 2^31
    "int32_edge": (lambda: RationalMap([dense_binary(60, -1),
                                        Polynomial(QQ, 2, {(0, 60): -1})]),
                   46337),
}


def points_at(n, p, lo, hi):
    """The points of P^n(F_p) at indices lo..hi, from a _chunk_points piece
    of every pivot block of P^n the range meets (blocks of smaller pivot
    first, a point's index its place in its block past them)."""
    pieces, start = [], 0
    for pivot in range(n + 1):
        end = start + p ** (n - pivot)
        if lo < end and start < hi:
            pieces.append(oracle._chunk_points(n, p, pivot, max(lo, start) - start,
                                               min(hi, end) - start))
        start = end
    return np.concatenate(pieces)


def per_row_images(tables, n, p, lo, hi):
    """The reference: build the points of indices lo..hi, evaluate row by
    row."""
    return oracle._evaluate_images(tables, points_at(n, p, lo, hi), p)


@pytest.mark.parametrize("name", sorted(CASES))
def test_block_images_match_the_per_row_evaluator(name):
    """The task's grid from _block_images, a seeded subset of its points
    gathered as (prefix rows, each point's own x_n) and expanded from the
    evaluated prefixes, and e_n read off the split."""
    build, p, *pick = CASES[name]
    rational_map = build()
    n = rational_map.n
    tables = oracle._component_tables(rational_map, p)
    split = oracle._split_tables(tables, n)
    tasks = oracle._block_tasks(n, p)
    if pick:
        tasks = pick[0](tasks)
    assert tasks[-1][1] == projective_size(n - 1, p)
    rng = np.random.default_rng(0)
    for lo, hi in tasks:
        expected = per_row_images(tables, n, p, lo * p, hi * p)
        prefixes, last = oracle._block_grid(n, p, lo, hi)
        images = oracle._block_images(split, prefixes, last, p)
        assert images.dtype == np.int32
        assert images.shape == expected.shape
        assert np.array_equal(images, expected), (lo, hi)
        size = (hi - lo) * p
        points = rng.choice(size, size=min(size, 1000), replace=False)
        rows, cols = np.divmod(points, len(last))
        values = oracle._evaluate_images(split[0], prefixes, p)
        gathered = oracle._expand_images(values[rows], split[1],
                                         last[cols][:, None], p)
        assert gathered.dtype == np.int32
        assert np.array_equal(gathered, expected[points]), (lo, hi)
    last_point = projective_size(n, p) - 1
    assert np.array_equal(oracle._last_image(split, p),
                          per_row_images(tables, n, p, last_point, last_point + 1))


def test_the_edge_case_runs_horner_at_the_largest_prime():
    # the largest prime the tables accept, a coefficient of value p-1 at
    # every power of x_n: 60 Horner steps, each up to (p-1)^2 + (p-1)
    p = 46337
    assert (p - 1) ** 2 + (p - 1) < 2 ** 31
    tables = oracle._component_tables(CASES["int32_edge"][0](), p)
    prefix_tables, powers = oracle._split_tables(tables, 1)
    assert sorted(powers[0]) == list(range(61))
    assert all(coeffs == [p - 1] for _, coeffs in prefix_tables)


@pytest.mark.parametrize("n, p, chunk", [
    (1, 2, 1 << 20), (3, 2, 1), (3, 7, 5), (3, 7, 7), (3, 7, 50),
    (2, 101, 16), (2, 101, 1000), (5, 3, 10), (4, 11, 1 << 20), (1, 101, 1),
])
def test_tasks_tile_each_block_once_in_whole_rows(monkeypatch, n, p, chunk):
    # a task is whole rows of the x_n grid, at most max(p, chunk) points:
    # its prefixes tile P^(n-1) once, and e_n makes up the rest
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    tasks = oracle._block_tasks(n, p)
    assert tasks[0][0] == 0
    assert tasks[-1][1] == projective_size(n - 1, p)
    assert all(a[1] == b[0] for a, b in zip(tasks, tasks[1:]))
    for lo, hi in tasks:
        assert 0 < (hi - lo) * p <= max(p, chunk)
    assert sum(hi - lo for lo, hi in tasks) * p + 1 == projective_size(n, p)


def test_a_census_scan_is_one_task():
    # P^2(F_101): the 102 prefixes of P^1 and e_2 in one task, not one task
    # per pivot block
    assert oracle._block_tasks(2, 101) == [(0, 102)]


def test_chunks_smaller_than_p_give_the_same_scans(monkeypatch):
    # every task then holds p points, more than _CHUNK
    pm = polar_of("x0*x1*x2")
    reports = (scan_exhaustive(pm, 11),
               scan_sampled(pm, 11, targets=8, seed=3))
    monkeypatch.setattr(oracle, "_CHUNK", 4)
    assert scan_exhaustive(pm, 11) == reports[0]
    assert scan_sampled(pm, 11, targets=8, seed=3) == reports[1]
