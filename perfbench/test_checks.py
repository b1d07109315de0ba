"""The benchmark's own checks must reject wrong results.

Run with: python3 -m pytest perfbench/test_checks.py
"""

import json
import os
import sys

import pytest

import run
import tracing
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- census ------------------------------------------------------------------

def census_report(homaloidal, degree=1, dominant=True):
    return {"homaloidal": homaloidal, "degree": degree, "dominant": dominant}


def test_census_expected_by_determinant():
    assert wl.census_expected(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert not wl.census_expected(((1, 0, 0), (0, 1, 0), (1, 1, 0)))  # det 0
    assert not wl.census_expected(((1, 0, 0), (0, 1, 0)))
    assert not wl.census_expected(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))


def test_census_check_rejects_wrong_flag():
    assert wl.check_census(True, census_report(True)) == []
    assert wl.check_census(False, census_report(False, degree=2, dominant=False)) == []
    assert wl.check_census(True, census_report(False))
    assert wl.check_census(False, census_report(True))
    assert wl.check_census(True, census_report(True, degree=2))


def test_census_inputs_cover_every_arrangement_twice():
    ops = wl.census_inputs(7)
    assert len(ops) == 2 * 1092
    assert ops == wl.census_inputs(7)
    by_forms = {}
    for text, forms, expected in ops:
        by_forms.setdefault(forms, []).append(text)
        assert expected == wl.census_expected(forms)
    assert len(by_forms) == 1092
    for forms, texts in by_forms.items():
        squarefree, variant = sorted(texts, key=lambda t: "^" in t)
        assert "^" not in squarefree and "^" in variant


def test_census_count_matches_classify_by_determinant():
    triples = [t for t in wl.census_inputs(0) if len(t[1]) == 3 and "^" not in t[0]]
    assert len(triples) == 286
    assert sum(expected for _, _, expected in triples) == 246


# -- exhaustive --------------------------------------------------------------

def exhaustive_result(kind, p, **changes):
    histogram, base = wl.exhaustive_expected(kind, p)
    result = {"fiber_histogram": {str(k): v for k, v in histogram.items()},
              "base_points": base, "degree": 1, "dominant": True,
              "homaloidal": True}
    result.update(changes)
    return result


@pytest.mark.parametrize("p", [5, 7, 211, 229])
def test_exhaustive_expectations_account_for_every_point(p):
    for kind in ("quadric", "cremona"):
        histogram, base = wl.exhaustive_expected(kind, p)
        assert base + sum(s * c for s, c in histogram.items()) == \
            wl.projective_count(3, p)


@pytest.mark.parametrize("kind", ["quadric", "cremona"])
def test_exhaustive_check_rejects_wrong_results(kind):
    p = 211
    assert wl.check_exhaustive(kind, p, exhaustive_result(kind, p)) == []
    wrong_hist = exhaustive_result(kind, p, fiber_histogram={"1": 5, "2": 7})
    assert wl.check_exhaustive(kind, p, wrong_hist)
    base = wl.exhaustive_expected(kind, p)[1]
    assert wl.check_exhaustive(kind, p, exhaustive_result(kind, p, base_points=base + 1))
    assert wl.check_exhaustive(kind, p, exhaustive_result(kind, p, homaloidal=False))


# -- sampled -----------------------------------------------------------------

def sampled_result(**changes):
    result = {"fiber_histogram": {"1": 60, "961": 4}, "base_points": 993,
              "degree": 1, "dominant": True, "homaloidal": True}
    result.update(changes)
    return result


def test_sampled_det_cubic_check_rejects_wrong_results():
    assert wl.check_sampled("det_cubic", 31, sampled_result()) == []
    assert wl.check_sampled("det_cubic", 31, sampled_result(base_points=992))
    assert wl.check_sampled("det_cubic", 31,
                            sampled_result(fiber_histogram={"1": 60, "2": 4}))
    assert wl.check_sampled("det_cubic", 31, sampled_result(homaloidal=False))


def test_sampled_smooth_degree_is_d_minus_1_to_the_n():
    good = {"fiber_histogram": {"1": 10, "4": 50}, "base_points": 0,
            "degree": 4, "dominant": True, "homaloidal": False}
    assert wl.check_sampled("hesse_cubic", 103, good) == []
    assert wl.check_sampled("hesse_cubic", 103, dict(good, degree=2))
    assert wl.check_sampled("hesse_cubic", 103, dict(good, base_points=3))
    assert wl.check_sampled("binary_quartic", 103, dict(good, degree=1))
    quadric = dict(good, degree=1, homaloidal=True)
    assert wl.check_sampled("quadric_p4", 31, quadric) == []
    assert wl.check_sampled("quadric_p4", 31, dict(quadric, homaloidal=False))


def test_known_faults_are_the_fixed_seed_inputs():
    fixed = {wl.op_id("sampled", name, p, 1)
             for name, _, _, _, p, seed in wl.SMOOTH if seed is not None}
    assert fixed == set(wl.KNOWN_FAULTS)


# -- cli ---------------------------------------------------------------------

def report_json(degree, homaloidal, histogram):
    return json.dumps({"degree": degree, "homaloidal": homaloidal,
                       "fiber_histogram": {str(k): v for k, v in histogram.items()}})


def test_cli_check_rejects_wrong_exit_codes():
    moving = "base divisor: 1\ncomponent 0: x1*x2\ncomponent 1: x0*x2\ncomponent 2: x0*x1\n"
    assert wl.check_cli("moving", 0, moving) == []
    assert wl.check_cli("moving", 2, moving)
    assert wl.check_cli("certify_twisted_default", 3, "") == []
    assert wl.check_cli("certify_twisted_default", 0, "")


def test_cli_check_rejects_wrong_outputs():
    assert wl.check_cli("moving", 0, "base divisor: 1\ncomponent 0: x1\n")
    good = report_json(1, True, {1: 10000, 100: 3})
    assert wl.check_cli("certify_monomial", 0, good) == []
    assert wl.check_cli("certify_monomial", 0, report_json(1, False, {1: 10000, 100: 3}))
    assert wl.check_cli("certify_monomial", 0, report_json(1, True, {1: 10003}))
    twisted = report_json(3, False, {1: 10, 3: 30})
    assert wl.check_cli("certify_twisted_two_primes", 0, twisted) == []
    assert wl.check_cli("certify_twisted_two_primes", 0, report_json(1, True, {1: 10}))
    classify = "arrangements: 286\nhomaloidal: 246\n"
    assert wl.check_cli("classify_n2_r2", 0, classify) == []
    assert wl.check_cli("classify_n2_r2", 0, "arrangements: 286\nhomaloidal: 245\n")


def test_twisted_cube_blind_class():
    assert wl.twisted_cube_blind(101)
    assert not wl.twisted_cube_blind(109) and not wl.twisted_cube_blind(227)


# -- metrics and tracing -----------------------------------------------------

def test_benchmark_json_lists_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_nearest_rank_quantile():
    assert run.quantile([3.0], 0.99) == 3.0
    assert run.quantile(list(range(1, 101)), 0.99) == 99
    assert run.quantile(list(range(1, 9)), 0.5) == 4


def test_traced_scan_reports_kernel_layers():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from polarmap import oracle, verdict

    tracer = tracing.Tracer()
    tracing.install(tracer)
    rep = oracle.scan_exhaustive(verdict.standard_cremona(2), 31, workers=1)
    assert tracer.absent == []
    metrics = tracing.layer_metrics([{"spans": tracer.spans, "rss_bytes": 1}], 1)
    assert metrics["oracle.scans"] == 1
    assert metrics["oracle.points"] == rep.domain_size
    assert metrics["oracle.base_points"] == rep.base_points == 3
    for layer in ("points", "eval", "keys", "count", "merge"):
        assert metrics[f"oracle.{layer}_ns_per_point"] > 0
    assert metrics["oracle.chunks"] >= 1 and metrics["oracle.chunk_result_bytes"] > 0
