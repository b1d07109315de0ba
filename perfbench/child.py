"""One fresh benchmark process: set up, say READY, run its operations.

Usage: python3 perfbench/child.py JOB.json, with the checkout's src/ on
PYTHONPATH.  Set-up is importing numpy and polarmap and building the
workload's inputs from the seed; the parent times it from process launch
to the READY line.  The result goes to the job's result path as JSON, and
the spans (when traced) with it.

Job kinds:
  setup   set up and exit
  census  run census rounds until the time is up (first round untraced
          when the job asks for a baseline)
  scan    one parse + moving part + scan of one map
"""

from __future__ import annotations

import json
import resource
import sys
import time


def peak_rss_bytes():
    """Own peak RSS plus the largest reaped child's (a pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) * 1024


def census_round(ops):
    """Latencies of one round and (index, problem) for each failed op."""
    from polarmap import parsing, verdict
    import workloads

    latencies = []
    problems = []
    for k, (text, _, expected) in enumerate(ops):
        started = time.perf_counter()
        try:
            F = parsing.parse_arrangement(text, nvars=3)
            doc = verdict.full_verdict(F, primes=(workloads.CENSUS_PRIME,),
                                       input_text=text)
            payload = doc.to_json()
            latencies.append(time.perf_counter() - started)
            wrong = workloads.check_census(expected, json.loads(payload))
        except Exception as exc:  # an unexpected raise is a failed operation
            latencies.append(time.perf_counter() - started)
            wrong = [f"raised {type(exc).__name__}: {exc}"]
        if wrong:
            problems.append((k, f"{text}: {wrong[0]}"))
    return latencies, problems


def run_census(job, ops, tracer_factory):
    """Census rounds until the time is up, after one untraced baseline
    round when the job asks for it (traced runs)."""
    result = {"latencies": [], "problems": [], "rounds": 0, "round_s": [],
              "ops_per_round": len(ops)}

    def one_round():
        t0 = time.perf_counter()
        latencies, problems = census_round(ops)
        offset = len(result["latencies"])
        result["latencies"] += latencies
        result["problems"] += [(offset + k, text) for k, text in problems]
        return time.perf_counter() - t0

    if job["baseline"]:
        result["untraced_round_s"] = one_round()
    tracer = tracer_factory()
    started = time.perf_counter()
    while True:
        result["round_s"].append(one_round())
        result["rounds"] += 1
        if time.perf_counter() - started + result["round_s"][-1] / 2 >= job["seconds"]:
            return result, tracer


def run_scan(job, tracer_factory):
    from polarmap import oracle, parsing, polar
    import workloads

    tracer = tracer_factory()
    text, p, workers, mode, seed = job["op"]
    started = time.perf_counter()
    f = parsing.parse_polynomial(text)
    moving = polar.moving_part(f).moving
    if mode == "exhaustive":
        rep = oracle.scan_exhaustive(moving, p, workers=workers)
    else:
        rep = oracle.scan_sampled(moving, p, targets=workloads.SAMPLED_TARGETS, seed=seed,
                                  workers=workers)
    latency = time.perf_counter() - started
    result = {"latency": latency, "domain_size": rep.domain_size,
              "base_points": rep.base_points, "degree": rep.degree,
              "dominant": rep.dominant, "homaloidal": rep.homaloidal,
              "fiber_histogram": {str(k): v for k, v in rep.fiber_histogram.items()}}
    return result, tracer


def main(job_path):
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    import numpy  # noqa: F401  (set-up cost is part of what is measured)
    import polarmap  # noqa: F401
    import workloads

    ops = None
    if job["workload"] == "census":
        ops = workloads.census_inputs(job["seed"])
    print("READY", flush=True)
    if job["kind"] == "setup":
        return

    def tracer_factory():
        if not job["trace"]:
            return None
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        return tracer

    if job["kind"] == "census":
        result, tracer = run_census(job, ops, tracer_factory)
    else:
        result, tracer = run_scan(job, tracer_factory)
    result["rss_bytes"] = peak_rss_bytes()
    if tracer is not None:
        result["spans"] = tracer.spans
        result["absent"] = tracer.absent
    with open(job["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1])
