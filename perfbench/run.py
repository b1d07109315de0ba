"""polarmap benchmark: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload census|exhaustive|sampled|cli \
        --seed N --seconds S --trace 0|1

The program is taken from the checkout's src/ (no install).  Each workload
runs whole rounds of the same operations in a closed loop from this one
process, until the time is up (at least one round); every scan uses at
most 2 workers.  Every operation's output is checked against values the
benchmark derives itself (workloads.py); an operation whose check fails or
that raises counts as failed.  With --trace 0 the last line of stdout is a
JSON object with the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a traced run, and the tracing overhead against an
untraced round made in the same run.  Outputs and traces are written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import tracing
import workloads

# (name, unit) of every end-to-end metric, in output order
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)
WORKLOADS = ("census", "exhaustive", "sampled", "cli")
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150

HERE = os.path.dirname(os.path.abspath(__file__))


class ChildFailed(Exception):
    pass


class Bench:
    def __init__(self, root, workload, seed, seconds, trace):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out = os.path.join(HERE, "out",
                                f"{workload}-seed{seed}-trace{int(trace)}")
        os.makedirs(self.out, exist_ok=True)
        for name in os.listdir(self.out):
            os.remove(os.path.join(self.out, name))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env.pop("POLARMAP_WORKERS", None)
        self._jobs = 0
        self.traced_processes = []

    # -- processes ---------------------------------------------------------

    def _path(self, stem, suffix):
        self._jobs += 1
        return os.path.join(self.out, f"{stem}-{self._jobs}{suffix}")

    def child(self, kind, traced=False, baseline=False, op=None):
        """Run child.py; (seconds from launch to READY, result dict)."""
        job = {"kind": kind, "workload": self.workload, "seed": self.seed,
               "seconds": self.seconds, "trace": traced, "baseline": baseline,
               "op": op, "result_path": self._path(kind, ".result.json")}
        job_path = self._path(kind, ".job.json")
        with open(job_path, "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), job_path],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - started
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if line.strip() != "READY" or proc.returncode != 0:
            raise ChildFailed(f"{kind} child exited {proc.returncode}: "
                              f"{err.strip().splitlines()[-1:] if err else ''}")
        if kind == "setup":
            return ready, None
        with open(job["result_path"], encoding="utf-8") as handle:
            return ready, json.load(handle)

    def command(self, argv, traced=False):
        """Run one polarmap command in a fresh interpreter through the
        console entry point; (wall seconds, exit code, stdout, report)."""
        report_path = self._path("cli", ".report.json")
        env = dict(self.env, PERFBENCH_REPORT=report_path)
        if traced:
            env["PERFBENCH_TRACE"] = "1"
        launched = time.time()
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "entry.py")] + argv,
            cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        wall = time.perf_counter() - started
        report = {}
        if os.path.exists(report_path):
            with open(report_path, encoding="utf-8") as handle:
                report = json.load(handle)
            report["startup_s"] = report["entered"] - launched
        return wall, proc.returncode, out, report

    # -- workloads ---------------------------------------------------------

    def setup_times(self):
        return [self.child("setup")[0] for _ in range(SETUP_SAMPLES)]

    def scan_round(self, traced):
        """One round of exhaustive or sampled scans, one fresh process each."""
        ops = []
        if self.workload == "exhaustive":
            texts = {"quadric": workloads.QUADRIC_P3,
                     "cremona": workloads.CREMONA_P3}
            for kind, p, w in workloads.exhaustive_ops(self.seed):
                ops.append((kind, [texts[kind], p, w, "exhaustive", None]))
        else:
            for name, text, p, w, scan_seed in workloads.sampled_ops(self.seed):
                ops.append((name, [text, p, w, "sample", scan_seed]))
        records = []
        for name, op in ops:
            op_id = workloads.op_id(self.workload, name, op[1], op[2])
            try:
                _, res = self.child("scan", traced=traced, op=op)
            except ChildFailed as exc:
                records.append({"name": op_id, "latency": None,
                                "problems": [str(exc)]})
                continue
            if self.workload == "exhaustive":
                problems = workloads.check_exhaustive(name, op[1], res)
            else:
                problems = workloads.check_sampled(name, op[1], res)
            records.append({"name": op_id,
                            "latency": res["latency"], "problems": problems,
                            "rss_bytes": res["rss_bytes"], "workers": op[2],
                            "points": res["domain_size"]})
            if traced:
                self.traced_processes.append(res)
        return records

    def cli_round(self, traced):
        records = []
        for name, argv in workloads.cli_commands(self.seed):
            wall, code, out, report = self.command(argv, traced=traced)
            problems = workloads.check_cli(name, code, out)
            records.append({"name": f"cli:{name}", "latency": wall,
                            "problems": problems,
                            "rss_bytes": report.get("rss_bytes", 0),
                            "startup_s": report.get("startup_s")})
            if traced and "spans" in report:
                self.traced_processes.append(report)
        return records

    def one_round(self, traced):
        if self.workload == "cli":
            return self.cli_round(traced)
        return self.scan_round(traced)

    def rounds(self, traced):
        """Whole rounds until the time is up; a list of record lists."""
        done = []
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            done.append(self.one_round(traced))
            last = time.perf_counter() - t0
            if time.perf_counter() - started + last / 2 >= self.seconds:
                return done

    def census(self):
        """All census rounds run inside one child, a closed loop there."""
        _, res = self.child("census", traced=self.trace, baseline=self.trace)
        if self.trace:
            self.traced_processes.append(res)
        per_round = res["ops_per_round"]
        records = [{"name": f"census:{k % per_round}", "latency": t, "problems": []}
                   for k, t in enumerate(res["latencies"])]
        for k, problem in res["problems"]:
            records[k]["problems"] = [problem]
        return res, records


def quantile(values, q):
    """Nearest-rank quantile: the smallest value with at least q of the
    values at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def typical_latencies(records):
    """Each operation's median latency over the run's rounds.

    A round repeats the same operations, so the median per operation drops
    the stalls a shared machine adds to single calls; the metrics are then
    taken over one typical round.
    """
    by_op = {}
    for r in records:
        if r["latency"] is not None:
            by_op.setdefault(r["name"], []).append(r["latency"])
    return [statistics.median(v) for v in by_op.values()]


def summarize(records):
    failures = [r for r in records if r["problems"]]
    unexpected = [r for r in failures
                  if r["name"] not in workloads.KNOWN_FAULTS]
    for r in failures[:10]:
        tag = "known fault" if r["name"] in workloads.KNOWN_FAULTS else "FAILED"
        print(f"{tag}: {r['name']}: {r['problems'][0]}")
    return len(records), len(failures), not unexpected


def end_to_end(bench):
    setup = bench.setup_times()
    if bench.workload == "census":
        res, records = bench.census()
        rss = [res["rss_bytes"]]
    else:
        records = [r for rnd in bench.rounds(False) for r in rnd]
        rss = [r["rss_bytes"] for r in records if r.get("rss_bytes")]
    typical = typical_latencies(records)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(typical) / sum(typical),
        "op_p50_ms": statistics.median(typical) * 1e3,
        "op_p99_ms": quantile(typical, 0.99) * 1e3,
        "peak_rss_mib": max(rss) / 2 ** 20,
    }
    return records, metrics


def per_layer(bench):
    """One untraced round as the baseline, then traced rounds."""
    if bench.workload == "census":
        res, records = bench.census()
        rounds = res["rounds"]
        untraced = res["untraced_round_s"]
        traced = statistics.mean(res["round_s"])
        baseline = []
    else:
        baseline = bench.one_round(False)
        traced_rounds = bench.rounds(True)
        records = baseline + [r for rnd in traced_rounds for r in rnd]
        rounds = len(traced_rounds)
        untraced = sum(r["latency"] or 0.0 for r in baseline)
        traced = statistics.mean(sum(r["latency"] or 0.0 for r in rnd)
                                 for rnd in traced_rounds)
    metrics = tracing.layer_metrics(bench.traced_processes, rounds)
    for w in (1, 2):
        scans = [r for r in baseline if r.get("workers") == w and r["latency"]]
        metrics[f"oracle.points_per_s_w{w}"] = (
            sum(r["points"] for r in scans) / sum(r["latency"] for r in scans)
            if scans else 0.0)
    startups = [r["startup_s"] for r in records if r.get("startup_s") is not None]
    metrics["cli.startup_s"] = statistics.mean(startups) if startups else 0.0
    metrics["trace.overhead_pct"] = (traced / untraced - 1) * 100
    absent = sorted({name for proc in bench.traced_processes
                     for name in proc.get("absent", ())})
    for name in absent:
        print(f"absent: polarmap.{name} not found; its layer reads 0")
    # the spans themselves are in each process's result file next to this
    with open(os.path.join(bench.out, "trace.json"), "w", encoding="utf-8") as handle:
        json.dump({"metrics": metrics, "absent": absent}, handle, indent=1)
    return records, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "polarmap", "__init__.py")):
        print("run.py: no src/polarmap here; run it from the root of a "
              "polarmap source checkout", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        records, values = per_layer(bench)
        units = tracing.PER_LAYER
    else:
        records, values = end_to_end(bench)
        units = END_TO_END
    attempted, failed, correct = summarize(records)
    metrics = {}
    for name, unit in units:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
