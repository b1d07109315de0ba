"""Spans around the calls into polarmap's layers, recorded from outside src/.

install() replaces each listed function on its module object (and on every
polarmap module that imported it by name) with a wrapper that records a
span: name, start, end, parent.  Calls made inside a scan reach the kernel
helpers through module globals, so they pass through the wrappers too.
Spans stay in memory until the process writes them out at its end.

layer_metrics() turns the spans of one or more processes into the
per-layer figures; a span's self time is its duration minus that of its
child spans.  A helper that a later version of the package removes or
renames is skipped and its layer reads 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module under polarmap, attribute, span name)
LAYER_FUNCTIONS = (
    ("parsing", "parse_polynomial", "parsing.parse"),
    ("parsing", "parse_arrangement", "parsing.parse"),
    ("polar", "moving_part", "polar.moving_part"),
    ("polar", "polar_system", "polar.polar_system"),
    ("poly", "gcd", "poly.gcd"),
    ("verdict", "structural_verdict", "verdict.structural"),
    ("verdict", "inductive_certificate", "verdict.certificate"),
    ("verdict", "replay_certificate", "verdict.certificate"),
    ("verdict", "full_verdict", "verdict.full_verdict"),
    ("oracle", "scan_exhaustive", "oracle.scan"),
    ("oracle", "scan_sampled", "oracle.scan"),
    ("oracle", "_component_tables", "oracle.tables"),
    ("oracle", "_sample_targets", "oracle.targets"),
    ("oracle", "dominance_by_span", "oracle.span"),
    ("oracle", "_exhaustive_chunk", "oracle.chunk"),
    ("oracle", "_sampled_chunk", "oracle.chunk"),
    ("oracle", "_chunk_points", "oracle.points"),
    ("oracle", "_evaluate_images", "oracle.eval"),
    ("oracle", "_normalized_keys", "oracle.keys"),
    ("report", "ReportDocument.to_json", "report.to_json"),
)
# the task runner is a generator: each wait for a chunk result is a span
RESULT_WAIT = ("oracle", "_run_tasks", "oracle.wait")

# (name, unit) of every per-layer metric, in output order
PER_LAYER = (
    ("oracle.points_ns_per_point", "ns/point"),
    ("oracle.eval_ns_per_point", "ns/point"),
    ("oracle.keys_ns_per_point", "ns/point"),
    ("oracle.count_ns_per_point", "ns/point"),
    ("oracle.merge_ns_per_point", "ns/point"),
    ("oracle.scans", "count"),
    ("oracle.chunks", "count"),
    ("oracle.points", "count"),
    ("oracle.base_points", "count"),
    ("oracle.image_size", "count"),
    ("oracle.chunk_result_bytes", "B"),
    ("oracle.pool_wait_s", "s"),
    ("oracle.tables_s", "s"),
    ("oracle.targets_s", "s"),
    ("oracle.span_s", "s"),
    ("oracle.rss_bytes_per_point", "B/point"),
    ("oracle.points_per_s_w1", "points/s"),
    ("oracle.points_per_s_w2", "points/s"),
    ("polar.moving_part_s", "s"),
    ("polar.polar_system_s", "s"),
    ("poly.gcd_s", "s"),
    ("verdict.structural_s", "s"),
    ("verdict.certificate_s", "s"),
    ("verdict.full_verdict_self_s", "s"),
    ("parsing.parse_s", "s"),
    ("report.to_json_s", "s"),
    ("cli.startup_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
)

# span record fields
ID, PARENT, NAME, START, END, NESTED, ATTRS = range(7)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._depth = {}

    def open(self, name):
        span = [len(self.spans), self._stack[-1] if self._stack else -1, name,
                time.perf_counter(), 0.0, self._depth.get(name, 0) > 0, None]
        self.spans.append(span)
        self._stack.append(span[ID])
        self._depth[name] = self._depth.get(name, 0) + 1
        return span

    def close(self, span, attrs=None):
        span[END] = time.perf_counter()
        span[ATTRS] = attrs
        self._stack.pop()
        self._depth[span[NAME]] -= 1


def _scan_attrs(report):
    try:
        return {"domain": int(report.domain_size),
                "base": int(report.base_points),
                "image": int(report.image_size)}
    except AttributeError:
        return None


def _result_bytes(result):
    items = result if isinstance(result, tuple) else (result,)
    return {"bytes": sum(int(getattr(x, "nbytes", 0)) for x in items)}


def _wrap(fn, name, tracer):
    attrs_of = _scan_attrs if name == "oracle.scan" else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(span, attrs_of(result) if attrs_of and result is not None
                         else None)
    return traced


def _wrap_results(gen_fn, name, tracer):
    @functools.wraps(gen_fn)
    def traced(*args, **kwargs):
        gen = gen_fn(*args, **kwargs)
        while True:
            span = tracer.open(name)
            try:
                item = next(gen)
            except StopIteration:
                tracer.close(span)
                return
            except BaseException:
                tracer.close(span)
                raise
            tracer.close(span, _result_bytes(item))
            yield item
    return traced


def install(tracer):
    """Wrap every listed function that exists; record the missing ones."""
    originals = {}
    for module_name, attr, span_name in LAYER_FUNCTIONS + (RESULT_WAIT,):
        module = importlib.import_module(f"polarmap.{module_name}")
        owner, _, leaf = attr.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        fn = getattr(holder, leaf, None) if holder is not None else None
        if fn is None:
            tracer.absent.append(f"{module_name}.{attr}")
            continue
        wrap = _wrap_results if (module_name, attr) == RESULT_WAIT[:2] else _wrap
        wrapper = wrap(fn, span_name, tracer)
        setattr(holder, leaf, wrapper)
        if not owner:
            originals[id(fn)] = wrapper
    # modules that imported a function by name hold their own reference
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "polarmap" or mod_name.startswith("polarmap.")):
            continue
        for key, value in list(vars(mod).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None and value is not wrapper:
                setattr(mod, key, wrapper)


def _self_times(spans):
    child_total = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_total[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - child_total[s[ID]] for s in spans]


def layer_metrics(processes, rounds):
    """Per-layer figures from the spans of the traced processes.

    processes: dicts with "spans" (span records) and "rss_bytes".  Times and
    counters are per round; kernel times are per point of the scans whose
    chunks ran in the traced process itself (workers=1).  RSS per point is
    that of the process that made the largest scan, over that scan's domain.
    """
    total = {}
    self_total = {}
    span_count = 0
    kernel_points = 0
    kernel_merge = 0.0
    scans = base = image = points = chunks = result_bytes = 0
    rss_per_point = 0.0
    rss_domain = 0
    for proc in processes:
        spans = proc["spans"]
        span_count += len(spans)
        selfs = _self_times(spans)
        largest_domain = 0
        local_scans = set()
        for s, own in zip(spans, selfs):
            name = s[NAME]
            self_total[name] = self_total.get(name, 0.0) + own
            if not s[NESTED]:
                total[name] = total.get(name, 0.0) + s[END] - s[START]
            attrs = s[ATTRS] or {}
            if name == "oracle.scan" and attrs:
                scans += 1
                points += attrs["domain"]
                base += attrs["base"]
                image += attrs["image"]
                largest_domain = max(largest_domain, attrs["domain"])
            elif name == "oracle.wait" and attrs:
                chunks += 1
                result_bytes += attrs["bytes"]
            elif name == "oracle.chunk":
                up = s[PARENT]
                while up >= 0 and spans[up][NAME] != "oracle.scan":
                    up = spans[up][PARENT]
                if up >= 0:
                    local_scans.add(up)
        for sid in local_scans:
            if spans[sid][ATTRS]:
                kernel_points += spans[sid][ATTRS]["domain"]
                kernel_merge += selfs[sid]
        if largest_domain > rss_domain:
            rss_domain = largest_domain
            rss_per_point = proc["rss_bytes"] / largest_domain
    rounds = max(rounds, 1)

    def per_point(value):
        return value * 1e9 / kernel_points if kernel_points else 0.0

    return {
        "oracle.points_ns_per_point": per_point(total.get("oracle.points", 0.0)),
        "oracle.eval_ns_per_point": per_point(total.get("oracle.eval", 0.0)),
        "oracle.keys_ns_per_point": per_point(total.get("oracle.keys", 0.0)),
        "oracle.count_ns_per_point": per_point(self_total.get("oracle.chunk", 0.0)),
        "oracle.merge_ns_per_point": per_point(kernel_merge),
        "oracle.scans": scans / rounds,
        "oracle.chunks": chunks / rounds,
        "oracle.points": points / rounds,
        "oracle.base_points": base / rounds,
        "oracle.image_size": image / rounds,
        "oracle.chunk_result_bytes": result_bytes / rounds,
        "oracle.pool_wait_s": self_total.get("oracle.wait", 0.0) / rounds,
        "oracle.tables_s": total.get("oracle.tables", 0.0) / rounds,
        "oracle.targets_s": total.get("oracle.targets", 0.0) / rounds,
        "oracle.span_s": total.get("oracle.span", 0.0) / rounds,
        "oracle.rss_bytes_per_point": rss_per_point,
        "polar.moving_part_s": total.get("polar.moving_part", 0.0) / rounds,
        "polar.polar_system_s": total.get("polar.polar_system", 0.0) / rounds,
        "poly.gcd_s": total.get("poly.gcd", 0.0) / rounds,
        "verdict.structural_s": total.get("verdict.structural", 0.0) / rounds,
        "verdict.certificate_s": total.get("verdict.certificate", 0.0) / rounds,
        "verdict.full_verdict_self_s":
            self_total.get("verdict.full_verdict", 0.0) / rounds,
        "parsing.parse_s": total.get("parsing.parse", 0.0) / rounds,
        "report.to_json_s": total.get("report.to_json", 0.0) / rounds,
        "trace.spans": span_count / rounds,
    }
