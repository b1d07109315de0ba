"""The `polarmap` console script, as the package's entry point generates it.

Usage: python3 perfbench/entry.py SUBCOMMAND ARGS..., with the checkout's
src/ on PYTHONPATH.  With PERFBENCH_REPORT set to a path, it also writes
there, as JSON, the wall-clock time main() was entered and the process's
peak RSS; with PERFBENCH_TRACE=1 it records layer spans into the same file.
Neither changes what the command prints or its exit code.
"""

from __future__ import annotations

import json
import os
import sys
import time

from child import peak_rss_bytes


def run():
    report_path = os.environ.get("PERFBENCH_REPORT")
    tracer = None
    if os.environ.get("PERFBENCH_TRACE") == "1":
        import tracing
        tracer = tracing.Tracer()
        import polarmap.cli  # noqa: F401  (loaded before its names are wrapped)
        tracing.install(tracer)
    from polarmap.cli import main

    entered = time.time()
    try:
        code = main()
    finally:
        if report_path:
            record = {"entered": entered, "rss_bytes": peak_rss_bytes()}
            if tracer is not None:
                record["spans"] = tracer.spans
                record["absent"] = tracer.absent
            with open(report_path, "w", encoding="utf-8") as handle:
                json.dump(record, handle)
    sys.exit(code)


if __name__ == "__main__":
    run()
