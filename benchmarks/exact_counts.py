"""The harness's exact counts, recorded as a gated ``BENCH_*.json`` document.

    PYTHONPATH=src python -m benchmarks.exact_counts

The traced run of ``benchmarks/e2e`` at toy size reports, beside its times,
counts that repeat to the last digit.  This script runs each workload once
in a child process and writes those counts as ``BENCH_e2e_exact_counts.json``
into the record directory, in the ``bench_record`` document shape, so the
one ``check_regression.py`` call that gates the figure benchmarks gates
them too.  Standard output is that file as a Markdown table (CI's job
summary).

``counts`` are functions of the inputs and the program alone and are gated
on every interpreter.  ``calls`` (Python + builtin calls per join / per
query) follow the interpreter's own call sequence, so they sit under a key
naming ``major.minor``: under another interpreter the checker reports a
new series key and passes, rather than comparing 3.12's calls with 3.11's.

The harness itself fails a run on a wrong join, a wrong served answer or a
``DeprecationWarning``.  ``--seconds`` only bounds how often the same join
repeats and enters no count, so one second per workload is asked for.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from benchmarks.check_regression import walk_leaves
from benchmarks.conftest import write_record

ROOT = Path(__file__).resolve().parents[1]
RECORD_NAME = "e2e_exact_counts"
SEED = 7

JOIN_COUNTS = ("mapreduce.records_in", "mapreduce.shuffle_bytes",
               "mapreduce.reduce_groups", "mapreduce.simulated_s")
SERVE_COUNTS = ("serving.index.prune_share", "serving.cache.hit_rate",
                "server.queue.rejected")
#: workload -> (interpreter-independent counts, call count)
WORKLOADS = {
    "join_scan": (JOIN_COUNTS, "engine.calls_per_join"),
    "join_dense": (JOIN_COUNTS, "engine.calls_per_join"),
    "serve_mixed": (SERVE_COUNTS, "serving.service.calls_per_query"),
    "serve_point": (SERVE_COUNTS, "serving.service.calls_per_query"),
}


def traced_metrics(workload: str) -> dict[str, float]:
    """One traced toy run of ``workload``; its metric values by name."""
    output = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning",
         str(ROOT / "benchmarks" / "e2e" / "run.py"), "--workload", workload,
         "--sizes", "toy", "--seed", str(SEED), "--trace", "1",
         "--seconds", "1"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(output.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: the harness reports a wrong answer: "
                         f"{result}")
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def collect() -> dict:
    """The series: ``counts`` and, under the interpreter's name, ``calls``."""
    counts, calls = {}, {}
    for workload, (names, call_count) in WORKLOADS.items():
        metrics = traced_metrics(workload)
        counts[workload] = {name: metrics[name] for name in names}
        calls[workload] = {call_count: metrics[call_count]}
    interpreter = "python%d.%d" % sys.version_info[:2]
    return {"seed": SEED, "counts": counts, "calls": {interpreter: calls}}


def main() -> int:
    path = write_record(RECORD_NAME, "toy", collect())
    with open(path, encoding="utf-8") as handle:
        series = json.load(handle)["series"]
    print("| count | value |\n| --- | --- |")
    for name, value in walk_leaves(series):
        print(f"| `{name}` | {value!r} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
