"""The whole benchmark in one command.

    PYTHONPATH=src python -W error::DeprecationWarning -m benchmarks.e2e --seed 7

Every workload runs in its own child process (``run.py --workload ...``), so
no workload inherits another's heap, caches or imports.  ``--traced`` adds the
traced run of each workload after its untraced one; ``--aa`` runs two full
sets of the same code back to back, the second in reverse workload order, and
fails when any end-to-end metric differs between them by more than its bound.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e.serving import scratch_directory

#: Counts that must repeat bit for bit between two sets of one code.
EXACT_COUNTS = ("mapreduce.records_in", "vsmart.candidate_records",
                "engine.pairs_out")


def add_arguments(parser) -> None:
    """The suite-only options (used when ``--workload`` is absent)."""
    parser.add_argument("--traced", action="store_true",
                        help="suite: also make the traced run of each workload")
    parser.add_argument("--aa", action="store_true",
                        help="suite: run two sets and compare them")


def run_child(name: str, args, seconds: float, trace: int,
              directory: str) -> dict:
    """One workload, one run, in a child process; returns its full report."""
    report = Path(directory) / f"{name}-{trace}.json"
    command = [sys.executable, "-W", "error::DeprecationWarning",
               str(Path(__file__).with_name("run.py")),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--sizes", args.sizes, "--report", str(report)]
    completed = subprocess.run(command, capture_output=True, text=True,
                               timeout=600)
    if not report.exists():
        raise SystemExit(f"{name} (trace {trace}) produced no result:\n"
                         f"{completed.stdout}\n{completed.stderr}")
    return json.loads(report.read_text())


def run_set(names: list[str], args, seconds: float, directory: str) -> dict:
    """Every workload once (and once traced): ``name -> trace -> report``."""
    reports: dict = {}
    for name in names:
        reports[name] = {0: run_child(name, args, seconds, 0, directory)}
        if args.traced:
            reports[name][1] = run_child(name, args, seconds, 1, directory)
    return reports


def print_set(reports: dict, benchmark: dict) -> None:
    units = {metric["name"]: metric["unit"]
             for kind in ("end_to_end", "per_layer")
             for metric in benchmark[kind]}
    for name, by_trace in reports.items():
        for trace, report in sorted(by_trace.items()):
            failed_share = report["failed"] / report["attempted"]
            print(f"\n== {name} ({'traced' if trace else 'untraced'}): "
                  f"attempted {report['attempted']}, "
                  f"failed_share {failed_share:.4f}")
            for metric, value in report["metrics"].items():
                print(f"{metric:40s} {value:14.6g} {units[metric]}")
            print(f"   diagnostics: {json.dumps(report['diagnostics'])}")


def compare_sets(first: dict, second: dict, benchmark: dict) -> int:
    """Print both sets side by side; return the number of violations."""
    violations = 0
    print("\n== A/A: two sets of the same code")
    print(f"{'workload':12s} {'metric':16s} {'A':>12s} {'B':>12s} "
          f"{'diff':>8s} {'bound':>6s}")
    for name in first:
        for metric in benchmark["end_to_end"]:
            a = first[name][0]["metrics"][metric["name"]]
            b = second[name][0]["metrics"][metric["name"]]
            difference = abs(b - a) / a
            verdict = "" if difference <= metric["bound"] else "  VIOLATION"
            violations += bool(verdict)
            print(f"{name:12s} {metric['name']:16s} {a:12.5g} {b:12.5g} "
                  f"{difference:8.1%} {metric['bound']:6.0%}{verdict}")
        if 1 in first[name]:
            for count in EXACT_COUNTS:
                a = first[name][1]["metrics"][count]
                b = second[name][1]["metrics"][count]
                if a != b:
                    violations += 1
                    print(f"{name:12s} {count} did not repeat: {a} vs {b}")
    return violations


def main(args, benchmark: dict, seconds: float) -> int:
    names = [workload["name"] for workload in benchmark["workloads"]]
    with scratch_directory() as directory:
        sets = [run_set(names, args, seconds, directory)]
        if args.aa:
            sets.append(run_set(names[::-1], args, seconds, directory))
    for reports in sets:
        print_set(reports, benchmark)
    failed = sum(report["failed"] for reports in sets
                 for by_trace in reports.values()
                 for report in by_trace.values())
    violations = compare_sets(sets[0], sets[1], benchmark) if args.aa else 0
    if args.report:
        Path(args.report).write_text(json.dumps(
            {"seed": args.seed, "seconds": seconds, "sets": sets}))
    print(f"\nfailed operations: {failed}; A/A violations: {violations}")
    return 0 if failed == 0 and violations == 0 else 1
