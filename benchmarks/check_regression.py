"""Diff freshly recorded ``BENCH_*.json`` files against committed baselines.

Every benchmark dumps its headline series through the ``bench_record``
fixture (see ``benchmarks/conftest.py``), and ``benchmarks/exact_counts.py``
writes the harness's exact counts in the same shape.  Every recorded leaf is
*deterministic* — simulated run times from the cost model, counter values,
pair counts, call counts — so a committed baseline plus a tolerance band
turns the suite into a regression gate: CI's ``bench-smoke`` job records both
and calls this script against ``benchmarks/baselines/``.  Wall-clock is
measured by ``benchmarks/e2e`` and never lands in these files.

Rules:

* a baseline file whose counterpart is missing from the new run fails (a
  benchmark silently dropped is itself a regression);
* a new file without a baseline is reported but passes (new benchmarks
  land before their baselines settle);
* files are compared only when recorded in the same mode (smoke / quick /
  full — the grids differ across modes);
* every numeric leaf, whatever its name, must agree within ``--tolerance``
  (relative, with an absolute floor for near-zero values);
* non-numeric leaves (statuses, labels) must match exactly.

``--update`` rewrites the baselines from the new run instead of checking —
the intended workflow when a PR deliberately changes a series.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from typing import Iterator

#: Relative difference below which values are considered unchanged.  Every
#: gated leaf is deterministic — the whole smoke suite records bit-equal
#: values at ``PYTHONHASHSEED=1`` and ``2`` — so the band only has to absorb
#: float noise across interpreters; anything wider hides real moves (a 25 %
#: band once let 7–18 % shifts of simulated seconds through).
DEFAULT_TOLERANCE = 0.02

#: Absolute floor: differences below this never fail, whatever the ratio.
ABSOLUTE_FLOOR = 1e-6


def walk_leaves(value, path: str = "") -> Iterator[tuple[str, object]]:
    """Yield ``(dotted.path, leaf)`` pairs of a nested JSON document."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from walk_leaves(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from walk_leaves(item, f"{path}[{index}]")
    else:
        yield path, value


def compare_documents(name: str, baseline: dict, fresh: dict,
                      tolerance: float) -> tuple[list[str], list[str]]:
    """Compare two BENCH documents; returns (failures, notes)."""
    failures: list[str] = []
    notes: list[str] = []
    if baseline.get("mode") != fresh.get("mode"):
        notes.append(f"{name}: mode changed "
                     f"({baseline.get('mode')} -> {fresh.get('mode')}); "
                     "series not comparable, skipped")
        return failures, notes
    baseline_leaves = dict(walk_leaves(baseline.get("series", {})))
    fresh_leaves = dict(walk_leaves(fresh.get("series", {})))
    for path in sorted(baseline_leaves.keys() - fresh_leaves.keys()):
        notes.append(f"{name}: series key {path} disappeared")
    for path in sorted(fresh_leaves.keys() - baseline_leaves.keys()):
        notes.append(f"{name}: new series key {path}")
    for path in sorted(baseline_leaves.keys() & fresh_leaves.keys()):
        expected = baseline_leaves[path]
        actual = fresh_leaves[path]
        numeric = (isinstance(expected, (int, float))
                   and not isinstance(expected, bool)
                   and isinstance(actual, (int, float))
                   and not isinstance(actual, bool))
        if not numeric:
            if expected != actual:
                failures.append(f"{name}: {path} changed "
                                f"{expected!r} -> {actual!r}")
            continue
        difference = abs(actual - expected)
        if difference <= ABSOLUTE_FLOOR:
            continue
        scale = max(abs(expected), abs(actual))
        if difference / scale > tolerance:
            failures.append(
                f"{name}: {path} moved {expected} -> {actual} "
                f"({difference / scale:+.1%} vs tolerance {tolerance:.0%})")
    return failures, notes


def bench_files(directory: str) -> dict[str, str]:
    """Map ``BENCH_*.json`` file names in a directory to their paths."""
    if not os.path.isdir(directory):
        return {}
    return {entry: os.path.join(directory, entry)
            for entry in sorted(os.listdir(directory))
            if entry.startswith("BENCH_") and entry.endswith(".json")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff BENCH_*.json results against committed baselines.")
    parser.add_argument("new_dir",
                        help="directory holding the freshly recorded files")
    parser.add_argument("--baseline",
                        default=os.path.join(os.path.dirname(__file__),
                                             "baselines"),
                        help="directory holding the committed baselines")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="relative tolerance band (default: %(default)s)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baselines from the new run")
    arguments = parser.parse_args(argv)

    fresh = bench_files(arguments.new_dir)
    if arguments.update:
        os.makedirs(arguments.baseline, exist_ok=True)
        for name, path in fresh.items():
            shutil.copyfile(path, os.path.join(arguments.baseline, name))
            print(f"updated baseline {name}")
        return 0

    baselines = bench_files(arguments.baseline)
    failures: list[str] = []
    notes: list[str] = []
    for name, baseline_path in baselines.items():
        fresh_path = fresh.get(name)
        if fresh_path is None:
            failures.append(f"{name}: baseline exists but the new run "
                            "produced no such file")
            continue
        with open(baseline_path, encoding="utf-8") as handle:
            baseline_document = json.load(handle)
        with open(fresh_path, encoding="utf-8") as handle:
            fresh_document = json.load(handle)
        file_failures, file_notes = compare_documents(
            name, baseline_document, fresh_document, arguments.tolerance)
        failures.extend(file_failures)
        notes.extend(file_notes)
    for name in sorted(fresh.keys() - baselines.keys()):
        notes.append(f"{name}: no baseline yet (run with --update to add)")

    for note in notes:
        print(f"note: {note}")
    if failures:
        print(f"\n{len(failures)} benchmark regression(s) beyond the "
              f"{arguments.tolerance:.0%} tolerance band:", file=sys.stderr)
        for failure in failures:
            print(f"  FAIL {failure}", file=sys.stderr)
        print("\nIf the movement is intended, refresh the baselines:\n"
              f"  python benchmarks/check_regression.py {arguments.new_dir} "
              f"--baseline {arguments.baseline} --update", file=sys.stderr)
        return 1
    compared = len(baselines.keys() & fresh.keys())
    print(f"ok: {compared} benchmark file(s) within the "
          f"{arguments.tolerance:.0%} tolerance band")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
