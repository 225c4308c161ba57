"""The benchmark gate itself: every recorded leaf is compared, every
baseline has a producer, and no figure benchmark reads a clock."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from benchmarks import exact_counts
from benchmarks.check_regression import DEFAULT_TOLERANCE, compare_documents

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
BENCH_MODULES = {path.name: ast.parse(path.read_text())
                 for path in sorted(BENCHMARKS.glob("bench_*.py"))}


def document(mode: str = "smoke", **series) -> dict:
    return {"benchmark": "probe", "mode": mode, "series": series}


@pytest.mark.parametrize("leaf", ["wall_seconds", "qps", "p95_latency_ms",
                                  "injected_latency_seconds", "num_pairs"])
def test_a_moved_leaf_fails_whatever_its_name(leaf):
    baseline = document(rows=[{leaf: 100.0}])
    failures, _ = compare_documents(
        "probe", baseline, document(rows=[{leaf: 110.0}]), DEFAULT_TOLERANCE)
    assert len(failures) == 1 and f"rows[0].{leaf}" in failures[0]
    assert compare_documents("probe", baseline, baseline, 0.0) == ([], [])


def test_a_mode_mismatch_is_skipped_with_a_note():
    failures, notes = compare_documents(
        "probe", document("smoke", value=1), document("full", value=2), 0.0)
    assert failures == []
    assert len(notes) == 1 and "mode changed" in notes[0]


def test_every_baseline_has_a_producer():
    produced = {exact_counts.RECORD_NAME} | {
        node.name.removeprefix("test_")
        for tree in BENCH_MODULES.values() for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}
    baselines = {path.name.removeprefix("BENCH_").removesuffix(".json")
                 for path in (BENCHMARKS / "baselines").glob("BENCH_*.json")}
    assert baselines and baselines <= produced, sorted(baselines - produced)


def test_no_figure_benchmark_reads_a_clock():
    # Wall-clock is measured in benchmarks/e2e and nowhere else.
    timed = sorted(
        name for name, tree in BENCH_MODULES.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import)
            and any(alias.name == "time" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "time"))
    assert timed == []
