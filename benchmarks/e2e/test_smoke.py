"""Tier-1 smoke test of the wall-clock benchmark (toy sizes, a few seconds).

Runs every workload through the real command line, so the names the harness
prints cannot drift from ``BENCHMARK.json``, every output is still checked
against its oracle, and a deprecated alias anywhere on the path fails the run
(``DeprecationWarning`` is an error here, and server subprocesses get
``-W error::DeprecationWarning``).
"""

from __future__ import annotations

import json
import re
import warnings
from pathlib import Path

import pytest

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in BENCHMARK["workloads"]]
VALID_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_once(capsys, name: str, trace: int) -> dict:
    """One toy run through ``run.main``; returns the parsed result line."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        # Imported here: the module installs the same filter when imported,
        # which must stay inside this test's warning scope.
        from benchmarks.e2e import run

        status = run.main(["--workload", name, "--seed", "3", "--seconds",
                           "0.05", "--trace", str(trace), "--sizes", "toy"])
    assert status == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_declared_names_are_well_formed():
    from benchmarks.e2e.inputs import WORKLOADS

    assert WORKLOAD_NAMES == [workload.name for workload in WORKLOADS]
    names = WORKLOAD_NAMES + [metric["name"]
                              for kind in ("end_to_end", "per_layer")
                              for metric in BENCHMARK[kind]]
    assert len(names) == len(set(names))
    assert all(VALID_NAME.fullmatch(name) for name in names)
    assert "setup_s" in {metric["name"] for metric in BENCHMARK["end_to_end"]}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_prints_the_declared_end_to_end_metrics(capsys, name):
    result = run_once(capsys, name, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) and set(result["metrics"]) == {
        metric["name"] for metric in BENCHMARK["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_prints_the_declared_per_layer_metrics(capsys):
    # The traced run is one ladder shared by all workloads; one climb of it
    # covers every per-layer name.
    result = run_once(capsys, "join_scan", trace=1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        metric["name"] for metric in BENCHMARK["per_layer"]}
