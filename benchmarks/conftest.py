"""Shared fixtures for the figure benchmarks.

Each benchmark regenerates one table or figure of the paper's evaluation
(section 7) on the scaled-down synthetic presets and prints the same series
the paper plots: deterministic *simulated* run times from the cost model,
counters and pair counts.  Nothing here reads a clock — wall-clock is
measured by ``benchmarks/e2e`` and nowhere else.

Every benchmark dumps its headline series through the ``bench_record``
fixture: a ``BENCH_<name>.json`` file per benchmark, written to
``REPRO_BENCH_RECORD_DIR`` (default: ``benchmarks/results/``).  Every leaf
of those files is compared with its committed baseline by
``check_regression.py``; CI uploads them as workflow artifacts.

Modes, selected by environment variable:

* ``REPRO_BENCH_QUICK=1`` — coarser sweep grids, same datasets;
* ``REPRO_BENCH_SMOKE=1`` — implies quick, and additionally shrinks the
  workload sizes of the non-figure benchmarks; this is the mode CI's
  ``bench-smoke`` job runs.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.analysis.calibration import paper_scale_cluster, paper_scale_cost_parameters
from repro.datasets.ip_cookie import generate_preset

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
QUICK = SMOKE or os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Threshold grid of Fig. 4 (0.1 .. 0.9).
THRESHOLD_GRID = (0.1, 0.5, 0.9) if QUICK else tuple(round(0.1 * i, 1) for i in range(1, 10))
#: Machine-count grid of Fig. 5 / Fig. 6 (paper: 100 .. 900 step 100).
MACHINE_GRID = (100, 500, 900) if QUICK else (100, 300, 500, 700, 900)
#: Sharding-parameter grid of Fig. 7 (paper: 2^5 .. 2^15).
SHARDING_C_GRID = (32, 1024, 32768) if QUICK else (32, 128, 512, 2048, 8192, 32768)

#: The sharding parameter used for the non-Fig.-7 experiments; the paper
#: observes the sweet spot around C ~ 1000.
DEFAULT_SHARDING_C = 1000


@pytest.fixture(scope="session")
def small_dataset():
    """Scaled-down analogue of the paper's small dataset (82M IPs)."""
    return generate_preset("small")


@pytest.fixture(scope="session")
def realistic_dataset():
    """Scaled-down analogue of the paper's realistic dataset (454M IPs)."""
    return generate_preset("realistic")


@pytest.fixture(scope="session")
def cost_parameters():
    """Cost-model calibration shared by every figure benchmark."""
    return paper_scale_cost_parameters()


@pytest.fixture(scope="session")
def cluster_500():
    """The 500-machine cluster used by the Fig. 4 threshold sweep."""
    return paper_scale_cluster(500)


def base_cluster():
    """The scaled paper cluster, machine count overridden per sweep point."""
    return paper_scale_cluster()


# -- benchmark-result recording ----------------------------------------------


def jsonable(value):
    """Convert benchmark payloads (dataclasses, sets, numpy scalars) to JSON."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(item) for item in value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item):
        return jsonable(item())
    return repr(value)


def record_directory() -> str:
    """Where ``BENCH_*.json`` files land (override: REPRO_BENCH_RECORD_DIR)."""
    return os.environ.get(
        "REPRO_BENCH_RECORD_DIR",
        os.path.join(os.path.dirname(__file__), "results"))


def write_record(name: str, mode: str, series) -> str:
    """Write one ``BENCH_<name>.json`` document; returns its path."""
    document = {"benchmark": name, "mode": mode, "series": jsonable(series)}
    directory = record_directory()
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return path


@pytest.fixture
def bench_record(request):
    """A dict the benchmark fills with its headline series.

    Whatever the benchmark puts here is written to
    ``BENCH_<benchmark_name>.json`` after the test finishes (pass or fail,
    so regressions still leave a record of the series that tripped them).
    """
    payload: dict = {}
    yield payload
    if payload:
        write_record(request.node.name.removeprefix("test_"),
                     "smoke" if SMOKE else ("quick" if QUICK else "full"),
                     payload)
