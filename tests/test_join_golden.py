"""The join grid, held to a committed golden document.

Every cell of the toy grid — the wall-clock benchmark's two join corpora ×
the four MapReduce algorithms × the ``serial`` / ``disk`` / ``disk`` at a
4 096-byte budget backends, 24 cells — is run and reduced to what the
program computed and what it modelled: the sorted pairs, the counters as
ordered items, every job's ``JobStats`` (``shuffle/*`` counters stripped)
and the simulated seconds.  ``tests/data/join-grid-3.5.json`` holds those
documents as captured before the similarity phase ran batch-at-a-time; a
change to any number, or to the order counters are first counted in, fails
here.

Regenerate (only for an intended change, and say why in the record)::

    PYTHONPATH=src python -m tests.test_join_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.e2e.inputs import BY_NAME, SIZES, join_corpus
from benchmarks.e2e.joins import join_spec, make_engine
from repro.mapreduce.backends import get_backend
from tests.test_backends import comparable_stats

GOLDEN = Path(__file__).with_name("data") / "join-grid-3.5.json"
WORKLOADS = ("join_scan", "join_dense")
ALGORITHMS = ("sharding", "online_aggregation", "lookup", "vcl")
#: backend name in the document -> what ``JoinSpec(backend=)`` is given.
BACKENDS = {"serial": lambda: "serial", "disk": lambda: "disk",
            "disk@4096": lambda: get_backend("disk", memory_budget_bytes=4096)}
SEED = 7


def cell_document(corpus, workload: str, algorithm: str, backend: str) -> dict:
    """One cell of the grid as a JSON-ready document, order preserved."""
    spec = join_spec(BY_NAME[workload], algorithm, BACKENDS[backend]())
    result = make_engine().run(spec, corpus)
    document = {
        "cell": [workload, algorithm, backend],
        "pairs": [[pair.first, pair.second, pair.similarity]
                  for pair in sorted(result.pairs)],
        "counters": [[name, value]
                     for name, value in result.counters().items()],
        "jobs": [comparable_stats(stats)
                 for stats in result.pipeline.job_stats],
        "simulated_seconds": result.simulated_seconds,
    }
    for job in document["jobs"]:
        job["counters"] = [[name, value]
                           for name, value in job["counters"].items()]
    # Through JSON and back: int machine keys become the strings the file holds.
    return json.loads(json.dumps(document))


def grid_documents(size: str = "toy") -> list[dict]:
    """Every cell of the grid at ``size``, in workload / algorithm / backend order."""
    documents = []
    for workload in WORKLOADS:
        corpus = join_corpus(BY_NAME[workload], SEED, SIZES[size])
        documents.extend(cell_document(corpus, workload, algorithm, backend)
                         for algorithm in ALGORITHMS for backend in BACKENDS)
    return documents


@pytest.fixture(scope="module")
def golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_grid_is_the_golden_grid(golden):
    actual = grid_documents()
    assert [cell["cell"] for cell in actual] == [cell["cell"] for cell in golden]
    for ours, theirs in zip(actual, golden, strict=True):
        # Serialised, so the order of every counter and machine is compared too.
        assert json.dumps(ours) == json.dumps(theirs), ours["cell"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(grid_documents(), indent=1) + "\n",
                      encoding="utf-8")
