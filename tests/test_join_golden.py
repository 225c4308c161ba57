"""The join grid, held to a committed golden document.

Every cell of the toy grid — the wall-clock benchmark's two join corpora ×
the four MapReduce algorithms × the ``serial`` / ``disk`` / ``disk`` at a
4 096-byte budget backends, 24 cells — is run and reduced to what the
program computed and what it modelled: the sorted pairs, the counters as
ordered items, every job's ``JobStats`` (``shuffle/*`` counters stripped)
and the simulated seconds.  ``tests/data/join-grid-3.5.json`` holds those
documents as captured before the similarity phase ran batch-at-a-time; a
change to any number, or to the order counters are first counted in, fails
here.  ``tests/data/vcl-grid-3.6.json`` holds VCL's other knobs the same way
— both toy corpora × hash order and 16 / 64 super-element groups × the
three backends, 18 cells — as captured before the kernel ran
batch-at-a-time.  In both files the VCL cells' ``shuffle/bytes_spilled``
(the size of the spill files, not a modelled number) was captured again
after that change: the files hold the rank-id records the kernel now
shuffles instead of whole multisets.  Every other leaf is as first captured.
``tests/data/joining-grid-3.7.json`` holds the joining phase's branches the
harness corpora never take at the default ``C``, as captured before the
joining jobs ran batch-at-a-time: Sharding at ``C = 1`` (every multiset
sharded) and at the corpus's median cardinality (some sharded) under
``jaccard`` / ``vector_cosine``, and Online-Aggregation and Lookup without
combiners and behind the stop-word filter, each on both toy corpora ×
``serial`` / ``disk`` at a 4 096-byte budget, 32 cells.  In all three
files every ``disk@4096`` cell's ``shuffle/bytes_spilled`` was captured
again when the disk shuffle began to spill one block per key per flush
instead of one pickled record per row (3.10); every other leaf, the other
``shuffle/*`` counters included, is as before.

Regenerate (only for an intended change, and say why in the record)::

    PYTHONPATH=src python -m tests.test_join_golden
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from pathlib import Path


from benchmarks.e2e.inputs import BY_NAME, SIZES, join_corpus
from benchmarks.e2e.joins import join_spec, make_engine
from repro.mapreduce.backends import get_backend
from tests.test_backends import comparable_stats

GOLDEN = Path(__file__).with_name("data") / "join-grid-3.5.json"
VCL_GOLDEN = Path(__file__).with_name("data") / "vcl-grid-3.6.json"
JOINING_GOLDEN = Path(__file__).with_name("data") / "joining-grid-3.7.json"
WORKLOADS = ("join_scan", "join_dense")
ALGORITHMS = ("sharding", "online_aggregation", "lookup", "vcl")
#: backend name in the document -> what ``JoinSpec(backend=)`` is given.
BACKENDS = {"serial": lambda: "serial", "disk": lambda: "disk",
            "disk@4096": lambda: get_backend("disk", memory_budget_bytes=4096)}
#: VCL variant name in the document -> the ``JoinSpec`` fields it sets.
VCL_VARIANTS = {"hash": {"vcl_element_order": "hash"},
                "groups16": {"vcl_super_element_groups": 16},
                "groups64": {"vcl_super_element_groups": 64}}
SEED = 7


def cell_document(corpus, workload: str, algorithm: str, backend: str,
                  variant: str | None = None, **fields) -> dict:
    """One cell of the grid as a JSON-ready document, order preserved.

    ``variant`` names a VCL variant; ``fields`` sets any other ``JoinSpec``
    fields, each named in the cell.
    """
    spec = join_spec(BY_NAME[workload], algorithm, BACKENDS[backend]())
    cell = [workload, algorithm, backend]
    if variant is not None:
        spec = dataclasses.replace(spec, **VCL_VARIANTS[variant])
        cell.append(variant)
    if fields:
        spec = dataclasses.replace(spec, **fields)
        cell.extend(f"{name}={value}" for name, value in fields.items())
    result = make_engine().run(spec, corpus)
    document = {
        "cell": cell,
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


def vcl_grid_documents() -> list[dict]:
    """Every VCL variant cell on the toy corpora, in workload / variant / backend order."""
    documents = []
    for workload in WORKLOADS:
        corpus = join_corpus(BY_NAME[workload], SEED, SIZES["toy"])
        documents.extend(cell_document(corpus, workload, "vcl", backend, variant)
                         for variant in VCL_VARIANTS for backend in BACKENDS)
    return documents


def joining_grid_documents() -> list[dict]:
    """The joining phase's other branches on the toy corpora, in workload /
    variant / backend order: Sharding at ``C`` = 1 and the median
    cardinality under two measures, then Online-Aggregation and Lookup
    (``jaccard``, so both corpora have pairs) without combiners and behind
    a stop-word filter that drops the corpus's most frequent elements."""
    documents = []
    backends = ("serial", "disk@4096")
    for workload in WORKLOADS:
        corpus = join_corpus(BY_NAME[workload], SEED, SIZES["toy"])
        cardinalities = sorted(len(multiset) for multiset in corpus)
        for threshold in (1, cardinalities[len(cardinalities) // 2]):
            for measure in ("jaccard", "vector_cosine"):
                documents.extend(
                    cell_document(corpus, workload, "sharding", backend,
                                  sharding_threshold=threshold,
                                  measure=measure)
                    for backend in backends)
        frequency = max(Counter(element for multiset in corpus
                                for element in multiset).values())
        for algorithm in ("online_aggregation", "lookup"):
            for fields in ({"use_combiners": False},
                           {"stop_word_frequency": frequency - 1}):
                documents.extend(
                    cell_document(corpus, workload, algorithm, backend,
                                  measure="jaccard", **fields)
                    for backend in backends)
    return documents


def assert_same_documents(actual: list[dict], golden: list[dict]) -> None:
    assert [cell["cell"] for cell in actual] == [cell["cell"] for cell in golden]
    for ours, theirs in zip(actual, golden, strict=True):
        # Serialised, so the order of every counter and machine is compared too.
        assert json.dumps(ours) == json.dumps(theirs), ours["cell"]


def load(path: Path) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))


def test_the_grid_is_the_golden_grid():
    assert_same_documents(grid_documents(), load(GOLDEN))


def test_the_vcl_variants_are_the_golden_vcl_grid():
    assert_same_documents(vcl_grid_documents(), load(VCL_GOLDEN))


def test_the_joining_variants_are_the_golden_joining_grid():
    assert_same_documents(joining_grid_documents(), load(JOINING_GOLDEN))


if __name__ == "__main__":
    for path, documents in ((GOLDEN, grid_documents),
                            (VCL_GOLDEN, vcl_grid_documents),
                            (JOINING_GOLDEN, joining_grid_documents)):
        path.write_text(json.dumps(documents(), indent=1) + "\n",
                        encoding="utf-8")
