"""Guards on the join hot path and on the byte accounting that left it.

Two contracts of the MapReduce simulator's bookkeeping:

* **cheap** — a record is sized once, where it is emitted or where its
  dataset is first read, and the size travels with it, from job to job;
  a job asks its partitioner once per reduce key; the call count of a join
  (which repeats exactly, unlike a time) stays under a committed ceiling —
  so a reintroduced per-record walk or partitioner call fails here without
  any timing;
* **frozen** — the compiled sizers and the carried sizes produce exactly
  the numbers of the reference walker run over every record at every
  phase: same pairs, counters, ``JobStats`` and budget failures, on every
  backend.

Both run the wall-clock benchmark's toy corpora (``benchmarks/e2e``).
"""

from __future__ import annotations

import sys

import pytest

from benchmarks.e2e.inputs import BY_NAME, SIZES, join_corpus
from repro import JoinSpec, SimilarityEngine
from repro.core.exceptions import MemoryBudgetExceeded
from repro.mapreduce import SerialBackend, phases
from repro.mapreduce.cluster import GOOGLE_MAPREDUCE, Cluster
from repro.mapreduce.dfs import Dataset
from repro.mapreduce.partitioner import hash_partitioner
from repro.mapreduce.types import (
    KeyValue,
    estimate_record_bytes,
    sized_key_value,
    walk_record_bytes,
)
from tests.conftest import BACKENDS, strip_telemetry
from tests.test_backends import comparable_stats, run_trailer_job, trailer_last

WORKLOADS = ("join_scan", "join_dense")
ALGORITHMS = ("sharding", "online_aggregation", "lookup", "vcl")

#: Python + builtin calls per input tuple of the workload's pinned join on
#: its toy corpus, ~15 % above the measured 141.2 / 268.7 (CPython 3.11;
#: 181.9 / 352.5 before the task loops stopped partitioning per record and
#: re-sizing the previous job's output, 1297 / 2812 before sizes were
#: carried at all).
CALLS_PER_TUPLE_CEILING = {"join_scan": 163, "join_dense": 310}


@pytest.fixture(scope="module")
def corpora():
    return {name: join_corpus(BY_NAME[name], 7, SIZES["toy"])
            for name in WORKLOADS}


def run_join(corpus, workload: str, algorithm: str, backend="serial",
             cluster: Cluster | None = None):
    engine = SimilarityEngine(backend=backend, cluster=cluster)
    try:
        return engine.run(JoinSpec(measure="ruzicka", algorithm=algorithm,
                                   threshold=BY_NAME[workload].threshold),
                          corpus)
    finally:
        engine.close()


# -- cheap ---------------------------------------------------------------------


def profile_calls(function, partitioner=hash_partitioner) -> tuple[int, int, int, object]:
    """``(all calls, sizings, partitioner calls, function())``, counted as it runs.

    Counts what ``benchmarks/e2e/tracing.count_calls`` counts (Python and
    builtin calls, via ``sys.setprofile``), and among them the entries into
    the two places a record gets its size and into the job's partitioner.
    """
    sizing_codes = {estimate_record_bytes.__code__, sized_key_value.__code__}
    calls = sizings = partitionings = 0

    def profile(frame, event, argument):
        nonlocal calls, sizings, partitionings
        if event == "call":
            calls += 1
            if frame.f_code in sizing_codes:
                sizings += 1
            elif frame.f_code is partitioner.__code__:
                partitionings += 1
        elif event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        result = function()
    finally:
        sys.setprofile(None)
    return calls, sizings, partitionings, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pinned_join_sizes_each_record_once_and_stays_cheap(corpora, workload):
    corpus = corpora[workload]
    algorithm = BY_NAME[workload].pinned
    run_join(corpus, workload, algorithm)  # compile the sizers, warm caches
    calls, sizings, partitionings, result = profile_calls(
        lambda: run_join(corpus, workload, algorithm))

    tuples = sum(len(multiset) for multiset in corpus)
    assert calls / tuples <= CALLS_PER_TUPLE_CEILING[workload]

    # Sized where it is emitted — a map emission, a combine output, a
    # reduce output — or, for the one dataset that arrives without sizes
    # (the interned input, which two jobs of the pinned sharding join
    # read), where it is first read; nowhere else, and never again (plus
    # at most one sizing per job for its side data).
    jobs = result.pipeline.job_stats
    sized = jobs[0].map.records_in + sum(
        stats.map.records_out + stats.combine.records_out
        + stats.reduce.records_out for stats in jobs)
    assert sized <= sizings <= sized + len(jobs)

    # Keys are partitioned, not records: once per reduce group.
    assert partitionings == sum(stats.reduce_groups for stats in jobs)


def test_cleanup_emissions_are_partitioned_per_key_too():
    """The trailer job's cleanup emits one record, under a key of its own."""
    _calls, _sizings, partitionings, result = profile_calls(
        lambda: run_trailer_job(SerialBackend()), partitioner=trailer_last)
    assert result.stats.map.records_out == 61
    assert partitionings == result.stats.reduce_groups == 12


# -- frozen --------------------------------------------------------------------


def reference_sized_key_value(key, value, secondary=None) -> KeyValue:
    return KeyValue(key, value, secondary,
                    walk_record_bytes(KeyValue(key, value, secondary)))


@pytest.fixture
def reference_accounting(monkeypatch):
    """Size everything with the walker, and re-walk instead of carrying.

    Every module that imported the sizer (or the sizing constructor) by
    name gets the reference instead, and both reads of a carried size
    become a fresh walk of the record: the tasks' read of the size an
    emitted record carries, and a job's read of the sizes its input dataset
    carries (whatever the previous job handed over is ignored).  Forked
    workers inherit the patch.
    """
    replacements = ((estimate_record_bytes, walk_record_bytes),
                    (sized_key_value, reference_sized_key_value))
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro."):
            for name, value in list(vars(module).items()):
                for original, reference in replacements:
                    if value is original:
                        monkeypatch.setattr(module, name, reference)
    monkeypatch.setattr(phases, "_carried_bytes", walk_record_bytes)
    monkeypatch.setattr(Dataset, "record_bytes", property(
        lambda dataset: tuple(map(walk_record_bytes, dataset.records))))


def accounting(result) -> dict:
    """Everything the byte accounting feeds, in comparable form.

    Without the ``shuffle/*`` counters: they say how a backend ran, not
    what it computed.
    """
    return {"pairs": result.pairs,
            "counters": strip_telemetry(result.counters()),
            "simulated_seconds": result.simulated_seconds,
            "jobs": [comparable_stats(stats)
                     for stats in result.pipeline.job_stats]}


class TestAccountingIsFrozen:
    @pytest.fixture(scope="class")
    def baseline(self, corpora):
        """The module's own sizers, serial backend."""
        return {(workload, algorithm):
                accounting(run_join(corpora[workload], workload, algorithm))
                for workload in WORKLOADS for algorithm in ALGORITHMS}

    @pytest.mark.parametrize("backend", BACKENDS, ids=str)
    def test_walker_everywhere_changes_no_number(self, corpora, baseline,
                                                 reference_accounting, backend):
        for (workload, algorithm), expected in baseline.items():
            actual = accounting(run_join(corpora[workload], workload,
                                         algorithm, backend))
            assert actual == expected, (workload, algorithm)

    def test_a_wrong_carried_input_size_would_show(self, corpora, baseline,
                                                   monkeypatch):
        """The guard has teeth: the sizes a dataset is handed are what the
        next job accounts, so one byte too many on each moves the stats."""
        build = Dataset.__init__

        def one_byte_too_many(dataset, name, records, record_bytes=None):
            if record_bytes is not None:
                record_bytes = [size + 1 for size in record_bytes]
            build(dataset, name, records, record_bytes)

        monkeypatch.setattr(Dataset, "__init__", one_byte_too_many)
        expected = baseline["join_dense", "online_aggregation"]
        actual = accounting(run_join(corpora["join_dense"], "join_dense",
                                     "online_aggregation"))
        assert actual["pairs"] == expected["pairs"]
        assert actual["jobs"][0] == expected["jobs"][0]  # reads the unsized input
        assert actual["jobs"][1] != expected["jobs"][1]
        assert actual["simulated_seconds"] != expected["simulated_seconds"]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_budget_failure_is_the_same_failure(self, corpora, algorithm,
                                                request):
        tight = Cluster(num_machines=4, memory_per_machine=600,
                        disk_per_machine=10_000_000, profile=GOOGLE_MAPREDUCE)

        def failure() -> tuple[str, int, int]:
            with pytest.raises(MemoryBudgetExceeded) as caught:
                run_join(corpora["join_dense"], "join_dense", algorithm,
                         cluster=tight)
            error = caught.value  # the message names the job and the key
            return str(error), error.required_bytes, error.budget_bytes

        ours = failure()
        request.getfixturevalue("reference_accounting")
        assert failure() == ours
        if algorithm != "vcl":  # VCL already fails in its first map task
            assert "reduce value list of key" in ours[0]
