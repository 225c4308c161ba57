"""Guards on the join hot path and on the byte accounting that left it.

Two contracts of the MapReduce simulator's bookkeeping:

* **cheap** — a V-SMART job knows what its records weigh when it is built
  (the walker over one prototype per emit site) and hands the number to
  each record where it is constructed, so a pinned join walks no record at
  all; the size travels with the record, from job to job; a job asks its
  partitioner once per reduce key; the call count of a join (which repeats
  exactly, unlike a time) stays under a committed ceiling — so a
  reintroduced per-record walk or partitioner call fails here without any
  timing;
* **frozen** — the sizes declared by shape, the compiled sizers of the
  jobs that declare nothing and the carried sizes produce exactly the
  numbers of the reference walker run over every record at every phase:
  same pairs, counters, ``JobStats`` and budget failures, on every backend
  and — a Hypothesis property over ``join_grid`` — for every measure,
  algorithm and pipeline option.

Both run the wall-clock benchmark's toy corpora (``benchmarks/e2e``).
"""

from __future__ import annotations

import dataclasses
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.e2e.inputs import BY_NAME, SIZES, join_corpus
from repro import JoinSpec, SimilarityEngine
from repro.core.exceptions import MemoryBudgetExceeded
from repro.mapreduce import LocalJobRunner, SerialBackend, phases
from repro.mapreduce import types as mapreduce_types
from repro.mapreduce.cluster import GOOGLE_MAPREDUCE, Cluster
from repro.mapreduce.dfs import Dataset
from repro.mapreduce.partitioner import hash_partitioner
from repro.mapreduce.types import (
    KeyValue,
    estimate_record_bytes,
    sized_key_value,
    walk_record_bytes,
)
from repro.similarity.base import NominalSimilarityMeasure
from repro.similarity.registry import supported_measures
from tests.conftest import BACKENDS, join_grid, strip_telemetry
from tests.test_backends import comparable_stats, run_trailer_job, trailer_last

WORKLOADS = ("join_scan", "join_dense")
ALGORITHMS = ("sharding", "online_aggregation", "lookup", "vcl")

#: Python + builtin calls per input tuple of the workload's pinned join on
#: its toy corpus, ~15 % above the measured 110.1 / 191.5 (CPython 3.11;
#: 141.2 / 268.7 while every record was walked where it was emitted, 181.9 /
#: 352.5 before the task loops stopped partitioning per record and
#: re-sizing the previous job's output, 1297 / 2812 before sizes were
#: carried at all).
CALLS_PER_TUPLE_CEILING = {"join_scan": 127, "join_dense": 221}


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


def profile_calls(function, partitioner=hash_partitioner
                  ) -> tuple[int, int, int, int, object]:
    """``(all calls, KeyValues built, generic sizings, partitioner calls,
    function())``, counted as it runs.

    Counts what ``benchmarks/e2e/tracing.count_calls`` counts (Python and
    builtin calls, via ``sys.setprofile``), and among them the entries into
    the one place a ``KeyValue`` is built, into the generic sizer (asked
    for a record's size, or for a ``KeyValue``'s by ``sized_key_value``
    when it is handed none) and into the job's partitioner.
    """
    generic_codes = {estimate_record_bytes.__code__,
                     mapreduce_types._container_bytes.__code__}
    calls = keyed = generic = partitionings = 0

    def profile(frame, event, argument):
        nonlocal calls, keyed, generic, partitionings
        if event == "call":
            calls += 1
            if frame.f_code is sized_key_value.__code__:
                keyed += 1
            elif frame.f_code in generic_codes:
                generic += 1
            elif frame.f_code is partitioner.__code__:
                partitionings += 1
        elif event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        result = function()
    finally:
        sys.setprofile(None)
    return calls, keyed, generic, partitionings, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pinned_join_sizes_each_record_once_and_stays_cheap(corpora, workload):
    corpus = corpora[workload]
    algorithm = BY_NAME[workload].pinned
    run_join(corpus, workload, algorithm)  # warm caches
    calls, keyed, generic, partitionings, result = profile_calls(
        lambda: run_join(corpus, workload, algorithm))

    tuples = sum(len(multiset) for multiset in corpus)
    assert calls / tuples <= CALLS_PER_TUPLE_CEILING[workload]

    # A shuffled record is built once, where it is emitted — by its mapper
    # or, combined, by the combine task — and handed the size its job
    # worked out from its shape when it was built; reduce outputs and the
    # interned input are not even visited for theirs.  So nothing is walked
    # (a job may size its side data generically: at most once per job).
    jobs = result.pipeline.job_stats
    assert keyed == sum(stats.map.records_out + stats.combine.records_out
                        for stats in jobs)
    assert generic <= len(jobs)

    # Keys are partitioned, not records: once per reduce group.
    assert partitionings == sum(stats.reduce_groups for stats in jobs)


def test_cleanup_emissions_are_partitioned_per_key_too():
    """The trailer job's cleanup emits one record, under a key of its own."""
    *_counts, partitionings, result = profile_calls(
        lambda: run_trailer_job(SerialBackend()), partitioner=trailer_last)
    assert result.stats.map.records_out == 61
    assert partitionings == result.stats.reduce_groups == 12


# -- frozen --------------------------------------------------------------------


def reference_sized_key_value(key, value, secondary=None,
                              size_bytes=None) -> KeyValue:
    """Whatever size the emit site hands over, walk the record."""
    return KeyValue(key, value, secondary,
                    walk_record_bytes(KeyValue(key, value, secondary)))


def use_reference_accounting(monkeypatch) -> None:
    """Size everything with the walker, and re-walk instead of carrying.

    Every module that imported the sizer (or the sizing constructor) by
    name gets the reference instead; nothing a job declared about its
    records' sizes is believed (a reducer's output size, the size handed to
    a ``KeyValue`` by its mapper or kept by a combiner, the side data's);
    and both reads of a carried size become a fresh walk of the record: the
    tasks' read of the size an emitted record carries, and a job's read of
    the sizes its input dataset carries (whatever the driver or the
    previous job handed over is ignored).  Forked workers inherit the patch.
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
    monkeypatch.setattr(phases, "_declared_output_bytes", lambda reducer: None)
    monkeypatch.setattr(
        LocalJobRunner, "_side_data_bytes",
        lambda runner, job: (0 if job.side_data is None
                             else walk_record_bytes(job.side_data)))
    monkeypatch.setattr(Dataset, "record_bytes", property(
        lambda dataset: tuple(map(walk_record_bytes, dataset.records))))


@pytest.fixture
def reference_accounting(monkeypatch):
    use_reference_accounting(monkeypatch)


class SharedElements(NominalSimilarityMeasure):
    """A measure with no unilateral partial at all and two conjunctive ones.

    ``Uni`` is the empty tuple, ``Conj`` a pair: the arities no registered
    measure has, so the shapes are held to the walker beyond arity one.
    """

    name = "shared_elements"

    def uni_from_multiplicity(self, multiplicity):
        return ()

    def conj_from_pair(self, multiplicity_i, multiplicity_j):
        return (min(multiplicity_i, multiplicity_j), 1.0)

    def combine(self, uni_i, uni_j, conj):
        return min(1.0, (conj[0] + conj[1]) / 12.0)

    def partial_descriptors(self):
        return []


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
        """The guard has teeth: the sizes a dataset is handed — by the
        driver for the interned input, by the previous job after that — are
        what the next job accounts, so one byte too many on each moves the
        stats of every job."""
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
        for ours, theirs in zip(actual["jobs"], expected["jobs"], strict=True):
            assert ours["map"]["bytes_in"] == (theirs["map"]["bytes_in"]
                                               + theirs["map"]["records_in"])
            assert ours["map"]["bytes_out"] == theirs["map"]["bytes_out"]
        assert actual["simulated_seconds"] != expected["simulated_seconds"]

    @settings(max_examples=50, deadline=None)
    @given(cell=join_grid(measures=sorted(supported_measures())
                          + [SharedElements()],
                          algorithms=ALGORITHMS,
                          backends=("serial", BACKENDS[-1])),
           options=st.fixed_dictionaries({
               "chunk_size": st.sampled_from([None, 2]),
               "stop_word_frequency": st.sampled_from([None, 3]),
               "use_combiners": st.booleans(),
               "prune_candidates": st.booleans()}),
           memory=st.sampled_from([None, 400, 1_000]))
    def test_sizes_by_shape_are_the_walkers_sizes(self, cell, options, memory):
        """Every measure (``Uni`` of arity 0 included), algorithm and
        pipeline option: what the jobs declared from their records' shapes
        and what the walker finds on every record at every phase give the
        same pairs, counters, ``JobStats`` — or the same budget failure."""
        spec = dataclasses.replace(cell.spec(), **options)
        corpus = cell.corpus()
        cluster = memory and Cluster(
            num_machines=4, memory_per_machine=memory,
            disk_per_machine=10_000_000, profile=GOOGLE_MAPREDUCE)

        def outcome():
            engine = SimilarityEngine(backend=cell.backend, cluster=cluster)
            try:
                return accounting(engine.run(spec, corpus))
            except MemoryBudgetExceeded as error:
                return str(error), error.required_bytes, error.budget_bytes
            finally:
                engine.close()

        ours = outcome()
        with pytest.MonkeyPatch.context() as monkeypatch:
            use_reference_accounting(monkeypatch)
            assert outcome() == ours

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
