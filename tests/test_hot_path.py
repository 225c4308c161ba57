"""Guards on the join hot path and on the byte accounting that left it.

Two contracts of the MapReduce simulator's bookkeeping:

* **cheap** — a V-SMART job knows what its records weigh when it is built
  (the walker over one prototype per emit site) and hands the number to
  each record where it is constructed, so a pinned join walks no record at
  all; the size travels with the record, as a size column through the
  shuffle and from job to job; no object is built per record between map
  and reduce, and the disk shuffle pickles a key's records of one flush as
  one block; a job asks its partitioner once per reduce key; the call count
  of a join (which repeats exactly, unlike a time) stays under a committed
  ceiling — so a reintroduced per-record walk or partitioner call fails
  here without any timing;
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
import os
import pickle
import sys
from collections import Counter
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.e2e.inputs import BY_NAME, SIZES, join_corpus
from repro import JoinSpec, SimilarityEngine
from repro.core.exceptions import MemoryBudgetExceeded
from repro.core.interning import InternedMultiset
from repro.core.records import InputTuple, JoinedTuple
from repro.mapreduce import LocalJobRunner, SerialBackend, phases
from repro.mapreduce import types as mapreduce_types
from repro.mapreduce.cluster import GOOGLE_MAPREDUCE, Cluster
from repro.mapreduce.dfs import Dataset
from repro.mapreduce.job import TaskContext
from repro.mapreduce.partitioner import hash_partitioner
from repro.mapreduce.types import (
    Emissions,
    estimate_record_bytes,
    walk_record_bytes,
)
from repro.similarity.base import NominalSimilarityMeasure
from repro.similarity.registry import list_measures
from repro.telemetry import Metrics
from repro.vcl.grouping import SuperElementGrouping
from repro.vcl.kernel import build_kernel_job
from repro.vsmart.shapes import RecordShapes
from repro.vsmart.similarity_phase import Similarity2Mapper
from tests.conftest import (
    BACKEND_IDS,
    BACKENDS,
    SPILLING_DISK,
    join_grid,
    strip_telemetry,
)
from tests.test_backends import comparable_stats, run_trailer_job, trailer_last

WORKLOADS = ("join_scan", "join_dense")
ALGORITHMS = ("sharding", "online_aggregation", "lookup", "vcl")

#: Python + builtin calls per input tuple of a join on the workload's toy
#: corpus — each workload's pinned join (``sharding`` / ``online_aggregation``)
#: and ``join_scan``'s ``auto`` plan, ``lookup`` — ~15 % above the measured
#: 23.2 / 31.0 / 20.0 (CPython 3.11; 41.3 / 48.4 / 35.0 while a ``KeyValue``
#: was built per shuffled record and every reducer was called once per
#: group, 80.2 / 78.5 / 66.1 while the joining jobs mapped, combined and
#: reduced record by record, 107.7 / 190.3 for the pinned joins while the
#: similarity phase mapped and combined one ``KeyValue`` per candidate,
#: 141.2 / 268.7 while every record was walked where it was emitted, 181.9 /
#: 352.5 before the task loops stopped partitioning per record and
#: re-sizing the previous job's output, 1297 / 2812 before sizes were
#: carried at all).
CALLS_PER_TUPLE_CEILING = {("join_scan", "sharding"): 27,
                           ("join_dense", "online_aggregation"): 36,
                           ("join_scan", "lookup"): 23}

#: The same for a ``vcl`` join on the toy corpora, ~15 % above the measured
#: 37.4 / 34.4 (CPython 3.11; 63.9 / 141.0 while the kernel reducer verified
#: a pair once per group it shared and the deduplication and frequency
#: reducers were called once per group and walked every output record,
#: 78.3 / 155.1 while a ``KeyValue`` was built per shuffled record, 172.0 /
#: 281.8 while the kernel reducer re-interned every multiset once per group
#: it was replicated to and every VCL mapper mapped and sized record by
#: record).
VCL_CALLS_PER_TUPLE_CEILING = {"join_scan": 43, "join_dense": 40}

#: Python + builtin calls per input tuple of ``engine.plan`` for an
#: ``auto`` spec on the toy corpora (profile included), ~15 % above the
#: measured 9.31 / 6.99 (CPython 3.11, NumPy 2.4; 12.22 / 9.55 while the
#: VCL estimate ranked the whole alphabet by rank hash and cut every
#: multiset's sorted elements in Python).
PLAN_CALLS_PER_TUPLE_CEILING = {"join_scan": 10.7, "join_dense": 8.1}

#: The jobs whose mapper maps its whole input as columns
#: (``Mapper.map_batch``): every job of a join.
BATCH_MAPPED_JOBS = {"stop_word_filter", "online_aggregation", "lookup1",
                     "lookup2+similarity1", "sharding1", "sharding2",
                     "similarity1", "similarity2", "vcl_frequencies",
                     "vcl_kernel", "vcl_dedup"}


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


class Profile(NamedTuple):
    """What :func:`profile_calls` counted, and what the function returned."""

    calls: int
    generic: int
    partitionings: int
    interned: int
    tuples_built: int
    result: object


def profile_calls(function, partitioner=hash_partitioner) -> Profile:
    """Every call ``function()`` makes, counted as it runs, and its result.

    Counts what ``benchmarks/e2e/tracing.count_calls`` counts (Python and
    builtin calls, via ``sys.setprofile``), and among them the entries into
    the generic sizer (asked for a record's size), into the job's
    partitioner, into the constructor of an
    :class:`~repro.core.interning.InternedMultiset` (a multiset put on dense
    ids) and into the constructors of the input and joined tuples (but for
    the prototype a job's ``RecordShapes`` sizes once when it is built).
    """
    generic_codes = {estimate_record_bytes.__code__,
                     mapreduce_types._container_bytes.__code__}
    tuple_codes = {InputTuple.__init__.__code__, JoinedTuple.__init__.__code__}
    prototype_code = RecordShapes.joined_tuple.func.__code__
    calls = generic = partitionings = interned = tuples_built = 0

    def profile(frame, event, argument):
        nonlocal calls, generic, partitionings, interned, tuples_built
        if event == "call":
            calls += 1
            if frame.f_code in generic_codes:
                generic += 1
            elif frame.f_code is partitioner.__code__:
                partitionings += 1
            elif frame.f_code is InternedMultiset.__init__.__code__:
                interned += 1
            elif (frame.f_code in tuple_codes
                  and frame.f_back.f_code is not prototype_code):
                tuples_built += 1
        elif event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        result = function()
    finally:
        sys.setprofile(None)
    return Profile(calls, generic, partitionings, interned, tuples_built,
                   result)


@pytest.mark.parametrize("workload, algorithm", list(CALLS_PER_TUPLE_CEILING))
def test_join_sizes_each_record_once_and_stays_cheap(corpora, workload,
                                                     algorithm):
    corpus = corpora[workload]
    run_join(corpus, workload, algorithm)  # warm caches
    profile = profile_calls(lambda: run_join(corpus, workload, algorithm))

    tuples = sum(len(multiset) for multiset in corpus)
    assert profile.calls / tuples <= CALLS_PER_TUPLE_CEILING[
        workload, algorithm]

    # Every job maps its input as columns, and the interning pass and the
    # joining jobs hand each other columns up to Similarity1: no input or
    # joined tuple is built.
    jobs = profile.result.pipeline.job_stats
    assert {stats.job_name for stats in jobs} <= BATCH_MAPPED_JOBS
    assert profile.tuples_built == 0

    # The map task, the combine task and the in-memory shuffle hand each
    # other columns, with the size each job worked out from its records'
    # shape when it was built.  Reduce outputs and the interned input are
    # not even visited for their sizes.  So nothing is walked (a job may
    # size its side data generically: at most once per job).
    assert profile.generic <= len(jobs)

    # Keys are partitioned, not records: once per reduce group.
    assert profile.partitionings == sum(stats.reduce_groups for stats in jobs)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_an_auto_plan_stays_cheap(corpora, workload):
    """Planning prices VCL from the profile's columns, ranking by hash only
    the elements whose order can move a cut: a planner that ranks every
    element again fails here."""
    corpus = corpora[workload]
    engine = SimilarityEngine()
    spec = JoinSpec(measure="ruzicka", algorithm="auto",
                    threshold=BY_NAME[workload].threshold)
    engine.plan(spec, corpus)  # warm caches
    profile = profile_calls(lambda: engine.plan(spec, corpus))

    tuples = sum(len(multiset) for multiset in corpus)
    assert profile.calls / tuples <= PLAN_CALLS_PER_TUPLE_CEILING[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_vcl_join_ranks_once_and_stays_cheap(corpora, workload):
    """Each multiset is put on rank ids once, by the kernel mapper, and the
    reducer verifies on those: no group re-interns its members.  Every VCL
    job maps as a batch and the shuffle moves columns."""
    corpus = corpora[workload]
    run_join(corpus, workload, "vcl")  # warm caches
    profile = profile_calls(lambda: run_join(corpus, workload, "vcl"))

    tuples = sum(len(multiset) for multiset in corpus)
    assert profile.calls / tuples <= VCL_CALLS_PER_TUPLE_CEILING[workload]
    # The kernel mapper puts each multiset on rank ids; nothing else does.
    assert profile.interned == len(corpus)
    jobs = profile.result.pipeline.job_stats
    assert {stats.job_name for stats in jobs} <= BATCH_MAPPED_JOBS
    assert profile.partitionings == sum(stats.reduce_groups for stats in jobs)


def test_cleanup_emissions_are_partitioned_per_key_too():
    """The trailer job's cleanup emits two records, each under a key of its
    own."""
    profile = profile_calls(lambda: run_trailer_job(SerialBackend()),
                            partitioner=trailer_last)
    assert profile.result.stats.map.records_out == 62
    assert profile.partitionings == profile.result.stats.reduce_groups == 13


@pytest.mark.parametrize("workload, algorithm", list(CALLS_PER_TUPLE_CEILING))
def test_a_spilling_disk_join_pickles_a_block_per_key_per_flush(
        corpora, monkeypatch, workload, algorithm):
    """Each run file gets one ``pickle.dump`` per ``(partition, key)`` per
    flush — a block of that key's records — and one trailer; never one
    per record."""
    runs: dict[str, list] = {}
    dump = pickle.dump
    monkeypatch.setattr(pickle, "dump", lambda obj, handle, **options: (
        runs.setdefault(handle.name, []).append(obj),
        dump(obj, handle, **options)))
    result = run_join(corpora[workload], workload, algorithm, SPILLING_DISK)
    counters = result.counters()
    assert len(runs) == counters["shuffle/runs_written"]
    assert counters["shuffle/merge_passes"] > len(result.pipeline.job_stats)
    flushed = set()
    for path, (*blocks, trailer) in runs.items():
        assert trailer == len(blocks)
        labels = [(os.path.dirname(path), partition, key, flush)
                  for partition, _seq, flush, key, _values, _sizes, _secondaries
                  in blocks]
        assert len(set(labels)) == len(labels), path
        flushed.update(labels)
    # One block per job, partition, key and flush: fewer than the records.
    assert len(flushed) < counters["shuffle/spilled_records"]


# -- frozen --------------------------------------------------------------------


def walked_emission_sizes(emissions: Emissions) -> list[int]:
    """Every row of a map task's batch, built and walked."""
    keys, values, secondaries = emissions.columns()
    return [walk_record_bytes((key, value, secondary))
            for key, value, secondary in zip(
                keys, values, secondaries or [None] * len(keys), strict=True)]


def use_reference_accounting(monkeypatch) -> None:
    """Size everything with the walker, and re-walk instead of carrying.

    Every module that imported the sizer by name gets the reference
    instead — the per-record mapper's and the cleanup's ``(key, value,
    secondary)`` records are sized through it; nothing a job declared about
    its records' sizes is believed (a reducer's output size, the size kept
    by a combiner, the one size or the size column a batch mapper declared
    for its columns, the side data's); and every read of a carried size
    becomes a fresh walk of the record: the map task's read of its batch's
    sizes (each row built as its 3-tuple and walked: the size column the
    shuffle and the reduce task then read), a combiner's kept shape (each
    combined record walked instead), and a job's read of the sizes its
    input dataset carries (whatever the driver or the previous job handed
    over is ignored; a dataset held as columns is walked row by row).
    """
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro."):
            for name, value in list(vars(module).items()):
                if value is estimate_record_bytes:
                    monkeypatch.setattr(module, name, walk_record_bytes)
    monkeypatch.setattr(phases, "_emission_sizes", walked_emission_sizes)
    monkeypatch.setattr(phases, "_keeps_value_shape", lambda combiner: False)
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

    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
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

    def test_a_wrong_declared_batch_size_would_show(self, corpora, baseline,
                                                    monkeypatch):
        """The guard sees batch rows: the one size Similarity2's batch
        declares is what its map and combine phases account, so one byte too
        many moves them — and the walker over every batch row is not fooled."""
        build = Similarity2Mapper.__init__

        def one_byte_too_many(mapper, *args, **kwargs):
            build(mapper, *args, **kwargs)
            mapper._kv_bytes += 1

        monkeypatch.setattr(Similarity2Mapper, "__init__", one_byte_too_many)
        expected = baseline["join_dense", "online_aggregation"]
        actual = accounting(run_join(corpora["join_dense"], "join_dense",
                                     "online_aggregation"))
        ours, theirs = actual["jobs"][-1], expected["jobs"][-1]
        assert ours["job_name"] == "similarity2"
        assert ours["map"]["bytes_out"] == (theirs["map"]["bytes_out"]
                                            + theirs["map"]["records_out"])
        assert ours["combine"]["bytes_out"] == (theirs["combine"]["bytes_out"]
                                                + theirs["combine"]["records_out"])
        use_reference_accounting(monkeypatch)
        assert accounting(run_join(corpora["join_dense"], "join_dense",
                                   "online_aggregation")) == expected

    @settings(max_examples=50, deadline=None)
    @given(cell=join_grid(measures=list_measures(supported_only=True)
                          + [SharedElements()],
                          algorithms=ALGORITHMS,
                          backends=("serial", BACKENDS[-1])),
           options=st.fixed_dictionaries({
               "chunk_size": st.sampled_from([None, 2]),
               "stop_word_frequency": st.sampled_from([None, 3]),
               "use_combiners": st.booleans(),
               "prune_candidates": st.booleans(),
               "vcl_element_order": st.sampled_from(["frequency", "hash"]),
               "vcl_super_element_groups": st.sampled_from([None, 4])}),
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

    @settings(max_examples=40, deadline=None)
    @given(cell=join_grid(measures=list_measures(supported_only=True)
                          + [SharedElements()],
                          algorithms=("sharding", "online_aggregation",
                                      "lookup"),
                          backends=("serial",)),
           options=st.fixed_dictionaries({
               "stop_word_frequency": st.sampled_from([None, 3]),
               "use_combiners": st.booleans()}))
    def test_the_joining_jobs_batch_rows_are_the_walkers(self, cell, options):
        """Every row a batch mapper of a V-SMART join declares — one size for
        the batch or a size column — is what the walker finds on the
        ``(key, value, secondary)`` record it stands for; ``C = 4`` shards some of each corpus, so
        Sharding2 declares both of its sizes."""
        spec = dataclasses.replace(cell.spec(), **options)
        batches = []

        def checked_sizes(emissions: Emissions):
            walked = walked_emission_sizes(emissions)
            declared = emissions.sizes
            assert (list(declared) if type(declared) is list
                    else [declared] * len(walked)) == walked
            batches.append(len(walked))
            return declared

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(phases, "_emission_sizes", checked_sizes)
            result = SimilarityEngine().run(spec, cell.corpus())
        assert len(batches) == len(result.pipeline.job_stats)

    @settings(max_examples=30, deadline=None)
    @given(cell=join_grid(measures=list_measures(supported_only=True)
                          + [SharedElements()],
                          algorithms=("vcl",), backends=("serial",)),
           frequency_order=st.booleans(),
           groups=st.sampled_from([None, 1, 4]))
    def test_the_vcl_kernels_size_column_is_the_walkers(self, cell,
                                                         frequency_order,
                                                         groups):
        """The kernel ships one shared rank-id record per multiset: each
        emission's declared size is what the walker finds on the ``(key,
        value, secondary)`` record it stands for, and on the whole multiset
        it stands for."""
        spec = cell.spec()
        corpus = cell.corpus()
        frequencies = Counter(element for multiset in corpus
                              for element in multiset)
        job = build_kernel_job(
            spec.resolved_measure(), spec.threshold, dict(frequencies),
            use_frequency_order=frequency_order,
            grouping=groups and SuperElementGrouping(groups))
        context = TaskContext(Metrics(), job.side_data)
        job.mapper.setup(context)
        emissions = job.mapper.map_batch(corpus, context)
        keys, values, _secondaries = emissions.columns()
        by_id = {multiset.id: multiset for multiset in corpus}
        assert emissions.sizes == walked_emission_sizes(emissions)
        assert emissions.sizes == [
            walk_record_bytes((key, by_id[value.entity.id], None))
            for key, value in zip(keys, values, strict=True)]

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
