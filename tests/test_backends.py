"""Tests for the pluggable execution backends.

The contract under test: backends change *where* mapper/combiner/reducer
work runs, never *what* it computes — join output, counters and the full
per-job statistics must be identical across the serial, process and disk
backends (and the inline multi-task test backend) for every registered
measure and joining algorithm.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.exceptions import (
    BackendError,
    JobConfigurationError,
    MemoryBudgetExceeded,
)
from repro.core.multiset import Multiset
from repro.mapreduce import (
    Dataset,
    DiskShuffleBackend,
    JobSpec,
    LocalJobRunner,
    Mapper,
    ProcessBackend,
    Reducer,
    SerialBackend,
    available_backends,
    get_backend,
)
from repro.mapreduce.backends import default_worker_count
from repro.mapreduce.cluster import laptop_cluster
from repro.mapreduce.partitioner import hash_partitioner
from repro.similarity.registry import supported_measures
from repro.engine.engine import join
from repro.vsmart.driver import JOINING_ALGORITHMS
from tests.conftest import (
    InlineBackend,
    assert_matches_oracle,
    join_grid,
    strip_telemetry,
)
from tests.test_mapreduce_runner import (
    MaterialisingReducer,
    WordCountMapper,
    WordCountReducer,
)


INLINE = InlineBackend()


@pytest.fixture(scope="module")
def process_backend():
    with ProcessBackend(num_workers=2) as backend:
        yield backend


def small_corpus(count: int = 12, stride: int = 5) -> list[Multiset]:
    """A deterministic corpus with overlapping element sets."""
    return [
        Multiset(
            f"m{index}",
            {f"e{(index + j) % stride}": (index + j) % 3 + 1 for j in range(index % 4 + 2)},
        )
        for index in range(count)
    ]


def run_join(backend, corpus, algorithm="online_aggregation", measure="ruzicka",
             threshold=0.3):
    return join(corpus, algorithm=algorithm, measure=measure,
                threshold=threshold, sharding_threshold=3,
                cluster=laptop_cluster(), backend=backend)


def comparable_stats(stats):
    """Job stats as a dict with telemetry counters stripped."""
    as_dict = dataclasses.asdict(stats)
    as_dict["counters"] = strip_telemetry(as_dict["counters"])
    return as_dict


def exec_backends():
    """A fresh disk backend that spills and multi-pass merges tiny joins."""
    return (get_backend("disk", memory_budget_bytes=2048, merge_fan_in=2),)


class TestBackendFactory:
    def test_names_resolve(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("process"), ProcessBackend)
        assert isinstance(get_backend("disk"), DiskShuffleBackend)

    def test_lookup_is_case_insensitive(self):
        assert isinstance(get_backend("Process"), ProcessBackend)
        assert isinstance(get_backend(" SERIAL "), SerialBackend)

    def test_none_resolves_to_serial(self):
        assert isinstance(get_backend(None), SerialBackend)

    def test_instances_pass_through(self):
        assert get_backend(INLINE) is INLINE

    def test_unknown_backend_lists_available(self):
        # "thread" and "sql" were backends until 2.1; they get no shim.
        for name in ("gpu", "thread", "sql"):
            with pytest.raises(JobConfigurationError,
                               match="disk, process, serial$"):
                get_backend(name)

    def test_available_backends(self):
        assert available_backends() == ["disk", "process", "serial"]

    def test_options_forward_to_backend_constructor(self):
        backend = get_backend("disk", memory_budget_bytes=4096, merge_fan_in=3)
        assert backend.memory_budget_bytes == 4096
        assert backend.merge_fan_in == 3

    @pytest.mark.parametrize("name, option, value", [
        ("serial", "memory_budget_bytes", 1),
        ("process", "engine", "x"),
        ("disk", "memory_budget_bytes", "x"),
    ])
    def test_bad_options_raise_backend_error(self, name, option, value):
        """Option mistakes stay inside the ``ReproError`` contract."""
        accepted = "num_workers" + (
            ", memory_budget_bytes, temp_dir, merge_fan_in" * (name == "disk"))
        with pytest.raises(BackendError, match=(
                f"'{name}' backend with options .*{option}.* accepts: {accepted}$")):
            get_backend(name, **{option: value})

    def test_serial_backend_has_one_worker(self):
        assert SerialBackend(num_workers=8).num_workers == 1

    def test_worker_count_defaults_to_cpus(self):
        assert ProcessBackend().num_workers == default_worker_count()
        assert ProcessBackend(num_workers=3).num_workers == 3


class TestRunTasks:
    def test_results_preserve_task_order(self, process_backend):
        tasks = list(range(20))
        expected = [task * task for task in tasks]
        for backend in (SerialBackend(), INLINE, process_backend):
            assert backend.run_tasks(_square, tasks) == expected

    def test_empty_task_list(self, process_backend):
        for backend in (SerialBackend(), INLINE, process_backend):
            assert backend.run_tasks(_square, []) == []

    def test_pools_are_reusable_after_close(self):
        backend = ProcessBackend(num_workers=2)
        assert backend.run_tasks(_square, [2]) == [4]
        backend.close()
        assert backend.run_tasks(_square, [3]) == [9]
        backend.close()


def _square(value: int) -> int:
    return value * value


def run_wordcount(backend, documents=None):
    runner = LocalJobRunner(laptop_cluster(), backend=backend)
    if documents is None:
        documents = [f"w{i % 7} w{i % 3} w{i % 5}" for i in range(40)]
    job = JobSpec("wordcount", WordCountMapper(), WordCountReducer())
    return runner.run(job, Dataset.from_records(documents))


END = "<end>"


class TrailerMapper(Mapper):
    """``(word, position, -position)`` per word; the one task that maps
    :data:`END` emits a trailer from ``cleanup``, so task splits do not show."""

    def setup(self, context):
        self.end = None

    def map(self, record, context):
        position, word = record
        if word == END:
            self.end = position
        else:
            context.increment("words_mapped")
            yield word, position, -position

    def cleanup(self, context):
        if self.end is not None:
            yield END, self.end, 0


class TrailerReducer(Reducer):
    """Each word's positions; the trailer is held back until ``cleanup``."""

    def setup(self, context):
        self.trailer = None

    def reduce(self, key, values, context):
        context.increment("groups_reduced")
        if key == END:
            self.trailer = list(values)
        else:
            yield key, list(values)

    def cleanup(self, context):
        if self.trailer is not None:
            yield END, self.trailer


def trailer_last(key, num_reducers):
    """Partition the trailer last, so the task that holds it cleans up last."""
    return (num_reducers - 1 if key == END
            else hash_partitioner(key, num_reducers - 1))


def run_trailer_job(backend):
    words = [f"w{(index * 7) % 11}" for index in range(60)] + [END]
    job = JobSpec("trailer", TrailerMapper(), TrailerReducer(),
                  partitioner=trailer_last, requires_secondary_keys=True)
    runner = LocalJobRunner(laptop_cluster(), backend=backend)
    return runner.run(job, Dataset.from_records(list(enumerate(words))))


class TestWordCountParity:
    """Whole jobs: output records, counters and full stats on every backend."""

    def test_output_and_stats_identical(self, process_backend):
        disk = DiskShuffleBackend(memory_budget_bytes=512, merge_fan_in=2)
        for run_job in (run_wordcount, run_trailer_job):
            base = run_job(SerialBackend())
            for backend in (process_backend, INLINE, disk):
                result = run_job(backend)
                assert list(result.output.records) == list(base.output.records)
                assert (comparable_stats(result.stats)
                        == comparable_stats(base.stats)), backend.name
            # The disk run spilled, merged in several passes, kept its ceiling.
            assert result.stats.counters["shuffle/runs_written"] > 2
            assert result.stats.counters["shuffle/merge_passes"] > 1
            assert result.stats.counters["shuffle/peak_buffer_bytes"] <= 512

    def test_cleanup_emissions_and_secondary_order_reach_the_output(self):
        """The reduce loop's other half, which the parity above rests on."""
        result = run_trailer_job(SerialBackend())
        output = list(result.output.records)
        assert output[-1] == (END, [60])
        assert all(positions == sorted(positions, reverse=True)
                   for _word, positions in output[:-1])
        assert result.stats.counters == {"words_mapped": 60, "groups_reduced": 12}


class TestJoinParity:
    """Serial, inline multi-task and process backends agree on every join."""

    @pytest.mark.parametrize("algorithm", JOINING_ALGORITHMS)
    def test_algorithms_agree_across_backends(self, algorithm, process_backend):
        corpus = small_corpus()
        base = run_join(SerialBackend(), corpus, algorithm=algorithm)
        for backend in (INLINE, process_backend):
            result = run_join(backend, corpus, algorithm=algorithm)
            assert result.pairs == base.pairs, backend.name
            assert result.counters() == base.counters(), backend.name
            for mine, theirs in zip(base.pipeline.job_stats,
                                    result.pipeline.job_stats, strict=True):
                assert dataclasses.asdict(mine) == dataclasses.asdict(theirs), \
                    (backend.name, mine.job_name)

    @pytest.mark.parametrize("measure", supported_measures())
    def test_measures_agree_across_backends(self, measure, process_backend):
        corpus = small_corpus(count=10)
        base = run_join(SerialBackend(), corpus, measure=measure)
        for backend in (INLINE, process_backend):
            result = run_join(backend, corpus, measure=measure)
            assert result.pairs == base.pairs, (backend.name, measure)
            assert result.counters() == base.counters(), (backend.name, measure)

    @pytest.mark.parametrize("element_order", ["frequency", "hash"])
    def test_vcl_agrees_across_backends(self, element_order, process_backend):
        # The VCL kernel mapper carries a rank function as state; this is the
        # pickling-sensitive path the vsmart pipelines never exercise.
        corpus = small_corpus()
        base = join(corpus, threshold=0.3, algorithm="vcl",
                    vcl_element_order=element_order).pairs
        for backend in (INLINE, process_backend):
            pairs = join(corpus, threshold=0.3, algorithm="vcl",
                         vcl_element_order=element_order,
                         backend=backend).pairs
            assert pairs == base, backend.name


class TestErrorPropagation:
    def test_memory_budget_error_crosses_process_boundary(self, process_backend):
        cluster = laptop_cluster().with_memory(400)
        runner = LocalJobRunner(cluster, backend=process_backend)
        documents = [" ".join(["hot"] * 40) for _ in range(20)]
        job = JobSpec("materialise", WordCountMapper(), MaterialisingReducer())
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            runner.run(job, Dataset.from_records(documents))
        assert excinfo.value.required_bytes > excinfo.value.budget_bytes > 0


class TestPropertyParity:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cell=join_grid(measures=("ruzicka",),
                          algorithms=JOINING_ALGORITHMS, backends=(INLINE,)))
    def test_random_corpora_agree(self, cell, process_backend):
        corpus = cell.corpus(count=8, alphabet_size=6, max_elements=4)
        base = run_join(SerialBackend(), corpus, algorithm=cell.algorithm,
                        threshold=cell.threshold)
        for backend in (cell.backend, process_backend):
            result = run_join(backend, corpus, algorithm=cell.algorithm,
                              threshold=cell.threshold)
            assert result.pairs == base.pairs, backend.name
            assert result.counters() == base.counters(), backend.name

    @settings(max_examples=12, deadline=None)
    @given(cell=join_grid(measures=("ruzicka", "jaccard", "cosine"),
                          algorithms=JOINING_ALGORITHMS,
                          backends=exec_backends()))
    def test_exec_backends_are_bit_identical(self, cell):
        """The disk-shuffle backend reproduces serial joins exactly.

        Output pairs, counters (minus the reserved telemetry namespace) and
        the complete per-job statistics must match bit for bit, across
        measures and joining algorithms — the same discipline the process
        backend is held to.
        """
        corpus = cell.corpus(count=8, alphabet_size=6, max_elements=4)
        base, result = (run_join(backend, corpus, algorithm=cell.algorithm,
                                 measure=cell.measure,
                                 threshold=cell.threshold)
                        for backend in (SerialBackend(), cell.backend))
        assert_matches_oracle(base.pairs, corpus, cell.measure, cell.threshold)
        assert result.pairs == base.pairs
        assert (strip_telemetry(result.counters())
                == strip_telemetry(base.counters()))
        for mine, theirs in zip(base.pipeline.job_stats,
                                result.pipeline.job_stats, strict=True):
            assert comparable_stats(mine) == comparable_stats(theirs), \
                mine.job_name
