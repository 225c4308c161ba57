"""Tests for the pluggable execution backends.

The contract under test: backends change *where* the shuffle is held,
never *what* a job computes — join output, counters and the full per-job
statistics must be identical across the serial and disk backends (the
latter also at a budget small enough to spill and merge in several passes)
for every registered measure and joining algorithm.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.exceptions import BackendError, JobConfigurationError
from repro.core.multiset import Multiset
from repro.mapreduce import (
    Dataset,
    DiskShuffleBackend,
    JobSpec,
    LocalJobRunner,
    Mapper,
    Reducer,
    SerialBackend,
    get_backend,
)
from repro.mapreduce.backends import available_backends
from repro.mapreduce.cluster import laptop_cluster
from repro.mapreduce.partitioner import hash_partitioner
from repro.similarity.registry import list_measures
from repro.engine.engine import join
from repro.vsmart.driver import JOINING_ALGORITHMS
from tests.conftest import (
    BACKENDS,
    SPILLING_DISK,
    assert_matches_oracle,
    join_grid,
    strip_telemetry,
)
from tests.test_mapreduce_runner import WordCountMapper, WordCountReducer


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


class TestBackendFactory:
    def test_names_resolve(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("disk"), DiskShuffleBackend)

    def test_lookup_is_case_insensitive(self):
        assert isinstance(get_backend("Disk"), DiskShuffleBackend)
        assert isinstance(get_backend(" SERIAL "), SerialBackend)

    def test_none_resolves_to_serial(self):
        assert isinstance(get_backend(None), SerialBackend)

    def test_instances_pass_through(self):
        assert get_backend(SPILLING_DISK) is SPILLING_DISK

    def test_options_with_an_instance_raise_backend_error(self):
        """They used to be dropped without a word."""
        with pytest.raises(BackendError, match="memory_budget_bytes.*instance"):
            get_backend(SPILLING_DISK, memory_budget_bytes=1)
        assert SPILLING_DISK.memory_budget_bytes == 2048

    def test_unknown_backend_lists_available(self):
        # "thread" and "sql" were backends until 2.1, "process" until 3.4;
        # they get no shim.
        for name in ("gpu", "thread", "sql", "process"):
            with pytest.raises(JobConfigurationError, match="disk, serial$"):
                get_backend(name)

    def test_available_backends(self):
        assert available_backends() == ["disk", "serial"]

    def test_options_forward_to_backend_constructor(self):
        backend = get_backend("disk", memory_budget_bytes=4096, merge_fan_in=3)
        assert backend.memory_budget_bytes == 4096
        assert backend.merge_fan_in == 3

    @pytest.mark.parametrize("option, value", [
        ("memory_budget_bytes", 1.5), ("memory_budget_bytes", True),
        ("memory_budget_bytes", "4096"), ("merge_fan_in", 2.5),
        ("merge_fan_in", True), ("merge_fan_in", "3"),
    ])
    def test_a_knob_that_is_not_an_integer_is_a_backend_error(self, option, value):
        """``memory_budget_bytes=1.5`` used to run as a 1-byte budget, and
        ``True`` / ``"4096"`` / ``merge_fan_in=2.5`` were coerced too."""
        with pytest.raises(BackendError, match=f"{option} must be an int "):
            get_backend("disk", **{option: value})

    def test_a_numpy_integer_knob_is_an_integer(self):
        backend = get_backend("disk", memory_budget_bytes=np.int64(4096),
                              merge_fan_in=np.int64(3))
        assert (backend.memory_budget_bytes, backend.merge_fan_in) == (4096, 3)
        assert type(backend.memory_budget_bytes) is int

    @pytest.mark.parametrize("name, option, value", [
        ("serial", "memory_budget_bytes", 1),
        ("disk", "engine", "x"),
        ("disk", "memory_budget_bytes", "x"),
    ])
    def test_bad_options_raise_backend_error(self, name, option, value):
        """Option mistakes stay inside the ``ReproError`` contract."""
        accepted = ("memory_budget_bytes, temp_dir, merge_fan_in"
                    if name == "disk" else "no options")
        with pytest.raises(BackendError, match=(
                f"'{name}' backend with options .*{option}.* accepts: {accepted}$")):
            get_backend(name, **{option: value})


class TestRunTasks:
    def test_results_preserve_task_order(self):
        tasks = list(range(20))
        expected = [task * task for task in tasks]
        for backend in (SerialBackend(), SPILLING_DISK):
            assert backend.run_tasks(_square, tasks) == expected

    def test_empty_task_list(self):
        for backend in (SerialBackend(), SPILLING_DISK):
            assert backend.run_tasks(_square, []) == []


def _square(value: int) -> int:
    return value * value


def run_wordcount(backend, documents=None):
    runner = LocalJobRunner(laptop_cluster(), backend=backend)
    if documents is None:
        documents = [f"w{i % 7} w{i % 3} w{i % 5}" for i in range(40)]
    job = JobSpec("wordcount", WordCountMapper(), WordCountReducer())
    return runner.run(job, Dataset.from_records(documents))


END = "<end>"
COUNT = "<count>"


class TrailerMapper(Mapper):
    """``(word, position, -position)`` per word; ``cleanup`` emits how many
    words the job mapped — a count over the whole input — and the
    :data:`END` trailer at its position."""

    def setup(self, context):
        self.end = None
        self.words = 0

    def map(self, record, context):
        position, word = record
        if word == END:
            self.end = position
        else:
            self.words += 1
            context.increment("words_mapped")
            yield word, position, -position

    def cleanup(self, context):
        yield COUNT, self.words, 0
        if self.end is not None:
            yield END, self.end, 0


class TrailerReducer(Reducer):
    """Each key's values; the trailer is held back until ``cleanup``."""

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
    """Partition the trailer last, so it is reduced after every other key."""
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

    def test_output_and_stats_identical(self):
        disk = DiskShuffleBackend(memory_budget_bytes=512, merge_fan_in=2)
        for run_job in (run_wordcount, run_trailer_job):
            base = run_job(SerialBackend())
            for backend in (get_backend("disk"), disk):
                result = run_job(backend)
                assert list(result.output.records) == list(base.output.records)
                assert (comparable_stats(result.stats)
                        == comparable_stats(base.stats)), backend
            # The disk run spilled, merged in several passes, kept its ceiling.
            assert result.stats.counters["shuffle/runs_written"] > 2
            assert result.stats.counters["shuffle/merge_passes"] > 1
            assert result.stats.counters["shuffle/peak_buffer_bytes"] <= 512

    def test_cleanup_emissions_and_secondary_order_reach_the_output(self):
        """The reduce loop's other half, which the parity above rests on."""
        result = run_trailer_job(SerialBackend())
        output = list(result.output.records)
        assert output[-1] == (END, [60])
        # The mapper's cleanup saw the whole input: one count, of every word.
        assert (COUNT, [60]) in output
        assert all(positions == sorted(positions, reverse=True)
                   for _word, positions in output[:-1])
        assert result.stats.counters == {"words_mapped": 60, "groups_reduced": 13}


class TestJoinParity:
    """Serial and disk backends agree on every join."""

    @pytest.mark.parametrize("algorithm", JOINING_ALGORITHMS)
    def test_algorithms_agree_across_backends(self, algorithm):
        corpus = small_corpus()
        base = run_join(SerialBackend(), corpus, algorithm=algorithm)
        for backend in BACKENDS[1:]:
            result = run_join(backend, corpus, algorithm=algorithm)
            assert result.pairs == base.pairs, backend
            assert (strip_telemetry(result.counters())
                    == base.counters()), backend
            for mine, theirs in zip(base.pipeline.job_stats,
                                    result.pipeline.job_stats, strict=True):
                assert comparable_stats(mine) == comparable_stats(theirs), \
                    (backend, mine.job_name)

    @pytest.mark.parametrize("measure", list_measures(supported_only=True))
    def test_measures_agree_across_backends(self, measure):
        corpus = small_corpus(count=10)
        base = run_join(SerialBackend(), corpus, measure=measure)
        for backend in BACKENDS[1:]:
            result = run_join(backend, corpus, measure=measure)
            assert result.pairs == base.pairs, (backend, measure)
            assert (strip_telemetry(result.counters())
                    == base.counters()), (backend, measure)

    @pytest.mark.parametrize("element_order", ["frequency", "hash"])
    def test_vcl_agrees_across_backends(self, element_order):
        corpus = small_corpus()
        base = join(corpus, threshold=0.3, algorithm="vcl",
                    vcl_element_order=element_order).pairs
        for backend in BACKENDS[1:]:
            pairs = join(corpus, threshold=0.3, algorithm="vcl",
                         vcl_element_order=element_order,
                         backend=backend).pairs
            assert pairs == base, backend


class TestPropertyParity:
    @settings(max_examples=12, deadline=None)
    @given(cell=join_grid(measures=("ruzicka",),
                          algorithms=JOINING_ALGORITHMS, backends=BACKENDS[1:]))
    def test_random_corpora_agree(self, cell):
        corpus = cell.corpus(count=8, alphabet_size=6, max_elements=4)
        base, result = (run_join(backend, corpus, algorithm=cell.algorithm,
                                 threshold=cell.threshold)
                        for backend in (SerialBackend(), cell.backend))
        assert result.pairs == base.pairs
        assert strip_telemetry(result.counters()) == base.counters()

    @settings(max_examples=12, deadline=None)
    @given(cell=join_grid(measures=("ruzicka", "jaccard", "cosine"),
                          algorithms=JOINING_ALGORITHMS,
                          backends=(SPILLING_DISK,)))
    def test_exec_backends_are_bit_identical(self, cell):
        """The disk-shuffle backend reproduces serial joins exactly.

        Output pairs, counters (minus the reserved telemetry namespace) and
        the complete per-job statistics must match bit for bit, across
        measures and joining algorithms.
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
