"""Tests for the out-of-core shuffle (``repro.mapreduce.shuffle``).

Three layers under test:

* the :class:`ExternalGrouper` in isolation — run spilling, k-way merge
  determinism, the memory ceiling and temp-file hygiene;
* :class:`DiskShuffleBackend` against the serial backend — bit-identical
  output, counters and stats for arbitrary jobs (the measure/algorithm
  sweep lives in ``tests/test_backends.py``);
* the surrounding plumbing — the cost model's disk term, the planner's
  EXPLAIN column, spill telemetry in join results and the serving
  bootstrap.
"""

from __future__ import annotations

import errno
import glob
import os
import pickle

import pytest

from repro.core.exceptions import BackendError, MemoryBudgetExceeded
from repro.engine import JoinSpec, SimilarityEngine
from repro.mapreduce import (
    Dataset,
    DiskShuffleBackend,
    ExternalGrouper,
    JobSpec,
    LocalJobRunner,
    SerialBackend,
    get_backend,
    shuffle,
)
from repro.mapreduce.cluster import laptop_cluster
from repro.mapreduce.costmodel import CostModel, CostParameters
from repro.mapreduce.types import JobStats, KeyValue
from tests.conftest import strip_telemetry
from tests.test_backends import (
    comparable_stats,
    run_join,
    run_wordcount,
    small_corpus,
)
from tests.test_mapreduce_runner import (
    MaterialisingReducer,
    WordCountMapper,
)


def make_records(count: int, keys: int = 7, partitions: int = 4):
    """Deterministic partitioned records with repeating keys."""
    return [(index % partitions, KeyValue(f"k{index % keys}", index))
            for index in range(count)]


def reference_groups(records):
    """The serial shuffle's grouping of ``records``, record by record, in
    the reduce task's group form: ``(partition, key, values, sizes,
    secondaries)``."""
    spill = {}
    for partition, key_value in records:
        spill.setdefault(partition, {}).setdefault(key_value.key, []).append(key_value)
    return [(partition, key, [record.value for record in group],
             [record.size_bytes for record in group],
             [record.secondary for record in group])
            for partition in sorted(spill)
            for key, group in spill[partition].items()]


def entry_boundaries(path) -> list[int]:
    """The offset after each pickled object of a run file (trailer included)."""
    offsets = []
    with open(path, "rb") as handle:
        while True:
            try:
                pickle.load(handle)
            except EOFError:
                return offsets
            offsets.append(handle.tell())


def first_run_file(directory) -> str | None:
    """The first run file any grouper wrote under ``directory``, if any."""
    runs = sorted(glob.glob(os.path.join(str(directory), "*", "run-*.pkl")))
    return runs[0] if runs else None


def spilled_grouper(tmp_path, records, **options) -> ExternalGrouper:
    """A fed grouper whose first runs are already on disk under ``tmp_path``."""
    options.setdefault("memory_budget_bytes", 256)
    grouper = ExternalGrouper(temp_dir=str(tmp_path), **options)
    for partition, key_value in records:
        grouper.add(partition, key_value)
    assert grouper.telemetry["runs_written"] > 1
    return grouper


class TestExternalGrouper:
    def test_in_memory_fast_path(self):
        records = make_records(50)
        with ExternalGrouper(memory_budget_bytes=1 << 20) as grouper:
            for partition, key_value in records:
                grouper.add(partition, key_value)
            groups = list(grouper.iter_groups())
            assert grouper.telemetry["runs_written"] == 0
            assert grouper.telemetry["bytes_spilled"] == 0
            assert grouper.telemetry["merge_passes"] == 0
            assert grouper.telemetry["spilled_records"] == 0
        assert groups == reference_groups(records)

    def test_spilled_groups_match_in_memory_order(self, tmp_path):
        records = make_records(200, keys=13, partitions=5)
        with ExternalGrouper(memory_budget_bytes=256,
                             temp_dir=str(tmp_path)) as grouper:
            for partition, key_value in records:
                grouper.add(partition, key_value)
            groups = list(grouper.iter_groups())
            telemetry = dict(grouper.telemetry)
        assert groups == reference_groups(records)
        assert telemetry["runs_written"] > 1
        assert telemetry["bytes_spilled"] > 0
        assert telemetry["spilled_records"] > 0
        assert telemetry["merge_passes"] >= 1

    def test_multi_pass_merge_is_deterministic(self, tmp_path):
        records = make_records(300, keys=17, partitions=3)
        with ExternalGrouper(memory_budget_bytes=128, merge_fan_in=2,
                             temp_dir=str(tmp_path)) as grouper:
            for partition, key_value in records:
                grouper.add(partition, key_value)
            groups = list(grouper.iter_groups())
            # Fan-in 2 over many runs forces intermediate merge passes.
            assert grouper.telemetry["merge_passes"] > 1
        assert groups == reference_groups(records)

    def test_memory_ceiling_enforced(self, tmp_path):
        budget = 400
        records = make_records(500)
        with ExternalGrouper(memory_budget_bytes=budget,
                             temp_dir=str(tmp_path)) as grouper:
            for partition, key_value in records:
                grouper.add(partition, key_value)
            # Every record is smaller than the budget, so the buffer may
            # never exceed it: the grouper flushes *before* the add that
            # would cross the line.
            assert grouper.telemetry["peak_buffer_bytes"] <= budget
            list(grouper.iter_groups())

    def test_record_larger_than_budget_still_works(self, tmp_path):
        big = KeyValue("big", "x" * 4096)
        records = [(0, big), (0, KeyValue("small", 1)), (1, big)]
        with ExternalGrouper(memory_budget_bytes=64,
                             temp_dir=str(tmp_path)) as grouper:
            for partition, key_value in records:
                grouper.add(partition, key_value)
            groups = list(grouper.iter_groups())
        assert groups == reference_groups(records)

    def test_close_removes_temp_files(self, tmp_path):
        grouper = ExternalGrouper(memory_budget_bytes=64,
                                  temp_dir=str(tmp_path))
        for partition, key_value in make_records(100):
            grouper.add(partition, key_value)
        assert os.listdir(tmp_path)  # runs exist on disk
        grouper.close()
        assert os.listdir(tmp_path) == []
        grouper.close()  # idempotent

    def test_cleanup_when_consumer_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="consumer failed"):
            with ExternalGrouper(memory_budget_bytes=64,
                                 temp_dir=str(tmp_path)) as grouper:
                for partition, key_value in make_records(100):
                    grouper.add(partition, key_value)
                for _group in grouper.iter_groups():
                    raise RuntimeError("consumer failed")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("damage, complaint", [
        ("at_boundary", "truncated"), ("mid_entry", "truncated"),
        ("no_trailer", "truncated"), ("miscounted", "trailer"),
        ("over_long", "trailer")])
    def test_damaged_run_raises_naming_the_file(self, tmp_path, damage, complaint):
        """``at_boundary`` is the silent one: a run that lost whole entries
        unpickles cleanly, and used to be merged as a shorter run."""
        records = make_records(200, keys=13, partitions=5)
        with spilled_grouper(tmp_path, records) as grouper:
            run = first_run_file(tmp_path)
            boundaries = entry_boundaries(run)
            assert len(boundaries) > 3  # entries, then the trailer
            if damage == "at_boundary":
                os.truncate(run, boundaries[0])
            elif damage == "mid_entry":
                os.truncate(run, boundaries[1] + 5)
            elif damage == "no_trailer":
                os.truncate(run, boundaries[-2])
            elif damage == "miscounted":
                os.truncate(run, boundaries[-2])
                with open(run, "ab") as handle:
                    pickle.dump(len(boundaries), handle)
            else:
                with open(run, "ab") as handle:
                    pickle.dump((9, 9, 9, KeyValue("late", 0)), handle)
            with pytest.raises(BackendError, match="run-000000") as caught:
                list(grouper.iter_groups())
            assert complaint in str(caught.value)
        assert os.listdir(tmp_path) == []

    def test_damaged_run_fails_an_intermediate_merge_too(self, tmp_path):
        records = make_records(300, keys=17, partitions=3)
        with spilled_grouper(tmp_path, records, memory_budget_bytes=128,
                             merge_fan_in=2) as grouper:
            run = first_run_file(tmp_path)
            os.truncate(run, entry_boundaries(run)[0])
            with pytest.raises(BackendError, match="run-000000"):
                list(grouper.iter_groups())
        assert os.listdir(tmp_path) == []

    def test_vanished_run_raises_naming_the_file(self, tmp_path):
        records = make_records(200, keys=13, partitions=5)
        with spilled_grouper(tmp_path, records) as grouper:
            os.remove(first_run_file(tmp_path))
            with pytest.raises(BackendError, match=r"cannot read .*run-000000"):
                list(grouper.iter_groups())
        assert os.listdir(tmp_path) == []

    def test_add_after_close_raises(self):
        grouper = ExternalGrouper(memory_budget_bytes=64)
        grouper.close()
        with pytest.raises(BackendError, match="closed"):
            grouper.add(0, KeyValue("k", 1))

    def test_invalid_construction(self):
        with pytest.raises(BackendError, match="memory_budget_bytes"):
            ExternalGrouper(memory_budget_bytes=0)
        with pytest.raises(BackendError, match="merge_fan_in"):
            ExternalGrouper(memory_budget_bytes=64, merge_fan_in=1)


class TestDiskShuffleBackend:
    def test_join_larger_than_memory_budget_completes(self):
        """The ISSUE's acceptance check: shuffle volume >> spill budget."""
        budget = 4096
        corpus = small_corpus(count=30, stride=6)
        backend = DiskShuffleBackend(memory_budget_bytes=budget,
                                     merge_fan_in=2)
        base = run_join(SerialBackend(), corpus)
        result = run_join(backend, corpus)
        shuffled = sum(result.pipeline.stats_for(name).shuffle_bytes
                       for name in
                       (stats.job_name for stats in result.pipeline.job_stats))
        spilled = result.counters()["shuffle/bytes_spilled"]
        assert shuffled > budget  # the join genuinely exceeded the budget
        assert spilled > 0  # and really went out of core
        for stats in result.pipeline.job_stats:
            # The ceiling held in every job.
            peak = stats.counters.get("shuffle/peak_buffer_bytes", 0)
            assert peak <= budget, stats.job_name
        assert result.pairs == base.pairs
        assert strip_telemetry(result.counters()) == strip_telemetry(base.counters())

    def test_map_only_job_parity(self):
        documents = ["a b", "c d e"]
        job = JobSpec("tokens", WordCountMapper())
        base = LocalJobRunner(laptop_cluster()).run(
            job, Dataset.from_records(documents))
        result = LocalJobRunner(
            laptop_cluster(),
            backend=DiskShuffleBackend(memory_budget_bytes=64)).run(
            job, Dataset.from_records(documents))
        assert list(result.output.records) == list(base.output.records)
        assert comparable_stats(base.stats) == comparable_stats(result.stats)

    def test_empty_dataset_parity(self):
        base = run_wordcount(SerialBackend(), documents=[])
        result = run_wordcount(DiskShuffleBackend(), documents=[])
        assert list(result.output.records) == list(base.output.records)
        assert comparable_stats(base.stats) == comparable_stats(result.stats)

    def test_memory_budget_error_matches_serial(self):
        cluster = laptop_cluster().with_memory(400)
        documents = [" ".join(["hot"] * 40) for _ in range(20)]
        job = JobSpec("materialise", WordCountMapper(), MaterialisingReducer())

        def run_with(backend):
            runner = LocalJobRunner(cluster, backend=backend)
            with pytest.raises(MemoryBudgetExceeded) as excinfo:
                runner.run(job, Dataset.from_records(documents))
            return excinfo.value

        base = run_with(SerialBackend())
        other = run_with(DiskShuffleBackend(memory_budget_bytes=128))
        assert str(other) == str(base)
        assert other.required_bytes == base.required_bytes

    def test_temp_files_removed_after_error(self, tmp_path):
        cluster = laptop_cluster().with_memory(400)
        backend = DiskShuffleBackend(memory_budget_bytes=128,
                                     temp_dir=str(tmp_path))
        runner = LocalJobRunner(cluster, backend=backend)
        documents = [" ".join(["hot"] * 40) for _ in range(20)]
        job = JobSpec("materialise", WordCountMapper(), MaterialisingReducer())
        with pytest.raises(MemoryBudgetExceeded):
            runner.run(job, Dataset.from_records(documents))
        assert os.listdir(tmp_path) == []

    def test_join_over_a_truncated_run_raises_and_cleans_up(self, tmp_path):
        """A torn run file fails the join: no shorter answer, no temp files."""

        class TornRunBackend(DiskShuffleBackend):
            """Cuts the first run of each shuffle back to its first entry."""

            def external_grouper(self):
                grouper = super().external_grouper()
                merge = grouper.iter_groups

                def torn_merge():
                    run = first_run_file(tmp_path)
                    if run is not None:
                        os.truncate(run, entry_boundaries(run)[0])
                    return merge()

                grouper.iter_groups = torn_merge
                return grouper

        corpus = small_corpus(count=30, stride=6)
        options = dict(memory_budget_bytes=4096, temp_dir=str(tmp_path))
        whole = run_join(DiskShuffleBackend(**options), corpus)
        assert whole.counters()["shuffle/runs_written"] > 0
        with pytest.raises(BackendError, match=r"run-000000\.pkl"):
            run_join(TornRunBackend(**options), corpus)
        assert os.listdir(tmp_path) == []

    def test_missing_spill_directory_is_a_backend_error(self, tmp_path):
        """It used to escape as a bare ``FileNotFoundError``."""
        missing = tmp_path / "gone"
        backend = get_backend("disk", memory_budget_bytes=4096,
                              temp_dir=str(missing))
        with pytest.raises(BackendError, match=r"spill directory under .*gone"):
            run_join(backend, small_corpus(count=30, stride=6))
        assert os.listdir(tmp_path) == []

    def test_full_disk_on_the_second_run_is_a_backend_error(self, tmp_path,
                                                            monkeypatch):
        """``ENOSPC`` while a run is written fails the join, naming the run
        file, and leaves no spill files behind."""

        class FullDisk:
            def __init__(self, handle):
                self.handle = handle

            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

        def open_on_a_full_disk(path, mode="r", *args, **kwargs):
            handle = open(path, mode, *args, **kwargs)
            return FullDisk(handle) if path.endswith("run-000001.pkl") else handle

        monkeypatch.setattr(shuffle, "open", open_on_a_full_disk, raising=False)
        backend = get_backend("disk", memory_budget_bytes=4096,
                              temp_dir=str(tmp_path))
        with pytest.raises(BackendError, match=(
                r"cannot write spill run .*run-000001\.pkl.*No space left")):
            run_join(backend, small_corpus(count=30, stride=6))
        assert os.listdir(tmp_path) == []

    def test_invalid_options_raise(self):
        with pytest.raises(BackendError, match="memory_budget_bytes"):
            DiskShuffleBackend(memory_budget_bytes=0)
        with pytest.raises(BackendError, match="merge_fan_in"):
            DiskShuffleBackend(merge_fan_in=1)

    def test_spill_telemetry_surfaces_in_join_results(self):
        backend = DiskShuffleBackend(memory_budget_bytes=2048)
        result = run_join(backend, small_corpus())
        counters = result.counters()
        assert counters["shuffle/bytes_spilled"] > 0
        assert counters["shuffle/runs_written"] > 0
        # Per-job attribution flows through stats_for as well.
        per_job = [result.pipeline.stats_for(stats.job_name).counters
                   for stats in result.pipeline.job_stats]
        assert any("shuffle/bytes_spilled" in counters for counters in per_job)
        # Over the pipeline the tallies sum, but a peak is the largest
        # per-job peak: it can be read directly against the budget.
        assert counters["shuffle/runs_written"] == sum(
            job["shuffle/runs_written"] for job in per_job)
        peaks = [job["shuffle/peak_buffer_bytes"] for job in per_job]
        assert sum(peaks) > 2048 >= max(peaks) == counters["shuffle/peak_buffer_bytes"]


class TestCostModelDiskTerm:
    def spilled_stats(self):
        stats = JobStats(job_name="spilly", num_machines=4)
        stats.shuffle_bytes = 1_000_000
        stats.spilled_bytes = 1_000_000
        return stats

    def test_disabled_by_default(self):
        cost = CostModel().job_cost(self.spilled_stats(), laptop_cluster())
        assert cost.disk_seconds == 0.0

    def test_charges_write_plus_read(self):
        parameters = CostParameters(disk_bandwidth=2.0e6)
        cluster = laptop_cluster()
        stats = self.spilled_stats()
        cost = CostModel(parameters).job_cost(stats, cluster)
        expected = 2 * stats.spilled_bytes / (2.0e6 * cluster.num_machines)
        assert cost.disk_seconds == expected
        assert cost.total_seconds == pytest.approx(
            cost.overhead_seconds + cost.side_data_seconds + cost.map_seconds
            + cost.shuffle_seconds + cost.reduce_seconds + cost.disk_seconds)

    def test_validation(self):
        with pytest.raises(ValueError, match="disk_bandwidth"):
            CostParameters(disk_bandwidth=0.0)

    def test_simulated_seconds_agree_across_backends(self):
        """The disk term charges all backends alike: parity survives it."""
        parameters = CostParameters(disk_bandwidth=1.0e6)
        corpus = small_corpus()

        def simulate(backend):
            engine = SimilarityEngine(corpus, cost_parameters=parameters)
            spec = JoinSpec(measure="ruzicka", threshold=0.3,
                            algorithm="online_aggregation", backend=backend)
            return engine.run(spec).simulated_seconds

        base = simulate("serial")
        assert base > 0
        assert simulate("disk") == base

    def test_explain_shows_disk_column_when_charged(self):
        corpus = small_corpus()
        spec = JoinSpec(measure="ruzicka", threshold=0.3, algorithm="auto")
        without = SimilarityEngine(corpus).plan(spec).explain()
        assert "disk" not in without
        with_disk = SimilarityEngine(
            corpus,
            cost_parameters=CostParameters(disk_bandwidth=1.0e6),
        ).plan(spec).explain()
        assert "disk" in with_disk

