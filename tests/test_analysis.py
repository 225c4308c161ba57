"""Tests for the experiment harness, reporting and calibration."""

from __future__ import annotations

import pytest

from repro.analysis.calibration import paper_scale_cluster, paper_scale_cost_parameters
from repro.analysis.experiments import (
    ALGORITHMS,
    STATUS_OK,
    STATUS_OUT_OF_MEMORY,
    STATUS_UNSUPPORTED,
    AlgorithmOutcome,
    agreement_check,
    machine_sweep,
    run_algorithm,
    sharding_parameter_sweep,
    threshold_sweep,
)
from repro.analysis.reporting import (
    format_sweep_table,
    format_table,
    outcome_cell,
    relative_drop,
    speedup,
)
from repro.mapreduce.cluster import Cluster, HADOOP, laptop_cluster
from repro.similarity.exact import all_pairs_exact


class TestRunAlgorithm:
    def test_unknown_algorithm(self, small_multisets):
        with pytest.raises(ValueError):
            run_algorithm("quantum", small_multisets)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_ok_status_and_agreement(self, algorithm, small_multisets, test_cluster):
        outcome = run_algorithm(algorithm, small_multisets, threshold=0.4,
                                cluster=test_cluster, sharding_threshold=10)
        assert outcome.status == STATUS_OK
        assert outcome.finished
        assert outcome.simulated_seconds > 0
        expected = len(all_pairs_exact(small_multisets, "ruzicka", 0.4))
        assert outcome.num_pairs == expected

    def test_vsmart_outcomes_report_phase_split(self, small_multisets, test_cluster):
        outcome = run_algorithm("online_aggregation", small_multisets,
                                cluster=test_cluster)
        assert outcome.joining_seconds > 0
        assert outcome.similarity_seconds > 0

    def test_out_of_memory_status(self, small_multisets):
        tiny = Cluster(num_machines=2, memory_per_machine=1_000,
                       disk_per_machine=10 ** 9)
        outcome = run_algorithm("lookup", small_multisets, cluster=tiny)
        assert outcome.status == STATUS_OUT_OF_MEMORY
        assert not outcome.finished
        assert outcome.time_or_none() is None
        assert "memory" in outcome.detail

    def test_unsupported_status_on_hadoop(self, small_multisets, hadoop_cluster):
        outcome = run_algorithm("online_aggregation", small_multisets,
                                cluster=hadoop_cluster)
        assert outcome.status == STATUS_UNSUPPORTED

    def test_keep_pairs_flag(self, small_multisets, test_cluster):
        with_pairs = run_algorithm("vcl", small_multisets, cluster=test_cluster)
        without_pairs = run_algorithm("vcl", small_multisets, cluster=test_cluster,
                                      keep_pairs=False)
        assert with_pairs.pairs is not None
        assert without_pairs.pairs is None
        assert with_pairs.num_pairs == without_pairs.num_pairs

    def test_agreement_check(self):
        assert agreement_check([
            AlgorithmOutcome("a", STATUS_OK, num_pairs=5),
            AlgorithmOutcome("b", STATUS_OK, num_pairs=5),
            AlgorithmOutcome("c", STATUS_OUT_OF_MEMORY),
        ])
        assert not agreement_check([
            AlgorithmOutcome("a", STATUS_OK, num_pairs=5),
            AlgorithmOutcome("b", STATUS_OK, num_pairs=6),
        ])


class TestSweeps:
    def test_threshold_sweep(self, small_multisets, test_cluster):
        sweep = threshold_sweep(["online_aggregation"], small_multisets,
                                [0.3, 0.7], cluster=test_cluster)
        assert set(sweep) == {0.3, 0.7}
        assert sweep[0.3]["online_aggregation"].num_pairs >= sweep[0.7][
            "online_aggregation"].num_pairs

    def test_machine_sweep(self, small_multisets, test_cluster):
        sweep = machine_sweep(["online_aggregation"], small_multisets, [2, 8],
                              base_cluster=test_cluster)
        assert set(sweep) == {2, 8}
        assert (sweep[8]["online_aggregation"].simulated_seconds
                <= sweep[2]["online_aggregation"].simulated_seconds)

    def test_sharding_parameter_sweep(self, small_multisets, test_cluster):
        sweep = sharding_parameter_sweep(small_multisets, [4, 64], test_cluster)
        assert set(sweep) == {4, 64}
        for row in sweep.values():
            assert row["total_seconds"] > 0
            assert row["sharding1_seconds"] > 0
            assert row["sharding2_seconds"] > 0
            assert row["num_pairs"] == sweep[4]["num_pairs"]


class TestReporting:
    def test_format_table(self):
        text = format_table(["name", "value"], [["a", 1.0], ["bb", 22222.0]],
                            title="demo")
        assert "demo" in text
        assert "name" in text
        assert "22,222" in text

    def test_outcome_cell(self):
        ok = AlgorithmOutcome("a", STATUS_OK, simulated_seconds=12.0)
        oom = AlgorithmOutcome("a", STATUS_OUT_OF_MEMORY)
        assert outcome_cell(ok) == "12s"
        assert "out of memory" in outcome_cell(oom)

    def test_format_sweep_table(self):
        sweep = {0.5: {"vcl": AlgorithmOutcome("vcl", STATUS_OK, simulated_seconds=3.0)}}
        text = format_sweep_table(sweep, ["vcl", "missing"], "threshold")
        assert "threshold" in text
        assert "3s" in text
        assert "-" in text

    def test_speedup_and_drop(self):
        assert speedup(100.0, 10.0) == pytest.approx(10.0)
        assert speedup(None, 10.0) is None
        assert relative_drop(100.0, 60.0) == pytest.approx(0.4)
        assert relative_drop(100.0, None) is None


class TestCalibration:
    def test_paper_scale_cluster(self):
        cluster = paper_scale_cluster(300)
        assert cluster.num_machines == 300
        assert cluster.memory_per_machine > 0
        assert cluster.scheduler_limit_seconds == 48 * 3600.0

    def test_paper_scale_cluster_hadoop_profile(self):
        cluster = paper_scale_cluster(100, profile=HADOOP)
        assert not cluster.profile.supports_secondary_keys

    def test_cost_parameters(self):
        params = paper_scale_cost_parameters()
        assert params.machine_throughput > 0
        assert params.job_overhead_seconds > 0

    def test_laptop_cluster_fixture_compatible(self):
        assert laptop_cluster().num_machines > 0
