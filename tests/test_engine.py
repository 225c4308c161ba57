"""Tests for the unified engine API (`repro.engine`).

Covers the declarative :class:`JoinSpec`, the cost-model planner (choice,
feasibility exclusions, explain rendering), the :class:`SimilarityEngine`
execution paths — held to the brute-force oracle across measures,
algorithms and backends — the per-run infrastructure overrides, and the
uniform :class:`JoinResult` surface with its serving handoffs.
"""

from __future__ import annotations

import io
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro import (
    JoinResult,
    JoinSpec,
    Multiset,
    SimilarityEngine,
    available_algorithms,
    join,
    list_measures,
)
from repro.analysis.calibration import (
    paper_scale_cluster,
    paper_scale_cost_parameters,
)
from repro.analysis.experiments import run_algorithm
from repro.core.exceptions import (
    DatasetError,
    JobConfigurationError,
    MemoryBudgetExceeded,
)
from repro.datasets.ip_cookie import IPCookieConfig, generate_ip_cookie_dataset
from repro.core.interning import (
    ElementDictionary,
    InterningContext,
    PairCodec,
)
from repro.core.records import InputTuple, JoinedTuple
from repro.engine.planner import CorpusProfile, Planner
from repro.engine.spec import PLANNABLE_ALGORITHMS, SEQUENTIAL_ALGORITHMS
from repro.mapreduce.cluster import HADOOP, Cluster, laptop_cluster
from repro.mapreduce.costmodel import CostParameters
from repro.mapreduce.job import TaskContext
from repro.mapreduce.types import estimate_record_bytes
from repro.serving.api import QueryRequest
from repro.serving.index import SimilarityIndex
from repro.similarity.exact import all_pairs_exact, all_pairs_inverted_index
from repro.similarity.registry import get_measure
from repro.telemetry import Metrics
from repro.vsmart.driver import JOINING_ALGORITHMS
from repro.vsmart.online_aggregation import build_online_aggregation_job
from repro.vsmart.shapes import RecordShapes
from repro.vsmart.similarity_phase import build_similarity1_job
from tests.conftest import (
    BACKEND_IDS,
    BACKENDS,
    SPILLING_DISK,
    assert_matches_oracle,
    join_grid,
    make_random_multisets,
    strip_telemetry,
)


def skewed_corpus():
    """A Zipf-skewed IP/cookie corpus with planted proxy groups."""
    return generate_ip_cookie_dataset(IPCookieConfig(
        num_ips=150, num_cookies=800, max_cookies_per_ip=120,
        min_cookies_per_ip=3, num_proxy_groups=6, ips_per_proxy_group=5,
        cookies_per_proxy_pool=30, proxy_cookie_affinity=0.9,
        seed=42)).multisets


def uniform_corpus():
    """A flat random corpus: no hot elements, no giant multisets."""
    return make_random_multisets(120, alphabet_size=400, max_elements=30,
                                 seed=11)


class TestJoinSpec:
    def test_defaults_plan_automatically(self):
        spec = JoinSpec()
        assert spec.algorithm == "auto"
        assert spec.measure == "ruzicka"
        assert spec.threshold == 0.5

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(JobConfigurationError, match="magic"):
            JoinSpec(algorithm="magic")

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            JoinSpec(threshold=0.0)

    def test_invalid_sharding_parameter_rejected(self):
        with pytest.raises(JobConfigurationError):
            JoinSpec(sharding_threshold=0)

    def test_vcl_knobs_validated_eagerly(self):
        with pytest.raises(JobConfigurationError):
            JoinSpec(algorithm="vcl", vcl_element_order="alphabetical")

    def test_vcl_knobs_validated_under_auto_too(self):
        # "auto" prices a VCL candidate, so bad knobs must fail at
        # construction, not after the whole planning pass.
        with pytest.raises(JobConfigurationError):
            JoinSpec(vcl_element_order="alphabetical")

    @pytest.mark.parametrize("algorithm", ["online_aggregation", "auto",
                                           "inverted_index"])
    @pytest.mark.parametrize("field, value", [
        ("chunk_size", 1), ("chunk_size", -5),
        ("stop_word_frequency", 0), ("stop_word_frequency", -1)])
    def test_unusable_knobs_rejected_at_construction(self, algorithm, field,
                                                     value):
        # 2.6 built these specs, profiled, planned and interned, then let a
        # bare ValueError escape mid-run — or (inverted_index, q = 0) matched
        # nothing and returned [] where pairs exist.  Failing here means no
        # CorpusProfile / LocalJobRunner work can precede the error.
        with pytest.raises(JobConfigurationError, match=field):
            JoinSpec(algorithm=algorithm, threshold=0.5, **{field: value})
        JoinSpec(algorithm=algorithm, chunk_size=2, stop_word_frequency=1)

    @pytest.mark.parametrize("knob, value", [
        ("chunk_size", 2.5), ("chunk_size", "3"), ("use_combiners", "no"),
        ("prune_candidates", 1), ("sharding_threshold", float("nan")),
        ("sharding_threshold", True), ("stop_word_frequency", 2.5),
        ("stop_word_frequency", True), ("vcl_super_element_groups", 2.5),
        ("enforce_budgets", "no"), ("threshold", True), ("threshold", "0.5")])
    def test_knob_of_the_wrong_type_is_rejected_at_the_front_door(
            self, overlapping_multisets, knob, value):
        # 3.12 ran chunk_size=2.5 into a bare TypeError mid-pipeline, raised
        # one from the spec for "3", and silently ran the rest: "no" ran the
        # combiners, NaN sharded nothing.
        fields = {"threshold": 0.5, "algorithm": "online_aggregation", knob: value}
        with pytest.raises(JobConfigurationError, match=knob):
            if knob == "enforce_budgets":  # join() hands its own to the session
                JoinSpec(**fields)
            else:
                join(overlapping_multisets, **fields)

    def test_describe_resolves_measure_name(self):
        from repro.similarity.measures import JaccardSimilarity
        described = JoinSpec(measure=JaccardSimilarity()).describe()
        assert described["measure"] == "jaccard"
        assert described["algorithm"] == "auto"


class TestDiscovery:
    def test_available_algorithms_cover_every_execution_path(self):
        algorithms = available_algorithms()
        assert algorithms[0] == "auto"
        for name in PLANNABLE_ALGORITHMS + SEQUENTIAL_ALGORITHMS:
            assert name in algorithms

    def test_every_advertised_algorithm_is_accepted_by_joinspec(self):
        for name in available_algorithms():
            JoinSpec(algorithm=name)  # must not raise

    @pytest.mark.parametrize("name", ["minhash", "sampled"])
    def test_removed_approximate_algorithms_are_rejected(self, name):
        with pytest.raises(JobConfigurationError,
                           match=f"unknown algorithm '{name}'") as raised:
            JoinSpec(algorithm=name)
        assert str(available_algorithms()) in str(raised.value)

    def test_removed_ppjoin_names_its_replacement(self):
        with pytest.raises(JobConfigurationError, match="'inverted_index' co"):
            JoinSpec(algorithm="ppjoin")

    @pytest.mark.parametrize("option, value", [
        pytest.param("recall", 0.9, id="recall"),
        pytest.param("minhash_parameters", {"num_bands": 8, "rows_per_band": 4},
                     id="minhash_parameters"),
    ])
    def test_removed_approximate_options_are_rejected(self, small_multisets,
                                                       option, value):
        with pytest.raises(TypeError, match=option):
            JoinSpec(**{option: value})
        with pytest.raises(TypeError, match=option):
            join(small_multisets, threshold=0.5, **{option: value})

    def test_auto_prices_the_distributed_algorithms(self, small_multisets,
                                                    test_cluster):
        with SimilarityEngine(small_multisets, cluster=test_cluster) as engine:
            plan = engine.plan(JoinSpec(threshold=0.5))
        offered = {candidate.algorithm for candidate in plan.candidates}
        assert offered == set(PLANNABLE_ALGORITHMS)

    def test_list_measures_matches_registry(self):
        measures = list_measures()
        assert "ruzicka" in measures and "direct_ruzicka" in measures
        supported = list_measures(supported_only=True)
        assert "direct_ruzicka" not in supported
        assert set(supported) < set(measures)

    def test_every_supported_measure_is_accepted_by_joinspec(self):
        for name in list_measures(supported_only=True):
            JoinSpec(measure=name).resolved_measure()


class TestEngineParity:
    """Every engine path finds exactly what the brute-force oracle finds."""

    @pytest.mark.parametrize("measure", list_measures(supported_only=True))
    @pytest.mark.parametrize("algorithm", JOINING_ALGORITHMS)
    def test_vsmart_parity_per_measure(self, measure, algorithm,
                                       small_multisets, test_cluster):
        spec = JoinSpec(measure=measure, threshold=0.3, algorithm=algorithm,
                        sharding_threshold=10)
        with SimilarityEngine(cluster=test_cluster) as engine:
            result = engine.run(spec, small_multisets)
        assert_matches_oracle(result.pairs, small_multisets, measure, 0.3)

    @pytest.mark.parametrize("measure", ["ruzicka", "jaccard", "cosine"])
    def test_vcl_parity_per_measure(self, measure, small_multisets,
                                    test_cluster):
        spec = JoinSpec(measure=measure, threshold=0.3, algorithm="vcl")
        with SimilarityEngine(cluster=test_cluster) as engine:
            result = engine.run(spec, small_multisets)
        assert_matches_oracle(result.pairs, small_multisets, measure, 0.3)

    def test_exact_parity(self, small_multisets, test_cluster):
        spec = JoinSpec(threshold=0.3, algorithm="exact")
        with SimilarityEngine(cluster=test_cluster) as engine:
            result = engine.run(spec, small_multisets)
        assert result.pairs == all_pairs_exact(small_multisets, "ruzicka",
                                               0.3)

    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    def test_backend_parity(self, backend, small_multisets, test_cluster):
        spec = JoinSpec(threshold=0.3, algorithm="online_aggregation")
        with SimilarityEngine(cluster=test_cluster,
                              backend=backend) as engine:
            result = engine.run(spec, small_multisets)
        with SimilarityEngine(cluster=test_cluster) as engine:
            serial = engine.run(spec, small_multisets)
        assert result.pairs == serial.pairs
        assert strip_telemetry(result.counters()) == serial.counters()
        assert result.simulated_seconds == serial.simulated_seconds

    def test_sequential_baselines_find_the_exact_pairs(self, small_multisets,
                                                       test_cluster):
        expected = {p.pair for p in all_pairs_exact(small_multisets,
                                                    "ruzicka", 0.3)}
        with SimilarityEngine(cluster=test_cluster) as engine:
            for algorithm in SEQUENTIAL_ALGORITHMS:
                result = engine.run(JoinSpec(threshold=0.3,
                                             algorithm=algorithm),
                                    small_multisets)
                assert {p.pair for p in result.pairs} == expected, algorithm

    def test_inverted_index_parity_with_direct_call(self, small_multisets,
                                                    test_cluster):
        with SimilarityEngine(cluster=test_cluster) as engine:
            result = engine.run(
                JoinSpec(threshold=0.3, algorithm="inverted_index",
                         stop_word_frequency=12), small_multisets)
        assert result.pairs == all_pairs_inverted_index(
            small_multisets, "ruzicka", 0.3, stop_word_frequency=12)

    @settings(max_examples=15, deadline=None)
    @given(cell=join_grid())
    def test_property_engine_equals_legacy(self, cell):
        # "Legacy" is the dict-kernel brute force, the reference every
        # engine path is held to.
        multisets = cell.corpus()
        with SimilarityEngine(cluster=laptop_cluster(num_machines=3),
                              backend=cell.backend) as engine:
            result = engine.run(cell.spec(), multisets)
        assert_matches_oracle(result.pairs, multisets, cell.measure,
                              cell.threshold)


class TestPlanner:
    @pytest.fixture(scope="class")
    def paper_engine(self):
        return SimilarityEngine(cluster=paper_scale_cluster(500),
                                cost_parameters=paper_scale_cost_parameters())

    @pytest.mark.parametrize("corpus_builder", [skewed_corpus, uniform_corpus],
                             ids=["skewed", "uniform"])
    def test_auto_picks_the_measured_fastest_algorithm(self, corpus_builder,
                                                       paper_engine):
        multisets = corpus_builder()
        spec = JoinSpec(threshold=0.5, sharding_threshold=64)
        plan = paper_engine.plan(spec, multisets)
        measured = {}
        for algorithm in PLANNABLE_ALGORITHMS:
            explicit = JoinSpec(threshold=0.5, sharding_threshold=64,
                                algorithm=algorithm)
            measured[algorithm] = paper_engine.run(
                explicit, multisets).simulated_seconds
        fastest = min(measured, key=measured.get)
        assert plan.algorithm == fastest, (plan.algorithm, measured)

    @pytest.mark.parametrize("measure_name", list_measures(supported_only=True))
    def test_prices_the_sizes_the_jobs_are_built_with(self, measure_name):
        """One definition of a record's shape.  The planner prices with
        ``RecordShapes``, the catalogue the jobs read when they are built;
        its numbers are the ones the planner's own arithmetic gave until it
        was deleted (``container + words + Uni``, written out per record),
        and the ones the built jobs hand to their records."""
        measure = get_measure(measure_name)
        shapes = RecordShapes(measure)
        container, word = 16, 8
        uni = estimate_record_bytes(measure.uni_from_multiplicity(2.0))
        conj = estimate_record_bytes(measure.conj_from_pair(2.0, 3.0))

        def keyed(key, value, secondary=False):
            return container + key + value + (word if secondary else 1)

        input_tuple = container + 3 * word
        joined_tuple = container + word + uni + 2 * word
        posting = container + word + uni + word
        pair_key = container + word + 2 * uni
        fingerprint_key = container + 2 * word
        assert {
            "input_tuple": shapes.input_tuple,
            "joined_tuple": shapes.joined_tuple,
            "posting": shapes.posting,
            "pair_key": shapes.pair_key,
            "pair_record": shapes.pair_record,
            "table_entry": shapes.table_entry,
            "table": shapes.table(37),
            "posting_kv": shapes.posting_kv,
            "pair_kv": shapes.pair_kv,
            "oa_uni_kv": shapes.oa_uni_kv,
            "oa_element_kv": shapes.oa_element_kv,
            "lookup1_kv": shapes.lookup1_kv,
            "sharding1_kv": shapes.sharding1_kv,
            "sharded_kv": shapes.sharded_kv,
            "unsharded_kv": shapes.unsharded_kv,
        } == {
            "input_tuple": input_tuple,
            "joined_tuple": joined_tuple,
            "posting": posting,
            "pair_key": pair_key,
            "pair_record": container + pair_key + (container + 2 * word),
            "table_entry": container + word + uni,
            "table": container + 37 * (word + uni),
            "posting_kv": keyed(word, posting),
            "pair_kv": keyed(pair_key, conj),
            "oa_uni_kv": keyed(word, container + word + uni, secondary=True),
            "oa_element_kv": keyed(word, container + 3 * word, secondary=True),
            "lookup1_kv": keyed(word, uni),
            "sharding1_kv": keyed(word, container + uni + word),
            "sharded_kv": keyed(fingerprint_key, container + uni + 3 * word),
            "unsharded_kv": keyed(fingerprint_key, container + 3 * word),
        }

        context = TaskContext(Metrics())
        joining = build_online_aggregation_job(measure)
        emissions = joining.mapper.map_batch([InputTuple(0, 0, 1)], context)
        assert emissions.sizes == [shapes.oa_uni_kv, shapes.oa_element_kv]
        assert joining.reducer.output_record_bytes == joined_tuple
        similarity1 = build_similarity1_job(pair_codec=PairCodec(2),
                                            measure=measure)
        emissions = similarity1.mapper.map_batch(
            [JoinedTuple(0, shapes.uni_zero, 0, 1)], context)
        assert emissions.sizes == shapes.posting_kv
        assert emissions.secondaries is None
        [record] = zip(emissions.keys, emissions.values, [None])
        assert estimate_record_bytes(record) == shapes.posting_kv
        assert similarity1.reducer.output_record_bytes == shapes.pair_record

    def test_auto_result_carries_the_plan(self, paper_engine):
        multisets = uniform_corpus()
        result = paper_engine.run(JoinSpec(threshold=0.5), multisets)
        assert result.plan is not None
        assert result.algorithm == result.plan.algorithm
        assert result.algorithm in PLANNABLE_ALGORITHMS
        assert result.predicted_seconds == result.plan.predicted_seconds

    def test_prediction_is_calibrated_within_a_factor_of_two(self,
                                                             paper_engine):
        multisets = skewed_corpus()
        spec = JoinSpec(threshold=0.5, sharding_threshold=64)
        plan = paper_engine.plan(spec, multisets)
        executed = paper_engine.run(
            JoinSpec(threshold=0.5, sharding_threshold=64,
                     algorithm=plan.algorithm), multisets)
        ratio = plan.predicted_seconds / executed.simulated_seconds
        assert 0.5 <= ratio <= 2.0, ratio

    def test_hadoop_profile_excludes_online_aggregation(self):
        engine = SimilarityEngine(
            cluster=paper_scale_cluster(500, profile=HADOOP),
            cost_parameters=paper_scale_cost_parameters())
        plan = engine.plan(JoinSpec(threshold=0.5), uniform_corpus())
        assert plan.algorithm != "online_aggregation"
        excluded = plan.candidate_for("online_aggregation")
        assert not excluded.feasible
        assert "secondary keys" in excluded.exclusion_reason

    def test_memory_budget_excludes_lookup_side_data(self):
        # A budget big enough for the pipelines' groups but far too small
        # for a whole-corpus lookup table — the paper's section 7.2 failure.
        multisets = skewed_corpus()
        cluster = paper_scale_cluster(500).with_memory(4_000)
        engine = SimilarityEngine(cluster=cluster,
                                  cost_parameters=paper_scale_cost_parameters())
        plan = engine.plan(JoinSpec(threshold=0.5, sharding_threshold=64),
                           multisets)
        lookup = plan.candidate_for("lookup")
        assert not lookup.feasible
        assert "side data" in lookup.exclusion_reason
        assert plan.algorithm != "lookup"

    def test_budget_exclusions_lift_with_enforce_budgets_off(self):
        multisets = skewed_corpus()
        cluster = paper_scale_cluster(500).with_memory(4_000)
        planner = Planner(paper_scale_cost_parameters())
        relaxed = planner.plan(JoinSpec(threshold=0.5, sharding_threshold=64),
                               multisets, cluster, enforce_budgets=False)
        assert relaxed.candidate_for("lookup").feasible

    def test_scheduler_limit_excludes_slow_pipelines(self, paper_engine):
        multisets = skewed_corpus()
        cluster = paper_scale_cluster(500).with_scheduler_limit(40.0)
        planner = Planner(paper_scale_cost_parameters())
        plan = planner.plan(JoinSpec(threshold=0.5, sharding_threshold=64),
                            multisets, cluster)
        vcl = plan.candidate_for("vcl")
        assert not vcl.feasible
        assert "scheduler limit" in vcl.exclusion_reason

    def test_explicit_algorithm_plans_a_single_candidate(self, paper_engine):
        plan = paper_engine.plan(JoinSpec(threshold=0.5, algorithm="lookup"),
                                 uniform_corpus())
        assert plan.algorithm == "lookup"
        assert len(plan.candidates) == 1
        assert "explicitly" in plan.reason

    def test_explain_renders_candidates_and_job_breakdown(self, paper_engine):
        plan = paper_engine.plan(JoinSpec(threshold=0.5), uniform_corpus())
        rendered = plan.explain()
        assert "candidates (cheapest first):" in rendered
        for algorithm in PLANNABLE_ALGORITHMS:
            assert algorithm in rendered
        for column in ("overhead", "side", "shuffle", "reduce"):
            assert column in rendered
        # Every job of the chosen pipeline appears as a row.
        for job in plan.chosen.jobs:
            assert job.name in rendered

    def test_profile_statistics(self):
        multisets = uniform_corpus()
        profile = CorpusProfile.from_multisets(multisets)
        assert profile.num_multisets == len(multisets)
        assert profile.num_records == sum(m.underlying_cardinality
                                          for m in multisets)
        assert profile.max_cardinality == max(m.underlying_cardinality
                                              for m in multisets)
        assert profile.candidate_records > 0
        assert profile.element_skew >= 1.0

    def test_session_corpus_iterator_is_materialised_once(self,
                                                          overlapping_multisets,
                                                          test_cluster):
        # A one-shot iterator as the session corpus must survive
        # plan() followed by run().
        engine = SimilarityEngine(iter(overlapping_multisets),
                                  cluster=test_cluster)
        with engine:
            plan = engine.plan(JoinSpec(threshold=0.8))
            result = engine.run(JoinSpec(threshold=0.8), plan=plan)
        assert plan.profile.num_multisets == len(overlapping_multisets)
        assert {p.pair for p in result} == {("a", "b"), ("d", "e")}

    def test_sequential_algorithms_are_never_planned_infeasible(
            self, small_multisets):
        # In-memory algorithms ignore the simulated cluster's scheduler
        # and budgets, so the planner must not exclude them either.
        cluster = laptop_cluster().with_scheduler_limit(0.001).with_memory(500)
        with SimilarityEngine(cluster=cluster) as engine:
            plan = engine.plan(JoinSpec(threshold=0.3, algorithm="exact"),
                               small_multisets)
            assert plan.candidates[0].feasible
            result = engine.run(JoinSpec(threshold=0.3, algorithm="exact"),
                                small_multisets, plan=plan)
        assert result.pairs

    def test_mixed_record_types_rejected_at_the_front_door(self,
                                                           test_cluster):
        from repro.core.exceptions import ReproError
        from repro.core.records import InputTuple
        from repro.core.multiset import Multiset

        mixed = [Multiset("a", {"x": 1}), InputTuple("b", "x", 1)]
        with SimilarityEngine(cluster=test_cluster) as engine:
            with pytest.raises(ReproError, match="mixed"):
                engine.run(JoinSpec(algorithm="exact"), mixed)

    def test_empty_corpus_still_plans(self, test_cluster):
        with SimilarityEngine(cluster=test_cluster) as engine:
            result = engine.run(JoinSpec(threshold=0.5), [])
        assert result.pairs == []
        assert result.plan is not None

    def test_run_reuses_a_supplied_plan(self, paper_engine):
        multisets = uniform_corpus()
        spec = JoinSpec(threshold=0.5)
        plan = paper_engine.plan(spec, multisets)
        result = paper_engine.run(spec, multisets, plan=plan)
        assert result.plan is plan
        assert result.algorithm == plan.algorithm

    @pytest.mark.parametrize("planned_on", ["a", "b"])
    def test_a_callers_plan_never_lends_its_interning(self, planned_on):
        """A plan made by ``engine.plan`` may profile another corpus: the
        run interns its own, so it finds the pairs of the corpus it runs.

        Each corpus holds multiset ids and elements the other lacks; a run
        that interned with the plan's profile would miss them."""
        common = uniform_corpus()[:60]
        extra = make_random_multisets(20, alphabet_size=10, max_elements=10,
                                      seed=5)

        def with_own(tag):
            return common + [
                Multiset(f"{tag}-{multiset.id}",
                         {f"{tag}-{element}": count
                          for element, count in multiset.items()})
                for multiset in extra]

        corpora = {"a": with_own("a"), "b": with_own("b")}
        ran_on = "b" if planned_on == "a" else "a"
        engine = SimilarityEngine(cluster=paper_scale_cluster(500, HADOOP),
                                  cost_parameters=paper_scale_cost_parameters())
        spec = JoinSpec(threshold=0.5, sharding_threshold=16)
        plan = engine.plan(spec, corpora[planned_on])
        assert plan.algorithm in JOINING_ALGORITHMS  # a pipeline that interns
        result = engine.run(spec, corpora[ran_on], plan=plan)
        assert result.plan is plan
        assert any(pair.first.startswith(f"{ran_on}-") for pair in result.pairs)
        assert_matches_oracle(result.pairs, corpora[ran_on],
                              get_measure(spec.measure), spec.threshold)

    @pytest.mark.parametrize("lends", [True, False],
                             ids=["auto", "callers_plan"])
    def test_an_auto_join_interns_once(self, monkeypatch, lends):
        """An ``auto`` run that executes a V-SMART-Join pipeline counts the
        document frequencies and interns the tuples once, in its profile,
        and the pipeline only reads the profile's columns.  A caller's
        ``plan=`` lends neither: the run interns its corpus itself."""
        calls = {"from_multisets": 0, "intern_multisets": 0}
        from_multisets = ElementDictionary.from_multisets.__func__
        intern_multisets = InterningContext.intern_multisets

        def counting_from_multisets(cls, multisets):
            calls["from_multisets"] += 1
            return from_multisets(cls, multisets)

        def counting_intern_multisets(self, multisets):
            calls["intern_multisets"] += 1
            return intern_multisets(self, multisets)

        monkeypatch.setattr(ElementDictionary, "from_multisets",
                            classmethod(counting_from_multisets))
        monkeypatch.setattr(InterningContext, "intern_multisets",
                            counting_intern_multisets)
        engine = SimilarityEngine(cluster=paper_scale_cluster(500, HADOOP),
                                  cost_parameters=paper_scale_cost_parameters())
        spec = JoinSpec(threshold=0.5, sharding_threshold=16)
        multisets = uniform_corpus()
        plan = None if lends else engine.plan(spec, multisets)
        result = engine.run(spec, multisets, plan=plan)
        assert result.algorithm in JOINING_ALGORITHMS
        expected = 1 if lends else 2
        assert calls == {"from_multisets": expected,
                         "intern_multisets": expected}
        columns = result.plan.profile.columns
        fresh = InterningContext.from_multisets(multisets).intern_multisets(
            multisets)
        assert columns.columns() == fresh.columns()

    @pytest.mark.parametrize(("profile", "corpus_builder", "algorithm"), [
        (None, skewed_corpus, "online_aggregation"),
        (HADOOP, uniform_corpus, "lookup"),
        (HADOOP, skewed_corpus, "sharding"),
    ], ids=["online_aggregation", "lookup", "sharding"])
    def test_auto_run_equals_the_pinned_run_it_chose(self, profile,
                                                     corpus_builder,
                                                     algorithm):
        """An ``auto`` run interns with its plan's profile; a pinned run
        builds its own interning.  Pairs and every job's statistics agree."""
        multisets = corpus_builder()
        cluster = (paper_scale_cluster(500) if profile is None
                   else paper_scale_cluster(500, profile))
        engine = SimilarityEngine(cluster=cluster,
                                  cost_parameters=paper_scale_cost_parameters())
        auto = engine.run(JoinSpec(threshold=0.5, sharding_threshold=16),
                          multisets)
        assert auto.algorithm == algorithm
        pinned = engine.run(JoinSpec(threshold=0.5, sharding_threshold=16,
                                     algorithm=algorithm), multisets)
        assert auto.pairs == pinned.pairs
        assert auto.pipeline.job_stats == pinned.pipeline.job_stats
        assert auto.pipeline.artifacts == pinned.pipeline.artifacts

    def test_run_rejects_a_plan_for_a_different_spec(self, paper_engine):
        multisets = uniform_corpus()
        plan = paper_engine.plan(JoinSpec(threshold=0.5), multisets)
        with pytest.raises(JobConfigurationError, match="different JoinSpec"):
            paper_engine.run(JoinSpec(threshold=0.6), multisets, plan=plan)

    def test_engine_forwards_enforce_budgets_to_the_planner(self):
        # With budgets off at the session level, the planner must not
        # exclude lookup for its table size either (the runner would not).
        multisets = skewed_corpus()
        cluster = paper_scale_cluster(500).with_memory(4_000)
        engine = SimilarityEngine(cluster=cluster,
                                  cost_parameters=paper_scale_cost_parameters(),
                                  enforce_budgets=False)
        plan = engine.plan(JoinSpec(threshold=0.5, sharding_threshold=64),
                           multisets)
        assert plan.candidate_for("lookup").feasible


class TestPerRunOverrides:
    """``JoinSpec(cluster= / backend= / cost_parameters= / enforce_budgets=)``:
    one run gets a runner of its own; the session's is left as it was."""

    SPEC = JoinSpec(threshold=0.3, algorithm="lookup")

    def test_backend_reaches_one_run_only(self, small_multisets):
        with SimilarityEngine(small_multisets) as engine:
            baseline = engine.run(self.SPEC)
            spilled = engine.run(replace(self.SPEC, backend=SPILLING_DISK))
            again = engine.run(self.SPEC)
        assert spilled.counters()["shuffle/runs_written"] > 0
        assert "shuffle/runs_written" not in again.counters()
        assert again.counters() == baseline.counters()
        assert spilled.pairs == again.pairs == baseline.pairs

    def test_cluster_and_cost_parameters_reach_one_run_only(
            self, small_multisets, test_cluster):
        slow = CostParameters(job_overhead_seconds=1_000.0)
        with SimilarityEngine(small_multisets, cluster=test_cluster) as engine:
            baseline = engine.run(self.SPEC)
            narrow = engine.run(replace(self.SPEC, cluster=laptop_cluster(2)))
            costly = engine.run(replace(self.SPEC, cost_parameters=slow))
            again = engine.run(self.SPEC)
        assert narrow.stats_for("lookup1").num_machines == 2
        assert baseline.stats_for("lookup1").num_machines == 6
        assert narrow.simulated_seconds != baseline.simulated_seconds
        assert costly.simulated_seconds >= 3_000.0 > baseline.simulated_seconds
        assert again.simulated_seconds == baseline.simulated_seconds
        assert again.pairs == narrow.pairs == costly.pairs == baseline.pairs

    def test_enforce_budgets_reaches_one_run_only(self, small_multisets):
        tiny = Cluster(num_machines=4, memory_per_machine=500,
                       disk_per_machine=10_000_000)
        with SimilarityEngine(small_multisets, cluster=tiny) as engine:
            with pytest.raises(MemoryBudgetExceeded):
                engine.run(self.SPEC)
            relaxed = engine.run(replace(self.SPEC, enforce_budgets=False))
            with pytest.raises(MemoryBudgetExceeded):
                engine.run(self.SPEC)
        assert_matches_oracle(relaxed.pairs, small_multisets, "ruzicka", 0.3)


class TestJoinResult:
    @pytest.fixture(scope="class")
    def distributed_result(self):
        with SimilarityEngine(cluster=laptop_cluster(6)) as engine:
            return engine.run(JoinSpec(threshold=0.25,
                                       algorithm="online_aggregation"),
                              make_random_multisets(25, alphabet_size=40,
                                                    max_elements=15, seed=5))

    def test_iteration_and_len(self, distributed_result):
        assert list(distributed_result) == distributed_result.pairs
        assert len(distributed_result) == len(distributed_result.pairs)

    def test_uniform_statistics_surface(self, distributed_result):
        assert distributed_result.simulated_seconds > 0
        assert distributed_result.joining_seconds > 0
        assert distributed_result.similarity_seconds > 0
        assert distributed_result.counters()["similarity2/pairs_evaluated"] > 0
        assert distributed_result.stats_for(
            "online_aggregation").simulated_seconds > 0
        assert distributed_result.job_names()[0] == "online_aggregation"

    def test_sequential_results_share_the_surface(self, overlapping_multisets,
                                                  test_cluster):
        with SimilarityEngine(cluster=test_cluster) as engine:
            result = engine.run(JoinSpec(threshold=0.8, algorithm="exact"),
                                overlapping_multisets)
        assert result.simulated_seconds == 0.0
        assert result.counters() == {}
        assert result.joining_seconds is None
        assert {p.pair for p in result} == {("a", "b"), ("d", "e")}

    def test_vcl_result_has_no_phase_split(self, overlapping_multisets,
                                           test_cluster):
        with SimilarityEngine(cluster=test_cluster) as engine:
            result = engine.run(JoinSpec(threshold=0.8, algorithm="vcl"),
                                overlapping_multisets)
        assert result.joining_seconds is None
        assert result.simulated_seconds > 0

    def test_to_jsonl(self, distributed_result, tmp_path):
        path = tmp_path / "pairs.jsonl"
        written = distributed_result.to_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert written == len(distributed_result.pairs) == len(lines)
        first = json.loads(lines[0])
        assert set(first) == {"first", "second", "similarity"}

    def test_to_jsonl_accepts_a_handle(self, distributed_result):
        buffer = io.StringIO()
        distributed_result.to_jsonl(buffer)
        assert buffer.getvalue().count("\n") == len(distributed_result.pairs)

    def test_to_index_builds_a_queryable_index(self, distributed_result):
        index = distributed_result.to_index()
        assert isinstance(index, SimilarityIndex)
        assert len(index) == len(distributed_result.multisets)
        member = distributed_result.multisets[0]
        matches = index.query(QueryRequest.threshold(member, 0.25)).matches
        partners = {m.multiset_id for m in matches} - {member.id}
        expected = {pair.second for pair in distributed_result.pairs
                    if pair.first == member.id}
        expected |= {pair.first for pair in distributed_result.pairs
                     if pair.second == member.id}
        assert partners == expected

    def test_to_service_warms_caches_from_the_join(self, distributed_result):
        service = distributed_result.to_service(num_shards=2)
        member_id = distributed_result.pairs[0].first
        matches = service.neighbours(member_id, 0.25)
        assert service.stats()["cache/hits"] > 0
        partner_ids = {m.multiset_id for m in matches}
        assert distributed_result.pairs[0].second in partner_ids

    def test_explain_without_a_plan_summarises(self, distributed_result):
        assert "explicit" in distributed_result.explain()


class TestRunAlgorithmOnEngine:
    def test_auto_is_accepted_and_reports_the_resolved_algorithm(
            self, small_multisets, test_cluster):
        outcome = run_algorithm("auto", small_multisets, threshold=0.4,
                                cluster=test_cluster)
        assert outcome.finished
        assert outcome.algorithm in PLANNABLE_ALGORITHMS

    def test_sequential_algorithms_are_accepted(self, small_multisets):
        outcome = run_algorithm("exact", small_multisets, threshold=0.4)
        assert outcome.finished
        assert outcome.simulated_seconds == 0.0

    def test_unknown_algorithm_rejected(self, small_multisets):
        with pytest.raises(ValueError, match="magic"):
            run_algorithm("magic", small_multisets)


class TestDeprecatedShims:
    """2.0 removed ``vsmart_join`` / ``vcl_join``; ``join`` is the one call."""

    def test_one_call_join_replaces_the_shims(self, overlapping_multisets):
        result = join(overlapping_multisets, threshold=0.8,
                      algorithm="online_aggregation",
                      cluster=laptop_cluster())
        assert {p.pair for p in result} == {("a", "b"), ("d", "e")}


class TestJoinResultLazyConsumption:
    """PR-4 gap: the JSONL export must round-trip the exact pair records,
    and the statistics surface must survive partial lazy iteration."""

    @pytest.fixture(scope="class")
    def result(self):
        with SimilarityEngine(cluster=laptop_cluster(4)) as engine:
            return engine.run(
                JoinSpec(threshold=0.2, algorithm="sharding"),
                make_random_multisets(25, alphabet_size=40, max_elements=15,
                                      seed=5))

    def test_to_jsonl_round_trips_every_pair(self, result):
        from repro.core.records import SimilarPair

        buffer = io.StringIO()
        written = result.to_jsonl(buffer)
        decoded = [json.loads(line)
                   for line in buffer.getvalue().splitlines()]
        assert written == len(decoded) == len(result.pairs) > 0
        rebuilt = [SimilarPair(record["first"], record["second"],
                               record["similarity"]) for record in decoded]
        assert rebuilt == result.pairs

    def test_from_jsonl_round_trips_to_jsonl(self, result, tmp_path):
        path = tmp_path / "pairs.jsonl"
        result.to_jsonl(str(path))
        # Blank and trailing lines must be tolerated, per the file format.
        path.write_text(path.read_text() + "\n\n   \n")
        back = JoinResult.from_jsonl(str(path))
        assert back.pairs == result.pairs
        assert back.algorithm == "import"
        assert back.multisets == []
        # A handle works too, and an explicit spec is carried through.
        buffer = io.StringIO()
        result.to_jsonl(buffer)
        buffer.seek(0)
        respecced = JoinResult.from_jsonl(buffer, spec=result.spec,
                                          algorithm="replay")
        assert respecced.pairs == result.pairs
        assert respecced.spec == result.spec
        assert respecced.algorithm == "replay"

    def test_from_jsonl_rejects_non_pair_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"first": "a"}\n')
        with pytest.raises(DatasetError, match="line 1"):
            JoinResult.from_jsonl(str(path))

    def test_non_json_identifiers_export_via_repr(self, overlapping_multisets):
        from repro.core.multiset import Multiset

        corpus = [Multiset(("ip", index), multiset.counts())
                  for index, multiset in enumerate(overlapping_multisets[:2])]
        with SimilarityEngine(cluster=laptop_cluster(2)) as engine:
            tupled = engine.run(JoinSpec(threshold=0.8, algorithm="exact"),
                                corpus)
        buffer = io.StringIO()
        tupled.to_jsonl(buffer)
        record = json.loads(buffer.getvalue().splitlines()[0])
        assert record["first"] == repr(("ip", 0))

    def test_counters_and_stats_survive_partial_iteration(self, result):
        iterator = iter(result)
        consumed = [next(iterator) for _ in range(3)]
        counters = result.counters()
        assert counters["similarity2/pairs_evaluated"] > 0
        first_job = result.job_names()[0]
        assert result.stats_for(first_job).simulated_seconds > 0
        # The partially consumed iterator resumes where it stopped, and the
        # statistics reads did not perturb it (or the pair list).
        assert consumed + list(iterator) == result.pairs
        assert result.counters() == counters
        assert len(result) == len(result.pairs)

    def test_partial_iteration_does_not_perturb_jsonl(self, result):
        iterator = iter(result)
        next(iterator)
        buffer = io.StringIO()
        assert result.to_jsonl(buffer) == len(result.pairs)
        assert len(buffer.getvalue().splitlines()) == len(result.pairs)


class TestDuplicateIdBoundary:
    def test_duplicate_ids_rejected_for_every_algorithm(self, test_cluster):
        duplicated = [Multiset("m", {"x": 1, "y": 2}),
                      Multiset("m", {"x": 1}),
                      Multiset("other", {"y": 1})]
        for algorithm in ("exact", "online_aggregation", "auto"):
            with pytest.raises(DatasetError, match="duplicate multiset id"):
                join(duplicated, algorithm=algorithm, cluster=test_cluster)

    def test_duplicate_ids_rejected_at_plan_time(self, test_cluster):
        duplicated = [Multiset("m", {"x": 1}), Multiset("m", {"y": 1})]
        with SimilarityEngine(duplicated, cluster=test_cluster) as engine:
            with pytest.raises(DatasetError, match="duplicate multiset id"):
                engine.plan(JoinSpec(threshold=0.5))

    def test_unique_ids_still_pass(self, small_multisets, test_cluster):
        result = join(small_multisets, algorithm="exact", threshold=0.5,
                      cluster=test_cluster)
        assert result.pairs == all_pairs_exact(small_multisets, "ruzicka", 0.5)
