"""The one front door for joins: :class:`SimilarityEngine`.

One session object owns a :class:`~repro.mapreduce.runner.LocalJobRunner`
(the simulated cluster, the cost model, the budgets and the execution
backend) and the cost-model calibration; every join — whatever algorithm
the spec names (or lets the planner choose) — goes through
:meth:`SimilarityEngine.run` and comes back as a single
:class:`~repro.engine.result.JoinResult`::

    from repro import JoinSpec, SimilarityEngine

    with SimilarityEngine() as engine:
        plan = engine.plan(JoinSpec(threshold=0.5), multisets)
        print(plan.explain())                       # EXPLAIN-style breakdown
        result = engine.run(JoinSpec(threshold=0.5), multisets)
        service = result.to_service(num_shards=4)   # serving handoff

The engine executes plans through its pipeline drivers
(:class:`~repro.vsmart.driver.VSmartJoin`, :class:`~repro.vcl.driver.VCLJoin`
— each handed the spec and a runner), the exact in-memory reference join
and the sequential baselines.
"""

from __future__ import annotations

import time

from repro.baselines.inverted_index import InvertedIndexJoin
from repro.baselines.minhash import MinHashLSHJoin
from repro.baselines.ppjoin import PPJoin
from repro.baselines.sampled import SampledJoin
from repro.core.exceptions import DatasetError, JobConfigurationError
from repro.core.multiset import Multiset
from repro.engine.calibration import CalibrationProfile
from repro.engine.planner import CorpusProfile, JoinPlan, Planner
from repro.engine.result import JoinResult
from repro.engine.spec import AUTO, PLANNABLE_ALGORITHMS, VCL, JoinSpec
from repro.mapreduce.backends import ExecutionBackend
from repro.mapreduce.cluster import Cluster, laptop_cluster
from repro.mapreduce.costmodel import DEFAULT_COST_PARAMETERS, CostParameters
from repro.mapreduce.dfs import Dataset
from repro.mapreduce.runner import LocalJobRunner, PipelineResult
from repro.serving.bootstrap import multisets_from_input
from repro.similarity.exact import all_pairs_exact
from repro.vcl.driver import VCLJoin
from repro.vsmart.driver import VSmartJoin


class SimilarityEngine:
    """A session that plans and executes declarative similarity joins.

    Parameters
    ----------
    data:
        Optional default corpus; :meth:`run` and :meth:`plan` use it when
        not given one explicitly, so ``SimilarityEngine(corpus)`` followed
        by ``engine.run(JoinSpec(...))`` reads naturally.
    cluster:
        The simulated cluster every run executes on (default: the laptop
        cluster).  A spec's ``cluster`` field overrides per run.
    backend:
        Execution backend name or instance (``"serial"``, ``"process"``,
        ``"disk"``); instances are borrowed, names are owned and closed
        by :meth:`close` / the context manager.
    cost_parameters:
        Cost-model calibration shared by the planner and the runner.
    enforce_budgets:
        Whether per-machine memory/disk budgets abort jobs.
    calibration:
        Optional self-tuning feedback loop: a
        :class:`~repro.engine.calibration.CalibrationProfile`, or a storage
        path/engine to load one from (created fresh over
        ``cost_parameters`` if none is stored, and saved back after every
        observed run).  Every distributed run's measured job statistics are
        folded into the profile, and the session planner prices with the
        profile's learned parameters instead of the fixed constants.

    Cluster, backend, cost parameters and budget switch live on
    :attr:`runner`, the session's one
    :class:`~repro.mapreduce.runner.LocalJobRunner`; a spec that overrides
    any of them runs on a runner of its own, closed when the run ends.
    """

    def __init__(self, data=None, *,
                 cluster: Cluster | None = None,
                 backend: str | ExecutionBackend = "serial",
                 cost_parameters: CostParameters = DEFAULT_COST_PARAMETERS,
                 enforce_budgets: bool = True,
                 calibration: "CalibrationProfile | str | None" = None) -> None:
        self.data = data
        self.runner = LocalJobRunner(cluster or laptop_cluster(),
                                     cost_parameters,
                                     enforce_budgets=enforce_budgets,
                                     backend=backend)
        self._calibration_sink = None
        if calibration is None or isinstance(calibration, CalibrationProfile):
            self.calibration = calibration
        else:
            self.calibration = CalibrationProfile.load_or_create(
                calibration, base=cost_parameters)
            self._calibration_sink = calibration
        self.planner = Planner(cost_parameters, calibration=self.calibration)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the session backend when the engine created it."""
        self.runner.close()

    def __enter__(self) -> "SimilarityEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"SimilarityEngine(cluster={self.runner.cluster.num_machines} "
                f"machines, backend={type(self.runner.backend).__name__})")

    # -- planning ------------------------------------------------------------

    def profile(self, data=None) -> CorpusProfile:
        """Profile a corpus (defaults to the session corpus)."""
        return CorpusProfile.from_multisets(self._materialise(data))

    def plan(self, spec: JoinSpec | None = None, data=None) -> JoinPlan:
        """Produce the inspectable :class:`JoinPlan` for ``spec``.

        With ``spec.algorithm="auto"`` every distributed candidate is
        costed; an explicit algorithm is costed alone.  ``plan.explain()``
        renders the per-job predicted cost breakdown.
        """
        spec = spec or JoinSpec()
        multisets = self._materialise(data)
        planner = self._planner_for(spec)
        return planner.plan(spec, multisets, self._cluster_for(spec),
                            enforce_budgets=self._enforce_budgets(spec))

    # -- execution -----------------------------------------------------------

    def run(self, spec: JoinSpec | None = None, data=None,
            plan: JoinPlan | None = None) -> JoinResult:
        """Execute ``spec`` over ``data`` and return the unified result.

        ``algorithm="auto"`` plans first (the plan rides along on
        ``result.plan``); explicit algorithms skip the planning pass
        entirely.  A ``plan`` already produced by :meth:`plan` for the same
        spec is reused instead of re-profiling the corpus.
        """
        spec = spec or JoinSpec()
        multisets = self._materialise(data)
        algorithm = spec.algorithm
        if plan is not None:
            if plan.spec != spec:
                raise JobConfigurationError(
                    "the supplied plan was produced for a different JoinSpec;"
                    " re-plan with engine.plan(spec, data)")
            algorithm = plan.algorithm
        elif algorithm == AUTO:
            planner = self._planner_for(spec)
            plan = planner.plan(spec, multisets, self._cluster_for(spec),
                                enforce_budgets=self._enforce_budgets(spec))
            algorithm = plan.algorithm
        start = time.perf_counter()
        pairs, pipeline = self._execute(algorithm, spec, multisets)
        wall_seconds = time.perf_counter() - start
        if self.calibration is not None and pipeline.job_stats:
            self._observe_run(spec, algorithm, multisets, plan, pipeline,
                              wall_seconds)
        return JoinResult(spec=spec, algorithm=algorithm, pairs=pairs,
                          pipeline=pipeline, multisets=multisets, plan=plan)

    def materialize(self, spec: JoinSpec | None = None, data=None):
        """Run ``spec`` and return a maintained incremental view of it.

        The join executes exactly as :meth:`run` would; its pairs seed a
        :class:`~repro.streaming.view.JoinView` that stays correct under
        :class:`~repro.streaming.changes.ChangeBatch` mutations without
        re-running the join.  The view borrows this engine for any batch
        it decides to re-join (and for the cost calibration of that
        decision), so close the view's workload before closing the engine.
        """
        return self.run(spec, data).to_view(engine=self)

    # -- internals -----------------------------------------------------------

    def _observe_run(self, spec: JoinSpec, algorithm: str,
                     multisets: list[Multiset], plan: JoinPlan | None,
                     pipeline, wall_seconds: float) -> None:
        """Feed one run's measured job stats into the calibration profile.

        The predicted side is the plan's candidate for the executed
        algorithm when a plan exists (``algorithm="auto"``); explicit runs
        estimate it on demand — that one profiling pass is the price of
        the feedback loop.  A path-backed profile is saved after every
        observation, so learning survives the session unconditionally.
        """
        try:
            candidate = (plan.candidate_for(algorithm) if plan is not None
                         else None)
        except KeyError:
            candidate = None
        if candidate is None:
            candidate = self.planner.estimate(algorithm, spec, multisets,
                                              self._cluster_for(spec))
        self.calibration.observe(candidate, list(pipeline.job_stats),
                                 self._cluster_for(spec),
                                 wall_seconds=wall_seconds)
        if self._calibration_sink is not None:
            self.calibration.save(self._calibration_sink)

    def _materialise(self, data) -> list[Multiset]:
        if data is None:
            if self.data is None:
                raise JobConfigurationError(
                    "no corpus: pass data to run()/plan() or construct the "
                    "engine with a default corpus (SimilarityEngine(data))")
            # The session corpus is materialised exactly once, so a
            # one-shot iterator survives plan() followed by run().
            self.data = _check_unique_ids(multisets_from_input(self.data))
            return self.data
        # Always goes through the serving normaliser: it validates record
        # types (mixed collections raise a ReproError, not a downstream
        # TypeError) and returns multiset lists unchanged.
        return _check_unique_ids(multisets_from_input(data))

    def _cluster_for(self, spec: JoinSpec) -> Cluster:
        return spec.cluster or self.runner.cluster

    def _planner_for(self, spec: JoinSpec) -> Planner:
        if (spec.cost_parameters is None
                or spec.cost_parameters is self.runner.cost_parameters):
            return self.planner
        return Planner(spec.cost_parameters)

    def _enforce_budgets(self, spec: JoinSpec) -> bool:
        return (self.runner.enforce_budgets if spec.enforce_budgets is None
                else spec.enforce_budgets)

    def _runner_for(self, spec: JoinSpec) -> LocalJobRunner:
        """The session's runner, or one for this run alone.

        A spec that overrides infrastructure gets its own runner over the
        session's remaining settings.  The caller closes it when the run
        ends; a runner closes only a backend it created from a name, so the
        session backend and a spec's backend instance are left open.
        """
        if (spec.cluster is None and spec.backend is None
                and spec.cost_parameters is None
                and spec.enforce_budgets is None):
            return self.runner
        return LocalJobRunner(
            self._cluster_for(spec),
            spec.cost_parameters or self.runner.cost_parameters,
            enforce_budgets=self._enforce_budgets(spec),
            backend=(self.runner.backend if spec.backend is None
                     else spec.backend))

    def _execute(self, algorithm: str, spec: JoinSpec,
                 multisets: list[Multiset]):
        if algorithm not in PLANNABLE_ALGORITHMS:
            return self._execute_sequential(algorithm, spec, multisets)
        runner = self._runner_for(spec)
        try:
            if algorithm == VCL:
                return VCLJoin(spec, runner).run(multisets)
            return VSmartJoin(spec, runner, algorithm).run(multisets)
        finally:
            if runner is not self.runner:
                runner.close()

    def _execute_sequential(self, algorithm: str, spec: JoinSpec,
                            multisets: list[Multiset]):
        measure = spec.resolved_measure()
        if algorithm == "exact":
            pairs = all_pairs_exact(multisets, measure, spec.threshold,
                                    intern=True)
        elif algorithm == "inverted_index":
            joiner = InvertedIndexJoin(
                measure, spec.threshold,
                stop_word_frequency=spec.stop_word_frequency)
            pairs = sorted(joiner.run(multisets))
        elif algorithm == "ppjoin":
            pairs = sorted(PPJoin(measure, spec.threshold).run(multisets))
        elif algorithm == "minhash":
            joiner = MinHashLSHJoin(measure.name, spec.threshold,
                                    parameters=spec.resolved_minhash_parameters(),
                                    verify_exact=True)
            pairs = sorted(joiner.run(multisets))
        elif algorithm == "sampled":
            joiner = SampledJoin(measure, spec.threshold,
                                 recall=spec.recall)
            pairs = sorted(joiner.run(multisets))
        else:
            raise JobConfigurationError(
                f"algorithm {algorithm!r} has no engine executor")
        pipeline = PipelineResult(
            name=algorithm,
            output=Dataset(f"{algorithm}:pairs", pairs),
            job_stats=[],
            artifacts={"algorithm": algorithm, "measure": measure.name,
                       "threshold": spec.threshold},
        )
        return pairs, pipeline


def _check_unique_ids(multisets: list[Multiset]) -> list[Multiset]:
    """Reject duplicate multiset ids once, at the engine boundary.

    Several execution paths key intermediate state by multiset id (the
    interning dictionary, the MinHash entity map, serving indexes); a
    duplicate would silently shadow earlier occurrences and produce an
    answer for a corpus the caller never supplied.
    """
    seen: set = set()
    for multiset in multisets:
        if multiset.id in seen:
            raise DatasetError(
                f"duplicate multiset id {multiset.id!r}: every multiset in "
                "a join must have a unique identifier")
        seen.add(multiset.id)
    return multisets


def join(data, *, cluster: Cluster | None = None,
         backend: str | ExecutionBackend = "serial",
         cost_parameters: CostParameters = DEFAULT_COST_PARAMETERS,
         enforce_budgets: bool = True,
         calibration: "CalibrationProfile | str | None" = None,
         **spec_fields) -> JoinResult:
    """One-call declarative join: build a spec, run it, return the result.

    The keyword arguments are :class:`~repro.engine.spec.JoinSpec` fields
    (``measure``, ``threshold``, ``algorithm``, ...)::

        result = join(multisets, measure="ruzicka", threshold=0.5)
        for pair in result:
            ...

    A throwaway :class:`SimilarityEngine` session owns the infrastructure
    for the duration of the call; construct the engine yourself to amortise
    a backend or plan/inspect before running.
    """
    spec = JoinSpec(**spec_fields)
    with SimilarityEngine(cluster=cluster, backend=backend,
                          cost_parameters=cost_parameters,
                          enforce_budgets=enforce_budgets,
                          calibration=calibration) as engine:
        return engine.run(spec, data)
