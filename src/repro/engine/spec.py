"""The declarative description of a similarity join: :class:`JoinSpec`.

A :class:`JoinSpec` says *what* to compute — the measure, the threshold and
the tuning knobs — without saying *how*.  The ``algorithm`` field names any
concrete execution path the engine knows (the three V-SMART-Join joining
algorithms, the VCL baseline, the exact in-memory join, or one of the
sequential baselines) or ``"auto"``, in which case the
:class:`~repro.engine.planner.Planner` inspects the corpus statistics and
the cost model and picks the distributed algorithm with the lowest
predicted simulated cost — the way a database optimizer chooses a plan.

Infrastructure (cluster, backend, cost calibration) normally lives on the
:class:`~repro.engine.engine.SimilarityEngine` session; the corresponding
``JoinSpec`` fields default to ``None`` ("use the session's") and exist so
a single spec can carry a complete, reproducible description of a run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.baselines.minhash import LSHParameters, derive_banding
from repro.core.exceptions import JobConfigurationError
from repro.mapreduce.backends import ExecutionBackend
from repro.mapreduce.cluster import Cluster
from repro.mapreduce.costmodel import CostParameters
from repro.similarity.base import NominalSimilarityMeasure, validate_threshold
from repro.similarity.registry import get_measure
from repro.vcl.driver import FREQUENCY_ORDER, HASH_ORDER
from repro.vsmart.driver import JOINING_ALGORITHMS

#: The planner placeholder: let the cost model choose the algorithm.
AUTO = "auto"
#: The exact in-memory reference join (quadratic, single machine).
EXACT = "exact"
#: The VCL baseline (MapReduce PPJoin+).
VCL = "vcl"

#: Sequential single-machine baselines runnable through the engine.
SEQUENTIAL_ALGORITHMS = ("exact", "inverted_index", "ppjoin", "minhash",
                         "sampled")

#: Algorithms whose results may miss true pairs: the approximate tier.
#: ``minhash`` loses recall to banding, ``sampled`` to corpus sampling;
#: every other algorithm is exact (modulo ``stop_word_frequency``).
APPROXIMATE_ALGORITHMS = ("minhash", "sampled")

#: Algorithms the planner considers for ``algorithm="auto"`` — the paper's
#: four distributed contenders, all with cost-model-predictable pipelines.
#: A spec with ``recall`` set widens the pool with the approximate tier.
PLANNABLE_ALGORITHMS = JOINING_ALGORITHMS + (VCL,)

#: Every valid value of :attr:`JoinSpec.algorithm`.
ENGINE_ALGORITHMS = (AUTO,) + PLANNABLE_ALGORITHMS + SEQUENTIAL_ALGORITHMS


def available_algorithms() -> tuple[str, ...]:
    """The valid values of :attr:`JoinSpec.algorithm`.

    ``"auto"`` delegates the choice to the cost-model planner;
    ``"online_aggregation"``, ``"lookup"``, ``"sharding"`` and ``"vcl"`` are
    the distributed MapReduce pipelines; ``"exact"``, ``"inverted_index"``,
    ``"ppjoin"``, ``"minhash"`` and ``"sampled"`` run sequentially in
    memory (``minhash`` and ``sampled`` are approximate — every other
    algorithm is exact).
    """
    return ENGINE_ALGORITHMS


@dataclass(frozen=True)
class JoinSpec:
    """A declarative all-pair similarity join.

    Parameters
    ----------
    measure:
        Similarity measure name (see :func:`repro.list_measures`) or
        instance.  Distributed algorithms reject measures that require
        disjunctive partials; ``algorithm="exact"`` accepts every measure.
    threshold:
        Similarity threshold ``t`` in ``(0, 1]``.
    algorithm:
        One of :func:`available_algorithms`; ``"auto"`` (the default) lets
        the planner choose among the distributed algorithms by predicted
        simulated cost.
    sharding_threshold:
        The Sharding parameter ``C`` (multisets with more distinct elements
        go through the lookup table).
    stop_word_frequency:
        Optional ``q >= 1``: discard elements shared by more than ``q``
        multisets before joining (approximate — may drop pairs).
    chunk_size:
        Optional chunked-Similarity1 dissection threshold ``T >= 2``.
    use_combiners:
        Whether dedicated combiners run in the MapReduce pipelines.
    prune_candidates:
        Exact upper-bound candidate pruning in Similarity1 (identical
        output).
    vcl_element_order:
        VCL alphabet order, ``"frequency"`` or ``"hash"``.
    vcl_super_element_groups:
        VCL super-element grouping (``None`` disables).
    recall:
        Optional recall target in ``(0, 1]``.  A value below 1 declares
        that the caller accepts missing true pairs at that rate, which (a)
        admits the approximate tier (``minhash``, ``sampled``) as planner
        candidates under ``algorithm="auto"`` and (b) auto-derives MinHash
        banding so ``collision_probability(threshold) >= recall``.
        ``None`` (the default) and ``1.0`` both demand exactness —
        ``algorithm="auto"`` then never selects an approximate pipeline.
    minhash_parameters:
        LSH banding for ``algorithm="minhash"`` (``None`` derives banding
        from ``(threshold, recall)`` when a recall target is set, and uses
        the baseline's default banding otherwise).  Explicit parameters
        always win over the derivation.
    cluster / backend / cost_parameters / enforce_budgets:
        Optional overrides of the engine session's infrastructure; ``None``
        means "use the session's".

    Construction is the one place a join is validated: a knob no algorithm
    could run with raises
    :class:`~repro.core.exceptions.JobConfigurationError` here (a threshold
    outside ``(0, 1]``, ``ValueError``), whatever ``algorithm`` says, never
    later from inside a pipeline.
    """

    measure: str | NominalSimilarityMeasure = "ruzicka"
    threshold: float = 0.5
    algorithm: str = AUTO
    sharding_threshold: int = 1024
    stop_word_frequency: int | None = None
    chunk_size: int | None = None
    use_combiners: bool = True
    prune_candidates: bool = True
    vcl_element_order: str = "frequency"
    vcl_super_element_groups: int | None = None
    recall: float | None = None
    minhash_parameters: LSHParameters | None = None
    cluster: Cluster | None = None
    backend: str | ExecutionBackend | None = None
    cost_parameters: CostParameters | None = None
    enforce_budgets: bool | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ENGINE_ALGORITHMS:
            raise JobConfigurationError(
                f"unknown algorithm {self.algorithm!r}; expected one of "
                f"{ENGINE_ALGORITHMS}")
        validate_threshold(self.threshold)
        if self.sharding_threshold < 1:
            raise JobConfigurationError("sharding_threshold (C) must be >= 1")
        if self.recall is not None and not 0.0 < self.recall <= 1.0:
            raise JobConfigurationError(
                f"recall must be in (0, 1]; got {self.recall!r}")
        if self.algorithm == "sampled" and not self.allows_inexact:
            raise JobConfigurationError(
                "algorithm='sampled' drops pairs by construction and needs "
                "a recall target below 1.0, e.g. JoinSpec(algorithm='sampled',"
                " recall=0.95)")
        # Every knob is checked here, whatever the algorithm: "auto" prices
        # every candidate, and a bad value must not survive profiling,
        # planning and interning to fail (or silently match nothing) mid-run.
        if self.stop_word_frequency is not None and self.stop_word_frequency < 1:
            raise JobConfigurationError(
                "stop_word_frequency (q) must be >= 1; "
                f"got {self.stop_word_frequency!r}")
        if self.chunk_size is not None and self.chunk_size < 2:
            raise JobConfigurationError(
                "chunk_size (T) must be at least 2 posting entries; "
                f"got {self.chunk_size!r}")
        if self.vcl_element_order not in (FREQUENCY_ORDER, HASH_ORDER):
            raise JobConfigurationError(
                f"vcl_element_order must be {FREQUENCY_ORDER!r} or "
                f"{HASH_ORDER!r}, got {self.vcl_element_order!r}")
        if (self.vcl_super_element_groups is not None
                and self.vcl_super_element_groups < 1):
            raise JobConfigurationError(
                "vcl_super_element_groups must be >= 1")

    # -- resolution helpers -------------------------------------------------

    @property
    def allows_inexact(self) -> bool:
        """Whether the caller accepts missing true pairs (``recall < 1``)."""
        return self.recall is not None and self.recall < 1.0

    def resolved_minhash_parameters(self) -> LSHParameters:
        """The LSH banding ``algorithm="minhash"`` runs with.

        Explicit :attr:`minhash_parameters` win; otherwise a recall target
        derives banding, and without either the baseline's default banding
        applies.

        The derivation aims at the midpoint between the target and 1.0
        (mirroring :func:`repro.baselines.sampled.sample_rate_for_recall`):
        the LSH bound ``collision_probability(threshold) >= recall`` holds
        for a pair *at* the threshold, but signature agreement only
        estimates similarity, so borderline pairs collide at a lower
        effective rate — the margin keeps the *measured* recall
        concentrated above the target instead of oscillating around it.
        """
        if self.minhash_parameters is not None:
            return self.minhash_parameters
        if self.allows_inexact:
            return derive_banding(self.threshold,
                                  (1.0 + self.recall) / 2.0)
        return LSHParameters()

    def resolved_measure(self) -> NominalSimilarityMeasure:
        """Resolve the measure, validating distributed-path support.

        Sequential algorithms (``"exact"`` and friends) work with any
        registered measure; the MapReduce paths require the paper's
        unilateral/conjunctive decomposition.
        """
        measure = get_measure(self.measure)
        if self.algorithm not in SEQUENTIAL_ALGORITHMS:
            measure.check_supported()
        return measure

    def describe(self) -> dict[str, object]:
        """A plain-dict rendering of the spec (measure resolved to its name)."""
        described: dict[str, object] = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name == "measure":
                value = get_measure(value).name
            described[field.name] = value
        return described
