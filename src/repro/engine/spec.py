"""The declarative description of a similarity join: :class:`JoinSpec`.

A :class:`JoinSpec` says *what* to compute — the measure, the threshold and
the tuning knobs — without saying *how*.  The ``algorithm`` field names any
concrete execution path the engine knows (the three V-SMART-Join joining
algorithms, the VCL baseline, the exact in-memory join, or the
sequential inverted-index join) or ``"auto"``, in which case the
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

from repro.core.exceptions import JobConfigurationError
from repro.core.knobs import BOOL, INT, OPTIONAL_BOOL, OPTIONAL_INT, REAL, check
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

#: Sequential single-machine joins runnable through the engine.
SEQUENTIAL_ALGORITHMS = ("exact", "inverted_index")

#: Algorithms earlier versions ran, each mapped to the algorithm that
#: computes the same exact pairs today (3.19 deleted ``ppjoin``).
REPLACED_ALGORITHMS = {"ppjoin": "inverted_index"}

#: Algorithms the planner considers for ``algorithm="auto"`` — the paper's
#: four distributed contenders, all with cost-model-predictable pipelines.
PLANNABLE_ALGORITHMS = JOINING_ALGORITHMS + (VCL,)

#: Every valid value of :attr:`JoinSpec.algorithm`.
ENGINE_ALGORITHMS = (AUTO,) + PLANNABLE_ALGORITHMS + SEQUENTIAL_ALGORITHMS


#: ``(field, rule, at_least)``: what every knob must be, checked before
#: any value check compares it.
_KNOBS = (
    ("threshold", REAL, None),
    ("sharding_threshold", INT, 1),
    ("stop_word_frequency", OPTIONAL_INT, 1),
    ("chunk_size", OPTIONAL_INT, 2),
    ("vcl_super_element_groups", OPTIONAL_INT, 1),
    ("use_combiners", BOOL, None),
    ("prune_candidates", BOOL, None),
    ("enforce_budgets", OPTIONAL_BOOL, None),
)


def available_algorithms() -> tuple[str, ...]:
    """The valid values of :attr:`JoinSpec.algorithm`.

    ``"auto"`` delegates the choice to the cost-model planner;
    ``"online_aggregation"``, ``"lookup"``, ``"sharding"`` and ``"vcl"`` are
    the distributed MapReduce pipelines; ``"exact"`` and
    ``"inverted_index"`` run sequentially in memory.  Every algorithm is
    exact.
    """
    return ENGINE_ALGORITHMS


@dataclass(frozen=True)
class JoinSpec:
    """A declarative all-pair similarity join.

    Parameters
    ----------
    measure:
        Similarity measure name (see :func:`repro.list_measures`) or
        instance.  A name is looked up when the join runs, so a stored spec
        loads before its custom measure is registered; any other value is
        refused here.  Distributed algorithms reject measures that require
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
    cluster / backend / cost_parameters / enforce_budgets:
        Optional overrides of the engine session's infrastructure; ``None``
        means "use the session's".

    Construction is the one place a join is validated: a knob no algorithm
    could run with raises
    :class:`~repro.core.exceptions.JobConfigurationError` here (a threshold
    outside ``(0, 1]``, ``ValueError``), whatever ``algorithm`` says, never
    later from inside a pipeline.  So does a knob of the wrong type: counts
    are ints, flags are bools (``use_combiners="no"`` is not ``False``), and
    the threshold is a real number other than NaN, stored as a ``float``
    (the rules of :mod:`repro.core.knobs`).
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
    cluster: Cluster | None = None
    backend: str | ExecutionBackend | None = None
    cost_parameters: CostParameters | None = None
    enforce_budgets: bool | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ENGINE_ALGORITHMS:
            replacement = (REPLACED_ALGORITHMS.get(self.algorithm)
                           if isinstance(self.algorithm, str) else None)
            hint = (f" ({replacement!r} computes the same pairs)"
                    if replacement else "")
            raise JobConfigurationError(
                f"unknown algorithm {self.algorithm!r}{hint}; expected one "
                f"of {ENGINE_ALGORITHMS}")
        if not isinstance(self.measure, (str, NominalSimilarityMeasure)):
            # A name resolves at run time (a stored spec loads before its
            # custom measure is registered); anything else never will.
            raise JobConfigurationError(
                "measure must be a measure name or a NominalSimilarityMeasure,"
                f" got {self.measure!r}")
        # Every knob is checked here, whatever the algorithm: "auto" prices
        # every candidate, and a bad value must not survive profiling,
        # planning and interning to fail (or silently match nothing) mid-run.
        for name, rule, at_least in _KNOBS:
            object.__setattr__(self, name, check(
                getattr(self, name), rule, name, JobConfigurationError,
                at_least=at_least))
        object.__setattr__(self, "threshold", validate_threshold(self.threshold))
        if self.vcl_element_order not in (FREQUENCY_ORDER, HASH_ORDER):
            raise JobConfigurationError(
                f"vcl_element_order must be {FREQUENCY_ORDER!r} or "
                f"{HASH_ORDER!r}, got {self.vcl_element_order!r}")

    # -- resolution helpers -------------------------------------------------

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
