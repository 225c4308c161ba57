"""Shared experiment harness used by the figure benchmarks and examples.

Each of the paper's figures compares algorithms across a sweep (threshold,
machine count, the sharding parameter C).  The harness runs one algorithm on
one configuration, converts the failure modes the paper reports into
statuses instead of exceptions ("did not finish" rows in the figures), and
provides sweep helpers that return plain dictionaries the benchmarks format
into tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.exceptions import (
    DiskBudgetExceeded,
    JobTimeoutError,
    MemoryBudgetExceeded,
    UnsupportedFeatureError,
)
from repro.core.multiset import Multiset
from repro.core.records import SimilarPair
from repro.engine.engine import SimilarityEngine, join
from repro.engine.spec import ENGINE_ALGORITHMS, JoinSpec
from repro.mapreduce.backends import ExecutionBackend
from repro.mapreduce.cluster import Cluster
from repro.mapreduce.costmodel import DEFAULT_COST_PARAMETERS, CostParameters

#: Status values an experiment run can end with.
STATUS_OK = "ok"
STATUS_OUT_OF_MEMORY = "out_of_memory"
STATUS_TIMEOUT = "timeout"
STATUS_UNSUPPORTED = "unsupported"
STATUS_OUT_OF_DISK = "out_of_disk"

#: The distributed contenders the figure sweeps compare (``run_algorithm``
#: itself accepts every engine algorithm, ``"auto"`` included).
ALGORITHMS = ("online_aggregation", "lookup", "sharding", "vcl")


@dataclass
class AlgorithmOutcome:
    """The outcome of running one algorithm on one configuration."""

    algorithm: str
    status: str
    simulated_seconds: float | None = None
    joining_seconds: float | None = None
    similarity_seconds: float | None = None
    num_pairs: int | None = None
    pairs: list[SimilarPair] | None = None
    detail: str = ""
    #: Measured per-job statistics of the executed pipeline (empty for
    #: in-memory algorithms and failed runs) — the raw material of
    #: :class:`repro.engine.calibration.CalibrationProfile` training.
    job_stats: list = field(default_factory=list)

    @property
    def finished(self) -> bool:
        """Whether the run produced a result (as opposed to failing)."""
        return self.status == STATUS_OK

    def time_or_none(self) -> float | None:
        """Simulated seconds when finished, ``None`` otherwise."""
        return self.simulated_seconds if self.finished else None


def run_algorithm(algorithm: str,
                  multisets: Sequence[Multiset],
                  *, cluster: Cluster | None = None,
                  cost_parameters: CostParameters = DEFAULT_COST_PARAMETERS,
                  backend: str | ExecutionBackend = "serial",
                  keep_pairs: bool = True,
                  **spec_fields) -> AlgorithmOutcome:
    """Run one algorithm and capture its outcome, including failure modes.

    The shape of :func:`repro.join` with the failures caught: any engine
    algorithm can be selected by name — the V-SMART-Join joining
    algorithms, the VCL baseline, the sequential joins, or ``"auto"``
    to let the planner choose (the outcome then reports the algorithm the
    plan picked) — and the remaining keyword arguments are
    :class:`~repro.engine.spec.JoinSpec` fields (``measure``,
    ``threshold``, ``sharding_threshold``, ...).  Memory-budget violations,
    simulated-scheduler kills, disk exhaustion and missing engine features
    are converted into statuses, mirroring how the paper reports algorithms
    that "never succeeded to finish".  ``backend`` selects the execution
    backend; outcomes (pairs, counters, simulated times and failure
    statuses) are backend-invariant.
    """
    if algorithm not in ENGINE_ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; "
                         f"expected one of {ENGINE_ALGORITHMS}")
    try:
        result = join(multisets, cluster=cluster, backend=backend,
                      cost_parameters=cost_parameters, algorithm=algorithm,
                      **spec_fields)
        return AlgorithmOutcome(
            algorithm=result.algorithm,
            status=STATUS_OK,
            simulated_seconds=result.simulated_seconds,
            joining_seconds=result.joining_seconds,
            similarity_seconds=result.similarity_seconds,
            num_pairs=len(result.pairs),
            pairs=result.pairs if keep_pairs else None,
            job_stats=list(result.pipeline.job_stats),
        )
    except MemoryBudgetExceeded as error:
        return AlgorithmOutcome(algorithm=algorithm, status=STATUS_OUT_OF_MEMORY,
                                detail=str(error))
    except DiskBudgetExceeded as error:
        return AlgorithmOutcome(algorithm=algorithm, status=STATUS_OUT_OF_DISK,
                                detail=str(error))
    except JobTimeoutError as error:
        return AlgorithmOutcome(algorithm=algorithm, status=STATUS_TIMEOUT,
                                detail=str(error))
    except UnsupportedFeatureError as error:
        return AlgorithmOutcome(algorithm=algorithm, status=STATUS_UNSUPPORTED,
                                detail=str(error))


def threshold_sweep(algorithms: Iterable[str],
                    multisets: Sequence[Multiset],
                    thresholds: Iterable[float],
                    cluster: Cluster | None = None,
                    **run_options) -> dict[float, dict[str, AlgorithmOutcome]]:
    """Run each algorithm at each threshold (the Fig. 4 sweep)."""
    results: dict[float, dict[str, AlgorithmOutcome]] = {}
    for threshold in thresholds:
        per_algorithm: dict[str, AlgorithmOutcome] = {}
        for algorithm in algorithms:
            per_algorithm[algorithm] = run_algorithm(
                algorithm, multisets, threshold=threshold, cluster=cluster,
                **run_options)
        results[threshold] = per_algorithm
    return results


def machine_sweep(algorithms: Iterable[str],
                  multisets: Sequence[Multiset],
                  machine_counts: Iterable[int],
                  base_cluster: Cluster,
                  **run_options) -> dict[int, dict[str, AlgorithmOutcome]]:
    """Run each algorithm at each cluster size (the Fig. 5 / Fig. 6 sweeps)."""
    results: dict[int, dict[str, AlgorithmOutcome]] = {}
    for machines in machine_counts:
        cluster = base_cluster.with_machines(machines)
        per_algorithm: dict[str, AlgorithmOutcome] = {}
        for algorithm in algorithms:
            per_algorithm[algorithm] = run_algorithm(
                algorithm, multisets, cluster=cluster, **run_options)
        results[machines] = per_algorithm
    return results


def sharding_parameter_sweep(multisets: Sequence[Multiset],
                             parameter_values: Iterable[int],
                             cluster: Cluster,
                             measure: str = "ruzicka",
                             threshold: float = 0.5,
                             cost_parameters: CostParameters = DEFAULT_COST_PARAMETERS
                             ) -> dict[int, dict[str, float]]:
    """Sweep the Sharding parameter C and split Sharding1 / Sharding2 times.

    This is the Fig. 7 experiment: the Sharding1 time falls as C rises (fewer
    table entries to emit), the Sharding2 time rises (more on-the-fly
    aggregation) and the total stays roughly flat.
    """
    results: dict[int, dict[str, float]] = {}
    for parameter in parameter_values:
        # prune_candidates=False keeps the C sweep on the paper's unpruned
        # candidate stream, like the other figure experiments.
        spec = JoinSpec(algorithm="sharding", measure=measure,
                        threshold=threshold,
                        sharding_threshold=int(parameter),
                        prune_candidates=False)
        with SimilarityEngine(cluster=cluster,
                              cost_parameters=cost_parameters) as engine:
            outcome = engine.run(spec, multisets)
        stats = {s.job_name: s.simulated_seconds for s in outcome.pipeline.job_stats}
        results[int(parameter)] = {
            "sharding1_seconds": stats.get("sharding1", 0.0),
            "sharding2_seconds": stats.get("sharding2", 0.0),
            "joining_seconds": outcome.joining_seconds,
            "total_seconds": outcome.simulated_seconds,
            "num_pairs": float(len(outcome.pairs)),
        }
    return results


def agreement_check(outcomes: Iterable[AlgorithmOutcome]) -> bool:
    """Whether every finished outcome reports the same number of pairs.

    The paper notes that "all the algorithms produced the same number of
    similar pairs of IPs for each value of t"; the benchmarks assert the
    same property on the simulator.
    """
    counts = {outcome.num_pairs for outcome in outcomes if outcome.finished}
    return len(counts) <= 1
