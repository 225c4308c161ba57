"""Simulated cluster description.

The paper's experiments run every algorithm on the same fleet of machines,
"allowed 1GB of memory, and 10GB of disk space on each of the machines",
varying the fleet size between 100 and 900 machines.  :class:`Cluster`
captures exactly those knobs plus the engine *profile*: the Google
MapReduce supports secondary keys (within-group sort order), while the
public Hadoop does not — a distinction the paper leans on when motivating
the Lookup and Sharding algorithms as Hadoop-compatible alternatives to
Online-Aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.exceptions import JobConfigurationError
from repro.core.knobs import INT, REAL, check

#: One binary gigabyte, the per-machine memory budget used in the paper.
GIGABYTE = 1024 ** 3
#: One binary megabyte, handy for scaled-down laptop experiments.
MEGABYTE = 1024 ** 2


@dataclass(frozen=True)
class ClusterProfile:
    """Engine capabilities of the MapReduce implementation being simulated."""

    name: str
    #: Whether the shuffle can sort each reduce value list by a secondary
    #: key.  True for the Google MapReduce, False for stock Hadoop.
    supports_secondary_keys: bool
    #: Whether reducers may rewind (re-iterate) their reduce value list.
    #: Needed by the chunked Similarity1 reducer described in section 4.
    supports_reducer_rewind: bool = True


#: The internal Google MapReduce profile assumed by Online-Aggregation.
GOOGLE_MAPREDUCE = ClusterProfile("google-mapreduce", supports_secondary_keys=True)

#: The public Hadoop profile: no secondary keys (paper section 2).
HADOOP = ClusterProfile("hadoop", supports_secondary_keys=False)


@dataclass(frozen=True)
class Cluster:
    """A shared-nothing cluster of identical commodity machines.

    Parameters mirror the experimental setup of section 7: a machine count,
    a per-machine memory budget, a per-machine disk budget and a scheduler
    limit after which long-running jobs are killed (the paper reports VCL's
    kernel mappers being killed after 48 hours).  The machine count and
    the budgets are positive ints and the limit a positive real other than
    NaN (:mod:`repro.core.knobs`); anything else is a
    :class:`~repro.core.exceptions.JobConfigurationError` here, not a
    ``TypeError`` from inside a pipeline.
    """

    num_machines: int = 100
    memory_per_machine: int = GIGABYTE
    disk_per_machine: int = 10 * GIGABYTE
    profile: ClusterProfile = GOOGLE_MAPREDUCE
    scheduler_limit_seconds: float = float("inf")

    def __post_init__(self) -> None:
        for name in ("num_machines", "memory_per_machine", "disk_per_machine"):
            object.__setattr__(self, name, check(
                getattr(self, name), INT, name, JobConfigurationError,
                at_least=1))
        limit = check(self.scheduler_limit_seconds, REAL,
                      "scheduler_limit_seconds", JobConfigurationError)
        if limit <= 0:
            raise JobConfigurationError("scheduler_limit_seconds must be positive")
        object.__setattr__(self, "scheduler_limit_seconds", limit)

    def with_machines(self, num_machines: int) -> "Cluster":
        """Return a copy of this cluster with a different machine count."""
        return replace(self, num_machines=num_machines)

    def with_profile(self, profile: ClusterProfile) -> "Cluster":
        """Return a copy of this cluster running a different engine profile."""
        return replace(self, profile=profile)

    def with_memory(self, memory_per_machine: int) -> "Cluster":
        """Return a copy of this cluster with a different memory budget."""
        return replace(self, memory_per_machine=memory_per_machine)

    def with_scheduler_limit(self, limit_seconds: float) -> "Cluster":
        """Return a copy with a scheduler kill limit (in simulated seconds)."""
        return replace(self, scheduler_limit_seconds=limit_seconds)

    @property
    def total_memory(self) -> int:
        """Aggregate memory of the whole fleet."""
        return self.num_machines * self.memory_per_machine

    @property
    def total_disk(self) -> int:
        """Aggregate disk of the whole fleet."""
        return self.num_machines * self.disk_per_machine


def laptop_cluster(num_machines: int = 8,
                   memory_per_machine: int = 64 * MEGABYTE,
                   profile: ClusterProfile = GOOGLE_MAPREDUCE) -> Cluster:
    """A scaled-down cluster for unit tests and quickstart examples."""
    return Cluster(num_machines=num_machines,
                   memory_per_machine=memory_per_machine,
                   disk_per_machine=64 * memory_per_machine,
                   profile=profile)
