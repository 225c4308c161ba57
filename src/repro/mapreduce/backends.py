"""Pluggable execution backends for the MapReduce runner.

The runner turns every phase of a job into one self-contained task (see
:mod:`repro.mapreduce.phases`); a backend decides *where* that task runs
and where the shuffle is held:

* :class:`SerialBackend` executes tasks inline on the calling thread and
  keeps the shuffle in the runner's in-memory spill dictionaries (it is the
  default);
* :class:`DiskShuffleBackend` executes tasks inline like the serial backend
  but holds the shuffle in an
  :class:`~repro.mapreduce.shuffle.ExternalGrouper` — sorted run files
  under a byte budget, merged back one reduce group at a time — so joins
  run on corpora whose shuffle is far larger than memory.

A backend decides exactly two things: how a phase's task is executed
(:meth:`ExecutionBackend.run_tasks`) and where the shuffle is held
(:meth:`ExecutionBackend.external_grouper`); the runner drives map →
combine → shuffle → reduce itself on every backend.  A backend holds
nothing across jobs (the disk backend builds and removes its grouper per
job), so there is nothing to close.

Results and statistics are identical across backends: backends only
change peak memory, never results, counters or simulated times (the disk
backend adds its physical spill telemetry in the reserved ``shuffle/``
counter namespace).
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Sequence

from repro.core.exceptions import BackendError, JobConfigurationError
from repro.mapreduce.shuffle import ExternalGrouper

#: Default spill budget: small enough that big benchmark corpora actually
#: go out of core, large enough that unit-test joins stay in memory.
DEFAULT_MEMORY_BUDGET_BYTES = 32 * 1024 * 1024


class ExecutionBackend:
    """Where phase tasks run and where the shuffle is held."""

    #: Registry name of the backend (``"serial"`` or ``"disk"``).
    name: str = "base"

    def run_tasks(self, function: Callable[[Any], Any],
                  tasks: Sequence[Any]) -> list[Any]:
        """Apply ``function`` to every task inline, returning results in
        task order."""
        return [function(task) for task in tasks]

    def external_grouper(self) -> ExternalGrouper | None:
        """Where the shuffle of the next job is held.

        ``None`` (the default) keeps it in the runner's in-memory spill
        dictionaries.  A backend that bounds the shuffle returns a fresh
        :class:`~repro.mapreduce.shuffle.ExternalGrouper`; the runner feeds
        it the partitioned map output, reduces the groups it streams back
        and closes it when the job ends, on every exit path.
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Run every task inline with the shuffle in memory (the default)."""

    name = "serial"


class DiskShuffleBackend(ExecutionBackend):
    """Run jobs with an external (disk-spilling) shuffle.

    Tasks run inline exactly as on the serial backend; only the shuffle
    differs.  ``memory_budget_bytes`` bounds the shuffle buffer,
    ``temp_dir`` overrides where run files live and ``merge_fan_in`` caps
    how many runs one merge pass reads.  The temporary directory is created
    per job and removed when the job finishes — including on error or
    cancellation — and peak memory is bounded by the budget plus the
    largest single reduce group.  A spill location that cannot be created
    or written raises :class:`~repro.core.exceptions.BackendError` naming
    it.

    ``spilled_bytes`` stays the *modeled* quantity (the shuffle volume, as
    on every backend), so simulated times agree across backends even when
    the cost model charges a disk term; the physical run-file telemetry is
    reported separately through counters in the reserved ``shuffle/``
    namespace (``shuffle/runs_written``, ``shuffle/bytes_spilled``,
    ``shuffle/merge_passes``, ``shuffle/peak_buffer_bytes``,
    ``shuffle/spilled_records``).
    """

    name = "disk"

    def __init__(self, *,
                 memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
                 temp_dir: str | None = None,
                 merge_fan_in: int = 8) -> None:
        self.temp_dir = temp_dir
        # The grouper validates the options; probing it here reports a bad
        # value when the backend is built, not in the middle of a job (it
        # touches no disk until its first spill).
        probe = ExternalGrouper(memory_budget_bytes, temp_dir=temp_dir,
                                merge_fan_in=merge_fan_in)
        self.memory_budget_bytes = probe.memory_budget_bytes
        self.merge_fan_in = probe.merge_fan_in

    def external_grouper(self) -> ExternalGrouper:
        return ExternalGrouper(self.memory_budget_bytes,
                               temp_dir=self.temp_dir,
                               merge_fan_in=self.merge_fan_in)

    def __repr__(self) -> str:
        return (f"DiskShuffleBackend(memory_budget_bytes="
                f"{self.memory_budget_bytes}, merge_fan_in={self.merge_fan_in})")


_BACKEND_FACTORIES: dict[str, type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    DiskShuffleBackend.name: DiskShuffleBackend,
}


def available_backends() -> list[str]:
    """Return the sorted names of all execution backends."""
    return sorted(_BACKEND_FACTORIES)


def get_backend(backend: str | ExecutionBackend | None = "serial",
                **options: Any) -> ExecutionBackend:
    """Resolve a backend name into an :class:`ExecutionBackend` instance.

    Backend instances pass through unchanged; ``None`` resolves to the
    serial backend.  Keyword ``options`` are forwarded to the backend
    constructor — for example ``get_backend("disk", memory_budget_bytes=1
    << 20)``.  Unknown names raise
    :class:`~repro.core.exceptions.JobConfigurationError` listing the
    available backends; an option the backend does not take, a value it
    cannot use, or any option passed with an instance raises
    :class:`~repro.core.exceptions.BackendError`.
    """
    if isinstance(backend, ExecutionBackend):
        if options:
            raise BackendError(
                f"cannot apply options {options!r} to the backend instance "
                f"{backend!r}; pass a backend name to build one with options")
        return backend
    name = "serial" if backend is None else str(backend).strip().lower()
    factory = _BACKEND_FACTORIES.get(name)
    if factory is None:
        known = ", ".join(available_backends())
        raise JobConfigurationError(
            f"unknown execution backend {backend!r}; "
            f"available backends: {known}")
    try:
        return factory(**options)
    except (TypeError, ValueError, BackendError) as error:
        accepted = [parameter.name
                    for parameter in inspect.signature(factory).parameters.values()
                    if parameter.kind is parameter.KEYWORD_ONLY]
        raise BackendError(
            f"cannot build the {name!r} backend with options {options!r}: "
            f"{error}; it accepts: {', '.join(accepted) or 'no options'}") from error
