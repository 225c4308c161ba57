"""Pluggable execution backends for the MapReduce runner.

The runner turns every phase of a job into a list of self-contained tasks
(see :mod:`repro.mapreduce.phases`); a backend decides *where* those tasks
run:

* :class:`SerialBackend` executes tasks inline, one after another, exactly
  reproducing the original single-process runner (it is the default);
* :class:`ProcessBackend` fans tasks out to a multiprocessing pool, running
  mapper/combiner slices and reducer partition batches on real OS processes
  (measured ×2.8–3.2 *slower* than serial at 2 workers on a 2-vCPU host —
  every record is pickled across the pool twice; kept pending ROADMAP
  item 5);
* :class:`DiskShuffleBackend` executes tasks inline like the serial backend
  but holds the shuffle in an
  :class:`~repro.mapreduce.shuffle.ExternalGrouper` — sorted run files
  under a byte budget, merged back one reduce group at a time — so joins
  run on corpora whose shuffle is far larger than memory.

A backend decides exactly two things: how a phase's tasks are executed
(:meth:`ExecutionBackend.run_tasks`) and where the shuffle is held
(:meth:`ExecutionBackend.external_grouper`); the runner drives map →
combine → shuffle → reduce itself on every backend.

Results and statistics are identical across backends for the library's
(stateless) mappers and reducers: tasks return exact integer-valued partial
statistics that the runner merges deterministically, and task outputs are
concatenated in task order.  Backends only change wall-clock time and peak
memory, never results, counters or simulated times (the disk backend adds
its physical spill telemetry in the reserved ``shuffle/`` counter
namespace).
"""

from __future__ import annotations

import inspect
import os
from typing import Any, Callable, Sequence

from repro.core.exceptions import BackendError, JobConfigurationError
from repro.mapreduce.shuffle import ExternalGrouper

#: Default spill budget: small enough that big benchmark corpora actually
#: go out of core, large enough that unit-test joins stay in memory.
DEFAULT_MEMORY_BUDGET_BYTES = 32 * 1024 * 1024


def default_worker_count() -> int:
    """The number of workers used when none is requested: usable CPUs."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without CPU affinity (macOS, Windows)
        return os.cpu_count() or 1


class ExecutionBackend:
    """Where phase tasks run.  Subclasses implement :meth:`run_tasks`.

    Backends are reusable across jobs and pipelines; pooled backends create
    their workers lazily on first use and release them in :meth:`close` (or
    on exit when used as a context manager).
    """

    #: Registry name of the backend (``"serial"``, ``"process"``, ...).
    name: str = "base"

    def __init__(self, num_workers: int | None = None) -> None:
        self.num_workers = max(1, int(num_workers or default_worker_count()))

    def run_tasks(self, function: Callable[[Any], Any],
                  tasks: Sequence[Any]) -> list[Any]:
        """Apply ``function`` to every task, returning results in task order."""
        raise NotImplementedError

    def external_grouper(self) -> ExternalGrouper | None:
        """Where the shuffle of the next job is held.

        ``None`` (the default) keeps it in the runner's in-memory spill
        dictionaries.  A backend that bounds the shuffle returns a fresh
        :class:`~repro.mapreduce.shuffle.ExternalGrouper`; the runner feeds
        it the partitioned map output, reduces the groups it streams back
        and closes it when the job ends, on every exit path.
        """
        return None

    def close(self) -> None:
        """Release any pooled workers; the backend may be used again after."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_workers={self.num_workers})"


class SerialBackend(ExecutionBackend):
    """Run every task inline on the calling thread (the default backend).

    With one worker the runner builds exactly one task per phase, so this
    backend is bit-identical to the original serial runner, including the
    once-per-phase mapper/reducer setup and cleanup hooks.
    """

    name = "serial"

    def __init__(self, num_workers: int | None = None) -> None:
        # A serial backend always has exactly one worker; the parameter is
        # accepted so all backends share a constructor signature.
        super().__init__(1)

    def run_tasks(self, function: Callable[[Any], Any],
                  tasks: Sequence[Any]) -> list[Any]:
        return [function(task) for task in tasks]


class ProcessBackend(ExecutionBackend):
    """Run tasks on a lazily created multiprocessing pool.

    Tasks and their results cross process boundaries by pickling, so jobs
    must be picklable (every job in this library is: mappers and reducers
    are plain classes, side data is plain dictionaries).  The pool prefers
    the ``fork`` start method when available — workers inherit the parent's
    state instantly — and falls back to the platform default otherwise.
    """

    name = "process"

    def __init__(self, num_workers: int | None = None) -> None:
        super().__init__(num_workers)
        self._pool: Any = None

    def _ensure_pool(self) -> Any:
        if self._pool is None:
            import multiprocessing
            import sys

            # Prefer fork only on Linux, where it is the safe default and
            # workers inherit the parent instantly; macOS deliberately moved
            # to spawn (fork is unsafe under ObjC-backed libraries), so use
            # the platform default everywhere else.
            if sys.platform == "linux":
                context = multiprocessing.get_context("fork")
            else:
                context = multiprocessing.get_context()
            self._pool = context.Pool(processes=self.num_workers)
        return self._pool

    def run_tasks(self, function: Callable[[Any], Any],
                  tasks: Sequence[Any]) -> list[Any]:
        tasks = list(tasks)
        if not tasks:
            return []
        return self._ensure_pool().map(function, tasks, chunksize=1)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None


class DiskShuffleBackend(ExecutionBackend):
    """Run jobs with an external (disk-spilling) shuffle.

    Tasks run inline, one per phase, exactly as on the serial backend; only
    the shuffle differs.  ``memory_budget_bytes`` bounds the shuffle buffer,
    ``temp_dir`` overrides where run files live and ``merge_fan_in`` caps
    how many runs one merge pass reads.  The temporary directory is created
    per job and removed when the job finishes — including on error or
    cancellation — and peak memory is bounded by the budget plus the
    largest single reduce group.

    ``spilled_bytes`` stays the *modeled* quantity (the shuffle volume, as
    on every backend), so simulated times agree across backends even when
    the cost model charges a disk term; the physical run-file telemetry is
    reported separately through counters in the reserved ``shuffle/``
    namespace (``shuffle/runs_written``, ``shuffle/bytes_spilled``,
    ``shuffle/merge_passes``, ``shuffle/peak_buffer_bytes``,
    ``shuffle/spilled_records``).
    """

    name = "disk"

    def __init__(self, num_workers: int | None = None, *,
                 memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
                 temp_dir: str | None = None,
                 merge_fan_in: int = 8) -> None:
        # One worker, so the map/combine/reduce loops match the serial
        # backend's exactly (``num_workers`` is accepted and ignored, as there).
        super().__init__(1)
        self.temp_dir = temp_dir
        # The grouper validates the options; probing it here reports a bad
        # value when the backend is built, not in the middle of a job (it
        # touches no disk until its first spill).
        probe = ExternalGrouper(memory_budget_bytes, temp_dir=temp_dir,
                                merge_fan_in=merge_fan_in)
        self.memory_budget_bytes = probe.memory_budget_bytes
        self.merge_fan_in = probe.merge_fan_in

    def run_tasks(self, function: Callable[[Any], Any],
                  tasks: Sequence[Any]) -> list[Any]:
        return [function(task) for task in tasks]

    def external_grouper(self) -> ExternalGrouper:
        return ExternalGrouper(self.memory_budget_bytes,
                               temp_dir=self.temp_dir,
                               merge_fan_in=self.merge_fan_in)


_BACKEND_FACTORIES: dict[str, type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ProcessBackend.name: ProcessBackend,
    DiskShuffleBackend.name: DiskShuffleBackend,
}


def available_backends() -> list[str]:
    """Return the sorted names of all execution backends."""
    return sorted(_BACKEND_FACTORIES)


def get_backend(backend: str | ExecutionBackend | None = "serial",
                num_workers: int | None = None,
                **options: Any) -> ExecutionBackend:
    """Resolve a backend name into an :class:`ExecutionBackend` instance.

    Backend instances pass through unchanged (``num_workers`` and
    ``options`` are then ignored); ``None`` resolves to the serial backend.
    Keyword ``options`` are forwarded to the backend constructor — for
    example ``get_backend("disk", memory_budget_bytes=1 << 20)``.  Unknown
    names raise :class:`~repro.core.exceptions.JobConfigurationError`
    listing the available backends; an option the backend does not take, or
    a value it cannot use, raises
    :class:`~repro.core.exceptions.BackendError` listing the options it
    accepts.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        return SerialBackend()
    name = str(backend).strip().lower()
    factory = _BACKEND_FACTORIES.get(name)
    if factory is None:
        known = ", ".join(available_backends())
        raise JobConfigurationError(
            f"unknown execution backend {backend!r}; "
            f"available backends: {known}")
    try:
        return factory(num_workers, **options)
    except (TypeError, ValueError) as error:
        accepted = ["num_workers"] + [
            parameter.name
            for parameter in inspect.signature(factory).parameters.values()
            if parameter.kind is parameter.KEYWORD_ONLY]
        raise BackendError(
            f"cannot build the {name!r} backend with options {options!r}: "
            f"{error}; it accepts: {', '.join(accepted)}") from error
