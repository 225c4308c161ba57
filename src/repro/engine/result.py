"""The single result type every engine execution path returns.

Whatever algorithm a :class:`~repro.engine.spec.JoinSpec` resolved to — a
V-SMART-Join pipeline, the VCL baseline, the exact in-memory join or a
sequential baseline — the engine hands back one :class:`JoinResult` with a
uniform surface: lazy pair iteration, the merged pipeline ``counters()``,
``simulated_seconds`` and per-job ``stats_for()``, plus handoffs into the
serving subsystem (:meth:`JoinResult.to_index` / :meth:`JoinResult.to_service`)
and a portable :meth:`JoinResult.to_jsonl` export.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterator, Sequence

from repro.core.exceptions import DatasetError
from repro.core.multiset import Multiset
from repro.core.records import SimilarPair
from repro.engine.planner import JoinPlan
from repro.engine.spec import JoinSpec
from repro.mapreduce.dfs import Dataset
from repro.mapreduce.runner import PipelineResult
from repro.mapreduce.types import JobStats


@dataclass
class JoinResult:
    """The outcome of one engine run: pairs, statistics and handoffs."""

    spec: JoinSpec
    #: The concrete algorithm that executed (never ``"auto"``).
    algorithm: str
    #: Usually a list; a result loaded lazily from storage carries a
    #: disk-backed :class:`~repro.storage.StoredPairSequence` instead.
    pairs: Sequence[SimilarPair]
    pipeline: PipelineResult
    #: The corpus the join ran over (feeds the serving handoffs).
    multisets: list[Multiset] = field(default_factory=list, repr=False)
    #: The plan that chose the algorithm, when one was computed.
    plan: JoinPlan | None = None

    # -- uniform statistics surface -----------------------------------------

    def __iter__(self) -> Iterator[SimilarPair]:
        """Iterate the similar pairs lazily, in canonical order."""
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def simulated_seconds(self) -> float:
        """Total simulated run time (0.0 for in-memory algorithms)."""
        return self.pipeline.simulated_seconds

    @property
    def joining_seconds(self) -> float | None:
        """Simulated joining-phase time (V-SMART-Join pipelines only)."""
        return self.pipeline.artifacts.get("joining_seconds")

    @property
    def similarity_seconds(self) -> float | None:
        """Simulated similarity-phase time (V-SMART-Join pipelines only)."""
        return self.pipeline.artifacts.get("similarity_seconds")

    @property
    def predicted_seconds(self) -> float | None:
        """The planner's prediction for the executed pipeline, if planned."""
        return self.plan.predicted_seconds if self.plan is not None else None

    def counters(self) -> dict[str, int]:
        """All job counters summed over the pipeline (empty if in-memory)."""
        return self.pipeline.counters()

    def stats_for(self, job_name: str) -> JobStats:
        """The measured statistics of one pipeline job, by name."""
        return self.pipeline.stats_for(job_name)

    def job_names(self) -> list[str]:
        """The executed pipeline's job names, in order."""
        return [stats.job_name for stats in self.pipeline.job_stats]

    def explain(self) -> str:
        """The plan explanation, or a one-line summary if nothing was planned."""
        if self.plan is not None:
            return self.plan.explain()
        return (f"JoinResult: algorithm={self.algorithm!r} "
                f"(explicit; {len(self.pairs)} pairs, "
                f"{self.simulated_seconds:,.0f} simulated seconds)")

    # -- handoffs ------------------------------------------------------------

    def to_index(self, **index_options):
        """Build a serving :class:`~repro.serving.index.SimilarityIndex`
        over the joined corpus (same measure)."""
        from repro.serving.index import SimilarityIndex

        index = SimilarityIndex(self.spec.resolved_measure(), **index_options)
        for multiset in self.multisets:
            index.add(multiset)
        return index

    def to_service(self, num_shards: int = 1, **bootstrap_options):
        """Warm-start a sharded serving fleet from this join's pairs.

        Delegates to :func:`repro.serving.bootstrap_from_join`; the result's
        pairs seed every member's threshold-query cache.  Joins that ran
        with stop-word pruning cannot warm caches (their pairs do not match
        live-query answers) — the bootstrap rejects that, as it always has.
        """
        from repro.serving.bootstrap import bootstrap_from_join

        return bootstrap_from_join(self.multisets, self,
                                   num_shards=num_shards, **bootstrap_options)

    def to_view(self):
        """Turn this result into a maintained incremental
        :class:`~repro.streaming.view.JoinView`.

        The view starts from this result's pairs (no recomputation) and
        applies every mutation batch incrementally and exactly.  A
        stop-word-filtered join cannot seed an exact view:
        :class:`JoinView` rejects its spec.
        """
        from repro.streaming.view import JoinView

        return JoinView(self.spec, self.multisets, pairs=self.pairs)

    def to_jsonl(self, destination: str | IO[str]) -> int:
        """Write one JSON object per similar pair; returns the pair count.

        ``destination`` is a path or an open text handle.  Identifiers that
        are not JSON-representable are rendered through ``repr``.
        """
        if isinstance(destination, str):
            with open(destination, "w", encoding="utf-8") as handle:
                return self.to_jsonl(handle)
        count = 0
        for pair in self.pairs:
            destination.write(json.dumps({
                "first": _jsonable(pair.first),
                "second": _jsonable(pair.second),
                "similarity": pair.similarity,
            }))
            destination.write("\n")
            count += 1
        return count

    @classmethod
    def from_jsonl(cls, source: str | IO[str],
                   spec: JoinSpec | None = None,
                   algorithm: str = "import") -> "JoinResult":
        """Read a :meth:`to_jsonl` export back as a result.

        ``source`` is a path or an open text handle; blank and trailing
        lines are tolerated.  The export carries only the pairs, so the
        returned result has an empty corpus and, unless ``spec`` is given,
        a default :class:`JoinSpec` — enough for iteration, ``to_sqlite``
        and downstream reporting, not for the serving handoffs (which need
        the multisets).  Note ``to_jsonl`` renders non-JSON identifiers
        through ``repr``; those round-trip as their string rendering.
        """
        if isinstance(source, str):
            with open(source, encoding="utf-8") as handle:
                return cls.from_jsonl(handle, spec=spec, algorithm=algorithm)
        pairs = []
        for number, line in enumerate(source, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                pairs.append(SimilarPair.make(record["first"],
                                              record["second"],
                                              float(record["similarity"])))
            except (TypeError, ValueError, KeyError) as error:
                raise DatasetError(
                    f"line {number} is not a similar-pair record "
                    f"({error}): {line.strip()!r}") from None
        if spec is None:
            spec = JoinSpec(algorithm="exact")
        return cls(spec=spec, algorithm=algorithm, pairs=pairs,
                   pipeline=PipelineResult(
                       name=algorithm,
                       output=Dataset(f"{algorithm}:pairs", pairs)))

    def to_sqlite(self, destination) -> int:
        """Persist this result into a SQLite database; returns the pair count.

        ``destination`` is a database path or an open
        :class:`~repro.storage.StorageEngine`.  The spec, the concrete
        algorithm, the joined corpus and the pairs (in result order) are
        stored; :meth:`from_sqlite` loads them back with lazy pair
        iteration.
        """
        from repro.storage import ResultStore

        with ResultStore(destination) as store:
            return store.save(self)

    @classmethod
    def from_sqlite(cls, source, *, lazy: bool = True) -> "JoinResult":
        """Load a result stored by :meth:`to_sqlite`.

        With ``lazy=True`` (the default) ``result.pairs`` streams from the
        database on demand — ``len()``, indexing and iteration never
        materialize the full pair set in memory.
        """
        from repro.storage import ResultStore

        with ResultStore(source) as store:
            return store.load(lazy=lazy)


def _jsonable(identifier: object) -> object:
    """A JSON-safe rendering of a multiset identifier."""
    if identifier is None or isinstance(identifier, (str, int, float, bool)):
        return identifier
    return repr(identifier)
