"""repro — a reproduction of V-SMART-Join (Metwally & Faloutsos, VLDB 2012).

The package implements the paper's contribution and every substrate it
depends on:

* :mod:`repro.core` — multisets and the record types that flow through
  the pipelines;
* :mod:`repro.similarity` — the Nominal Similarity Measure framework
  (Eqn. 1) with the unilateral / conjunctive / disjunctive classification
  and the concrete measures (Ruzicka, Jaccard, Dice, cosine, ...), plus
  the two in-memory joins: the exact oracle and the inverted-index join;
* :mod:`repro.mapreduce` — a deterministic MapReduce simulator with
  combiners, secondary keys, per-machine memory/disk budgets and a cost
  model producing simulated run times, on two execution backends
  (``"serial"`` and the out-of-core ``"disk"`` shuffle);
* :mod:`repro.vsmart` — the V-SMART-Join framework: the Online-Aggregation,
  Lookup and Sharding joining algorithms plus the shared two-step similarity
  phase (:class:`VSmartJoin` is the engine's internal driver: it is handed
  a :class:`JoinSpec` and the session's job runner);
* :mod:`repro.vcl` — the VCL baseline (MapReduce PPJoin+ with prefix
  filtering; :class:`VCLJoin`, likewise driven by the engine);
* :mod:`repro.serving` — the online similarity-serving subsystem: an
  incrementally maintained partial-result index with threshold and top-k
  queries, LRU-cached serving nodes, and the one fleet class,
  :class:`ReplicatedSimilarityService` — hash shards of
  ``replication_factor >= 1`` replicas each (write fan-in, read spreading,
  failover, exact rebuild);
* :mod:`repro.datasets` — synthetic IP/cookie and document workload
  generators with planted ground truth;
* :mod:`repro.communities` — similarity-graph clustering and proxy
  identification;
* :mod:`repro.analysis` — the experiment harness behind the figure
  benchmarks.

* :mod:`repro.engine` — the one front door for joins: a declarative
  :class:`JoinSpec` (the only place a join is described and validated), a
  cost-model-driven :class:`Planner` with inspectable plans, the
  :class:`SimilarityEngine` session (``engine.run(spec, data)``, one-call
  form :func:`join`) and the single :class:`JoinResult` every execution
  path returns;
* :mod:`repro.streaming` — incremental join maintenance: a :class:`JoinView`
  materializes a spec's pair set and applies upsert/delete
  :class:`ChangeBatch` streams exactly, emitting :class:`PairDelta` events
  and streaming them into the serving layer;
* :mod:`repro.resilience` — the fault-tolerance toolkit around the fleet:
  seeded :class:`FaultPolicy` injection, :class:`RetryPolicy` backoff and
  a :class:`CircuitBreaker` for the wire client;
* :mod:`repro.storage` — the durable persistence tier: one SQLite file
  holds a serving index (``SimilarityIndex.save``/``.load``), a crash-
  recoverable view snapshot + mutation log (``JoinView.persist`` /
  ``JoinView.recover``) or a stored join result with lazy pair iteration
  (``JoinResult.to_sqlite``/``.from_sqlite``), all with exact round-trips.

Quickstart::

    from repro import JoinSpec, Multiset, SimilarityEngine

    ips = [Multiset("ip-a", {"cookie1": 3, "cookie2": 1}),
           Multiset("ip-b", {"cookie1": 2, "cookie2": 2}),
           Multiset("ip-c", {"cookie9": 5})]
    with SimilarityEngine() as engine:
        result = engine.run(JoinSpec(measure="ruzicka", threshold=0.4), ips)
    for pair in result:
        print(pair.first, pair.second, pair.similarity)
"""

import importlib

__version__ = "3.21.0"

#: Every exported name and the subpackage that defines it.  A name is
#: imported when it is first used (PEP 562), so ``import repro`` loads no
#: tier: a serving process loads only the serving tier, and a join loads
#: the engine, NumPy and the MapReduce simulator when it first names them.
_EXPORTS = {
    "Change": "repro.streaming",
    "ChangeBatch": "repro.streaming",
    "CalibrationProfile": "repro.engine",
    "CircuitBreaker": "repro.resilience",
    "Cluster": "repro.mapreduce",
    "CorpusProfile": "repro.engine",
    "ElementDictionary": "repro.core",
    "ExecutionBackend": "repro.mapreduce",
    "FaultPolicy": "repro.resilience",
    "InputTuple": "repro.core",
    "InternedMultiset": "repro.core",
    "JoinPlan": "repro.engine",
    "JoinResult": "repro.engine",
    "JoinSpec": "repro.engine",
    "JoinView": "repro.streaming",
    "Multiset": "repro.core",
    "PairDelta": "repro.streaming",
    "PairCodec": "repro.core",
    "Planner": "repro.engine",
    "ReplicatedShard": "repro.serving",
    "ReplicatedSimilarityService": "repro.serving",
    "ResultStore": "repro.storage",
    "RetryPolicy": "repro.resilience",
    "SerialBackend": "repro.mapreduce",
    "ServingNode": "repro.serving",
    "SimilarPair": "repro.core",
    "SimilarityEngine": "repro.engine",
    "SimilarityIndex": "repro.serving",
    "StorageEngine": "repro.storage",
    "StoredPairSequence": "repro.storage",
    "ViewStore": "repro.storage",
    "VCLJoin": "repro.vcl",
    "VSmartJoin": "repro.vsmart",
    "all_pairs_exact": "repro.similarity",
    "apply_deltas": "repro.streaming",
    "attach_serving": "repro.streaming",
    "available_algorithms": "repro.engine",
    "bootstrap_from_join": "repro.serving",
    "compute_similarity": "repro.similarity",
    "get_backend": "repro.mapreduce",
    "get_measure": "repro.similarity",
    "intern_corpus": "repro.core",
    "join": "repro.engine",
    "laptop_cluster": "repro.mapreduce",
    "list_measures": "repro.similarity",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
