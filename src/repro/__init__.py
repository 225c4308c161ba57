"""repro — a reproduction of V-SMART-Join (Metwally & Faloutsos, VLDB 2012).

The package implements the paper's contribution and every substrate it
depends on:

* :mod:`repro.core` — multisets, sparse vectors and the record types that
  flow through the pipelines;
* :mod:`repro.similarity` — the Nominal Similarity Measure framework
  (Eqn. 1) with the unilateral / conjunctive / disjunctive classification
  and the concrete measures (Ruzicka, Jaccard, Dice, cosine, ...);
* :mod:`repro.mapreduce` — a deterministic MapReduce simulator with
  combiners, secondary keys, per-machine memory/disk budgets and a cost
  model producing simulated run times, on three execution backends
  (``"serial"``, ``"process"`` and the out-of-core ``"disk"`` shuffle);
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
* :mod:`repro.baselines` — sequential baselines (brute force, inverted
  index, PPJoin, MinHash/LSH);
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

from repro.core import (
    ElementDictionary,
    InputTuple,
    InternedMultiset,
    Multiset,
    PairCodec,
    SimilarPair,
    SparseVector,
    intern_corpus,
)
from repro.mapreduce import (
    Cluster,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    available_backends,
    get_backend,
    laptop_cluster,
    paper_cluster,
)
from repro.resilience import CircuitBreaker, FaultPolicy, RetryPolicy
from repro.serving import (
    ReplicatedShard,
    ReplicatedSimilarityService,
    ServingNode,
    SimilarityIndex,
    bootstrap_from_join,
)
from repro.similarity import (
    all_pairs_exact,
    compute_similarity,
    get_measure,
    list_measures,
)
from repro.vcl import VCLJoin
from repro.vsmart import VSmartJoin
from repro.engine import (
    CalibrationProfile,
    CorpusProfile,
    JoinPlan,
    JoinResult,
    JoinSpec,
    Planner,
    SimilarityEngine,
    available_algorithms,
    join,
)
from repro.storage import (
    ResultStore,
    StorageEngine,
    StoredPairSequence,
    ViewStore,
)
from repro.streaming import (
    Change,
    ChangeBatch,
    JoinView,
    PairDelta,
    apply_deltas,
    attach_serving,
)

__version__ = "3.3.0"

__all__ = [
    "Change",
    "ChangeBatch",
    "CalibrationProfile",
    "CircuitBreaker",
    "Cluster",
    "CorpusProfile",
    "ElementDictionary",
    "ExecutionBackend",
    "FaultPolicy",
    "InputTuple",
    "InternedMultiset",
    "JoinPlan",
    "JoinResult",
    "JoinSpec",
    "JoinView",
    "Multiset",
    "PairDelta",
    "PairCodec",
    "Planner",
    "ProcessBackend",
    "ReplicatedShard",
    "ReplicatedSimilarityService",
    "ResultStore",
    "RetryPolicy",
    "SerialBackend",
    "ServingNode",
    "SimilarPair",
    "SimilarityEngine",
    "SimilarityIndex",
    "SparseVector",
    "StorageEngine",
    "StoredPairSequence",
    "ViewStore",
    "VCLJoin",
    "VSmartJoin",
    "__version__",
    "all_pairs_exact",
    "apply_deltas",
    "attach_serving",
    "available_algorithms",
    "available_backends",
    "bootstrap_from_join",
    "compute_similarity",
    "get_backend",
    "get_measure",
    "intern_corpus",
    "join",
    "laptop_cluster",
    "list_measures",
    "paper_cluster",
]
