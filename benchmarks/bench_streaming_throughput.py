"""Streaming maintenance: incremental apply equals the full re-join.

Materializes the small synthetic preset as a :class:`JoinView` and applies
one mutation batch per churn level (0.1% / 1% / 10% of the corpus) through
the incremental delta path.  After every batch the view is checked
pair-for-pair against a from-scratch re-join of the mutated corpus (the
*in-memory exact* algorithm), and the batch size, the number of deltas and
the pair count after the batch are recorded — exact counts, gated by the
committed baseline.  What an apply costs against a re-join in time is the
harness's business (``benchmarks/e2e``; its ``view_churn`` rung is ROADMAP
item 4's).
"""

from __future__ import annotations

from benchmarks.conftest import SMOKE
from repro.analysis.reporting import format_table
from repro.datasets.workload import MutationStreamConfig, generate_mutation_stream
from repro.engine.engine import SimilarityEngine
from repro.engine.spec import JoinSpec

THRESHOLD = 0.5
CHURN_LEVELS = (0.001, 0.01, 0.10)
SPEC = JoinSpec(measure="ruzicka", threshold=THRESHOLD, algorithm="exact")

#: Smoke mode shrinks the corpus so CI's bench job stays quick.
CORPUS_SIZE = 150 if SMOKE else None


def _apply_churn_levels(engine, multisets):
    view = engine.materialize(SPEC, multisets)
    rows = []
    for level_index, churn in enumerate(CHURN_LEVELS):
        members = view.members()
        batch_size = max(1, round(churn * len(members)))
        [batch] = generate_mutation_stream(
            members, MutationStreamConfig(num_batches=1,
                                          batch_size=batch_size,
                                          seed=2012 + level_index))
        deltas = view.apply(batch)
        rejoin = engine.run(SPEC, view.members())
        assert {pair.pair: pair.similarity for pair in rejoin} == view.pairs()

        rows.append({
            "churn": churn,
            "batch_size": batch_size,
            "num_deltas": len(deltas),
            "num_pairs_after": view.num_pairs,
        })
    return rows


def test_streaming_throughput(small_dataset, bench_record):
    multisets = small_dataset.multisets
    if CORPUS_SIZE is not None:
        multisets = multisets[:CORPUS_SIZE]

    with SimilarityEngine() as engine:
        rows = _apply_churn_levels(engine, multisets)

    bench_record["corpus_size"] = len(multisets)
    bench_record["threshold"] = THRESHOLD
    bench_record["levels"] = rows

    print()
    print(format_table(
        ["churn", "batch", "deltas", "pairs after"],
        [[f"{row['churn']:.1%}", row["batch_size"], row["num_deltas"],
          row["num_pairs_after"]] for row in rows],
        title=f"Incremental apply == full re-join over {len(multisets)} "
              f"multisets (t = {THRESHOLD})"))
