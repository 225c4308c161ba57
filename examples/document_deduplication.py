"""Near-duplicate document detection with shingles (Broder-style workload).

The related work the paper builds on (Broder et al.; Xiao et al.) motivates
all-pair similarity joins with near-duplicate detection: documents are
represented as multisets of word shingles and similar documents are
near-duplicates.  The example solves the same task two ways *through the
same front door* — one :class:`~repro.engine.spec.JoinSpec` per algorithm
name, one :class:`~repro.engine.result.JoinResult` shape back:

* the exact V-SMART-Join MapReduce pipeline (Jaccard on shingle sets),
* the sequential inverted-index join, which verifies only the documents
  that share a shingle.

Run with::

    python examples/document_deduplication.py
"""

from __future__ import annotations

from repro import JoinSpec, SimilarityEngine
from repro.analysis.reporting import format_table
from repro.communities.clustering import clusters_from_pairs
from repro.datasets.documents import DocumentCorpusConfig, generate_document_corpus
from repro.mapreduce.cluster import laptop_cluster

THRESHOLD = 0.5

CONTENDERS = (
    ("V-SMART-Join (exact, MapReduce)", "online_aggregation"),
    ("Inverted index (exact, sequential)", "inverted_index"),
)


def main() -> None:
    corpus = generate_document_corpus(DocumentCorpusConfig(
        num_base_documents=25, words_per_document=150, duplicates_per_document=2,
        mutation_rate=0.07, shingle_length=3, seed=13))
    multisets = corpus.multisets
    truth = set()
    for cluster in corpus.duplicate_clusters:
        members = sorted(cluster)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                truth.add((members[i], members[j]))
    print(f"Corpus: {len(multisets)} documents, "
          f"{len(corpus.duplicate_clusters)} planted duplicate clusters, "
          f"{len(truth)} duplicate pairs.")

    rows = []
    results = {}
    with SimilarityEngine(cluster=laptop_cluster(num_machines=8)) as engine:
        for label, algorithm in CONTENDERS:
            spec = JoinSpec(measure="jaccard", threshold=THRESHOLD,
                            algorithm=algorithm)
            result = engine.run(spec, multisets)
            results[algorithm] = result
            pairs = {pair.pair for pair in result}
            recovered = len(pairs & truth)
            extra = len(pairs - truth)
            recall = recovered / len(truth) if truth else 1.0
            rows.append([label, len(pairs), recovered, extra, f"{recall:.2f}"])
    print()
    print(format_table(
        ["algorithm", "pairs", "true duplicates", "other pairs", "recall"],
        rows, title=f"Near-duplicate detection at Jaccard >= {THRESHOLD}"))

    clusters = clusters_from_pairs(results["online_aggregation"].pairs)
    print()
    print(f"V-SMART-Join groups the corpus into {len(clusters)} duplicate clusters; "
          f"the largest has {max((len(c) for c in clusters), default=0)} documents.")


if __name__ == "__main__":
    main()
