"""Keep a similarity join correct while the corpus churns — no re-joins.

Run with::

    python examples/streaming_updates.py

The example materializes the similar-pair set of a join as an incremental
:class:`~repro.streaming.view.JoinView`, attaches a sharded serving fleet
so deltas stream straight into its warmed caches, and then applies a
Zipf-skewed mutation stream (updates, inserts, deletes).  Each batch emits
exact ``pair_added`` / ``pair_removed`` / ``score_changed`` deltas; at the
end the view is checked pair-for-pair against a from-scratch re-join of
the mutated corpus.
"""

from __future__ import annotations

from repro import (
    JoinSpec,
    ReplicatedSimilarityService,
    SimilarityEngine,
    attach_serving,
)
from repro.datasets.ip_cookie import generate_ip_cookie_dataset, small_dataset_config
from repro.datasets.workload import MutationStreamConfig, generate_mutation_stream
from repro.mapreduce.cluster import laptop_cluster
from repro.serving.api import QueryRequest

THRESHOLD = 0.5
SPEC = JoinSpec(measure="ruzicka", threshold=THRESHOLD, algorithm="exact")


def main() -> None:
    dataset = generate_ip_cookie_dataset(small_dataset_config())
    multisets = dataset.multisets
    print(f"Generated {len(multisets)} IPs.")

    with SimilarityEngine(cluster=laptop_cluster()) as engine:
        # One batch join, materialized as a maintained view.
        view = engine.materialize(SPEC, multisets)
        print(f"Materialized view: {view.num_pairs} similar pairs at "
              f"threshold {THRESHOLD}.")

        # The serving fleet follows the view: every batch updates the
        # shards and re-warms member caches from the view's pair map —
        # bootstrap_from_join never runs again.  Two replicas per shard:
        # the view's writes fan in to both.
        service = ReplicatedSimilarityService(
            "ruzicka", num_shards=4, replication_factor=2,
            cache_capacity=2 * len(multisets))
        attach_serving(view, service)
        print(f"Serving fleet attached: {service!r}")

        # Live churn: hot IPs accumulate new cookies, fresh IPs appear,
        # dead ones retire.
        stream = generate_mutation_stream(
            multisets, MutationStreamConfig(num_batches=5, batch_size=12,
                                            seed=2012))
        print("\nApplying the mutation stream:")
        for number, batch in enumerate(stream, start=1):
            plan = view.decide(batch)
            deltas = view.apply(batch)
            kinds = {}
            for delta in deltas:
                kinds[delta.kind] = kinds.get(delta.kind, 0) + 1
            summary = ", ".join(f"{count} {kind}"
                                for kind, count in sorted(kinds.items())) \
                or "no pair movement"
            print(f"  batch {number}: {len(batch)} changes via "
                  f"{plan.strategy} -> {summary}")

        counters = view.counters()
        print(f"\nView after churn: {view.num_members} members, "
              f"{view.num_pairs} pairs, version {view.version} "
              f"({counters.get('streaming/batches_incremental', 0)} "
              f"incremental batches, "
              f"{counters.get('streaming/batches_rejoin', 0)} re-joins).")

        # The fleet's caches answer member queries without a posting scan.
        member = view.members()[0]
        matches = service.query(QueryRequest.threshold(member, THRESHOLD))
        print(f"Fleet serves {member.id}: {len(matches)} matches, "
              f"{service.stats()['cache/hits']:.0f} cache hits so far.")

        # The acceptance check: the maintained view equals a from-scratch
        # re-join of the mutated corpus.
        rejoin = engine.run(SPEC, view.members())
        assert {pair.pair: pair.similarity for pair in rejoin} == view.pairs()
        print(f"\nParity check passed: view == re-join "
              f"({len(rejoin.pairs)} pairs), with zero batch joins during "
              "the stream.")


if __name__ == "__main__":
    main()
