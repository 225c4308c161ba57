"""Serve online similarity queries over the synthetic IP/cookie workload.

Run with::

    python examples/similarity_serving.py

The example runs the batch join once through the unified engine (letting
the planner pick the algorithm), hands the result off to a sharded serving
fleet with ``result.to_service()``, and then answers live threshold / top-k
queries — including for an IP that only appears after the batch ran, the
situation the batch pipeline alone cannot handle.
"""

from __future__ import annotations

from repro import JoinSpec, SimilarityEngine
from repro.core.multiset import Multiset
from repro.serving.api import QueryRequest
from repro.datasets.ip_cookie import small_dataset_config, generate_ip_cookie_dataset
from repro.mapreduce.cluster import laptop_cluster

THRESHOLD = 0.5


def main() -> None:
    dataset = generate_ip_cookie_dataset(small_dataset_config())
    multisets = dataset.multisets
    print(f"Generated {len(multisets)} IPs "
          f"({len(dataset.proxy_groups)} planted proxy groups).")

    # Nightly batch: the full all-pair join, algorithm chosen by the planner.
    with SimilarityEngine(cluster=laptop_cluster()) as engine:
        join = engine.run(JoinSpec(threshold=THRESHOLD), multisets)
    print(f"Batch join ran {join.algorithm!r} and found {len(join.pairs)} "
          f"similar pairs ({join.simulated_seconds:,.0f} simulated seconds).")

    # Online serving: warm-started from the batch result, sharded 4 ways.
    service = join.to_service(num_shards=4)
    print(f"Serving fleet ready: {service!r}")

    # Member queries hit the warmed caches.
    proxy_ip = join.pairs[0].first
    matches = service.neighbours(proxy_ip, THRESHOLD)
    print(f"\nIPs similar to {proxy_ip} (threshold {THRESHOLD}):")
    for match in matches[:5]:
        print(f"  {match.multiset_id:>14}  similarity={match.similarity:.3f}")

    # A brand-new IP (never seen by the batch join) is queried and indexed
    # immediately — no re-join required.
    template = service.get(proxy_ip)
    newcomer = Multiset("10.99.99.99", dict(list(template.items())[:40]))
    top = service.query(QueryRequest.topk(newcomer, 3)).matches
    print(f"\nTop-3 matches for the newly observed {newcomer.id}:")
    for match in top:
        print(f"  {match.multiset_id:>14}  similarity={match.similarity:.3f}")
    service.add(newcomer)
    print(f"{newcomer.id} is now indexed and serveable "
          f"({len(service)} multisets).")

    stats = service.stats()
    print(f"\nFleet stats: {stats.get('cache/hits', 0):.0f} cache hits, "
          f"{stats.get('serving/postings_scanned', 0):.0f} postings scanned, "
          f"{stats.get('serving/candidates_pruned', 0):.0f} candidates "
          f"pruned by upper bounds.")


if __name__ == "__main__":
    main()
