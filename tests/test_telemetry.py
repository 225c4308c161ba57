"""The statistics spine (:mod:`repro.telemetry`): each statistic's roll-up is
declared once and applied by one merge, at every layer.

* the module imports nothing from the package;
* :func:`merge` by kind — counters add, high-water marks keep the largest,
  replicated data is read from one copy, ratios are derived;
* every ratio at node, shard and fleet level is its declared quotient (a
  shard used to report the *sum* of its replicas' hit rates);
* the wire documents of a scripted session — ``/health``, ``/stats``,
  ``/stats/shards``, ``/admin/replicas``, plus the client's breakers and
  the injected fault policy — equal the ones recorded before the spine.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

from repro.core.exceptions import CircuitOpenError
from repro.core.multiset import Multiset
from repro.resilience import FaultPolicy, RetryPolicy
from repro.server import SimilarityClient, SimilarityServerApp
from repro.server.client import RemoteServerError
from repro.server.http import InProcessServer
from repro.serving import ReplicatedSimilarityService
from repro.serving.api import QueryRequest
from repro.telemetry import KINDS, Metrics, Ratio, is_counter, merge, read
from tests.conftest import SOURCE_ROOT, make_random_multisets

DATA = pathlib.Path(__file__).parent / "data"


def test_module_imports_nothing_above_core():
    """Every tier counts through it, so it may import none of them, and
    ``import repro`` imports no tier on its own."""
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import repro.telemetry\n"
        "print(sorted({name.split('.')[1] for name in sys.modules\n"
        "              if name.startswith('repro.')}))\n")
    loaded = subprocess.run([sys.executable, "-c", script, SOURCE_ROOT],
                            check=True, capture_output=True, text=True).stdout
    assert loaded.strip() == "['telemetry']"


class TestMerge:
    def test_each_kind_rolls_up_by_its_declaration(self):
        first = {"jobs/done": 2, "shuffle/peak_buffer_bytes": 40,
                 "indexed_multisets": 7, "cache/capacity": 8,
                 "cache/hits": 3, "cache/misses": 1, "cache/hit_rate": 0.75}
        second = {"jobs/done": 5, "shuffle/peak_buffer_bytes": 30,
                  "indexed_multisets": 9, "cache/capacity": 8,
                  "cache/hits": 0, "cache/misses": 4, "cache/hit_rate": 0.0}
        shares = merge([first, second])
        assert shares == {"jobs/done": 7, "shuffle/peak_buffer_bytes": 40,
                          "indexed_multisets": 16, "cache/capacity": 16,
                          "cache/hits": 3, "cache/misses": 5,
                          "cache/hit_rate": 3 / 8}
        # As copies of one data set, the data is the first part's alone.
        assert merge([first], [second])["indexed_multisets"] == 7
        assert merge([], [first, second]).get("indexed_multisets") is None

    def test_a_ratio_of_nothing_is_zero_and_a_map_reads_as_zero(self):
        metrics = Metrics()
        assert metrics["executed_items"] == 0 and not metrics
        metrics["executed_items"] += 0
        assert read(metrics)["mean_batch_size"] == 0.0
        assert is_counter("cache/hits") and not is_counter("cache/entries")


def probe_fleet():
    """40 members, 2 shards at replication factor 2, 30 queries."""
    members = make_random_multisets(40, alphabet_size=40, max_elements=12,
                                    seed=11)
    fleet = ReplicatedSimilarityService("ruzicka", 2, replication_factor=2)
    fleet.bulk_load(members)
    for index in range(30):
        fleet.query(QueryRequest.threshold(members[index % 8].with_id("q"),
                                           0.3))
    return fleet


def test_every_ratio_is_its_quotient_at_node_shard_and_fleet():
    # Regression: a shard summed its replicas' hit rates (1.47 here).
    fleet = probe_fleet()
    levels = [fleet.stats()]
    for shard in fleet.shards:
        levels.append(shard.serving_stats())
        levels.extend(replica.node.stats() for replica in shard.replicas)
    checked = 0
    for stats in levels:
        for name, kind in KINDS.items():
            if isinstance(kind, Ratio) and name in stats:
                numerator = stats[kind.numerator]
                other = sum(stats[term] for term in kind.denominator
                            if term != kind.numerator)
                assert 0.0 <= stats[name] <= 1.0, (name, stats[name])
                assert stats[name] == numerator / (numerator + other)
                checked += 1
    assert checked == len(levels) == 7
    assert 0.0 < fleet.stats()["cache/hit_rate"] < 1.0


def wire_session() -> dict:
    """A scripted session with no kill, and the documents it leaves.

    Bulk load, single and batched queries (repeats are cache hits answered
    on the event loop), writes, an injected read fault that ejects one
    replica and fails over, and a client breaker tripped by two failed
    ``/admin/recover`` calls.  Every request is sent after the previous
    answer, so each count is exact.
    """
    members = make_random_multisets(30, alphabet_size=30, max_elements=10,
                                    seed=26)
    policy = FaultPolicy(seed=3, error_probability=0.5,
                         operations=frozenset({"batch"}))
    fleet = ReplicatedSimilarityService(
        "ruzicka", 2, replication_factor=2,
        fault_policy_factory=lambda shard, replica:
            policy if (shard, replica) == (0, 1) else None)
    fleet.bulk_load(members)
    missing = os.path.join(tempfile.gettempdir(), "no-such-snapshot-26")
    with InProcessServer(SimilarityServerApp(fleet)) as server:
        client = SimilarityClient(server.host, server.port,
                                  retry_policy=RetryPolicy(max_attempts=1),
                                  breaker_failure_threshold=2,
                                  breaker_reset_timeout_seconds=600.0)
        for position in (0, 1, 2, 0, 1, 0, 3, 2):
            client.query(QueryRequest.threshold(
                members[position].with_id("q"), 0.3))
        client.query_batch([QueryRequest.topk(members[position], 3)
                            for position in (4, 5, 4)])
        client.upsert(Multiset("fresh", {"e1": 2, "e2": 1}))
        client.upsert(Multiset(members[6].id, {"e1": 1}))
        client.delete(members[7].id)
        client.query(QueryRequest.threshold(Multiset("q", {"e1": 2}), 0.2))
        for _ in range(2):
            with pytest.raises(RemoteServerError):
                client.recover(missing)
        with pytest.raises(CircuitOpenError):
            client.recover(missing)
        documents = {"health": client.health(), "stats": client.stats(),
                     "shards": client.shard_stats(),
                     "replicas": client.replicas()}
        documents["breakers"] = client.breaker_stats()
        client.close()
    documents["fault_policy"] = policy.stats()
    return json.loads(json.dumps(documents))


def test_wire_documents_keep_their_keys_and_values():
    golden = json.loads((DATA / "wire-3.4.json").read_text())
    documents = wire_session()
    assert documents["stats"]["totals"]["resilience/failovers"] >= 1
    assert documents == golden
