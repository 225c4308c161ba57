"""Tests for the unified query/response API (repro.serving.api).

Covers the dataclass family's validation and JSON codec, the fleet
snapshot document, and the fleet's persist/recover round trip (including a
directory written by release 1.9 and the directories recovery must refuse).
"""

from __future__ import annotations

import os
import tarfile

import pytest

from repro.core.exceptions import ServingError, StorageError
from repro.core.multiset import Multiset
from repro.serving.api import (
    QueryMatch,
    QueryOptions,
    QueryRequest,
    QueryResponse,
    finalize_matches,
    multiset_from_wire,
    multiset_to_wire,
    requests_from_batch_payload,
)
from repro.serving.index import SimilarityIndex
from repro.serving.service import ReplicatedSimilarityService
from tests.conftest import make_random_multisets, unreplicated_fleet

#: ``persist()`` output of release 1.9 over ``corpus()``, 2 shards (both
#: 1.9 fleet classes wrote byte-identical files).
FLEET_1_9 = os.path.join(os.path.dirname(__file__), "data",
                         "fleet-1.9.tar.gz")


def corpus(count=12, seed=3):
    return make_random_multisets(count=count, alphabet_size=14,
                                 max_elements=8, seed=seed)


@pytest.fixture()
def service(request):
    fleet = unreplicated_fleet("ruzicka", num_shards=3)
    fleet.bulk_load(corpus())
    return fleet


# ---------------------------------------------------------------------------
# QueryOptions / QueryRequest / QueryResponse validation
# ---------------------------------------------------------------------------

class TestQueryOptions:
    def test_threshold_options(self):
        options = QueryOptions.for_threshold(0.4)
        assert options.kind == "threshold"
        assert options.threshold == pytest.approx(0.4)
        assert options.k is None

    def test_topk_options(self):
        options = QueryOptions.for_topk(5)
        assert options.kind == "topk"
        assert options.k == 5
        assert options.threshold is None

    def test_threshold_is_coerced_to_float(self):
        assert isinstance(QueryOptions.for_threshold(1).threshold, float)

    def test_options_are_hashable_cache_keys(self):
        assert hash(QueryOptions.for_topk(3)) == hash(QueryOptions.for_topk(3))
        assert QueryOptions.for_threshold(0.5) != QueryOptions.for_topk(5)

    @pytest.mark.parametrize("bad", [
        dict(kind="threshold"),                      # missing threshold
        dict(kind="threshold", threshold=0.5, k=3),  # both fields
        dict(kind="threshold", threshold=0.0),       # out of (0, 1]
        dict(kind="threshold", threshold=1.5),
        dict(kind="topk"),                           # missing k
        dict(kind="topk", k=3, threshold=0.5),       # both fields
        dict(kind="topk", k=0),
        dict(kind="topk", k=True),                   # bools are not counts
        dict(kind="topk", k=2.0),
        dict(kind="nearest", k=3),                   # unknown kind
    ])
    def test_invalid_options_rejected(self, bad):
        with pytest.raises(ServingError):
            QueryOptions(**bad)

    def test_json_round_trip(self):
        for options in (QueryOptions.for_threshold(0.37),
                        QueryOptions.for_topk(9)):
            assert QueryOptions.from_json_dict(options.to_json_dict()) \
                == options

    def test_unknown_wire_fields_rejected(self):
        with pytest.raises(ServingError, match="unknown query-option"):
            QueryOptions.from_json_dict({"kind": "topk", "k": 3, "mode": "x"})


class TestQueryRequest:
    def test_constructors(self):
        query = Multiset("q", {"x": 2})
        assert QueryRequest.threshold(query, 0.5).options \
            == QueryOptions.for_threshold(0.5)
        assert QueryRequest.topk(query, 4).options == QueryOptions.for_topk(4)

    def test_type_validation(self):
        with pytest.raises(ServingError, match="must be a Multiset"):
            QueryRequest({"x": 1}, QueryOptions.for_topk(1))
        with pytest.raises(ServingError, match="must be QueryOptions"):
            QueryRequest(Multiset("q", {"x": 1}), "topk")

    def test_json_round_trip(self):
        request = QueryRequest.threshold(Multiset("q", {"x": 2, "y": 1}), 0.6)
        parsed = QueryRequest.from_json_dict(request.to_json_dict())
        assert parsed == request

    def test_missing_wire_fields_rejected(self):
        with pytest.raises(ServingError, match="missing the 'options'"):
            QueryRequest.from_json_dict(
                {"query": multiset_to_wire(Multiset("q", {"x": 1}))})
        with pytest.raises(ServingError, match="missing the 'query'"):
            QueryRequest.from_json_dict({"options": {"kind": "topk", "k": 1}})


class TestQueryResponse:
    def test_sequence_protocol(self):
        matches = (QueryMatch("a", 0.9), QueryMatch("b", 0.5))
        response = QueryResponse(matches, QueryOptions.for_threshold(0.4))
        assert len(response) == 2
        assert list(response) == list(matches)
        assert response[0] == matches[0]
        assert response.ids() == ["a", "b"]

    def test_matches_normalised_to_tuple(self):
        response = QueryResponse([QueryMatch("a", 1.0)],
                                 QueryOptions.for_topk(1))
        assert isinstance(response.matches, tuple)

    def test_json_round_trip(self):
        response = QueryResponse((QueryMatch("a", 0.75), QueryMatch(3, 0.5)),
                                 QueryOptions.for_topk(2))
        assert QueryResponse.from_json_dict(response.to_json_dict()) \
            == response

    def test_malformed_wire_matches_rejected(self):
        with pytest.raises(ServingError, match="malformed match"):
            QueryResponse.from_json_dict(
                {"matches": [{"id": "a"}],
                 "options": {"kind": "topk", "k": 1}})


class TestWireCodec:
    def test_multiset_round_trip_preserves_order(self):
        multiset = Multiset("m", [("b", 2), ("a", 1), ("c", 7)])
        again = multiset_from_wire(multiset_to_wire(multiset))
        assert again == multiset
        assert list(again.items()) == list(multiset.items())

    def test_non_scalar_identifiers_cannot_travel(self):
        with pytest.raises(ServingError, match="not JSON-representable"):
            multiset_to_wire(Multiset(("tuple", "id"), {"x": 1}))
        with pytest.raises(ServingError, match="not JSON-representable"):
            multiset_to_wire(Multiset("m", {("e", 1): 2}))

    def test_malformed_wire_multisets_rejected(self):
        with pytest.raises(ServingError):
            multiset_from_wire({"id": "m"})
        with pytest.raises(ServingError):
            multiset_from_wire({"id": "m", "elements": [["x", 1, 9]]})

    def test_batch_payload_parses_each_request(self):
        requests = [QueryRequest.topk(Multiset("q1", {"x": 1}), 2),
                    QueryRequest.threshold(Multiset("q2", {"y": 3}), 0.3)]
        payload = {"requests": [request.to_json_dict()
                                for request in requests]}
        assert requests_from_batch_payload(payload) == requests

    def test_batch_payload_needs_requests_array(self):
        with pytest.raises(ServingError, match="'requests'"):
            requests_from_batch_payload({"queries": []})


class TestFinalizeMatches:
    def test_threshold_sorts_everything(self):
        merged = [QueryMatch("b", 0.5), QueryMatch("a", 0.9),
                  QueryMatch("c", 0.5)]
        ordered = finalize_matches(merged, QueryOptions.for_threshold(0.4))
        assert [match.multiset_id for match in ordered] == ["a", "b", "c"]

    def test_topk_truncates_after_sorting(self):
        merged = [QueryMatch(f"m{i}", i / 10) for i in range(8)]
        ordered = finalize_matches(merged, QueryOptions.for_topk(3))
        assert [match.multiset_id for match in ordered] == ["m7", "m6", "m5"]


# ---------------------------------------------------------------------------
# Snapshot + persist/recover of the fleet
# ---------------------------------------------------------------------------

class TestServiceSnapshot:
    def test_snapshot_aggregates_the_fleet(self, service):
        member = corpus()[0]
        service.query(QueryRequest.threshold(member.with_id("q"), 0.4))
        snapshot = service.snapshot()
        assert snapshot["measure"] == "ruzicka"
        assert snapshot["num_shards"] == 3
        assert snapshot["indexed_multisets"] == len(service)
        assert snapshot["totals"] == service.stats()
        assert set(snapshot["per_node"]) == {
            "shard0/replica0", "shard1/replica0", "shard2/replica0"}
        # Cache counters surface through the totals.
        assert "cache/hits" in snapshot["totals"]
        assert "cache/hit_rate" in snapshot["totals"]


class TestServicePersistRecover:
    def test_round_trip_is_bit_identical(self, service, tmp_path):
        paths = service.persist(tmp_path)
        assert [os.path.basename(path) for path in paths] \
            == ["shard0000.sqlite", "shard0001.sqlite", "shard0002.sqlite"]
        recovered = ReplicatedSimilarityService.recover(tmp_path)
        assert recovered.num_shards == service.num_shards
        assert len(recovered) == len(service)
        for member in corpus():
            request = QueryRequest.threshold(member.with_id("q"), 0.3)
            assert recovered.query(request) == service.query(request)
            ranking = QueryRequest.topk(member.with_id("q"), 5)
            assert recovered.query(ranking) == service.query(ranking)

    def test_recover_rejects_an_empty_directory(self, tmp_path):
        with pytest.raises(ServingError, match="no shard"):
            ReplicatedSimilarityService.recover(tmp_path)

    def test_unusable_paths_are_typed_storage_errors(self, service, tmp_path):
        # Regression: these escaped as bare FileNotFoundError /
        # NotADirectoryError, which the wire answers as 500 internal_error.
        a_file = tmp_path / "a-file"
        a_file.write_text("not a directory")
        for path in (tmp_path / "missing", a_file):
            with pytest.raises(StorageError, match=path.name):
                ReplicatedSimilarityService.recover(path)
        with pytest.raises(StorageError, match="a-file"):
            service.persist(a_file / "below")

    def test_recover_refuses_a_directory_persist_did_not_write(self, tmp_path):
        # Regression: recovery took "however many shard files are present"
        # as the shard count, so a lost file silently loaded a wrong fleet.
        members = corpus(100)
        fleet = unreplicated_fleet("ruzicka", num_shards=4)
        fleet.bulk_load(members)
        paths = fleet.persist(tmp_path / "lost")
        os.remove(paths[1])
        with pytest.raises(ServingError, match="partial fleet"):
            ReplicatedSimilarityService.recover(tmp_path / "lost")
        # Losing the *last* file leaves a well-named, misrouted directory.
        paths = fleet.persist(tmp_path / "short")
        os.remove(paths[3])
        with pytest.raises(ServingError, match="routes to shard"):
            ReplicatedSimilarityService.recover(tmp_path / "short")
        paths = fleet.persist(tmp_path / "mixed")
        SimilarityIndex("jaccard").save(paths[2])
        with pytest.raises(ServingError, match="disagree on the measure"):
            ReplicatedSimilarityService.recover(tmp_path / "mixed")

    @pytest.mark.parametrize("replication_factor", [1, 2])
    def test_recovers_a_directory_written_by_1_9(self, tmp_path,
                                                 replication_factor):
        with tarfile.open(FLEET_1_9) as archive:
            archive.extractall(tmp_path, filter="data")
        recovered = ReplicatedSimilarityService.recover(
            tmp_path, replication_factor=replication_factor)
        oracle = SimilarityIndex("ruzicka")
        oracle.bulk_load(corpus())
        assert (recovered.num_shards, len(recovered)) == (2, len(oracle))
        for member in corpus():
            for request in (QueryRequest.threshold(member.with_id("q"), 0.3),
                            QueryRequest.topk(member.with_id("q"), 5)):
                assert recovered.query(request) == oracle.query(request)

    def test_recovered_fleet_keeps_accepting_writes(self, service, tmp_path):
        service.persist(tmp_path)
        recovered = ReplicatedSimilarityService.recover(
            tmp_path, replication_factor=1)
        newcomer = Multiset("fresh", {"e0": 2, "e1": 1})
        recovered.add(newcomer)
        service.add(newcomer)
        request = QueryRequest.topk(newcomer.with_id("q"), 3)
        assert recovered.query(request) == service.query(request)
