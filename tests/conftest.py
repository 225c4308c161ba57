"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import repro
from repro.core.multiset import Multiset
from repro.engine.spec import JoinSpec
from repro.mapreduce.backends import get_backend
from repro.mapreduce.cluster import GOOGLE_MAPREDUCE, HADOOP, Cluster, laptop_cluster
from repro.serving.service import ReplicatedSimilarityService
from repro.similarity.exact import all_pairs_exact, pair_dictionary
from repro.similarity.registry import list_measures
from repro.vsmart.driver import JOINING_ALGORITHMS

#: The directory holding the ``repro`` package under test: a fresh
#: interpreter started by a test puts it on ``sys.path`` first.
SOURCE_ROOT = os.path.dirname(os.path.dirname(repro.__file__))

# Hypothesis budgets.  The stateful suites (tests/test_streaming.py,
# tests/test_serving.py) take their example and step budgets from the
# loaded profile; property tests that name an explicit max_examples keep
# it.  "dev" is the fast local default; CI runs one matrix entry with
# HYPOTHESIS_PROFILE=ci for a deeper stateful search.
settings.register_profile(
    "dev", max_examples=20, stateful_step_count=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.register_profile(
    "ci", max_examples=75, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


#: A disk backend whose budget is small enough that the test corpora spill
#: and merge their runs in several passes.
SPILLING_DISK = get_backend("disk", memory_budget_bytes=2048, merge_fan_in=2)

#: Every execution path a parity test covers, as ``backend=`` accepts it:
#: the two registered names plus the spilling, multi-pass disk shuffle.
BACKENDS = ("serial", "disk", SPILLING_DISK)
#: Their pytest ids.
BACKEND_IDS = ("serial", "disk", "disk_spilling")


class JoinGridCell(NamedTuple):
    """One drawn cell of the parity grid; see :func:`join_grid`."""

    measure: str
    algorithm: str
    backend: object
    threshold: float
    seed: int

    def corpus(self, count: int = 10, alphabet_size: int = 14,
               max_elements: int = 8) -> list[Multiset]:
        """The cell's random corpus (small alphabet, so overlaps are common)."""
        return make_random_multisets(count, alphabet_size=alphabet_size,
                                     max_elements=max_elements, seed=self.seed)

    def spec(self) -> JoinSpec:
        """The cell as a :class:`JoinSpec` (``C = 4`` splits these corpora)."""
        return JoinSpec(measure=self.measure, threshold=self.threshold,
                        algorithm=self.algorithm, sharding_threshold=4)


@st.composite
def join_grid(draw, measures=None,
              algorithms=JOINING_ALGORITHMS + ("vcl", "exact"),
              backends=BACKENDS, thresholds=(0.2, 0.5, 0.8)) -> JoinGridCell:
    """Draw one cell of measures x algorithms x backends x thresholds x corpus.

    The one grid every parity suite (backends, engine, interning,
    streaming) draws from, each narrowing the axes it cannot cover;
    :func:`assert_matches_oracle` is the one oracle they hold a cell to.
    """
    return JoinGridCell(
        measure=draw(st.sampled_from(measures or list_measures(supported_only=True))),
        algorithm=draw(st.sampled_from(algorithms)),
        backend=draw(st.sampled_from(backends)),
        threshold=draw(st.sampled_from(thresholds)),
        seed=draw(st.integers(min_value=0, max_value=10_000)))


def assert_matches_oracle(pairs, multisets, measure, threshold) -> None:
    """``pairs`` is exactly what the dict-kernel brute force finds.

    ``pairs`` is a ``SimilarPair`` iterable or a ``{(first, second):
    similarity}`` map.  The pair *sets* must be equal; scores agree to
    float tolerance only, because the oracle folds each pair in element
    order while the pipelines fold in shuffle order.
    """
    produced = pairs if isinstance(pairs, dict) else pair_dictionary(pairs)
    expected = pair_dictionary(all_pairs_exact(multisets, measure, threshold))
    assert set(produced) == set(expected)
    for pair, similarity in expected.items():
        assert produced[pair] == pytest.approx(similarity)


def strip_telemetry(counters: dict[str, int]) -> dict[str, int]:
    """Drop the reserved physical-execution counter namespace.

    ``shuffle/`` counters describe *how* a backend executed (spilled
    runs, merge passes); the parity contract covers what was computed,
    which is everything else.
    """
    return {name: value for name, value in counters.items()
            if not name.startswith("shuffle/")}


def make_random_multisets(count: int, alphabet_size: int, max_elements: int,
                          max_multiplicity: int = 5, seed: int = 0) -> list[Multiset]:
    """Build a deterministic random collection of multisets for tests."""
    rng = random.Random(seed)
    multisets = []
    for index in range(count):
        num_elements = rng.randint(1, max_elements)
        counts: dict[str, int] = {}
        for _ in range(num_elements):
            element = f"e{rng.randint(0, alphabet_size - 1)}"
            counts[element] = rng.randint(1, max_multiplicity)
        multisets.append(Multiset(f"m{index}", counts))
    return multisets


def unreplicated_fleet(measure="ruzicka", num_shards: int = 4,
                       **options) -> ReplicatedSimilarityService:
    """The fleet at replication factor 1: one serving node per shard."""
    return ReplicatedSimilarityService(measure, num_shards,
                                       replication_factor=1, **options)


@pytest.fixture
def storage_path(tmp_path) -> str:
    """A per-test SQLite database path under pytest's managed tmp dir.

    Every storage test writes through this fixture, so databases (and
    their WAL side files) are cleaned up with the tmp dir and never leak
    into the working tree.
    """
    return str(tmp_path / "store.sqlite")


@pytest.fixture
def small_multisets() -> list[Multiset]:
    """Forty small random multisets over a 60-element alphabet."""
    return make_random_multisets(40, alphabet_size=60, max_elements=25, seed=7)


@pytest.fixture
def overlapping_multisets() -> list[Multiset]:
    """A handful of hand-built multisets with known overlaps."""
    return [
        Multiset("a", {"x": 3, "y": 2, "z": 1}),
        Multiset("b", {"x": 3, "y": 2, "z": 1}),
        Multiset("c", {"x": 1, "y": 1}),
        Multiset("d", {"q": 4, "r": 2}),
        Multiset("e", {"q": 4, "r": 2, "x": 1}),
    ]


@pytest.fixture
def test_cluster() -> Cluster:
    """A small Google-profile cluster with generous memory for unit tests."""
    return laptop_cluster(num_machines=6)


@pytest.fixture
def hadoop_cluster() -> Cluster:
    """A Hadoop-profile cluster (no secondary keys)."""
    return laptop_cluster(num_machines=6, profile=HADOOP)


@pytest.fixture
def tight_memory_cluster() -> Cluster:
    """A cluster whose per-machine memory budget is deliberately tiny."""
    return Cluster(num_machines=4, memory_per_machine=2_000,
                   disk_per_machine=10_000_000, profile=GOOGLE_MAPREDUCE)
