"""The package surface: what each ``__all__`` exports, what 3.12 took out.

* every name a package lists in ``__all__`` resolves, once;
* the pipeline internals 3.12 un-exported stay importable from the module
  that defines them, and no longer from their package;
* the names 3.12 deleted are gone, modules included;
* ``docs/MIGRATION.md``'s 3.12 section lists every one of them.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import repro

MIGRATION = Path(__file__).resolve().parent.parent / "docs" / "MIGRATION.md"

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)

#: ``(package, defining module, name)`` of every name 3.12 un-exported.
UNEXPORTED = [
    ("repro.vsmart", "repro.vsmart.lookup", "Lookup1Mapper"),
    ("repro.vsmart", "repro.vsmart.lookup", "Lookup1Reducer"),
    ("repro.vsmart", "repro.vsmart.lookup", "LookupJoinMapper"),
    ("repro.vsmart", "repro.vsmart.online_aggregation", "OnlineAggregationMapper"),
    ("repro.vsmart", "repro.vsmart.online_aggregation", "OnlineAggregationCombiner"),
    ("repro.vsmart", "repro.vsmart.online_aggregation", "OnlineAggregationReducer"),
    ("repro.vsmart", "repro.vsmart.preprocessing", "StopWordMapper"),
    ("repro.vsmart", "repro.vsmart.preprocessing", "StopWordReducer"),
    ("repro.vsmart", "repro.vsmart.sharding", "Sharding1Mapper"),
    ("repro.vsmart", "repro.vsmart.sharding", "Sharding1Reducer"),
    ("repro.vsmart", "repro.vsmart.sharding", "Sharding2Mapper"),
    ("repro.vsmart", "repro.vsmart.sharding", "Sharding2Reducer"),
    ("repro.vsmart", "repro.vsmart.similarity_phase", "ConjunctiveCombiner"),
    ("repro.vsmart", "repro.vsmart.similarity_phase", "Similarity1Mapper"),
    ("repro.vsmart", "repro.vsmart.similarity_phase", "Similarity1Reducer"),
    ("repro.vsmart", "repro.vsmart.similarity_phase", "Similarity2Mapper"),
    ("repro.vsmart", "repro.vsmart.similarity_phase", "Similarity2Reducer"),
    ("repro.vcl", "repro.vcl.kernel", "ElementFrequencyMapper"),
    ("repro.vcl", "repro.vcl.kernel", "ElementFrequencyReducer"),
    ("repro.vcl", "repro.vcl.kernel", "VCLKernelMapper"),
    ("repro.vcl", "repro.vcl.kernel", "VCLKernelReducer"),
    ("repro.vcl", "repro.vcl.kernel", "DeduplicationMapper"),
    ("repro.vcl", "repro.vcl.kernel", "DeduplicationReducer"),
    ("repro.engine", "repro.engine.planner", "PlannedJob"),
    ("repro.streaming", "repro.streaming.subscribers", "ServingSubscription"),
    ("repro.datasets", "repro.datasets.ip_cookie", "GeneratedDataset"),
    ("repro.datasets", "repro.datasets.documents", "DocumentCorpus"),
    ("repro.communities", "repro.communities.proxies", "ProxyEvaluation"),
    ("repro.similarity", "repro.similarity.partials", "uni_contribution"),
]

#: Dotted paths of the attributes 3.12 deleted.
REMOVED_NAMES = [
    "repro.SparseVector",
    "repro.core.SparseVector",
    "repro.core.InvalidVectorError",
    "repro.core.exceptions.InvalidVectorError",
    "repro.baselines.MinHashLSHJoin",
    "repro.baselines.LSHParameters",
    "repro.baselines.derive_banding",
    "repro.baselines.estimate_similarity",
    "repro.baselines.minhash_signature",
    "repro.baselines.SampledJoin",
    "repro.baselines.sample_rate_for_recall",
    "repro.engine.APPROXIMATE_ALGORITHMS",
    "repro.engine.spec.APPROXIMATE_ALGORITHMS",
    "repro.engine.spec.JoinSpec.recall",
    "repro.engine.spec.JoinSpec.minhash_parameters",
    "repro.engine.spec.JoinSpec.allows_inexact",
    "repro.engine.spec.JoinSpec.resolved_minhash_parameters",
    "repro.engine.result.JoinResult.exact",
    "repro.engine.planner.CorpusProfile.avg_id_bytes",
    "repro.core.multiset.Multiset.set_expansion",
]

#: Modules 3.12 deleted.
REMOVED_MODULES = ["repro.core.vector", "repro.baselines.minhash",
                   "repro.baselines.sampled"]


def migration_section(version: str) -> str:
    """The text of ``docs/MIGRATION.md``'s "Migrating to <version>" section."""
    text = MIGRATION.read_text(encoding="utf-8")
    start = text.index(f"## Migrating to {version}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end != -1 else len(text)]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_exported_name_resolves_once(package_name):
    package = importlib.import_module(package_name)
    exported = package.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(package, name)] == []


@pytest.mark.parametrize("package_name, module_name, name", UNEXPORTED,
                         ids=[f"{package}.{name}" for package, _, name in UNEXPORTED])
def test_unexported_name_lives_in_its_module(package_name, module_name, name):
    package = importlib.import_module(package_name)
    assert name not in package.__all__
    assert not hasattr(package, name)
    assert getattr(importlib.import_module(module_name), name).__module__ == module_name
    assert f"`{module_name}." in migration_section("3.12")
    assert name in migration_section("3.12")


@pytest.mark.parametrize("path", REMOVED_NAMES)
def test_removed_name_is_gone(path):
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
            break
        except ModuleNotFoundError:
            continue
    for attribute in parts[split:-1]:
        owner = getattr(owner, attribute)
    name = parts[-1]
    assert not hasattr(owner, name)
    assert name not in getattr(owner, "__dataclass_fields__", {})
    assert name not in getattr(owner, "__all__", ())
    assert name in migration_section("3.12")


@pytest.mark.parametrize("module_name", REMOVED_MODULES)
def test_removed_module_is_gone(module_name):
    assert importlib.util.find_spec(module_name) is None
    assert f"`{module_name}`" in migration_section("3.12")
