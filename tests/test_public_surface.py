"""The package surface: what each ``__all__`` exports, what 3.12 to 3.20 took out.

* every name a package lists in ``__all__`` resolves, once;
* every exported name has a caller in the program (``src/`` outside its
  own module, ``benchmarks/`` or ``examples/``), or a reason in
  :data:`DELIBERATE` — a name only tests call is not surface;
* the names 3.12 and 3.13 un-exported stay importable from the module that
  defines them, and no longer from their package;
* the names they deleted are gone, modules included, and the keywords 3.14
  deleted are a ``TypeError``;
* ``docs/MIGRATION.md``'s section for each version lists every one of them.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
import re
import types
from pathlib import Path

import pytest

import repro
from repro import (
    JoinSpec,
    JoinView,
    Multiset,
    ReplicatedShard,
    ReplicatedSimilarityService,
    ViewStore,
    join,
)

ROOT = Path(__file__).resolve().parent.parent
MIGRATION = ROOT / "docs" / "MIGRATION.md"

MODULES = {info.name: info.ispkg
           for info in pkgutil.walk_packages(repro.__path__, "repro.")}
PACKAGES = ["repro"] + sorted(name for name, ispkg in MODULES.items() if ispkg)

#: Exported names nothing in the program calls, each kept for a reason.
DELIBERATE = {
    "HADOOP": "the paper's profile without secondary keys; the only way to "
              "exercise the planner's exclusion of Online-Aggregation",
    "register_measure": "the documented extension point for user measures",
    "InProcessServer": "the in-process server harness the README documents",
    "ClientTransportError": "raised to callers of SimilarityClient",
    "apply_deltas": "the consumer half of the JoinView delta stream",
    "pair_dictionary": "the helper that compares a join's pairs with the oracle",
    "__version__": "the package version",
}

#: Every ``.py`` file a caller may live in (the program, not its tests),
#: with the words it holds.
PROGRAM_FILES = {
    path: path.read_text(encoding="utf-8")
    for directory in ("src", "benchmarks", "examples")
    for path in sorted((ROOT / directory).rglob("*.py"))
}
PROGRAM_WORDS = {path: set(re.findall(r"\w+", text))
                 for path, text in PROGRAM_FILES.items()}

#: ``(version, package, defining module, name)`` of every un-exported name.
UNEXPORTED = [
    ("3.12", "repro.vsmart", "repro.vsmart.lookup", "Lookup1Mapper"),
    ("3.12", "repro.vsmart", "repro.vsmart.lookup", "Lookup1Reducer"),
    ("3.12", "repro.vsmart", "repro.vsmart.lookup", "LookupJoinMapper"),
    ("3.12", "repro.vsmart", "repro.vsmart.online_aggregation", "OnlineAggregationMapper"),
    ("3.12", "repro.vsmart", "repro.vsmart.online_aggregation", "OnlineAggregationCombiner"),
    ("3.12", "repro.vsmart", "repro.vsmart.online_aggregation", "OnlineAggregationReducer"),
    ("3.12", "repro.vsmart", "repro.vsmart.preprocessing", "StopWordMapper"),
    ("3.12", "repro.vsmart", "repro.vsmart.preprocessing", "StopWordReducer"),
    ("3.12", "repro.vsmart", "repro.vsmart.sharding", "Sharding1Mapper"),
    ("3.12", "repro.vsmart", "repro.vsmart.sharding", "Sharding1Reducer"),
    ("3.12", "repro.vsmart", "repro.vsmart.sharding", "Sharding2Mapper"),
    ("3.12", "repro.vsmart", "repro.vsmart.sharding", "Sharding2Reducer"),
    ("3.12", "repro.vsmart", "repro.vsmart.similarity_phase", "ConjunctiveCombiner"),
    ("3.12", "repro.vsmart", "repro.vsmart.similarity_phase", "Similarity1Mapper"),
    ("3.12", "repro.vsmart", "repro.vsmart.similarity_phase", "Similarity1Reducer"),
    ("3.12", "repro.vsmart", "repro.vsmart.similarity_phase", "Similarity2Mapper"),
    ("3.12", "repro.vsmart", "repro.vsmart.similarity_phase", "Similarity2Reducer"),
    ("3.12", "repro.vcl", "repro.vcl.kernel", "ElementFrequencyMapper"),
    ("3.12", "repro.vcl", "repro.vcl.kernel", "ElementFrequencyReducer"),
    ("3.12", "repro.vcl", "repro.vcl.kernel", "VCLKernelMapper"),
    ("3.12", "repro.vcl", "repro.vcl.kernel", "VCLKernelReducer"),
    ("3.12", "repro.vcl", "repro.vcl.kernel", "DeduplicationMapper"),
    ("3.12", "repro.vcl", "repro.vcl.kernel", "DeduplicationReducer"),
    ("3.12", "repro.engine", "repro.engine.planner", "PlannedJob"),
    ("3.12", "repro.streaming", "repro.streaming.subscribers", "ServingSubscription"),
    ("3.12", "repro.datasets", "repro.datasets.ip_cookie", "GeneratedDataset"),
    ("3.12", "repro.datasets", "repro.datasets.documents", "DocumentCorpus"),
    ("3.12", "repro.communities", "repro.communities.proxies", "ProxyEvaluation"),
    ("3.12", "repro.similarity", "repro.similarity.partials", "uni_contribution"),
    ("3.13", "repro.vsmart", "repro.vsmart.similarity_phase", "ChunkPairRecord"),
    ("3.13", "repro.communities", "repro.communities.clustering", "UnionFind"),
    ("3.13", "repro.communities", "repro.communities.clustering", "connected_components"),
    ("3.13", "repro.communities", "repro.communities.proxies", "ground_truth_pairs"),
    ("3.13", "repro.datasets", "repro.datasets.documents", "shingle_document"),
    ("3.13", "repro.server", "repro.server.errors", "classify"),
    ("3.13", "repro.server", "repro.server.http", "HttpServer"),
    ("3.13", "repro.resilience", "repro.resilience.retry", "RetrySchedule"),
    ("3.13", "repro.engine", "repro.engine.calibration", "ComponentEstimate"),
    ("3.13", "repro.similarity", "repro.similarity.kernels", "interned_conjunctive"),
    ("3.13", "repro", "repro.mapreduce.backends", "available_backends"),
    ("3.13", "repro.mapreduce", "repro.mapreduce.backends", "available_backends"),
    ("3.13", "repro.storage", "repro.storage.codecs", "save_dictionary"),
    ("3.13", "repro.storage", "repro.storage.codecs", "load_dictionary"),
]

#: ``(version, dotted path)`` of every deleted attribute.
REMOVED_NAMES = [
    ("3.12", "repro.SparseVector"),
    ("3.12", "repro.core.SparseVector"),
    ("3.12", "repro.core.InvalidVectorError"),
    ("3.12", "repro.core.exceptions.InvalidVectorError"),
    ("3.12", "repro.baselines.MinHashLSHJoin"),
    ("3.12", "repro.baselines.LSHParameters"),
    ("3.12", "repro.baselines.derive_banding"),
    ("3.12", "repro.baselines.estimate_similarity"),
    ("3.12", "repro.baselines.minhash_signature"),
    ("3.12", "repro.baselines.SampledJoin"),
    ("3.12", "repro.baselines.sample_rate_for_recall"),
    ("3.12", "repro.engine.APPROXIMATE_ALGORITHMS"),
    ("3.12", "repro.engine.spec.APPROXIMATE_ALGORITHMS"),
    ("3.12", "repro.engine.spec.JoinSpec.recall"),
    ("3.12", "repro.engine.spec.JoinSpec.minhash_parameters"),
    ("3.12", "repro.engine.spec.JoinSpec.allows_inexact"),
    ("3.12", "repro.engine.spec.JoinSpec.resolved_minhash_parameters"),
    ("3.12", "repro.engine.result.JoinResult.exact"),
    ("3.12", "repro.engine.planner.CorpusProfile.avg_id_bytes"),
    ("3.12", "repro.core.multiset.Multiset.set_expansion"),
    ("3.13", "repro.core.multiset.multiset_collection_statistics"),
    ("3.13", "repro.core.multiset.Multiset.from_counts"),
    ("3.13", "repro.core.multiset.Multiset.from_set"),
    ("3.13", "repro.core.multiset.Multiset.symmetric_difference_cardinality"),
    ("3.13", "repro.core.multiset.Multiset.dot_product"),
    ("3.13", "repro.core.multiset.Multiset.underlying_union_cardinality"),
    ("3.13", "repro.core.multiset.Multiset.without_elements"),
    ("3.13", "repro.core.multiset.Multiset.underlying_multiset"),
    ("3.13", "repro.core.multiset.Multiset.to_tuples"),
    ("3.13", "repro.core.interning.ElementDictionary.element_of"),
    ("3.13", "repro.core.exceptions.PipelineError"),
    ("3.13", "repro.core.exceptions.CommunityError"),
    ("3.13", "repro.mapreduce.cluster.paper_cluster"),
    ("3.13", "repro.mapreduce.dfs.Dataset.total_bytes"),
    ("3.13", "repro.mapreduce.dfs.Dataset.filter_records"),
    ("3.13", "repro.mapreduce.dfs.Dataset.concat"),
    ("3.13", "repro.mapreduce.dfs.Dataset.map_records"),
    ("3.13", "repro.datasets.ip_cookie.scaled_memory_budget"),
    ("3.13", "repro.datasets.ip_cookie.dataset_label"),
    ("3.13", "repro.datasets.stats.frequency_histogram"),
    ("3.13", "repro.datasets.workload.workload_statistics"),
    ("3.13", "repro.datasets.read_input_tuples"),
    ("3.13", "repro.datasets.read_multisets"),
    ("3.13", "repro.datasets.write_input_tuples"),
    ("3.13", "repro.datasets.write_multisets"),
    ("3.13", "repro.datasets.write_similar_pairs"),
    ("3.13", "repro.resilience.faults.call_with_policy"),
    ("3.13", "repro.similarity.exact.compute_partials"),
    ("3.13", "repro.similarity.registry.available_measures"),
    ("3.13", "repro.similarity.registry.supported_measures"),
    ("3.13", "repro.similarity.registry.iter_measures"),
    ("3.13", "repro.vsmart.preprocessing.remove_small_multisets"),
    ("3.13", "repro.analysis.reporting.format_counters"),
    ("3.13", "repro.communities.clustering.dense_clusters"),
    ("3.13", "repro.serving.node.query_signature"),
    ("3.13", "repro.storage.codecs.encode_pair_rows"),
    ("3.13", "repro.storage.codecs.decode_pair_rows"),
    ("3.13", "repro.baselines.BruteForceJoin"),
    ("3.14", "repro.streaming.ApplyPlan"),
    ("3.14", "repro.streaming.APPLY_STRATEGIES"),
    ("3.14", "repro.streaming.view.ApplyPlan"),
    ("3.14", "repro.streaming.view.APPLY_STRATEGIES"),
    ("3.14", "repro.streaming.view.INCREMENTAL"),
    ("3.14", "repro.streaming.view.REJOIN"),
    ("3.14", "repro.streaming.view.AUTO_STRATEGY"),
    ("3.14", "repro.streaming.view.JoinView.decide"),
    ("3.14", "repro.serving.RENDEZVOUS"),
    ("3.14", "repro.serving.ROUND_ROBIN"),
    ("3.14", "repro.serving.replica.RENDEZVOUS"),
    ("3.14", "repro.serving.replica.ROUND_ROBIN"),
    ("3.14", "repro.serving.replica.REPLICA_SALT"),
    ("3.14", "repro.serving.index.PreparedQuery.ranking_key"),
    ("3.14", "repro.serving.service.ReplicatedSimilarityService.read_strategy"),
    ("3.14", "repro.serving.index.SimilarityIndex.document_frequency"),
    ("3.14", "repro.serving.index.SimilarityIndex.posting_list_sizes"),
    ("3.18", "repro.similarity.WeightedJaccardSimilarity"),
    ("3.18", "repro.similarity.measures.WeightedJaccardSimilarity"),
    ("3.18", "repro.core.knobs.is_int"),
    ("3.18", "repro.core.knobs.is_real"),
    ("3.19", "repro.baselines.PPJoin"),
    ("3.19", "repro.baselines.InvertedIndexJoin"),
    ("3.20", "repro.core.LocalInterner"),
    ("3.20", "repro.core.interning.LocalInterner"),
]

#: ``(version, module)`` of every deleted module.
REMOVED_MODULES = [
    ("3.12", "repro.core.vector"),
    ("3.12", "repro.baselines.minhash"),
    ("3.12", "repro.baselines.sampled"),
    ("3.13", "repro.datasets.loaders"),
    ("3.13", "repro.baselines.brute_force"),
    ("3.19", "repro.baselines"),
    ("3.19", "repro.baselines.ppjoin"),
    ("3.19", "repro.baselines.inverted_index"),
]


def migration_section(version: str) -> str:
    """The text of ``docs/MIGRATION.md``'s "Migrating to <version>" section."""
    text = MIGRATION.read_text(encoding="utf-8")
    start = text.index(f"## Migrating to {version}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end != -1 else len(text)]


def defining_file(module_name: str, name: str) -> Path:
    """The source file that defines ``name``, following re-exports: an
    ``ImportFrom``, or a row of the lazy ``_EXPORTS`` table ``repro``
    resolves its names through on first use."""
    path = Path(importlib.util.find_spec(module_name).origin)
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return defining_file(node.module, alias.name)
        if (isinstance(node, ast.Assign)
                and ast.unparse(node.targets[0]) == "_EXPORTS"):
            exports = ast.literal_eval(node.value)
            if name in exports:
                return defining_file(exports[name], name)
    return path


def program_callers(package_name: str, name: str) -> list[Path]:
    """The program files that use ``name``, as a whole word.

    Package ``__init__`` files only re-export, so they never count.  A
    class or function must be used outside the file that defines it.  A
    constant's own file counts, bar the line that assigns it: it names a
    value that module hands out (a status, a breaker state, a delta kind).
    """
    own = defining_file(package_name, name)
    constant = not isinstance(getattr(importlib.import_module(package_name), name),
                              (type, types.FunctionType))
    callers = []
    for path, words in PROGRAM_WORDS.items():
        if path.name == "__init__.py" and (ROOT / "src") in path.parents:
            continue
        if path == own:
            if not constant:
                continue
            assignment = re.compile(rf"^{re.escape(name)}\s*[:=]")
            words = set(re.findall(r"\w+", "\n".join(
                line for line in PROGRAM_FILES[path].splitlines()
                if not assignment.match(line))))
        if name in words:
            callers.append(path)
    return callers


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_exported_name_resolves_once(package_name):
    package = importlib.import_module(package_name)
    exported = package.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(package, name)] == []


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_exported_name_has_a_caller_or_a_reason(package_name):
    called = {name: bool(program_callers(package_name, name))
              for name in importlib.import_module(package_name).__all__}
    uncalled = [name for name, used in called.items() if not used and name not in DELIBERATE]
    needless = [name for name, used in called.items() if used and name in DELIBERATE]
    assert (uncalled, needless) == ([], [])
    assert all(reason.strip() for reason in DELIBERATE.values())


@pytest.mark.parametrize("version, package_name, module_name, name", UNEXPORTED,
                         ids=[f"{package}.{name}" for _, package, _, name in UNEXPORTED])
def test_unexported_name_lives_in_its_module(version, package_name, module_name, name):
    package = importlib.import_module(package_name)
    assert name not in package.__all__
    assert not hasattr(package, name)
    assert getattr(importlib.import_module(module_name), name).__module__ == module_name
    assert f"`{module_name}." in migration_section(version)
    assert name in migration_section(version)


@pytest.mark.parametrize("version, path", REMOVED_NAMES,
                         ids=[path for _, path in REMOVED_NAMES])
def test_removed_name_is_gone(version, path):
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
            break
        except ModuleNotFoundError:
            continue
    for attribute in parts[split:-1]:  # None: a deleted package held it
        owner = getattr(owner, attribute, None)
    name = parts[-1]
    assert not hasattr(owner, name)
    assert name not in getattr(owner, "__dataclass_fields__", {})
    assert name not in getattr(owner, "__all__", ())
    assert name in migration_section(version)


@pytest.mark.parametrize("version, module_name", REMOVED_MODULES,
                         ids=[module_name for _, module_name in REMOVED_MODULES])
def test_removed_module_is_gone(version, module_name):
    assert module_name not in MODULES
    assert f"`{module_name}`" in migration_section(version)


def _view() -> JoinView:
    return JoinView(JoinSpec(threshold=0.5), [Multiset("a", {"x": 1})])


def _load_view(path: str, **options):
    with ViewStore(path) as store:
        return store.load(**options)


#: ``(keyword, call)`` of every keyword 3.14 deleted, each call passing it.
REMOVED_KEYWORDS = [
    ("strategy", lambda path: _view().apply([], strategy="incremental")),
    ("strategy", lambda path: _view().upsert(Multiset("b", {"x": 1}),
                                             strategy="incremental")),
    ("strategy", lambda path: _view().delete("a", strategy="incremental")),
    ("engine", lambda path: JoinView(JoinSpec(), [], engine=None)),
    ("engine", lambda path: JoinView.recover(path, engine=None)),
    ("engine", lambda path: _load_view(path, engine=None)),
    ("engine", lambda path: join([], threshold=0.5).to_view(engine=None)),
    ("read_strategy", lambda path: ReplicatedShard(read_strategy="round_robin")),
    ("read_strategy", lambda path: ReplicatedSimilarityService(
        read_strategy="round_robin")),
    ("read_strategy", lambda path: ReplicatedSimilarityService.recover(
        path, read_strategy="round_robin")),
]


@pytest.mark.parametrize("keyword, call", REMOVED_KEYWORDS, ids=[
    "JoinView.apply", "JoinView.upsert", "JoinView.delete", "JoinView",
    "JoinView.recover", "ViewStore.load", "JoinResult.to_view",
    "ReplicatedShard", "ReplicatedSimilarityService",
    "ReplicatedSimilarityService.recover"])
def test_removed_keyword_is_a_type_error(tmp_path, keyword, call):
    with pytest.raises(TypeError, match=keyword):
        call(str(tmp_path / "store.sqlite"))
    assert f"`{keyword}=`" in migration_section("3.14")
