"""What a fresh interpreter loads: ``import repro`` imports no tier, and a
server loads only the serving tier.

``repro/__init__.py`` resolves its exported names on first use, so each
subpackage must import what it uses itself.  These tests start a new
interpreter for each check: the test process has long since imported every
tier.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.core.multiset import Multiset
from repro.serving.service import ReplicatedSimilarityService
from tests.conftest import SOURCE_ROOT, make_random_multisets

#: The subpackages (and top-level modules) a serving process loads.
SERVING_TIER = ["core", "resilience", "server", "serving", "similarity",
                "telemetry"]


def fresh(script: str, *arguments: str) -> dict:
    """Run ``script`` in a new interpreter that imports ``repro`` from the
    tree under test; it prints one JSON document, returned parsed."""
    prelude = "import json, sys\nsys.path.insert(0, sys.argv[1])\n"
    completed = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c",
         prelude + script, SOURCE_ROOT, *arguments],
        check=True, capture_output=True, text=True)
    return json.loads(completed.stdout)


LOADED = ("print(json.dumps({'tiers': sorted({name.split('.')[1] for name in "
          "sys.modules if name.startswith('repro.')}), "
          "'numpy': 'numpy' in sys.modules}))\n")


def test_import_repro_loads_no_tier():
    assert fresh("import repro\n" + LOADED) == {"tiers": [], "numpy": False}


@pytest.mark.parametrize("recover", [False, True], ids=["empty", "recover"])
def test_the_server_import_path_loads_only_the_serving_tier(tmp_path,
                                                           recover):
    """``python -m repro.server``'s path up to serving: the package, its
    ``__main__``, ``build_app`` and the transport.  It routes shards with
    ``repro.core.hashing`` and never loads the MapReduce simulator, the
    engine or NumPy; ``--recover`` adds the storage tier."""
    arguments = ["--shards", "4", "--replication", "2"]
    if recover:
        fleet = ReplicatedSimilarityService("ruzicka", 4)
        fleet.bulk_load(make_random_multisets(count=12, alphabet_size=10,
                                              max_elements=4, seed=9))
        fleet.persist(str(tmp_path))
        arguments += ["--recover", str(tmp_path)]
    script = (
        "import repro.server\n"
        "from repro.server.__main__ import build_app, build_parser\n"
        "app = build_app(build_parser().parse_args(sys.argv[2:]))\n"
        "from repro.server.http import serve_forever\n"
        "assert app.service.replication_factor == 2\n" + LOADED)
    expected = sorted(SERVING_TIER + ["storage"] * recover)
    assert fresh(script, *arguments) == {"tiers": expected, "numpy": False}


def test_every_algorithm_runs_after_importing_only_repro():
    """The eager ``__init__`` imported every tier up front, which could hide
    a module that uses a name it never imports.  Every algorithm, reached
    through ``repro`` alone, answers the oracle's pairs."""
    script = (
        "import repro\n"
        "corpus = [repro.Multiset(f'm{i}', {f'e{(i * j) % 7}': j + 1\n"
        "                                   for j in range(1, 4 + i % 3)})\n"
        "          for i in range(16)]\n"
        "def ids(pairs):\n"
        "    return sorted([pair.first, pair.second] for pair in pairs)\n"
        "oracle = ids(repro.all_pairs_exact(corpus, 'ruzicka', 0.3))\n"
        "print(json.dumps({'oracle': oracle, 'algorithms': {\n"
        "    name: ids(repro.join(corpus, measure='ruzicka', threshold=0.3,\n"
        "                         algorithm=name).pairs)\n"
        "    for name in repro.available_algorithms()}}))\n")
    answer = fresh(script)
    assert len(answer["oracle"]) > 0
    assert len(answer["algorithms"]) >= 7
    assert all(pairs == answer["oracle"]
               for pairs in answer["algorithms"].values())


def test_an_exported_name_loads_only_its_tier():
    assert fresh("from repro import Multiset\n" + LOADED) \
        == {"tiers": ["core"], "numpy": False}


def test_the_lazy_exports_keep_the_module_protocol():
    import repro

    assert set(repro.__all__) <= set(dir(repro))
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert namespace["Multiset"] is Multiset
    assert set(namespace) - {"__builtins__"} == set(repro.__all__)


def test_stable_hash_has_one_home_and_its_old_paths():
    """The serving tier routes shards with ``repro.core.hashing``; the
    MapReduce paths re-export the same function, values unchanged."""
    from repro.core.hashing import stable_hash
    from repro.mapreduce import stable_hash as exported
    from repro.mapreduce.partitioner import stable_hash as partitioner

    assert stable_hash is exported is partitioner
    assert (stable_hash("ip-7", salt="serving-shard"),
            stable_hash(("cookie", 3)),
            stable_hash(2.5, salt="vcl-grouping")) \
        == (14073756441785315116, 7503220111847105508, 14632659490811611450)
