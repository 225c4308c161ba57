"""Out-of-core shuffle: spill telemetry and the budget ceiling.

The same join runs on the in-memory runner and on the ``"disk"`` backend
over Zipf corpora that sit under, around and well over a spill budget
pinned small enough that even smoke-scale corpora genuinely go out of
core.  Recorded per size: shuffle bytes, bytes spilled, runs written and
merge passes — all exact counts.  What spilling costs in time is the
harness's business (``benchmarks/e2e``; its backend rung is ROADMAP
item 4's).

Parity is asserted at every size: pairs and counters (minus the reserved
``shuffle/`` telemetry namespace) must be bit-identical to the serial
backend, and the disk runs must additionally prove they spilled
(``shuffle/bytes_spilled > 0``) with the buffer ceiling respected per job
and over the pipeline.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import SMOKE
from repro.core.multiset import Multiset
from repro.datasets.zipf import BoundedZipf
from repro.engine import JoinSpec, SimilarityEngine
from repro.mapreduce import SerialBackend, get_backend

#: Corpus-size grid: spans the spill budget from "fits" to "several runs".
SIZE_GRID = (20, 40, 80) if SMOKE else (40, 120, 360)
#: Spill budget (bytes): small enough that the mid/large sizes go to disk.
MEMORY_BUDGET = 24 * 1024 if SMOKE else 96 * 1024
MERGE_FAN_IN = 4
THRESHOLD = 0.2

ELEMENTS_PER_MULTISET = 60 if SMOKE else 110
ALPHABET = 4000
SEED = 2012


def zipf_corpus(count: int) -> list[Multiset]:
    """Deterministic Zipf-skewed multisets over a shared alphabet."""
    rng = np.random.default_rng(SEED)
    distribution = BoundedZipf(ALPHABET, 1.1)
    corpus = []
    for index in range(count):
        elements = distribution.sample(rng, ELEMENTS_PER_MULTISET)
        contents: dict[str, int] = {}
        for element in elements:
            name = f"e{int(element)}"
            contents[name] = contents.get(name, 0) + 1
        corpus.append(Multiset(f"m{index}", contents))
    return corpus


def strip_telemetry(counters):
    return {name: value for name, value in counters.items()
            if not name.startswith("shuffle/")}


def run_join(backend, corpus):
    spec = JoinSpec(algorithm="online_aggregation", measure="ruzicka",
                    threshold=THRESHOLD)
    return SimilarityEngine(backend=backend).run(spec, corpus)


def test_out_of_core_shuffle(bench_record):
    rows = {}
    for size in SIZE_GRID:
        corpus = zipf_corpus(size)
        base = run_join(SerialBackend(), corpus)
        outcome = run_join(
            get_backend("disk", memory_budget_bytes=MEMORY_BUDGET,
                        merge_fan_in=MERGE_FAN_IN), corpus)
        assert outcome.pairs == base.pairs, size
        counters = outcome.counters()
        assert (strip_telemetry(counters)
                == strip_telemetry(base.counters())), size
        rows[size] = {
            "shuffle_bytes": sum(stats.shuffle_bytes
                                 for stats in outcome.pipeline.job_stats),
            "bytes_spilled": counters.get("shuffle/bytes_spilled", 0),
            "runs_written": counters.get("shuffle/runs_written", 0),
            "merge_passes": counters.get("shuffle/merge_passes", 0),
            "num_pairs": len(base.pairs),
        }
        for stats in outcome.pipeline.job_stats:
            peak = stats.counters.get("shuffle/peak_buffer_bytes", 0)
            assert peak <= MEMORY_BUDGET, (size, stats.job_name)
        assert counters.get("shuffle/peak_buffer_bytes", 0) <= MEMORY_BUDGET

    print()
    print(f"Out-of-core shuffle (budget {MEMORY_BUDGET:,} B, "
          f"fan-in {MERGE_FAN_IN}):")
    print(f"  {'multisets':>9}  {'shuffled':>10}  {'spilled':>10}"
          f"  {'runs':>5}  {'passes':>6}")
    for size, row in rows.items():
        print(f"  {size:>9}  {row['shuffle_bytes']:>10,}  "
              f"{row['bytes_spilled']:>10,}  {row['runs_written']:>5}  "
              f"{row['merge_passes']:>6}")

    bench_record["memory_budget_bytes"] = MEMORY_BUDGET
    bench_record["sizes"] = rows

    # The largest size must genuinely exceed the budget and go out of core.
    largest = rows[max(SIZE_GRID)]
    assert largest["shuffle_bytes"] > MEMORY_BUDGET, largest
    assert largest["bytes_spilled"] > 0, largest
