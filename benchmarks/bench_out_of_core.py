"""Out-of-core shuffle overhead vs the in-memory runner.

Measured in real wall-clock on Zipf corpora: what does spilling the
shuffle to disk cost, across corpus sizes that sit under, around and well
over the spill budget?  The budget is pinned small so even smoke-scale
corpora genuinely go out of core — the point is the overhead curve and the
spill telemetry, not the absolute sizes.

Parity is asserted at every size: pairs and counters (minus the reserved
``shuffle/`` telemetry namespace) must be bit-identical to the serial
backend, and the disk runs must additionally prove they spilled
(``shuffle/bytes_spilled > 0``) with the buffer ceiling respected per job
and over the pipeline.
"""

from __future__ import annotations

import time

from benchmarks.conftest import SMOKE, run_once
from benchmarks.bench_backend_scaling import zipf_corpus
from repro.engine import JoinSpec, SimilarityEngine
from repro.mapreduce import SerialBackend, get_backend

#: Corpus-size grid: spans the spill budget from "fits" to "several runs".
SIZE_GRID = (20, 40, 80) if SMOKE else (40, 120, 360)
#: Spill budget (bytes): small enough that the mid/large sizes go to disk.
MEMORY_BUDGET = 24 * 1024 if SMOKE else 96 * 1024
MERGE_FAN_IN = 4
THRESHOLD = 0.2


def strip_telemetry(counters):
    return {name: value for name, value in counters.items()
            if not name.startswith("shuffle/")}


def timed_join(backend, corpus):
    spec = JoinSpec(algorithm="online_aggregation", measure="ruzicka",
                    threshold=THRESHOLD)
    engine = SimilarityEngine(backend=backend)
    started = time.perf_counter()
    outcome = engine.run(spec, corpus)
    return time.perf_counter() - started, outcome


def assert_parity(base, other, context):
    assert other.pairs == base.pairs, context
    assert (strip_telemetry(other.counters())
            == strip_telemetry(base.counters())), context


def test_out_of_core_shuffle(benchmark, bench_record):
    corpora = {size: zipf_corpus(size) for size in SIZE_GRID}

    def run():
        rows = {}
        for size, corpus in corpora.items():
            serial_seconds, base = timed_join(SerialBackend(), corpus)
            disk = get_backend("disk", memory_budget_bytes=MEMORY_BUDGET,
                               merge_fan_in=MERGE_FAN_IN)
            disk_seconds, outcome = timed_join(disk, corpus)
            assert_parity(base, outcome, ("disk", size))
            counters = outcome.counters()
            shuffled = sum(stats.shuffle_bytes
                           for stats in outcome.pipeline.job_stats)
            rows[size] = {
                "serial_wall_seconds": serial_seconds,
                "disk_wall_seconds": disk_seconds,
                "overhead_wall": disk_seconds / serial_seconds,
                "shuffle_bytes": shuffled,
                "bytes_spilled": counters.get("shuffle/bytes_spilled", 0),
                "runs_written": counters.get("shuffle/runs_written", 0),
                "merge_passes": counters.get("shuffle/merge_passes", 0),
                "num_pairs": len(base.pairs),
            }
            for stats in outcome.pipeline.job_stats:
                peak = stats.counters.get("shuffle/peak_buffer_bytes", 0)
                assert peak <= MEMORY_BUDGET, (size, stats.job_name)
            assert counters.get("shuffle/peak_buffer_bytes", 0) <= MEMORY_BUDGET
        return rows

    rows = run_once(benchmark, run)
    print()
    print(f"Out-of-core shuffle vs in-memory (budget {MEMORY_BUDGET:,} B, "
          f"fan-in {MERGE_FAN_IN}):")
    print(f"  {'multisets':>9}  {'serial':>8}  {'disk':>8}  {'ovh':>6}"
          f"  {'shuffled':>10}  {'spilled':>10}  {'runs':>5}  {'passes':>6}")
    for size, row in rows.items():
        print(f"  {size:>9}  {row['serial_wall_seconds']:>7.3f}s  "
              f"{row['disk_wall_seconds']:>7.3f}s  {row['overhead_wall']:>5.2f}x  "
              f"{row['shuffle_bytes']:>10,}  {row['bytes_spilled']:>10,}  "
              f"{row['runs_written']:>5}  {row['merge_passes']:>6}")

    bench_record["memory_budget_bytes"] = MEMORY_BUDGET
    bench_record["sizes"] = rows

    # The largest size must genuinely exceed the budget and go out of core.
    largest = rows[max(SIZE_GRID)]
    assert largest["shuffle_bytes"] > MEMORY_BUDGET, largest
    assert largest["bytes_spilled"] > 0, largest
    # Spilling is overhead, but it must stay sane on an SSD-era machine.
    assert largest["overhead_wall"] < 50, largest
