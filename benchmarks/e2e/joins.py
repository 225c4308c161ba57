"""The join workloads: ``SimilarityEngine.run(JoinSpec)`` end to end."""

from __future__ import annotations

import gc
import resource
import subprocess
import sys
import time
from pathlib import Path

from repro import JoinSpec, SimilarityEngine
from repro.analysis.calibration import paper_scale_cost_parameters

from benchmarks.e2e.inputs import Sizes, Workload, join_corpus
from benchmarks.e2e.speed import (
    at_reference_speed,
    kernel_seconds,
    stolen_seconds,
)
from benchmarks.e2e.summary import RunResult, median, spread_ms


def make_engine() -> SimilarityEngine:
    """The engine every join runs on: serial backend, laptop cluster.

    The cost parameters are the figure benchmarks' paper-scale calibration.
    They change no wall-clock work; they give ``algorithm="auto"`` real
    margins between candidates, where the defaults (job overhead dominates
    at this size) leave the plan to a sub-second coin flip per seed.
    """
    return SimilarityEngine(cost_parameters=paper_scale_cost_parameters())


def join_spec(workload: Workload, algorithm: str, backend=None) -> JoinSpec:
    """The workload's join with ``algorithm`` (interning on, ruzicka)."""
    return JoinSpec(measure="ruzicka", threshold=workload.threshold,
                    algorithm=algorithm, backend=backend)


def timed(function):
    """``(seconds, result)`` of one call, garbage collected beforehand."""
    gc.collect()
    started = time.perf_counter()
    result = function()
    return time.perf_counter() - started, result


def set_up(workload: Workload, seed: int, sizes: Sizes):
    """Generate the corpus, build the engine, run one warm-up join."""
    corpus = join_corpus(workload, seed, sizes)
    engine = make_engine()
    engine.run(join_spec(workload, workload.pinned), corpus)
    return corpus, engine


def setup_seconds(process_started: float) -> float:
    """Seconds since ``process_started``, at reference speed.

    Nothing brackets a set-up that starts with the interpreter, so the
    kernel is sampled three times right after it.
    """
    elapsed = time.perf_counter() - process_started
    kernel = median(kernel_seconds() for _ in range(3))
    return at_reference_speed(elapsed, kernel, kernel)


def fresh_setup_seconds(workload: Workload, seed: int, sizes: Sizes) -> float:
    """Set-up time of a fresh interpreter: import, corpus, engine, warm-up."""
    command = [sys.executable, "-W", "error::DeprecationWarning",
               str(Path(__file__).with_name("run.py")),
               "--workload", workload.name, "--seed", str(seed),
               "--sizes", sizes.name, "--setup-only"]
    output = subprocess.run(command, check=True, capture_output=True,
                            text=True, timeout=120).stdout
    return float(output.strip().splitlines()[-1])


def run(workload: Workload, seed: int, seconds: float, sizes: Sizes,
        process_started: float) -> RunResult:
    """Repeat (pinned join, auto join) for ``seconds``; verify every result.

    A reference-kernel sample is taken between joins, and every join time
    is scaled to reference speed by the samples either side of it.
    """
    corpus, engine = set_up(workload, seed, sizes)
    setups = [setup_seconds(process_started)]
    setups += [fresh_setup_seconds(workload, seed, sizes)
               for _ in range(sizes.setups - 1)]

    pinned_spec = join_spec(workload, workload.pinned)
    auto_spec = join_spec(workload, "auto")
    pinned, auto, raw, pair_lists = [], [], {"main": [], "alt": []}, []
    speed = [kernel_seconds()]
    stolen = stolen_seconds()
    deadline = time.perf_counter() + seconds
    while len(pinned) < sizes.min_repeats or time.perf_counter() < deadline:
        for spec, samples, role in ((pinned_spec, pinned, "main"),
                                    (auto_spec, auto, "alt")):
            elapsed, result = timed(lambda: engine.run(spec, corpus))
            speed.append(kernel_seconds())
            raw[role].append(elapsed)
            samples.append(at_reference_speed(elapsed, *speed[-2:]))
            pair_lists.append(result.pairs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    oracle = engine.run(join_spec(workload, "exact"), corpus).pairs
    failed = sum(pairs != oracle for pairs in pair_lists)
    engine.close()

    metrics = {
        "setup_s": median(setups),
        "main_p50_ms": median(pinned) * 1000.0,
        "alt_p50_ms": median(auto) * 1000.0,
        "ops_per_s": len(pair_lists) / (sum(pinned) + sum(auto)),
        "peak_rss_mb": peak_rss_mb,
    }
    return RunResult(metrics, attempted=len(pair_lists), failed=failed,
                     diagnostics={
                         "repeats": len(pinned),
                         "main_ms": spread_ms(pinned),
                         "alt_ms": spread_ms(auto),
                         "main_raw_ms": spread_ms(raw["main"]),
                         "alt_raw_ms": spread_ms(raw["alt"]),
                         "kernel_ms": spread_ms(speed),
                         "stolen_s": stolen_seconds() - stolen,
                         "setups_s": setups,
                         "auto_algorithm": result.algorithm,
                         "input_tuples": sum(len(m) for m in corpus),
                         "multisets": len(corpus),
                         "pairs": len(oracle),
                     })
