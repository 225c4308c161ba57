"""Order statistics the metrics are built from, and the result of a run."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Sequence

median = statistics.median


def percentile(values: Sequence[float], share: float) -> float:
    """Linearly interpolated percentile (``share`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = share * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def spread_ms(seconds: Sequence[float]) -> dict[str, float]:
    """Diagnostics of a latency sample, in ms: n, quartiles, tail and max.

    The tail is p95 (p99 too) where at least ten samples lie beyond it;
    a join repeated a dozen times supports no more than its upper quartile.
    """
    report = {"n": len(seconds)}
    shares = {"p25": 0.25, "p50": 0.5, "p75": 0.75}
    if len(seconds) >= 200:
        shares["p95"] = 0.95
    if len(seconds) >= 1000:
        shares["p99"] = 0.99
    for name, share in shares.items():
        report[name] = percentile(seconds, share) * 1000.0
    report["max"] = max(seconds) * 1000.0
    return report


@dataclass
class RunResult:
    """What one run of one workload produced."""

    #: Metric name -> value, in the unit ``BENCHMARK.json`` states.
    metrics: dict[str, float]
    #: Operations attempted, and those failed, refused or answered wrongly.
    attempted: int
    failed: int
    #: Printed and reported, never gated: p99, quartiles, counts, shapes.
    diagnostics: dict = field(default_factory=dict)
    #: Traced runs only: the recorded spans, for the report.
    spans: list = field(default_factory=list)
