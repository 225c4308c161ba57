"""One vCPU and a fixed reference kernel: how fast is the host right now?

Each vCPU of this host flips, on its own, between speed states ~27 % apart
(and now and then a third, slower still) every few seconds to minutes; see
the README.  A raw time then says more about when and on which vCPU it was
measured than about the program.  ROADMAP item 1(c) asks for the remedy:
gate on in-run ratios against a reference measured in the same run.  Two
steps make that work:

* the benchmark pins itself, and with it every process it starts, to one
  vCPU, so the program and the reference always see the same state;
* between any two short stretches of measured work it times a kernel that no
  change to ``src/repro`` can touch, and scales the stretch to what it would
  have taken had the kernel taken :data:`REFERENCE_SECONDS`.

The kernel builds and updates one dict of 60 000 string keys (larger than the
core's caches, as the server's working set is) and twenty of 2 000 keys
(cache-resident, as a join's inner loops are), ~12 ms in all.
"""

from __future__ import annotations

import os
import time

#: The kernel's time on this host in its fast state; the speed all
#: normalised times are quoted at.
REFERENCE_SECONDS = 0.012
_LARGE = [f"c{index:07d}" for index in range(60_000)]
_SMALL = _LARGE[:2_000]


def pin_to_one_cpu() -> None:
    """Confine this process, and every child it starts, to one vCPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def stolen_seconds() -> float:
    """Seconds the host has kept this process's vCPU from running so far
    (``/proc/stat`` steal ticks); 0.0 when not pinned to one.  A diagnostic:
    a run with much of it is a run to distrust."""
    cpus = os.sched_getaffinity(0)
    if len(cpus) == 1:
        with open("/proc/stat") as stat:
            for line in stat:
                if line.startswith(f"cpu{min(cpus)} "):
                    return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    return 0.0


def _passes(keys: list[str], repeats: int) -> None:
    # A fresh dict every pass: a dict kept between samples drifts (its
    # values scatter over the heap and the kernel slows by the minute).
    for _ in range(repeats):
        counts: dict[str, int] = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        for key in keys:
            counts[key] += len(key)


def kernel_seconds() -> float:
    """Time one run of the reference kernel."""
    started = time.perf_counter()
    _passes(_LARGE, 1)
    _passes(_SMALL, 20)
    return time.perf_counter() - started


def scale(before: float, after: float) -> float:
    """The factor that takes a time measured between two kernel samples to
    reference speed."""
    return REFERENCE_SECONDS / ((before + after) / 2.0)


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` scaled to reference speed, given the kernel samples taken
    just before and just after it was measured."""
    return seconds * scale(before, after)


class Reference:
    """Kernel samples shared by measurements made back to back: the sample
    that closes one measurement opens the next."""

    def __init__(self) -> None:
        self.last = kernel_seconds()

    def scaled(self, seconds: float) -> float:
        """``seconds``, measured since the last sample, at reference speed."""
        before, self.last = self.last, kernel_seconds()
        return at_reference_speed(seconds, before, self.last)
