"""The system under test for the serving workloads: ``python -m repro.server``
in a subprocess, started and stopped through its CLI and signals only."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

#: The checkout root (``benchmarks/e2e/`` is two levels below it).
ROOT = Path(__file__).resolve().parents[2]
_ANNOUNCE = re.compile(r"listening on http://([\d.]+):(\d+)")


class ServerProcess:
    """One server subprocess; ``ready_seconds`` is spawn -> announce line."""

    def __init__(self, *arguments: str) -> None:
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([environment["PYTHONPATH"]]
                                   if environment.get("PYTHONPATH") else []))
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-W", "error::DeprecationWarning",
             "-m", "repro.server", "--port", "0", *arguments],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=environment, cwd=ROOT)
        line = self.process.stdout.readline()
        self.ready_seconds = time.perf_counter() - started
        match = _ANNOUNCE.search(line)
        if match is None:
            _, errors = self.process.communicate(timeout=30)
            raise RuntimeError(
                f"repro.server did not announce itself: {line!r} {errors!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark (``VmHWM``), in MB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait for exit; kill if it will not."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
