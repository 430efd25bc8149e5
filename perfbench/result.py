"""What one workload run hands back to ``run.py``."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field


@dataclass
class Result:
    """Counts, output checks and metrics of one run.

    ``e2e`` and ``layers`` map metric names (as in ``BENCHMARK.json``)
    to values; ``repeat`` holds the values that must come out exactly
    the same for the same source and seed; ``info`` is free-form detail
    for the run record.
    """

    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    repeat: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "",
              failures: int = 1) -> bool:
        """Record one output check; a failure counts ``failures`` failed
        operations (at least one)."""
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failed += max(1, failures)
        return ok

    @property
    def correct(self) -> bool:
        return all(c["ok"] for c in self.checks) and bool(self.checks)

    def success_rate(self) -> float:
        if self.attempted <= 0:
            return 0.0
        return 1.0 - min(self.failed, self.attempted) / self.attempted


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live child process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")
