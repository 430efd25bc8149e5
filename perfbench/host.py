"""Host fingerprint attached to every benchmark record.

A timing means little without the machine it came from, so each record
names the CPUs the process may run on, the BLAS numpy was built with,
the numpy and Python versions, the source revision and how busy the
host was when the run started. A host whose other processes kept more
than a quarter of those CPUs busy is flagged ``busy``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import time

BUSY_SHARE = 0.25


def _cpu_times() -> tuple:
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    idle = fields[3] + (fields[4] if len(fields) > 4 else 0)
    return sum(fields), idle


def busy_cpus(window_s: float = 0.5) -> float | None:
    """CPUs kept busy by other processes over a short idle window of ours."""
    try:
        total0, idle0 = _cpu_times()
        time.sleep(window_s)
        total1, idle1 = _cpu_times()
    except (OSError, ValueError, IndexError):
        return None
    total = total1 - total0
    if total <= 0:
        return None
    return (1.0 - (idle1 - idle0) / total) * (os.cpu_count() or 1)


def _blas() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def git_sha(root: str) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(*dirs: str) -> str:
    """sha256 over every ``.py`` file under ``dirs`` (path + bytes)."""
    digest = hashlib.sha256()
    for top in dirs:
        for base, subdirs, files in os.walk(top):
            subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, top).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def fingerprint(root: str, src_dir: str, bench_dir: str) -> dict:
    """The host record; ``source_digest`` covers the program and the
    benchmark, so exact-repeat values are only compared between runs of
    the same code."""
    import numpy as np
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = list(range(os.cpu_count() or 1))
    busy = busy_cpus()
    return {
        "affinity_cpus": affinity,
        "blas": _blas(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": git_sha(root),
        "source_digest": source_digest(src_dir, bench_dir),
        "loadavg_at_start": list(os.getloadavg()),
        "busy_cpus_at_start": busy,
        "busy": busy is not None and busy > BUSY_SHARE * len(affinity),
    }
