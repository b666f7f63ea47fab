"""Shared pieces of every workload: quantiles, failure tally, provenance."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import resource
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent

__all__ = ["ROOT", "OUT_DIR", "quantile", "Tally", "peak_rss_mb", "metric",
           "provenance", "write_json"]

#: Where runs write their span dumps and provenance records.
OUT_DIR = ROOT / ".perfbench"


def quantile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile (0 for an empty sample)."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = q * (len(data) - 1)
    low = int(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


class Tally:
    """Attempted operations and failures by typed reason.

    Reasons are ``skipped:<reason>``, ``shed``, ``dropped``,
    ``unpublished``, ``wrong-verdict`` and ``bad-bound``.  Only the last
    two mean the program produced a wrong output.
    """

    WRONG = ("wrong-verdict", "bad-bound")

    def __init__(self):
        self.attempted = 0
        self.failures: Counter = Counter()

    def fail(self, reason: str) -> None:
        self.failures[reason] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        return not any(self.failures[r] for r in self.WRONG)

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "reasons": dict(sorted(self.failures.items())),
                "oracle": "pass" if self.correct else "FAIL"}


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _git_sha() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        packed = ROOT / ".git" / "packed-refs"
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    """sha256 over the measured package's sources (path + bytes)."""
    digest = hashlib.sha256()
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


#: Environment variables that set the BLAS / OpenMP thread counts.
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def provenance(workload: str, seed: int, seconds: float, trace: bool,
               params: Dict) -> dict:
    """Who measured what, taken from the process that measured it."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "platform": platform.platform(),
            "thread_env": {k: os.environ.get(k) for k in _THREAD_ENV},
        },
        "argv": sys.argv,
    }


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")

