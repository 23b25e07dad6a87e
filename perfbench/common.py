"""Paths, import bootstrap and small shared helpers for the benchmark.

The benchmark runs from the root of a source checkout and imports boxnet
from ``src/`` there, never from an installed copy.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource as _rusage
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = SRC / "boxnet" / "fixtures"
OUT = BENCH / "out"
GOLDENS = BENCH / "goldens.json"
# Seeds 0..GOLDEN_SEEDS-1 have recorded fingerprints in goldens.json.
GOLDEN_SEEDS = 16


def bootstrap() -> None:
    """Put the checkout's ``src`` first on the import path, or stop with a
    non-zero exit when the checkout has no boxnet sources."""
    if not (SRC / "boxnet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no boxnet sources under {SRC}; run from a checkout")
    if not GOLDENS.is_file():
        raise SystemExit(f"perfbench: missing {GOLDENS}")
    sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: boxnet from this checkout only."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(_rusage.getrusage(_rusage.RUSAGE_SELF).ru_maxrss,
             _rusage.getrusage(_rusage.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def cpu_seconds() -> float:
    """CPU time of this process plus its waited-for children.  Unlike wall
    time it leaves out time the host took the CPU away (steal)."""
    children = _rusage.getrusage(_rusage.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "boxnet").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "commit": _commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, -(-len(s) * q // 100) - 1))
    return s[int(k)]
