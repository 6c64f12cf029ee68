"""Shared measurement helpers: clocks, percentiles, memory, run records."""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

#: Environment variables that pin BLAS/OpenMP pools to one thread.  They must
#: be set before NumPy is first imported, which ``run.py`` does.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: A tail percentile is reported only with at least this many samples
#: beyond it.
TAIL_SAMPLES_BEYOND = 10


class Clock:
    """Wall and process-CPU time of one phase, accumulated over calls."""

    __slots__ = ("wall", "cpu", "_w0", "_c0")

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0

    def __enter__(self) -> "Clock":
        self._w0 = time.perf_counter()
        self._c0 = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.cpu += time.process_time() - self._c0
        self.wall += time.perf_counter() - self._w0


def percentile(samples, q: float) -> float:
    """Linear-interpolated *q*-th percentile (NumPy's default method)."""
    xs = sorted(float(x) for x in samples)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(samples, q: float) -> float:
    """The *q*-th percentile, refused unless ten samples lie beyond it.

    A p90 needs at least 100 samples and a p99 at least 1000: with fewer,
    the "tail" would be one or two observations and read as noise.
    """
    n = len(samples)
    beyond = n * (100.0 - q) / 100.0
    if q > 50.0 and beyond < TAIL_SAMPLES_BEYOND - 1e-9:
        raise ValueError(
            f"p{q:g} needs {TAIL_SAMPLES_BEYOND} samples beyond it; "
            f"{n} samples leave {beyond:.1f}"
        )
    return percentile(samples, q)


def median(samples) -> float:
    return percentile(samples, 50.0)


def roc_auc(scores, labels) -> float:
    """ROC-AUC by the rank-sum formula, ties given their average rank."""
    import numpy as np

    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    n_pos, n_neg = int(labels.sum()), int((~labels).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return (ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def host_fingerprint() -> dict:
    import numpy as np

    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": cpu_model or platform.processor() or None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def record_path(out_dir: Path, record: dict) -> Path:
    """``<out_dir>/<workload>-seed<n>-trace<t>-<ns>.json``."""
    return out_dir / (
        f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-"
        f"{time.time_ns()}.json"
    )


def write_record(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def fail(message: str) -> None:
    """Abort a run without printing a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


class Outcome:
    """What one measured run produced: op counts, figures and check results.

    ``metrics`` holds the end-to-end figures the run prints; ``detail`` holds
    further figures that go only into the run record; ``counts`` holds
    per-layer counts taken from the program's public ``stats()``-style
    methods, summed over the measured rounds.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.metrics: dict[str, float] = {}
        self.detail: dict[str, object] = {}
        self.counts: dict[str, float] = {}
        self.checks: list[dict] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(c["ok"] for c in self.checks)
