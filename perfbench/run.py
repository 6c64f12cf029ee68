"""Run one workload of the deployment-loop benchmark and print its result.

    python3 perfbench/run.py --workload live-fleet --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A fuller run record goes to ``.perfbench/records/``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    BLAS_THREAD_VARS,
    Outcome,
    fail,
    git_commit,
    host_fingerprint,
    peak_rss_mb,
    record_path,
    write_record,
)

# One BLAS/OpenMP thread: set before NumPy is first imported.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

WORKLOADS = ("live-fleet", "job-dashboards", "retrain")
OUT_DIR = ROOT / ".perfbench"


def _load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found; run from the root of a checkout")
    return json.loads(path.read_text())


def _workload_module(name: str):
    import importlib

    return importlib.import_module(name.replace("-", "_"))


#: Per-layer counts read from span results rather than from the program's
#: stats payloads: metric name -> (span name, item key).
SPAN_ITEMS = {
    "hist.ingest_rows": ("hist.ingest", "rows"),
    "hist.query_rows": ("hist.query", "rows"),
    "explain.evaluations": ("explain.search", "evaluations"),
    "explain.cached_evaluations": ("explain.search", "cached_evaluations"),
}


def per_layer_metrics(names, tracer, out: Outcome) -> dict[str, float]:
    """Per-layer figures per measured round.

    ``<span>_s`` is the summed self time of that span; other names are
    counts, from span results (:data:`SPAN_ITEMS`) or from what the workload
    read out of the program's ``stats()``/``status()`` payloads.
    """
    spans = tracer.self_times()
    rounds = max(out.rounds, 1)
    figures = {}
    for name in names:
        if name in SPAN_ITEMS:
            span, key = SPAN_ITEMS[name]
            total = tracer.items.get(span, {}).get(key, 0)
        elif name.endswith("_s"):
            total = spans.get(name[:-2], {}).get("self_s", 0.0)
        else:
            total = out.counts.get(name, 0)
        figures[name] = total / rounds
    return figures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="where to write the run record (default: .perfbench/records/)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    spec = _load_benchmark()
    if not (ROOT / "src" / "repro").is_dir():
        fail(f"no program sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))

    from repro.runtime import ExecutionConfig, set_execution_config

    from tracing import MEASURE, Tracer

    # The program's default execution config, whatever PRODIGY_* says.
    set_execution_config(ExecutionConfig())
    workload = _workload_module(args.workload)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    import_s = time.perf_counter() - PROCESS_START

    OUT_DIR.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    state = None
    try:
        state = workload.setup(args.seed, work_root)
        out = Outcome()
        if tracer is not None:
            tracer.phase = MEASURE
        # Set-up time: process start to the first timed operation.
        setup_s = time.perf_counter() - PROCESS_START
        workload.measure(state, args.seconds, tracer, out)
        if tracer is not None:
            tracer.phase = "verify"
        workload.verify(state, out, args.seed)
    finally:
        if state is not None:
            workload.close(state)
        shutil.rmtree(work_root, ignore_errors=True)

    out.metrics["setup_s"] = setup_s
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if tracer is not None:
        figures = per_layer_metrics(names, tracer, out)
    else:
        figures = out.metrics
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    printed = {n: {"value": float(figures[n]), "unit": units[n]} for n in names}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(ROOT),
        "host": host_fingerprint(),
        "attempted": out.attempted,
        "failed": out.failed,
        "correct": out.correct,
        "rounds": out.rounds,
        "import_s": import_s,
        "metrics": printed,
        "end_to_end": out.metrics,
        "detail": out.detail,
        "checks": out.checks,
    }
    path = args.record or record_path(OUT_DIR / "records", record)
    if tracer is not None:
        record["per_layer"] = figures
        record["counts"] = out.counts
        record["spans"] = {
            phase: tracer.self_times(phase) for phase in ("setup", MEASURE)
        }
        record["items"] = tracer.items
        record["trace_file"] = str(path.with_suffix(".spans.json"))
        tracer.dump(Path(record["trace_file"]))
    write_record(path, record)

    for c in out.checks:
        if not c["ok"]:
            print(f"check failed: {c['check']}: {c['detail']}", file=sys.stderr)
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": printed,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
