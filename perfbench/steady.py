"""Steadiness check: two sets of runs of one commit, compared per metric.

    python3 perfbench/steady.py [--first-seed 1]

Each set runs every workload of ``BENCHMARK.json`` once per seed, for its
``run_seconds`` (set A on the ten seeds from ``--first-seed``, set B on the
next ten), one process at a time.  For every end-to-end metric it prints
each set's median and quartiles and the spread (quartile distance over the
median), and says whether

* each spread is within the metric's bound,
* set B's median is no worse than set A's by more than the bound,
* the share of failed operations is the same in every run.

Exit status is 0 only if everything holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: runs per set
RUNS = 10


def run_once(workload: str, seed: int, seconds: float, trace: int = 0,
             record: Path | None = None) -> dict:
    """Run the benchmark in a child process; returns its result line."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if record is not None:
        cmd += ["--record", str(record)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def compare(bench: dict, sets: list[list[dict]]) -> tuple[list[str], bool]:
    lines, ok = [], True
    shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
    if len(shares) != 1:
        ok = False
    lines.append(f"  failed share per run: {sorted(shares)}"
                 + ("" if len(shares) == 1 else "  <- differs"))
    if not all(r["correct"] for runs in sets for r in runs):
        ok = False
        lines.append("  a run reported correct=false")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        stats = [spread([r["metrics"][name]["value"] for r in runs]) for runs in sets]
        drift = worse_by(metric, stats[0][0], stats[1][0])
        spread_ok = all(s[3] <= bound for s in stats)
        drift_ok = drift <= bound
        ok &= spread_ok and drift_ok
        cells = "  ".join(
            f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}] spread {s[3]:.3f}" for s in stats)
        flag = "" if spread_ok and drift_ok else "  <- outside bound"
        lines.append(f"  {name:<16} {cells}  B worse by {drift:+.3f} "
                     f"(bound {bound}){flag}")
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    all_ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for k in range(2):
            first = args.first_seed + k * RUNS
            sets.append([run_once(workload, seed, bench["run_seconds"])
                         for seed in range(first, first + RUNS)])
        lines, ok = compare(bench, sets)
        all_ok &= ok
        print(f"{workload}: {'steady' if ok else 'NOT steady'} "
              f"({RUNS} runs per set; median [q1, q3] for set A, then set B)")
        print("\n".join(lines), flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
