"""Traced-run report: per-layer table, reconciliation and tracing overhead.

    python3 perfbench/report.py [--seed 1]

For each workload of ``BENCHMARK.json`` it runs the benchmark once untraced
and once traced on the same seed, for ``run_seconds``, then prints

* per layer: calls, self time and total time per measured round, and the
  set-up phase's self time (the traced run wraps the program's public entry
  points; see tracing.py), plus the per-layer counts;
* the reconciliation: the traced spans' self times summed over the measured
  phase (everything the single thread did inside the program) against the
  untraced run's wall clock of the same timed operations, per round;
* the tracing overhead: traced against untraced wall clock per round.

Exit status is 1 when a reconciliation falls outside ``TOLERANCE``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from steady import run_once  # noqa: E402

#: Allowed |traced self-time sum / untraced wall - 1| per round.  The two
#: figures come from separate processes, so the tolerance covers
#: process-to-process noise as well as wall time outside any traced call.
TOLERANCE = 0.15


def run_pair(workload: str, seed: int, seconds: float, tmp: Path) -> tuple[dict, dict]:
    records = []
    for trace in (0, 1):
        path = tmp / f"{workload}-{trace}.json"
        run_once(workload, seed, seconds, trace, record=path)
        records.append(json.loads(path.read_text()))
    return records[0], records[1]


def table(untraced: dict, traced: dict) -> tuple[list[str], bool]:
    rounds = traced["rounds"]
    measure = traced["spans"]["measure"]
    setup = traced["spans"]["setup"]
    names = sorted(set(measure) | set(setup),
                   key=lambda n: -measure.get(n, {}).get("self_s", 0.0))
    lines = [f"  {'layer span':<26}{'calls/rnd':>10}{'self ms/rnd':>13}"
             f"{'total ms/rnd':>14}{'setup self s':>14}"]
    for name in names:
        m = measure.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        lines.append(
            f"  {name:<26}{m['calls'] / rounds:>10.1f}{m['self_s'] / rounds * 1e3:>13.2f}"
            f"{m['total_s'] / rounds * 1e3:>14.2f}"
            f"{setup.get(name, {}).get('self_s', 0.0):>14.3f}")
    counts = {k: v for k, v in traced["per_layer"].items()
              if not k.endswith("_s") and v}
    lines.append("  counts per round: " + ", ".join(
        f"{k}={v:.4g}" for k, v in sorted(counts.items())))

    traced_self = sum(m["self_s"] for m in measure.values()) / rounds
    traced_wall = traced["detail"]["timed_wall_s"] / rounds
    untraced_wall = untraced["detail"]["timed_wall_s"] / untraced["rounds"]
    ratio = traced_self / untraced_wall
    ok = abs(ratio - 1.0) <= TOLERANCE
    lines.append(
        f"  reconciliation: traced self-time sum {traced_self * 1e3:.1f} ms/round vs "
        f"untraced wall {untraced_wall * 1e3:.1f} ms/round -> {ratio:.3f} "
        f"({'within' if ok else 'OUTSIDE'} ±{TOLERANCE:.0%}); spans cover "
        f"{traced_self / traced_wall:.1%} of the traced run's timed wall")
    lines.append(
        f"  tracing overhead: traced wall {traced_wall * 1e3:.1f} ms/round vs untraced "
        f"{untraced_wall * 1e3:.1f} ms/round -> {traced_wall / untraced_wall - 1:+.1%}")
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    all_ok = True
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        for workload in (w["name"] for w in bench["workloads"]):
            untraced, traced = run_pair(workload, args.seed, bench["run_seconds"], Path(tmp))
            lines, ok = table(untraced, traced)
            all_ok &= ok
            print(f"{workload} (seed {args.seed}, {traced['rounds']} traced rounds, "
                  f"{untraced['rounds']} untraced)")
            print("\n".join(lines), flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
