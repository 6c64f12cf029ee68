"""Seeded input generation: Eclipse-catalog telemetry with Table-2 injectors.

Everything the program sees is built here from ``--seed``: job telemetry
from the ``hpc-node`` scenario's job runner and HPAS injectors, and the
labels the checks score against.  The program receives only these inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.anomalies.suite import MemLeak
from repro.scenarios import get_scenario
from repro.telemetry.frame import NodeSeries
from repro.telemetry.preprocessing import standard_preprocess
from repro.util.rng import derive_seed
from repro.workloads import JobRunner, JobSpec
from repro.workloads.cluster import JobResult


#: Node ranks an anomalous job's injector runs on.  Two anomalous nodes per
#: job double the positives an AUC is computed over at no extra request cost.
ANOMALOUS_RANKS = (0, 1)


def eclipse_class():
    """The single node class of the ``hpc-node`` scenario (96 metrics)."""
    return get_scenario("hpc-node").classes[0]


@dataclass(frozen=True)
class NodeRun:
    """One node's telemetry for one job: raw sampler view plus clean series."""

    job_id: int
    component_id: int
    raw: NodeSeries
    clean: NodeSeries
    label: int


def run_jobs(specs: list[JobSpec], seed: int) -> list[JobResult]:
    cls = eclipse_class()
    runner = JobRunner(cls.cluster, catalog=cls.catalog, seed=seed)
    return [runner.run(spec) for spec in specs]


def node_runs(result: JobResult) -> list[NodeRun]:
    """Split a job into per-node runs with clean (counter-differenced) series."""
    catalog = eclipse_class().catalog
    out = []
    for comp in result.component_ids:
        raw = result.frame.node_series(result.spec.job_id, comp)
        clean = standard_preprocess(raw, catalog.counter_names, trim_seconds=0.0)
        out.append(NodeRun(result.spec.job_id, comp, raw, clean, result.node_label(comp)))
    return out


def campaign_specs(
    rng: np.random.Generator,
    *,
    first_job: int,
    n_healthy: int,
    n_anomalous: int,
    nodes: int,
    duration_s: int,
) -> list[JobSpec]:
    """Healthy jobs then anomalous ones; apps and injectors cycle the suites.

    Each anomalous job carries one Table-2 injector on a subset of its nodes
    (ranks :data:`ANOMALOUS_RANKS`), as the paper's collection campaigns do.
    """
    cls = eclipse_class()
    apps = cls.apps
    injectors = cls.injectors
    app_order = rng.permutation(len(apps))
    specs = []
    for i in range(n_healthy + n_anomalous):
        anomalies = {}
        if i >= n_healthy:
            injector = injectors[(i - n_healthy) % len(injectors)]
            anomalies = {rank: injector for rank in ANOMALOUS_RANKS if rank < nodes}
        specs.append(JobSpec(
            job_id=first_job + i,
            app=apps[int(app_order[i % len(apps)])],
            n_nodes=nodes,
            duration_s=duration_s,
            anomalies=anomalies,
        ))
    return specs


def history(
    seed: int,
    *,
    n_healthy: int,
    n_anomalous: int,
    nodes: int,
    duration_s: int,
    first_job: int = 1,
    start_s: float = 0.0,
) -> list[JobResult]:
    """A completed, labelled campaign (jobs run back to back from *start_s*)."""
    rng = np.random.default_rng(seed)
    specs = campaign_specs(
        rng, first_job=first_job, n_healthy=n_healthy, n_anomalous=n_anomalous,
        nodes=nodes, duration_s=duration_s,
    )
    timed = [
        JobSpec(job_id=s.job_id, app=s.app, n_nodes=s.n_nodes,
                duration_s=s.duration_s, anomalies=s.anomalies,
                start_time=start_s + float(i * duration_s))
        for i, s in enumerate(specs)
    ]
    return run_jobs(timed, derive_seed(rng))


def leak_injector(onset_fraction: float) -> MemLeak:
    """The strongest Table-2 leak (10 MB every second), starting mid-job."""
    return MemLeak(10.0, 1.0, start_fraction=onset_fraction)


def seal_history(results: list[JobResult], root, seed: int):
    """Aggregate a campaign into an on-disk HistStore and seal it.

    The samplers, the aggregation hop (with its default collection faults)
    and the store are the program's own; every row ends up in immutable
    segments, as a deployment's completed-job history would.
    """
    from repro.hist import HistStore
    from repro.monitoring import Aggregator

    catalog = eclipse_class().catalog
    store = HistStore(root)
    store.register_schema(catalog.schema())
    Aggregator(catalog, store, seed=seed).collect_campaign(results)
    store.flush()
    return store


def labels_by_node(results: list[JobResult]) -> dict[tuple[int, int], int]:
    return {
        (r.spec.job_id, comp): r.node_label(comp)
        for r in results for comp in r.component_ids
    }

