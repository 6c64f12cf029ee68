"""``job-dashboards``: the post-run job dashboards of paper Fig. 4.

Completed, labelled jobs are sealed into on-disk ``HistStore`` segments in
set-up, and a default (resampling) deployment is trained on an earlier
campaign of the same store.  One operator then works through every served
job, waiting for each reply (closed loop) through ``ServingGateway.request``:
``anomaly_detection`` once per job, ``node_analysis`` once per job, and
``anomaly_detection`` with ``explain=True`` for every job the first request
flagged.  One pass over the served jobs is one round; each round starts
with a fresh gateway and an empty feature cache, so every round repeats the
same cold work.

Throughput and CPU figures cover the ``anomaly_detection`` and
``node_analysis`` requests.  How many jobs get explained, and how long
each CoMTE search takes, depends on what the detector flags for the
seed's jobs, so explanation latency is recorded but not gated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from common import Clock, Outcome, median, roc_auc
from inputs import eclipse_class, history, labels_by_node, seal_history

NODES_PER_JOB = 4
JOB_S = 300
TRAIN_HEALTHY, TRAIN_ANOMALOUS = 12, 10
#: every seed serves the whole Table-2 suite once
SERVED_HEALTHY, SERVED_ANOMALOUS = 6, 10
FIRST_SERVED = 101
HEALTHY_REFERENCES = 6
AUC_FLOOR = 0.5


@dataclass
class State:
    catalog: object
    store: object
    generator: object
    pipeline: object
    detector: object
    references: list
    served: list[int]
    labels: dict
    rows_per_job: dict
    responses: list = field(default_factory=list)


def fit_default_deployment(series, labels, seed: int, artifacts, **detector_kwargs):
    """Default resampling pipeline + a Prodigy VAE, saved by ModelTrainer."""
    from repro.core import ProdigyDetector
    from repro.pipeline import DataPipeline, ModelTrainer

    pipeline = DataPipeline(n_features=256)
    samples = pipeline.engine.extract(series, labels)
    pipeline.fit(samples)
    detector = ProdigyDetector(seed=seed, **detector_kwargs)
    trainer = ModelTrainer(pipeline, detector, artifacts)
    trainer.train(samples)
    return pipeline, detector


def setup(seed: int, workdir):
    from repro.pipeline import DataGenerator

    catalog = eclipse_class().catalog
    rng = np.random.default_rng(seed)
    train = history(seed, n_healthy=TRAIN_HEALTHY, n_anomalous=TRAIN_ANOMALOUS,
                    nodes=NODES_PER_JOB, duration_s=JOB_S)
    served = history(seed + 1, n_healthy=SERVED_HEALTHY, n_anomalous=SERVED_ANOMALOUS,
                     nodes=NODES_PER_JOB, duration_s=JOB_S, first_job=FIRST_SERVED,
                     start_s=float(len(train) * JOB_S))
    store = seal_history(train + served, workdir / "store", seed)
    generator = DataGenerator(store, catalog)
    labels = labels_by_node(train + served)
    series = [generator.node_series(r.spec.job_id, c)
              for r in train for c in r.component_ids]
    y = np.array([labels[(s.job_id, s.component_id)] for s in series])
    # A short schedule keeps set-up cheap; retrain measures the full one.
    pipeline, detector = fit_default_deployment(
        series, y, seed, workdir / "artifacts",
        epochs=200, batch_size=64, learning_rate=1e-3)
    references = [s for s, label in zip(series, y) if label == 0][:HEALTHY_REFERENCES]
    # Healthy and anomalous jobs complete in no particular order.
    order = [int(j) for j in rng.permutation([r.spec.job_id for r in served])]
    rows = {r.spec.job_id: r.spec.n_nodes * r.spec.duration_s for r in served}
    return State(catalog, store, generator, pipeline, detector, references,
                 order, labels, rows)


def _gateway(state: State):
    from repro.pipeline import AnomalyDetectorService
    from repro.serving import AnalyticsService, ServingGateway, TenantSpec

    service = AnalyticsService(
        AnomalyDetectorService(state.generator, state.pipeline, state.detector),
        state.references,
    )
    return ServingGateway(service, [TenantSpec(
        "operator", priority="interactive", rate=1e9, burst=1e9,
        queue_capacity=1_000_000, p99_slo_ms=1e9)])


def measure(state: State, seconds: float, tracer, out: Outcome) -> None:
    served, rounds = Clock(), Clock()
    dashboard_ms, node_ms, explain_ms, round_cpu = [], [], [], []
    wall_rates, cpu_rates = [], []
    rows = 0
    deadline = time.perf_counter() + seconds
    while True:
        cache = state.pipeline.engine.cache
        cache.clear()
        gateway = _gateway(state)
        responses = []
        now = 0.0
        round_cpu0 = rounds.cpu
        with rounds:
            for job in state.served:
                if tracer is not None:
                    tracer.op = (out.rounds, job)
                now += 1.0
                wall0, cpu0 = served.wall, served.cpu
                with served:
                    t = time.perf_counter()
                    first = gateway.request("operator", "anomaly_detection", job, now=now)
                    t1 = time.perf_counter()
                    nodes = gateway.request("operator", "node_analysis", job, now=now)
                    t2 = time.perf_counter()
                dashboard_ms.append((t1 - t) * 1e3)
                node_ms.append((t2 - t1) * 1e3)
                job_rows = state.rows_per_job[job]
                wall_rates.append(job_rows / (served.wall - wall0))
                cpu_rates.append(job_rows / (served.cpu - cpu0))
                explained = None
                if first["n_anomalous"]:
                    t = time.perf_counter()
                    explained = gateway.request("operator", "anomaly_detection", job,
                                                now=now, explain=True)
                    explain_ms.append((time.perf_counter() - t) * 1e3)
                responses.append((job, first, nodes, explained))
                out.attempted += 2 + (explained is not None)
                rows += state.rows_per_job[job]
        round_cpu.append(rounds.cpu - round_cpu0)
        stats = cache.stats()
        out.count("runtime.feature_cache_hits", stats["hits"])
        out.count("runtime.feature_cache_misses", stats["misses"])
        out.count("serving.cache_hits", gateway.cache.stats()["hits"])
        state.responses.extend(responses)
        out.rounds += 1
        if time.perf_counter() >= deadline:
            break
    out.metrics.update({
        "rows_per_s": median(wall_rates),
        "rows_per_cpu_s": median(cpu_rates),
        "op_p50_ms": median(dashboard_ms),
        "panel_p50_ms": median(node_ms),
    })
    out.detail.update({
        "dashboard_requests": len(dashboard_ms),
        "dashboard_p50_ms": median(dashboard_ms),
        "node_analysis_p50_ms": median(node_ms),
        "explain_requests": len(explain_ms),
        "explain_p50_ms": median(explain_ms) if explain_ms else None,
        "dashboards_cpu_s": median(round_cpu),
        "round_wall_s": rounds.wall / out.rounds,
        "timed_wall_s": rounds.wall,
        "served_rows": rows,
        "served_rows_per_s": rows / served.wall,
    })


def verify(state: State, out: Outcome, seed: int) -> None:
    catalog_names = set(state.catalog.metric_names)
    scores, labels = [], []
    node_errors, stat_errors, explain_errors = [], [], []
    for job, first, nodes, explained in state.responses:
        expected = {c for (j, c) in state.labels if j == job}
        got = {n["component_id"] for n in first["nodes"]}
        if got != expected:
            node_errors.append(f"job {job}: nodes {sorted(got)} vs {sorted(expected)}")
        for n in first["nodes"]:
            flagged = n["prediction"] == "anomalous"
            if flagged != (n["anomaly_score"] > n["threshold"]):
                node_errors.append(f"job {job} node {n['component_id']}: prediction")
            scores.append(n["anomaly_score"])
            labels.append(state.labels[(job, n["component_id"])])
        if {n["component_id"] for n in nodes["nodes"]} != expected:
            node_errors.append(f"job {job}: node_analysis nodes")
        for n in nodes["nodes"]:
            for name, st in n["metrics"].items():
                if name not in catalog_names or not st["min"] <= st["mean"] <= st["max"]:
                    stat_errors.append(f"job {job} node {n['component_id']} {name}: {st}")
        if explained is not None:
            for e in explained["explanations"]:
                if "error" in e or not set(e["metrics"]) <= catalog_names:
                    explain_errors.append(f"job {job}: {e}")
                elif e["p_anomalous_after"] > e["p_anomalous_before"]:
                    explain_errors.append(f"job {job}: probability rose {e}")
    out.check("every node listed, prediction == score > threshold", not node_errors,
              "; ".join(node_errors[:3]))
    out.check("node_analysis stats ordered and catalog-named", not stat_errors,
              "; ".join(stat_errors[:3]))
    out.check("explanations substitute catalog metrics and lower P(anomalous)",
              not explain_errors, "; ".join(explain_errors[:3]))
    auc = roc_auc(scores, labels)
    out.detail["auc"] = auc
    out.check("node-score ROC-AUC clears the floor", auc >= AUC_FLOOR,
              f"AUC {auc:.3f}, floor {AUC_FLOOR}")


def close(state: State) -> None:
    state.pipeline.engine.close()
