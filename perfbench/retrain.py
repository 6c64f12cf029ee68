"""``retrain``: rebuild the deployment from sealed history.

One round is the whole retraining sequence over a sealed ``HistStore``
history: ``DataGenerator`` -> ``DataPipeline.fit`` -> ``ModelTrainer.train``
-> ``ModelRegistry.register_artifacts`` + ``activate`` ->
``ModelRegistry.load`` -> ``StreamingDetector.calibrate`` on a healthy run.
After it, the administrator opens the ``history`` panel of the window the
model was trained on, through a fresh gateway over the reloaded model.
Every round repeats the same work from the same inputs, so the weights it
trains are the same in every round.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from common import Clock, Outcome, median, roc_auc
from inputs import eclipse_class, history, labels_by_node, seal_history
from job_dashboards import fit_default_deployment

NODES_PER_JOB = 4
JOB_S = 300
TRAIN_HEALTHY, TRAIN_ANOMALOUS = 24, 10
#: the held-out jobs cover the whole Table-2 suite once
HELDOUT_HEALTHY, HELDOUT_ANOMALOUS = 6, 10
FIRST_HELDOUT = 101
AUC_FLOOR = 0.5


@dataclass
class State:
    seed: int
    store: object
    catalog: object
    train_jobs: list[int]
    heldout_jobs: list[int]
    labels: dict
    window: tuple[float, float]
    rows: int
    workdir: object
    digests: list[str] = field(default_factory=list)
    last: tuple | None = None   # (pipeline, detector, reloaded pipeline, detector)
    thresholds: list[float] = field(default_factory=list)
    panel: dict | None = None


def weight_digest(detector) -> str:
    weights, _ = detector.get_state()
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(weights):
        h.update(name.encode())
        h.update(np.ascontiguousarray(weights[name]).tobytes())
    return h.hexdigest()


def setup(seed: int, workdir):
    train = history(seed, n_healthy=TRAIN_HEALTHY, n_anomalous=TRAIN_ANOMALOUS,
                    nodes=NODES_PER_JOB, duration_s=JOB_S)
    heldout = history(seed + 1, n_healthy=HELDOUT_HEALTHY, n_anomalous=HELDOUT_ANOMALOUS,
                      nodes=NODES_PER_JOB, duration_s=JOB_S, first_job=FIRST_HELDOUT,
                      start_s=float(len(train) * JOB_S))
    store = seal_history(train + heldout, workdir / "store", seed)
    rows = sum(r.spec.n_nodes * r.spec.duration_s for r in train)
    return State(
        seed=seed,
        store=store,
        catalog=eclipse_class().catalog,
        train_jobs=[r.spec.job_id for r in train],
        heldout_jobs=[r.spec.job_id for r in heldout],
        labels=labels_by_node(train + heldout),
        window=(0.0, float(len(train) * JOB_S)),
        rows=rows,
        workdir=workdir,
    )


def _retrain(state: State, round_no: int, registry):
    """The measured retraining sequence; returns the fitted and reloaded pairs."""
    from repro.monitoring import StreamingDetector
    from repro.pipeline import DataGenerator

    generator = DataGenerator(state.store, state.catalog)
    series = [s for job in state.train_jobs for s in generator.job_series(job)]
    labels = np.array([state.labels[(s.job_id, s.component_id)] for s in series])
    staging = state.workdir / f"staging{round_no}"
    pipeline, detector = fit_default_deployment(
        series, labels, state.seed, staging)
    version = registry.register_artifacts(staging, move=True).version
    registry.activate(version, reason="retrain")
    loaded_pipeline, loaded_detector = registry.load()
    healthy = next(s for s, y in zip(series, labels) if y == 0)
    stream = StreamingDetector(loaded_pipeline, loaded_detector)
    threshold = stream.calibrate([healthy])
    return pipeline, detector, loaded_pipeline, loaded_detector, generator, threshold


def measure(state: State, seconds: float, tracer, out: Outcome) -> None:
    from repro.lifecycle import ModelRegistry
    from repro.pipeline import AnomalyDetectorService
    from repro.serving import AnalyticsService, ServingGateway, TenantSpec

    registry = ModelRegistry(state.workdir / "registry")
    wall_ms, panel_ms, cpu_s = [], [], []
    loop = Clock()
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.op = out.rounds
        cpu0, wall0 = loop.cpu, loop.wall
        with loop:
            result = _retrain(state, out.rounds, registry)
        wall_ms.append((loop.wall - wall0) * 1e3)
        cpu_s.append(loop.cpu - cpu0)
        pipeline, detector, lp, ld, generator, threshold = result
        state.last = result
        state.digests.append(weight_digest(detector))
        state.thresholds.append(threshold)

        service = AnalyticsService(AnomalyDetectorService(generator, lp, ld),
                                   history=state.store)
        gateway = ServingGateway(service, [TenantSpec(
            "admin", priority="interactive", rate=1e9, burst=1e9,
            queue_capacity=1_000_000, p99_slo_ms=1e9)])
        t = time.perf_counter()
        panel = gateway.request("admin", "history", 0, now=float(out.rounds),
                                t0=state.window[0], t1=state.window[1])
        panel_ms.append((time.perf_counter() - t) * 1e3)
        state.panel = panel
        out.count("core.epochs", detector.history_.n_epochs)
        out.count("serving.cache_hits", gateway.cache.stats()["hits"])
        stats = pipeline.engine.cache.stats()
        out.count("runtime.feature_cache_hits", stats["hits"])
        out.count("runtime.feature_cache_misses", stats["misses"])
        out.attempted += 2
        out.rounds += 1
        if time.perf_counter() >= deadline:
            break
    out.metrics.update({
        "rows_per_s": state.rows / median(wall_ms) * 1e3,
        "rows_per_cpu_s": state.rows / median(cpu_s),
        "op_p50_ms": median(wall_ms),
        "panel_p50_ms": median(panel_ms),
    })
    out.detail.update({
        "retrain_s": median(wall_ms) / 1e3,
        "retrain_cpu_s": median(cpu_s),
        "epochs": state.last[1].history_.n_epochs,
        "weight_digest": state.digests[-1],
        "timed_wall_s": loop.wall + sum(panel_ms) / 1e3,
        "window_threshold": state.thresholds[-1],
    })


def verify(state: State, out: Outcome, seed: int) -> None:
    pipeline, detector, loaded_pipeline, loaded_detector, generator, threshold = state.last
    out.check("every round trains the same weights", len(set(state.digests)) == 1,
              f"{len(set(state.digests))} digests over {len(state.digests)} rounds")
    out.check("window threshold is finite and positive",
              all(np.isfinite(t) and t > 0 for t in state.thresholds),
              f"thresholds {state.thresholds}")

    series = [s for job in state.heldout_jobs for s in generator.job_series(job)]
    labels = [state.labels[(s.job_id, s.component_id)] for s in series]
    features = pipeline.transform_series(series)
    scores = detector.anomaly_score(features)
    loaded = loaded_detector.anomaly_score(loaded_pipeline.transform_series(series))
    out.check("reloaded deployment scores bit-identically",
              np.array_equal(scores, loaded), "scores differ after registry round trip")
    auc = roc_auc(scores, labels)
    out.detail["heldout_auc"] = auc
    out.check("held-out ROC-AUC clears the floor", auc >= AUC_FLOOR,
              f"AUC {auc:.3f}, floor {AUC_FLOOR}")

    samplers = state.panel["rollup"]["samplers"]
    want = {s: state.store.query(s, t0=state.window[0], t1=state.window[1]).n_rows
            for s in state.store.samplers}
    got = {s: e["rows"] for s, e in samplers.items()}
    out.check("history panel counts the window's stored rows", got == want,
              f"panel {got}, store {want}")


def close(state: State) -> None:
    if state.last is not None:
        state.last[0].engine.close()
        state.last[2].engine.close()
