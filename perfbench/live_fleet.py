"""``live-fleet``: 1 Hz telemetry of a running fleet, ingest -> verdict.

Thirty-two nodes in sixteen two-node job slots replay telemetry tick by
tick.  Each slot runs jobs back to back and the slots are staggered, so
jobs start and end at different ticks and windows come due on different
ticks.  One tick is one second of telemetry and one operation: LDMS samples
every node at 1 Hz and the aggregator forwards each sample set as it
arrives, so each tick carries one row per node.  The tick's sampler rows go
to ``HistStore.ingest`` (one frame per sampler), every node's one-row chunk
goes to ``FleetCoordinator.submit``, and one ``pump`` scores what came due.
After every ``ROUND_TICKS`` ticks an operator fetches three panels through
the gateway on a virtual clock: the trailing-window ``history`` panel, the
whole-store ``history`` panel and the ``fleet`` panel.

The whole-store panel is served stale by the response cache (it is keyed
on dashboard, job, params and model version only), so it is counted as a
failed operation in every round; see README.md for the reproduction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from common import Clock, Outcome, median, tail_percentile
from inputs import eclipse_class, history, leak_injector, node_runs, run_jobs

SLOTS = 16
NODES_PER_JOB = 2
JOB_S = 240
#: slot k's jobs start k * STAGGER_S seconds apart; a stagger coprime to
#: EVALUATE_EVERY puts every slot's due windows on ticks of their own
STAGGER_S = 13
#: LDMS samples at 1 Hz: one row per node per tick
TICK_S = 1
#: ticks between operator panel refreshes (a 10 s dashboard refresh)
ROUND_TICKS = 10
#: the program's StreamingDetector defaults
WINDOW_S = 180.0
EVALUATE_EVERY = 30
CONSECUTIVE_ALERTS = 2
#: nodes per job of the labelled campaign the deployment is trained on
TRAIN_NODES = 4
#: job templates replayed cyclically, four per Eclipse application;
#: template 0 carries the memory leak
TEMPLATES = 24
LEAK_ONSET = 0.25
#: replay origin: timestamps are epoch-like, never negative
ORIGIN = 1000.0
#: ticks that must emit verdicts for the p90 verdict latency (10 beyond it)
MIN_VERDICT_TICKS = 100
SCORE_TOLERANCE = 1e-9
SAMPLED_SCORES = 48
#: healthy rows handed to ``calibrate``: three due windows
CALIBRATION_ROWS = 180


@dataclass
class State:
    sampler_cols: dict[str, tuple[np.ndarray, tuple[str, ...]]]
    templates: list[list]            # per template: list of NodeRun (4 nodes)
    pipeline: object
    detector: object
    store: object
    fleet: object
    gateway: object
    threshold: float
    rows_written: int = 0            # rows per sampler (one per node-second)
    rows_by_tick: list[int] = field(default_factory=list)
    chunks: dict = field(default_factory=dict)       # key -> [(ts array)]
    node_clean: dict = field(default_factory=dict)   # key -> (template run, start)
    verdicts: list = field(default_factory=list)
    submitted: int = 0
    panel_errors: list = field(default_factory=list)


def _job_start(slot: int, m: int) -> float:
    """Start of the *m*-th job of *slot*; slot k's first job began k * STAGGER_S
    before the replay's origin."""
    return ORIGIN - slot * STAGGER_S + m * JOB_S


def _slot_job(slot: int, ts: float) -> int:
    """Index of the job *slot* runs at timestamp *ts*."""
    return int((ts - _job_start(slot, 0)) // JOB_S)


def _job_identity(slot: int, m: int) -> tuple[int, int]:
    """(job id, template index) of the *m*-th job of *slot*."""
    index = slot + SLOTS * m
    return index + 1, index % TEMPLATES


def _component(slot: int, rank: int) -> int:
    return 1 + slot * NODES_PER_JOB + rank


def _fit_deployment(seed: int):
    """Resample-free deployment: the rolling engine refuses resampling."""
    from repro.core import ProdigyDetector
    from repro.features import FeatureExtractor
    from repro.pipeline import DataPipeline
    from repro.telemetry.frame import NodeSeries

    # Every seed trains on the whole Table-2 suite: which features chi-square
    # selects decides which rolling kernels (or batch fallbacks) run.
    campaign = history(seed + 101, n_healthy=6, n_anomalous=10,
                       nodes=TRAIN_NODES, duration_s=JOB_S)
    runs = [r for job in campaign for r in node_runs(job)]
    length = int(WINDOW_S) + 1
    windows, labels = [], []
    for run in runs:
        c = run.clean
        for lo in range(0, c.n_timestamps - length + 1, 2 * EVALUATE_EVERY):
            windows.append(NodeSeries(run.job_id, run.component_id,
                                      c.timestamps[lo:lo + length],
                                      c.values[lo:lo + length], c.metric_names))
            labels.append(run.label)
    labels = np.asarray(labels)
    pipeline = DataPipeline(FeatureExtractor(resample_points=None), n_features=256)
    _, samples = pipeline.fit_from_series(windows, labels)
    detector = ProdigyDetector(epochs=100, batch_size=64, learning_rate=1e-3,
                               seed=seed).fit(samples.features, labels)
    # Calibration scores one window per call, so it gets one short run.
    first = next(r.clean for r in runs if r.label == 0)
    calib = NodeSeries(first.job_id, first.component_id, first.timestamps[:CALIBRATION_ROWS],
                       first.values[:CALIBRATION_ROWS], first.metric_names)
    return pipeline, detector, calib


def setup(seed: int, workdir):
    from repro.fleet import FleetCoordinator
    from repro.hist import HistStore
    from repro.pipeline import AnomalyDetectorService
    from repro.serving import AnalyticsService, SeriesBank, ServingGateway, TenantSpec
    from repro.workloads import JobSpec

    cls = eclipse_class()
    catalog = cls.catalog
    rng = np.random.default_rng(seed)
    apps = np.concatenate([rng.permutation(len(cls.apps))
                           for _ in range(TEMPLATES // len(cls.apps))])
    specs = [
        JobSpec(job_id=t + 1, app=cls.apps[int(apps[t])],
                n_nodes=NODES_PER_JOB, duration_s=JOB_S,
                anomalies={0: leak_injector(LEAK_ONSET)} if t == 0 else {})
        for t in range(TEMPLATES)
    ]
    templates = [node_runs(job) for job in run_jobs(specs, seed)]
    raw_names = templates[0][0].raw.metric_names
    sampler_cols = {}
    for sampler in catalog.samplers():
        names = catalog.sampler_metrics(sampler)
        sampler_cols[sampler] = (np.array([raw_names.index(n) for n in names]), names)

    pipeline, detector, calib = _fit_deployment(seed)
    store = HistStore(workdir / "store")
    store.register_schema(catalog.schema())
    fleet = FleetCoordinator(
        pipeline, detector, n_workers=2, transport="inline",
        stream_kwargs=dict(window_seconds=WINDOW_S, evaluate_every=EVALUATE_EVERY,
                           consecutive_alerts=CONSECUTIVE_ALERTS,
                           streaming_mode="rolling"),
    )
    threshold = fleet.calibrate([calib], percentile=99.0)
    service = AnalyticsService(
        AnomalyDetectorService(SeriesBank([calib]), pipeline, detector),
        fleet=fleet, history=store,
    )
    gateway = ServingGateway(service, [TenantSpec(
        "operator", priority="interactive", rate=1e9, burst=1e9,
        queue_capacity=1_000_000, p99_slo_ms=1e9)])
    # The operator opens the whole-store panel when monitoring starts.
    gateway.request("operator", "history", 0, now=0.0)
    return State(sampler_cols, templates, pipeline, detector, store,
                 fleet, gateway, threshold)


def _tick_inputs(state: State, tick: int):
    """The tick's per-sampler frames and per-node chunks (not timed)."""
    from repro.telemetry.frame import NodeSeries, TelemetryFrame

    a = ORIGIN + tick * TICK_S
    b = a + TICK_S
    raw_parts, chunks, ended = [], [], []
    for slot in range(SLOTS):
        for m in range(_slot_job(slot, a), _slot_job(slot, b - 1) + 1):
            start = _job_start(slot, m)
            lo = int(max(a, start) - start)
            hi = int(min(b, start + JOB_S) - start)
            if hi <= lo:
                continue
            job_id, template = _job_identity(slot, m)
            for rank, run in enumerate(state.templates[template]):
                comp = _component(slot, rank)
                ts = run.raw.timestamps[lo:hi] + start
                raw_parts.append((job_id, comp, ts, run.raw.values[lo:hi]))
                key = (job_id, comp)
                chunks.append(NodeSeries(job_id, comp, ts, run.clean.values[lo:hi],
                                         run.clean.metric_names))
                state.node_clean.setdefault(key, (run, start))
                if hi == JOB_S:
                    ended.append(key)
    job = np.concatenate([np.full(len(p[2]), p[0]) for p in raw_parts])
    comp = np.concatenate([np.full(len(p[2]), p[1]) for p in raw_parts])
    ts = np.concatenate([p[2] for p in raw_parts])
    vals = np.vstack([p[3] for p in raw_parts])
    frames = {
        sampler: TelemetryFrame(job, comp, ts, vals[:, cols], names)
        for sampler, (cols, names) in state.sampler_cols.items()
    }
    return frames, chunks, ended, len(ts)


def _counters(state: State) -> dict[str, float]:
    """Per-layer counts from the program's own stats and status payloads."""
    counters = state.pipeline.engine.stats()["instrumentation"]["counters"]
    totals = state.fleet.status()["totals"]
    return {
        "features.ring_evictions": counters.get("ring_evictions", 0),
        "features.rolling_fallback_calc_runs": counters.get("rolling_fallback_calcs", 0),
        "fleet.shed_chunks": totals["shed_chunks"],
        "fleet.backpressure_events": totals["backpressure_events"],
        "serving.cache_hits": state.gateway.cache.stats()["hits"],
    }


def measure(state: State, seconds: float, tracer, out: Outcome) -> None:
    before = _counters(state)
    loop, panels = Clock(), Clock()
    tick_latency, panel_ms, wall_rates, cpu_rates = [], [], [], []
    rows = 0
    stale = 0
    tick = 0
    deadline = time.perf_counter() + seconds
    while True:
        wall0, cpu0, rows0 = loop.wall, loop.cpu, rows
        for _ in range(ROUND_TICKS):
            frames, chunks, ended, n_rows = _tick_inputs(state, tick)
            if tracer is not None:
                tracer.op = tick
            submit_at = {}
            with loop:
                for sampler, frame in frames.items():
                    state.store.ingest(sampler, frame)
                for chunk in chunks:
                    submit_at[(chunk.job_id, chunk.component_id)] = time.perf_counter()
                    state.fleet.submit(chunk)
                verdicts = state.fleet.pump()
                done = time.perf_counter()
            if verdicts:
                first = min(submit_at[(v.job_id, v.component_id)] for v in verdicts)
                tick_latency.append((done - first) * 1e3)
            for v in verdicts:
                state.verdicts.append(v)
            for key in ended:
                owner = state.fleet.router.assign(key)
                state.fleet.workers[owner].reset_node(*key)
            for chunk in chunks:
                state.chunks.setdefault((chunk.job_id, chunk.component_id), []).append(
                    chunk.timestamps)
            state.submitted += len(chunks)
            state.rows_written += n_rows
            state.rows_by_tick.append(n_rows)
            rows += n_rows
            tick += 1
            out.attempted += 1
        wall_rates.append((rows - rows0) / (loop.wall - wall0))
        cpu_rates.append((rows - rows0) / (loop.cpu - cpu0))
        with panels:
            stale += _operator_round(state, tick, panel_ms)
        out.attempted += 3
        out.rounds += 1
        if (time.perf_counter() >= deadline
                and len(tick_latency) >= MIN_VERDICT_TICKS):
            break
    out.failed += stale
    for name, value in _counters(state).items():
        out.count(name, value - before[name])
    out.metrics.update({
        "rows_per_s": median(wall_rates),
        "rows_per_cpu_s": median(cpu_rates),
        "op_p50_ms": median(tick_latency),
        "panel_p50_ms": median(panel_ms),
    })
    out.detail.update({
        "ticks": tick,
        "verdict_ticks": len(tick_latency),
        "verdicts": len(state.verdicts),
        "stream_rows": rows,
        "stream_rows_per_s": rows / loop.wall,
        "stream_rows_per_cpu_s": rows / loop.cpu,
        "verdict_latency_p50_ms": median(tick_latency),
        "verdict_latency_p90_ms": tail_percentile(tick_latency, 90),
        "live_dashboard_p50_ms": median(panel_ms),
        "live_dashboard_samples": len(panel_ms),
        "stale_whole_store_panels": stale,
        "loop_wall_s": loop.wall,
        "loop_cpu_s": loop.cpu,
        "timed_wall_s": loop.wall + panels.wall,
    })


def _operator_round(state: State, tick: int, panel_ms: list) -> int:
    """Fetch the three panels; returns how many whole-store panels were stale."""
    now = float(tick * TICK_S)
    t0 = ORIGIN + (tick - ROUND_TICKS) * TICK_S
    t1 = ORIGIN + tick * TICK_S - 1
    expected_window = sum(state.rows_by_tick[-ROUND_TICKS:])
    start = time.perf_counter()
    trailing = state.gateway.request("operator", "history", 0, now=now, t0=t0, t1=t1)
    panel_ms.append((time.perf_counter() - start) * 1e3)
    rows = {s: e["rows"] for s, e in trailing["rollup"]["samplers"].items()}
    if set(rows.values()) != {expected_window} or len(rows) != len(state.sampler_cols):
        state.panel_errors.append(f"tick {tick}: window panel {rows}, written {expected_window}")

    whole = state.gateway.request("operator", "history", 0, now=now)
    reported = {s: e["rows"] for s, e in whole["rollup"]["samplers"].items()}
    fresh = (len(reported) == len(state.sampler_cols)
             and set(reported.values()) == {state.rows_written})

    fleet = state.gateway.request("operator", "fleet", 0, now=now)
    totals = fleet["totals"]
    if totals["submitted"] != state.submitted or totals["shed_chunks"] != 0:
        state.panel_errors.append(
            f"tick {tick}: fleet panel {totals['submitted']} submitted, "
            f"{state.submitted} made, {totals['shed_chunks']} shed")
    return 0 if fresh else 1


def _predicted_verdicts(chunk_ts: list[np.ndarray]) -> int:
    """Verdicts one node's chunk sequence must yield (the due-window rule).

    A window comes due once ``EVALUATE_EVERY`` new rows arrived since the
    last verdict, provided the window (rows no older than ``WINDOW_S``
    before the newest) holds at least 8 rows spanning half the window.
    """
    count, since = 0, 0
    seen = np.empty(0)
    for ts in chunk_ts:
        seen = np.concatenate([seen, ts])
        live = seen[seen >= ts[-1] - WINDOW_S]
        since += len(ts)
        if (since >= EVALUATE_EVERY and live.size >= 8
                and live[-1] - live[0] >= WINDOW_S * 0.5):
            count += 1
            since = 0
    return count


def verify(state: State, out: Outcome, seed: int) -> None:
    from repro.telemetry.frame import NodeSeries

    out.check("trailing-window and fleet panels agree with what was written",
              not state.panel_errors, "; ".join(state.panel_errors[:3]))
    verdicts = state.verdicts
    by_node: dict[tuple[int, int], list] = {}
    for v in verdicts:
        by_node.setdefault((v.job_id, v.component_id), []).append(v)

    # Verdict counts follow from chunk arithmetic alone.
    wrong = [k for k, ts in state.chunks.items()
             if _predicted_verdicts(ts) != len(by_node.get(k, ()))]
    out.check("verdicts per node match chunk arithmetic", not wrong,
              f"{len(wrong)} nodes differ, e.g. {wrong[:3]}")

    # Alert / streak follow from the calibrated threshold.
    bad = 0
    for seq in by_node.values():
        streak = 0
        for v in seq:
            streak = streak + 1 if v.anomaly_score > state.threshold else 0
            bad += (v.streak != streak) or (v.alert != (streak >= CONSECUTIVE_ALERTS))
    out.check("alert and streak follow the threshold", bad == 0, f"{bad} verdicts differ")

    # Sampled scores against a batch recomputation of the same window.
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(verdicts), size=min(SAMPLED_SCORES, len(verdicts)), replace=False)
    groups: dict[int, list] = {}
    for i in picks:
        v = verdicts[int(i)]
        run, start = state.node_clean[(v.job_id, v.component_id)]
        ts = run.clean.timestamps + start
        # The replay starts at ORIGIN: earlier rows were never streamed.
        mask = (ts >= max(v.window_end - WINDOW_S, ORIGIN)) & (ts <= v.window_end)
        window = NodeSeries(v.job_id, v.component_id, ts[mask],
                            run.clean.values[mask], run.clean.metric_names)
        groups.setdefault(window.n_timestamps, []).append((v, window))
    worst = 0.0
    for pairs in groups.values():
        feats = state.pipeline.transform_series([w for _, w in pairs])
        scores = state.detector.anomaly_score(feats)
        for (v, _), s in zip(pairs, scores):
            worst = max(worst, abs(float(s) - v.anomaly_score))
    out.check("sampled scores match batch recomputation",
              worst <= SCORE_TOLERANCE, f"max |delta| {worst:.2e} over {len(picks)}")

    status = state.fleet.status()["totals"]
    out.check("no chunk shed", status["shed_chunks"] == 0,
              f"{status['shed_chunks']} shed")

    # Every written row is in the store, bit for bit on a sampled node-run.
    per_sampler = {s: state.store.container(s).n_rows for s in state.sampler_cols}
    out.check("store holds every row written",
              set(per_sampler.values()) == {state.rows_written},
              f"store {per_sampler}, written {state.rows_written}")
    key = sorted(state.chunks)[int(rng.integers(len(state.chunks)))]
    run, start = state.node_clean[key]
    sampler, (cols, _) = next(iter(state.sampler_cols.items()))
    got = state.store.query(sampler, job_id=key[0], component_id=key[1])
    ts = run.raw.timestamps + start
    mask = np.isin(ts, got.timestamp)
    out.check("stored rows are the rows written",
              got.n_rows == int(mask.sum()) and got.n_rows > 0
              and np.array_equal(got.values, run.raw.values[mask][:, cols]),
              f"node {key}: {got.n_rows} rows")

    out.detail["alerts"] = sum(v.alert for v in verdicts)


def close(state: State) -> None:
    state.fleet.close()
