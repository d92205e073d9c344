"""The benchmark's three workloads, driven through the public API.

Each workload builds its system the way a user would (``compile_model``,
``save_plan``/``load_plan``, ``ServingFabric``), generates its inputs
from the seed, computes the oracle outside the timed phase, warms the
system up, and only then measures.  Every decode is checked against the
oracle; calls that raise count as failed operations.

Why these workloads:

* ``live_audio`` — the user-facing real-time path, and the only workload
  that exercises ``speech.features`` and the scheduler's deadline
  branch; frontend and gate math dominate it, kernels do little.
* ``offline_bsp_int8`` — the paper's compressed deployment (BSP-pruned,
  int8, BSPC); ``kernels``/``engine.plan`` do nearly all the work, with
  long whole-utterance batches, so a kernel or compiler gain shows here
  and not in ``live_audio``.
* ``fabric_stream`` — most wall time goes to ``engine.fabric``
  (transport, synchronous RPCs, admission); it uses the same plan and
  decoder as ``live_audio``, so a fabric change is separable from a
  model change.
"""

from __future__ import annotations

import gc
import statistics
import tempfile
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from multiprocessing import active_children
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import inputs
import probes
from inputs import FEATURES, PIECE_S, PIECE_SAMPLES, Utterance
from repro import engine
from repro.engine.fabric import FabricConfig, ServingFabric
from repro.errors import ReproError
from repro.pruning.bsp import BSPConfig, bsp_project_masks
from repro.speech.features import StreamingFrontend
from repro.speech.model import AcousticModelConfig, GRUAcousticModel
from spans import Tracer

#: Model weights are part of the system under test, not of the inputs:
#: they stay fixed while ``--seed`` varies the traffic.
MODEL_SEED = 0
STREAM = engine.StreamConfig(
    max_batch_size=8, max_wait_frames=175, min_duration=inputs.MIN_DURATION
)
SERVING = engine.ServingConfig(min_duration=inputs.MIN_DURATION)
#: ``live_audio`` speakers, each talking one session after another
#: (about 33 session arrivals per second).  Sized once, on the commit
#: that introduced this benchmark (2-core x86_64 VM), so the program is
#: busy a little under half of the wall time (0.33-0.40 measured): at 120
#: speakers (0.45) a slow spell of the shared host pushed the open loop
#: into backlog often enough to double the tail latency of some runs.
#: The report prints ``busy_share`` and ``open_sessions`` to check it.
LIVE_SPEAKERS = 100
#: First sessions start spread over this long; later ones follow a
#: speaker's previous session after a pause of up to ``LIVE_PAUSE_S``.
LIVE_STAGGER_S = 1.0
LIVE_PAUSE_S = 0.5

Tamper = Callable[[List[int]], List[int]]


@dataclass(frozen=True)
class Scale:
    """Workload sizes; :data:`FULL` is the benchmark, :data:`SMOKE` the
    self-test."""

    live_pool: int = 64  # distinct utterances live sessions draw from
    live_speakers: int = LIVE_SPEAKERS
    live_warm_s: float = 2.0  # ramp-up before the measured window
    offline_utterances: int = 96
    offline_hidden: int = 256
    fabric_sessions: int = 32
    # Set-up is repeated until both bounds are met (once when traced).
    setup_min_repeats: int = 3
    setup_budget_s: float = 1.0
    min_passes: int = 5  # closed loop: at least this many timed passes


FULL = Scale()
SMOKE = Scale(
    live_pool=4,
    live_speakers=6,
    live_warm_s=0.5,
    offline_utterances=4,
    offline_hidden=64,
    fabric_sessions=4,
    setup_min_repeats=1,
    setup_budget_s=0.0,
    min_passes=1,
)


@dataclass
class Ledger:
    """Operations attempted and failed, and sessions checked."""

    attempted: int = 0
    failed: int = 0
    sessions: int = 0
    matched: int = 0
    errors: Dict[str, int] = field(default_factory=dict)

    def error(self, exc: BaseException) -> None:
        self.failed += 1
        name = type(exc).__name__
        self.errors[name] = self.errors.get(name, 0) + 1

    def check(self, hypothesis, oracle: List[int], tamper: Optional[Tamper]) -> bool:
        """Score one session; a wrong or missing hypothesis is a failure."""
        self.sessions += 1
        if hypothesis is not None and tamper is not None:
            hypothesis = tamper(hypothesis)
        ok = hypothesis == oracle
        if ok:
            self.matched += 1
        elif hypothesis is not None:
            self.failed += 1  # a failed call already counted the rest
        return ok


@dataclass
class Result:
    metrics: Dict[str, Tuple[float, str]]  # the final line's metrics
    report: Dict[str, Tuple[float, str]]  # printed alongside, not judged
    ledger: Ledger
    lines: List[str] = field(default_factory=list)  # extra report text

    @property
    def correct(self) -> bool:
        return (
            self.ledger.failed == 0
            and self.ledger.sessions > 0
            and self.ledger.matched == self.ledger.sessions
        )


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------
clock = time.perf_counter


def _hwm_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def peak_rss_mb(children=()) -> float:
    return _hwm_mb() + sum(_hwm_mb(child.pid) for child in children)


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _dense_model():
    return GRUAcousticModel(
        AcousticModelConfig(hidden_size=64, num_layers=2), rng=MODEL_SEED
    ).eval()


def _bsp_model(hidden: int):
    """BSP-pruned GRU, pruned the way ``build_tune_workload`` does it:
    columns 8x and rows 2x (16x overall) on a 4 x 4 block grid."""
    model = GRUAcousticModel(
        AcousticModelConfig(hidden_size=hidden, num_layers=2), rng=MODEL_SEED
    ).eval()
    masks = bsp_project_masks(
        model.prunable_weights(),
        BSPConfig(col_rate=8.0, row_rate=2.0, num_row_strips=4, num_col_blocks=4),
    )
    for name, param in model.prunable_parameters().items():
        param.data[...] = masks[name].apply_to_array(param.data)
    return model


def _repeat_setup(build, scale: Scale, trace: bool, discard=None):
    """Call ``build() -> (system, seconds)`` until the scale's set-up
    bounds are met; returns the last system and the median time."""
    times: List[float] = []
    system = None
    while True:
        if system is not None and discard is not None:
            discard(system)
        system, elapsed = build()
        times.append(elapsed)
        if trace or (
            len(times) >= scale.setup_min_repeats and sum(times) >= scale.setup_budget_s
        ):
            return system, statistics.median(times)


def _timed_passes(run_pass, seconds: float, min_passes: int) -> list:
    """Closed loop: run passes until ``seconds`` have gone by and at least
    ``min_passes`` have run; returns each pass's result."""
    results = []
    start = clock()
    while len(results) < min_passes or clock() - start < seconds:
        results.append(run_pass())
    return results


def _settle() -> None:
    """Before a timed phase: collect, then freeze what survives (inputs,
    oracle, schedule), so the collector's full passes while timing scan
    only what the program allocates as it serves."""
    gc.collect()
    gc.freeze()


def _end_to_end(
    audio_x_rt: float, latencies_s, rss_mb: float, setup_s: float
) -> Dict[str, Tuple[float, str]]:
    return {
        "audio_x_rt": (audio_x_rt, "x"),
        "phone_lat_p50_ms": (1e3 * _pct(latencies_s, 50), "ms"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "setup_s": (setup_s, "s"),
    }


def _report(ledger: Ledger, latencies_s) -> Dict[str, Tuple[float, str]]:
    """Figures printed beside the judged metrics: the correctness shares
    (1 and 0 on a healthy program, so no use as a relative bound) and the
    latency tail, whose p95 and p99 jumped by half between runs of
    ``fabric_stream`` on a shared 2-core host, too much to judge by."""
    report = {
        "decode_match": (ledger.matched / max(ledger.sessions, 1), "share"),
        "failed_share": (ledger.failed / max(ledger.attempted, 1), "share"),
    }
    if len(latencies_s):
        report.update(
            phone_lat_p95_ms=(1e3 * _pct(latencies_s, 95), "ms"),
            phone_lat_p99_ms=(1e3 * _pct(latencies_s, 99), "ms"),
            phone_lat_samples=(float(len(latencies_s)), "count"),
        )
    return report


def _delivery_times(deliveries: List[Tuple[float, int]]):
    """Map phone index → time of the poll that delivered it."""
    counts = [count for _, count in deliveries]

    def at(index: int) -> Optional[float]:
        k = bisect_right(counts, index)
        return deliveries[k][0] if k < len(deliveries) else None

    return at


def _layer_report(tracer: Tracer, model, fmt: str, grid: Tuple[int, int]) -> List[str]:
    """Measured per-layer cost beside the simulator's ``LayerTiming``."""
    from repro.compiler.codegen import CompileOptions
    from repro.compiler.pipeline import compile_for_simulation
    from repro.hw import ADRENO_640, KRYO_485, simulate

    weights = model.prunable_weights(exclude_input_layer=False)
    compiled = compile_for_simulation(
        weights,
        CompileOptions(format_name=fmt, num_row_strips=grid[0], num_col_blocks=grid[1]),
    )
    steps = compiled.plan.timesteps
    simulated = {
        device: {
            timing.name: timing.busy_us / steps
            for timing in simulate(compiled.plan, device).layers
        }
        for device in (KRYO_485, ADRENO_640)
    }
    lines = [
        "per-layer cost, microseconds per frame (Table 2 shape): measured on "
        "this host vs simulated",
        f"{'layer':<24}{'host self':>12}{'host total':>12}"
        f"{'Kryo 485':>12}{'Adreno 640':>12}",
    ]
    for index in range(model.config.num_layers):
        frames = tracer.counters.get(f"plan.gru.cell{index}.frames", 0.0)
        if not frames:
            continue
        for part in ("weight_ih", "weight_hh", "gates"):
            name = f"gru.cell{index}.{part}"
            span = f"plan.{name}"
            sims = [simulated[d].get(name) for d in (KRYO_485, ADRENO_640)]
            # A layer's gate math is its ``forward`` self time; its total
            # is the whole layer, so it is left out of that column.
            total = None if part == "gates" else 1e3 * tracer.total_ms(span) / frames
            cells = [1e3 * tracer.ms(span) / frames, total, *sims]
            lines.append(
                f"{name:<24}"
                + "".join(f"{c:>12.3f}" if c is not None else f"{'-':>12}" for c in cells)
            )
    return lines


# ---------------------------------------------------------------------------
# live_audio: open loop, real-time pace, one process and one thread
# ---------------------------------------------------------------------------
class _LiveSession:
    __slots__ = ("utt", "arrival", "sid", "frontend", "phones", "deliveries", "failed")

    def __init__(self, utt: Utterance, arrival: float) -> None:
        self.utt = utt
        self.arrival = arrival
        self.sid = -1
        self.frontend: Optional[StreamingFrontend] = None
        self.phones: List[int] = []
        self.deliveries: List[Tuple[float, int]] = []
        self.failed = False

    def deliver(self, phones: List[int], at: float) -> None:
        self.phones += phones
        self.deliveries.append((at, len(self.phones)))

    def piece_end_s(self, piece: int) -> float:
        """When piece ``piece`` is due: its last sample has been spoken."""
        end = min((piece + 1) * PIECE_SAMPLES, len(self.utt.audio))
        return self.arrival + end / FEATURES.sample_rate


def _live_schedule(seed: int, scale: Scale, seconds: float, pool: List[Utterance]):
    """Arrival times: each speaker starts a new session a seeded pause
    after the previous one ends, so concurrency stays near the speaker
    count (a Poisson stream of this size swings concurrency, and with it
    batching, by a fifth from seed to seed)."""
    rng = np.random.default_rng([seed, 2])
    horizon = scale.live_warm_s + seconds
    schedule = []
    for _ in range(scale.live_speakers):
        t = float(rng.uniform(0.0, LIVE_STAGGER_S))
        while t < horizon:
            utt = pool[int(rng.integers(len(pool)))]
            schedule.append((t, utt))
            t += utt.audio_s + float(rng.uniform(0.0, LIVE_PAUSE_S))
    schedule.sort(key=lambda item: item[0])
    return schedule


def _live_setup(audio: np.ndarray):
    """Build, compile and warm a plan with full batches of a first and a
    full-length piece; the clock stops when the first chunk can be
    accepted."""
    start = clock()
    plan = engine.compile_model(_dense_model())
    warm = engine.StreamScheduler(plan, STREAM)
    sessions = [
        (warm.open(), StreamingFrontend(FEATURES))
        for _ in range(STREAM.max_batch_size)
    ]
    for piece in (audio[:PIECE_SAMPLES], audio[PIECE_SAMPLES : 2 * PIECE_SAMPLES]):
        for sid, frontend in sessions:
            warm.feed(sid, frontend.push(piece))
    for sid, _ in sessions:
        warm.finish(sid)
    return plan, clock() - start


def _live_pass(plan, schedule, window, ledger: Ledger):
    """Play the arrival schedule against one scheduler in real time."""
    sessions = [_LiveSession(utt, arrival) for arrival, utt in schedule]
    events = []
    for index, session in enumerate(sessions):
        events.append((session.arrival, index, -1))
        pieces = len(session.utt.chunk_frames)
        events += [(session.piece_end_s(k), index, k) for k in range(pieces)]
    events.sort()
    scheduler = engine.StreamScheduler(plan, STREAM)
    live: Dict[int, _LiveSession] = {}
    lo, hi = window
    busy = busy_window = 0.0
    samples_window = 0
    lags: List[float] = []
    open_counts: List[int] = []
    calls = 0
    t0 = clock() + 0.01
    i = 0
    while i < len(events):
        due, index, piece = events[i]
        now = clock() - t0
        if due > now:
            # No chunk is due: poll every open session.
            start = clock()
            for session in live.values():
                phones = scheduler.poll(session.sid)
                if phones:
                    session.deliver(phones, clock() - t0)
            end = clock()
            calls += len(live)
            busy += end - start
            if lo <= start - t0 < hi:
                busy_window += end - start
                open_counts.append(len(live))
            # Wait for the next chunk without sleeping: an idle vCPU wakes
            # slowly and cold, which made busy time swing run to run.
            target = t0 + due
            while clock() < target:
                pass
            continue
        i += 1
        session = sessions[index]
        if session.failed:
            continue
        lags.append(now - due)
        start = clock()
        try:
            if piece < 0:
                calls += 1
                session.sid = scheduler.open()
                session.frontend = StreamingFrontend(FEATURES)
                live[index] = session
            else:
                calls += 1
                features = session.frontend.push(
                    session.utt.audio[piece * PIECE_SAMPLES : (piece + 1) * PIECE_SAMPLES]
                )
                if len(features):
                    calls += 1
                    scheduler.feed(session.sid, features)
                if piece == len(session.utt.chunk_frames) - 1:
                    calls += 2
                    tail = session.frontend.finish()
                    if len(tail):
                        calls += 1
                        scheduler.feed(session.sid, tail)
                    session.deliver(scheduler.finish(session.sid), clock() - t0)
                    del live[index]
        except ReproError as exc:
            ledger.error(exc)
            session.failed = True
            live.pop(index, None)
        end = clock()
        busy += end - start
        if piece >= 0 and lo <= due < hi:
            busy_window += end - start
            samples_window += min(
                PIECE_SAMPLES, len(session.utt.audio) - piece * PIECE_SAMPLES
            )
    ledger.attempted += calls
    return sessions, {
        "busy_s": busy,
        "busy_window_s": busy_window,
        "samples_window": samples_window,
        "lags_s": lags,
        "open_sessions": float(np.mean(open_counts)) if open_counts else 0.0,
        "stats": scheduler.stats,
    }


def _live_score(sessions, window, ledger: Ledger, tamper: Optional[Tamper]):
    lo, hi = window
    latencies: List[float] = []
    expected = misses = 0
    for session in sessions:
        ok = ledger.check(
            None if session.failed else session.phones, session.utt.hypothesis, tamper
        )
        delivered_at = _delivery_times(session.deliveries)
        for j, piece in enumerate(session.utt.settle):
            due = session.piece_end_s(piece)
            if not lo <= due < hi:
                continue
            expected += 1
            at = delivered_at(j) if ok else None
            if at is None:
                misses += 1
                continue
            latencies.append(at - due)
            misses += at - due > PIECE_S
    return latencies, misses / max(expected, 1)


def live_audio(
    seed: int, seconds: float, trace: bool, scale: Scale, workdir: Path, tamper=None
) -> Result:
    audio = inputs.audio_utterances(scale.live_pool, seed)
    plan, setup_s = _repeat_setup(
        lambda: _live_setup(audio[0]), scale, trace
    )
    pool = [inputs.audio_oracle(plan, samples) for samples in audio]
    if trace:
        seconds /= 2  # the schedule plays twice: untraced, then traced
    schedule = _live_schedule(seed, scale, seconds, pool)
    window = (scale.live_warm_s, scale.live_warm_s + seconds)
    ledger = Ledger()
    _settle()
    sessions, run = _live_pass(plan, schedule, window, ledger)
    latencies, miss_share = _live_score(sessions, window, ledger, tamper)
    report = _report(ledger, latencies)
    report.update(
        deadline_miss_share=(miss_share, "share"),
        busy_share=(run["busy_window_s"] / seconds, "share"),
        open_sessions=(run["open_sessions"], "count"),
        sessions=(float(len(sessions)), "count"),
        driver_lag_p99_ms=(1e3 * _pct(run["lags_s"], 99), "ms"),
    )
    metrics = _end_to_end(
        run["samples_window"] / FEATURES.sample_rate / max(run["busy_window_s"], 1e-9),
        latencies,
        peak_rss_mb(),
        setup_s,
    )
    if not trace:
        return Result(metrics, report, ledger)
    tracer = Tracer()
    probes.instrument(tracer, [plan])
    try:
        with tracer.root("driver"):
            traced_sessions, traced = _live_pass(plan, schedule, window, ledger)
    finally:
        tracer.restore()
    _live_score(traced_sessions, window, ledger, tamper)
    stats = traced["stats"]
    layer = probes.per_layer_metrics(tracer)
    layer.update(
        {
            "streaming.batches": float(stats.batches),
            "streaming.mean_batch": stats.mean_batch_size,
            "streaming.wait_frames": float(stats.wait_frames),
            "driver.lag_p50_ms": 1e3 * _pct(traced["lags_s"], 50),
            "driver.lag_p99_ms": 1e3 * _pct(traced["lags_s"], 99),
        }
    )
    lines = _layer_report(tracer, _dense_model(), "dense", (4, 8))
    return _traced_result(
        tracer, layer, report, ledger, lines, run["busy_s"], traced["busy_s"],
        workdir / f"spans-live_audio-seed{seed}.npz",
    )


# ---------------------------------------------------------------------------
# offline_bsp_int8: closed-loop whole-utterance batches, compressed model
# ---------------------------------------------------------------------------
def _offline_setup(scale: Scale, workdir: Path, longest: int):
    start = clock()
    plan = engine.compile_model(
        _bsp_model(scale.offline_hidden),
        scheme="int8",
        config=engine.EngineConfig(sparse_format="bspc"),
    )
    artifact = workdir / "offline.plan.npz"
    engine.save_plan(artifact, plan)
    plan = engine.load_plan(artifact)
    # The largest batch shape grows every work buffer once.
    plan.forward_batch(np.zeros((longest, SERVING.max_batch_size, plan.input_dim)))
    return plan, clock() - start


def _offline_pass(plan, utts: List[Utterance], ledger: Ledger, tamper):
    ledger.attempted += len(utts)
    start = clock()
    try:
        hyps, stats = engine.serve_stream(plan, [u.features for u in utts], SERVING)
    except ReproError as exc:
        ledger.error(exc)
        ledger.failed += len(utts) - 1
        hyps, stats = [None] * len(utts), None
    wall = clock() - start
    phones = 0
    for hyp, utt in zip(hyps, utts):
        ledger.check(hyp, utt.hypothesis, tamper)
        phones += len(utt.hypothesis)
    # Every phone of a batch pass is delivered when the pass returns.
    return wall, [wall] * phones, stats


def offline_bsp_int8(
    seed: int, seconds: float, trace: bool, scale: Scale, workdir: Path, tamper=None
) -> Result:
    features = inputs.feature_utterances(scale.offline_utterances, seed)
    longest = max(len(f) for f in features)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        plan, setup_s = _repeat_setup(
            lambda: _offline_setup(scale, Path(tmp), longest), scale, trace
        )
    utts = [inputs.feature_oracle(plan, f) for f in features]
    audio_s = sum(u.audio_s for u in utts)
    ledger = Ledger()
    _settle()
    run_pass = lambda: _offline_pass(plan, utts, ledger, tamper)  # noqa: E731
    if not trace:
        passes = _timed_passes(run_pass, seconds, scale.min_passes)
        walls = [wall for wall, _, _ in passes]
        latencies = [lat for _, lats, _ in passes for lat in lats]
        metrics = _end_to_end(
            statistics.median(audio_s / w for w in walls),
            latencies,
            peak_rss_mb(),
            setup_s,
        )
        report = _report(ledger, latencies)
        report["passes"] = (float(len(walls)), "count")
        return Result(metrics, report, ledger)
    # Half the time untraced, then the same number of passes traced.
    untraced = _timed_passes(run_pass, seconds / 2, 1)
    tracer = Tracer()
    probes.instrument(tracer, [plan])
    batches = real = computed = 0
    try:
        with tracer.root("driver"):
            for _ in untraced:
                _, _, stats = run_pass()
                if stats is not None:
                    batches += stats.batches
                    real += stats.real_frames
                    computed += stats.batch_frames
    finally:
        tracer.restore()
    layer = probes.per_layer_metrics(tracer)
    layer.update(
        {
            "serving.batches": float(batches),
            "serving.padding_overhead": (computed - real) / computed if computed else 0.0,
        }
    )
    lines = _layer_report(tracer, _bsp_model(scale.offline_hidden), "bspc", (4, 4))
    report = _report(ledger, [])
    return _traced_result(
        tracer, layer, report, ledger, lines, sum(wall for wall, _, _ in untraced),
        tracer.total_s["driver"], workdir / f"spans-offline_bsp_int8-seed{seed}.npz",
    )


# ---------------------------------------------------------------------------
# fabric_stream: closed-loop feature chunks through the multi-process fabric
# ---------------------------------------------------------------------------
FABRIC = FabricConfig(num_workers=2, stream=STREAM, rpc_timeout_s=30.0)


def _fabric_setup(workdir: Path, warm: np.ndarray):
    """Compile, publish the artifact, fork the workers, and warm every
    worker; the clock stops when the first chunk can be accepted."""
    start = clock()
    plan = engine.compile_model(_dense_model())
    artifact = workdir / "fabric.plan.npz"
    engine.save_plan(artifact, plan)
    fabric = ServingFabric(artifact, FABRIC)
    try:
        while fabric.check():
            pass
        # Enough sessions to fill a full batch on every worker.
        chunk = warm[: inputs.CHUNK_FRAMES]
        sids = [
            fabric.open()
            for _ in range(STREAM.max_batch_size * FABRIC.num_workers)
        ]
        for sid in sids:
            fabric.feed(sid, chunk, block=True)
        for sid in sids:
            fabric.finish(sid)
    except BaseException:
        fabric.close()
        raise
    return (fabric, plan), clock() - start


def _fabric_pass(fabric, utts: List[Utterance], ledger: Ledger, tamper):
    n = len(utts)
    sids: List[Optional[int]] = [None] * n
    fed = [[] for _ in range(n)]
    deliveries = [[] for _ in range(n)]
    phones = [[] for _ in range(n)]
    failed = [False] * n
    start = clock()
    for i in range(n):
        ledger.attempted += 1
        try:
            sids[i] = fabric.open()
        except ReproError as exc:
            ledger.error(exc)
            failed[i] = True
    rounds = max(len(u.chunk_frames) for u in utts)
    for c in range(rounds):
        for i, utt in enumerate(utts):
            if failed[i] or c >= len(utt.chunk_frames):
                continue
            lo = c * inputs.CHUNK_FRAMES
            chunk = utt.features[lo : lo + inputs.CHUNK_FRAMES]
            last = c == len(utt.chunk_frames) - 1
            ledger.attempted += 3 if last else 2
            try:
                fed[i].append(clock() - start)
                fabric.feed(sids[i], chunk, block=True)
                new = fabric.poll(sids[i])
                if new:
                    phones[i] += new
                    deliveries[i].append((clock() - start, len(phones[i])))
                if last:
                    phones[i] += fabric.finish(sids[i])
                    deliveries[i].append((clock() - start, len(phones[i])))
            except ReproError as exc:
                ledger.error(exc)
                failed[i] = True
    wall = clock() - start
    latencies = []
    for i, utt in enumerate(utts):
        ok = ledger.check(None if failed[i] else phones[i], utt.hypothesis, tamper)
        if not ok:
            continue
        at = _delivery_times(deliveries[i])
        latencies += [at(j) - fed[i][k] for j, k in enumerate(utt.settle)]
    return wall, latencies


def fabric_stream(
    seed: int, seconds: float, trace: bool, scale: Scale, workdir: Path, tamper=None
) -> Result:
    features = inputs.feature_utterances(scale.fabric_sessions, seed)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        fabric = None
        try:
            (fabric, plan), setup_s = _repeat_setup(
                lambda: _fabric_setup(Path(tmp), features[0]),
                scale,
                trace,
                discard=lambda system: system[0].close(),
            )
            utts = [inputs.feature_oracle(plan, f) for f in features]
            audio_s = sum(u.audio_s for u in utts)
            ledger = Ledger()
            _settle()
            run_pass = lambda: _fabric_pass(fabric, utts, ledger, tamper)  # noqa: E731
            if not trace:
                passes = _timed_passes(run_pass, seconds, scale.min_passes)
                walls = [wall for wall, _ in passes]
                latencies = [lat for _, lats in passes for lat in lats]
                rss = peak_rss_mb(active_children())
                fleet = fabric.stats()
                metrics = _end_to_end(
                    statistics.median(audio_s / w for w in walls),
                    latencies,
                    rss,
                    setup_s,
                )
                report = _report(ledger, latencies)
                report.update(
                    passes=(float(len(walls)), "count"),
                    chunks_shed=(float(fleet.chunks_shed), "count"),
                    restarts=(float(fleet.restarts), "count"),
                )
                return Result(metrics, report, ledger)
            # Half the time untraced, then the same number of passes traced.
            untraced = _timed_passes(run_pass, seconds / 2, 1)
            before = fabric.stats()
            tracer = Tracer()
            probes.instrument(tracer)
            try:
                with tracer.root("driver"):
                    for _ in untraced:
                        run_pass()
            finally:
                tracer.restore()
            after = fabric.stats()
        finally:
            if fabric is not None:
                fabric.close()
    layer = probes.per_layer_metrics(tracer)
    layer.update(_fabric_layer(before, after))
    report = _report(ledger, [])
    return _traced_result(
        tracer, layer, report, ledger, [], sum(wall for wall, _ in untraced),
        tracer.total_s["driver"], workdir / f"spans-fabric_stream-seed{seed}.npz",
    )


def _fabric_layer(before, after) -> Dict[str, float]:
    """Fleet counters over the traced phase: differences of two
    cumulative ``FleetStats``; the backlog high-water mark is the
    fabric's lifetime maximum."""
    batches = batched = 0
    latencies: List[float] = []
    for old_worker, new_worker in zip(before.workers, after.workers):
        old, new = old_worker.snapshot or {}, new_worker.snapshot or {}
        batches += new.get("batches", 0) - old.get("batches", 0)
        batched += new.get("batched_chunks", 0) - old.get("batched_chunks", 0)
        chunks = new.get("chunks", 0) - old.get("chunks", 0)
        window = new.get("latencies_s", [])
        latencies += window[len(window) - chunks :] if chunks else []
    return {
        "fabric.mean_batch": batched / batches if batches else 0.0,
        "fabric.max_backlog_frames": float(after.max_backlog_frames_seen),
        "fabric.chunks_shed": float(after.chunks_shed - before.chunks_shed),
        "fabric.restarts": float(after.restarts - before.restarts),
        "fabric.worker_p50_ms": 1e3 * _pct(latencies, 50),
        "fabric.worker_p95_ms": 1e3 * _pct(latencies, 95),
    }


# ---------------------------------------------------------------------------
# Traced-run output
# ---------------------------------------------------------------------------
def _traced_result(
    tracer, layer, report, ledger, lines, untraced_s: float, traced_s: float, dump: Path
) -> Result:
    """Per-layer metrics of a traced run, with the overhead and the
    accounting that ties the spans' self times to the measured time.

    ``untraced_s``/``traced_s`` are the same work measured without and
    with tracing: wall time for a closed loop, time inside calls for the
    open loop (whose wall time is the schedule's).
    """
    layer["trace.overhead_ms"] = 1e3 * (traced_s - untraced_s)
    metrics = {
        name: (float(layer.get(name, 0.0)), unit) for name, unit, _ in probes.PER_LAYER
    }
    program = sum(v for name, v in tracer.self_s.items() if name != "driver")
    report.update(
        untraced_ms=(1e3 * untraced_s, "ms"),
        traced_ms=(1e3 * traced_s, "ms"),
        program_self_ms=(1e3 * program, "ms"),
        traced_wall_ms=(1e3 * tracer.total_s["driver"], "ms"),
        spans=(float(tracer.num_spans), "count"),
    )
    ranked = sorted(tracer.self_s, key=tracer.self_s.get, reverse=True)
    lines = lines + [
        "self time by span (ms): "
        + ", ".join(f"{name}={tracer.ms(name):.1f}" for name in ranked if tracer.n(name)),
    ]
    tracer.dump(dump)
    lines.append(f"spans written to {dump.name} in the work directory")
    return Result(metrics, report, ledger, lines)


WORKLOADS = {
    "live_audio": live_audio,
    "offline_bsp_int8": offline_bsp_int8,
    "fabric_stream": fabric_stream,
}
