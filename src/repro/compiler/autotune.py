"""Offline auto-tuning (last paragraph of Section IV-B) — simulated and
measured.

Two tiers:

* **Simulated** (the paper's tuner): :func:`tune_execution_config`
  searches execution configurations — tile rows per thread, unroll
  factor — and :func:`find_best_block_size` the BSP block grid
  (``Numr × Numc``), scoring each candidate with the analytic simulator;
  the block-size search folds in an accuracy proxy so the chosen grid is
  "an optimal combination of accuracy and performance", as the paper
  puts it.
* **Measured**: :func:`tune_plan` tunes the *executable* engine — it
  evaluates candidate per-layer configurations (dense vs CSR vs BSPC,
  quantization scheme, kernel backend) by timing the real
  :class:`~repro.engine.plan.ModelPlan` on a calibration batch, using
  the analytic simulator as a pre-filter that prunes each layer's format
  choices before anything is measured.  The default configuration is
  always in the candidate set, so the tuned plan is never slower than it
  on the calibration workload.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.codegen import CompileOptions, layer_plan_from_slot
from repro.compiler.ir import GraphOptions, LayerGraph, TileConfig, WeightSlot
from repro.compiler.passes import run_passes
from repro.compiler.pipeline import compile_for_simulation
from repro.errors import CompilationError, ConfigError
from repro.hw.device import DeviceSpec
from repro.pruning.bsp import BSPConfig, bsp_project_masks
from repro.utils.timing import timed_median


@dataclass(frozen=True)
class TuningCandidate:
    """One evaluated configuration and its simulated latency."""

    tile: TileConfig
    num_row_strips: int
    num_col_blocks: int
    latency_us: float
    accuracy_proxy: float = 0.0

    def score(self, latency_weight: float = 1.0, accuracy_weight: float = 0.0) -> float:
        """Lower is better: weighted latency minus weighted accuracy proxy."""
        return latency_weight * self.latency_us - accuracy_weight * self.accuracy_proxy


@dataclass
class TuningResult:
    """Best configuration found plus the full exploration trace."""

    best: TuningCandidate
    trace: List[TuningCandidate] = field(default_factory=list)

    @property
    def num_evaluated(self) -> int:
        return len(self.trace)


def default_tile_space(max_rows_per_thread: int = 16) -> List[TileConfig]:
    """The tile/unroll grid the tuner explores by default."""
    space = []
    rows = 1
    while rows <= max_rows_per_thread:
        for unroll in (1, 2, 4):
            space.append(TileConfig(rows_per_thread=rows, unroll=unroll))
        rows *= 2
    return space


def tune_execution_config(
    named_weights: Dict[str, np.ndarray],
    device: DeviceSpec,
    base_options: Optional[CompileOptions] = None,
    tile_space: Optional[Sequence[TileConfig]] = None,
) -> TuningResult:
    """Search tile configurations for the lowest simulated latency."""
    base = base_options or CompileOptions()
    tile_space = list(default_tile_space() if tile_space is None else tile_space)
    if not tile_space:
        raise CompilationError("tile_space must not be empty")
    trace: List[TuningCandidate] = []
    for tile in tile_space:
        # replace() keeps every other option — including ones added to
        # CompileOptions after this tuner was written — instead of
        # silently dropping whatever a hand-written field list misses.
        options = dataclasses.replace(base, tile=tile)
        compiled = compile_for_simulation(named_weights, options)
        latency = compiled.simulate(device).latency_us
        trace.append(
            TuningCandidate(
                tile=tile,
                num_row_strips=base.num_row_strips,
                num_col_blocks=base.num_col_blocks,
                latency_us=latency,
            )
        )
    best = min(trace, key=lambda c: c.latency_us)
    return TuningResult(best=best, trace=trace)


def _retained_energy(weight: np.ndarray, mask_keep: np.ndarray) -> float:
    """Accuracy proxy: fraction of the weight tensor's squared norm kept.

    A cheap, training-free stand-in for post-pruning accuracy — block grids
    that let BSP keep the strongest weights retain more of the layer's
    energy and, empirically, more of its accuracy.
    """
    total = float(np.sum(weight**2))
    if total == 0.0:
        return 1.0
    kept = float(np.sum((weight * mask_keep) ** 2))
    return kept / total


def find_best_block_size(
    named_weights: Dict[str, np.ndarray],
    device: DeviceSpec,
    col_rate: float,
    row_rate: float,
    strip_choices: Iterable[int] = (1, 2, 4, 8),
    block_choices: Iterable[int] = (2, 4, 8, 16),
    accuracy_weight: float = 100.0,
    tile: Optional[TileConfig] = None,
) -> TuningResult:
    """Search the BSP block grid (``Numr × Numc``) for the best
    accuracy/latency combination at a fixed compression target.

    For each grid, the weights are BSP-projected, compiled, and simulated;
    the score combines simulated latency with the retained-energy accuracy
    proxy (scaled by ``accuracy_weight`` µs per unit of retained energy).
    """
    tile = tile or TileConfig()
    shapes = [np.asarray(w).shape for w in named_weights.values()]
    min_rows = min(s[0] for s in shapes)
    min_cols = min(s[1] for s in shapes)
    trace: List[TuningCandidate] = []
    for strips in strip_choices:
        if strips > min_rows:
            continue
        for blocks in block_choices:
            if blocks > min_cols:
                continue
            config = BSPConfig(
                col_rate=col_rate,
                row_rate=row_rate,
                num_row_strips=strips,
                num_col_blocks=blocks,
            )
            masks = bsp_project_masks(named_weights, config)
            pruned = {
                name: masks[name].apply_to_array(np.asarray(w))
                for name, w in named_weights.items()
            }
            proxy = float(
                np.mean(
                    [
                        _retained_energy(np.asarray(w), masks[name].keep)
                        for name, w in named_weights.items()
                    ]
                )
            )
            options = CompileOptions(
                num_row_strips=strips, num_col_blocks=blocks, tile=tile
            )
            latency = compile_for_simulation(pruned, options).simulate(device).latency_us
            trace.append(
                TuningCandidate(
                    tile=tile,
                    num_row_strips=strips,
                    num_col_blocks=blocks,
                    latency_us=latency,
                    accuracy_proxy=proxy,
                )
            )
    if not trace:
        raise CompilationError("no feasible block grid for the given weights")
    best = min(trace, key=lambda c: c.score(accuracy_weight=accuracy_weight))
    return TuningResult(best=best, trace=trace)


# ---------------------------------------------------------------------------
# Measured auto-tuning of the executable engine
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MeasuredCandidate:
    """One engine configuration and its measured forward latency."""

    label: str
    scheme: Optional[str]
    backend: Optional[str]
    formats: Dict[str, str]  # slot name → decided/pinned format
    measured_s: float
    row_block: int = 0  # BSPC panel row-blocking (0 = whole strips)

    def describe_formats(self) -> str:
        """Compact ``slot=fmt`` summary, dense slots elided."""
        sparse = {k: v for k, v in self.formats.items() if v != "dense"}
        if not sparse:
            return "all-dense"
        return " ".join(f"{k}={v}" for k, v in sorted(sparse.items()))


@dataclass
class PlanTuningResult:
    """Outcome of :func:`tune_plan`: the winning compiled plan plus the
    full measured trace and the default-configuration baseline."""

    best: MeasuredCandidate
    plan: object  # the compiled ModelPlan of the winner
    graph: LayerGraph  # its annotated layer graph (save_plan-ready)
    baseline_s: float
    trace: List[MeasuredCandidate] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Measured default-config latency over tuned latency (>= 1.0:
        the default configuration is always in the candidate set)."""
        return self.baseline_s / self.best.measured_s

    @property
    def num_evaluated(self) -> int:
        return len(self.trace)


def _simulated_slot_us(slot: WeightSlot, fmt: str, device: DeviceSpec) -> float:
    """Analytic one-step cost of running ``slot`` in format ``fmt``."""
    from repro.hw.executor import simulate_layer

    probe = WeightSlot(
        name=slot.name,
        op=slot.op,
        array=slot.array,
        format=fmt,
        grid=slot.grid,
        tile=slot.tile,
    )
    graph = LayerGraph(
        nodes=[_probe_node(probe)],
        options=GraphOptions(sparse_format=fmt),
    )
    run_passes(graph, analytic=True)
    return simulate_layer(layer_plan_from_slot(probe), device, timesteps=1).busy_us


def _probe_node(slot: WeightSlot):
    from repro.compiler.ir import GraphNode

    return GraphNode(name=slot.name, kind="linear", weights={"w": slot})


def default_tile_candidates(
    row_blocks: Sequence[int] = (4, 8, 16),
) -> List[TileConfig]:
    """The host tile candidates a joint scheme×format×tile search tries:
    BSPC panel row-blocking factors (``row_block=0``, whole strips, is
    always the implicit incumbent)."""
    return [
        TileConfig(rows_per_thread=max(1, rb), row_block=rb) for rb in row_blocks
    ]


def tune_plan(
    model,
    sample_batch: np.ndarray,
    schemes: Sequence[Optional[str]] = (None,),
    backends: Sequence[Optional[str]] = (None,),
    formats: Sequence[str] = ("dense", "csr", "bspc"),
    tiles: Optional[Sequence[TileConfig]] = None,
    config=None,
    device: Optional[DeviceSpec] = None,
    repeats: int = 3,
    prefilter_top: int = 2,
) -> PlanTuningResult:
    """Measured auto-tuning: search per-layer engine configurations by
    timing the real compiled plan on ``sample_batch``.

    The search runs in three stages (plus an optional fourth):

    1. **Baseline** — the default-configuration engine
       (``engine.compile_model(model, scheme=schemes[0], config=config)``)
       is compiled and timed; it anchors the trace, so the tuned result
       can never be slower than the default on the calibration batch.
    2. **Simulator pre-filter** — for every tunable weight slot, each
       candidate format in ``formats`` is priced with the analytic mobile
       cost model on ``device`` and only the best ``prefilter_top``
       formats survive into measurement (the simulator prunes the
       combinatorial per-layer space before any wall clock is spent).
    3. **Measured greedy refinement** — per ``scheme`` × ``backend``
       combination, a candidate graph pins every slot to its
       simulator-best surviving format and is timed; then each slot's
       runner-up formats are tried one at a time, keeping any change that
       measures faster.
    4. **Tile refinement** (when ``tiles`` is given, e.g.
       :func:`default_tile_candidates`) — each tile's ``row_block`` is
       applied to the combo's winning format pins and measured, making
       the search jointly scheme × format × tile.  Row blocking only
       changes BSPC panel packing, so combos that won with no BSPC slot
       skip it.

    ``schemes`` beyond the first change numerics (``"fp16"``/``"int8"``
    round weights and activations; ``"mixed"`` quantizes the projections
    and keeps float recurrences); include them only when the deployment
    tolerates quantization — the accuracy contracts are the engine's
    usual per-scheme guarantees.

    Returns a :class:`PlanTuningResult` whose ``plan`` is the winning
    compiled :class:`~repro.engine.plan.ModelPlan` and whose ``graph``
    can be serialized with :func:`repro.engine.save_plan` for bit-exact
    redeployment.
    """
    # Engine imports are deferred: repro.engine lowers *through* this
    # package, so a module-level import here would be circular.
    from repro.engine.plan import EngineConfig, lower_graph
    from repro.engine.plan import compile_model as engine_compile
    from repro.compiler.pipeline import build_layer_graph
    from repro.hw.profiles import ADRENO_640, host_device
    from repro import kernels

    if not schemes:
        raise ConfigError("schemes must not be empty")
    if not formats:
        raise ConfigError("formats must not be empty")
    for fmt in formats:
        if fmt not in ("dense", "csr", "bspc"):
            raise ConfigError(f"unknown tuning format {fmt!r}")
    for backend in backends:
        if backend is not None:  # None = the session default, always valid
            kernels.resolve_backend(backend, "tune_plan backends")
    config = config or EngineConfig()
    device = device or host_device() or ADRENO_640
    repeats = max(1, repeats)
    sample_batch = np.asarray(sample_batch, dtype=np.float64)
    if sample_batch.ndim != 3:
        raise ConfigError(
            f"sample_batch must be (T, B, D) features, got {sample_batch.shape}"
        )

    def measure(plan) -> float:
        return timed_median(lambda: plan.forward_batch(sample_batch), repeats)[0]

    def compile_pinned(scheme, backend, pins: Dict[str, str], tile=None):
        graph = build_layer_graph(
            model, scheme=scheme, options=config.graph_options(), backend=backend
        )
        for _, _, slot in graph.slots():
            if slot.format is None and slot.name in pins:
                slot.format = pins[slot.name]
            if tile is not None:
                slot.tile = tile
        run_passes(graph)
        return lower_graph(graph, config), graph

    # Stage 1: the default-configuration baseline.
    baseline_plan = engine_compile(model, scheme=schemes[0], config=config)
    baseline_s = measure(baseline_plan)
    baseline = MeasuredCandidate(
        label="default",
        scheme=schemes[0],
        backend=None,
        formats={
            name: fmt or "dense"
            for name, fmt in baseline_plan.graph.formats().items()
        },
        measured_s=baseline_s,
    )
    trace: List[MeasuredCandidate] = [baseline]
    best = baseline
    best_plan, best_graph = baseline_plan, baseline_plan.graph

    # Stage 2: simulator pre-filter of each slot's format choices.
    probe_graph = build_layer_graph(model, options=config.graph_options())
    slot_choices: Dict[str, List[str]] = {}
    for _, _, slot in probe_graph.slots():
        if slot.format is not None:
            continue  # pinned by the frontend (e.g. the output projection)
        ranked = sorted(formats, key=lambda f: _simulated_slot_us(slot, f, device))
        slot_choices[slot.name] = list(ranked[: max(1, prefilter_top)])

    # Stage 3: measured search per scheme × backend.  A configuration is
    # never measured twice: re-timing an identical plan only resamples
    # noise, and a noisy duplicate of the baseline must not be reported
    # as a tuning "speedup" (the measured dict also seeds the greedy
    # comparisons for skipped repeats).  Only ``row_block`` of a tile has
    # a host-side execution effect, so the key normalizes on it.
    def config_key(scheme, backend, pins: Dict[str, str], tile=None):
        row_block = tile.row_block if tile is not None else 0
        return (scheme, backend, tuple(sorted(pins.items())), row_block)

    measured: Dict[tuple, float] = {
        config_key(
            schemes[0],
            None,
            {name: baseline.formats[name] for name in slot_choices},
        ): baseline_s
    }

    def try_candidate(label, scheme, backend, pins, tile=None):
        """Measure one pinned configuration (or return its known time)."""
        nonlocal best, best_plan, best_graph
        key = config_key(scheme, backend, pins, tile)
        if key in measured:
            return measured[key]
        plan, graph = compile_pinned(scheme, backend, pins, tile)
        elapsed = measure(plan)
        measured[key] = elapsed
        candidate = MeasuredCandidate(
            label=label,
            scheme=scheme,
            backend=backend,
            formats={n: f or "dense" for n, f in graph.formats().items()},
            measured_s=elapsed,
            row_block=tile.row_block if tile is not None else 0,
        )
        trace.append(candidate)
        if elapsed < best.measured_s:
            best, best_plan, best_graph = candidate, plan, graph
        return elapsed

    for scheme in schemes:
        for backend in backends:
            current = {name: choices[0] for name, choices in slot_choices.items()}
            tag = f"{scheme or 'none'}/{backend or 'default'}"
            incumbent_s = try_candidate(f"sim-best[{tag}]", scheme, backend, current)
            for name, choices in slot_choices.items():
                for fmt in choices[1:]:
                    variant = dict(current)
                    variant[name] = fmt
                    elapsed = try_candidate(
                        f"{name}->{fmt}[{tag}]", scheme, backend, variant
                    )
                    if elapsed < incumbent_s:
                        current, incumbent_s = variant, elapsed
            # Stage 4: tile refinement on this combo's winning pins.
            if tiles and any(fmt == "bspc" for fmt in current.values()):
                for tile in tiles:
                    if not tile.row_block:
                        continue  # whole strips: the incumbent already
                    try_candidate(
                        f"tile-rb{tile.row_block}[{tag}]",
                        scheme,
                        backend,
                        current,
                        tile,
                    )

    return PlanTuningResult(
        best=best,
        plan=best_plan,
        graph=best_graph,
        baseline_s=baseline_s,
        trace=trace,
    )


@dataclass
class TileRankingComparison:
    """Simulated vs. measured ranking of the tile (row-blocking) knob.

    The paper's tuner picks tiles from the analytic mobile cost model; the
    host engine can now *execute* the same knob (BSPC panel row-blocking),
    so the cost model's ranking can be validated against wall clock.

    ``pairwise_agreement`` is the fraction of candidate pairs the
    simulator orders the same way the measurement does (1.0 = identical
    ranking).  ``sim_pick_efficiency`` is the sturdier headline number:
    measured-best latency over the measured latency of the *simulator's*
    pick — 1.0 means following the cost model costs nothing on this host,
    and it degrades smoothly rather than flipping on near-tie noise.
    """

    row_blocks: Tuple[int, ...]
    simulated_us: Dict[int, float]  # row_block → simulated latency (µs)
    measured_s: Dict[int, float]  # row_block → measured latency (s)
    sim_pick: int
    measured_pick: int
    pairwise_agreement: float
    sim_pick_efficiency: float


def compare_tile_rankings(
    model,
    sample_batch: np.ndarray,
    row_blocks: Sequence[int] = (2, 8, 32),
    config=None,
    device: Optional[DeviceSpec] = None,
    repeats: int = 3,
) -> TileRankingComparison:
    """Rank the tile knob with the simulator and with the host, and compare.

    Each ``row_blocks`` entry is priced twice: analytically, as
    ``rows_per_thread`` through :func:`tune_execution_config` on
    ``device``; and on the host, as BSPC panel ``row_block`` by timing
    the compiled plan's ``forward_batch`` on ``sample_batch``.  The
    returned comparison is what the autotune bench publishes as the
    simulated-vs-measured agreement row.
    """
    from repro.engine.plan import EngineConfig, lower_graph
    from repro.compiler.pipeline import build_layer_graph
    from repro.hw.profiles import ADRENO_640, host_device

    row_blocks = tuple(int(rb) for rb in row_blocks)
    if len(row_blocks) < 2:
        raise ConfigError("need at least two row_blocks to rank")
    if any(rb < 1 for rb in row_blocks):
        raise ConfigError(f"row_blocks must be >= 1, got {row_blocks}")
    config = config or EngineConfig(sparse_format="bspc")
    device = device or host_device() or ADRENO_640
    repeats = max(1, repeats)
    sample_batch = np.asarray(sample_batch, dtype=np.float64)
    if sample_batch.ndim != 3:
        raise ConfigError(
            f"sample_batch must be (T, B, D) features, got {sample_batch.shape}"
        )

    simulated_us: Dict[int, float] = {}
    for rb in row_blocks:
        result = tune_execution_config(
            model.prunable_weights(),
            device,
            tile_space=[TileConfig(rows_per_thread=rb, row_block=rb)],
        )
        simulated_us[rb] = result.best.latency_us

    measured_s: Dict[int, float] = {}
    for rb in row_blocks:
        graph = build_layer_graph(
            model, scheme=None, options=config.graph_options()
        )
        tile = TileConfig(rows_per_thread=rb, row_block=rb)
        for _, _, slot in graph.slots():
            slot.tile = tile
        run_passes(graph)
        plan = lower_graph(graph, config)
        measured_s[rb] = timed_median(
            lambda: plan.forward_batch(sample_batch), repeats
        )[0]

    sim_pick = min(row_blocks, key=lambda rb: simulated_us[rb])
    measured_pick = min(row_blocks, key=lambda rb: measured_s[rb])
    pairs = [
        (a, b)
        for i, a in enumerate(row_blocks)
        for b in row_blocks[i + 1 :]
    ]
    concordant = sum(
        1
        for a, b in pairs
        if (simulated_us[a] < simulated_us[b]) == (measured_s[a] < measured_s[b])
    )
    return TileRankingComparison(
        row_blocks=row_blocks,
        simulated_us=simulated_us,
        measured_s=measured_s,
        sim_pick=sim_pick,
        measured_pick=measured_pick,
        pairwise_agreement=concordant / len(pairs),
        sim_pick_efficiency=measured_s[measured_pick] / measured_s[sim_pick],
    )


# ---------------------------------------------------------------------------
# Host calibration of the analytic cost model
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CostSample:
    """One tuning-knob setting: analytic cost terms paired with wall clock.

    ``layer_terms`` holds the simulator's per-layer decomposition on the
    *base* (uncalibrated) device — ``(compute_us, memory_us,
    kernel_overhead_us, tile_chunk_steps)`` per layer, timesteps already
    folded in; ``tile_chunk_steps`` is a *count* (row-tile dispatches per
    inference), not a time, so the fit can price it in µs per dispatch.
    Keeping the decomposition lets :func:`calibrate_cost_model` rescale
    each term independently and re-derive the overlapped total without
    re-running the simulator.  ``measured_us`` is the wall time of the
    same configuration on this host; ``base_tile_us`` is the base
    device's own per-tile charge (zero for the mobile profiles).
    """

    label: str
    layer_terms: Tuple[Tuple[float, float, float, float], ...]
    measured_us: float
    base_tile_us: float = 0.0

    @property
    def simulated_us(self) -> float:
        """Uncalibrated analytic latency (µs) of this configuration."""
        return self.predicted_us(1.0, 1.0, 1.0, self.base_tile_us)

    def predicted_us(self, sf: float, sm: float, so: float, st: float) -> float:
        """Analytic latency with compute/memory/overhead rescaled and a
        per-tile dispatch charge of ``st`` µs."""
        return sum(
            max(c * sf, m * sm) + o * so + chunks * st
            for c, m, o, chunks in self.layer_terms
        )

    @property
    def tile_chunk_steps(self) -> float:
        """Total row-tile dispatches one inference of this config issues."""
        return sum(t[3] for t in self.layer_terms)


@dataclass(frozen=True)
class CostModelCalibration:
    """Outcome of :func:`calibrate_cost_model`.

    ``device`` is the fitted spec; the ``scale_*`` factors are the
    multipliers applied to the base device's compute/memory/overhead
    *times* (so ``scale_compute = 2`` means this host's compute is half
    the base device's throughput).  ``log_rmse_before/after`` measure
    prediction error against the samples in log space — ``after`` should
    not exceed ``before``.
    """

    device: DeviceSpec
    base: DeviceSpec
    scale_compute: float
    scale_memory: float
    scale_overhead: float
    tile_dispatch_us: float
    log_rmse_before: float
    log_rmse_after: float

    @property
    def error_reduction(self) -> float:
        """Fraction of log-space prediction error removed by the fit."""
        if self.log_rmse_before == 0.0:
            return 0.0
        return 1.0 - self.log_rmse_after / self.log_rmse_before


def collect_cost_samples(
    model,
    sample_batch: np.ndarray,
    row_blocks: Sequence[int] = (2, 8, 32),
    config=None,
    base: Optional[DeviceSpec] = None,
    repeats: int = 3,
) -> List[CostSample]:
    """Measure the tile knob on this host and pair each setting with the
    analytic model's cost decomposition on ``base``.

    The same sweep :func:`compare_tile_rankings` runs, but keeping the
    simulator's per-layer ``(compute, memory, overhead)`` terms instead
    of only the total, so :func:`calibrate_cost_model` can refit them.
    All samples share one workload (``sample_batch``); the fitted
    coefficients absorb its shape, so calibrate with a batch
    representative of what you will tune.
    """
    from repro.engine.plan import EngineConfig, lower_graph
    from repro.compiler.pipeline import build_layer_graph
    from repro.hw.profiles import ADRENO_640

    row_blocks = tuple(int(rb) for rb in row_blocks)
    if len(row_blocks) < 2:
        raise ConfigError("need at least two row_blocks to calibrate")
    if any(rb < 1 for rb in row_blocks):
        raise ConfigError(f"row_blocks must be >= 1, got {row_blocks}")
    config = config or EngineConfig(sparse_format="bspc")
    base = base or ADRENO_640
    repeats = max(1, repeats)
    sample_batch = np.asarray(sample_batch, dtype=np.float64)
    if sample_batch.ndim != 3:
        raise ConfigError(
            f"sample_batch must be (T, B, D) features, got {sample_batch.shape}"
        )

    from repro.hw.executor import tile_chunks

    samples: List[CostSample] = []
    for rb in row_blocks:
        tile = TileConfig(rows_per_thread=rb, row_block=rb)
        compiled = compile_for_simulation(
            model.prunable_weights(), CompileOptions(tile=tile)
        )
        sim = compiled.simulate(base)
        # Per-layer terms with the base device's tile charge split back
        # out of overhead, so the fit prices dispatches independently.
        terms = []
        for timing, layer_plan in zip(sim.layers, compiled.plan.layers):
            chunk_steps = tile_chunks(layer_plan) * compiled.plan.timesteps
            terms.append(
                (
                    timing.compute_us,
                    timing.memory_us,
                    timing.overhead_us - base.tile_dispatch_us * chunk_steps,
                    float(chunk_steps),
                )
            )
        terms = tuple(terms)
        graph = build_layer_graph(
            model, scheme=None, options=config.graph_options()
        )
        for _, _, slot in graph.slots():
            slot.tile = tile
        run_passes(graph)
        plan = lower_graph(graph, config)
        measured_s = timed_median(
            lambda: plan.forward_batch(sample_batch), repeats
        )[0]
        samples.append(
            CostSample(
                label=f"rb{rb}",
                layer_terms=terms,
                measured_us=measured_s * 1e6,
                base_tile_us=base.tile_dispatch_us,
            )
        )
    return samples


def _log_rmse(
    samples: Sequence[CostSample], sf: float, sm: float, so: float, st: float
) -> float:
    errs = [
        np.log(max(s.predicted_us(sf, sm, so, st), 1e-12)) - np.log(s.measured_us)
        for s in samples
    ]
    return float(np.sqrt(np.mean(np.square(errs))))


def calibrate_cost_model(
    samples: Sequence[CostSample],
    base: Optional[DeviceSpec] = None,
    name: Optional[str] = None,
    path=None,
    activate: bool = False,
) -> CostModelCalibration:
    """Fit the analytic cost model's device coefficients to measured traces.

    Finds per-term multipliers (compute, memory, overhead) that minimize
    the log-space error between the analytic prediction and
    ``measured_us`` across ``samples``, and folds them back into a
    :class:`DeviceSpec`: throughputs are divided by their time
    multiplier, the overhead charge is multiplied by its own.  Every
    other field (threads, power, parallel fill, gather cost) is carried
    over from ``base`` unchanged.

    The search is a deterministic coordinate descent on log-scaled
    multipliers with a small pull toward the global measured/simulated
    ratio, which keeps under-constrained terms (e.g. overhead when every
    sample is compute-bound) pinned at a sensible value instead of
    drifting freely.

    ``path`` persists the fitted spec via
    :func:`repro.hw.profiles.save_calibration`; ``activate`` installs it
    with :func:`repro.hw.profiles.set_host_device` so :func:`tune_plan`
    and :func:`compare_tile_rankings` pick it up by default.
    """
    from repro.hw.profiles import ADRENO_640, save_calibration, set_host_device

    samples = list(samples)
    if len(samples) < 2:
        raise ConfigError(
            f"need at least two cost samples to calibrate, got {len(samples)}"
        )
    for s in samples:
        if s.measured_us <= 0:
            raise ConfigError(f"sample {s.label!r} has non-positive measured_us")
        if s.simulated_us <= 0:
            raise ConfigError(f"sample {s.label!r} has non-positive simulated_us")
    base = base or ADRENO_640

    # Seed the per-tile charge from the measured-vs-chunk-count slope:
    # tile dispatch is the one term that varies with how finely rows are
    # chunked, so the regression slope is its natural first estimate (a
    # host with no chunk-dependence seeds it at ~zero and it stays there).
    chunks = np.array([s.tile_chunk_steps for s in samples])
    meas = np.array([s.measured_us for s in samples])
    var = float(np.var(chunks))
    slope = float(np.cov(chunks, meas, bias=True)[0, 1] / var) if var > 0 else 0.0
    st_seed = max(slope, 1e-9)

    # Anchor the three rescale multipliers at the global ratio between
    # what the tile seed leaves unexplained and the base model's total;
    # the regularizer below pins under-constrained terms to the anchors.
    core = np.array([s.predicted_us(1.0, 1.0, 1.0, 0.0) for s in samples])
    residual = np.maximum(meas - st_seed * chunks, 0.05 * meas)
    anchor = float(np.exp(np.mean(np.log(residual / core))))
    anchors = (anchor, anchor, anchor, st_seed)
    reg = 1e-3

    def objective(coefs):
        fit = _log_rmse(samples, *coefs) ** 2
        pull = sum(
            (np.log(c) - np.log(a)) ** 2 for c, a in zip(coefs, anchors)
        )
        return fit + reg * pull

    coefs = list(anchors)
    best = objective(coefs)
    step = 2.0
    while step > 1.0005:
        improved = False
        for i in range(len(coefs)):
            for factor in (step, 1.0 / step):
                trial = list(coefs)
                trial[i] = coefs[i] * factor
                score = objective(trial)
                if score < best - 1e-15:
                    coefs, best, improved = trial, score, True
        if not improved:
            step = step**0.5

    sf, sm, so, st = coefs
    device = dataclasses.replace(
        base,
        name=name or f"{base.name} [host-calibrated]",
        flops_per_us=base.flops_per_us / sf,
        mem_bandwidth_bytes_per_us=base.mem_bandwidth_bytes_per_us / sm,
        kernel_overhead_us=base.kernel_overhead_us * so,
        tile_dispatch_us=st,
    )
    calibration = CostModelCalibration(
        device=device,
        base=base,
        scale_compute=sf,
        scale_memory=sm,
        scale_overhead=so,
        tile_dispatch_us=st,
        log_rmse_before=_log_rmse(
            samples, 1.0, 1.0, 1.0, samples[0].base_tile_us
        ),
        log_rmse_after=_log_rmse(samples, sf, sm, so, st),
    )
    if path is not None:
        save_calibration(device, path)
    if activate:
        set_host_device(device)
    return calibration
