"""Lower the shared layer graph into a packed execution plan.

The paper's thesis is that RNN inference gets fast when all indexing,
layout, and format decisions move to compile time.  :func:`compile_model`
applies that to this library's own execution — through the unified
compiler: the module tree is walked **once** into the shared layer-graph
IR (:func:`repro.compiler.pipeline.build_layer_graph`), the compiler's
pass pipeline (:mod:`repro.compiler.passes`) decides every per-layer
sparse format and kernel, and :func:`lower_graph` executes those
decisions, freezing everything the forward pass needs into flat arrays —
gate matrices pre-transposed, biases pre-folded the way the fused kernels
fold them, sparse weights pre-packed into :class:`~repro.sparse.csr.CSRMatrix`
/ :class:`~repro.sparse.bspc.BSPCMatrix` objects with their kernel plans
built eagerly, and (optionally) weights quantized to fp16 storage or int8
codes.  No format/scheme decision is made in this module; it executes
what the graph says.  The resulting :class:`ModelPlan` runs whole padded
batches on raw ndarrays: no ``Tensor`` tape, no per-layer ``Module``
dispatch, work buffers reused across calls; its ``graph`` attribute
retains the lowered IR for artifact serialization
(:mod:`repro.engine.artifact`) and a tuned ``backend`` pins the kernel
registry backend its kernels dispatch to.

Numerics by scheme:

* ``scheme=None`` (packing only) — float64 throughout, and **bit-exact**
  with the eval-mode ``model.forward`` fused-kernel path: the layer plans
  run the numpy backend's own time loops
  (:func:`~repro.kernels.numpy_backend.gru_recurrence` /
  :func:`~repro.kernels.numpy_backend.lstm_recurrence`).
* ``scheme="fp16"`` — weights and biases are rounded through IEEE half
  precision and stored as float16 arrays; compute runs in float32 (half
  the memory traffic of the float64 path, and what "16-bit storage,
  wider accumulate" mobile kernels do).
* ``scheme="int8"`` — input-side projections run through the registry's
  ``linear_int8_rowwise`` / ``*_spmm_int8`` kernels (integer
  accumulation, one activation scale *per frame*, one dequant); the
  small per-timestep recurrent GEMMs use dequantized int8 weights in
  float64, where an integer pipeline cannot pay for its per-step
  quantization overhead.  Per-frame activation scales plus order-exact
  integer accumulation make int8 plans **bitwise chunk-exact**: a frame's
  logits do not depend on which other frames shared the call.
* ``scheme="mixed"`` — the scheme is decided *per slot* by the pass
  pipeline: int8 input/output projections (batched, chunk-exact) with
  full-precision float recurrences (where per-step quantization error
  would compound).  Every slot executes exactly as it would under its
  own uniform scheme, so mixed plans inherit the int8 slots' bitwise
  chunk-exactness while keeping float recurrent dynamics.

Schemes are carried per :class:`~repro.compiler.ir.WeightSlot`; the
graph-level scheme is only the *request* the pass pipeline resolves, and
lowering reads the slot decisions (falling back to the graph scheme for
artifacts that predate per-slot schemes).

Streaming: :meth:`ModelPlan.run_chunk` threads explicit hidden (and
cell) state through the same layer code, so a session can feed a chunk
at a time — see :mod:`repro.engine.streaming` and ``docs/serving.md``.
"""

from __future__ import annotations

import math
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.compiler.ir import (
    GraphNode,
    GraphOptions,
    LayerGraph,
    TileConfig,
    WeightSlot,
    resolve_slot_scheme,
)
from repro.compiler.passes import run_passes, slot_grid
from repro.compiler.pipeline import build_layer_graph, rnn_graph_from_weights
from repro.errors import ConfigError, ShapeError
from repro.kernels.numpy_backend import gru_recurrence, lstm_recurrence
from repro.kernels.quantized import int8_bspc_plan, int8_codes, int8_csr_plan
from repro.nn.quantize import quantize_fp16
from repro.sparse.blocks import BlockGrid
from repro.sparse.bspc import BSPCMatrix
from repro.sparse.csr import CSRMatrix

SCHEMES = (None, "fp16", "int8", "mixed")
SPARSE_FORMATS = (None, "auto", "csr", "bspc")

#: Stored bytes per weight value under each compute scheme.
_VALUE_BYTES = {None: 8, "fp16": 2, "int8": 1}


def _slot_scheme(slot: WeightSlot, graph_scheme: Optional[str]) -> Optional[str]:
    """A slot's *compute* scheme: ``None`` (float64), ``"fp16"``, ``"int8"``.

    Reads the pass-decided per-slot scheme; slots from artifacts that
    predate per-slot schemes carry ``None`` and fall back to the graph
    scheme (resolved exactly as the pass pipeline would).
    """
    resolved = slot.scheme or resolve_slot_scheme(graph_scheme, slot.op)
    return None if resolved == "float" else resolved


def _fp16_pack(weight: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """fp16 storage array + contiguous float32 transpose for compute."""
    storage = np.clip(weight, -65504.0, 65504.0).astype(np.float16)
    return storage, np.ascontiguousarray(storage.astype(np.float32).T)


@dataclass(frozen=True)
class EngineConfig:
    """Compile-time knobs for :func:`compile_model`.

    ``sparse_format`` selects how input-side weight matrices are packed:
    ``None`` keeps every weight dense (required for the bit-exact
    packing-only guarantee), ``"csr"``/``"bspc"`` force a format, and
    ``"auto"`` packs any matrix whose density is at or below
    ``sparsity_threshold`` — as BSPC when the panels stay mostly full
    (``fill >= 0.5``, i.e. the pattern is BSP-shaped), as CSR otherwise.
    """

    sparse_format: Optional[str] = None
    sparsity_threshold: float = 0.5
    num_row_strips: int = 8
    num_col_blocks: int = 8

    def __post_init__(self) -> None:
        if self.sparse_format not in SPARSE_FORMATS:
            raise ConfigError(
                f"sparse_format must be one of {SPARSE_FORMATS}, "
                f"got {self.sparse_format!r}"
            )
        if not 0.0 < self.sparsity_threshold <= 1.0:
            raise ConfigError(
                f"sparsity_threshold must be in (0, 1], got {self.sparsity_threshold}"
            )
        if self.num_row_strips < 1 or self.num_col_blocks < 1:
            raise ConfigError("num_row_strips and num_col_blocks must be >= 1")

    def graph_options(self) -> GraphOptions:
        """The equivalent graph-level options for the shared pass
        pipeline (format decisions live there, not in this module)."""
        return GraphOptions(
            sparse_format=self.sparse_format,
            sparsity_threshold=self.sparsity_threshold,
            num_row_strips=self.num_row_strips,
            num_col_blocks=self.num_col_blocks,
        )


class _Workspace:
    """Grow-only scratch buffers, keyed by name and dtype.

    ``take`` hands out a reshaped view of a flat buffer that is enlarged
    only when a bigger batch arrives — repeated ``forward_batch`` calls
    at steady shapes allocate nothing.
    """

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[str, np.dtype], np.ndarray] = {}

    def take(self, key: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = int(math.prod(shape))
        dtype = np.dtype(dtype)
        buffer = self._buffers.get((key, dtype))
        if buffer is None or buffer.size < size:
            buffer = np.empty(max(size, 1), dtype=dtype)
            self._buffers[(key, dtype)] = buffer
        return buffer[:size].reshape(shape)


# ---------------------------------------------------------------------------
# Weight packings
# ---------------------------------------------------------------------------
class _DenseWeight:
    """A weight kept dense; the scheme decides storage and compute dtype."""

    def __init__(self, weight: np.ndarray, scheme: Optional[str]) -> None:
        self.scheme = scheme
        self.shape = weight.shape
        if scheme is None:
            # Kept exactly as the module stores it; projections use the
            # same ``x @ weight.T`` expression as the fused kernels, so
            # packing-only plans are bit-exact with the eager path.
            self.weight = weight.copy()
        elif scheme == "fp16":
            self.storage, self.weight_t = _fp16_pack(weight)
        else:  # int8 codes + the pre-cast float32 copy ``linear_int8`` wants
            self.codes, self.scale = int8_codes(weight)
            self.codes_f = self.codes.astype(np.float32)

    def project(
        self, x2d: np.ndarray, ws: Optional[_Workspace] = None, key: str = ""
    ) -> np.ndarray:
        """``x2d (N, K) → (N, M)`` in the scheme's compute dtype, into a
        ``ws`` work buffer or, without one, a fresh array."""
        if self.scheme == "int8":
            return kernels.linear_int8_rowwise(self.codes_f, self.scale, x2d)
        fp16 = self.scheme == "fp16"
        out = None
        if ws is not None:
            dtype = np.float32 if fp16 else np.float64
            out = ws.take(key, (x2d.shape[0], self.shape[0]), dtype)
        return np.matmul(x2d, self.weight_t if fp16 else self.weight.T, out=out)

    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * _VALUE_BYTES[self.scheme]


class _SparseWeight:
    """A weight packed as CSR/BSPC with its kernel plans built eagerly.

    Serves both as an input-side projection (:meth:`project`) and as a
    recurrent weight (:meth:`step`).
    """

    def __init__(
        self,
        weight: np.ndarray,
        fmt: str,
        scheme: Optional[str],
        grid: Optional[BlockGrid] = None,
        prebuilt: Optional[BSPCMatrix] = None,
        tile: Optional[TileConfig] = None,
    ) -> None:
        self.scheme = scheme
        self.shape = weight.shape
        if scheme == "fp16":
            # fp16 sparse: values rounded through half precision, float
            # sparse kernels do the compute (they are float64-only).
            weight = quantize_fp16(weight)
            prebuilt = None  # built from unrounded values; cannot reuse
        if fmt == "bspc":
            self.matrix = (
                prebuilt
                if prebuilt is not None
                else BSPCMatrix.from_dense(weight, grid)
            )
            if tile is not None and tile.row_block:
                # The tuner's host tile knob: install the row-blocked
                # float plan first so the int8 plan derives from it.
                kernels.pack_bspc_plan(self.matrix, tile.row_block)
            plan_builder = int8_bspc_plan if scheme == "int8" else kernels.bspc_plan
        else:
            self.matrix = CSRMatrix.from_dense(weight)
            plan_builder = int8_csr_plan if scheme == "int8" else kernels.csr_plan
        plan_builder(self.matrix)  # build the cached execution plan now

    def project(self, x2d: np.ndarray, ws: _Workspace, key: str) -> np.ndarray:
        xt = np.ascontiguousarray(x2d.T)
        if self.scheme == "int8":
            out = kernels.spmm_int8(self.matrix, xt).T
        else:
            out = kernels.spmm(self.matrix, xt).T
        if self.scheme == "fp16":
            return out.astype(np.float32)
        return out

    def step(self, state: np.ndarray, ws: _Workspace, key: str) -> np.ndarray:
        """One recurrent step's ``state @ W.T`` in the state's dtype (the
        sparse kernels are float64-only)."""
        return self.project(
            state.astype(np.float64, copy=False), ws, key
        ).astype(state.dtype, copy=False)

    def nbytes(self) -> int:
        return self.matrix.nbytes(
            value_bytes=_VALUE_BYTES[self.scheme], index_bytes=4
        )


def _pack_weight(slot, scheme):
    """Pack one input-side weight slot as its pass-decided format.

    All format *decisions* happen in the compiler's format-selection pass
    (:func:`repro.compiler.passes.select_formats_pass`); this function
    only executes them.
    """
    if slot.format in (None, "dense"):
        return _DenseWeight(slot.array, scheme)
    return _SparseWeight(
        slot.array,
        slot.format,
        scheme,
        grid=slot_grid(slot),
        prebuilt=slot.prebuilt,
        tile=slot.tile,
    )


def _round_bias(bias: np.ndarray, scheme: Optional[str], dtype) -> np.ndarray:
    """Biases follow the scheme's value grid (matching ``quantize_model``)."""
    if scheme == "fp16":
        return quantize_fp16(bias).astype(dtype)
    if scheme == "int8":
        codes, scale = int8_codes(bias)
        return (codes.astype(np.float64) * scale).astype(dtype)
    return bias.copy()


# ---------------------------------------------------------------------------
# Layer plans
# ---------------------------------------------------------------------------
class GRULayerPlan:
    """One GRU layer frozen for batched inference.

    ``forward`` hoists the input projection and runs the numpy backend's
    :func:`~repro.kernels.numpy_backend.gru_recurrence` with the packed
    recurrent weight's ``step``; for the packing-only scheme that is
    op-for-op the ``gru_sequence`` kernel (bit-exact), with the recurrent
    ``w_hh.T`` contiguation hoisted from per-call to compile time.
    """

    def __init__(self, node: GraphNode, scheme: Optional[str]) -> None:
        ih_slot, hh_slot = node.weights["ih"], node.weights["hh"]
        bias_ih = node.params["bias_ih"]
        bias_hh = node.params["bias_hh"]
        self.scheme = scheme
        ih_scheme = _slot_scheme(ih_slot, scheme)
        hh_scheme = _slot_scheme(hh_slot, scheme)
        self.slot_schemes = (ih_scheme, hh_scheme)
        self.slot_config = (
            (ih_scheme or "float", ih_slot.format or "dense"),
            (hh_scheme or "float", hh_slot.format or "dense"),
        )
        self.hidden_size = hh_slot.shape[1]
        self.input_size = ih_slot.shape[1]
        self.dtype = (
            np.float32
            if ih_scheme == "fp16" and hh_scheme == "fp16"
            else np.float64
        )
        self.input_proj = _pack_weight(ih_slot, ih_scheme)
        self.recurrent = _pack_recurrent(hh_slot, hh_scheme)
        h = self.hidden_size
        self.fold_bias = not (ih_scheme is None and hh_scheme is None)
        if not self.fold_bias:
            self.bias_ih = bias_ih.copy()
            self.bias_hh_zr = bias_hh[: 2 * h].copy()
            self.bias_hh_h = bias_hh[2 * h :].copy()
        else:
            # Folded once at compile time; the kernel folds per call.
            # Each bias follows its own slot's value grid (exact copy for
            # a float slot in a mixed plan).
            folded = _round_bias(bias_ih, ih_scheme, np.float64)
            rounded_hh = _round_bias(bias_hh, hh_scheme, np.float64)
            folded[: 2 * h] += rounded_hh[: 2 * h]
            self.bias_folded = folded.astype(self.dtype)
            self.bias_hh_h = rounded_hh[2 * h :].astype(self.dtype)

    def zero_state(self, batch: int) -> Tuple[np.ndarray, ...]:
        return (np.zeros((batch, self.hidden_size), dtype=self.dtype),)

    def forward(
        self,
        x: np.ndarray,
        ws: _Workspace,
        index: int,
        state: Optional[Tuple[np.ndarray, ...]] = None,
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
        seq_len, batch, _ = x.shape
        h = self.hidden_size
        flat = x.reshape(seq_len * batch, self.input_size)
        gates_x = self.input_proj.project(flat, ws, f"gx{index}")
        if not self.fold_bias:
            gates_x = gates_x + self.bias_ih
        else:
            gates_x = gates_x + self.bias_folded
        gates_x = gates_x.reshape(seq_len, batch, 3 * h)
        if not self.fold_bias:
            gates_x[:, :, : 2 * h] += self.bias_hh_zr
        out = ws.take(f"out{index}", (seq_len, batch, h), self.dtype)
        hidden = self.zero_state(batch)[0] if state is None else state[0]
        step, gh_key = self.recurrent.step, f"gh{index}"
        hidden = gru_recurrence(
            gates_x[:, :, : 2 * h],
            gates_x[:, :, 2 * h :],
            self.bias_hh_h,
            hidden,
            lambda carry: step(carry, ws, gh_key),
            out,
        )
        return out, (hidden,)

    def nbytes(self) -> int:
        quantized = any(s is not None for s in self.slot_schemes)
        bias_bytes = 2 * 3 * self.hidden_size * (2 if quantized else 8)
        return self.input_proj.nbytes() + self.recurrent.nbytes() + bias_bytes


class LSTMLayerPlan:
    """One LSTM layer frozen for batched inference (gate order i,f,g,o);
    ``forward`` runs :func:`~repro.kernels.numpy_backend.lstm_recurrence`
    as :class:`GRULayerPlan` runs the GRU loop."""

    def __init__(self, node: GraphNode, scheme: Optional[str]) -> None:
        ih_slot, hh_slot = node.weights["ih"], node.weights["hh"]
        bias = node.params["bias"]
        self.scheme = scheme
        ih_scheme = _slot_scheme(ih_slot, scheme)
        hh_scheme = _slot_scheme(hh_slot, scheme)
        self.slot_schemes = (ih_scheme, hh_scheme)
        self.slot_config = (
            (ih_scheme or "float", ih_slot.format or "dense"),
            (hh_scheme or "float", hh_slot.format or "dense"),
        )
        self.hidden_size = hh_slot.shape[1]
        self.input_size = ih_slot.shape[1]
        self.dtype = (
            np.float32
            if ih_scheme == "fp16" and hh_scheme == "fp16"
            else np.float64
        )
        self.input_proj = _pack_weight(ih_slot, ih_scheme)
        self.recurrent = _pack_recurrent(hh_slot, hh_scheme)
        # The single LSTM bias adds into the input-side gates; it follows
        # the ih slot's value grid (exact copy when both slots are float).
        self.bias = (
            bias.copy()
            if ih_scheme is None and hh_scheme is None
            else _round_bias(bias, ih_scheme, self.dtype)
        )

    def zero_state(self, batch: int) -> Tuple[np.ndarray, ...]:
        zeros = np.zeros((batch, self.hidden_size), dtype=self.dtype)
        return (zeros, zeros.copy())

    def forward(
        self,
        x: np.ndarray,
        ws: _Workspace,
        index: int,
        state: Optional[Tuple[np.ndarray, ...]] = None,
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
        seq_len, batch, _ = x.shape
        h = self.hidden_size
        flat = x.reshape(seq_len * batch, self.input_size)
        gates_x = self.input_proj.project(flat, ws, f"gx{index}")
        gates_x = (gates_x + self.bias).reshape(seq_len, batch, 4 * h)
        out = ws.take(f"out{index}", (seq_len, batch, h), self.dtype)
        hidden, cell = self.zero_state(batch) if state is None else state
        step, gh_key = self.recurrent.step, f"gh{index}"
        hidden, cell = lstm_recurrence(
            gates_x, hidden, cell, lambda carry: step(carry, ws, gh_key), out
        )
        return out, (hidden, cell)

    def nbytes(self) -> int:
        quantized = any(s is not None for s in self.slot_schemes)
        bias_bytes = 4 * self.hidden_size * (2 if quantized else 8)
        return self.input_proj.nbytes() + self.recurrent.nbytes() + bias_bytes


class _DenseRecurrent:
    """Recurrent weight as a pre-transposed contiguous matrix.

    For ``scheme=None`` this is exactly the ``np.ascontiguousarray(w_hh.T)``
    the fused kernel builds per call, hoisted to compile time (bit-exact).
    Int8 recurrent weights are dequantized once — the per-step ``(B, H)``
    GEMMs are too small for integer pipelines to beat float BLAS.
    """

    def __init__(self, weight_hh: np.ndarray, scheme: Optional[str]) -> None:
        self.scheme = scheme
        self.shape = weight_hh.shape
        if scheme is None:
            self.weight_t = np.ascontiguousarray(weight_hh.T)
        elif scheme == "fp16":
            self.storage, self.weight_t = _fp16_pack(weight_hh)
        else:
            self.codes, self.scale = int8_codes(weight_hh)
            self.weight_t = np.ascontiguousarray(
                (self.codes.astype(np.float64) * self.scale).T
            )

    def step(self, state: np.ndarray, ws: _Workspace, key: str) -> np.ndarray:
        out = ws.take(key, (state.shape[0], self.shape[0]), state.dtype)
        return np.matmul(state, self.weight_t, out=out)

    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * _VALUE_BYTES[self.scheme]


def _pack_recurrent(slot, scheme):
    """Pack a recurrent weight slot as its pass-decided format (sparse
    formats share :func:`_pack_weight`'s packing)."""
    if slot.format in (None, "dense"):
        return _DenseRecurrent(slot.array, scheme)
    return _pack_weight(slot, scheme)


class OutputPlan:
    """The final linear projection over phone classes: a dense packed
    weight plus its scheme-rounded bias."""

    def __init__(
        self, weight: np.ndarray, bias: Optional[np.ndarray], scheme: Optional[str]
    ) -> None:
        self.scheme = scheme
        self.num_classes = weight.shape[0]
        self.weight = _DenseWeight(weight, scheme)
        dtype = np.float32 if scheme == "fp16" else np.float64
        self.bias = None if bias is None else _round_bias(bias, scheme, dtype)

    def project(self, hidden: np.ndarray) -> np.ndarray:
        """Hidden states ``(T, B, H)`` → logits ``(T, B, C)`` (fresh array)."""
        seq_len, batch, h = hidden.shape
        logits = self.weight.project(hidden.reshape(seq_len * batch, h))
        if self.bias is not None:
            logits = logits + self.bias
        return logits.reshape(seq_len, batch, self.num_classes)

    def nbytes(self) -> int:
        bias_bytes = 0 if self.bias is None else self.num_classes * (
            2 if self.scheme else 8
        )
        return self.weight.nbytes() + bias_bytes


# ---------------------------------------------------------------------------
# Carry state for streaming execution
# ---------------------------------------------------------------------------
class PlanState:
    """The recurrent carry of a :class:`ModelPlan` between chunks.

    One tuple of ``(B, H)`` arrays per layer — ``(h,)`` for GRU layers,
    ``(h, c)`` for LSTM layers.  States are value objects: the plan never
    mutates a state it was handed, and the state it returns never aliases
    its internal work buffers, so a state can be held across arbitrary
    other plan calls.  ``stack``/``split`` convert between per-session
    states and one batched state — how the stream scheduler fuses
    concurrent sessions into a single ``run_chunk`` call.
    """

    def __init__(self, layer_states: List[Tuple[np.ndarray, ...]]) -> None:
        self.layer_states = layer_states

    @property
    def batch_size(self) -> int:
        return int(self.layer_states[0][0].shape[0])

    @staticmethod
    def stack(states: List["PlanState"]) -> "PlanState":
        """Concatenate per-session states along the batch axis."""
        if not states:
            raise ShapeError("cannot stack an empty list of states")
        num_layers = len(states[0].layer_states)
        stacked = []
        for layer in range(num_layers):
            parts = [s.layer_states[layer] for s in states]
            stacked.append(
                tuple(
                    np.concatenate([p[i] for p in parts], axis=0)
                    for i in range(len(parts[0]))
                )
            )
        return PlanState(stacked)

    def split(self) -> List["PlanState"]:
        """One single-row state per batch entry (copies, no aliasing)."""
        return [
            PlanState(
                [
                    tuple(component[b : b + 1].copy() for component in layer)
                    for layer in self.layer_states
                ]
            )
            for b in range(self.batch_size)
        ]


# ---------------------------------------------------------------------------
# The compiled model
# ---------------------------------------------------------------------------
class ModelPlan:
    """A model compiled to flat arrays; run with :meth:`forward_batch`.

    Internal work buffers are reused across calls, so a plan is cheap to
    invoke repeatedly at steady batch shapes; the returned logits are
    always freshly allocated.  Plans snapshot the weights at compile
    time — recompile after further training or pruning.
    """

    def __init__(
        self,
        layers: List,
        output: Optional[OutputPlan],
        scheme: Optional[str],
        cell_type: str,
        config: EngineConfig,
        backend: Optional[str] = None,
        graph: Optional[LayerGraph] = None,
    ) -> None:
        self.layers = layers
        self.output = output
        self.scheme = scheme
        self.cell_type = cell_type
        self.config = config
        self.backend = backend
        self.graph = graph
        self.input_dim = layers[0].input_size
        self.hidden_size = layers[0].hidden_size
        self._workspace = _Workspace()

    def _backend_scope(self):
        """Kernel-registry scope for this plan's tuned backend choice.

        A plan tuned on another host may name a backend this process
        could not register (an artifact tuned for ``"compiled"`` loaded
        where no C compiler exists).  Backends are bit-compatible (int8)
        or tolerance-compatible (float) by the equivalence suite, so
        that is a performance regression, not a correctness problem:
        warn once and run on the session default instead of crashing.
        """
        if not self.backend:
            return nullcontext()
        if self.backend not in kernels.backends():
            if not getattr(self, "_warned_missing_backend", False):
                self._warned_missing_backend = True
                warnings.warn(
                    f"plan was tuned for kernel backend {self.backend!r}, "
                    f"which is not available in this process "
                    f"(have: {', '.join(kernels.backends())}); "
                    "falling back to the default backend",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return nullcontext()
        return kernels.use_backend(self.backend)

    def forward_batch(
        self, features: np.ndarray, lengths: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Padded features ``(T, B, D)`` → logits ``(T, B, C)``.

        ``lengths`` is validated when given but the full padded batch is
        always computed — callers slice per-utterance frames out (the
        serving layer and :func:`repro.speech.decoder.decode_batch` do).
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 3:
            raise ShapeError(
                f"forward_batch expects (T, B, D) features, got {features.shape}"
            )
        if features.shape[-1] != self.input_dim:
            raise ShapeError(
                f"plan compiled for input dim {self.input_dim}, "
                f"got {features.shape}"
            )
        if lengths is not None:
            lengths = np.asarray(lengths, dtype=np.int64)
            if lengths.shape != (features.shape[1],):
                raise ShapeError(
                    f"lengths must be ({features.shape[1]},), got {lengths.shape}"
                )
            if lengths.size and (
                lengths.min() < 0 or lengths.max() > features.shape[0]
            ):
                raise ShapeError("lengths must lie in [0, T]")
        with self._backend_scope():
            x, _ = self._run_layers(features, None)
            return self._project_out(x)

    def _run_layers(
        self,
        features: np.ndarray,
        layer_states: Optional[List[Tuple[np.ndarray, ...]]],
    ) -> Tuple[np.ndarray, List[Tuple[np.ndarray, ...]]]:
        x = features
        if self.scheme == "fp16":
            x = x.astype(np.float32)
        new_states: List[Tuple[np.ndarray, ...]] = []
        for index, layer in enumerate(self.layers):
            carry = None if layer_states is None else layer_states[index]
            x, carry = layer.forward(x, self._workspace, index, carry)
            new_states.append(carry)
        return x, new_states

    def _project_out(self, x: np.ndarray) -> np.ndarray:
        if self.output is not None:
            x = self.output.project(x)
        if x.dtype != np.float64:
            x = x.astype(np.float64)
        elif self.output is None:
            x = x.copy()  # never hand out an internal work buffer
        return x

    def init_state(self, batch: int) -> PlanState:
        """The all-zero carry state for ``batch`` concurrent streams."""
        if batch < 0:
            raise ShapeError(f"batch must be >= 0, got {batch}")
        return PlanState([layer.zero_state(batch) for layer in self.layers])

    def signature(self) -> Tuple:
        """The compatibility fingerprint that governs hot-swap safety.

        Two plans with equal signatures accept each other's
        :class:`PlanState` *numerically*: per-layer shapes and component
        counts match, **and** every weight slot was lowered under the
        same (scheme, format) decision.  With per-layer scheme mixing a
        shape-only fingerprint is not enough — a mixed-scheme candidate
        would accept an incumbent's state whose trajectory was produced
        on a different quantization grid, silently degrading every
        carried session.  The tuned kernel *backend* is deliberately
        excluded (backends are bit-compatible by the equivalence suite);
        the hot-swap paths (:meth:`StreamScheduler.swap_plan
        <repro.engine.streaming.StreamScheduler.swap_plan>`,
        ``fabric.swap``/``start_canary``) reject signature mismatches
        with a typed ``SwapError``.
        """
        layers = tuple(
            (
                layer.input_size,
                layer.hidden_size,
                len(layer.zero_state(0)),
                getattr(layer, "slot_config", None),
            )
            for layer in self.layers
        )
        classes = (
            None
            if self.output is None
            else (self.output.num_classes, self.output.scheme or "float")
        )
        return (self.cell_type, layers, classes)

    def adapt_state(self, state: PlanState) -> PlanState:
        """Re-home a carry state produced by a same-architecture plan.

        Returns a fresh :class:`PlanState` whose components are cast to
        *this* plan's per-layer compute dtypes (a scheme change moves
        states between float64 and float32); raises :class:`ShapeError`
        when the state's layer count, component count, or hidden sizes
        do not match this plan's architecture.
        """
        if len(state.layer_states) != len(self.layers):
            raise ShapeError(
                f"state has {len(state.layer_states)} layer states, "
                f"plan has {len(self.layers)} layers"
            )
        adapted: List[Tuple[np.ndarray, ...]] = []
        for index, (layer, components) in enumerate(
            zip(self.layers, state.layer_states)
        ):
            template = layer.zero_state(0)
            if len(components) != len(template):
                raise ShapeError(
                    f"layer {index} state has {len(components)} components, "
                    f"expected {len(template)}"
                )
            row = []
            for component, blank in zip(components, template):
                component = np.asarray(component)
                if component.ndim != 2 or component.shape[1] != layer.hidden_size:
                    raise ShapeError(
                        f"layer {index} state component has shape "
                        f"{component.shape}, expected (B, {layer.hidden_size})"
                    )
                row.append(component.astype(blank.dtype, copy=True))
            adapted.append(tuple(row))
        return PlanState(adapted)

    def run_chunk(
        self, features: np.ndarray, state: Optional[PlanState] = None
    ) -> Tuple[np.ndarray, PlanState]:
        """One streaming chunk: ``(T, B, D)`` + carry → ``(logits, carry')``.

        Feeding an utterance through ``run_chunk`` in *any* chunk split
        replays the per-timestep recurrence of :meth:`forward_batch`
        exactly; the only ops whose shape depends on the split are the
        hoisted input/output projections, whose BLAS reduction order may
        differ — so float/fp16 logits agree to reduction-order rounding
        (~1e-12 relative for float64) and int8 logits are **bit-exact**
        (per-frame activation scales, order-exact integer accumulation).
        Decoded phone sequences are identical in either case; see
        ``docs/serving.md``.

        ``state=None`` starts a fresh stream (all-zero state, identical
        to :meth:`forward_batch` on the same frames).  The returned carry
        never aliases plan work buffers, and zero-length chunks are legal
        (logits ``(0, B, C)``, state passed through).
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 3:
            raise ShapeError(
                f"run_chunk expects (T, B, D) features, got {features.shape}"
            )
        if features.shape[-1] != self.input_dim:
            raise ShapeError(
                f"plan compiled for input dim {self.input_dim}, "
                f"got {features.shape}"
            )
        batch = features.shape[1]
        if state is None:
            state = self.init_state(batch)
        elif state.batch_size != batch:
            raise ShapeError(
                f"carry state holds batch {state.batch_size}, "
                f"chunk has batch {batch}"
            )
        with self._backend_scope():
            x, new_states = self._run_layers(features, state.layer_states)
            return self._project_out(x), PlanState(new_states)

    def forward_utterance(self, features: np.ndarray) -> np.ndarray:
        """Single utterance ``(T, D)`` → logits ``(T, C)``."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ShapeError(
                f"forward_utterance expects (T, D) features, got {features.shape}"
            )
        return self.forward_batch(features[:, None, :])[:, 0]

    def nbytes(self) -> int:
        """Modelled storage footprint of the packed weights."""
        total = sum(layer.nbytes() for layer in self.layers)
        if self.output is not None:
            total += self.output.nbytes()
        return total


def _validate_scheme(scheme: Optional[str]) -> None:
    if scheme not in SCHEMES:
        raise ConfigError(f"scheme must be one of {SCHEMES}, got {scheme!r}")


def _config_from_graph(graph: LayerGraph) -> EngineConfig:
    options = graph.options
    fmt = options.sparse_format
    return EngineConfig(
        sparse_format=None if fmt == "dense" else fmt,
        sparsity_threshold=options.sparsity_threshold,
        num_row_strips=options.num_row_strips,
        num_col_blocks=options.num_col_blocks,
    )


def lower_graph(
    graph: LayerGraph, config: Optional[EngineConfig] = None
) -> ModelPlan:
    """Lower a layer graph to an executable :class:`ModelPlan`.

    This is the execution engine's backend of the unified compiler: the
    graph's pass-decided per-slot formats, scheme, and kernel backend are
    executed verbatim.  Slots whose format is still undecided are sent
    through the shared pass pipeline first, so a freshly built frontend
    graph and a tuned/deserialized one lower through the same code.

    Lowering is deterministic: the same graph (same arrays, same
    annotations) always produces a plan with bit-identical outputs —
    the property the compiled-artifact round trip relies on.
    """
    _validate_scheme(graph.scheme)
    if graph.undecided():
        run_passes(graph)
    layers: List = []
    output = None
    for node in graph.nodes:
        if node.kind == "gru_cell":
            layers.append(GRULayerPlan(node, graph.scheme))
        elif node.kind == "lstm_cell":
            layers.append(LSTMLayerPlan(node, graph.scheme))
        elif node.kind == "output":
            out_slot = node.weights["w"]
            output = OutputPlan(
                out_slot.array,
                node.params.get("bias"),
                _slot_scheme(out_slot, graph.scheme),
            )
        else:
            raise ConfigError(
                f"cannot lower node kind {node.kind!r} to the engine"
            )
    if not layers:
        raise ConfigError("graph has no recurrent layers to lower")
    cell_type = graph.cell_type or "gru"
    return ModelPlan(
        layers,
        output,
        graph.scheme,
        cell_type,
        config or _config_from_graph(graph),
        backend=graph.backend,
        graph=graph,
    )


def compile_model(
    model,
    scheme: Optional[str] = None,
    config: EngineConfig = EngineConfig(),
) -> ModelPlan:
    """Compile a :class:`~repro.speech.model.GRUAcousticModel` (or a bare
    ``GRU``/``LSTM`` stack) into a :class:`ModelPlan`.

    The module tree is walked exactly once into the shared layer-graph IR
    (:func:`repro.compiler.pipeline.build_layer_graph`), the compiler's
    pass pipeline decides every format/kernel, and :func:`lower_graph`
    executes those decisions.  The graph holds copies of the weights, so
    later training does not silently change compiled results.
    """
    _validate_scheme(scheme)
    graph = build_layer_graph(model, scheme=scheme, options=config.graph_options())
    run_passes(graph)
    return lower_graph(graph, config)


def compile_rnn(
    weights: Dict[str, np.ndarray],
    scheme: Optional[str] = None,
    config: EngineConfig = EngineConfig(),
) -> ModelPlan:
    """Compile a bare GRU weight dict (``gru.cell{i}.weight_ih/_hh`` keys,
    the :meth:`~repro.speech.model.GRUAcousticModel.prunable_weights` /
    Table II sweep naming) into an RNN-only plan with zero biases.

    Used by the ``--engine`` latency paths, which care about the
    recurrent compute of a sparsity pattern, not trained biases or the
    output projection.
    """
    _validate_scheme(scheme)
    graph = rnn_graph_from_weights(
        weights, scheme=scheme, options=config.graph_options()
    )
    run_passes(graph)
    return lower_graph(graph, config)
