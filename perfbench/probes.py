"""Where the traced run cuts the program into layers, and what it reports.

:func:`instrument` wraps the calls that cross from one layer into the
next, from outside the program: public methods of the frontend,
scheduler, batcher, plan, decoder and fabric; the per-layer plan objects
a :class:`~repro.engine.plan.ModelPlan` runs (its input projection,
recurrent step, layer ``forward`` and output projection); and the kernel
registry entry points.  Plan spans are named after the compiler's weight
slots — ``gru.cell<i>.weight_ih`` / ``weight_hh`` — which is how the
analytic simulator names its ``LayerTiming`` rows, so measured and
simulated cost join on the name (:func:`layer_table`).

Kernel operation and byte counts are computed from tensor sizes and
nonzero counts, not measured: ``ops`` is two per multiply-add
(``2 · nnz · columns`` for sparse, ``2 · rows · cols · batch`` for
dense int8); ``bytes`` is the weight storage as the plan packs it
(8-byte float or 1-byte int8 values, 4-byte indices) plus the activation
array passed in and the array returned.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro import engine, kernels
from repro.engine import serving as serving_module
from repro.engine.fabric import ServingFabric, WorkerHandle
from repro.engine.plan import ModelPlan
from repro.speech.decoder import IncrementalDecoder
from repro.speech.features import StreamingFrontend
from spans import Tracer

#: Per-layer metrics of the traced run: (name, unit, better).  ``*.ms``
#: is self time.  Metrics of a layer a workload does not use read 0.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("features.push.calls", "count", "lower"),
    ("features.push.ms", "ms", "lower"),
    ("features.finish.ms", "ms", "lower"),
    ("features.frames", "count", "higher"),
    ("streaming.open.ms", "ms", "lower"),
    ("streaming.feed.ms", "ms", "lower"),
    ("streaming.poll.ms", "ms", "lower"),
    ("streaming.finish.ms", "ms", "lower"),
    ("streaming.batches", "count", "lower"),
    ("streaming.mean_batch", "count", "higher"),
    ("streaming.wait_frames", "count", "lower"),
    ("serving.batches", "count", "lower"),
    ("serving.padding_overhead", "ratio", "lower"),
    ("serving.self.ms", "ms", "lower"),
    ("plan.run_chunk.calls", "count", "lower"),
    ("plan.run_chunk.ms", "ms", "lower"),
    ("plan.forward_batch.calls", "count", "lower"),
    ("plan.forward_batch.ms", "ms", "lower"),
]
for _i in range(2):
    PER_LAYER += [
        (f"plan.gru.cell{_i}.weight_ih.ms", "ms", "lower"),
        (f"plan.gru.cell{_i}.weight_ih.total_ms", "ms", "lower"),
        (f"plan.gru.cell{_i}.weight_hh.ms", "ms", "lower"),
        (f"plan.gru.cell{_i}.weight_hh.total_ms", "ms", "lower"),
        (f"plan.gru.cell{_i}.weight_hh.calls", "count", "lower"),
        (f"plan.gru.cell{_i}.gates.ms", "ms", "lower"),
    ]
PER_LAYER += [("plan.output.ms", "ms", "lower")]
KERNEL_OPS = ("spmm", "spmm_int8", "linear_int8_rowwise")
for _op in KERNEL_OPS:
    PER_LAYER += [
        (f"kernels.{_op}.calls", "count", "lower"),
        (f"kernels.{_op}.ms", "ms", "lower"),
        (f"kernels.{_op}.ops", "count", "lower"),
        (f"kernels.{_op}.bytes", "bytes", "lower"),
    ]
PER_LAYER += [
    ("decoder.push.calls", "count", "lower"),
    ("decoder.push.ms", "ms", "lower"),
    ("decoder.decode_batch.ms", "ms", "lower"),
    ("fabric.open.ms", "ms", "lower"),
    ("fabric.feed.ms", "ms", "lower"),
    ("fabric.poll.ms", "ms", "lower"),
    ("fabric.finish.ms", "ms", "lower"),
    ("fabric.rpc.calls", "count", "lower"),
    ("fabric.mean_batch", "count", "higher"),
    ("fabric.max_backlog_frames", "count", "lower"),
    ("fabric.chunks_shed", "count", "lower"),
    ("fabric.restarts", "count", "lower"),
    ("fabric.worker_p50_ms", "ms", "lower"),
    ("fabric.worker_p95_ms", "ms", "lower"),
    ("driver.ms", "ms", "lower"),
    ("driver.lag_p50_ms", "ms", "lower"),
    ("driver.lag_p99_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
]
del _i, _op
_NAMES = {name for name, _, _ in PER_LAYER}

def _sparse_counter(op: str, value_bytes: int, sizes: Dict[int, tuple]):
    def count(args, result) -> Dict[str, float]:
        matrix, x = args[0], args[1]
        # nnz and the packed size walk every BSPC panel: once per matrix.
        cached = sizes.get(id(matrix))
        if cached is None or cached[0] is not matrix:
            nbytes = matrix.nbytes(value_bytes=value_bytes, index_bytes=4)
            cached = sizes[id(matrix)] = (matrix, int(matrix.nnz), nbytes)
        _, nnz, nbytes = cached
        columns = x.shape[1] if x.ndim == 2 else 1
        return {
            f"kernels.{op}.ops": 2.0 * nnz * columns,
            f"kernels.{op}.bytes": float(nbytes + x.nbytes + result.nbytes),
        }

    return count


def _linear_counter(args, result) -> Dict[str, float]:
    codes, _, x = args[0], args[1], args[2]
    rows, cols = codes.shape
    return {
        "kernels.linear_int8_rowwise.ops": 2.0 * rows * cols * x.shape[0],
        "kernels.linear_int8_rowwise.bytes": float(
            codes.nbytes + x.nbytes + result.nbytes
        ),
    }


def _frames(args, result) -> Dict[str, float]:
    return {"features.frames": float(len(result))}


def _layer_frames(prefix: str):
    def count(args, result) -> Dict[str, float]:
        x = args[0]
        return {f"{prefix}.frames": float(x.shape[0] * x.shape[1])}

    return count


def _rpc(args, result) -> Dict[str, float]:
    return {"fabric.rpc.calls": 1.0}


def instrument(tracer: Tracer, plans=()) -> None:
    """Wrap every layer boundary; ``plans`` get per-layer spans."""
    tracer.wrap(StreamingFrontend, "push", "features.push", _frames)
    tracer.wrap(StreamingFrontend, "finish", "features.finish", _frames)
    for method in ("open", "feed", "poll", "finish"):
        tracer.wrap(engine.StreamScheduler, method, f"streaming.{method}")
    tracer.wrap(engine, "serve_stream", "serving.self")
    tracer.wrap(ModelPlan, "run_chunk", "plan.run_chunk")
    tracer.wrap(ModelPlan, "forward_batch", "plan.forward_batch")
    tracer.wrap(kernels, "spmm", "kernels.spmm", _sparse_counter("spmm", 8, {}))
    tracer.wrap(
        kernels, "spmm_int8", "kernels.spmm_int8", _sparse_counter("spmm_int8", 1, {})
    )
    tracer.wrap(
        kernels, "linear_int8_rowwise", "kernels.linear_int8_rowwise", _linear_counter
    )
    tracer.wrap(IncrementalDecoder, "push", "decoder.push")
    tracer.wrap(serving_module, "decode_batch", "decoder.decode_batch")
    for method in ("open", "feed", "poll", "finish"):
        tracer.wrap(ServingFabric, method, f"fabric.{method}")
    # A synchronous RPC's wait belongs to the fabric call that made it.
    tracer.wrap(WorkerHandle, "request", None, _rpc)
    for plan in plans:
        for index, layer in enumerate(plan.layers):
            prefix = f"plan.{plan.cell_type}.cell{index}"
            tracer.wrap(layer, "forward", f"{prefix}.gates", _layer_frames(prefix))
            tracer.wrap(layer.input_proj, "project", f"{prefix}.weight_ih")
            tracer.wrap(layer.recurrent, "step", f"{prefix}.weight_hh")
        if plan.output is not None:
            tracer.wrap(plan.output, "project", "plan.output")


def per_layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Span- and counter-derived per-layer values (the rest of
    :data:`PER_LAYER` comes from the program's own stats objects)."""
    values: Dict[str, float] = {}
    for name, unit, _ in PER_LAYER:
        stem, _, field = name.rpartition(".")
        if field == "ms":
            values[name] = tracer.ms(stem)
        elif field == "total_ms":
            values[name] = tracer.total_ms(stem)
        elif field == "calls" and stem in tracer.calls:
            values[name] = float(tracer.n(stem))
    values.update(
        (key, value) for key, value in tracer.counters.items() if key in _NAMES
    )
    return values
