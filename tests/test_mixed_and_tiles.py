"""Per-slot scheme mixing and the BSPC panel row-blocking tile knob.

The tentpole contracts of the joint autotuning loop:

* ``scheme`` is a per-slot IR attribute — ``"mixed"`` quantizes the
  input/output projections to int8 and keeps the recurrences in float,
  decided slot-by-slot by the pass pipeline and carried through
  ``graph_to_arrays`` → ``graph_from_arrays`` bit-exactly;
* ``TileConfig.row_block`` is a *real* host knob — ``pack_bspc_plan``
  re-packs BSPC strips into row panels and the blocked plan is
  **bitwise identical** for int8 (tolerance-equal for float) under
  every kernel backend;
* ``tune_plan`` searches scheme × format × tile jointly and is never
  slower than the default configuration.
"""

import dataclasses

import numpy as np
import pytest

from repro import engine, kernels
from repro.compiler.autotune import (
    compare_tile_rankings,
    default_tile_candidates,
    tune_execution_config,
    tune_plan,
)
from repro.compiler.codegen import CompileOptions
from repro.compiler.ir import (
    OP_LINEAR,
    TileConfig,
    graph_from_arrays,
    graph_to_arrays,
    resolve_slot_scheme,
)
from repro.compiler.passes import run_passes
from repro.compiler.pipeline import build_layer_graph
from repro.errors import CompilationError, ConfigError
from repro.hw.profiles import ADRENO_640
from repro.pruning.bsp import BSPConfig, bsp_project_masks
from repro.sparse.blocks import grid_for
from repro.sparse.bspc import BSPCMatrix
from repro.speech.model import AcousticModelConfig, GRUAcousticModel

BACKENDS = list(kernels.backends())


def small_model(seed=0, pruned=True):
    model = GRUAcousticModel(
        AcousticModelConfig(input_dim=8, hidden_size=16, num_layers=2),
        rng=seed,
    ).eval()
    if pruned:
        masks = bsp_project_masks(
            model.prunable_weights(),
            BSPConfig(col_rate=4, row_rate=2, num_row_strips=4, num_col_blocks=4),
        )
        for name, param in model.prunable_parameters().items():
            param.data[...] = masks[name].apply_to_array(param.data)
    return model


def bsp_matrix(rng, shape=(32, 48)):
    w = rng.standard_normal(shape)
    masks = bsp_project_masks(
        {"w": w},
        BSPConfig(col_rate=4, row_rate=2, num_row_strips=4, num_col_blocks=3),
    )
    pruned = masks["w"].apply_to_array(w)
    return BSPCMatrix.from_dense(pruned, grid_for(pruned, 4, 3))


class TestResolveSlotScheme:
    def test_none_means_explicit_float(self):
        assert resolve_slot_scheme(None, OP_LINEAR) == "float"
        assert resolve_slot_scheme(None, "recurrent_matvec") == "float"

    def test_mixed_quantizes_projections_only(self):
        assert resolve_slot_scheme("mixed", OP_LINEAR) == "int8"
        assert resolve_slot_scheme("mixed", "recurrent_matvec") == "float"

    def test_uniform_schemes_broadcast(self):
        for scheme in ("fp16", "int8"):
            assert resolve_slot_scheme(scheme, OP_LINEAR) == scheme
            assert resolve_slot_scheme(scheme, "recurrent_matvec") == scheme

    def test_unknown_scheme_rejected(self):
        with pytest.raises(CompilationError):
            resolve_slot_scheme("int4", OP_LINEAR)


class TestPerSlotScheme:
    def test_passes_fill_slot_schemes_for_mixed(self):
        graph = build_layer_graph(small_model(), scheme="mixed")
        run_passes(graph)
        schemes = {slot.name: slot.scheme for _, _, slot in graph.slots()}
        assert schemes  # the graph has tunable slots
        for _, _, slot in graph.slots():
            expected = "int8" if slot.op == OP_LINEAR else "float"
            assert slot.scheme == expected, slot.name

    def test_mixed_is_a_distinct_operating_point(self, rng):
        model = small_model()
        x = rng.standard_normal((9, 2, 8))
        logits = {
            scheme: engine.compile_model(model, scheme=scheme).forward_batch(x)
            for scheme in (None, "int8", "mixed")
        }
        assert not np.array_equal(logits["mixed"], logits[None])
        assert not np.array_equal(logits["mixed"], logits["int8"])

    def test_signatures_distinguish_slot_schemes(self):
        model = small_model()
        signatures = {
            scheme: engine.compile_model(model, scheme=scheme).signature()
            for scheme in (None, "int8", "mixed")
        }
        assert len(set(signatures.values())) == 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mixed_chunked_equals_offline_bitwise(self, backend, rng_factory):
        graph = build_layer_graph(small_model(), scheme="mixed", backend=backend)
        plan = engine.lower_graph(graph)
        x = rng_factory(5).standard_normal((12, 2, 8))
        offline = plan.forward_batch(x)
        state, chunks = None, []
        for chunk in (x[:5], x[5:6], x[6:]):
            logits, state = plan.run_chunk(chunk, state)
            chunks.append(logits)
        np.testing.assert_array_equal(np.concatenate(chunks, axis=0), offline)

    def test_slot_scheme_and_tile_survive_serialization(self, rng):
        graph = build_layer_graph(
            small_model(),
            scheme="mixed",
            options=engine.EngineConfig(sparse_format="bspc").graph_options(),
        )
        tile = TileConfig(rows_per_thread=4, row_block=4)
        for _, _, slot in graph.slots():
            slot.tile = tile
        run_passes(graph)
        arrays, meta = graph_to_arrays(graph)
        restored = graph_from_arrays(arrays, meta)
        for (_, _, a), (_, _, b) in zip(graph.slots(), restored.slots()):
            assert b.scheme == a.scheme
            assert b.tile.row_block == a.tile.row_block
        x = rng.standard_normal((7, 2, 8))
        np.testing.assert_array_equal(
            engine.lower_graph(restored).forward_batch(x),
            engine.lower_graph(graph).forward_batch(x),
        )

    def test_legacy_graph_without_slot_schemes_falls_back(self, rng):
        # Artifacts written before the per-slot attribute carry
        # slot.scheme=None; lowering must resolve them from the graph
        # scheme to the identical computation.
        model = small_model()
        graph = build_layer_graph(model, scheme="mixed")
        run_passes(graph)
        reference = engine.lower_graph(graph)
        for _, _, slot in graph.slots():
            slot.scheme = None
        legacy = engine.lower_graph(graph)
        x = rng.standard_normal((6, 2, 8))
        np.testing.assert_array_equal(
            legacy.forward_batch(x), reference.forward_batch(x)
        )


class TestPackBspcPlan:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("row_block", [1, 2, 4, 16])
    def test_blocked_float_spmm_matches_unblocked(self, backend, row_block,
                                                  rng_factory):
        matrix = bsp_matrix(rng_factory(row_block))
        x = rng_factory(100 + row_block).standard_normal((48, 3))
        expected = kernels.spmm(matrix, x, backend=backend)
        kernels.pack_bspc_plan(matrix, row_block)
        np.testing.assert_allclose(
            kernels.spmm(matrix, x, backend=backend), expected,
            rtol=1e-12, atol=1e-12,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("row_block", [1, 2, 4, 16])
    def test_blocked_int8_spmm_is_bitwise_exact(self, backend, row_block,
                                                rng_factory):
        matrix = bsp_matrix(rng_factory(row_block))
        x = rng_factory(200 + row_block).standard_normal((48, 3))
        expected = kernels.spmm_int8(matrix, x, backend=backend)
        kernels.pack_bspc_plan(matrix, row_block)
        np.testing.assert_array_equal(
            kernels.spmm_int8(matrix, x, backend=backend), expected
        )

    def test_zero_restores_whole_strip_packing(self, rng):
        matrix = bsp_matrix(rng)
        base = kernels.bspc_plan(matrix)
        blocked = kernels.pack_bspc_plan(matrix, 1)
        assert blocked.panels.shape[0] > base.panels.shape[0]
        restored = kernels.pack_bspc_plan(matrix, 0)
        assert restored.panels.shape == base.panels.shape

    def test_negative_row_block_rejected(self, rng):
        with pytest.raises(ValueError):
            kernels.pack_bspc_plan(bsp_matrix(rng), -1)


class TestTileKnobEndToEnd:
    @pytest.mark.parametrize("scheme", [None, "int8", "mixed"])
    def test_row_blocked_plan_matches_unblocked(self, scheme, rng):
        model = small_model()
        config = engine.EngineConfig(sparse_format="bspc")
        expected = engine.compile_model(model, scheme=scheme, config=config)
        graph = build_layer_graph(
            model, scheme=scheme, options=config.graph_options()
        )
        for _, _, slot in graph.slots():
            slot.tile = TileConfig(rows_per_thread=4, row_block=4)
        run_passes(graph)
        blocked = engine.lower_graph(graph, config)
        x = rng.standard_normal((8, 2, 8))
        if scheme in ("int8", "mixed"):
            # Quantized paths see the exact same integer dot products.
            np.testing.assert_array_equal(
                blocked.forward_batch(x), expected.forward_batch(x)
            )
        else:
            np.testing.assert_allclose(
                blocked.forward_batch(x), expected.forward_batch(x),
                rtol=1e-10, atol=1e-12,
            )


class TestJointTuneWithTiles:
    def sample(self, seed=1):
        return np.random.default_rng(seed).standard_normal((10, 2, 8))

    def test_tile_stage_explores_row_blocks(self):
        result = tune_plan(
            small_model(), self.sample(), formats=("bspc",),
            tiles=default_tile_candidates((2, 4)), repeats=1,
        )
        assert result.speedup >= 1.0
        tile_rows = [c for c in result.trace if c.label.startswith("tile-rb")]
        assert {c.row_block for c in tile_rows} == {2, 4}
        # Non-tile candidates stay on whole-strip packing.
        assert all(
            c.row_block == 0 for c in result.trace
            if not c.label.startswith("tile-rb")
        )

    def test_tile_stage_skipped_without_bspc(self):
        result = tune_plan(
            small_model(pruned=False), self.sample(), formats=("dense",),
            tiles=default_tile_candidates((2, 4)), repeats=1,
        )
        assert all(not c.label.startswith("tile-rb") for c in result.trace)

    def test_joint_scheme_format_tile_search_never_slower(self):
        result = tune_plan(
            small_model(), self.sample(), schemes=(None, "mixed"),
            tiles=default_tile_candidates((4,)), repeats=1,
        )
        assert result.speedup >= 1.0
        assert any(c.scheme == "mixed" for c in result.trace)
        # A configuration is never measured twice, tiles included.
        seen = set()
        for c in result.trace:
            key = (c.scheme, c.backend, tuple(sorted(c.formats.items())),
                   c.row_block)
            assert key not in seen, f"duplicate measurement: {c.label}"
            seen.add(key)

    def test_tile_winner_round_trips(self, tmp_path, monkeypatch):
        # Force the tile candidate to win so the serialized artifact
        # carries a row-blocked plan, then prove bit-exact redeployment.
        import repro.compiler.autotune as autotune

        times = iter([10.0, 5.0, 1.0, 0.5, 0.25, 0.125, 0.0625])
        monkeypatch.setattr(
            autotune,
            "timed_median",
            lambda fn, repeats: (next(times, 1.0), None),
        )
        sample = self.sample()
        result = tune_plan(
            small_model(), sample, formats=("bspc",),
            tiles=default_tile_candidates((4,)), repeats=1, prefilter_top=1,
        )
        assert result.best.row_block == 4
        engine.save_plan(tmp_path / "tuned.npz", result.plan)
        reloaded = engine.load_plan(tmp_path / "tuned.npz")
        np.testing.assert_array_equal(
            reloaded.forward_batch(sample), result.plan.forward_batch(sample)
        )


class TestTuneExecutionConfigReplace:
    """Regression for the tuner dropping CompileOptions fields: candidate
    options must be built with ``dataclasses.replace`` so any field —
    including ones added after the tuner was written — survives."""

    def test_new_option_field_survives(self, monkeypatch, rng):
        Extended = dataclasses.make_dataclass(
            "ExtendedOptions",
            [("new_knob", int, dataclasses.field(default=7))],
            bases=(CompileOptions,),
            frozen=True,
        )
        base = Extended(
            format_name="csr",
            enable_reorder=False,
            enable_load_elimination=False,
            num_row_strips=2,
            num_col_blocks=3,
            new_knob=13,
        )
        captured = []

        class FakeCompiled:
            def simulate(self, device):
                return dataclasses.make_dataclass("S", [("latency_us", float)])(1.0)

        def fake_compile(named_weights, options, **kwargs):
            captured.append(options)
            return FakeCompiled()

        import repro.compiler.autotune as autotune

        monkeypatch.setattr(autotune, "compile_for_simulation", fake_compile)
        tile = TileConfig(rows_per_thread=8, row_block=8)
        tune_execution_config(
            {"w": rng.standard_normal((8, 8))}, ADRENO_640,
            base_options=base, tile_space=[tile],
        )
        assert captured == [dataclasses.replace(base, tile=tile)]
        assert captured[0].new_knob == 13
        assert captured[0].format_name == "csr"
        assert captured[0].enable_reorder is False
        assert captured[0].num_col_blocks == 3


class TestCompareTileRankings:
    def test_comparison_is_well_formed(self):
        model = small_model()
        sample = np.random.default_rng(2).standard_normal((6, 1, 8))
        comparison = compare_tile_rankings(
            model, sample, row_blocks=(2, 8), repeats=1
        )
        assert comparison.row_blocks == (2, 8)
        assert set(comparison.simulated_us) == {2, 8}
        assert set(comparison.measured_s) == {2, 8}
        assert comparison.sim_pick in (2, 8)
        assert comparison.measured_pick in (2, 8)
        assert 0.0 <= comparison.pairwise_agreement <= 1.0
        assert 0.0 < comparison.sim_pick_efficiency <= 1.0
        assert all(v > 0 for v in comparison.simulated_us.values())
        assert all(v > 0 for v in comparison.measured_s.values())

    def test_validation(self):
        model = small_model()
        sample = np.random.default_rng(2).standard_normal((6, 1, 8))
        with pytest.raises(ConfigError):
            compare_tile_rankings(model, sample, row_blocks=(4,))
        with pytest.raises(ConfigError):
            compare_tile_rankings(model, sample, row_blocks=(0, 4))
        with pytest.raises(ConfigError):
            compare_tile_rankings(model, sample[0], row_blocks=(2, 4))
