"""The run_bench --check gate's baseline handling (benchmarks/run_bench.py).

A baseline file that is unreadable, malformed, or missing a row must
fail with a message naming the file and the problem — never with a
KeyError/JSONDecodeError traceback — and a *current* row no baseline
knows about must be reported as unrecorded instead of silently passing.
The serving suite is also run once at smoke scale, so a harness change
that drops or renames a recorded BENCH_serving.json row fails here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "run_bench",
    Path(__file__).resolve().parents[1] / "benchmarks" / "run_bench.py",
)
run_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_bench)


def row(op="spmv", size="s", backend="numpy", median_s=1.0, speedup=2.0):
    return {
        "op": op,
        "size": size,
        "backend": backend,
        "median_s": median_s,
        "speedup_vs_baseline": speedup,
        "baseline": "reference",
    }


class TestLoadBaselineRows:
    def write(self, tmp_path, payload):
        path = tmp_path / "BENCH_x.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return path

    def test_valid_file_round_trips(self, tmp_path):
        path = self.write(tmp_path, {"meta": {}, "results": [row()]})
        assert run_bench.load_baseline_rows(path) == [row()]

    def test_missing_file_names_the_path(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read baseline"):
            run_bench.load_baseline_rows(tmp_path / "nope.json")

    def test_invalid_json_reported(self, tmp_path):
        path = self.write(tmp_path, "{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            run_bench.load_baseline_rows(path)

    def test_missing_results_key_reported(self, tmp_path):
        path = self.write(tmp_path, {"meta": {}})
        with pytest.raises(SystemExit, match="no 'results' key"):
            run_bench.load_baseline_rows(path)

    def test_non_list_results_reported(self, tmp_path):
        path = self.write(tmp_path, {"results": {"op": "x"}})
        with pytest.raises(SystemExit, match="must be a list"):
            run_bench.load_baseline_rows(path)

    def test_malformed_row_names_missing_fields(self, tmp_path):
        bad = {k: v for k, v in row().items() if k != "median_s"}
        path = self.write(tmp_path, {"results": [row(), bad]})
        with pytest.raises(SystemExit, match=r"results\[1\].*median_s"):
            run_bench.load_baseline_rows(path)


class TestCheckAgainst:
    def test_clean_check_passes(self):
        assert run_bench.check_against([row()], [row()], threshold=1.5) == []

    def test_recorded_row_missing_from_current(self):
        problems = run_bench.check_against([row()], [], threshold=1.5)
        assert len(problems) == 1
        assert "recorded but not re-run" in problems[0]

    def test_slowdown_reported(self):
        slow = row(median_s=10.0, speedup=2.0)
        problems = run_bench.check_against([row()], [slow], threshold=1.5)
        assert any("10000.000ms" in p for p in problems)

    def test_speedup_collapse_reported(self):
        collapsed = row(speedup=0.1)
        problems = run_bench.check_against([row()], [collapsed], threshold=1.5)
        assert any("speedup vs in-run baseline" in p for p in problems)

    def test_self_baselined_row_exempt_from_absolute(self):
        # A row that is its op's own in-run baseline (backend == baseline,
        # like the tile_ranking row) measures machine speed; only its
        # tracked ratio can fail it.
        recorded = row(backend="reference", median_s=0.01, speedup=0.35)
        slow_host = row(backend="reference", median_s=1.0, speedup=0.34)
        assert run_bench.check_against([recorded], [slow_host], 1.5) == []


class TestServingSuite:
    def test_one_harness_call_yields_the_recorded_rows(self):
        # bench_streaming maps one run_stream_bench call onto the
        # BENCH_serving.json rows: the same (op, size, backend) keys, and
        # a chaos fabric row that reads recovered.
        recorded = run_bench.load_baseline_rows(
            run_bench.REPO_ROOT / "BENCH_serving.json"
        )
        rows = run_bench.bench_streaming(1)
        assert len(rows) == len(recorded)
        assert set(run_bench.rows_by_key(rows)) == set(
            run_bench.rows_by_key(recorded)
        )
        recovery = next(r for r in rows if r["op"] == "fabric_recovery")
        assert recovery["speedup_vs_baseline"] == 1.0
        assert recovery["restarts"] >= 1
