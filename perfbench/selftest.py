"""Smoke-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at smoke scale and
checks that:

* the last line is the result object, ``correct`` and with no failures;
* it carries exactly the metrics ``BENCHMARK.json`` names, each with its
  unit, and every metric is also printed by name and unit above it;
* the figures that are printed but not judged (``decode_match``,
  ``failed_share``, the p95 and p99 phone latency and, for
  ``live_audio``, ``deadline_miss_share``) are printed;
* a deliberately corrupted hypothesis makes the run report a failure
  and exit nonzero;
* in a directory holding only ``BENCHMARK.json`` and this benchmark (no
  program to measure) the command fails without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

run.prepare_environment()
import probes  # noqa: E402  (needs the program on sys.path)
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(argv, tamper=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, scale=workloads.SMOKE, tamper=tamper)
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_spec() -> None:
    names = [w["name"] for w in SPEC["workloads"]]
    _expect(names == list(workloads.WORKLOADS), f"workloads {names}")
    end_to_end = [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
    _expect(end_to_end == run.END_TO_END, "end_to_end metrics differ from run.py")
    per_layer = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    _expect(per_layer == probes.PER_LAYER, "per_layer metrics differ from probes.py")


def check_workload(name: str) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, lines, result = _run(
            ["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
        )
        _expect(code == 0, f"{name} trace={trace}: exit {code}")
        _expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        _expect(result["correct"] and result["failed"] == 0, f"{name}: {result}")
        _expect(result["attempted"] >= 1, f"{name}: nothing attempted")
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        _expect(got == expected, f"{name} trace={trace}: metrics {sorted(got)}")
        printed = {tuple(line.split()[::2]) for line in lines if line.startswith("  ")}
        for metric, unit in expected.items():
            _expect((metric, unit) in printed, f"{name}: {metric} not printed with {unit}")
        report = [line.split()[0] for line in lines if line.startswith("  ")]
        wanted = ["decode_match", "failed_share"]
        if trace == 0:
            wanted += ["phone_lat_p95_ms", "phone_lat_p99_ms"]
        if name == "live_audio" and trace == 0:
            wanted.append("deadline_miss_share")
        for metric in wanted:
            _expect(metric in report, f"{name}: {metric} not printed")
        if trace == 0:
            for m in SPEC["end_to_end"]:
                _expect(result["metrics"][m["name"]]["value"] > 0, f"{name}: {m['name']} is 0")


def check_corruption(name: str) -> None:
    corrupted = []

    def tamper(hypothesis):
        if corrupted:
            return hypothesis
        corrupted.append(True)
        return hypothesis + [1]

    code, _, result = _run(
        ["--workload", name, "--seed", "4", "--seconds", "1", "--trace", "0"], tamper
    )
    _expect(corrupted, f"{name}: no hypothesis was checked")
    _expect(code != 0, f"{name}: corrupted run exited 0")
    _expect(not result["correct"] and result["failed"] >= 1, f"{name}: {result}")


def check_without_program() -> None:
    bare = run.WORKDIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            Path(__file__).parent, bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "live_audio",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    _expect(proc.returncode != 0, "ran without a program to measure")
    _expect('"correct"' not in proc.stdout, "printed a result without a program")


def main() -> int:
    check_spec()
    for name in workloads.WORKLOADS:
        check_workload(name)
        check_corruption(name)
        print(f"ok {name}")
    check_without_program()
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
