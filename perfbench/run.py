"""End-to-end benchmark of audio → phones serving, with a traced
per-layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload live_audio --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same inputs untraced and then traced and reports
the per-layer metrics, the tracing overhead, and measured per-layer cost
beside the analytic simulator's.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is nonzero
when any decode differs from the oracle or any call failed.

The program under test is imported from ``src/`` next to this directory
and nowhere else; its compiled-kernel cache, artifacts and span dumps go
to ``.bench_build/`` in the same checkout.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# BLAS threads must be pinned before numpy is first imported: threaded
# OpenBLAS gives small GEMMs a long, noisy tail on a 2-core host.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
END_TO_END = [
    ("audio_x_rt", "x", "higher"),
    ("phone_lat_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
]


def prepare_environment() -> None:
    """Make the run use this checkout's program and write only inside it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure ({ROOT / 'src'} is missing)")
    WORKDIR.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_COMPILED_CACHE"] = str(WORKDIR / "compiled")
    os.environ["TMPDIR"] = str(WORKDIR)
    # Host-specific overrides would make runs incomparable across hosts.
    os.environ.pop("REPRO_KERNEL_BACKEND", None)
    os.environ.pop("REPRO_HOST_CALIBRATION", None)
    sys.path.insert(0, str(ROOT / "src"))


def _blas_threads(numpy) -> int:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return -1


def host_metadata(seed: int) -> dict:
    import platform

    import numpy

    from repro import kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(numpy),
        "kernel_backend": kernels.get_default_backend(),
        "compiled_backend_available": kernels.compiled.available(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def main(argv=None, scale=None, tamper=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare_environment()

    import repro
    import workloads

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not this checkout")
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    meta = host_metadata(args.seed)
    result = workloads.WORKLOADS[args.workload](
        args.seed,
        args.seconds,
        bool(args.trace),
        scale or workloads.FULL,
        WORKDIR,
        tamper,
    )
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("host " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in {**result.metrics, **result.report}.items():
        print(f"  {name:<34} {value:>14.4f} {unit}")
    for line in result.lines:
        print(line)
    ledger = result.ledger
    print(
        f"operations attempted {ledger.attempted}, failed {ledger.failed}; "
        f"sessions {ledger.sessions}, matching the oracle {ledger.matched}"
        + (f"; errors {ledger.errors}" if ledger.errors else "")
    )
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
