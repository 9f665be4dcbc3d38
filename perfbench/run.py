"""Benchmark entry point: one workload per call, or every workload in turn.

    python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1     # all workloads, one process each

Run it from anywhere; it imports the program from ``src/`` next to this
directory. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. A report with
sample counts, the run's shape and its provenance goes to ``results/``.

Exit codes: 0 when every check passed, 1 when a check failed, 2 when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORKLOAD_NAMES = ("replay", "train", "calibrate")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of every generated input")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="time the workload's focus stage repeats for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced run and report per-layer metrics")
    return parser.parse_args(argv)


def single_blas_thread() -> None:
    """Run BLAS on one thread; must be called before numpy is imported.

    On a 2-vCPU shared host, two OpenBLAS threads ran a 300 x 300 GEMM about
    15x slower than one and gave SGD batches 15x outliers; one thread keeps
    the whole load in one process on one core.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def blas_threads() -> int | None:
    """Threads of the OpenBLAS numpy loaded, asked through its C API."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "blas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_rev() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": blas_threads()},
            "numpy": np.__version__, "python": platform.python_version(),
            "git_rev": git_rev()}


def _number(value: float):
    return None if math.isnan(value) else value


def run_workload(args: argparse.Namespace) -> int:
    if not (SRC / "tmagest" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'tmagest'})",
              file=sys.stderr)
        return 2
    single_blas_thread()
    sys.path.insert(0, str(SRC))
    import protocol
    import tracing

    workload = protocol.WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=RESULTS) as tmp:
        run = protocol.run_protocol(workload, args.seed, args.seconds, Path(tmp))
        attempted, failed, errors = run.attempted, run.failed, list(run.errors)
        metrics = {name: run.metrics[name] for name in protocol.END_TO_END}
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.patched(protocol.TRACE_TARGETS):
                traced = protocol.run_protocol(workload, args.seed, args.seconds,
                                               Path(tmp), tracer)
            attempted += traced.attempted
            failed += traced.failed
            errors += [f"traced run: {e}" for e in traced.errors]
            if traced.events != run.events:
                failed += 1
                errors.append("the traced run emitted other events than the untraced one")
            metrics = protocol.layer_metrics(tracer, traced, run)
            tracer.write(RESULTS / f"spans-{workload.name}-seed{args.seed}.npz")

    correct = failed == 0 and not errors
    print(f"perfbench {workload.name}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} n={count}")
    print(f"  shape: {json.dumps(run.shape)}")
    for error in errors:
        print(f"  FAILED: {error}")
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct, "attempted": attempted,
              "failed": failed, "errors": errors, "shape": run.shape,
              "unscaled": run.unscaled,
              "metrics": {name: {"value": _number(v), "unit": u, "count": n}
                          for name, (v, u, n) in metrics.items()},
              "provenance": provenance()}
    report_path = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": _number(v), "unit": u}
                                  for name, (v, u, _) in metrics.items()}}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Run each workload in its own process, so peak memory is its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload is None else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
