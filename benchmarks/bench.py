#!/usr/bin/env python3
"""gyrotext benchmark: seeded workloads, end-to-end metrics, traced per-layer run.

    python3 benchmarks/bench.py --workload grid-long-docs --seed 1 --seconds 30 --trace 0
    python3 benchmarks/bench.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; the package is imported from
``src/`` and the fixture generators from ``tests/_synth.py``, nothing is
installed. The parent process writes the workload's input files under
``.bench_work/``, then measures in a fresh worker process (BLAS threads
capped at the CPU count), so peak memory and set-up time belong to that
workload alone. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

# the package, the fixture generators and the benchmark's own modules
IMPORT_PATHS = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

# a run must end within this many seconds, input generation included; a
# longer --seconds raises it (a traced run measures in pairs of repetitions)
RUN_LIMIT_S = 175.0


def _layout_ok() -> bool:
    return (ROOT / "src" / "gyrotext" / "__init__.py").is_file() and (
        ROOT / "tests" / "_synth.py"
    ).is_file()


def _use_checkout() -> None:
    sys.path[:0] = IMPORT_PATHS


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_one(name, seed, seconds, trace):
    """Write one workload's inputs, measure them in a fresh worker process,
    and return its result with the input properties and the environment."""
    import workloads

    deadline = time.monotonic() + max(RUN_LIMIT_S, 2.0 * seconds + 60.0)
    w = workloads.WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    (WORK / "traces").mkdir(exist_ok=True)
    workdir = WORK / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    workdir.mkdir()
    try:
        paths, props = workloads.build(w, seed, workdir)
        spec = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            **paths, "workdir": str(workdir),
            "result": str(workdir / "result.json"),
            "trace_out": str(WORK / "traces" / f"{name}-seed{seed}.json"),
        }
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        threads = str(_nproc())
        path = [*IMPORT_PATHS, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            env=env, timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{name}: worker exited with code {proc.returncode}")
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["inputs"] = props
    result["environment"] = {
        "nproc": _nproc(), "blas_threads": int(threads), "numpy": result.pop("numpy"),
        "python": platform.python_version(), "machine": platform.machine(),
    }
    return result


def report(name, trace, result):
    print(f"== {name} ({'traced, per layer' if trace else 'end to end'})")
    for key, metric in result["metrics"].items():
        print(f"  {key:40s} {metric['value']:16.6f} {metric['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':40s} {frac:16.6f} fraction"
          f"  ({result['failed']} of {result['attempted']} checks)")
    if result.get("accuracy_mean") is not None:
        print(f"  {'grid_accuracy_mean':40s} {result['accuracy_mean']:16.6f} fraction")
    print(f"  samples      {json.dumps(result['samples'])}")
    print(f"  inputs       {json.dumps(result['inputs'])}")
    print(f"  environment  {json.dumps(result['environment'])}")
    for message in result["failures"]:
        print(f"  FAILED: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _layout_ok():
        print(f"error: {ROOT} is not a gyrotext checkout (needs src/gyrotext and tests/_synth.py)",
              file=sys.stderr)
        return 2
    _use_checkout()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not args.workload or any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        for trace in traces:
            result = run_one(name, args.seed, args.seconds, trace)
            report(name, trace, result)
            attempted += result["attempted"]
            failed += result["failed"]
            prefix = f"{name}:" if len(names) > 1 else ""
            for key, metric in result["metrics"].items():
                metrics[prefix + key] = metric
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
