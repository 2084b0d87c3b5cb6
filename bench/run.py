"""Benchmark of basicforms: three seeded workloads through the job layer.

    python3 bench/run.py --workload formal_ladder --seed 1 --seconds 35 --trace 0

``--workload all`` runs every workload and prints a table.  With
``--trace 0`` the last line of standard output is one JSON object with the
end-to-end metrics; with ``--trace 1`` it has the per-layer metrics of a
traced run instead.  See README.md in this directory.

Load model: one process, one thread (numpy's BLAS pool pinned to 1 in the
child's environment), jobs one after another in a closed loop.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import probe, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("formal_ladder", "rational_charts", "numeric_checks")

END_TO_END = {
    "wall_s": "s",
    "slowest_job_s": "s",
    "job_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "linalg.self_s": "s",
    "linalg.calls": "count",
    "linalg.rows": "count",
    "linalg.cols": "count",
    "linalg.nonzeros": "count",
    "linalg.density": "share",
    "linalg.rank_share": "share",
    "scalars.mul": "count",
    "scalars.div": "count",
    "scalars.add": "count",
    "scalars.coerce": "count",
    "scalars.param_share": "share",
    "polynomials.self_s": "s",
    "polynomials.substitute.calls": "count",
    "polynomials.add.calls": "count",
    "forms.self_s": "s",
    "forms.pullback.calls": "count",
    "forms.eval_form.calls": "count",
    "actions.self_s": "s",
    "actions.compose.calls": "count",
    "actions.maps_built": "count",
    "solver.self_s": "s",
    "solver.operator_block.self_s": "s",
    "solver.coordinates.calls": "count",
    "solver.reynolds.self_s": "s",
    "orbifolds.self_s": "s",
    "stages.self_s": "s",
    "symplectic.self_s": "s",
    "plots.self_s": "s",
    "plots.samples": "count",
    "expressions.self_s": "s",
    "jobs.self_s": "s",
    "jobs.errors": "count",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

SETUP_RUNS = 11
RUN_TIMEOUT_S = 170
_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict:
    """Environment of every child: the checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.update({name: "1" for name in _THREAD_VARIABLES})
    return env


def measure_setup(env: dict) -> tuple[float, float]:
    """Median time from process start to ``import basicforms`` done, scaled
    to the reference host speed, and unscaled.

    CLOCK_MONOTONIC is system-wide on Linux, so the child's reading after the
    import and ours before the spawn share one time base.  The first spawn
    only warms the bytecode cache and is not counted.
    """
    code = (
        "import time, basicforms\n"
        "print(time.clock_gettime(time.CLOCK_MONOTONIC), basicforms.__file__)"
    )
    samples, unscaled = [], []
    for attempt in range(SETUP_RUNS + 1):
        before = probe()
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        after = probe()
        stamp, path = done.stdout.split()
        if Path(path).resolve().parent != (SRC / "basicforms").resolve():
            raise RuntimeError(f"fresh interpreter imported basicforms from {path}")
        if attempt:
            unscaled.append(float(stamp) - started)
            samples.append(scaled(unscaled[-1], before, after))
    return statistics.median(samples), statistics.median(unscaled)


def run_workload(workload: str, args, env: dict, deadline: float) -> dict:
    out = HERE / "out" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--out", str(out),
    ]
    done = subprocess.run(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _print_jobs(result: dict) -> None:
    for job in result["jobs"]:
        shape = ""
        if "linalg.rows" in job:
            shape = (f"  elim rows {job['linalg.rows']:>6} cols {job['linalg.cols']:>6}"
                     f" nonzeros {job['linalg.nonzeros']:>7}")
        print(f"  {job['name']:<34} {job['seconds'] * 1000:10.1f} ms{shape}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "basicforms" / "__init__.py").is_file():
        print(f"error: no basicforms sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = child_env()
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        setup = None if args.trace else measure_setup(env)
        results = {w: run_workload(w, args, env, deadline) for w in chosen}
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    for workload, result in results.items():
        prefix = "" if len(chosen) == 1 else f"{workload}."
        print(f"{workload} (seed {args.seed}, {'traced' if args.trace else 'untraced'})")
        _print_jobs(result)
        for problem in result["problems"]:
            print(f"  WRONG {problem}")
        print(f"  failed_ratio {result['failed'] / result['attempted']:.4f} share"
              f" ({result['failed']} of {result['attempted']} job runs)")
        for name, value in result["metrics"].items():
            if name in units:
                metrics[prefix + name] = {"value": value, "unit": units[name]}
                print(f"  {name:<30} {value:>14.6g} {units[name]}")
        if "raw" in result:
            raw = result["raw"]
            print(f"  unscaled: wall_s {raw['wall_s']:.6g} s, slowest_job_s"
                  f" {raw['slowest_job_s']:.6g} s, job_p50_ms {raw['job_p50_ms']:.6g} ms;"
                  f" host speed factor {raw['speed_factor']:.4f} over {raw['passes']} passes")
    if setup is not None:
        metrics["setup_s"] = {"value": setup[0], "unit": "s"}
        print(f"setup_s {setup[0]:.4f} s, unscaled {setup[1]:.4f} s"
              f" (median of {SETUP_RUNS} fresh interpreters)")
    if args.trace:
        print("no wait time is recorded: one process, one thread, nothing queues")
    correct = failed == 0
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
