"""Child process of the benchmark: one workload in a closed loop.

``run.py`` starts this file in a fresh interpreter with BLAS pinned to one
thread, so that ``ru_maxrss`` is the workload's own peak memory.  Jobs run
one after another through ``basicforms.jobs.run_job``; each pass runs the
whole job list.  Reports are checked after the timed loop, and the result
is printed as one JSON line on standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from probe import PROBE_REF_S, probe, scaled
from tracing import SPANNED_LAYERS, Tracer

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
# No pass starts if it would likely end past this, so a run ends within
# three minutes even on a much slower build.
BUDGET_S = 120.0


def _run_pass(jobs, cases, tracer=None) -> dict:
    """One pass over the job list; a probe runs between jobs (see probe.py)."""
    records = []
    probes = [probe()]
    for index, case in enumerate(cases):
        if tracer is not None:
            tracer.job = index
            before = dict(tracer.counts)
            before_self = dict(tracer.self_s)
        began = time.perf_counter()
        report, code = jobs.run_job(case.job)
        seconds = time.perf_counter() - began
        probes.append(probe())
        record = {
            "seconds": seconds,
            "scaled": scaled(seconds, probes[-2], probes[-1]),
            "report": report,
            "code": code,
        }
        if tracer is not None:
            record["traced"] = {
                key: tracer.counts[key] - before.get(key, 0)
                for key in ("linalg.rows", "linalg.cols", "linalg.nonzeros")
            }
            record["traced"]["self_s"] = {
                layer: tracer.self_s[layer] - before_self.get(layer, 0.0)
                for layer in SPANNED_LAYERS
                if tracer.self_s[layer] != before_self.get(layer, 0.0)
            }
        records.append(record)
    return {"wall": sum(r["seconds"] for r in records), "records": records, "probes": probes}


def _verify(check, cases, passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every job run of every pass."""
    first = passes[0]["records"]
    attempted = failed = 0
    problems: list[str] = []
    for index, case in enumerate(cases):
        found = check.check_case(case, first[index]["report"], first[index]["code"])
        expected = check.comparable(first[index]["report"])
        for number, run in enumerate(passes):
            record = run["records"][index]
            attempted += 1
            bad = list(found)
            if number and (record["code"] != first[index]["code"]
                           or check.comparable(record["report"]) != expected):
                bad.append(f"pass {number} report differs from pass 0")
            if bad:
                failed += 1
                problems += [f"{case.name}: {p}" for p in bad]
    return attempted, failed, problems


def _job_table(cases, timed, traced=None) -> list[dict]:
    table = []
    for index, case in enumerate(cases):
        row = {
            "name": case.name,
            "seconds": statistics.median(p["records"][index]["seconds"] for p in timed),
        }
        if traced:
            row.update(traced[0]["records"][index]["traced"])
        table.append(row)
    return table


def _timed_loop(seconds: float, run_once, min_runs: int) -> list:
    """Repeat ``run_once`` while another run fits in ``seconds``."""
    out = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        out.append(run_once())
        elapsed = time.perf_counter() - start
        last = time.perf_counter() - began
        if elapsed + last > BUDGET_S:
            return out
        if len(out) >= min_runs and elapsed + last > seconds:
            return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--out", help="also write the full result here")
    args = parser.parse_args(argv)

    src = HERE.parent / "src"
    sys.path.insert(0, str(src))
    import basicforms
    from basicforms import jobs

    if Path(basicforms.__file__).resolve().parent != (src / "basicforms").resolve():
        print(f"error: imported basicforms from {basicforms.__file__}, not {src}", file=sys.stderr)
        return 2

    import check
    import workloads

    cases = workloads.build(args.workload, args.seed, args.size)
    for case in workloads.build(args.workload, args.seed, "tiny"):
        jobs.run_job(case.job)  # warm-up: lazy set-up and first-call costs

    result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if not args.trace:
        passes = _timed_loop(args.seconds, lambda: _run_pass(jobs, cases), MIN_PASSES)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        largest = next(i for i, case in enumerate(cases) if case.largest)

        def times(key: str) -> dict:
            return {
                "wall_s": statistics.median(sum(r[key] for r in p["records"]) for p in passes),
                "slowest_job_s": statistics.median(p["records"][largest][key] for p in passes),
                "job_p50_ms": 1000.0 * statistics.median(
                    r[key] for p in passes for r in p["records"]
                ),
            }

        result["metrics"] = dict(times("scaled"), peak_rss_mb=peak_kb / 1024.0)
        result["raw"] = dict(
            times("seconds"),
            speed_factor=PROBE_REF_S / statistics.median(t for p in passes for t in p["probes"]),
            passes=len(passes),
        )
        result["jobs"] = _job_table(cases, passes)
        all_passes = passes
    else:
        tracer = Tracer()
        untraced, traced, layers, spans = [], [], [], []

        def pair():
            untraced.append(_run_pass(jobs, cases))
            tracer.reset()
            tracer.install_spans()
            try:
                traced.append(_run_pass(jobs, cases, tracer))
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics())
            layers[-1]["trace.overhead_s"] = tracer.overhead_s
            if not spans:
                spans.extend(tracer.spans)

        _timed_loop(args.seconds, pair, 1)
        tracer.reset()
        tracer.install_counters()
        try:
            counting = _run_pass(jobs, cases)
        finally:
            tracer.uninstall()
        metrics = {key: statistics.median(run[key] for run in layers) for key in layers[0]}
        metrics.update(tracer.scalar_metrics())
        metrics["trace.overhead_ratio"] = statistics.median(
            p["wall"] for p in traced
        ) / statistics.median(p["wall"] for p in untraced)
        result["metrics"] = metrics
        result["jobs"] = _job_table(cases, untraced, traced)
        result["spans"] = spans
        all_passes = untraced + traced + [counting]

    attempted, failed, problems = _verify(check, cases, all_passes)
    result.update(attempted=attempted, failed=failed, problems=problems[:50])
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result) + "\n", encoding="utf-8")
    result.pop("spans", None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
