"""The benchmark's own tests: tiny passes, the checker, the result line.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from basicforms.jobs import run_job

import check
import run
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_is_correct(workload):
    for case in workloads.build(workload, seed=7, size="tiny"):
        report, code = run_job(case.job)
        assert check.check_case(case, report, code) == [], case.name


def test_seed_changes_inputs_not_job_list():
    first = workloads.build("formal_ladder", 1)
    assert [c.job for c in first] == [c.job for c in workloads.build("formal_ladder", 1)]
    second = workloads.build("formal_ladder", 2)
    assert [c.name for c in first] == [c.name for c in second]
    assert [c.job for c in first] != [c.job for c in second]


def _solenoid_case():
    case = workloads.build("formal_ladder", seed=3, size="tiny")[0]
    report, code = run_job(case.job)
    assert check.check_case(case, report, code) == []
    return case, report, code


def test_checker_rejects_tampered_basis():
    case, report, code = _solenoid_case()
    tampered = copy.deepcopy(report)
    basis = tampered["results"]["basis"][0]
    basis["terms"][0]["coefficient"] = "2*a"
    basis["string"] = basis["string"].replace("(a)", "(2*a)")
    assert check.check_case(case, tampered, code)


def test_checker_rejects_string_that_does_not_render_terms():
    case, report, code = _solenoid_case()
    tampered = copy.deepcopy(report)
    tampered["results"]["basis"][0]["string"] = "(a) dx + (1) dy"
    assert check.check_case(case, tampered, code)


def test_checker_rejects_wrong_exit_and_missing_basis():
    case, report, code = _solenoid_case()
    assert check.check_case(case, report, 3)
    tampered = copy.deepcopy(report)
    tampered["results"]["basis"] = []
    tampered["results"]["dimension"] = 0
    assert check.check_case(case, tampered, code)


def test_molien_gives_the_known_dimensions():
    b3 = workloads.closure(workloads.signed_permutations(3))
    assert len(b3) == 48
    assert check.molien_dimension(b3, 1, 2) == 1
    assert check.molien_dimension(b3, 2, 2) == 0
    c4 = workloads.closure([((0, -1), (1, 0))])
    assert check.molien_dimension(c4, 2, 0) == 1


def test_tracer_restores_the_library():
    from basicforms import jobs, linalg, solver
    from basicforms.scalars import Scalar

    originals = (jobs.run_job, solver.kernel_basis, linalg.kernel_basis, Scalar.__mul__, Scalar.of)
    case = workloads.build("formal_ladder", seed=1, size="tiny")[0]
    tracer = Tracer()
    tracer.install_spans()
    try:
        assert solver.kernel_basis is linalg.kernel_basis is not originals[1]
        jobs.run_job(case.job)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["linalg.calls"] >= 1 and metrics["linalg.self_s"] > 0
    tracer.reset()
    tracer.install_counters()
    try:
        jobs.run_job(case.job)
    finally:
        tracer.uninstall()
    assert tracer.scalar_metrics()["scalars.mul"] > 0
    assert (jobs.run_job, solver.kernel_basis, linalg.kernel_basis, Scalar.__mul__, Scalar.of) == originals


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == {**run.END_TO_END, **run.PER_LAYER}[metric["name"]]


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_result_line(trace):
    done = _run(["--workload", "numeric_checks", "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(["--workload", "formal_ladder", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
