"""Job execution, report structure, exit codes, and the CLI wrapper.

Each bundled job is run through the public entry points; exit codes follow
the documented contract: 0 ok, 1 parse error, 2 validation error, 3 a check
ran and failed its tolerance, 4 unexpected computation error.
"""

import json
import subprocess
import sys
import time
import tracemalloc

import pytest

from basicforms.cli import builtin_job_names, run
from basicforms.expressions import MAX_EXPONENT
from basicforms.jobs import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_VALIDATION_ERROR,
    MAX_CLOSURE_CAP,
    MAX_GRID_SAMPLES,
    format_report,
    run_job,
)


def _builtin(name: str) -> dict:
    from importlib import resources

    path = resources.files("basicforms") / "jobs_data" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


ALL_BUILTINS = [
    "irrational_torus_basis",
    "orbifold_c4",
    "so2_gauge",
    "solenoid_basis",
    "solenoid_cohomology",
    "stages_solenoid",
    "symplectic_r4",
    "z2_criterion",
]


def test_builtin_job_inventory():
    assert builtin_job_names() == ALL_BUILTINS


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_every_bundled_job_succeeds(name):
    report, code = run_job(_builtin(name))
    assert code == EXIT_OK, report.get("error")
    assert report["status"] == "ok"
    assert report["provenance"]["tool"] == "basicforms"


def test_solenoid_basis_report_content():
    report, code = run_job(_builtin("solenoid_basis"))
    assert code == EXIT_OK
    results = report["results"]
    assert results["dimension"] == 1
    assert results["basis"][0]["string"] == "(a) dx + (-1) dy"
    assert report["provenance"]["scalar_field"] == "Q(a)"
    assert report["config"]["parameter"] == "formal"


def test_cohomology_report_has_two_windows():
    report, code = run_job(_builtin("solenoid_cohomology"))
    assert code == EXIT_OK
    windows = report["results"]["windows"]
    assert [w["max_degree"] for w in windows] == [2, 4]
    for w in windows:
        assert [r["dim_cohomology"] for r in w["records"]] == [1, 1, 0]


def test_binding_changes_scalar_field_tag():
    report, code = run_job(_builtin("solenoid_basis"), bind_a="2/3")
    assert code == EXIT_OK
    assert report["provenance"]["scalar_field"] == "Q"
    assert report["config"]["parameter"] == "2/3"
    assert report["results"]["dimension"] == 1


def test_report_is_deterministic_up_to_timestamp():
    # every bundled job twice in one process: the second run follows one
    # that already filled every cache it could reach
    for name in ALL_BUILTINS:
        r1, _ = run_job(_builtin(name))
        r2, _ = run_job(_builtin(name))
        r1.pop("generated_at")
        r2.pop("generated_at")
        assert format_report(r1) == format_report(r2), name


def test_format_report_round_trips_through_json():
    report, _ = run_job(_builtin("orbifold_c4"))
    text = format_report(report)
    assert json.loads(text) == report
    assert text.endswith("\n")


def test_missing_command_is_a_validation_error():
    report, code = run_job({})
    assert code == EXIT_VALIDATION_ERROR
    assert report["status"] == "error"
    assert report["error"]["kind"] == "validation"


def test_command_mismatch_is_a_validation_error():
    job = _builtin("solenoid_basis")
    report, code = run_job(job, command="cohomology")
    assert code == EXIT_VALIDATION_ERROR
    assert "does not match" in report["error"]["message"]


def test_bad_coefficient_expression_is_a_parse_error():
    job = _builtin("solenoid_basis")
    job["action"]["infinitesimal"] = [["1", "a +"]]
    report, code = run_job(job)
    assert code == EXIT_PARSE_ERROR
    assert report["error"]["kind"] == "parse"
    assert isinstance(report["error"]["position"], int)


def test_deep_nesting_is_a_parse_error():
    for text in ("(" * 5000 + "a" + ")" * 5000, "-" * 5000 + "a"):
        job = _builtin("solenoid_basis")
        job["action"]["infinitesimal"] = [["1", text]]
        report, code = run_job(job)
        assert code == EXIT_PARSE_ERROR, report["error"]
        assert report["error"]["kind"] == "parse"


def _hostile_exponent_job(kind: str) -> tuple[dict, str]:
    """A job with a power far past MAX_EXPONENT, and the path of that input."""
    if kind == "criterion-coefficient":
        job = _builtin("z2_criterion")
        job["form"]["terms"][0]["coefficient"] = "x^100000"
        return job, "job.form.terms[0].coefficient"
    job = _builtin("solenoid_basis")
    job["action"]["discrete"][0]["translation"] = ["3^3000000", "0"]
    return job, "job.action.discrete[0].translation"


@pytest.mark.parametrize("kind", ["criterion-coefficient", "basis-translation"])
def test_hostile_exponent_is_a_parse_error(kind):
    # before the limit the first ran out of memory evaluating 100000 powers
    # per sample, and the second spent minutes building one integer
    job, path = _hostile_exponent_job(kind)
    began = time.perf_counter()
    report, code = run_job(job)
    assert time.perf_counter() - began < 5.0
    assert code == EXIT_PARSE_ERROR, report.get("error")
    assert report["error"]["kind"] == "parse"
    assert report["error"]["message"].startswith(path)
    assert f"limit of {MAX_EXPONENT}" in report["error"]["message"]
    assert report["error"]["position"] == 2


@pytest.mark.parametrize("factors, expected", [(MAX_EXPONENT, EXIT_OK), (300, EXIT_PARSE_ERROR)])
def test_product_degree_limit_in_a_criterion_coefficient(factors, expected):
    # before the product limit, x*x*...*x passed where x^300 did not, and with
    # 100000 factors it ran out of memory evaluating the powers per sample
    job = _builtin("z2_criterion")
    job["form"]["terms"][0]["coefficient"] = "*".join(["x"] * factors)
    report, code = run_job(job)
    assert code == expected, report.get("error")
    if expected == EXIT_PARSE_ERROR:
        message = report["error"]["message"]
        assert message.startswith("job.form.terms[0].coefficient: product of degree 257")
        assert f"limit of {MAX_EXPONENT}" in message


@pytest.mark.parametrize(
    "text, position, degree",
    [("*".join(["(1+a)"] * 400), 1535, 257), ("(a*a*a)^100", 8, 300)],
    ids=["product", "power"],
)
def test_degree_in_a_is_bounded_in_a_basis_translation(text, position, degree):
    # before the bound, the 400-factor product parsed to a^400 and the power
    # to a^300, and 2000 factors took 20 s to parse
    job = _builtin("solenoid_basis")
    job["action"]["discrete"][0]["translation"] = [text, "0"]
    began = time.perf_counter()
    report, code = run_job(job)
    assert time.perf_counter() - began < 5.0
    assert code == EXIT_PARSE_ERROR, report.get("error")
    message = report["error"]["message"]
    assert message.startswith("job.action.discrete[0].translation: ")
    assert f"of degree {degree} in a is past the limit of {MAX_EXPONENT}" in message
    assert report["error"]["position"] == position


@pytest.mark.parametrize("name", ["z2_criterion", "so2_gauge", "symplectic_r4"])
def test_coefficient_beyond_float_range_is_a_validation_error(name):
    job = _builtin(name)
    key = "sigma" if name == "symplectic_r4" else "form"
    big = "1" + "0" * 400  # 10^400: exact, but no float holds it
    job[key]["terms"][0]["coefficient"] = big if key == "sigma" else f"{big}*x"
    report, code = run_job(job)
    assert code == EXIT_VALIDATION_ERROR, report.get("error")
    assert report["error"]["message"].startswith(f"job.{key} ")
    assert "beyond float range" in report["error"]["message"]


def test_unknown_builtin_plot_is_a_validation_error():
    job = _builtin("z2_criterion")
    job["plots"]["first"] = "missing_plot"
    report, code = run_job(job)
    assert code == EXIT_VALIDATION_ERROR


def test_failed_tolerance_exits_three():
    job = _builtin("z2_criterion")
    job["form"] = {"grade": 1, "terms": [{"indices": [0], "coefficient": "1"}]}
    report, code = run_job(job)
    assert code == EXIT_CHECK_FAILED
    assert report["status"] == "fail"
    assert report["results"]["check"]["passed"] is False


def test_formal_run_of_numeric_command_is_rejected():
    # the flowed solenoid plot needs a numeric slope; formal must not silently float
    job = {
        "command": "criterion",
        "plots": {"first": "solenoid_line", "second": "solenoid_line_flowed"},
        "form": {"grade": 1, "terms": [{"indices": [0], "coefficient": "a"},
                                        {"indices": [1], "coefficient": "-1"}]},
        "tolerance": 1e-9,
    }
    report, code = run_job(job)
    assert code == EXIT_VALIDATION_ERROR
    assert "'a'" in report["error"]["message"]
    good, code2 = run_job(job, bind_a=0.618)
    assert code2 == EXIT_OK, good.get("error")


def test_bad_parameter_value_is_a_validation_error():
    report, code = run_job(_builtin("solenoid_basis"), bind_a="one half")
    assert code == EXIT_VALIDATION_ERROR


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_parameter_is_a_validation_error(value):
    job = _builtin("solenoid_basis")
    job["parameter"] = value  # Python's json reads NaN and Infinity
    for report, code in (run_job(job), run_job(_builtin("solenoid_basis"), bind_a=value)):
        assert code == EXIT_VALIDATION_ERROR, report.get("error")
        assert f"parameter '{value}' is not 'formal'" in report["error"]["message"]
        json.dumps(report, allow_nan=False)  # the report is strict JSON


def test_infinite_closure_is_a_validation_error():
    job = {
        "command": "orbifold",
        "chart": {
            "dimension": 1,
            "generators": [{"matrix": [["1"]], "translation": ["1"]}],
            "closure_cap": 16,
        },
        "truncation": {"grade": 0, "max_degree": 1},
    }
    report, code = run_job(job)
    assert code == EXIT_VALIDATION_ERROR


def _doubling_chart_job(cap: int) -> dict:
    return {
        "command": "orbifold",
        "chart": {"dimension": 1, "generators": [{"matrix": [["2"]]}], "closure_cap": cap},
        "truncation": {"grade": 0, "max_degree": 1},
    }


@pytest.mark.parametrize("cap", [10**9, MAX_CLOSURE_CAP + 1, 0, -1])
def test_out_of_range_closure_cap_is_refused_before_walking(cap):
    started = time.perf_counter()
    report, code = run_job(_doubling_chart_job(cap))
    assert time.perf_counter() - started < 2.0
    assert code == EXIT_VALIDATION_ERROR
    assert "closure_cap must be between 1 and 4096" in report["error"]["message"]


def test_largest_closure_cap_ends_an_infinite_walk():
    report, code = run_job(_doubling_chart_job(MAX_CLOSURE_CAP))
    assert code == EXIT_VALIDATION_ERROR
    assert "not finite within cap 4096" in report["error"]["message"]


def test_properness_flag_is_echoed():
    job = _builtin("solenoid_basis")
    job["assume_identity_component_proper"] = True
    report, code = run_job(job)
    assert code == EXIT_OK
    assert report["provenance"]["identity_component_proper_asserted"] is True
    base, _ = run_job(_builtin("solenoid_basis"))
    assert base["provenance"]["identity_component_proper_asserted"] is None


def test_cli_runs_builtin_job(capsys):
    code = run(["basis", "--job", "builtin:solenoid_basis"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    out = json.loads(captured.out)
    assert out["results"]["basis"][0]["string"] == "(a) dx + (-1) dy"


def test_cli_writes_report_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = run(["orbifold", "--job", "builtin:orbifold_c4", "--out", str(out_path)])
    assert code == EXIT_OK
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["status"] == "ok"
    assert "-> " in capsys.readouterr().out


def test_cli_missing_file(capsys):
    code = run(["basis", "--job", "/no/such/job.json"])
    assert code == EXIT_VALIDATION_ERROR
    assert "cannot read job" in capsys.readouterr().err


def test_cli_unknown_builtin(capsys):
    code = run(["basis", "--job", "builtin:missing"])
    assert code == EXIT_VALIDATION_ERROR
    assert "no bundled job" in capsys.readouterr().err


def test_cli_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code = run(["basis", "--job", str(bad)])
    assert code == EXIT_PARSE_ERROR
    assert "line 1" in capsys.readouterr().err


def test_cli_tolerance_below_grid_resolution_is_refused(capsys):
    # a tolerance the grid cannot certify must refuse (exit 2), not pass or fail
    code = run(["gauge", "--job", "builtin:so2_gauge", "--tol", "1e-16"])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION_ERROR
    assert "refine the grid" in err


def test_cli_tolerance_override_reaches_the_check(tmp_path, capsys):
    job = _builtin("z2_criterion")
    job["form"] = {"grade": 1, "terms": [{"indices": [0], "coefficient": "1"}]}
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    code = run(["criterion", "--job", str(path), "--tol", "1e-3"])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_CHECK_FAILED
    assert out["config"]["tolerance_override"] == 1e-3
    assert out["results"]["check"]["tolerance"] == 1e-3


def test_cli_bind_a_fraction(capsys):
    code = run(["basis", "--job", "builtin:solenoid_basis", "--bind-a", "2/3"])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert out["provenance"]["scalar_field"] == "Q"


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "basicforms", "basis", "--job", "builtin:solenoid_basis"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "(a) dx + (-1) dy" in proc.stdout


def _z2_job(count: int) -> dict:
    job = _builtin("z2_criterion")
    job["grid"] = {"start": -1.5, "stop": 1.5, "count": count}
    job["form"] = {
        "grade": 1,
        "terms": [{"indices": [0], "coefficient": "3/7*x - 5/3*x^3 + 2/9*x^5 + x^7"}],
    }
    return job


def _so2_gauge_job(count: int) -> dict:
    job = _builtin("so2_gauge")
    job["grid"] = {"start": -1.5, "stop": 1.5, "count": count}
    job["form"] = {
        "grade": 1,
        "terms": [
            {"indices": [0], "coefficient": "x - 3/4*x^3 - 3/4*x*y^2"},
            {"indices": [1], "coefficient": "y - 3/4*x^2*y - 3/4*y^3"},
        ],
    }
    return job


def test_odd_form_on_the_glued_lines_agrees_exactly():
    # the two plots differ by x -> -x, and powers are repeated products,
    # so an odd coefficient pulls back to bit-identical values
    report, code = run_job(_z2_job(100_001))
    assert code == EXIT_OK
    assert report["results"]["check"]["max_abs_deviation"] == 0.0


@pytest.mark.parametrize("span", [1e-110, 1e-200, 1e200])
def test_z2_criterion_on_extreme_grids(span):
    # the bump underflows to 0 on the tiny grids, where t^3 underflows too,
    # and the powers of t overflow on the huge one: no 0/0, no warning
    job = _builtin("z2_criterion")
    job["grid"] = {"start": -span, "stop": span, "count": 5}
    report, code = run_job(job)
    assert code == EXIT_OK, report.get("error")
    assert report["results"]["check"]["max_abs_deviation"] == 0.0


@pytest.mark.parametrize("job", [_z2_job(100_001), _so2_gauge_job(30_001)],
                         ids=["criterion", "gauge"])
def test_numeric_jobs_stream_in_bounded_memory(job):
    run_job(job)
    tracemalloc.start()
    try:
        report, code = run_job(job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < 3 * 2**20


def test_oversized_grid_is_a_validation_error():
    for count in (10**13, MAX_GRID_SAMPLES + 1):
        report, code = run_job(_z2_job(count))
        assert code == EXIT_VALIDATION_ERROR
        assert report["error"]["kind"] == "validation"
        assert "count must be at most" in report["error"]["message"]


def _chart_job(entry: str, parameter=None) -> dict:
    job = {
        "command": "orbifold",
        "chart": {"dimension": 1, "generators": [{"matrix": [[entry]]}]},
        "truncation": {"grade": 1, "max_degree": 3},
    }
    if parameter is not None:
        job["parameter"] = parameter
    return job


def test_parameter_binds_chart_generators():
    report, code = run_job(_chart_job("a", parameter="-1"))
    assert code == EXIT_OK, report.get("error")
    assert report["provenance"]["scalar_field"] == "Q"
    assert report["results"]["group_order"] == 2
    plain, plain_code = run_job(_chart_job("-1"))
    assert plain_code == EXIT_OK
    assert report["results"]["basis"] == plain["results"]["basis"]
    # the CLI's --bind-a reaches the generators the same way
    bound, bound_code = run_job(_chart_job("a"), bind_a="-1")
    assert bound_code == EXIT_OK
    assert bound["results"] == report["results"]


def _scaling_basis_job(matrix_entry: str, shift: str, parameter=None) -> dict:
    job = {
        "command": "basis",
        "action": {
            "dimension": 1,
            "discrete": [{"matrix": [[matrix_entry]], "translation": [shift]}],
        },
        "truncation": {"grade": 0, "max_degree": 2},
    }
    if parameter is not None:
        job["parameter"] = parameter
    return job


def _numeric_pole_job(name: str, parameter: str) -> dict:
    """A bundled numeric job whose checked form has a pole at a = 1."""
    job = _builtin(name)
    key = "sigma" if name == "symplectic_r4" else "form"
    job[key]["terms"][0]["coefficient"] = "x/(a-1)" if key == "form" else "1/(a-1)"
    job["parameter"] = parameter
    return job


@pytest.mark.parametrize(
    "job, bind_a, path, value",
    [
        (_scaling_basis_job("a", "0", parameter="0"), None, "job.action", "a = 0"),
        (_scaling_basis_job("1", "1/(a-1)", parameter="1"), None, "job.action", "a = 1"),
        (_scaling_basis_job("a", "0"), "0", "job.action", "a = 0"),
        (_numeric_pole_job("z2_criterion", "1"), None, "job.form", "a = 1"),
        (_numeric_pole_job("so2_gauge", "1"), None, "job.form", "a = 1"),
        (_numeric_pole_job("symplectic_r4", "1"), None, "job.sigma", "a = 1"),
    ],
    ids=["singular-map", "pole", "bind-a", "criterion-pole", "gauge-pole", "symplectic-pole"],
)
def test_binding_to_a_bad_value_is_a_validation_error(job, bind_a, path, value):
    report, code = run_job(job, bind_a=bind_a)
    assert code == EXIT_VALIDATION_ERROR, report.get("error")
    assert report["error"]["kind"] == "validation"
    assert path in report["error"]["message"]
    assert value in report["error"]["message"]


@pytest.mark.parametrize("name", ["z2_criterion", "so2_gauge", "symplectic_r4"])
def test_value_near_a_pole_is_bound_exactly(name):
    # a = 1 + 10^-20 is 1.0 as a float, but not a pole of 1/(a-1)
    job = _numeric_pole_job(name, "100000000000000000001/100000000000000000000")
    report, code = run_job(job)
    assert code in (EXIT_OK, EXIT_CHECK_FAILED), report.get("error")


@pytest.mark.parametrize("name", ["z2_criterion", "so2_gauge", "symplectic_r4"])
@pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")], ids=["nan", "neg", "inf"])
def test_out_of_range_tolerance_is_a_validation_error(name, bad):
    job = _builtin(name)
    job["tolerance"] = bad
    report, code = run_job(job)
    assert code == EXIT_VALIDATION_ERROR
    assert "job.tolerance must be finite and at least 0" in report["error"]["message"]
    job["tolerance"] = 10**400  # a JSON integer no float can hold
    report, code = run_job(job)
    assert code == EXIT_VALIDATION_ERROR
    assert "job.tolerance is out of float range" in report["error"]["message"]
    report, code = run_job(_builtin(name), tol=bad)
    assert code == EXIT_VALIDATION_ERROR
    assert "tol must be finite and at least 0" in report["error"]["message"]
    json.dumps(report, allow_nan=False)  # the report is strict JSON
