"""Job execution, report structure, exit codes, and the CLI wrapper.

Each bundled job is run through the public entry points; exit codes follow
the documented contract: 0 ok, 1 parse error, 2 validation error, 3 a check
ran and failed its tolerance, 4 unexpected computation error.
"""

import json
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

from basicforms import cli, jobs, orbifolds
from basicforms.cli import builtin_job_names, run
from basicforms.examples import solenoid_stages
from basicforms.expressions import MAX_DIGITS, MAX_EXPONENT, ParseError, parse_poly_expr
from basicforms.jobs import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_VALIDATION_ERROR,
    MAX_CLOSURE_CAP,
    MAX_GRID_SAMPLES,
    _parse_form,
    _utc_stamp,
    format_report,
    run_job,
)
from basicforms.stages import stages_check


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


@pytest.mark.parametrize(
    "t",
    [
        0.0,
        1760000000.0,  # microsecond 0: no fraction
        1760000000.25,
        1760000000.0000005,  # 0.48 microseconds: no fraction
        1760000000.9999996,  # rounds up into the next second
        0.0000025,  # exactly 2.5 microseconds after the scaling: half to even, 2
        0.0000035,  # and 4
        951782400.123456,  # 29 February 2000
        4102444799.999999,
        -1.5,
    ],
)
def test_generated_at_stamp_matches_datetime(t):
    from datetime import datetime, timezone

    assert _utc_stamp(t) == datetime.fromtimestamp(t, timezone.utc).isoformat()


def test_generated_at_is_an_isoformat_utc_stamp():
    from datetime import datetime

    report, _ = run_job(_builtin("solenoid_basis"))
    stamp = report["generated_at"]
    assert stamp.endswith("+00:00")
    assert datetime.fromisoformat(stamp).isoformat() == stamp


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


def _inline_stages_job() -> dict:
    """A stages job in the inline format, with the solenoid basis action as ``big``."""
    return {
        "command": "stages",
        "big": _builtin("solenoid_basis")["action"],
        "projection": ["y - a*x"],
        "induced": {"dimension": 1, "discrete": [{"matrix": [["1"]], "translation": ["1"]}]},
        "truncation": {"grade": 1, "max_degree": 0},
    }


@pytest.mark.parametrize(
    "job, keys, path",
    [
        (_builtin("solenoid_basis"), ("action", "discrete", 0, "matrix", 1, 1),
         "job.action.discrete[0].matrix[1]"),
        (_builtin("solenoid_basis"), ("action", "discrete", 1, "translation", 0),
         "job.action.discrete[1].translation"),
        (_builtin("solenoid_basis"), ("action", "infinitesimal", 0, 1),
         "job.action.infinitesimal[0]"),
        (_inline_stages_job(), ("projection", 0), "job.projection"),
        (_builtin("orbifold_c4"), ("chart", "generators", 0, "matrix", 0, 1),
         "job.chart.generators[0].matrix[0]"),
        (_builtin("symplectic_r4"), ("sigma", "terms", 1, "coefficient"),
         "job.sigma.terms[1].coefficient"),
    ],
    ids=["action-matrix", "translation", "infinitesimal", "projection", "chart-matrix", "sigma"],
)
def test_every_expression_input_reports_its_own_path(job, keys, path):
    bad = "1 + ?"
    with pytest.raises(ParseError) as raised:
        parse_poly_expr(bad, ["x", "y"])
    *outer, last = keys
    entry = job
    for key in outer:
        entry = entry[key]
    entry[last] = bad
    report, code = run_job(job)
    assert code == EXIT_PARSE_ERROR, report.get("error")
    assert report["error"]["message"] == f"{path}: {raised.value}"
    assert report["error"]["position"] == raised.value.position
    assert 0 <= raised.value.position < len(bad)


def _parser_inputs(monkeypatch) -> list[str]:
    """The texts that ``jobs._expr`` hands to the parser from now on."""
    seen = []
    for name in ("parse_scalar_expr", "parse_poly_expr"):
        original = getattr(jobs, name)

        def spy(text, *names, original=original):
            seen.append(text)
            return original(text, *names)

        monkeypatch.setattr(jobs, name, spy)
    return seen


def _parsed(text: str, names):
    value = parse_poly_expr(text, names or [])
    return value if names else value.constant_coefficient()


@pytest.mark.parametrize("names", [None, ["x", "y"]])
def test_plain_digit_literals_skip_the_parser(monkeypatch, names):
    """ASCII digits, one optional leading '-', at most MAX_DIGITS digits: the parser's value."""
    seen = _parser_inputs(monkeypatch)
    widest = "9" * MAX_DIGITS
    for text in ("0", "1", "-0", "-1", "007", "-345", widest, "-" + widest):
        for value in {text, int(text)}:
            got = jobs._expr(value, "job.x", names)
            want = _parsed(text, names)
            assert got == want
            stored = [(c._num, c._den) for c in (got.terms.values() if names else [got])]
            assert stored == [(c._num, c._den) for c in (want.terms.values() if names else [want])]
            assert all(type(n) is int for num, _ in stored for n in num)
    assert seen == []


@pytest.mark.parametrize("names", [None, ["x", "y"]])
@pytest.mark.parametrize(
    "text, fails",
    [
        ("--1", False),
        ("+1", True),
        (" 1", False),
        ("1 ", False),
        ("\u00b2", True),
        ("0.5", False),
        ("-", True),
        ("", True),
        ("1_0", True),
        ("9" * (MAX_DIGITS + 1), True),
        ("-" + "9" * (MAX_DIGITS + 1), True),
    ],
)
def test_other_literals_go_to_the_parser(monkeypatch, names, text, fails):
    """Every other text is parsed as before: the same value, or the same error and position."""
    seen = _parser_inputs(monkeypatch)
    try:
        want = _parsed(text, names)
    except ParseError as exc:
        assert fails
        with pytest.raises(ParseError) as raised:
            jobs._expr(text, "job.x", names)
        assert raised.value.message == f"job.x: {exc.message}"
        assert raised.value.position == exc.position
    else:
        assert not fails
        assert jobs._expr(text, "job.x", names) == want
    assert seen == [text]


@pytest.mark.parametrize(
    "value, message",
    [
        (7 * 10**4999, f"has more than {MAX_DIGITS} digits"),
        (True, "must be an expression string or a number, not true"),
        (None, "must be an expression string or a number, not null"),
        (1e-07, "must be written as a plain decimal or as a string, not 1e-07"),
        (json.loads("1e400"), "must be written as a plain decimal or as a string, not inf"),
        ([1, 2], "must be an expression string or a number, not [1, 2]"),
    ],
    ids=["int-5000-digits", "true", "null", "1e-07", "1e400", "list"],
)
def test_entries_that_are_not_text_are_validation_errors(value, message):
    # each was turned into text by str(): exit 4 for the long int, and a
    # parse error about 'True', 'None', 'e', 'inf' or '[' for the others
    job = _builtin("solenoid_basis")
    job["action"]["infinitesimal"] = [["1", value]]
    report, code = run_job(job)
    assert code == EXIT_VALIDATION_ERROR, report.get("error")
    assert report["error"]["message"] == f"job.action.infinitesimal[0] {message}"


@pytest.mark.parametrize("names", [None, ["x", "y"]])
@pytest.mark.parametrize("value, text", [(0.5, "1/2"), (-0.25, "-1/4"), (2.0, "2"), (-0.0, "0")])
def test_numbers_printed_as_plain_decimals_are_read_exactly(names, value, text):
    assert jobs._expr(value, "job.x", names) == _parsed(text, names)


def test_bundled_stages_job_is_the_solenoid_example(monkeypatch):
    # the job file spells the example out; both must describe one situation
    seen = []

    def capture(big, projection, induced, spec):
        seen.append((big, projection, induced))
        return stages_check(big, projection, induced, spec)

    monkeypatch.setattr(jobs, "stages_check", capture)
    report, code = run_job(_builtin("stages_solenoid"))
    assert code == EXIT_OK, report.get("error")
    [(big, projection, induced)] = seen
    want_big, want_projection, want_induced = solenoid_stages()
    for got, want in ((big, want_big), (induced, want_induced)):
        assert got.dim == want.dim
        assert list(got.discrete) == list(want.discrete)
        assert list(got.infinitesimal) == list(want.infinitesimal)
    assert projection == want_projection


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("\u00b2", "unexpected character"),
        ("x^\u00b2", "unexpected character"),
        ("7" * (MAX_DIGITS + 701), f"number with more than {MAX_DIGITS} digits"),
        ("*".join(["99^256"] * 20), f"product with about 4598 digits is past the limit"),
    ],
    ids=["superscript", "superscript-exponent", "5001-digits", "99^256-x20"],
)
def test_numbers_python_cannot_print_are_parse_errors(text, message):
    # each of these ended in exit 4: Fraction or int() refused the digit, or
    # the report could not render a 10 000-digit slope
    job = _builtin("solenoid_basis")
    job["action"]["infinitesimal"] = [["1", text]]
    began = time.perf_counter()
    report, code = run_job(job)
    assert time.perf_counter() - began < 5.0
    assert code == EXIT_PARSE_ERROR, report.get("error")
    assert report["error"]["message"].startswith("job.action.infinitesimal[0]: ")
    assert message in report["error"]["message"]
    format_report(report)


@pytest.mark.parametrize("digits, code", [(2000, EXIT_OK), (2200, EXIT_VALIDATION_ERROR)])
def test_result_coefficients_python_cannot_print_are_refused(digits, code):
    # a 2200-digit slope (under the input limit) gives the degree-1 basis a
    # coefficient of about 4400 digits, which ended in exit 4 when printed
    job = {
        "command": "basis",
        "action": {"dimension": 2, "infinitesimal": [["1", "3" * digits]]},
        "truncation": {"grade": 1, "max_degree": 1},
    }
    began = time.perf_counter()
    report, exit_code = run_job(job)
    assert time.perf_counter() - began < 5.0
    assert exit_code == code, report.get("error")
    if code == EXIT_VALIDATION_ERROR:
        message = f"a result coefficient has more than {MAX_DIGITS} digits"
        assert report["error"] == {"kind": "validation", "message": message}
    format_report(report)


@pytest.mark.parametrize(
    "value",
    ["1e100000000", "1e5000", "-3.5E+4300", "1e1_0000_0000", "1e\u0661\u0660\u0660\u0660\u0660\u0660",
     "1/" + "3" * 4301, 10**5000],
    ids=["1e100000000", "1e5000", "exponent-4300", "underscores", "arabic-indic-exponent",
         "denominator", "json-integer"],
)
def test_parameter_past_the_digit_limit_is_refused_fast(value):
    # "1e100000000" ran for minutes in Fraction, and the others ended in
    # exit 4 when the report printed them
    for bind in (False, True):
        job = _builtin("solenoid_basis")
        began = time.perf_counter()
        if bind:
            report, code = run_job(job, bind_a=value)
        else:
            job["parameter"] = value
            report, code = run_job(job)
        assert time.perf_counter() - began < 5.0
        assert code == EXIT_VALIDATION_ERROR, report.get("error")
        assert report["error"]["message"] == f"parameter has more than {MAX_DIGITS} digits"
        format_report(report)


def test_parameter_within_the_digit_limit_still_binds():
    for value in ("1e4000", "-1/" + "3" * 4300, 7 * 10**4000):
        report, code = run_job(_builtin("solenoid_basis"), bind_a=value)
        assert code == EXIT_OK, report.get("error")
        assert report["provenance"]["scalar_field"] == "Q"


def _best_time(fn, repeats=2):
    """The shortest of ``repeats`` timed calls, and the last result."""
    best = float("inf")
    for _ in range(repeats):
        began = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - began)
    return best, result


def _monomials(count: int) -> list[str]:
    """``count`` distinct monomials in x and y, in a fixed shuffled order,
    so that every prefix costs about the same per term."""
    exps = [(i, j) for i in range(90) for j in range(90)]
    random.Random(5).shuffle(exps)
    return [f"x^{i}*y^{j}" for i, j in exps[:count]]


def test_a_long_coefficient_sum_is_built_once():
    # each '+' copied and re-checked the whole sum: 8000 summands took 16
    # times as long as 2000; added into one term map the ratio is about 4
    times = {}
    for n in (2000, 8000):
        text = " + ".join(_monomials(n))
        times[n], poly = _best_time(lambda: parse_poly_expr(text, ["x", "y"]))
        assert len(poly.terms) == n
    assert times[8000] / times[2000] < 8, times


def test_a_long_form_is_built_once():
    # each term copied and re-checked the whole form: 8000 terms took 16
    # times as long as 2000
    times = {}
    for n in (2000, 8000):
        terms = [{"indices": [k % 2], "coefficient": c} for k, c in enumerate(_monomials(n))]
        spec = {"grade": 1, "terms": terms}
        times[n], form = _best_time(lambda: _parse_form(spec, 2, "job.form"))
        assert sum(len(p.terms) for p in form.terms.values()) == n
    assert times[8000] / times[2000] < 8, times


def test_form_terms_keep_their_own_checks_and_paths():
    spec = {"grade": 1, "terms": [{"indices": [0], "coefficient": "x"}, {"indices": [0, 1], "coefficient": "1"}]}
    with pytest.raises(ValueError, match=r"job.form.terms\[1\]: index tuple \(0, 1\) has wrong length"):
        _parse_form(spec, 2, "job.form")
    spec["terms"][1] = {"indices": [2], "coefficient": "1"}
    with pytest.raises(ValueError, match=r"job.form.terms\[1\]: index tuple \(2,\) out of range"):
        _parse_form(spec, 2, "job.form")
    # terms on the same index tuple add up, and cancelling terms vanish
    spec["terms"] = [
        {"indices": [1], "coefficient": "x + y"},
        {"indices": [0], "coefficient": "2"},
        {"indices": [1], "coefficient": "-x"},
        {"indices": [0], "coefficient": "-2"},
    ]
    form = _parse_form(spec, 2, "job.form")
    assert form.terms == {(1,): parse_poly_expr("y", ["x", "y"])}


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


def test_symplectic_derived_coefficient_beyond_float_range_is_a_validation_error():
    # sigma's coefficients have floats, but L_X sigma doubles one past float range
    big = "1" + "0" * 308
    job = _builtin("symplectic_r4")
    for term in job["sigma"]["terms"]:
        term["coefficient"] = f"{big}*x^2"
    report, code = run_job(job)
    assert code == EXIT_VALIDATION_ERROR, report.get("error")
    assert "sigma has a coefficient beyond float range" in report["error"]["message"]
    json.dumps(report, allow_nan=False)  # the report is strict JSON


def test_grid_whose_span_leaves_float_range_is_a_validation_error():
    job = _builtin("z2_criterion")
    job["grid"] = {"start": -1e308, "stop": 1e308, "count": 11}
    report, code = run_job(job)
    assert code == EXIT_VALIDATION_ERROR, report.get("error")
    assert "job.grid.stop - job.grid.start is beyond float range" in report["error"]["message"]
    json.dumps(report, allow_nan=False)  # the report is strict JSON


def test_criterion_values_beyond_float_range_are_a_validation_error():
    # x^5 overflows at |x| = 1e300, and inf - inf is NaN
    job = {
        "command": "criterion",
        "plots": {"first": "torus_line", "second": "torus_line_shifted"},
        "form": {"grade": 1, "terms": [{"indices": [0], "coefficient": "x^5"}]},
        "grid": {"start": -1e300, "stop": 1e300, "count": 11},
    }
    report, code = run_job(job)
    assert code == EXIT_VALIDATION_ERROR, report.get("error")
    assert report["error"]["message"].startswith("the deviation at sample 0 ")
    assert "leave float range" in report["error"]["message"]
    json.dumps(report, allow_nan=False)  # the report is strict JSON


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


def _line_chart_job(matrix: str, translation: str, cap: int) -> dict:
    return {
        "command": "orbifold",
        "chart": {
            "dimension": 1,
            "generators": [{"matrix": [[matrix]], "translation": [translation]}],
            "closure_cap": cap,
        },
        "truncation": {"grade": 0, "max_degree": 1},
    }


@pytest.mark.parametrize("cap", [10**9, MAX_CLOSURE_CAP + 1, 0, -1])
def test_out_of_range_closure_cap_is_refused_before_walking(cap):
    # x -> x + 1 has trace 1 at every power, so only the cap would stop it
    started = time.perf_counter()
    report, code = run_job(_line_chart_job("1", "1", cap))
    assert time.perf_counter() - started < 2.0
    assert code == EXIT_VALIDATION_ERROR
    assert "closure_cap must be between 1 and 4096" in report["error"]["message"]


def test_largest_closure_cap_ends_an_infinite_walk():
    report, code = run_job(_line_chart_job("1", "1", MAX_CLOSURE_CAP))
    assert code == EXIT_VALIDATION_ERROR
    assert "not finite within cap 4096" in report["error"]["message"]


@pytest.mark.parametrize("matrix", ["(a+1)/(a-1)", "a+1", "3/2", "2"])
def test_a_chart_whose_generator_has_no_finite_order_trace_stops_at_once(monkeypatch, matrix):
    # each map generates an infinite group; its trace is not an integer of
    # absolute value at most 1, so the walk stops at its first product,
    # where walking (a+1)/(a-1) to the cap took minutes: the identity's one
    # row times the generator is the walk's only row product
    row_product, calls = orbifolds._row_product, []

    def counted(row, generator):
        calls.append(row)
        return row_product(row, generator)

    monkeypatch.setattr(orbifolds, "_row_product", counted)
    report, code = run_job(_line_chart_job(matrix, "0", MAX_CLOSURE_CAP))
    assert code == EXIT_VALIDATION_ERROR
    assert report["error"]["message"].startswith("job.chart: group not finite: an element has trace")
    assert len(calls) == 1


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


def test_cli_unwritable_out_is_refused_before_the_job_runs(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the job ran although its report could not be written")

    monkeypatch.setattr(cli, "run_job", never)
    for out in (tmp_path / "missing" / "r.json", tmp_path):
        code = run(["basis", "--job", "builtin:solenoid_basis", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION_ERROR
        assert captured.err.startswith("error: cannot write report: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""
    assert not (tmp_path / "missing").exists()


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


def _cli_parse_error(path, capsys) -> str:
    """Run the CLI on a job file that must end in a one-line parse error."""
    code = run(["basis", "--job", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE_ERROR
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_cli_job_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"command": "basis", "note": "café"}'.encode("latin-1"))
    assert "not UTF-8" in _cli_parse_error(bad, capsys)


def test_cli_job_nested_too_deeply(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert "nested too deeply" in _cli_parse_error(deep, capsys)


def test_cli_job_with_an_overlong_integer(tmp_path, capsys):
    # past Python's 4300-digit limit on converting a decimal string to int
    long = tmp_path / "digits.json"
    long.write_text('{"command": "basis", "parameter": ' + "7" * 5000 + "}", encoding="utf-8")
    assert "malformed job JSON" in _cli_parse_error(long, capsys)


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


def _stages_induced_dimension(dim: int) -> dict:
    job = _builtin("stages_solenoid")
    job["induced"]["dimension"] = dim
    return job


def _chart_dimension(dim: int) -> dict:
    return {
        "command": "orbifold",
        "chart": {"dimension": dim, "generators": [{"matrix": [["-1"]]}]},
        "truncation": {"grade": 0, "max_degree": 1},
    }


@pytest.mark.parametrize(
    "job, message",
    [
        (
            {
                "command": "basis",
                "action": {"dimension": 10**8, "infinitesimal": [["1"]]},
                "truncation": {"grade": 1, "max_degree": 1},
            },
            f"job.action.infinitesimal[0] must list {10**8} components",
        ),
        (_stages_induced_dimension(10**8),
         f"job.induced.discrete[0].matrix must have {10**8} rows"),
        (_stages_induced_dimension(10**400),
         f"job.induced.discrete[0].matrix must have {10**400} rows"),
        (_chart_dimension(10**9), f"job.chart.generators[0].matrix must have {10**9} rows"),
        (_chart_dimension(10**400), f"job.chart.generators[0].matrix must have {10**400} rows"),
    ],
    ids=["basis_1e8", "stages_1e8", "stages_1e400", "chart_1e9", "chart_1e400"],
)
def test_a_dimension_the_job_cannot_fill_is_refused_before_allocating(tmp_path, job, message):
    # the CLI under a 512 MB address-space cap, which the child sets itself:
    # a list of dimension entries, or dimension variable names, would end in
    # MemoryError (exit 4), and a 400-digit dimension in OverflowError
    pytest.importorskip("resource")
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    capped_cli = (
        "import resource, sys\n"
        "cap = 512 * 1024 * 1024\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "from basicforms.cli import run\n"
        "sys.exit(run(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", capped_cli, job["command"], "--job", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_VALIDATION_ERROR, proc.stderr
    assert proc.stderr == f"error: {message}\n"
    assert json.loads(proc.stdout)["error"] == {"kind": "validation", "message": message}


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
