"""Job descriptions and the one-shot runner behind the command line.

A job is a JSON object naming a command plus its inputs; expressions inside
(matrix entries, vector field components, form coefficients) use the
grammar of :mod:`basicforms.expressions`.  Each invocation resolves one job
into one report dict.  Reports are plain JSON data, deterministic except
for the ``generated_at`` stamp.

Exit codes are part of the interface::

    0  success (for checks: PASS)
    1  parse error (malformed JSON or a bad expression)
    2  validation error (well-formed but inconsistent job)
    3  a check ran fine and FAILed its tolerance
    4  unexpected computation error

A FAIL is a result, not a crash: the report is still written.

Parameter policy: jobs run over the exact field with ``a`` formal unless
``parameter`` binds it to a number.  The numeric commands (criterion,
gauge, symplectic) refuse to run with ``a`` formal if any of their inputs
mention it, rather than silently picking a value; a form they check is
bound exactly before any sampling, so a pole at the bound number is an
invalid job rather than a float division by zero.

The numeric commands import the verification layer (:mod:`basicforms.plots`,
:mod:`basicforms.symplectic`, and with them numpy) when they first run; the
exact commands never load it.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction
from typing import Any, Callable, Mapping, Sequence

from . import __version__
from .actions import ActionSpec, AffineMap
from .expressions import _TOO_LONG, MAX_DIGITS, ParseError, parse_poly_expr, parse_scalar_expr
from .forms import (
    Form,
    FormSums,
    PolyMap,
    VectorField,
    _join_terms,
    add_terms,
    check_float_range,
)
from .orbifolds import GroupNotFiniteError, OrbifoldChart, orbifold_invariant_forms
from .polynomials import Polynomial, default_var_names, render_poly
from .scalars import Scalar
from .solver import TruncationSpec, basic_form_basis, truncated_basic_cohomology
from .stages import IntertwiningError, stages_check

EXIT_OK = 0
EXIT_PARSE_ERROR = 1
EXIT_VALIDATION_ERROR = 2
EXIT_CHECK_FAILED = 3
EXIT_COMPUTATION_ERROR = 4

# Largest "count" a numeric job's grid may have.  The checks stream over the
# grid in fixed blocks, but the grid and the per-sample deviations are whole
# arrays (about 16 bytes a sample), so a larger grid is refused (exit 2)
# before anything is allocated.
MAX_GRID_SAMPLES = 1_000_001

# Largest "closure_cap" of an orbifold chart.  The chart's walk keeps every
# element it reaches, so a chart whose group is infinite but whose every
# trace an element of finite order could have (a translation, a unipotent
# shear) walks until the cap; with no upper bound that walk runs out of
# memory.  A walk of the group generated by x -> x + 1 to this cap is
# refused in 0.03-0.06 s, and one of a translation of R^4 with an entry in
# a in 0.1-0.2 s; x -> 2x is refused at its first element, by its trace.  A
# B5 chart job (order 3840, grade 2, degree 2) takes 0.13 s (2 vCPUs,
# Python 3.11).
MAX_CLOSURE_CAP = 4096


class JobValidationError(ValueError):
    """Well-formed JSON that does not describe a runnable job."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobValidationError(message)


def _get(mapping: Mapping[str, Any], key: str, kind, path: str, default=None, required=False):
    if key not in mapping:
        _require(not required, f"{path}.{key} is required")
        return default
    value = mapping[key]
    if kind is float:
        _require(isinstance(value, (int, float)) and not isinstance(value, bool),
                 f"{path}.{key} must be a number")
        try:
            return float(value)
        except OverflowError:  # a JSON integer beyond float range
            raise JobValidationError(f"{path}.{key} is out of float range") from None
    if kind is int:
        _require(isinstance(value, int) and not isinstance(value, bool),
                 f"{path}.{key} must be an integer")
        return value
    _require(isinstance(value, kind), f"{path}.{key} has the wrong type")
    return value


def _expr(value: Any, path: str, names: Sequence[str] | None = None):
    """``value`` parsed as a scalar, or as a polynomial in ``names`` if given.

    ``value`` is a string, a JSON integer of at most ``MAX_DIGITS`` digits,
    or a JSON number that prints as a plain decimal (``0.5`` reads as 1/2);
    any other value is a validation error naming ``path``.  Plain ASCII
    digits, with at most one leading ``-`` and at most ``MAX_DIGITS``
    digits, are read as an int without the parser: most entries of a job
    are ``0`` or ``1``.  Anything else goes to the parser, and a parse
    error is re-raised with ``path`` in front of its message.
    """
    if type(value) is int:
        _require(-_TOO_LONG < value < _TOO_LONG, f"{path} has more than {MAX_DIGITS} digits")
    elif type(value) is float:
        _require(math.isfinite(value) and "e" not in repr(value),
                 f"{path} must be written as a plain decimal or as a string, not {value!r}")
    elif not isinstance(value, str):
        raise JobValidationError(f"{path} must be an expression string or a number, "
                                 f"not {json.dumps(value, default=repr)[:40]}")
    text = str(value)
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit() and len(digits) <= MAX_DIGITS:
        c = Scalar._rational(int(text))
        return c if names is None else Polynomial._from_sums(len(names), {(0,) * len(names): c})
    try:
        if names is None:
            return parse_scalar_expr(text)
        return parse_poly_expr(text, names)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc.message}", exc.position) from None


def _parse_affine(spec: Mapping[str, Any], dim: int, path: str) -> AffineMap:
    _require(isinstance(spec, dict), f"{path} must be an object")
    matrix = _get(spec, "matrix", list, path, required=True)
    # checked before the default translation, whose length is dim
    _require(len(matrix) == dim, f"{path}.matrix must have {dim} rows")
    translation = _get(spec, "translation", list, path, default=["0"] * dim)
    rows = []
    for i, row in enumerate(matrix):
        _require(isinstance(row, list) and len(row) == dim,
                 f"{path}.matrix[{i}] must have {dim} entries")
        rows.append([_expr(e, f"{path}.matrix[{i}]") for e in row])
    _require(len(translation) == dim, f"{path}.translation must have {dim} entries")
    shift = [_expr(e, f"{path}.translation") for e in translation]
    try:
        return AffineMap.from_rows(rows, shift)
    except ValueError as exc:
        raise JobValidationError(f"{path}: {exc}") from None


def _parse_action(job: Mapping[str, Any], key: str) -> ActionSpec:
    spec = _get(job, key, dict, "job", required=True)
    path = f"job.{key}"
    dim = _get(spec, "dimension", int, path, required=True)
    _require(dim >= 1, f"{path}.dimension must be positive")
    discrete = []
    for i, g in enumerate(_get(spec, "discrete", list, path, default=[])):
        discrete.append(_parse_affine(g, dim, f"{path}.discrete[{i}]"))
    fields = _get(spec, "infinitesimal", list, path, default=[])
    for i, comps in enumerate(fields):
        _require(isinstance(comps, list) and len(comps) == dim,
                 f"{path}.infinitesimal[{i}] must list {dim} components")
    _require(bool(discrete) or bool(fields), f"{path} must give at least one generator")
    # every generator has now shown dim entries, so the dim names fit in memory
    names = default_var_names(dim)
    infinitesimal = [
        VectorField([_expr(c, f"{path}.infinitesimal[{i}]", names) for c in comps])
        for i, comps in enumerate(fields)
    ]
    return ActionSpec(dim, discrete=discrete, infinitesimal=infinitesimal)


def _parse_truncation(job: Mapping[str, Any]) -> TruncationSpec:
    spec = _get(job, "truncation", dict, "job", required=True)
    grade = _get(spec, "grade", int, "job.truncation", required=True)
    max_degree = _get(spec, "max_degree", int, "job.truncation", required=True)
    try:
        return TruncationSpec(grade, max_degree)
    except ValueError as exc:
        raise JobValidationError(f"job.truncation: {exc}") from None


def _parse_form(spec: Mapping[str, Any], dim: int, path: str) -> Form:
    grade = _get(spec, "grade", int, path, required=True)
    _require(0 <= grade <= dim, f"{path}.grade out of range for dimension {dim}")
    names = default_var_names(dim)
    entries = _get(spec, "terms", list, path, required=True)
    sums: FormSums = {}
    for i, term in enumerate(entries):
        _require(isinstance(term, dict), f"{path}.terms[{i}] must be an object")
        indices = _get(term, "indices", list, f"{path}.terms[{i}]", required=True)
        _require(
            all(isinstance(v, int) and not isinstance(v, bool) for v in indices),
            f"{path}.terms[{i}].indices must be integers",
        )
        coeff_text = _get(term, "coefficient", str, f"{path}.terms[{i}]", required=True)
        coeff = _expr(coeff_text, f"{path}.terms[{i}].coefficient", names)
        try:
            term_form = Form(dim, grade, {tuple(indices): coeff})
        except ValueError as exc:
            raise JobValidationError(f"{path}.terms[{i}]: {exc}") from None
        add_terms(sums, term_form)
    return Form._from_sums(dim, grade, sums)


def _parse_grid(spec: Mapping[str, Any] | None, path: str) -> dict[str, Any]:
    """The arguments of ``plots.default_line_grid`` for job.grid (none if absent)."""
    if spec is None:
        return {}
    start = _get(spec, "start", float, path, required=True)
    stop = _get(spec, "stop", float, path, required=True)
    count = _get(spec, "count", int, path, required=True)
    _require(count >= 2, f"{path}.count must be at least 2")
    _require(count <= MAX_GRID_SAMPLES, f"{path}.count must be at most {MAX_GRID_SAMPLES}")
    _require(stop > start, f"{path}.stop must exceed {path}.start")
    _require(math.isfinite(stop - start),
             f"{path}.stop - {path}.start is beyond float range")
    return {"start": start, "stop": stop, "count": count}


class _Binding:
    """Resolved parameter policy for one run."""

    def __init__(self, raw: Any):
        self.exact: Fraction | None = None
        if raw is None or raw == "formal":
            return
        _require(isinstance(raw, (int, float, str)) and not isinstance(raw, bool),
                 "parameter must be 'formal', a number, or a fraction string")
        too_long = f"parameter has more than {MAX_DIGITS} digits"
        _require(not isinstance(raw, int) or abs(raw) < _TOO_LONG, too_long)
        raw = str(raw)  # NaN and infinities then fail like bad strings
        # digits on either side of a '/', plus the exponent Fraction multiplies out
        mantissa, _, exponent = raw.lower().partition("e")
        exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        digits = max(sum(ch.isdecimal() for ch in part) for part in mantissa.split("/"))
        if exponent.isdecimal():  # else no exponent, or one Fraction refuses
            digits += int(exponent) if len(exponent) < 10 else MAX_DIGITS + 1
        _require(digits <= MAX_DIGITS, too_long)
        try:
            self.exact = Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise JobValidationError(
                f"parameter {raw!r} is not 'formal', a number, or a fraction string"
            ) from None

    @property
    def formal(self) -> bool:
        return self.exact is None

    @property
    def numeric(self) -> float | None:
        return None if self.exact is None else float(self.exact)

    def describe(self) -> Any:
        return "formal" if self.formal else str(self.exact)

    def bind(self, value, path: str):
        """An exact input (anything with ``bind_param``) with ``a`` bound.

        Unchanged when ``a`` stays formal.  An input that has no value at
        the bound number (a pole, or a map that stops being invertible)
        is a validation error that names the input and the number.
        """
        if self.exact is None:
            return value
        try:
            return value.bind_param(self.exact)
        except (ValueError, ZeroDivisionError) as exc:
            raise JobValidationError(f"{path} at a = {self.exact}: {exc}") from None


def _parse_numeric_form(
    spec: Mapping[str, Any], dim: int, path: str, binding: _Binding
) -> Form:
    """The form a numeric check evaluates, with ``a`` bound exactly.

    A form that mentions ``a`` needs a bound value and is bound before any
    sampling: a pole there is a validation error, and a value near a pole
    is evaluated from the exact bound coefficients, not at the float.  A
    coefficient with no float value (beyond float range) is a validation
    error too.
    """
    form = _parse_form(spec, dim, path)
    if form.uses_parameter:
        if binding.exact is None:
            raise JobValidationError(
                f"{path} mentions the parameter 'a'; bind it with \"parameter\" "
                "or --bind-a instead of running formally"
            )
        form = binding.bind(form, path)
    try:
        check_float_range(form, path)
    except ValueError as exc:
        raise JobValidationError(str(exc)) from None
    return form


def _check_tolerance(value: float, path: str) -> float:
    _require(math.isfinite(value) and value >= 0,
             f"{path} must be finite and at least 0, not {value}")
    return value


def _tolerance(job: Mapping[str, Any], tol: float | None, default: float) -> float:
    """The ``tol`` override if given (``run_job`` checked it), else job.tolerance."""
    if tol is not None:
        return tol
    return _check_tolerance(_get(job, "tolerance", float, "job", default=default),
                            "job.tolerance")


def _form_json(form: Form) -> dict:
    # Python converts at most MAX_DIGITS digits between int and text, so a
    # result with a longer numerator or denominator is refused (exit 2)
    for poly in form.terms.values():
        _require(all(c.height < _TOO_LONG for c in poly.terms.values()),
                 f"a result coefficient has more than {MAX_DIGITS} digits")
    names = default_var_names(form.dim)
    terms = [(indices, render_poly(form.terms[indices], names)) for indices in sorted(form.terms)]
    return {
        "string": _join_terms(terms, names),
        "grade": form.grade,
        "dimension": form.dim,
        "terms": [{"indices": list(indices), "coefficient": coeff} for indices, coeff in terms],
    }


def _deviation_json(report) -> dict:
    return {
        "max_abs_deviation": report.max_abs_deviation,
        "argmax_index": report.argmax_index,
        "argmax_param": list(report.argmax_param),
        "tolerance": report.tolerance,
        "passed": report.passed,
    }


def _run_basis(job: Mapping[str, Any], binding: _Binding, tol: float | None) -> tuple[dict, bool]:
    action = _parse_action(job, "action")
    spec = _parse_truncation(job)
    _require(spec.grade <= action.dim,
             "job.truncation.grade exceeds the action dimension")
    basis = basic_form_basis(binding.bind(action, "job.action"), spec)
    results = {
        "window": {"grade": spec.grade, "max_degree": spec.max_degree},
        "dimension": len(basis),
        "basis": [_form_json(f) for f in basis],
    }
    return results, True


def _run_cohomology(job, binding: _Binding, tol) -> tuple[dict, bool]:
    action = _parse_action(job, "action")
    max_degree = _get(job, "max_degree", int, "job", required=True)
    _require(max_degree >= 0, "job.max_degree must be nonnegative")
    action = binding.bind(action, "job.action")
    windows = []
    for d, records in truncated_basic_cohomology(action, (max_degree, max_degree + 2)).items():
        windows.append(
            {
                "max_degree": d,
                "records": [
                    {
                        "grade": r.grade,
                        "dim_basic": r.dim_basic,
                        "dim_closed": r.dim_closed,
                        "dim_exact": r.dim_exact,
                        "dim_cohomology": r.dim_cohomology,
                    }
                    for r in records
                ],
            }
        )
    return {"windows": windows}, True


def _run_stages(job, binding: _Binding, tol) -> tuple[dict, bool]:
    big = _parse_action(job, "big")
    induced = _parse_action(job, "induced")
    comps = _get(job, "projection", list, "job", required=True)
    _require(len(comps) == induced.dim,
             "job.projection must have one component per induced dimension")
    names = default_var_names(big.dim)
    projection = PolyMap(big.dim, [_expr(c, "job.projection", names) for c in comps])
    spec = _parse_truncation(job)
    big = binding.bind(big, "job.big")
    projection = binding.bind(projection, "job.projection")
    induced = binding.bind(induced, "job.induced")
    try:
        report = stages_check(big, projection, induced, spec)
    except (ValueError, IntertwiningError) as exc:
        raise JobValidationError(f"stages inputs are inconsistent: {exc}") from None
    results = {
        "contained": report.contained,
        "span_equal": report.span_equal,
        "map_degree": report.map_degree,
        "dim_downstairs": report.induced_dim_downstairs,
        "dim_pulled_back": report.dim_pulled_back,
        "dim_direct": report.dim_direct,
        "window": {"grade": spec.grade, "max_degree": spec.max_degree},
        "direct_window": {
            "grade": report.direct_truncation.grade,
            "max_degree": report.direct_truncation.max_degree,
        },
        "passed": report.passed,
    }
    return results, report.passed


def _plot_check(job, binding: _Binding, tol: float | None, check, default_tol: float, sample):
    """The form of a criterion or gauge job, and the report of ``check`` on it.

    ``sample(rows)`` builds the job's registry plot or gauge pair on a block
    of grid rows, and ``check`` is :func:`~basicforms.plots.criterion_check`
    or :func:`~basicforms.plots.smooth_gauge_check`.
    """
    from .plots import default_line_grid

    grid = default_line_grid(**_parse_grid(_get(job, "grid", dict, "job"), "job.grid"))
    tolerance = _tolerance(job, tol, default_tol)
    try:
        # no samples: checks the names and the binding, gives the dimension
        dim = sample(grid[:0])[0].ambient_dim
    except KeyError as exc:
        raise JobValidationError(str(exc.args[0])) from None
    except ValueError as exc:
        raise JobValidationError(str(exc)) from None
    form = _parse_numeric_form(_get(job, "form", dict, "job", required=True),
                               dim, "job.form", binding)
    try:
        return form, check(grid, sample, form, tolerance)
    except ValueError as exc:
        raise JobValidationError(str(exc)) from None


def _run_criterion(job, binding: _Binding, tol: float | None) -> tuple[dict, bool]:
    from .plots import DEFAULT_SYMBOLIC_TOL, builtin_plot, criterion_check

    plots_spec = _get(job, "plots", dict, "job", required=True)
    first = _get(plots_spec, "first", str, "job.plots", required=True)
    second = _get(plots_spec, "second", str, "job.plots", required=True)
    bind = binding.numeric
    form, report = _plot_check(
        job, binding, tol, criterion_check, DEFAULT_SYMBOLIC_TOL,
        lambda rows: (builtin_plot(first, rows, bind), builtin_plot(second, rows, bind)),
    )
    results = {
        "plots": {"first": first, "second": second},
        "form": _form_json(form),
        "check": _deviation_json(report),
    }
    return results, report.passed


def _run_gauge(job, binding: _Binding, tol: float | None) -> tuple[dict, bool]:
    from .plots import DEFAULT_FD_TOL, builtin_gauge, builtin_plot, smooth_gauge_check

    plot = _get(job, "plot", str, "job", required=True)
    gauge = _get(job, "gauge", str, "job", required=True)
    bind = binding.numeric
    form, report = _plot_check(
        job, binding, tol, smooth_gauge_check, DEFAULT_FD_TOL,
        lambda rows: (builtin_plot(plot, rows, bind), builtin_gauge(gauge, rows)),
    )
    results = {
        "plot": plot,
        "gauge": gauge,
        "form": _form_json(form),
        "check": _deviation_json(report),
    }
    return results, report.passed


def _run_orbifold(job, binding: _Binding, tol) -> tuple[dict, bool]:
    chart_spec = _get(job, "chart", dict, "job", required=True)
    dim = _get(chart_spec, "dimension", int, "job.chart", required=True)
    _require(dim >= 1, "job.chart.dimension must be positive")
    generators = []
    for i, g in enumerate(_get(chart_spec, "generators", list, "job.chart", required=True)):
        path = f"job.chart.generators[{i}]"
        generators.append(binding.bind(_parse_affine(g, dim, path), path))
    _require(bool(generators), "job.chart.generators must be nonempty")
    cap = _get(chart_spec, "closure_cap", int, "job.chart", default=64)
    _require(1 <= cap <= MAX_CLOSURE_CAP,
             f"job.chart.closure_cap must be between 1 and {MAX_CLOSURE_CAP}")
    try:
        chart = OrbifoldChart(dim, generators, cap=cap)
    except GroupNotFiniteError as exc:
        raise JobValidationError(f"job.chart: {exc}") from None
    spec = _parse_truncation(job)
    _require(spec.grade <= dim, "job.truncation.grade exceeds the chart dimension")
    basis = orbifold_invariant_forms(chart, spec)
    results = {
        "group_order": len(chart.group),
        "window": {"grade": spec.grade, "max_degree": spec.max_degree},
        "dimension": len(basis),
        "basis": [_form_json(f) for f in basis],
    }
    return results, True


def _run_symplectic(job, binding: _Binding, tol: float | None) -> tuple[dict, bool]:
    from .plots import DEFAULT_SYMBOLIC_TOL
    from .symplectic import builtin_model, level_restriction_check, momentum_residual

    model_name = _get(job, "model", str, "job", default="r4_rotation")
    try:
        model = builtin_model(model_name)
    except KeyError as exc:
        raise JobValidationError(str(exc.args[0])) from None
    tolerance = _tolerance(job, tol, DEFAULT_SYMBOLIC_TOL)
    sigma_spec = _get(job, "sigma", dict, "job")
    sigma = (
        _parse_numeric_form(sigma_spec, model.dim, "job.sigma", binding)
        if sigma_spec is not None
        else model.omega
    )
    residual = momentum_residual(model)
    try:
        report = level_restriction_check(model, sigma, tolerance)
    except ValueError as exc:
        raise JobValidationError(str(exc)) from None
    passed = residual.is_zero and report.passed
    results = {
        "model": model_name,
        "momentum_residual": _form_json(residual),
        "momentum_residual_zero": residual.is_zero,
        "sigma": _form_json(sigma),
        "contraction": _deviation_json(report.contraction),
        "invariance": _deviation_json(report.invariance),
        "passed": passed,
    }
    return results, passed


_HANDLERS: dict[str, Callable[[Mapping[str, Any], _Binding, float | None], tuple[dict, bool]]] = {
    "basis": _run_basis,
    "cohomology": _run_cohomology,
    "stages": _run_stages,
    "criterion": _run_criterion,
    "gauge": _run_gauge,
    "orbifold": _run_orbifold,
    "symplectic": _run_symplectic,
}
COMMANDS = tuple(_HANDLERS)


def _provenance(binding: _Binding, properness: bool | None) -> dict:
    return {
        "tool": "basicforms",
        "version": __version__,
        "scalar_field": "Q" if not binding.formal else "Q(a)",
        "identity_component_proper_asserted": properness,
    }


def _utc_stamp(t: float) -> str:
    """``datetime.fromtimestamp(t, timezone.utc).isoformat()``, without importing datetime."""
    frac, whole = math.modf(t)
    carry, us = divmod(round(frac * 1e6), 1_000_000)  # half to even, as datetime rounds
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(int(whole) + carry))
    return stamp + (f".{us:06d}" if us else "") + "+00:00"


def run_job(
    job: Mapping[str, Any],
    command: str | None = None,
    bind_a: float | str | None = None,
    tol: float | None = None,
) -> tuple[dict, int]:
    """Execute one job; returns (report, exit code) and never raises.

    ``command`` (from the CLI) must agree with the job's own ``command``
    field when both are present.  ``bind_a`` and ``tol`` override the job's
    ``parameter`` and ``tolerance`` fields.
    """
    report: dict[str, Any] = {
        "generated_at": _utc_stamp(time.time()),
    }
    try:
        _require(isinstance(job, Mapping), "job must be a JSON object")
        job_command = job.get("command")
        if job_command is not None:
            _require(isinstance(job_command, str) and job_command in COMMANDS,
                     f"job.command must be one of {', '.join(COMMANDS)}")
            _require(command is None or command == job_command,
                     f"job.command {job_command!r} does not match the CLI command {command!r}")
        resolved = command or job_command
        _require(resolved is not None, "no command given (CLI or job.command)")
        assert resolved is not None
        report["command"] = resolved

        raw_param: Any = job.get("parameter")
        if bind_a is not None:
            raw_param = bind_a
        binding = _Binding(raw_param)
        if tol is not None:
            _check_tolerance(tol, "tol")
        properness = job.get("assume_identity_component_proper")
        _require(properness is None or isinstance(properness, bool),
                 "job.assume_identity_component_proper must be a boolean")

        report["config"] = {
            "parameter": binding.describe(),
            "tolerance_override": tol,
        }
        report["provenance"] = _provenance(binding, properness)

        results, passed = _HANDLERS[resolved](job, binding, tol)
        report["results"] = results
        report["status"] = "ok" if passed else "fail"
        return report, EXIT_OK if passed else EXIT_CHECK_FAILED
    except ParseError as exc:
        report["status"] = "error"
        report["error"] = {"kind": "parse", "message": str(exc), "position": exc.position}
        return report, EXIT_PARSE_ERROR
    except JobValidationError as exc:
        report["status"] = "error"
        report["error"] = {"kind": "validation", "message": str(exc)}
        return report, EXIT_VALIDATION_ERROR
    except Exception as exc:  # pragma: no cover - defensive
        report["status"] = "error"
        report["error"] = {"kind": "computation", "message": f"{type(exc).__name__}: {exc}"}
        return report, EXIT_COMPUTATION_ERROR


def format_report(report: Mapping[str, Any]) -> str:
    """Deterministic rendering: sorted keys, stable indentation."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
