"""Correctness checks for benchmark reports, run outside the timed region.

Each job's answer is known by construction (see ``workloads.py``).  The
checker compares exit codes, re-parses every returned basis form from the
report's expression strings and verifies it exactly against the job's own
generators, and checks the dimensions that the construction fixes.  Finite
chart dimensions come from Molien's formula over the group, a route that
uses no window linear algebra.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from basicforms.actions import AffineMap, act_pullback
from basicforms.expressions import parse_poly_expr, parse_scalar_expr
from basicforms.forms import Form, VectorField, interior, lie_derivative, render_form
from basicforms.polynomials import Polynomial, default_var_names

import workloads

# Basic 2-forms of the diagonal rotation flow on R^4 with coefficients of
# degree <= d; a rational scaling of the field spans the same flow.
R4_BASIC_DIMENSIONS = {1: 0, 2: 7}


def comparable(report: dict) -> dict:
    """The report without its ``generated_at`` stamp."""
    return {k: v for k, v in report.items() if k != "generated_at"}


def _parse_form(data: dict) -> Form:
    dim = data["dimension"]
    names = default_var_names(dim)
    form = Form.zero(dim, data["grade"])
    for term in data["terms"]:
        coeff = parse_poly_expr(term["coefficient"], names)
        form = form + Form.monomial(dim, tuple(term["indices"]), coeff)
    if render_form(form, names) != data["string"]:
        raise ValueError(f"basis string {data['string']!r} does not render its terms")
    return form


def _affine(spec: dict) -> AffineMap:
    rows = [[parse_scalar_expr(str(e)) for e in row] for row in spec["matrix"]]
    return AffineMap.from_rows(rows, [parse_scalar_expr(str(t)) for t in spec["translation"]])


def _generators(job: dict) -> tuple[list[AffineMap], list[VectorField]]:
    """The job's generators, bound to its ``parameter`` when it has one."""
    if job["command"] == "orbifold":
        return [_affine(g) for g in job["chart"]["generators"]], []
    action = job["action"]
    names = default_var_names(action["dimension"])
    discrete = [_affine(g) for g in action.get("discrete", [])]
    fields = [
        VectorField([parse_poly_expr(str(c), names) for c in comps])
        for comps in action.get("infinitesimal", [])
    ]
    if "parameter" in job:
        value = Fraction(job["parameter"])
        discrete = [g.bind_param(value) for g in discrete]
        fields = [xi.bind_param(value) for xi in fields]
    return discrete, fields


def _basic_violations(form: Form, discrete, fields) -> list[str]:
    out = []
    for i, g in enumerate(discrete):
        if act_pullback(g, form) != form:
            out.append(f"not invariant under discrete generator {i}")
    for i, xi in enumerate(fields):
        if not lie_derivative(xi, form).is_zero:
            out.append(f"nonzero Lie derivative along field {i}")
        if not interior(xi, form).is_zero:
            out.append(f"not horizontal for field {i}")
    return out


def _poly_mul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _det(rows) -> object:
    """Leibniz determinant of a small square matrix of ints or t-polynomials."""
    n = len(rows)
    poly = isinstance(rows[0][0], list)
    total = [0] if poly else 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = [sign] if poly else sign
        for i in range(n):
            term = _poly_mul(term, rows[i][perm[i]]) if poly else term * rows[i][perm[i]]
        if poly:
            total = [a + b for a, b in itertools.zip_longest(total, term, fillvalue=0)]
        else:
            total += term
    return total


def molien_dimension(group, grade: int, max_degree: int) -> int:
    """dim of invariant grade-k forms with coefficient degree <= max_degree.

    Molien: sum_j dim(Omega^k_j)^G t^j = (1/|G|) sum_g tr Lambda^k(g) / det(I - t g),
    for a finite group of linear maps given as integer matrices.
    """
    n = len(next(iter(group)))
    series = [Fraction(0)] * (max_degree + 1)
    for g in group:
        trace = sum(
            _det([[g[i][j] for j in subset] for i in subset])
            for subset in itertools.combinations(range(n), grade)
        ) if grade else 1
        det = _det([[[int(i == j), -g[i][j]] for j in range(n)] for i in range(n)])
        inverse = [Fraction(1)]
        for k in range(1, max_degree + 1):
            inverse.append(-sum(det[i] * inverse[k - i] for i in range(1, min(k, len(det) - 1) + 1)))
        for k in range(max_degree + 1):
            series[k] += trace * inverse[k]
    total = sum(series) / len(group)
    if total.denominator != 1:
        raise ArithmeticError("Molien series has a non-integer coefficient")
    return int(total)


def check_case(case: workloads.Case, report: dict, code: int) -> list[str]:
    """Problems with one job's report; an empty list means it is correct."""
    expect = case.expect
    if code != expect["exit"]:
        return [f"exit {code}, expected {expect['exit']}: {report.get('error')}"]
    try:
        return _check_results(case.job, expect, report["results"])
    except Exception as exc:  # a malformed report is a wrong answer, not a crash
        return [f"unverifiable report: {type(exc).__name__}: {exc}"]


def _check_results(job: dict, expect: dict, results: dict) -> list[str]:
    kind = expect["kind"]
    problems: list[str] = []
    if kind in ("solenoid_basis", "torus_basis", "r4_basis", "orbifold"):
        forms = [_parse_form(b) for b in results["basis"]]
        if results["dimension"] != len(forms):
            problems.append("dimension does not match the basis length")
        discrete, fields = _generators(job)
        for i, form in enumerate(forms):
            problems += [f"basis[{i}] {p}" for p in _basic_violations(form, discrete, fields)]
        expected = _expected_dimension(job, expect)
        if len(forms) != expected:
            problems.append(f"dimension {len(forms)}, expected {expected}")
        if kind == "solenoid_basis" and len(forms) == 1:
            # a multiple of slope*dx - dy
            dx, dy = forms[0].coefficient((0,)), forms[0].coefficient((1,))
            slope = expect["slope"]
            if slope is None:
                scaled = dy * Polynomial.parameter(2)
            else:
                scaled = dy.scale(slope)
            if dx.is_zero or dx != -scaled:
                problems.append("basis is not proportional to a dx - dy")
        if kind == "torus_basis" and forms and forms[0] != Form.covector(1, 0):
            problems.append("torus basis is not {dx}")
        if kind == "orbifold" and results["group_order"] != expect["order"]:
            problems.append(f"group order {results['group_order']}, expected {expect['order']}")
    elif kind == "cohomology":
        windows = results["windows"]
        if len(windows) != 2:
            problems.append("expected two windows")
        for w in windows:
            betti = tuple(r["dim_cohomology"] for r in w["records"])
            if betti != tuple(expect["betti"]):
                problems.append(f"window {w['max_degree']}: cohomology {betti}")
    elif kind == "stages":
        for key in ("passed", "contained", "span_equal"):
            if results[key] is not True:
                problems.append(f"stages {key} is {results[key]}")
        for key in ("dim_downstairs", "dim_pulled_back", "dim_direct"):
            if results[key] != 1:
                problems.append(f"stages {key} is {results[key]}, expected 1")
    elif kind == "numeric":
        check = results["check"]
        passed = expect["exit"] == 0
        if check["passed"] is not passed:
            problems.append(f"check passed={check['passed']}")
        if (check["max_abs_deviation"] <= check["tolerance"]) is not passed:
            problems.append("deviation disagrees with the verdict")
    elif kind == "symplectic":
        if not (results["passed"] and results["momentum_residual_zero"]):
            problems.append("symplectic restriction did not pass")
    else:
        problems.append(f"no check for kind {kind!r}")
    return problems


def _expected_dimension(job: dict, expect: dict) -> int:
    kind = expect["kind"]
    if kind == "orbifold":
        gens = [tuple(tuple(int(e) for e in row) for row in g["matrix"]) for g in job["chart"]["generators"]]
        t = job["truncation"]
        return molien_dimension(workloads.closure(gens), t["grade"], t["max_degree"])
    if kind == "r4_basis":
        return R4_BASIC_DIMENSIONS[job["truncation"]["max_degree"]]
    return expect["dimension"]
