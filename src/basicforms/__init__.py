"""Exact invariant differential forms for affine and flow actions.

Everything upstream of the verification layer works over the field of
rational functions in one formal parameter ``a``: scalars, polynomials,
forms, affine maps, the linear solver.  The verification layer samples
smooth data on grids and checks identities numerically at stated
tolerances.  Nothing in between rounds.
"""

__version__ = "0.1.0"

from .scalars import PARAM_NAME, Scalar, UnboundParameterError
from .polynomials import Polynomial, default_var_names, render_poly
from .linalg import Matrix, kernel_basis, rank
from .forms import (
    Form,
    PolyMap,
    VectorField,
    eval_form,
    ext_d,
    interior,
    lie_derivative,
    pullback,
    render_form,
    wedge,
)
from .actions import ActionSpec, AffineMap, GroupNotFiniteError, act_pullback, group_closure
from .solver import (
    CohomologyRecord,
    TruncationSpec,
    Window,
    basic_form_basis,
    reynolds_average,
    truncated_basic_cohomology,
)
from .expressions import ParseError, parse_poly_expr, parse_scalar_expr
from .plots import (
    DeviationReport,
    GridTooCoarseError,
    GroupPath,
    Plot,
    builtin_gauge,
    builtin_plot,
    criterion_check,
    default_line_grid,
    gauge_names,
    plot_names,
    pullback_along_plot,
    smooth_gauge_check,
)
from .stages import IntertwiningError, StagesReport, stages_check
from .orbifolds import OrbifoldChart, chart_compatibility_check, orbifold_invariant_forms
from .symplectic import (
    HamiltonianModel,
    LevelSample,
    RestrictionReport,
    builtin_model,
    level_restriction_check,
    model_names,
    momentum_residual,
)
from .jobs import JobValidationError, run_job

__all__ = [
    "__version__",
    "PARAM_NAME",
    "Scalar",
    "UnboundParameterError",
    "Polynomial",
    "default_var_names",
    "render_poly",
    "Matrix",
    "kernel_basis",
    "rank",
    "Form",
    "PolyMap",
    "VectorField",
    "eval_form",
    "ext_d",
    "interior",
    "lie_derivative",
    "pullback",
    "render_form",
    "wedge",
    "ActionSpec",
    "AffineMap",
    "GroupNotFiniteError",
    "act_pullback",
    "group_closure",
    "CohomologyRecord",
    "TruncationSpec",
    "Window",
    "basic_form_basis",
    "reynolds_average",
    "truncated_basic_cohomology",
    "ParseError",
    "parse_poly_expr",
    "parse_scalar_expr",
    "DeviationReport",
    "GridTooCoarseError",
    "GroupPath",
    "Plot",
    "builtin_gauge",
    "builtin_plot",
    "criterion_check",
    "default_line_grid",
    "gauge_names",
    "plot_names",
    "pullback_along_plot",
    "smooth_gauge_check",
    "IntertwiningError",
    "StagesReport",
    "stages_check",
    "OrbifoldChart",
    "chart_compatibility_check",
    "orbifold_invariant_forms",
    "HamiltonianModel",
    "LevelSample",
    "RestrictionReport",
    "builtin_model",
    "level_restriction_check",
    "model_names",
    "momentum_residual",
    "JobValidationError",
    "run_job",
]
