"""Exact invariant differential forms for affine and flow actions.

Everything upstream of the verification layer works over the field of
rational functions in one formal parameter ``a``: scalars, polynomials,
forms, affine maps, the linear solver.  The verification layer samples
smooth data on grids and checks identities numerically at stated
tolerances.  Nothing in between rounds.

Only the verification layer (the ``plots`` and ``symplectic`` modules)
imports numpy.  Importing the package, or the CLI, does not load it; it
loads on first use of one of those modules' names here, or when a
``criterion``, ``gauge`` or ``symplectic`` job runs.
"""

__version__ = "0.1.0"

from importlib import import_module

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
from .actions import ActionSpec, AffineMap, act_pullback
from .solver import (
    CohomologyRecord,
    TruncationSpec,
    Window,
    basic_form_basis,
    truncated_basic_cohomology,
)
from .expressions import ParseError, parse_poly_expr, parse_scalar_expr
from .stages import IntertwiningError, StagesReport, stages_check
from .orbifolds import GroupNotFiniteError, OrbifoldChart, orbifold_invariant_forms
from .jobs import JobValidationError, run_job

# The verification layer imports numpy, which costs more than the rest of
# the package together, so its names load on first use (PEP 562).
_NUMERIC_NAMES = {
    "DeviationReport": "plots",
    "GridTooCoarseError": "plots",
    "GroupPath": "plots",
    "Plot": "plots",
    "builtin_gauge": "plots",
    "builtin_plot": "plots",
    "criterion_check": "plots",
    "default_line_grid": "plots",
    "gauge_names": "plots",
    "plot_names": "plots",
    "pullback_along_plot": "plots",
    "smooth_gauge_check": "plots",
    "HamiltonianModel": "symplectic",
    "LevelSample": "symplectic",
    "RestrictionReport": "symplectic",
    "builtin_model": "symplectic",
    "level_restriction_check": "symplectic",
    "model_names": "symplectic",
    "momentum_residual": "symplectic",
}


def __getattr__(name: str):
    module = _NUMERIC_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_NUMERIC_NAMES))


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
    "CohomologyRecord",
    "TruncationSpec",
    "Window",
    "basic_form_basis",
    "truncated_basic_cohomology",
    "ParseError",
    "parse_poly_expr",
    "parse_scalar_expr",
    "IntertwiningError",
    "StagesReport",
    "stages_check",
    "OrbifoldChart",
    "orbifold_invariant_forms",
    "JobValidationError",
    "run_job",
    *_NUMERIC_NAMES,
]
