"""Constant symplectic models with a circle generator and a zero level set.

A :class:`HamiltonianModel` packages a constant-coefficient symplectic form,
a polynomial rotation generator, the potential whose differential the
generator contracts to, and sampled points of the potential's zero level
with analytic tangent bases.  Two checks live here:

* :func:`momentum_residual`: the exact form ``i_X omega - d(potential)``,
  zero precisely when the triple is consistent (sign convention: the
  contraction equals +d of the potential);
* :func:`level_restriction_check`: numeric evidence that a candidate form
  restricts to the level set as an invariant horizontal form, by evaluating
  its contraction and Lie derivative on the sampled tangent frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

import numpy as np

from .forms import (
    Form,
    VectorField,
    check_float_range,
    ext_d,
    interior,
    lie_derivative,
    wedge,
)
from .plots import DeviationReport, _builtin, _on_frames, _report, _worst
from .polynomials import Polynomial

LEVEL_TOL = 1e-10
_TANGENCY_TOL = 1e-8


@dataclass(frozen=True)
class LevelSample:
    """A point on the zero level with an orthonormal tangent basis."""

    point: tuple[float, ...]
    tangent_basis: tuple[tuple[float, ...], ...]


class HamiltonianModel:
    """Validated (omega, generator, potential, level samples) tuple."""

    __slots__ = ("_dim", "_omega", "_field", "_potential", "_level_samples")

    def __init__(
        self,
        omega: Form,
        field: VectorField,
        potential: Polynomial,
        level_samples: Sequence[LevelSample] = (),
    ):
        dim = omega.dim
        if dim % 2 != 0:
            raise ValueError("symplectic dimension must be even")
        if omega.grade != 2:
            raise ValueError("omega must be a 2-form")
        if any(not p.is_constant() for p in omega.terms.values()):
            raise ValueError("omega must have constant coefficients")
        if omega.uses_parameter or field.uses_parameter or potential.uses_parameter:
            raise ValueError("models must not involve the formal parameter")
        if field.dim != dim or potential.num_vars != dim:
            raise ValueError("field or potential has the wrong dimension")
        # constant, so closed; nondegenerate exactly when omega^(dim/2) != 0
        if reduce(wedge, [omega] * (dim // 2)).is_zero:
            raise ValueError("omega is degenerate")

        gradient = [potential.partial(i) for i in range(dim)]
        if len({len(sample.tangent_basis) for sample in level_samples}) > 1:
            raise ValueError("level samples carry tangent bases of different sizes")
        # one array evaluation per polynomial, over the samples up to the
        # first point of the wrong dimension; an array entry equals the
        # float value at its sample
        points = [sample.point for sample in level_samples]
        count = next((i for i, p in enumerate(points) if len(p) != dim), len(points))
        coords = list(np.array(points[:count], dtype=float).reshape(count, dim).T)
        values = _on_samples(potential, coords, count)
        grads = [_on_samples(g, coords, count) for g in gradient]
        for s, sample in enumerate(level_samples):
            if s == count:
                raise ValueError("level sample point has the wrong dimension")
            value = values[s]
            if abs(value) > LEVEL_TOL:
                raise ValueError(
                    f"sample {sample.point} is off the zero level: potential = {value:.3e}"
                )
            grad_at = [g[s] for g in grads]
            for vec in sample.tangent_basis:
                if len(vec) != dim:
                    raise ValueError("tangent vector has the wrong dimension")
                pairing_value = sum(a * b for a, b in zip(grad_at, vec))
                if abs(pairing_value) > _TANGENCY_TOL:
                    raise ValueError(
                        "tangent vector is not tangent to the level set "
                        f"(gradient pairing {pairing_value:.3e})"
                    )
        self._dim = dim
        self._omega = omega
        self._field = field
        self._potential = potential
        self._level_samples = tuple(level_samples)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def omega(self) -> Form:
        return self._omega

    @property
    def field(self) -> VectorField:
        return self._field

    @property
    def potential(self) -> Polynomial:
        return self._potential

    @property
    def level_samples(self) -> tuple[LevelSample, ...]:
        return self._level_samples


def _on_samples(poly: Polynomial, coords: list[np.ndarray], count: int) -> np.ndarray:
    """Values of ``poly`` at ``count`` samples, one coordinate array per variable.

    A constant polynomial evaluates to a float, broadcast to every sample.
    Overflow gives inf and nan silently, as float arithmetic does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.broadcast_to(poly.evaluate(coords), (count,))


def momentum_residual(model: HamiltonianModel) -> Form:
    """Exact defect i_X omega - d(potential); the zero 1-form iff consistent."""
    contraction = interior(model.field, model.omega)
    return contraction - ext_d(Form.function(model.potential))


@dataclass(frozen=True)
class RestrictionReport:
    """Numeric restriction evidence for one candidate form."""

    contraction: DeviationReport
    invariance: DeviationReport

    @property
    def passed(self) -> bool:
        return self.contraction.passed and self.invariance.passed


def level_restriction_check(
    model: HamiltonianModel,
    candidate: Form,
    tol: float = 1e-9,
) -> RestrictionReport:
    """Check that a form restricts to the level set invariantly and horizontally.

    On every sampled level point, both the contraction ``i_X candidate`` and
    the Lie derivative ``L_X candidate`` are evaluated on all tangent-basis
    tuples of the appropriate size; PASS means every value is within ``tol``.
    A candidate that mentions ``a`` must be bound first
    (``Form.bind_param``), else this raises UnboundParameterError.  Raises
    ValueError, naming it, when ``i_X sigma`` or ``L_X sigma`` (sigma the
    candidate) has a coefficient beyond float range, before sampling.
    """
    if not model.level_samples:
        raise ValueError("model carries no level samples")
    if candidate.dim != model.dim:
        raise ValueError("candidate lives in the wrong dimension")
    if candidate.grade < 1:
        raise ValueError("restriction check needs a form of grade at least 1")
    contraction = interior(model.field, candidate)
    invariance = lie_derivative(model.field, candidate)
    check_float_range(contraction, "i_X sigma")
    check_float_range(invariance, "L_X sigma")
    samples = model.level_samples
    points = np.array([sample.point for sample in samples], dtype=float)
    # each sample's tangent vectors as the columns of an (n, q) frame
    frames = np.array([sample.tangent_basis for sample in samples], dtype=float)
    frames = frames.reshape(len(samples), -1, model.dim).transpose(0, 2, 1)
    # samples have no plot parameter; a report names the worst by its index
    indices = np.arange(len(samples), dtype=float)[:, None]
    c_dev, i_dev = (_worst(_on_frames(points, frames, f)) for f in (contraction, invariance))
    return RestrictionReport(
        contraction=_report(c_dev, indices, tol), invariance=_report(i_dev, indices, tol)
    )


def _hopf_samples(count_per_axis: int = 4) -> list[LevelSample]:
    """Points of the unit 3-sphere in Hopf coordinates with quaternion frames.

    At a unit quaternion z the left translates (i z, j z, k z) form an
    orthonormal basis of the tangent space; i z is the rotation direction.
    """
    samples = []
    m = count_per_axis
    for i in range(m):
        eta = (i + 0.5) * (math.pi / (2 * m))
        for j in range(m):
            phi1 = j * (2.0 * math.pi / m)
            for l in range(m):
                phi2 = l * (2.0 * math.pi / m)
                x1 = math.cos(eta) * math.cos(phi1)
                y1 = math.cos(eta) * math.sin(phi1)
                x2 = math.sin(eta) * math.cos(phi2)
                y2 = math.sin(eta) * math.sin(phi2)
                point = (x1, y1, x2, y2)
                frame = (
                    (-y1, x1, -y2, x2),
                    (-x2, y2, x1, -y1),
                    (-y2, -x2, y1, x1),
                )
                samples.append(LevelSample(point, frame))
    return samples


def _r4_rotation_model() -> HamiltonianModel:
    # coordinates (x1, y1, x2, y2); the potential's zero level is the unit sphere
    dim = 4
    one = Polynomial.constant(dim, 1)
    omega = Form(dim, 2, {(0, 1): one, (2, 3): one})
    v = [Polynomial.variable(dim, i) for i in range(dim)]
    half = Fraction(1, 2)
    potential = Polynomial.constant(dim, half) - (
        v[0] ** 2 + v[1] ** 2 + v[2] ** 2 + v[3] ** 2
    ).scale(half)
    field = VectorField([-v[1], v[0], -v[3], v[2]])
    return HamiltonianModel(omega, field, potential, _hopf_samples(4))


_MODEL_BUILDERS = {
    "r4_rotation": _r4_rotation_model,
}


def model_names() -> list[str]:
    return sorted(_MODEL_BUILDERS)


def builtin_model(name: str) -> HamiltonianModel:
    """The library's stock models; ``r4_rotation`` is the diagonal circle
    action on R^4 with its unit-sphere zero level (64 samples)."""
    return _builtin(_MODEL_BUILDERS, "model", name)()
