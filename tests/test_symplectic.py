"""Constant symplectic models: momentum consistency and level restriction.

The stock model is the diagonal circle rotation on R^4 over the round
2-form dx1^dy1 + dx2^dy2, with potential 1/2 - |z|^2/2 vanishing on the
unit sphere.  The membership and frame claims baked into the samples are
re-verified here from scratch before the checks that rely on them run.
"""

import math
import random
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from basicforms.forms import Form, VectorField, eval_form, ext_d, interior, lie_derivative
from basicforms.polynomials import Polynomial
from basicforms.scalars import Scalar
from basicforms.symplectic import (
    HamiltonianModel,
    LevelSample,
    _on_samples,
    builtin_model,
    level_restriction_check,
    model_names,
    momentum_residual,
)
from helpers import cofactor_det, rand_form


def _vars(dim):
    return [Polynomial.variable(dim, i) for i in range(dim)]


def _round_omega():
    one = Polynomial.constant(4, 1)
    return Form(4, 2, {(0, 1): one, (2, 3): one})


def test_builtin_registry():
    assert model_names() == ["r4_rotation"]
    with pytest.raises(KeyError) as raised:
        builtin_model("nope")
    assert raised.value.args[0] == "unknown model 'nope'; known: r4_rotation"


def test_model_sample_count_and_membership():
    model = builtin_model("r4_rotation")
    assert model.dim == 4
    assert len(model.level_samples) == 64
    for sample in model.level_samples:
        # on the unit sphere, with an orthonormal frame tangent to it
        assert sum(c * c for c in sample.point) == pytest.approx(1.0, abs=1e-12)
        assert abs(model.potential.evaluate(sample.point)) <= 1e-10
        frame = np.array(sample.tangent_basis)
        assert frame.shape == (3, 4)
        assert np.allclose(frame @ frame.T, np.eye(3), atol=1e-12)
        assert np.allclose(frame @ np.array(sample.point), 0.0, atol=1e-12)


def test_rotation_direction_is_in_every_frame():
    model = builtin_model("r4_rotation")
    for sample in model.level_samples:
        x1, y1, x2, y2 = sample.point
        flow = np.array([-y1, x1, -y2, x2])
        assert np.allclose(np.array(sample.tangent_basis[0]), flow, atol=1e-12)


def test_momentum_residual_is_exactly_zero():
    model = builtin_model("r4_rotation")
    residual = momentum_residual(model)
    assert residual.is_zero
    assert residual.grade == 1


def test_momentum_residual_detects_sign_flip():
    model = builtin_model("r4_rotation")
    flipped = VectorField([c.scale(-1) for c in model.field.components])
    broken = HamiltonianModel(model.omega, flipped, model.potential)
    residual = momentum_residual(broken)
    # i_{-X} omega - dPhi = -(i_X omega + dPhi) = -2 dPhi since i_X omega = dPhi
    expect = ext_d(Form.function(model.potential)).scale(-2)
    assert residual == expect
    assert not residual.is_zero


def test_omega_restricts_to_the_level_set():
    model = builtin_model("r4_rotation")
    report = level_restriction_check(model, model.omega, tol=1e-9)
    assert report.passed
    assert report.contraction.passed and report.invariance.passed
    assert report.contraction.max_abs_deviation <= 1e-9


def test_mixed_plane_form_fails_restriction():
    model = builtin_model("r4_rotation")
    bad = Form.monomial(4, (0, 2), Polynomial.constant(4, 1))
    report = level_restriction_check(model, bad, tol=1e-9)
    assert not report.passed
    assert report.contraction.max_abs_deviation > 1e-3


def test_restriction_check_input_validation():
    model = builtin_model("r4_rotation")
    bare = HamiltonianModel(model.omega, model.field, model.potential)
    with pytest.raises(ValueError, match="samples"):
        level_restriction_check(bare, model.omega)
    with pytest.raises(ValueError, match="dimension"):
        level_restriction_check(model, Form.covector(2, 0))
    with pytest.raises(ValueError, match="grade"):
        level_restriction_check(model, Form.function(Polynomial.constant(4, 1)))


def test_model_validation_rejects_bad_omega():
    v = _vars(4)
    field = VectorField([-v[1], v[0], -v[3], v[2]])
    potential = Polynomial.zero(4)
    with pytest.raises(ValueError, match="2-form"):
        HamiltonianModel(Form.covector(4, 0), field, potential)
    with pytest.raises(ValueError, match="even"):
        HamiltonianModel(
            Form.monomial(3, (0, 1), Polynomial.constant(3, 1)),
            VectorField([Polynomial.zero(3)] * 3),
            Polynomial.zero(3),
        )
    with pytest.raises(ValueError, match="constant"):
        HamiltonianModel(Form.monomial(4, (0, 1), v[0]), field, potential)
    with pytest.raises(ValueError, match="degenerate"):
        HamiltonianModel(
            Form(4, 2, {(0, 1): Polynomial.constant(4, 1)}), field, potential
        )


def _constant_2form(dim, pairs):
    one = Polynomial.constant(dim, 1)
    return Form(dim, 2, {pair: one for pair in pairs})


def _zero_data(dim):
    return VectorField([Polynomial.zero(dim)] * dim), Polynomial.zero(dim)


def test_degenerate_omega_is_refused_by_its_top_wedge_power():
    field, potential = _zero_data(4)
    # nonzero, but dx0^dx1 + dx0^dx2 squares to zero: rank 2 on R^4
    with pytest.raises(ValueError, match="degenerate"):
        HamiltonianModel(_constant_2form(4, [(0, 1), (0, 2)]), field, potential)
    model = HamiltonianModel(_constant_2form(4, [(0, 2), (1, 3)]), field, potential)
    assert model.dim == 4
    field, potential = _zero_data(6)
    # on R^6 one missing pair leaves omega^2 nonzero but omega^3 zero
    with pytest.raises(ValueError, match="degenerate"):
        HamiltonianModel(_constant_2form(6, [(0, 1), (2, 3)]), field, potential)
    model = HamiltonianModel(_constant_2form(6, [(0, 1), (2, 3), (4, 5)]), field, potential)
    assert model.dim == 6


def test_nondegeneracy_agrees_with_the_pairing_determinant():
    # omega^(n/2) is (n/2)! Pf(omega) dx0^...^dxn-1, and Pf^2 = det
    rng = random.Random(411)
    refused = accepted = 0
    for trial in range(60):
        dim = 4 if trial % 2 else 6
        terms = {}
        pairing = [[Scalar.of(0)] * dim for _ in range(dim)]
        for i, j in combinations(range(dim), 2):
            if rng.random() < 0.4:
                c = rng.randint(-2, 2)
                terms[(i, j)] = Polynomial.constant(dim, c)
                pairing[i][j], pairing[j][i] = Scalar.of(c), Scalar.of(-c)
        field, potential = _zero_data(dim)
        try:
            HamiltonianModel(Form(dim, 2, terms), field, potential)
        except ValueError as exc:
            assert "degenerate" in str(exc)
            assert cofactor_det(pairing).is_zero
            refused += 1
        else:
            assert not cofactor_det(pairing).is_zero
            accepted += 1
    assert refused > 10 and accepted > 10


def test_model_validation_rejects_off_level_samples():
    omega = _round_omega()
    v = _vars(4)
    field = VectorField([-v[1], v[0], -v[3], v[2]])
    half = Fraction(1, 2)
    potential = Polynomial.constant(4, half) - (
        v[0] ** 2 + v[1] ** 2 + v[2] ** 2 + v[3] ** 2
    ).scale(half)
    off = LevelSample((2.0, 0.0, 0.0, 0.0), ())
    with pytest.raises(ValueError, match="off the zero level"):
        HamiltonianModel(omega, field, potential, [off])
    skew = LevelSample((1.0, 0.0, 0.0, 0.0), ((1.0, 0.0, 0.0, 0.0),))
    with pytest.raises(ValueError, match="not tangent"):
        HamiltonianModel(omega, field, potential, [skew])
    e1, e2 = (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)
    ragged = [LevelSample((1.0, 0.0, 0.0, 0.0), (e1,)), LevelSample((1.0, 0.0, 0.0, 0.0), (e1, e2))]
    with pytest.raises(ValueError, match="different sizes"):
        HamiltonianModel(omega, field, potential, ragged)


def test_sample_arrays_equal_per_sample_evaluation():
    # validation reads the potential and its gradient off one array per
    # polynomial; each entry is the float value at its sample, bit for bit
    model = builtin_model("r4_rotation")
    points = [sample.point for sample in model.level_samples]
    coords = list(np.array(points).T)
    for poly in [model.potential] + [model.potential.partial(i) for i in range(4)]:
        values = _on_samples(poly, coords, len(points))
        assert [float(v) for v in values] == [poly.evaluate(p) for p in points]


def test_model_validation_names_the_one_off_level_sample():
    model = builtin_model("r4_rotation")
    samples = list(model.level_samples)
    tenth = samples[9]
    # scaled off the unit sphere; the frame stays tangent to the level sets
    off = LevelSample(tuple(1.5 * c for c in tenth.point), tenth.tangent_basis)
    samples[9] = off
    with pytest.raises(ValueError, match=f"^sample {re.escape(str(off.point))} is off the zero level"):
        HamiltonianModel(model.omega, model.field, model.potential, samples)
    # the first fault in sample order decides the message
    short = LevelSample((1.0, 0.0, 0.0), tenth.tangent_basis)
    with pytest.raises(ValueError, match="off the zero level"):
        HamiltonianModel(model.omega, model.field, model.potential, samples[:12] + [short])
    with pytest.raises(ValueError, match="wrong dimension"):
        HamiltonianModel(model.omega, model.field, model.potential, samples[:9] + [short, off])


def test_model_validation_with_a_constant_potential():
    model = builtin_model("r4_rotation")
    samples = model.level_samples
    zero = Polynomial.zero(4)
    assert HamiltonianModel(model.omega, model.field, zero, samples).level_samples == samples
    one = Polynomial.constant(4, 1)
    first = re.escape(str(samples[0].point))
    with pytest.raises(ValueError, match=f"^sample {first} is off the zero level: potential = 1.000e"):
        HamiltonianModel(model.omega, model.field, one, samples)


def test_restriction_deviations_match_per_sample_evaluation():
    # all samples go through one eval_form call per tuple; compare with
    # the value of each sample on its own
    model = builtin_model("r4_rotation")
    rng = random.Random(77)
    for grade in (1, 2, 3, 1, 2):
        candidate = rand_form(rng, 4, grade, max_degree=3)
        report = level_restriction_check(model, candidate, tol=1e-9)
        for derived, got in (
            (interior(model.field, candidate), report.contraction),
            (lie_derivative(model.field, candidate), report.invariance),
        ):
            expect = [
                max(
                    (abs(eval_form(derived, sample.point, [sample.tangent_basis[c] for c in combo]))
                     for combo in combinations(range(3), derived.grade)),
                    default=0.0,
                )
                for sample in model.level_samples
            ]
            assert np.array_equal(got.deviations, expect)


def test_contraction_formula_on_the_round_form():
    # i_X (dx1^dy1 + dx2^dy2) for X = (-y1, x1, -y2, x2) is
    # -y1 dy1 - x1 dx1 - y2 dy2 - x2 dx2 = d(-|z|^2/2) = d(potential)
    model = builtin_model("r4_rotation")
    contraction = interior(model.field, model.omega)
    v = _vars(4)
    expect = (
        Form.monomial(4, (0,), v[0].scale(-1))
        + Form.monomial(4, (1,), v[1].scale(-1))
        + Form.monomial(4, (2,), v[2].scale(-1))
        + Form.monomial(4, (3,), v[3].scale(-1))
    )
    assert contraction == expect
    assert contraction == ext_d(Form.function(model.potential))
