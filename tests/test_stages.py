"""Quotients taken in stages: pulled-back invariants vs direct invariants."""

from fractions import Fraction

import pytest

from basicforms.actions import ActionSpec, AffineMap
from basicforms.examples import solenoid_stages
from basicforms.forms import PolyMap, pullback
from basicforms.linalg import rank
from basicforms.polynomials import Polynomial
from basicforms.solver import TruncationSpec, basic_form_basis, span_matrix
from basicforms.stages import IntertwiningError, StagesReport, stages_check
from helpers import spans_equal, trivial_action


def test_solenoid_stages_agree_in_low_grades():
    big, projection, induced = solenoid_stages()
    for grade in (0, 1):
        report = stages_check(big, projection, induced, TruncationSpec(grade, 0))
        assert report.passed
        assert report.contained
        assert report.span_equal is True  # degree-1 projection: full agreement
        assert report.map_degree == 1
        assert report.dim_pulled_back == report.induced_dim_downstairs


def test_solenoid_stage_dimensions():
    big, projection, induced = solenoid_stages()
    r0 = stages_check(big, projection, induced, TruncationSpec(0, 0))
    assert (r0.induced_dim_downstairs, r0.dim_direct) == (1, 1)
    r1 = stages_check(big, projection, induced, TruncationSpec(1, 0))
    assert (r1.induced_dim_downstairs, r1.dim_direct) == (1, 1)


def test_pullback_of_downstairs_generator_is_the_basic_form():
    big, projection, induced = solenoid_stages()
    downstairs = basic_form_basis(induced, TruncationSpec(1, 0))
    assert len(downstairs) == 1
    image = pullback(projection, downstairs[0])
    expect = basic_form_basis(big, TruncationSpec(1, 0))
    assert spans_equal([image], expect)
    # pi = y - a*x sends dt to dy - a dx, the descending direction up to sign
    assert str(image) == "(-a) dx + (1) dy"


def test_trivial_projection_round_trip():
    # identity projection: both routes literally coincide
    action = trivial_action(1)
    x = Polynomial.variable(1, 0)
    report = stages_check(action, PolyMap(1, [x]), action, TruncationSpec(1, 2))
    assert report.passed and report.span_equal is True
    assert report.dim_direct == report.dim_pulled_back == 3


def test_quadratic_projection_claims_containment_only():
    # fold the sign flip along x^2: invariants downstairs pull back into
    # the direct invariants, but the quadratic map doubles the window
    flip = ActionSpec(1, discrete=[AffineMap.from_rows([[-1]], [0])])
    line = trivial_action(1)
    x = Polynomial.variable(1, 0)
    report = stages_check(flip, PolyMap(1, [x * x]), line, TruncationSpec(0, 1))
    assert report.contained
    assert report.span_equal is None
    assert report.map_degree == 2
    assert report.direct_truncation == TruncationSpec(0, 2)
    assert report.passed


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_quadratic_projection_widens_the_direct_window_of_one_forms(degree):
    # pi = x^2 sends t^j dt to 2 x^(2j+1) dx: degree 2d + 1, past the
    # doubled window.  The direct 1-forms x^e dx invariant under the flip
    # have e odd, so d + 1 of them reach degree 2d + 1, one per downstairs form
    flip = ActionSpec(1, discrete=[AffineMap.from_rows([[-1]], [0])])
    x = Polynomial.variable(1, 0)
    report = stages_check(
        flip, PolyMap(1, [x * x]), trivial_action(1), TruncationSpec(1, degree)
    )
    assert report.direct_truncation == TruncationSpec(1, 2 * degree + 1)
    assert report.contained and report.passed
    assert report.dim_direct == report.dim_pulled_back == degree + 1


def test_non_intertwining_projection_raises_with_witness():
    # translation by 1 upstairs, trivial downstairs: pi(x) = x^2 does not
    # commute with the translation, so pulled-back forms fail invariance
    big = ActionSpec(1, discrete=[AffineMap.translation_by([1])])
    induced = trivial_action(1)
    x = Polynomial.variable(1, 0)
    with pytest.raises(IntertwiningError, match="discrete") as info:
        stages_check(big, PolyMap(1, [x * x]), induced, TruncationSpec(1, 1))
    witness = info.value.witness
    assert witness.grade == 1
    assert not witness.is_zero


def test_dimension_mismatch_rejected():
    big, projection, induced = solenoid_stages()
    with pytest.raises(ValueError, match="domain"):
        stages_check(induced, projection, induced, TruncationSpec(0, 0))
    with pytest.raises(ValueError, match="codomain"):
        stages_check(big, projection, big, TruncationSpec(0, 0))


def test_report_passed_logic():
    base = dict(
        map_degree=1,
        induced_dim_downstairs=1,
        dim_pulled_back=1,
        dim_direct=1,
        truncation=TruncationSpec(0, 0),
        direct_truncation=TruncationSpec(0, 0),
    )
    assert StagesReport(contained=True, span_equal=True, **base).passed
    assert StagesReport(contained=True, span_equal=None, **base).passed
    assert not StagesReport(contained=True, span_equal=False, **base).passed
    assert not StagesReport(contained=False, span_equal=None, **base).passed


def test_stages_specialize_at_rational_slope():
    big, projection, induced = solenoid_stages()
    a0 = Fraction(2, 3)
    report = stages_check(
        big.bind_param(a0),
        PolyMap(2, [c.bind_param(a0) for c in projection.components]),
        induced.bind_param(a0),
        TruncationSpec(1, 0),
    )
    assert report.passed and report.span_equal is True


def _three_rank_verdict(big, projection, induced, spec):
    """(contained, span_equal) from separate ranks of the direct, pulled-back and joined forms."""
    degree = max(projection.max_degree(), 1)
    pulled = [pullback(projection, beta) for beta in basic_form_basis(induced, spec)]
    direct_degree = degree * spec.max_degree + spec.grade * (degree - 1)
    direct = basic_form_basis(big, TruncationSpec(spec.grade, direct_degree))
    direct_rank, pulled_rank, joined_rank = (
        rank(span_matrix(forms)) for forms in (direct, pulled, direct + pulled)
    )
    span_equal = direct_rank == pulled_rank == joined_rank if degree == 1 else None
    return joined_rank == direct_rank, span_equal


def _stages_cases():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    line = Polynomial.variable(1, 0)
    flip = ActionSpec(1, discrete=[AffineMap.from_rows([[-1]], [0])])
    return [
        (*solenoid_stages(), TruncationSpec(grade, degree))
        for grade in (0, 1)
        for degree in (0, 1, 2)
    ] + [
        (trivial_action(1), PolyMap(1, [line]), trivial_action(1), TruncationSpec(1, 2)),
        (trivial_action(2), PolyMap(2, [x]), trivial_action(1), TruncationSpec(1, 1)),
        (trivial_action(2), PolyMap(2, [x + y]), trivial_action(1), TruncationSpec(0, 2)),
        (flip, PolyMap(1, [line * line]), trivial_action(1), TruncationSpec(0, 1)),
        (flip, PolyMap(1, [line * line]), trivial_action(1), TruncationSpec(1, 2)),
    ]


@pytest.mark.parametrize("case", range(len(_stages_cases())))
def test_verdict_equals_the_three_rank_oracle(case):
    big, projection, induced, spec = _stages_cases()[case]
    report = stages_check(big, projection, induced, spec)
    assert (report.contained, report.span_equal) == _three_rank_verdict(
        big, projection, induced, spec
    )
