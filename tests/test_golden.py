"""Golden canonical bases: rendered answers pinned in ``data/canonical_bases.json``.

Each case rebuilds a canonical basis (or a cohomology record list) and
compares its rendering, as text, with the stored one, so any change in the
exact answers, their order or their normalisation shows.  The file was
written by this module's own ``rendered_cases``; to regenerate it after a
deliberate change of answers, run

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from basicforms.actions import ActionSpec, AffineMap
from basicforms.examples import c4_square_chart, solenoid_plane
from basicforms.forms import VectorField
from basicforms.orbifolds import OrbifoldChart, orbifold_invariant_forms
from basicforms.polynomials import Polynomial
from basicforms.solver import TruncationSpec, basic_form_basis, truncated_basic_cohomology

GOLDEN = Path(__file__).parent / "data" / "canonical_bases.json"


def _signed_permutation(perm, signs) -> AffineMap:
    rows = [[0] * len(perm) for _ in perm]
    for i, (j, sign) in enumerate(zip(perm, signs)):
        rows[i][j] = sign
    return AffineMap.from_rows(rows, [0] * len(perm))


def _b3_chart() -> OrbifoldChart:
    # (x, y, z) -> (y, z, -x) and the quarter turn about z: all 48 signed
    # permutations of R^3
    gens = [
        _signed_permutation((1, 2, 0), (1, 1, -1)),
        _signed_permutation((1, 0, 2), (-1, 1, 1)),
    ]
    return OrbifoldChart(3, gens)


def _shifted_d4_chart() -> OrbifoldChart:
    """The square's symmetry group about the centre (1/2, -2/3)."""
    shift = [Fraction(1, 2), Fraction(-2, 3)]
    there = AffineMap.translation_by(shift)
    back = AffineMap.translation_by([-s for s in shift])
    gens = [
        there.compose(_signed_permutation(p, s)).compose(back)
        for p, s in (((1, 0), (-1, 1)), ((0, 1), (1, -1)))
    ]
    return OrbifoldChart(2, gens)


def _r4_rotation() -> ActionSpec:
    x, y, z, w = (Polynomial.variable(4, i) for i in range(4))
    return ActionSpec(4, infinitesimal=[VectorField([-y, x, -w, z])])


def _basis(forms) -> list[str]:
    return [str(f) for f in forms]


def _cases():
    """Case name -> a thunk that returns the case's rendered answer."""
    cases = {}
    for d in range(2, 9):
        cases[f"solenoid_g1_d{d}"] = lambda d=d: _basis(
            basic_form_basis(solenoid_plane(), TruncationSpec(1, d))
        )
    for d in (2, 4):
        cases[f"solenoid_cohomology_d{d}"] = lambda d=d: [
            r._asdict() for r in truncated_basic_cohomology(solenoid_plane(), [d])[d]
        ]
    for d in (1, 2, 3):
        cases[f"r4_rotation_g2_d{d}"] = lambda d=d: _basis(
            basic_form_basis(_r4_rotation(), TruncationSpec(2, d))
        )
    for d in (4, 8):
        cases[f"c4_g1_d{d}"] = lambda d=d: _basis(
            orbifold_invariant_forms(c4_square_chart(), TruncationSpec(1, d))
        )
    for grade in (1, 2):
        cases[f"b3_g{grade}_d2"] = lambda grade=grade: _basis(
            orbifold_invariant_forms(_b3_chart(), TruncationSpec(grade, 2))
        )
    for grade in (0, 1, 2):
        cases[f"d4_shifted_g{grade}_d3"] = lambda grade=grade: _basis(
            orbifold_invariant_forms(_shifted_d4_chart(), TruncationSpec(grade, 3))
        )
    return cases


def rendered_cases() -> dict:
    return {name: build() for name, build in _cases().items()}


_STORED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_golden_file_covers_every_case():
    assert sorted(_STORED) == sorted(_cases())


@pytest.mark.parametrize("name", sorted(_cases()))
def test_canonical_basis_matches_golden(name):
    assert _cases()[name]() == _STORED[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(rendered_cases(), indent=1, ensure_ascii=False) + "\n")
