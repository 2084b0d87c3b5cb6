"""Affine group actions on R^n with optional infinitesimal generators.

An action is specified by finitely many invertible affine maps (discrete
generators) plus finitely many polynomial vector fields (infinitesimal
generators for connected directions).  An affine map keeps its linear part
as its rows, tuples of exact Scalars.  The pullback action on forms is a
right action: pulling back by g then by h equals pulling back by g . h.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .forms import Form, PolyMap, VectorField, pullback
from .linalg import Matrix, _gauss_jordan
from .polynomials import Polynomial
from .scalars import ZERO, Scalar, ScalarLike

Rows = tuple[tuple[Scalar, ...], ...]


class AffineMap:
    """Invertible exact affine map x -> A x + b.

    The linear part A is its rows, a tuple of row tuples of Scalars: n is
    small, and every reader of A takes it entry by entry.
    """

    __slots__ = ("_linear", "_translation", "_poly_map")

    def __init__(
        self, linear: Sequence[Sequence[ScalarLike]], translation: Sequence[ScalarLike]
    ):
        rows = tuple(tuple(Scalar.of(e) for e in row) for row in linear)
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("linear part must be square")
        if len(translation) != len(rows):
            raise ValueError("translation length must match the dimension")
        if len(_gauss_jordan(Matrix.from_rows(rows))) < len(rows):
            raise ValueError("affine map is not invertible")
        self._linear = rows
        self._translation = tuple(Scalar.of(t) for t in translation)
        self._poly_map: PolyMap | None = None

    @classmethod
    def _invertible(cls, linear: Rows, translation: tuple[Scalar, ...]) -> "AffineMap":
        """Map from parts already known to be square and invertible.

        Only products of invertible maps come here, from ``compose`` or as a
        chart's group elements assembled from the rows its walk reached, so
        the full-rank check that ``__init__`` runs would pass by
        construction.
        """
        out = cls.__new__(cls)
        out._linear = linear
        out._translation = translation
        out._poly_map = None
        return out

    @staticmethod
    def from_rows(
        rows: Sequence[Sequence[ScalarLike]], translation: Sequence[ScalarLike]
    ) -> "AffineMap":
        return AffineMap(rows, translation)

    @staticmethod
    def identity(dim: int) -> "AffineMap":
        return AffineMap.translation_by([0] * dim)

    @staticmethod
    def translation_by(offsets: Sequence[ScalarLike]) -> "AffineMap":
        n = len(offsets)
        return AffineMap([[int(i == j) for j in range(n)] for i in range(n)], offsets)

    @property
    def dim(self) -> int:
        return len(self._linear)

    @property
    def linear(self) -> Rows:
        return self._linear

    @property
    def translation(self) -> tuple[Scalar, ...]:
        return self._translation

    @property
    def uses_parameter(self) -> bool:
        return any(e.uses_parameter for row in (self._translation, *self._linear) for e in row)

    def bind_param(self, value: Fraction) -> "AffineMap":
        return AffineMap(
            [[e.bind(value) for e in row] for row in self._linear],
            [t.bind(value) for t in self._translation],
        )

    def as_poly_map(self) -> PolyMap:
        """The map as polynomial components; built once, then reused."""
        if self._poly_map is None:
            n = self.dim
            units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
            self._poly_map = PolyMap(
                n,
                [
                    Polynomial._from_sums(n, {(0,) * n: t, **dict(zip(units, row))})
                    for row, t in zip(self._linear, self._translation)
                ],
            )
        return self._poly_map

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: (self . other)(x) = self(other(x)).

        Only products of two nonzero entries are formed, each added into its
        output entry.
        """
        if self.dim != other.dim:
            raise ValueError("composition of maps on different spaces")
        linear, translation = [], []
        for row, t in zip(self._linear, self._translation):
            out: list[Scalar] = [ZERO] * self.dim
            for k, e in enumerate(row):
                if e.is_zero:
                    continue
                for j, f in enumerate(other._linear[k]):
                    if not f.is_zero:
                        out[j] = out[j] + e * f
                s = other._translation[k]
                if not s.is_zero:
                    t = t + e * s
            linear.append(tuple(out))
            translation.append(t)
        return AffineMap._invertible(tuple(linear), tuple(translation))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineMap):
            return NotImplemented
        return self._linear == other._linear and self._translation == other._translation

    def __hash__(self) -> int:
        return hash((self._linear, self._translation))

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(str(e) for e in row) for row in self._linear)
        tr = ", ".join(str(t) for t in self._translation)
        return f"AffineMap([{rows}] + ({tr}))"


class ActionSpec:
    """Generators of a group action: affine maps plus vector fields."""

    __slots__ = ("_dim", "_discrete", "_infinitesimal")

    def __init__(
        self,
        dim: int,
        discrete: Sequence[AffineMap] = (),
        infinitesimal: Sequence[VectorField] = (),
    ):
        if dim < 1:
            raise ValueError("dimension must be positive")
        for g in discrete:
            if g.dim != dim:
                raise ValueError("discrete generator has the wrong dimension")
        for xi in infinitesimal:
            if xi.dim != dim:
                raise ValueError("infinitesimal generator has the wrong dimension")
        self._dim = dim
        self._discrete = tuple(discrete)
        self._infinitesimal = tuple(infinitesimal)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def discrete(self) -> tuple[AffineMap, ...]:
        return self._discrete

    @property
    def infinitesimal(self) -> tuple[VectorField, ...]:
        return self._infinitesimal

    @property
    def uses_parameter(self) -> bool:
        return any(g.uses_parameter for g in self._discrete) or any(
            xi.uses_parameter for xi in self._infinitesimal
        )

    def bind_param(self, value: Fraction) -> "ActionSpec":
        return ActionSpec(
            self._dim,
            [g.bind_param(value) for g in self._discrete],
            [xi.bind_param(value) for xi in self._infinitesimal],
        )

    def __repr__(self) -> str:
        return (
            f"ActionSpec(dim={self._dim}, {len(self._discrete)} discrete, "
            f"{len(self._infinitesimal)} infinitesimal)"
        )


def act_pullback(mapping: AffineMap, form: Form) -> Form:
    """Pullback of a form by an affine map; preserves coefficient degree."""
    if mapping.dim != form.dim:
        raise ValueError("map and form live on different spaces")
    return pullback(mapping.as_poly_map(), form)
