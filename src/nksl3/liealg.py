"""The traceless 3×3 real matrix algebra with a basis adapted to a
reductive splitting g = h ⊕ m₁ ⊕ m₂ ⊕ m₃.

h = span{e₇, e₈} is the isotropy algebra of the stabilizer R × SO(2); the
three two-dimensional blocks m₁, m₂, m₃ fill out the tangent space
m = m₁ ⊕ m₂ ⊕ m₃.  The invariant metric is ⟨X, Y⟩ = −½·tr(XY).  Structure
constants, component Gram matrices and dual bases are computed from the
basis matrices, never transcribed.  The matrix `bracket` is the definition
and the reference route; every working bracket, `coeff_bracket`, is
contracted from the structure constants without a 3×3 product.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .exactfield import ONE, SQRT2, SQRT3, ZERO, FieldElem, coerce

SUBSPACES: dict[str, tuple[int, ...]] = {
    "h": (7, 8),
    "m1": (1, 2),
    "m2": (3, 4),
    "m3": (5, 6),
    "m": (1, 2, 3, 4, 5, 6),
}


class AlgMat:
    """A 3×3 matrix over Q(√2, √3) with exact arithmetic."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[object]]) -> None:
        converted = []
        for row in rows:
            entries = []
            for entry in row:
                value = coerce(entry)
                if value is None:
                    raise TypeError(f"matrix entry must be a field scalar, got {entry!r}")
                entries.append(value)
            converted.append(tuple(entries))
        if len(converted) != 3 or any(len(row) != 3 for row in converted):
            raise ValueError("AlgMat is 3×3")
        object.__setattr__(self, "_rows", tuple(converted))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("AlgMat is immutable")

    @classmethod
    def _raw(cls, rows: tuple[tuple[FieldElem, ...], ...]) -> "AlgMat":
        mat = object.__new__(cls)
        object.__setattr__(mat, "_rows", rows)
        return mat

    @classmethod
    def zero(cls) -> "AlgMat":
        return _ZERO_MAT

    @classmethod
    def identity(cls) -> "AlgMat":
        return _IDENTITY_MAT

    @property
    def rows(self) -> tuple[tuple[FieldElem, ...], ...]:
        return self._rows

    def __getitem__(self, index: tuple[int, int]) -> FieldElem:
        i, j = index
        return self._rows[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgMat):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __bool__(self) -> bool:
        return any(entry for row in self._rows for entry in row)

    def __add__(self, other: "AlgMat") -> "AlgMat":
        if not isinstance(other, AlgMat):
            return NotImplemented
        return AlgMat._raw(tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self._rows, other._rows)))

    def __sub__(self, other: "AlgMat") -> "AlgMat":
        if not isinstance(other, AlgMat):
            return NotImplemented
        return AlgMat._raw(tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self._rows, other._rows)))

    def __neg__(self) -> "AlgMat":
        return AlgMat._raw(tuple(tuple(-a for a in row) for row in self._rows))

    def __mul__(self, other: object) -> "AlgMat":
        value = coerce(other)
        if value is None:
            return NotImplemented
        return AlgMat._raw(tuple(tuple(a * value for a in row) for row in self._rows))

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgMat") -> "AlgMat":
        if not isinstance(other, AlgMat):
            return NotImplemented
        rows = []
        for i in range(3):
            row = []
            for j in range(3):
                acc = ZERO
                for k in range(3):
                    left = self._rows[i][k]
                    if left:
                        acc = acc + left * other._rows[k][j]
                row.append(acc)
            rows.append(tuple(row))
        return AlgMat._raw(tuple(rows))

    def transpose(self) -> "AlgMat":
        return AlgMat._raw(tuple(tuple(self._rows[j][i] for j in range(3))
                                 for i in range(3)))

    def trace(self) -> FieldElem:
        return self._rows[0][0] + self._rows[1][1] + self._rows[2][2]

    def to_float(self) -> np.ndarray:
        return np.array([[entry.to_float() for entry in row] for row in self._rows])

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(entry) for entry in row) for row in self._rows)
        return f"AlgMat[{body}]"


_ZERO_MAT = AlgMat([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
_IDENTITY_MAT = AlgMat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

_THIRD = Fraction(1, 3)

# Basis adapted to the splitting: m₁ = span{e₁, e₂} (traceless symmetric,
# upper-left block), m₂ = span{e₃, e₄} (third column), m₃ = span{e₅, e₆}
# (third row), h = span{e₇, e₈} (center direction and the rotation).
_BASIS: tuple[AlgMat, ...] = (
    AlgMat([[1, 0, 0], [0, -1, 0], [0, 0, 0]]),
    AlgMat([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
    AlgMat([[0, 0, SQRT2], [0, 0, 0], [0, 0, 0]]),
    AlgMat([[0, 0, 0], [0, 0, SQRT2], [0, 0, 0]]),
    AlgMat([[0, 0, 0], [0, 0, 0], [-SQRT2, 0, 0]]),
    AlgMat([[0, 0, 0], [0, 0, 0], [0, -SQRT2, 0]]),
    AlgMat([[SQRT3 * _THIRD, 0, 0], [0, SQRT3 * _THIRD, 0],
            [0, 0, SQRT3 * Fraction(-2, 3)]]),
    AlgMat([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
)


def basis_matrix(i: int) -> AlgMat:
    """The basis element eᵢ, 1 ≤ i ≤ 8."""
    if not 1 <= i <= 8:
        raise ValueError(f"basis index out of range: {i}")
    return _BASIS[i - 1]


def bracket(x: AlgMat, y: AlgMat) -> AlgMat:
    return (x @ y) - (y @ x)


def _trace_product(x: AlgMat, y: AlgMat) -> FieldElem:
    acc = ZERO
    for i in range(3):
        for k in range(3):
            left = x.rows[i][k]
            if left:
                acc = acc + left * y.rows[k][i]
    return acc


_MINUS_HALF = FieldElem(Fraction(-1, 2))


class _CoeffVec:
    """Shared arithmetic for coefficient vectors over a fixed basis slice."""

    __slots__ = ("_coeffs",)
    _LENGTH = 0

    def __init__(self, coeffs: Iterable[object]) -> None:
        converted = []
        for entry in coeffs:
            value = coerce(entry)
            if value is None:
                raise TypeError(f"coefficient must be a field scalar, got {entry!r}")
            converted.append(value)
        if len(converted) != self._LENGTH:
            raise ValueError(f"{type(self).__name__} takes {self._LENGTH} coefficients")
        object.__setattr__(self, "_coeffs", tuple(converted))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _raw(cls, coeffs: tuple[FieldElem, ...]):
        vec = object.__new__(cls)
        object.__setattr__(vec, "_coeffs", coeffs)
        return vec

    @classmethod
    def zero(cls):
        return cls._raw((ZERO,) * cls._LENGTH)

    @classmethod
    def basis(cls, i: int):
        if not 1 <= i <= cls._LENGTH:
            raise ValueError(f"basis index out of range: {i}")
        return cls._raw(tuple(ONE if j == i - 1 else ZERO
                              for j in range(cls._LENGTH)))

    @property
    def coeffs(self) -> tuple[FieldElem, ...]:
        return self._coeffs

    def __iter__(self):
        return iter(self._coeffs)

    def __getitem__(self, i: int) -> FieldElem:
        return self._coeffs[i]

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._coeffs))

    def __bool__(self) -> bool:
        return any(self._coeffs)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)._raw(tuple(a + b for a, b in zip(self._coeffs, other._coeffs)))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)._raw(tuple(a - b for a, b in zip(self._coeffs, other._coeffs)))

    def __neg__(self):
        return type(self)._raw(tuple(-a for a in self._coeffs))

    def __mul__(self, other: object):
        value = coerce(other)
        if value is None:
            return NotImplemented
        return type(self)._raw(tuple(a * value for a in self._coeffs))

    __rmul__ = __mul__

    def __str__(self) -> str:
        parts = []
        for index, coeff in enumerate(self._coeffs, start=1):
            if not coeff:
                continue
            sign = coeff.sign()
            mag = coeff if sign >= 0 else -coeff
            if mag == ONE:
                body = f"e{index}"
            elif mag.is_rational and mag.a.denominator == 1:
                body = f"{mag}e{index}"
            else:
                body = f"({mag})e{index}"
            if not parts:
                parts.append(body if sign >= 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if sign >= 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class MVec(_CoeffVec):
    """A tangent vector: coefficients over (e₁, …, e₆)."""

    _LENGTH = 6

    def to_matrix(self) -> AlgMat:
        return _combine(self._coeffs)

    def to_full(self) -> "FullVec":
        return FullVec._raw(self._coeffs + (ZERO, ZERO))


class FullVec(_CoeffVec):
    """A full algebra vector: coefficients over (e₁, …, e₈)."""

    _LENGTH = 8

    def to_matrix(self) -> AlgMat:
        return _combine(self._coeffs)

    def m_part(self) -> MVec:
        return MVec._raw(self._coeffs[:6])

    def h_coeffs(self) -> tuple[FieldElem, FieldElem]:
        return self._coeffs[6:]


_BASIS_ENTRIES: tuple[tuple[tuple[int, int, FieldElem], ...], ...] = tuple(
    tuple((r, c, entry) for r, row in enumerate(mat.rows)
          for c, entry in enumerate(row) if entry)
    for mat in _BASIS)


def _combine(coeffs: Sequence[FieldElem]) -> AlgMat:
    """Σ cᵢ·eᵢ, accumulated only at the nonzero entries (r, c, value) of
    each eᵢ."""
    rows = [[ZERO] * 3 for _ in range(3)]
    for coeff, entries in zip(coeffs, _BASIS_ENTRIES):
        if coeff:
            for r, c, entry in entries:
                rows[r][c] = rows[r][c] + entry * coeff
    return AlgMat._raw(tuple(tuple(row) for row in rows))


@cache
def _gram(size: int) -> tuple[tuple[FieldElem, ...], ...]:
    return tuple(tuple(metric(_BASIS[i], _BASIS[j]) for j in range(size))
                 for i in range(size))


@cache
def _gram_sparse(size: int) -> tuple[tuple[int, int, FieldElem], ...]:
    return tuple((i, j, entry)
                 for i, row in enumerate(_gram(size))
                 for j, entry in enumerate(row) if entry)


@cache
def _gram_inverse(size: int) -> tuple[tuple[FieldElem, ...], ...]:
    inverse = linalg.invert([list(row) for row in _gram(size)])
    return tuple(tuple(row) for row in inverse)


def metric(x: AlgMat | MVec | FullVec, y: AlgMat | MVec | FullVec) -> FieldElem:
    """The invariant trace form ⟨X, Y⟩ = −½·tr(XY)."""
    if isinstance(x, AlgMat) or isinstance(y, AlgMat):
        xm = x if isinstance(x, AlgMat) else x.to_matrix()
        ym = y if isinstance(y, AlgMat) else y.to_matrix()
        return _MINUS_HALF * _trace_product(xm, ym)
    if type(x) is not type(y):
        x, y = x.to_full(), y.to_full()
    xc, yc = x.coeffs, y.coeffs
    acc = ZERO
    for i, j, g in _gram_sparse(len(xc)):
        term = xc[i] * yc[j]
        if term:
            acc = acc + term * g
    return acc


def decompose(x: AlgMat) -> FullVec:
    """Coefficients of a traceless matrix over (e₁, …, e₈).

    The trace form is nondegenerate, so the coefficients come from pairing
    with the dual basis: coeffs = G⁻¹ · (⟨eⱼ, X⟩)ⱼ.
    """
    if x.trace():
        raise ValueError("matrix has nonzero trace, not in the algebra")
    pairings = [metric(_BASIS[j], x) for j in range(8)]
    inverse = _gram_inverse(8)
    coeffs = []
    for i in range(8):
        acc = ZERO
        for j in range(8):
            g = inverse[i][j]
            if g and pairings[j]:
                acc = acc + g * pairings[j]
        coeffs.append(acc)
    return FullVec._raw(tuple(coeffs))


def m_component(x: AlgMat) -> MVec:
    return decompose(x).m_part()


def ad_action(i: int, x: MVec) -> MVec:
    """ad(eᵢ) acting on the tangent space, for the isotropy indices i ∈ {7, 8}."""
    if i not in SUBSPACES["h"]:
        raise ValueError("ad_action is for the isotropy directions e7, e8")
    return coeff_bracket(FullVec.basis(i), x).m_part()


def stabilizer_element(t: float, s: float) -> np.ndarray:
    """The stabilizer point h(t, s): a rotation by s scaled by eᵗ in the
    upper block and e^{-2t} in the lower corner."""
    et = math.exp(t)
    return np.array([
        [et * math.cos(s), et * math.sin(s), 0.0],
        [-et * math.sin(s), et * math.cos(s), 0.0],
        [0.0, 0.0, math.exp(-2.0 * t)],
    ])


@cache
def basis_float() -> np.ndarray:
    """The basis matrices e₁..e₈ as an 8×3×3 float array."""
    return np.array([mat.to_float() for mat in _BASIS])


@cache
def _dual_float() -> np.ndarray:
    # Row i reads the eᵢ₊₁ coefficient (i < 6) of a flattened traceless X
    # as G⁻¹ · (⟨eⱼ, X⟩)ⱼ, where ⟨eⱼ, X⟩ = −½·tr(eⱼX) = −½·vec(eⱼᵀ)·vec(X).
    inverse = np.array([[entry.to_float() for entry in row] for row in _gram_inverse(8)])
    pairing = -0.5 * basis_float().transpose(0, 2, 1).reshape(8, 9)
    return (inverse @ pairing)[:6]


def ad_numeric(t: float, s: float, x: MVec) -> np.ndarray:
    """Float coefficients of Ad(h(t, s))·X over (e₁, …, e₆).

    Conjugation by the stabilizer preserves the tangent space, so the
    e₇, e₈ coefficients of the result vanish and are dropped.
    """
    matrix = np.tensordot([c.to_float() for c in x.coeffs], basis_float()[:6], 1)
    conjugated = stabilizer_element(t, s) @ matrix @ stabilizer_element(-t, -s)
    return _dual_float() @ conjugated.reshape(9)


def rotation_action_matrix(t: float, s: float) -> np.ndarray:
    """The closed form of Ad(h(t, s)) on tangent coefficients: rotation by
    2s on m₁ and by s with scale e^{±3t} on m₂ and m₃."""
    def rot(angle: float) -> np.ndarray:
        return np.array([[math.cos(angle), math.sin(angle)],
                         [-math.sin(angle), math.cos(angle)]])

    out = np.zeros((6, 6))
    out[0:2, 0:2] = rot(2.0 * s)
    out[2:4, 2:4] = math.exp(3.0 * t) * rot(s)
    out[4:6, 4:6] = math.exp(-3.0 * t) * rot(s)
    return out


def dphi(x: MVec) -> MVec:
    """Differential of the isometry [A] ↦ [(Aᵀ)⁻¹]: X ↦ −Xᵀ on the tangent
    space.  Fixes m₁ up to sign and swaps m₂ with m₃."""
    return m_component(-x.to_matrix().transpose())


@cache
def structure_constants() -> tuple[tuple[tuple[FieldElem, ...], ...], ...]:
    """c[i][j][k] with [eᵢ₊₁, eⱼ₊₁] = Σₖ c[i][j][k]·eₖ₊₁, computed from the
    basis matrices."""
    table = []
    for i in range(8):
        row = []
        for j in range(8):
            row.append(decompose(bracket(_BASIS[i], _BASIS[j])).coeffs)
        table.append(tuple(row))
    return tuple(table)


@cache
def _bracket_terms() -> tuple[tuple[int, int, tuple[tuple[int, FieldElem], ...]], ...]:
    """The nonzero structure constants grouped by index pair:
    (i, j, ((k, c), ...)) with [eᵢ₊₁, eⱼ₊₁] = Σ c·eₖ₊₁."""
    return tuple((i, j, terms)
                 for i, row in enumerate(structure_constants())
                 for j, column in enumerate(row)
                 if (terms := tuple((k, c) for k, c in enumerate(column) if c)))


def coeff_bracket(x: MVec | FullVec, y: MVec | FullVec) -> FullVec:
    """[X, Y] over (e₁, …, e₈), contracted from the structure constants."""
    xc = x.to_full().coeffs if isinstance(x, MVec) else x.coeffs
    yc = y.to_full().coeffs if isinstance(y, MVec) else y.coeffs
    acc = [ZERO] * 8
    for i, j, terms in _bracket_terms():
        if xc[i] and yc[j]:
            product = xc[i] * yc[j]
            for k, c in terms:
                acc[k] = acc[k] + c * product
    return FullVec._raw(tuple(acc))
