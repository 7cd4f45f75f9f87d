"""The traceless 3×3 real matrix algebra with a basis adapted to a
reductive splitting g = h ⊕ m₁ ⊕ m₂ ⊕ m₃.

h = span{e₇, e₈} is the isotropy algebra of the stabilizer R × SO(2); the
three two-dimensional blocks m₁, m₂, m₃ fill out the tangent space
m = m₁ ⊕ m₂ ⊕ m₃.  The invariant metric is ⟨X, Y⟩ = −½·tr(XY).  The
structure constants and the one Gram, a signed permutation and so its own
inverse, are computed once from the basis matrices, never transcribed.  The
dual basis, through which exact and float matrix coordinates are read, is
read off that Gram and the sparse basis entries transposed, with no matrix
inverse.  The matrix `bracket` is the definition and the reference route;
every working bracket, `coeff_bracket`, is contracted from the structure
constants without a 3×3 product.  A matrix, `AlgMat`, is its nine entries
row by row: the same immutable `_CoeffVec` as the coefficient vectors, with
the product and transpose on top.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Iterable, Sequence

from .exactfield import ONE, SQRT2, SQRT3, ZERO, FieldElem, coerce, signed_sum

FloatMat = list[list[float]]  # the float cross-checks run on nested lists

SUBSPACES: dict[str, tuple[int, ...]] = {
    "h": (7, 8),
    "m1": (1, 2),
    "m2": (3, 4),
    "m3": (5, 6),
    "m": (1, 2, 3, 4, 5, 6),
}


class _CoeffVec:
    """An immutable vector of field entries over a fixed basis: the algebra
    basis for `MVec` and `FullVec`, the matrix units for `AlgMat`."""

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
        signed = ((coeff.sign() < 0, coeff, index)
                  for index, coeff in enumerate(self._coeffs, start=1) if coeff)
        return signed_sum((negative, str(-coeff if negative else coeff), f"e{index}")
                          for negative, coeff, index in signed)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class AlgMat(_CoeffVec):
    """A 3×3 matrix over Q(√2, √3) with exact arithmetic: its nine entries,
    row by row, as a `_CoeffVec` over the matrix units."""

    _LENGTH = 9

    def __init__(self, rows: Iterable[Iterable[object]]) -> None:
        rows = [tuple(row) for row in rows]
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise ValueError("AlgMat is 3×3")
        super().__init__(entry for row in rows for entry in row)

    @property
    def rows(self) -> tuple[tuple[FieldElem, ...], ...]:
        c = self._coeffs
        return c[0:3], c[3:6], c[6:9]

    def __getitem__(self, index: tuple[int, int]) -> FieldElem:
        r, c = index
        return self.rows[r][c]

    def __matmul__(self, other: "AlgMat") -> "AlgMat":
        if not isinstance(other, AlgMat):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        return AlgMat._raw(tuple(
            sum((a[i + k] * b[3 * k + j] for k in range(3) if a[i + k]), ZERO)
            for i in range(0, 9, 3) for j in range(3)))

    def transpose(self) -> "AlgMat":
        c = self._coeffs
        return AlgMat._raw(c[0::3] + c[1::3] + c[2::3])

    def trace(self) -> FieldElem:
        return sum(self._coeffs[::4], ZERO)

    def to_float(self) -> FloatMat:
        return [[entry.to_float() for entry in row] for row in self.rows]

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(entry) for entry in row) for row in self.rows)
        return f"AlgMat[{body}]"

    __str__ = __repr__


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
    """tr(XY) = Σₚ xₚ·(Yᵀ)ₚ over the flat entries."""
    acc = ZERO
    for left, right in zip(x.coeffs, y.transpose().coeffs):
        if left:
            acc = acc + left * right
    return acc


_MINUS_HALF = FieldElem(Fraction(-1, 2))


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

    def to_full(self) -> "FullVec":
        return self

    def m_part(self) -> MVec:
        return MVec._raw(self._coeffs[:6])

    def h_coeffs(self) -> tuple[FieldElem, FieldElem]:
        return self._coeffs[6:]


_BASIS_ENTRIES: tuple[tuple[tuple[int, FieldElem], ...], ...] = tuple(
    tuple((p, entry) for p, entry in enumerate(mat.coeffs) if entry)
    for mat in _BASIS)


def _combine(coeffs: Sequence[FieldElem]) -> AlgMat:
    """Σ cᵢ·eᵢ, accumulated only at the nonzero entries (flat index, value)
    of each eᵢ."""
    flat = [ZERO] * 9
    for coeff, entries in zip(coeffs, _BASIS_ENTRIES):
        if coeff:
            for p, entry in entries:
                flat[p] = flat[p] + entry * coeff
    return AlgMat._raw(tuple(flat))


@cache
def _metric_rows() -> tuple[tuple[int, int], ...]:
    """The Gram of e₁..e₈, read once from the trace form, as a signed
    permutation: row i is (j, s), s = ⟨eᵢ₊₁, eⱼ₊₁⟩ = ±1 its one nonzero
    entry.  m ⊥ h, so rows 0–5 are the Gram of m."""
    return tuple(next((j, int(entry.a)) for j, b in enumerate(_BASIS)
                      if (entry := metric(a, b)))
                 for a in _BASIS)


def metric(x: AlgMat | MVec | FullVec, y: AlgMat | MVec | FullVec) -> FieldElem:
    """The invariant trace form ⟨X, Y⟩ = −½·tr(XY), on matrices or on vectors."""
    if isinstance(x, AlgMat):
        return _MINUS_HALF * _trace_product(x, y)
    if type(x) is not type(y):
        x, y = x.to_full(), y.to_full()
    yc = y.coeffs
    acc = ZERO
    for a, (j, sign) in zip(x.coeffs, _metric_rows()):
        if a and (b := yc[j]):
            acc = acc + a * b if sign > 0 else acc - a * b
    return acc


@cache
def _dual() -> tuple[tuple[tuple[int, int, FieldElem], ...], ...]:
    """The dual basis as matrix entries: row i lists the nonzero (r, c, w),
    in ascending (r, c), with eᵢ₊₁-coefficient(X) = Σ w·X[r][c] for traceless
    X.  coeffs = G⁻¹ · (⟨eⱼ, X⟩)ⱼ, and G⁻¹ = G: the Gram is symmetric and has
    one ±1 per row, so G² = I.  Row i is then s·⟨eⱼ, X⟩ = −½·s·Σ eⱼ[c][r]·X[r][c]
    for the (j, s) of Gram row i: eⱼ's entries read transposed."""
    return tuple(
        tuple(sorted((p % 3, p // 3, _MINUS_HALF * sign * entry)
                     for p, entry in _BASIS_ENTRIES[j]))
        for j, sign in _metric_rows())


def decompose(x: AlgMat) -> FullVec:
    """Coefficients of a traceless matrix over (e₁, …, e₈), read through `_dual`."""
    if x.trace():
        raise ValueError("matrix has nonzero trace, not in the algebra")
    flat = x.coeffs
    return FullVec._raw(tuple(sum((w * flat[3 * r + c] for r, c, w in entries), ZERO)
                              for entries in _dual()))


def m_component(x: AlgMat) -> MVec:
    return decompose(x).m_part()


def matmul(a: FloatMat, b: FloatMat) -> FloatMat:
    """The product of two 3×3 float matrices, each entry summed left to right."""
    columns = tuple(zip(*b))
    return [[r0 * c0 + r1 * c1 + r2 * c2 for c0, c1, c2 in columns]
            for r0, r1, r2 in a]


def worst_deviation(deviations: Iterable[float]) -> float:
    """The largest deviation, 0.0 for none.  A NaN is kept, so it fails the
    tolerance it is checked against; max() would drop it."""
    worst = 0.0
    for deviation in deviations:
        if deviation > worst or math.isnan(deviation):
            worst = deviation
    return worst


def stabilizer_element(t: float, s: float) -> FloatMat:
    """The stabilizer point h(t, s): a rotation by s scaled by eᵗ in the
    upper block and e^{-2t} in the lower corner."""
    et = math.exp(t)
    return [
        [et * math.cos(s), et * math.sin(s), 0.0],
        [-et * math.sin(s), et * math.cos(s), 0.0],
        [0.0, 0.0, math.exp(-2.0 * t)],
    ]


def ad_numeric(t: float, s: float, x: MVec) -> list[float]:
    """Float coefficients of Ad(h(t, s))·X over (e₁, …, e₆), read through `_dual`.

    Conjugation by the stabilizer preserves the tangent space, so the
    e₇, e₈ coefficients of the result vanish and are dropped.
    """
    flat = [0.0] * 9
    for coeff, entries in zip(x.coeffs, _BASIS_ENTRIES):
        for p, entry in entries:
            flat[p] += coeff.to_float() * entry.to_float()
    conjugated = matmul(matmul(stabilizer_element(t, s), [flat[0:3], flat[3:6], flat[6:9]]),
                        stabilizer_element(-t, -s))
    return [sum(w.to_float() * conjugated[r][col] for r, col, w in entries)
            for entries in _dual()[:6]]


def rotation_action_matrix(t: float, s: float) -> FloatMat:
    """The closed form of Ad(h(t, s)) on tangent coefficients (6×6): rotation
    by 2s on m₁ and by s with scale e^{±3t} on m₂ and m₃."""
    out = [[0.0] * 6 for _ in range(6)]
    for i, angle, scale in ((0, 2.0 * s, 1.0), (2, s, math.exp(3.0 * t)),
                            (4, s, math.exp(-3.0 * t))):
        cos, sin = scale * math.cos(angle), scale * math.sin(angle)
        out[i][i], out[i][i + 1] = cos, sin
        out[i + 1][i], out[i + 1][i + 1] = -sin, cos
    return out


def dphi(x: MVec) -> MVec:
    """Differential of the isometry [A] ↦ [(Aᵀ)⁻¹]: X ↦ −Xᵀ on the tangent
    space.  Fixes m₁ up to sign and swaps m₂ with m₃."""
    return m_component(-x.to_matrix().transpose())


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
def _bracket_terms() -> tuple[tuple[tuple[int, tuple[tuple[int, FieldElem], ...]], ...], ...]:
    """The nonzero structure constants indexed by the first slot: row i
    holds the (j, ((k, c), ...)) with [eᵢ₊₁, eⱼ₊₁] = Σ c·eₖ₊₁ ≠ 0."""
    return tuple(tuple((j, terms) for j, column in enumerate(row)
                       if (terms := tuple((k, c) for k, c in enumerate(column) if c)))
                 for row in structure_constants())


def coeff_bracket(x: MVec | FullVec, y: MVec | FullVec) -> FullVec:
    """[X, Y] over (e₁, …, e₈), contracted from the structure constants over
    the support of X; an MVec has no coordinates past e₆."""
    rows, yc, size = _bracket_terms(), y.coeffs, len(y.coeffs)
    acc = [ZERO] * 8
    for i, xi in enumerate(x.coeffs):
        if xi:
            for j, terms in rows[i]:
                if j < size and (yj := yc[j]):
                    product = xi * yj
                    for k, c in terms:
                        acc[k] = acc[k] + c * product
    return FullVec._raw(tuple(acc))
