"""Exact linear algebra over Q(√2, √3).

Matrices are lists of rows of FieldElem.  Ranks, spans and inverses come
from Gaussian elimination, signatures from the characteristic polynomial;
all of it is exact, so it carries proof force, not floating-point confidence.
`Degree` bounds the degree of what a ring-generic kernel computes for
`prove_zero`, which proves an identity on a grid sized from those bounds.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

from .exactfield import ONE, ZERO, FieldElem

Row = list[FieldElem]
Matrix = list[Row]


def echelon(rows: Sequence[Sequence[FieldElem]]) -> tuple[Matrix, list[int]]:
    """Row echelon form and the list of pivot column indices."""
    mat = [list(row) for row in rows]
    if not mat:
        return mat, []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][col].inv()
        mat[r] = [entry * inv for entry in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [entry - factor * lead
                          for entry, lead in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def rank(rows: Sequence[Sequence[FieldElem]]) -> int:
    return len(echelon(rows)[1])


def solve_in_span(vectors: Sequence[Sequence[FieldElem]],
                  target: Sequence[FieldElem]
                  ) -> tuple[list[FieldElem] | None, int | None]:
    """Express target as a combination of the given coordinate vectors.

    Returns (coefficients, None) when target lies in the span, else
    (None, pivot_row) where pivot_row indexes the echelon row whose pivot
    sits in the target column, witnessing the rank jump.
    """
    dim = len(target)
    for v in vectors:
        if len(v) != dim:
            raise ValueError("span vectors and target must share a dimension")
    augmented = [[vectors[j][i] for j in range(len(vectors))] + [target[i]]
                 for i in range(dim)]
    mat, pivots = echelon(augmented)
    if len(vectors) in pivots:
        return None, pivots.index(len(vectors))
    coeffs = [ZERO] * len(vectors)
    for row_index, col in enumerate(pivots):
        coeffs[col] = mat[row_index][len(vectors)]
    return coeffs, None


def invert(rows: Sequence[Sequence[FieldElem]]) -> Matrix:
    """Exact inverse of a square matrix; raises ValueError when singular."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    augmented = [list(row) + [ONE if i == j else ZERO for j in range(n)]
                 for i, row in enumerate(rows)]
    mat, pivots = echelon(augmented)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in mat]


def signature(gram: Sequence[Sequence[FieldElem]]) -> tuple[int, int, int]:
    """Inertia (positive, negative, null) of a symmetric matrix.

    The Faddeev–LeVerrier recurrence M₁ = I, cₖ = −tr(A·Mₖ)/k,
    Mₖ₊₁ = A·Mₖ + cₖ·I gives the characteristic polynomial
    λⁿ + c₁λⁿ⁻¹ + … + cₙ.  A symmetric matrix has only real eigenvalues, so
    Descartes' rule of signs is exact: the sign changes among the nonzero
    coefficients count the positive eigenvalues, and the trailing zero
    coefficients count the null ones.
    """
    n = len(gram)
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
        raise ValueError("signature needs a symmetric matrix")
    coeffs = [ONE]
    power = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        product = [[sum((a * power[l][j] for l, a in enumerate(row)), ZERO)
                    for j in range(n)] for row in gram]
        coeff = -sum((product[i][i] for i in range(n)), ZERO) / k
        coeffs.append(coeff)
        power = [[entry + coeff if i == j else entry
                  for j, entry in enumerate(row)]
                 for i, row in enumerate(product)]
    null = n - max(i for i, coeff in enumerate(coeffs) if coeff)
    signs = [coeff.sign() for coeff in coeffs if coeff]
    pos = sum(a != b for a, b in zip(signs, signs[1:]))
    return pos, n - null - pos, null


class Degree:
    """A bound d on the degree in one marked variable, −1 for the exact zero:
    + and − take the larger bound, × adds them, and a constant has degree 0,
    or −1 when it is 0.  Run on this ring, a kernel that uses only +, − and
    × bounds the degree of the polynomial it computes; a kernel that
    branches on a value has no such bound, so truth testing raises."""

    __slots__ = ("d",)

    def __init__(self, d: int) -> None:
        self.d = d

    @staticmethod
    def of(value) -> "Degree":
        return value if type(value) is Degree else Degree(0 if value else -1)

    def __add__(self, other) -> "Degree":
        d = other.d if type(other) is Degree else 0 if other else -1
        return Degree(d if d > self.d else self.d)

    def __mul__(self, other) -> "Degree":
        d = other.d if type(other) is Degree else 0 if other else -1
        return Degree(-1 if d < 0 or self.d < 0 else self.d + d)

    def __pow__(self, n: int) -> "Degree":
        return math.prod([self] * n, start=Degree(0))

    def __bool__(self) -> bool:
        raise TypeError("a degree bound has no truth value")

    __radd__ = __sub__ = __rsub__ = __add__
    __rmul__ = __mul__


def prove_zero(identity: str, f: Callable, names: str) -> str:
    """The witness that the ring-generic f(x₁, …, xₙ) is the zero
    polynomial: f has degree ≤ dᵢ in xᵢ by `Degree`, marking one variable at
    a time, and vanishes on the grid Πᵢ {0, …, dᵢ}, so it is zero, one
    variable at a time.  Raises ValueError at a grid point where it is not."""
    n = len(names)
    bounds = [Degree.of(f(*(Degree(int(i == j)) for j in range(n)))).d
              for i in range(n)]
    for point in itertools.product(*(range(d + 1) for d in bounds)):
        if f(*point):
            raise ValueError(f"{identity} fails at {names} = {point}")
    degrees = ", ".join(f"{d} in {x}" for d, x in zip(bounds, names))
    grid = "×".join(f"{{0..{d}}}" for d in bounds)
    return f"{identity}: degree ≤ {degrees}; zero on the grid {grid}"
