"""The case engine for totally geodesic almost complex surfaces.

Normal-form candidates for the tangent generator X (after the stabilizer
action, the transpose-inverse isometry and rescaling), their parameters in
one table, `_PARAMETERS`; the exact curvature tangency test
R(X, JX)JX ∈ span{X, JX}, shared by the elimination of the mixed m₁ ⊕ m₃
case; parameter pinning for the full three-block case by exact grid
refutation; and the matching of survivors to the surface families.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterator, Sequence

from . import linalg
from .exactfield import ONE, SQRT3, ZERO, FieldElem
from .liealg import MVec, dphi
from .nkgeom import J, curvature, curvature_components
from .surfaces import family

_HALF = Fraction(1, 2)


def case4_coords(epsilon, a, b) -> tuple:
    """The case 4 generator over (e₁, …, e₆): (a, 0, 1, 0, ½(a²+ε), b).

    Generic in the scalar type, so FieldElem and Fraction parameters share
    this one definition of X.
    """
    return (a, 0, 1, 0, (a * a + epsilon) * _HALF, b)


_PARAMETERS = {1: (), 2: ("epsilon",), 3: ("epsilon",),
               4: ("epsilon", "a", "b"), 5: ()}


@dataclass(frozen=True)
class CaseCandidate:
    """A normal-form tangent generator; `_PARAMETERS` names the parameters
    each case carries, and a candidate must carry exactly those.

    Case 1: X = e₁                               (single block m₁)
    Case 2: X = εe₁ + e₅                         (m₁ ⊕ m₃)
    Case 3: X = (e₃ + εe₅)/√2                    (m₂ ⊕ m₃)
    Case 4: X = a·e₁ + e₃ + ½(a²+ε)·e₅ + b·e₆    (all blocks, a > 0)
    Case 5: X = e₃                               (single block m₂, degenerate)
    """

    case: int
    epsilon: int | None = None
    a: FieldElem | None = None
    b: FieldElem | None = None

    def __post_init__(self) -> None:
        if self.case not in _PARAMETERS:
            raise ValueError(f"unknown case: {self.case}")
        wanted = _PARAMETERS[self.case]
        given = tuple(name for name in ("epsilon", "a", "b")
                      if getattr(self, name) is not None)
        if given != wanted:
            raise ValueError(f"case {self.case} takes exactly the "
                             f"parameters {wanted}, not {given}")
        if self.epsilon not in (None, -1, 1):
            raise ValueError("epsilon must be -1 or +1")
        if self.a is not None and self.a.sign() <= 0:
            raise ValueError("case 4 requires a > 0")

    def vector(self) -> MVec:
        if self.case == 1:
            return MVec.basis(1)
        if self.case == 2:
            return MVec.basis(1) * self.epsilon + MVec.basis(5)
        if self.case == 3:
            half_sqrt2 = FieldElem(0, _HALF)
            return (MVec.basis(3) + MVec.basis(5) * self.epsilon) * half_sqrt2
        if self.case == 4:
            return MVec(case4_coords(self.epsilon, self.a, self.b))
        return MVec.basis(3)

    def expected_norm(self) -> FieldElem:
        """The value metric(X, X) is normalized to: −1, −1, ε, ε, 0."""
        if self.case in (1, 2):
            return -ONE
        if self.case in (3, 4):
            return FieldElem(self.epsilon)
        return ZERO

    def label(self) -> str:
        parts = [f"case {self.case}"]
        if self.epsilon is not None:
            parts.append(f"ε={'+1' if self.epsilon > 0 else '-1'}")
        if self.a is not None:
            parts.append(f"a={self.a}")
        if self.b is not None:
            parts.append(f"b={self.b}")
        return ", ".join(parts)


@dataclass(frozen=True)
class SpanDecision:
    contained: bool
    coefficients: tuple[FieldElem, FieldElem] | None
    pivot_row: int | None

    def witness(self) -> str:
        if self.contained:
            alpha, beta = self.coefficients
            return f"coefficients ({alpha}, {beta})"
        return f"rank 3; pivot in echelon row {self.pivot_row}"


def in_span(v: MVec, x: MVec, y: MVec) -> SpanDecision:
    """Exact membership of v in span{x, y} by elimination over the field."""
    coeffs, pivot_row = linalg.solve_in_span(
        [list(x.coeffs), list(y.coeffs)], list(v.coeffs))
    if coeffs is None:
        return SpanDecision(False, None, pivot_row)
    return SpanDecision(True, (coeffs[0], coeffs[1]), None)


@dataclass(frozen=True)
class TangencyResult:
    value: MVec
    in_span: bool
    witness: SpanDecision


def _tangency(x: MVec) -> tuple[MVec, SpanDecision]:
    """R(X, JX)JX and whether it lies in span{X, JX}, over the field."""
    jx = J.apply(x)
    value = curvature(x, jx, jx)
    return value, in_span(value, x, jx)


def tangency_test(candidate: CaseCandidate) -> TangencyResult:
    """Whether R(X, JX)JX stays inside span{X, JX}; a totally geodesic
    surface's tangent plane must be preserved by the ambient curvature."""
    value, decision = _tangency(candidate.vector())
    return TangencyResult(value, decision.contained, decision)


@cache
def curvature_table() -> tuple[int, tuple[tuple[int, int, int, int, int], ...]]:
    """The curvature tensor in integers: (D, entries) where each entry
    (i, j, k, l, t) says R(eᵢ₊₁, eⱼ₊₁)eₖ₊₁ has eₗ₊₁ coefficient t/D.

    Read from `curvature_components` on the 216 basis triples, which by
    trilinearity determine the whole tensor.
    """
    entries = []
    for i, j, k in itertools.product(range(6), repeat=3):
        for l, value in curvature_components(i, j, k):
            if not value.is_rational:
                raise RuntimeError(f"R(e{i + 1}, e{j + 1})e{k + 1} has the "
                                   f"irrational e{l + 1} coefficient {value}")
            entries.append((i, j, k, l, value.a))
    denominator = math.lcm(*(q.denominator for *_, q in entries))
    return denominator, tuple((i, j, k, l, int(q * denominator))
                              for i, j, k, l, q in entries)


@cache
def tangency_form() -> tuple[tuple[int, int, int, int, int], ...]:
    """V = D·R(X, JX)JX as a cubic form: terms (l, p, q, r, c), p ≤ q ≤ r,
    with Vₗ = Σ c·xₚ·x_q·xᵣ.  JX is the signed permutation `J.rows` of X, so
    `curvature_table` entry (i, j, k, l, t) folds onto xᵢ·x_src(j)·x_src(k)
    with coefficient t·sign(j)·sign(k); like terms summed, zeros dropped."""
    terms: dict[tuple[int, ...], int] = {}
    for i, j, k, l, t in curvature_table()[1]:
        (src_j, sign_j), (src_k, sign_k) = J.rows[j], J.rows[k]
        key = (l, *sorted((i, src_j, src_k)))
        terms[key] = terms.get(key, 0) + t * sign_j * sign_k
    return tuple((*key, c) for key, c in sorted(terms.items()) if c)


_ROW_TRIPLES = tuple(itertools.combinations(range(6), 3))


def rational_tangency(coords: Sequence[Fraction | int]) -> bool:
    """Whether R(X, JX)JX ∈ span{X, JX} for a nonzero rational X, decided
    in integer arithmetic.

    X is scaled to integers straight from the numerators and denominators
    of its int or Fraction coordinates (a float raises TypeError), JX is the
    signed permutation `J.rows` of it, and V = D·R(X, JX)JX is the cubic
    form `tangency_form` evaluated at X.  J² = −Id has no real eigenvector,
    so X and JX are independent, and V lies in their span exactly when all
    twenty 3×3 minors of [X | JX | V] vanish.  `tangency_test` is the
    reference route this must agree with.
    """
    try:
        scale = math.lcm(*(c.denominator for c in coords))
    except AttributeError:
        raise TypeError("the tangency test takes int or Fraction "
                        f"coordinates, not {coords!r}") from None
    x = [c.numerator * (scale // c.denominator) for c in coords]
    if not any(x):
        raise ValueError("the tangency test needs a nonzero vector")
    jx = [sign * x[source] for source, sign in J.rows]
    v = [0] * 6
    for l, p, q, r, c in tangency_form():
        v[l] += c * x[p] * x[q] * x[r]
    for r, s, t in _ROW_TRIPLES:
        if (x[r] * (jx[s] * v[t] - jx[t] * v[s])
                - x[s] * (jx[r] * v[t] - jx[t] * v[r])
                + x[t] * (jx[r] * v[s] - jx[s] * v[r])):
            return False
    return True


MAX_GRID_CELLS = 1_000_000


def _grid_number(text: str) -> Fraction:
    """One number of a grid spec.  `Fraction` computes 10**exp for a decimal
    exponent, so an exponent of three or more digits is refused first."""
    if sum(c.isdigit() for c in text.lower().partition("e")[2]) >= 3:
        raise ValueError(f"exponent too large in {text!r}")
    return Fraction(text)


@dataclass(frozen=True)
class GridSpec:
    """Rational sweep grid for the case 4 parameters: a over (a_min, a_max]
    and b over [b_min, b_max], both stepped uniformly.  The step index of a
    starts at 1, so a_min itself is never swept, even when it is positive;
    values a ≤ 0 are skipped as well, since case 4 requires a > 0."""

    a_min: Fraction = Fraction(0)
    a_max: Fraction = Fraction(3)
    a_step: Fraction = Fraction(1, 20)
    b_min: Fraction = Fraction(-3)
    b_max: Fraction = Fraction(3)
    b_step: Fraction = Fraction(1, 20)

    def __post_init__(self) -> None:
        if self.a_step <= 0 or self.b_step <= 0:
            raise ValueError("grid steps must be positive")

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        try:
            a_part, b_part = text.split(",")
            a_min, a_max, a_step = (_grid_number(p) for p in a_part.split(":"))
            b_min, b_max, b_step = (_grid_number(p) for p in b_part.split(":"))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad grid spec {text!r}; expected "
                             "'amin:amax:astep,bmin:bmax:bstep'") from exc
        grid = cls(a_min, a_max, a_step, b_min, b_max, b_step)
        if grid.cells() > MAX_GRID_CELLS:
            raise ValueError(f"grid {text!r} has {grid.cells()} cells, "
                             f"above the cap of {MAX_GRID_CELLS}")
        return grid

    def _steps(self) -> tuple[range, range]:
        """The step indices k of a = a_min + k·a_step (k ≥ 1, a ≤ a_max,
        kept only when a > 0) and of b = b_min + k·b_step (k ≥ 0, b ≤ b_max)."""
        a_first = max(1, -self.a_min // self.a_step + 1)
        return (range(a_first, (self.a_max - self.a_min) // self.a_step + 1),
                range((self.b_max - self.b_min) // self.b_step + 1))

    def a_values(self) -> Iterator[Fraction]:
        return (self.a_min + k * self.a_step for k in self._steps()[0])

    def b_values(self) -> Iterator[Fraction]:
        return (self.b_min + k * self.b_step for k in self._steps()[1])

    def cells(self) -> int:
        """The number of cells `pin_case4` sweeps (both ε)."""
        # from the bounds, since len() of a range overflows past sys.maxsize
        return 2 * math.prod(max(0, r.stop - r.start) for r in self._steps())

    def __str__(self) -> str:
        return (f"{self.a_min}:{self.a_max}:{self.a_step},"
                f"{self.b_min}:{self.b_max}:{self.b_step}")


def claimed_case4_point() -> CaseCandidate:
    """The single surviving case 4 parameter point: ε = −1, a = 1/√3, b = 0."""
    return CaseCandidate(4, epsilon=-1, a=SQRT3 * Fraction(1, 3), b=ZERO)


@dataclass(frozen=True)
class PinReport:
    """The facts of a pin; the CLI check `classify.case4_pinned` judges
    them."""
    claimed_point_passes: bool
    cells: int
    unexpected_passes: tuple[str, ...]
    grid: GridSpec

    @property
    def grid_passes(self) -> int:
        return len(self.unexpected_passes)


def pin_case4(grid: GridSpec | None = None) -> PinReport:
    """Certify the claimed case 4 point exactly and sweep a rational grid of
    (a, b) for both ε, expecting every grid cell to fail the tangency test.

    The claimed point is irrational and goes through `tangency_test` over
    the field.  Every grid cell is rational, so the sweep uses the integer
    kernel `rational_tangency` on the cubic form `tangency_form`: a cell
    passes only when all twenty 3×3 minors of [X | JX | R(X, JX)JX] vanish.

    Grid evidence, not a proof of uniqueness.
    """
    grid = grid or GridSpec()
    claimed = tangency_test(claimed_case4_point()).in_span
    cells = 0
    unexpected: list[str] = []
    b_values = tuple(grid.b_values())
    for epsilon in (-1, 1):
        for a in grid.a_values():
            head = case4_coords(epsilon, a, 0)[:5]
            for b in b_values:
                cells += 1
                if rational_tangency((*head, b)):
                    unexpected.append(CaseCandidate(
                        4, epsilon=epsilon, a=FieldElem(a),
                        b=FieldElem(b)).label())
    return PinReport(claimed, cells, tuple(unexpected), grid)


_SURVIVOR_TABLE: tuple[tuple[str, CaseCandidate, str], ...] = (
    ("1", CaseCandidate(1), "f1"),
    ("3+", CaseCandidate(3, epsilon=1), "f2"),
    ("3-", CaseCandidate(3, epsilon=-1), "f3"),
    ("4", claimed_case4_point(), "f4"),
    ("5", CaseCandidate(5), "f5"),
)


def match_survivors() -> dict[str, str | None]:
    """Map each surviving case label to its surface family, or to None when
    the case vector is not exactly the family's X.  Both planes are
    span{X, JX}, so X is the whole comparison; the `classify.case*` checks
    decide tangency.  The bridge from tangent data to the surfaces is that
    geodesics from the base point are exp(Y)·o in a naturally reductive
    space."""
    return {label: fid if candidate.vector() == family(fid).x else None
            for label, candidate, fid in _SURVIVOR_TABLE}


@dataclass(frozen=True)
class EliminationReport:
    epsilon: int
    representative: str
    vector: MVec
    value: MVec
    eliminated: bool


def eliminate_case2() -> list[EliminationReport]:
    """Run the tangency test on case 2 and on its image under the
    transpose-inverse isometry.

    The case list writes the mixed two-block candidate inside m₁ ⊕ m₃; dphi
    swaps m₂ with m₃, so the same geometry also has a representative in
    m₁ ⊕ m₂.  Both are tested and both must fail.
    """
    reports: list[EliminationReport] = []
    for epsilon in (-1, 1):
        x = CaseCandidate(2, epsilon=epsilon).vector()
        for rep_name, vec in (("m1+m3", x), ("m1+m2 (dphi image)", dphi(x))):
            value, decision = _tangency(vec)
            reports.append(EliminationReport(epsilon, rep_name, vec, value,
                                             not decision.contained))
    return reports
