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

from . import exactfield, linalg
from .exactfield import ONE, SQRT3, ZERO, FieldElem
from .liealg import MVec, dphi
from .nkgeom import J, curvature, curvature_table
from .surfaces import generator

_HALF = Fraction(1, 2)


def case4_coords(epsilon, a, b) -> tuple:
    """The case 4 generator over (e₁, …, e₆): (a, 0, 1, 0, ½(a²+ε), b).

    Generic in the scalar type, so FieldElem and Fraction parameters share
    this one definition of X; `pin_case4` writes λ times it in integers.
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
        if self.epsilon is not None and (type(self.epsilon) is not int
                                         or self.epsilon not in (-1, 1)):
            raise ValueError("epsilon must be -1 or +1")
        for name in ("a", "b"):
            value = getattr(self, name)
            exact = exactfield.coerce(value)
            if value is not None and exact is None:
                raise TypeError(f"{name} must be a FieldElem, an int or "
                                f"a Fraction, not {type(value).__name__}")
            object.__setattr__(self, name, exact)
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
    """Whether `value` lies in the span tested, with the coefficients that
    combine it from the spanning pair or the echelon row of the pivot."""
    value: MVec
    in_span: bool
    coefficients: tuple[FieldElem, FieldElem] | None
    pivot_row: int | None

    def witness(self) -> str:
        if self.in_span:
            alpha, beta = self.coefficients
            return f"coefficients ({alpha}, {beta})"
        return f"rank 3; pivot in echelon row {self.pivot_row}"


def in_span(v: MVec, x: MVec, y: MVec) -> SpanDecision:
    """Exact membership of v in span{x, y} by elimination over the field."""
    coeffs, pivot_row = linalg.solve_in_span(
        [list(x.coeffs), list(y.coeffs)], list(v.coeffs))
    if coeffs is None:
        return SpanDecision(v, False, None, pivot_row)
    return SpanDecision(v, True, (coeffs[0], coeffs[1]), None)


def _tangency(x: MVec) -> SpanDecision:
    """Whether R(X, JX)JX, the decision's `value`, lies in span{X, JX},
    over the field."""
    jx = J.apply(x)
    return in_span(curvature(x, jx, jx), x, jx)


def tangency_test(candidate: CaseCandidate) -> SpanDecision:
    """Whether R(X, JX)JX stays in span{X, JX}, as on a totally geodesic surface;
    then so does R(X, JX)X = −J·R(X, JX)JX, since R(X, JX) commutes with J."""
    return _tangency(candidate.vector())


@cache
def tangency_form() -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
    """V = D·R(X, JX)JX as a cubic form in rows: row l holds the terms
    (p, q, r, c), p ≤ q ≤ r, of Vₗ = Σ c·xₚ·x_q·xᵣ.  JX is the signed
    permutation `J.rows` of X, so `curvature_table` entry (i, j, k, l, t)
    folds onto xᵢ·x_src(j)·x_src(k) with coefficient t·sign(j)·sign(k); like
    terms summed, zeros dropped."""
    terms: dict[tuple[int, ...], int] = {}
    for i, j, k, l, t in curvature_table()[1]:
        (src_j, sign_j), (src_k, sign_k) = J.rows[j], J.rows[k]
        key = (l, *sorted((i, src_j, src_k)))
        terms[key] = terms.get(key, 0) + t * sign_j * sign_k
    return tuple(tuple((p, q, r, c) for (m, p, q, r), c in sorted(terms.items())
                       if c and m == l) for l in range(6))


_ROW_TRIPLES = tuple(itertools.combinations(range(6), 3))


def _minors(x) -> Iterator:
    """The twenty 3×3 minors of [X | JX | V], lazily, rows e₁e₂e₃ first, for
    a nonzero X over any commutative ring (int, FieldElem): JX is `J.act(x)`
    and V = D·R(X, JX)JX is `tangency_form` at X, read row by row as far as
    the current minor needs.  Only +, − and ×; no type checks, no scaling."""
    jx, form = J.act(x), tangency_form()
    v = []
    for r, s, t in _ROW_TRIPLES:
        while len(v) <= t:
            acc = 0
            for i, j, k, c in form[len(v)]:
                acc += c * x[i] * x[j] * x[k]
            v.append(acc)
        yield (x[r] * (jx[s] * v[t] - jx[t] * v[s])
               - x[s] * (jx[r] * v[t] - jx[t] * v[r])
               + x[t] * (jx[r] * v[s] - jx[s] * v[r]))


def _in_plane(x) -> bool:
    """Whether V = D·R(X, JX)JX lies in span{X, JX}: as J² = −Id keeps X and
    JX independent, iff all `_minors` vanish (then so does R(X, JX)X =
    −J·R(X, JX)JX, as R(X, JX) commutes with J)."""
    return not any(_minors(x))


def rational_tangency(coords: Sequence[Fraction | int]) -> bool:
    """Whether R(X, JX)JX ∈ span{X, JX} for a nonzero X with six int or
    Fraction coordinates (a float or bool raises TypeError), scaled to
    integers for the kernel `_in_plane`; `tangency_test` is the reference
    route."""
    if len(coords) != 6:
        raise ValueError(f"the tangency test takes 6 coordinates, not {len(coords)}")
    if not all(isinstance(c, (int, Fraction)) and not isinstance(c, bool)
               for c in coords):
        raise TypeError("the tangency test takes int or Fraction "
                        f"coordinates, not {coords!r}")
    scale = math.lcm(*(c.denominator for c in coords))
    x = [c.numerator * (scale // c.denominator) for c in coords]
    if not any(x):
        raise ValueError("the tangency test needs a nonzero vector")
    return _in_plane(x)


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


def pin_case4(grid: GridSpec | None = None) -> PinReport:
    """Certify the claimed case 4 point exactly and sweep a rational grid of
    (a, b) for both ε, expecting every grid cell to fail the tangency test.

    The claimed point is irrational and goes through `tangency_test` over
    the field.  The grid is scaled to integers once, by λ = 2m² with m the
    lcm of the denominators of a_min, a_step, b_min and b_step, so that
    λ·X = λ·(a, 0, 1, 0, ½(a²+ε), b) is integral in every cell, and the
    sweep writes it in integers, as (2m·A, 0, 2m², 0, A² + εm², λb), A = m·a
    and λb each stepped in integers.  Each minor of [X | JX | V] is
    homogeneous of degree 5 in X, so X ↦ λX multiplies it by λ⁵ ≠ 0 and
    keeps the verdict.  Once per sweep the first minor runs on the
    `linalg.Degree` ring at the row shape (c, 0, c, 0, c, λb), which bounds
    its degree d in λb along every row of fixed (ε, a).  Equal nonzero
    values at max(d + 1, 1) cells make it that constant, refuting the row,
    and a row of at most that many cells is probed whole; any other row
    sends each cell to `_in_plane`.  The pass gives d = 0, one probe per
    row: there the first minor is λ⁵·(−12a²(3a² + ε)), as `prove_case4`
    proves.  A Fraction is built only to label a cell that passes."""
    grid = grid or GridSpec()
    claimed = tangency_test(claimed_case4_point()).in_span
    c = linalg.Degree(0)
    row = next(_minors((c, 0, c, 0, c, linalg.Degree(1))))
    n = max(linalg.Degree.of(row).d + 1, 1)
    m = math.lcm(grid.a_min.denominator, grid.a_step.denominator,
                 grid.b_min.denominator, grid.b_step.denominator)
    scale = 2 * m * m
    a_steps, b_steps = grid._steps()
    a0, da = int(grid.a_min * m), int(grid.a_step * m)
    b0, db = int(grid.b_min * scale), int(grid.b_step * scale)
    a_scaled = tuple(a0 + k * da for k in a_steps)
    b_scaled = tuple(b0 + k * db for k in b_steps)
    unexpected: list[str] = []
    for epsilon in (-1, 1):
        for a in a_scaled:
            head = (2 * m * a, 0, scale, 0, a * a + epsilon * m * m)
            probes = [next(_minors((*head, b))) for b in b_scaled[:n]]
            if all(probes) and (len(b_scaled) <= n or len(set(probes)) == 1):
                continue  # the first minor refutes every cell of the row
            unexpected += [CaseCandidate(
                4, epsilon=epsilon, a=FieldElem(Fraction(a, m)),
                b=FieldElem(Fraction(b, scale))).label()
                for b in b_scaled if _in_plane((*head, b))]
    cells = 2 * len(a_scaled) * len(b_scaled)
    return PinReport(claimed, cells, tuple(unexpected), grid)


def prove_case4() -> str:
    """The witness that the case 4 normal form is tangent only at ε = −1,
    a = 1/√3, b = 0: minor 16 (rows e₃e₄e₅) of [X | JX | V] is −48b², so
    b = 0, and minor 0 (rows e₁e₂e₃) is −12a²(3a² + ε), zero for a > 0 only
    there.  `linalg.prove_zero` proves each per ε at 2X = (2a, 0, 2, 0,
    a² + ε, 2b) in integers, where a minor is 2⁵ times its value at X."""
    proofs = set()
    for index, text, rhs in (
            (0, "−12a²(3a²+ε)", lambda e, a, b: -12 * a * a * (3 * a * a + e)),
            (16, "−48b²", lambda e, a, b: -48 * b * b)):
        def difference(a, b):
            x = (2 * a, 0, 2, 0, a * a + e, 2 * b)
            return (next(itertools.islice(_minors(x), index, None))
                    - 32 * rhs(e, a, b))
        for e in (-1, 1):
            proofs.add(linalg.prove_zero(f"minor {index} ≡ {text}",
                                         difference, "ab"))
    return ("; ".join(sorted(proofs)) + "; each for ε = ±1 at X = (a, 0, 1, "
            "0, ½(a²+ε), b), so b = 0, ε = −1 and a = 1/√3")


_SURVIVOR_TABLE: tuple[tuple[str, CaseCandidate, str], ...] = (
    ("1", CaseCandidate(1), "f1"),
    ("3+", CaseCandidate(3, epsilon=1), "f2"),
    ("3-", CaseCandidate(3, epsilon=-1), "f3"),
    ("4", claimed_case4_point(), "f4"),
    ("5", CaseCandidate(5), "f5"),
)


def match_survivors() -> dict[str, str | None]:
    """Map each surviving case label to its surface family, or to None when
    the case vector is outside the family's plane span{X, JX} (so −X still
    matches).  The `classify.case*` checks decide tangency.  The bridge from
    tangent data to the surfaces is that geodesics from the base point are
    exp(Y)·o in a naturally reductive space."""
    return {label: fid if in_span(candidate.vector(),
                                  *generator(fid)).in_span else None
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
            decision = _tangency(vec)
            reports.append(EliminationReport(epsilon, rep_name, vec, decision.value,
                                             not decision.in_span))
    return reports
