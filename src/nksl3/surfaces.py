"""The five totally geodesic almost complex surfaces through the base coset.

Each family carries an exact tangent generator X, the orbit subgroup it
sweeps out, and the closed form of exp(·) in the parameters (u, v), with
the plane coordinates (p, q) of (u, v) that make it exp(p·X + q·JX); its
plane is span{X, JX}, with JX derived from X.  `FAMILIES` is the one table
of these surfaces: the classification and the CLI read their planes from
it.  Certification is exact tangent algebra (induced signature, sectional
constant, and geodesy from one Lie closure of span{X, JX}, bracketed by
`liealg.coeff_bracket`) plus a numeric cross-check that compares each
closed form with expm(p·X + q·JX), X and JX read as floats, as a matrix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import linalg
from .exactfield import SQRT2, SQRT3, FieldElem
from .liealg import FloatMat, FullVec, MVec, coeff_bracket, metric
from .nkgeom import J, sectional

_HALF = Fraction(1, 2)


class DegenerateSpanError(ValueError):
    """sff was asked to project onto a span with degenerate induced metric."""


@dataclass(frozen=True)
class SurfaceFamily:
    id: str
    orbit_group: str
    orbit_dim: int
    x: MVec
    expected_signature: tuple[int, int, int]
    expected_curvature: FieldElem | None
    closed_form: Callable[[float, float], FloatMat]
    plane_coords: Callable[[float, float], tuple[float, float]]
    u_range: tuple[float, float]
    v_range: tuple[float, float]


def _closed_f1(u: float, v: float) -> FloatMat:
    ch, sh = math.cosh(u), math.sinh(u)
    return [
        [ch + math.cos(v) * sh, math.sin(v) * sh, 0.0],
        [math.sin(v) * sh, ch - math.cos(v) * sh, 0.0],
        [0.0, 0.0, 1.0],
    ]


def _closed_f2(u: float, v: float) -> FloatMat:
    cu, su = math.cos(u), math.sin(u)
    return [
        [cu * cu - math.cos(2 * v) * su * su, -su * su * math.sin(2 * v),
         math.cos(v) * math.sin(2 * u)],
        [-su * su * math.sin(2 * v), cu * cu + math.cos(2 * v) * su * su,
         math.sin(2 * u) * math.sin(v)],
        [-math.cos(v) * math.sin(2 * u), -math.sin(2 * u) * math.sin(v),
         math.cos(2 * u)],
    ]


def _closed_f3(u: float, v: float) -> FloatMat:
    ch, sh = math.cosh(u), math.sinh(u)
    return [
        [ch * ch + math.cos(2 * v) * sh * sh, math.sin(2 * v) * sh * sh,
         math.cos(v) * math.sinh(2 * u)],
        [math.sin(2 * v) * sh * sh, ch * ch - math.cos(2 * v) * sh * sh,
         math.sin(v) * math.sinh(2 * u)],
        [math.cos(v) * math.sinh(2 * u), math.sin(v) * math.sinh(2 * u),
         math.cosh(2 * u)],
    ]


def _closed_f4(u: float, v: float) -> FloatMat:
    ev, emv, scale = math.exp(v), math.exp(-v), math.exp(-u / 3.0)
    euv = math.exp(u + v)
    sh, ch = math.sinh(v), math.cosh(v)
    s3, s6 = math.sqrt(3.0), math.sqrt(6.0)
    core = [
        [emv * (1 + ev * ev + 4 * euv) / 6.0, -sh / s3,
         -emv * (1 + ev * ev - 2 * euv) / s6],
        [-sh / s3, ch, math.sqrt(2.0) * sh],
        [-emv * (1 + ev * ev - 2 * euv) / (3.0 * s6), math.sqrt(2.0) * sh / 3.0,
         emv * (1 + ev * ev + euv) / 3.0],
    ]
    return [[scale * entry for entry in row] for row in core]


def _closed_f5(u: float, v: float) -> FloatMat:
    return [[1.0, 0.0, u], [0.0, 1.0, v], [0.0, 0.0, 1.0]]


def _polar(u: float, v: float) -> tuple[float, float]:
    return 2.0 * u * math.cos(v), 2.0 * u * math.sin(v)


_INV_SQRT2 = SQRT2 * _HALF
_TWO_PI = 2.0 * math.pi

FAMILIES: dict[str, SurfaceFamily] = {family.id: family for family in (
    # JX = −e₂: the closed form's cos v·e₁ + sin v·e₂ is cos v·X − sin v·JX
    SurfaceFamily(
        "f1", "SL(2,R)", 3, MVec((1, 0, 0, 0, 0, 0)), (0, 2, 0), FieldElem(4),
        _closed_f1, lambda u, v: (u * math.cos(v), -u * math.sin(v)),
        (-2.0, 2.0), (0.0, _TWO_PI)),
    SurfaceFamily(
        "f2", "SO(3)", 3, MVec((0, 0, _INV_SQRT2, 0, _INV_SQRT2, 0)), (2, 0, 0),
        FieldElem(1), _closed_f2, _polar, (-2.0, 2.0), (0.0, _TWO_PI)),
    SurfaceFamily(
        "f3", "SO+(2,1)", 3, MVec((0, 0, _INV_SQRT2, 0, -_INV_SQRT2, 0)), (0, 2, 0),
        FieldElem(1), _closed_f3, _polar, (-2.0, 2.0), (0.0, _TWO_PI)),
    # The f4 closed form's u-derivative at the origin is X/√3, not X:
    # its u coordinate runs along X/√3 (same span, same surface).
    SurfaceFamily(
        "f4", "R2", 2, MVec((SQRT3 * Fraction(1, 3), 0, 1, 0, Fraction(-1, 3), 0)),
        (0, 2, 0), FieldElem(0), _closed_f4,
        lambda u, v: (u / math.sqrt(3.0), v), (-2.0, 2.0), (-2.0, 2.0)),
    # X = e₃ and JX = e₄ are √2 times the matrix units E₁₃ and E₂₃
    SurfaceFamily(
        "f5", "R2-degenerate", 2, MVec((0, 0, 1, 0, 0, 0)), (0, 0, 2), None,
        _closed_f5, lambda u, v: (u / math.sqrt(2.0), v / math.sqrt(2.0)),
        (-3.0, 3.0), (-3.0, 3.0)),
)}


def family(fid: str) -> SurfaceFamily:
    try:
        return FAMILIES[fid]
    except KeyError:
        raise ValueError(f"unknown surface family: {fid!r}") from None


def generator(fid: str) -> tuple[MVec, MVec]:
    x = family(fid).x
    return x, J.apply(x)


def expm(a: FloatMat) -> FloatMat:
    """exp(A) for a 3×3 float matrix: s squarings of the power series at A/2ˢ, on nine
    local floats, each entry's products summed left to right as `liealg.matmul` does."""
    norm = max(abs(r0) + abs(r1) + abs(r2) for r0, r1, r2 in a)
    squarings = math.ceil(math.log2(norm / 0.25)) if norm > 0.25 else 0
    scale = 2.0 ** squarings
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = (
        (r0 / scale, r1 / scale, r2 / scale) for r0, r1, r2 in a)
    t00, t01, t02, t10, t11, t12, t20, t21, t22 = r00, r01, r02, r10, r11, r12, r20, r21, r22 = (
        1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    for k in range(1, 30):
        t00, t01, t02, t10, t11, t12, t20, t21, t22 = (
            (t00 * a00 + t01 * a10 + t02 * a20) / k, (t00 * a01 + t01 * a11 + t02 * a21) / k,
            (t00 * a02 + t01 * a12 + t02 * a22) / k, (t10 * a00 + t11 * a10 + t12 * a20) / k,
            (t10 * a01 + t11 * a11 + t12 * a21) / k, (t10 * a02 + t11 * a12 + t12 * a22) / k,
            (t20 * a00 + t21 * a10 + t22 * a20) / k, (t20 * a01 + t21 * a11 + t22 * a21) / k,
            (t20 * a02 + t21 * a12 + t22 * a22) / k)
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = (
            r00 + t00, r01 + t01, r02 + t02, r10 + t10, r11 + t11, r12 + t12,
            r20 + t20, r21 + t21, r22 + t22)
        if max(abs(t00) + abs(t01) + abs(t02), abs(t10) + abs(t11) + abs(t12),
               abs(t20) + abs(t21) + abs(t22)) < 1e-18:
            break
    for _ in range(squarings):
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = (
            r00 * r00 + r01 * r10 + r02 * r20, r00 * r01 + r01 * r11 + r02 * r21,
            r00 * r02 + r01 * r12 + r02 * r22, r10 * r00 + r11 * r10 + r12 * r20,
            r10 * r01 + r11 * r11 + r12 * r21, r10 * r02 + r11 * r12 + r12 * r22,
            r20 * r00 + r21 * r10 + r22 * r20, r20 * r01 + r21 * r11 + r22 * r21,
            r20 * r02 + r21 * r12 + r22 * r22)
    return [[r00, r01, r02], [r10, r11, r12], [r20, r21, r22]]


def coset_deviation(achieved: FloatMat, target: FloatMat) -> float:
    """Frobenius distance between the two matrices.

    Each closed form equals its exponential as a matrix, not only as a
    coset, so no stabilizer alignment is needed, and matrix equality is the
    stricter test.  The name is kept for the benchmark's traced spans.
    """
    return math.dist([entry for row in achieved for entry in row],
                     [entry for row in target for entry in row])


@dataclass(frozen=True)
class ExpCheckResult:
    samples: int
    tol: float
    max_dev: float

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tol


def exp_check(fid: str, samples: int = 100, tol: float = 1e-8,
              seed: int = 0) -> ExpCheckResult:
    """Compare expm(p·X + q·JX) against the closed form on seeded random
    (u, v), as matrices, where (p, q) are the family's plane coordinates
    of (u, v) and X, JX come from `generator`."""
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    fam = family(fid)
    x, jx = (w.to_matrix().to_float() for w in generator(fid))
    rng = random.Random(seed)
    max_dev = 0.0
    for _ in range(samples):
        u = rng.uniform(*fam.u_range)
        v = rng.uniform(*fam.v_range)
        p, q = fam.plane_coords(u, v)
        achieved = expm([[p * a + q * b for a, b in zip(ra, rb)]
                         for ra, rb in zip(x, jx)])
        target = fam.closed_form(u, v)
        deviation = coset_deviation(achieved, target)
        # a NaN is kept, and fails `passed`; max() would drop it
        if deviation > max_dev or math.isnan(deviation):
            max_dev = deviation
    return ExpCheckResult(samples, tol, max_dev)


def sff(kbasis: Sequence[MVec], x: MVec, y: MVec) -> MVec:
    """Second fundamental form at the base point of an orbit with tangent
    space span(kbasis): ½·[X, Y]_m minus its metric projection onto that
    span.  It is zero on X, JX of every J-plane ([X, JX]_m = 0), so it
    cannot tell J-planes apart, and `certify` does not use it."""
    vectors = [list(k.coeffs) for k in kbasis]
    for w in (x, y):
        coeffs, _ = linalg.solve_in_span(vectors, list(w.coeffs))
        if coeffs is None:
            raise ValueError("sff arguments must lie in span(kbasis)")
    gram = [[metric(ki, kj) for kj in kbasis] for ki in kbasis]
    try:
        inverse = linalg.invert(gram)
    except ValueError:
        raise DegenerateSpanError(
            "span has degenerate induced metric; sff needs a nondegenerate "
            "span, and certify decides geodesy by the orbit closure") from None
    w = coeff_bracket(x, y).m_part()
    pairings = [metric(w, ki) for ki in kbasis]
    tangent = MVec.zero()
    for i, ki in enumerate(kbasis):
        coeff = sum((inverse[i][j] * pairings[j] for j in range(len(kbasis))),
                    start=FieldElem(0))
        if coeff:
            tangent = tangent + ki * coeff
    return (w - tangent) * _HALF


def _generated_basis(seeds: Sequence[MVec]) -> list[FullVec]:
    """A basis of the Lie algebra generated by the seeds: a vector is kept
    when it raises the rank, and each kept vector is bracketed once with
    every earlier one, until no bracket is kept."""
    basis: list[FullVec] = []

    def insert(w: FullVec) -> None:
        if linalg.rank([list(v) for v in basis] + [list(w)]) > len(basis):
            basis.append(w)

    for seed in seeds:
        insert(seed.to_full())
    for j, new in enumerate(basis):  # insert() extends the walked list
        for earlier in basis[:j]:
            insert(coeff_bracket(earlier, new))
    return basis


def generated_algebra_dimension(seeds: Sequence[MVec]) -> int:
    """Dimension of the Lie algebra generated by the seed tangent vectors.
    No program path calls it; it stays, as `sff` does, for the benchmark's
    trace."""
    return len(_generated_basis(seeds))


@dataclass(frozen=True)
class Certificate:
    id: str
    totally_geodesic: bool
    induced_signature: tuple[int, int, int]
    curvature: str
    orbit_algebra_dim: int
    exp_check: ExpCheckResult

    @property
    def ok(self) -> bool:
        fam = family(self.id)
        expected = "degenerate" if fam.expected_curvature is None \
            else str(fam.expected_curvature)
        return (self.totally_geodesic
                and self.induced_signature == fam.expected_signature
                and self.curvature == expected
                and self.orbit_algebra_dim == fam.orbit_dim
                and self.exp_check.passed)


def certify(fid: str, samples: int = 100, tol: float = 1e-8,
            seed: int = 0) -> Certificate:
    """Exact certification of the family: totally geodesic, induced
    signature and curvature constant, orbit algebra dimension; plus the
    numeric exponential cross-check.

    The plane span{X, JX} is J-stable with no check: J(JX) = −X, since
    J² = −Id on the basis (the CLI check `tensors.squares`) and so, by
    linearity, everywhere.

    Totally geodesic (by orbit closure): the algebra k generated by span{X,
    JX} has m-parts of rank 2, so k ⊂ span{X, JX} ⊕ h and the orbit K·o is
    a surface tangent to the plane.  In a naturally reductive space each
    geodesic exp(tY)·o, Y ∈ span{X, JX} ⊂ k, lies in K·o; K acts on K·o
    transitively by isometries, so its second fundamental form vanishes
    everywhere.  The test is sufficient: a larger rank certifies nothing.
    """
    x, jx = generator(fid)
    span = [x, jx]
    signature = linalg.signature([[metric(u, v) for v in span] for u in span])
    k = _generated_basis(span)

    return Certificate(
        id=fid,
        totally_geodesic=linalg.rank([list(v.m_part()) for v in k]) == 2,
        induced_signature=signature,
        curvature=str(sectional(x, jx)) if not signature[2] else "degenerate",
        orbit_algebra_dim=len(k),
        exp_check=exp_check(fid, samples=samples, tol=tol, seed=seed),
    )
