"""The five totally geodesic almost complex surfaces through the base coset.

Each family carries an exact tangent generator X, the orbit subgroup it
sweeps out, and the closed form of exp(·) in the parameters (u, v); its
plane is span{X, JX}, with JX derived from X.  `FAMILIES` is the one table
of these surfaces: the classification and the CLI read their planes from
it.  Certification is exact tangent algebra (induced signature, sectional
constant, and geodesy from one Lie closure of span{X, JX}) plus a numeric
cross-check that compares each closed form with the matrix exponential as
a matrix.  Brackets come from `liealg.coeff_bracket`; matrices appear only
as float exponential arguments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .exactfield import SQRT2, SQRT3, FieldElem
from .liealg import FullVec, MVec, basis_float, coeff_bracket, metric
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
    closed_form: Callable[[float, float], np.ndarray]
    exp_argument: Callable[[float, float], np.ndarray]
    u_range: tuple[float, float]
    v_range: tuple[float, float]


def _mvec(*pairs: tuple[int, FieldElem | int | Fraction]) -> MVec:
    coeffs: list[FieldElem | int | Fraction] = [0] * 6
    for index, value in pairs:
        coeffs[index - 1] = value
    return MVec(coeffs)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _closed_f1(u: float, v: float) -> np.ndarray:
    ch, sh = math.cosh(u), math.sinh(u)
    return np.array([
        [ch + math.cos(v) * sh, math.sin(v) * sh, 0.0],
        [math.sin(v) * sh, ch - math.cos(v) * sh, 0.0],
        [0.0, 0.0, 1.0],
    ])


def _closed_f2(u: float, v: float) -> np.ndarray:
    cu, su = math.cos(u), math.sin(u)
    return np.array([
        [cu * cu - math.cos(2 * v) * su * su, -su * su * math.sin(2 * v),
         math.cos(v) * math.sin(2 * u)],
        [-su * su * math.sin(2 * v), cu * cu + math.cos(2 * v) * su * su,
         math.sin(2 * u) * math.sin(v)],
        [-math.cos(v) * math.sin(2 * u), -math.sin(2 * u) * math.sin(v),
         math.cos(2 * u)],
    ])


def _closed_f3(u: float, v: float) -> np.ndarray:
    ch, sh = math.cosh(u), math.sinh(u)
    return np.array([
        [ch * ch + math.cos(2 * v) * sh * sh, math.sin(2 * v) * sh * sh,
         math.cos(v) * math.sinh(2 * u)],
        [math.sin(2 * v) * sh * sh, ch * ch - math.cos(2 * v) * sh * sh,
         math.sin(v) * math.sinh(2 * u)],
        [math.cos(v) * math.sinh(2 * u), math.sin(v) * math.sinh(2 * u),
         math.cosh(2 * u)],
    ])


def _closed_f4(u: float, v: float) -> np.ndarray:
    ev, emv = math.exp(v), math.exp(-v)
    euv = math.exp(u + v)
    sh, ch = math.sinh(v), math.cosh(v)
    s3, s6 = math.sqrt(3.0), math.sqrt(6.0)
    core = np.array([
        [emv * (1 + ev * ev + 4 * euv) / 6.0, -sh / s3,
         -emv * (1 + ev * ev - 2 * euv) / s6],
        [-sh / s3, ch, math.sqrt(2.0) * sh],
        [-emv * (1 + ev * ev - 2 * euv) / (3.0 * s6), math.sqrt(2.0) * sh / 3.0,
         emv * (1 + ev * ev + euv) / 3.0],
    ])
    return math.exp(-u / 3.0) * core


def _closed_f5(u: float, v: float) -> np.ndarray:
    return np.array([[1.0, 0.0, u], [0.0, 1.0, v], [0.0, 0.0, 1.0]])


def _polar_argument(x: np.ndarray, y: np.ndarray, factor: float
                    ) -> Callable[[float, float], np.ndarray]:
    def argument(u: float, v: float) -> np.ndarray:
        return factor * u * (math.cos(v) * x + math.sin(v) * y)
    return argument


def _linear_argument(x: np.ndarray, y: np.ndarray
                     ) -> Callable[[float, float], np.ndarray]:
    def argument(u: float, v: float) -> np.ndarray:
        return u * x + v * y
    return argument


def _build_families() -> dict[str, SurfaceFamily]:
    inv_sqrt2 = SQRT2 * _HALF
    inv_sqrt3 = SQRT3 * Fraction(1, 3)
    third = Fraction(1, 3)

    x1 = _mvec((1, 1))
    x2 = _mvec((3, inv_sqrt2), (5, inv_sqrt2))
    x3 = _mvec((3, inv_sqrt2), (5, -inv_sqrt2))
    x4 = _mvec((1, inv_sqrt3), (3, 1), (5, -third))
    x5 = _mvec((3, 1))

    two_pi = 2.0 * math.pi
    e = basis_float()
    families = [
        SurfaceFamily(
            "f1", "SL(2,R)", 3, x1, (0, 2, 0), FieldElem(4), _closed_f1,
            _polar_argument(e[0], e[1], 1.0), (-2.0, 2.0), (0.0, two_pi)),
        SurfaceFamily(
            "f2", "SO(3)", 3, x2, (2, 0, 0), FieldElem(1), _closed_f2,
            _polar_argument(x2.to_matrix().to_float(),
                            J.apply(x2).to_matrix().to_float(), 2.0),
            (-2.0, 2.0), (0.0, two_pi)),
        SurfaceFamily(
            "f3", "SO+(2,1)", 3, x3, (0, 2, 0), FieldElem(1), _closed_f3,
            _polar_argument(x3.to_matrix().to_float(),
                            J.apply(x3).to_matrix().to_float(), 2.0),
            (-2.0, 2.0), (0.0, two_pi)),
        # The f4 closed form's u-derivative at the origin is X/√3, not X:
        # its u coordinate runs along X/√3 (same span, same surface), so the
        # exponential argument must carry that scaling to match it pointwise.
        SurfaceFamily(
            "f4", "R2", 2, x4, (0, 2, 0), FieldElem(0), _closed_f4,
            _linear_argument(x4.to_matrix().to_float() / math.sqrt(3.0),
                             J.apply(x4).to_matrix().to_float()),
            (-2.0, 2.0), (-2.0, 2.0)),
        SurfaceFamily(
            "f5", "R2-degenerate", 2, x5, (0, 0, 2), None, _closed_f5,
            _linear_argument(_INV_SQRT2 * e[2], _INV_SQRT2 * e[3]),
            (-3.0, 3.0), (-3.0, 3.0)),
    ]
    return {family.id: family for family in families}


FAMILIES: dict[str, SurfaceFamily] = _build_families()


def family(fid: str) -> SurfaceFamily:
    try:
        return FAMILIES[fid]
    except KeyError:
        raise ValueError(f"unknown surface family: {fid!r}") from None


def generator(fid: str) -> tuple[MVec, MVec]:
    x = family(fid).x
    return x, J.apply(x)


def closed_form(fid: str, u: float, v: float) -> np.ndarray:
    return family(fid).closed_form(u, v)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the power series."""
    a = np.asarray(a, dtype=float)
    norm = float(np.linalg.norm(a, ord=np.inf))
    squarings = max(0, int(math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0)
    scaled = a / (2.0 ** squarings)
    result = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 30):
        term = term @ scaled / k
        result = result + term
        if float(np.linalg.norm(term, ord=np.inf)) < 1e-18:
            break
    for _ in range(squarings):
        result = result @ result
    return result


def coset_deviation(achieved: np.ndarray, target: np.ndarray) -> float:
    """Frobenius distance between the two matrices.

    Each closed form equals its exponential as a matrix, not only as a
    coset, so no stabilizer alignment is needed, and matrix equality is the
    stricter test.  The name is kept for the benchmark's traced spans.
    """
    return float(np.linalg.norm(achieved - target))


@dataclass(frozen=True)
class ExpCheckResult:
    samples: int
    tol: float
    max_dev: float

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tol

    def to_dict(self) -> dict:
        return {"samples": self.samples, "tol": self.tol, "max_dev": self.max_dev}


def exp_check(fid: str, samples: int = 100, tol: float = 1e-8,
              seed: int = 0) -> ExpCheckResult:
    """Compare expm of the family's Lie-algebra argument against the closed
    form on seeded random (u, v), as matrices."""
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    fam = family(fid)
    rng = random.Random(seed)
    max_dev = 0.0
    for _ in range(samples):
        u = rng.uniform(*fam.u_range)
        v = rng.uniform(*fam.v_range)
        achieved = expm(fam.exp_argument(u, v))
        target = fam.closed_form(u, v)
        # np.maximum keeps a NaN, which fails `passed`; max() would drop it
        max_dev = float(np.maximum(max_dev, coset_deviation(achieved, target)))
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

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "totally_geodesic": self.totally_geodesic,
            "induced_signature": list(self.induced_signature),
            "curvature": self.curvature,
            "orbit_algebra_dim": self.orbit_algebra_dim,
            "exp_check": self.exp_check.to_dict(),
        }


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
