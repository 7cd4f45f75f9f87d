"""The invariant almost complex structures, the canonical connection data
and the curvature tensor of the naturally reductive metric.

R(X, Y)Z is contracted from one integer table of the basis components
D·R(eᵢ, eⱼ)eₖ, built once, on first use, by the five-term invariant formula
in plain ints; the bracket-only oracle computes its values without it.  The
Ricci tensor is the trace of the table over the first slot, read off without
the metric.

J is the nearly Kähler almost complex structure, J₁ an auxiliary invariant
complex structure on the same tangent space, and F the skew rotation that
kills m₁ and rotates m₂ against m₃; the product J₁J is the involution that
separates m₁ from m₂ ⊕ m₃.  Each sends every basis vector to ± a basis
vector or to 0, so each is stored as a signed permutation of the
coordinates, built once from its defining images; P = J₁J is composed from
J₁ and J, not written out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .exactfield import ZERO, FieldElem
from .liealg import FullVec, MVec, _metric_rows, coeff_bracket, metric


class DegeneratePlaneError(ValueError):
    """Sectional curvature was requested on a plane with zero discriminant."""


@dataclass(frozen=True, slots=True)
class InvariantTensor:
    """A linear operator on the tangent space that sends each basis vector
    to ± a basis vector or to 0, stored as a signed permutation: row i is
    the pair (source, sign) with (TX)ᵢ = sign·X_source, sign 0 on a row the
    operator kills."""

    name: str
    rows: tuple[tuple[int, int], ...]

    def act(self, v) -> list:
        """TX for a 6-sequence X over any commutative ring (int, FieldElem)."""
        return [sign * v[source] for source, sign in self.rows]

    def apply(self, x: MVec) -> MVec:
        return MVec._raw(tuple(self.act(x.coeffs)))

    def compose(self, other: "InvariantTensor", name: str) -> "InvariantTensor":
        # Row i of T∘S is the row of S that T's row i reads, signs multiplied.
        rows = tuple((other.rows[source][0], sign * other.rows[source][1])
                     for source, sign in self.rows)
        return InvariantTensor(name, rows)


def _from_images(name: str, images: dict[int, tuple[int, int]]) -> InvariantTensor:
    # images[src] = (dst, sign) means T e_src = sign·e_dst; a basis vector
    # with no image is killed.
    rows = [(i, 0) for i in range(6)]
    for src, (dst, sign) in images.items():
        rows[dst - 1] = (src - 1, sign)
    return InvariantTensor(name, tuple(rows))


def _complex_structure(name: str, images: dict[int, tuple[int, int]]) -> InvariantTensor:
    # The defining images cover one vector of each invariant plane; the
    # square condition T² = −Id forces the partner images.
    full = dict(images)
    for src, (dst, sign) in images.items():
        full[dst] = (src, -sign)
    return _from_images(name, full)


J = _complex_structure("J", {1: (2, -1), 3: (4, 1), 5: (6, 1)})
J1 = _complex_structure("J1", {1: (2, 1), 3: (4, 1), 5: (6, 1)})
F = _from_images("F", {3: (4, 1), 4: (3, -1), 5: (6, -1), 6: (5, 1)})
P = J1.compose(J, "J1J")


_HALF = FieldElem(Fraction(1, 2))


def nabla(x: MVec, y: MVec) -> MVec:
    """Levi-Civita covariant derivative at the base point of the naturally
    reductive metric: ∇_X Y = ½·[X, Y]_m."""
    return coeff_bracket(x, y).m_part() * _HALF


def nabla_tensor(tensor: InvariantTensor, x: MVec, y: MVec) -> MVec:
    """(∇_X T)(Y) = ∇_X (TY) − T(∇_X Y)."""
    return nabla(x, tensor.apply(y)) - tensor.apply(nabla(x, y))


# The five coefficients of `_five_term` over D = 4: 5/2, 3/4, 9/4, 3/4 and 3.
_D, _COEFFICIENTS = 4, (10, 3, 9, 3, 12)


def _five_term(x, y, z) -> tuple:
    """D·R(X, Y)Z by the five-term invariant formula in the metric, J, the
    product involution J₁J and F, all acting as signed permutations, for
    6-sequences over any commutative ring (int, FieldElem): only +, − and ×."""
    rows = _metric_rows()

    def g(u, v):
        return sum([sign * a * v[j] for a, (j, sign) in zip(u, rows)])

    jx, jy, jz = J.act(x), J.act(y), J.act(z)
    px, py, pz = P.act(x), P.act(y), P.act(z)
    fx, fy, fz = F.act(x), F.act(y), F.act(z)
    c1, c2, c3, c4, c5 = _COEFFICIENTS
    terms = (
        (c1, ((g(y, z), x), (-g(x, z), y))),
        (-c2, ((g(jy, z), jx), (-g(jx, z), jy), (2 * g(x, jy), jz))),
        (c3, ((g(y, pz), px), (-g(x, pz), py))),
        (c4, ((g(py, z), x), (-g(px, z), y), (g(y, z), px), (-g(x, z), py))),
        (-c5, ((g(y, fz), fx), (-g(x, fz), fy))),
    )
    scaled = [(c * s, v) for c, term in terms for s, v in term if s]
    return tuple(sum([s * v[l] for s, v in scaled]) for l in range(6))


_BASE = 1 << 8
_PACKED = tuple(_BASE ** k for k in range(6))
_LIFT = sum(_PACKED) * (_BASE // 4)


@cache
def curvature_table() -> tuple[int, tuple[tuple[int, int, int, int, int], ...]]:
    """The curvature tensor in integers, built once, on first use: (D, entries),
    each entry (i, j, k, l, t) saying R(eᵢ₊₁, eⱼ₊₁)eₖ₊₁ has eₗ₊₁ coefficient
    t/D.  `_five_term` is linear in Z, so at Z = (1, B, …, B⁵), B = 256, each
    of the 36 basis pairs (i, j) packs t over k into the six bytes of
    coordinate l, each lifted by B/4: exact for every t in [−B/4, B/4).  A
    byte ≥ B/2, or a carry past the sixth (`to_bytes` refuses it), raises
    OverflowError, catching every other |t| < 3B/4 (|t| ≤ 16 here)."""
    units = [tuple(int(m == n) for m in range(6)) for n in range(6)]
    zero, entries = _BASE // 4, []
    for i, j in itertools.product(range(6), repeat=2):
        columns = [(n + _LIFT).to_bytes(6, "little")
                   for n in _five_term(units[i], units[j], _PACKED)]
        if max(map(max, columns)) >= _BASE // 2:
            raise OverflowError("a curvature value overflows its packed digit")
        entries += [(i, j, k, l, column[k] - zero) for k in range(6)
                    for l, column in enumerate(columns) if column[k] != zero]
    return _D, tuple(entries)


def curvature(x: MVec, y: MVec, z: MVec) -> MVec:
    """R(X, Y)Z, contracted from `curvature_table` over the supports of X, Y, Z."""
    denominator, entries = curvature_table()
    xc, yc, zc = x.coeffs, y.coeffs, z.coeffs
    xs, ys, zs = [bool(c) for c in xc], [bool(c) for c in yc], [bool(c) for c in zc]
    acc = [ZERO] * 6
    for i, j, k, l, t in entries:
        if xs[i] and ys[j] and zs[k]:
            acc[l] = acc[l] + xc[i] * yc[j] * zc[k] * t
    return MVec._raw(tuple(acc)) * FieldElem(Fraction(1, denominator))


def curvature_oracle(x: MVec, y: MVec, z: MVec) -> MVec:
    """R(X, Y)Z computed from brackets alone:
    ∇_X∇_Y Z − ∇_Y∇_X Z − ∇_{[X,Y]_m} Z − [[X, Y]_h, Z]."""
    bxy = coeff_bracket(x, y)
    first = nabla(x, nabla(y, z)) - nabla(y, nabla(x, z))
    horizontal = nabla(bxy.m_part(), z)
    isotropy = coeff_bracket(FullVec._raw((ZERO,) * 6 + bxy.h_coeffs()), z).m_part()
    return first - horizontal - isotropy


def oracle_sign() -> int:
    """Check the convention R(X, Y) = ∇_X∇_Y − ∇_Y∇_X − ∇_{[X,Y]}: `curvature`
    equals `curvature_oracle` on every basis triple, some value nonzero (zero
    fits either sign).  The sign is +1; else a hard failure."""
    basis = [MVec.basis(i) for i in range(1, 7)]
    pairs = [(curvature(x, y, z), curvature_oracle(x, y, z))
             for x in basis for y in basis for z in basis]
    if not any(oracle for _, oracle in pairs) or any(oracle != value for value, oracle in pairs):
        raise RuntimeError("no single sign convention reconciles the curvature routes")
    return 1


def sectional(x: MVec, y: MVec) -> FieldElem:
    """Sectional curvature of the plane spanned by X, Y (exact)."""
    discriminant = metric(x, x) * metric(y, y) - metric(x, y) ** 2
    if not discriminant:
        raise DegeneratePlaneError("plane has degenerate induced metric")
    return metric(curvature(x, y, y), x) / discriminant


def ricci() -> tuple[tuple[FieldElem, ...], ...]:
    """Ric(Y, Z) as the trace of X ↦ R(X, Y)Z: entry (y, z) sums the
    `curvature_table` entries (i, y, z, i, t), the eᵢ coefficients of R(eᵢ, e_y)e_z."""
    denominator, entries = curvature_table()
    traces = [[0] * 6 for _ in range(6)]
    for i, j, k, l, t in entries:
        traces[j][k] += t if l == i else 0
    return tuple(tuple(FieldElem(Fraction(t, denominator)) for t in row) for row in traces)


def einstein_constant() -> FieldElem:
    """The factor c with Ric = c·⟨ , ⟩, verified entrywise while computed."""
    ric = ricci()
    basis = [MVec.basis(i) for i in range(1, 7)]
    constant = ric[0][0] / metric(basis[0], basis[0])
    for i in range(6):
        for j in range(6):
            if ric[i][j] != constant * metric(basis[i], basis[j]):
                raise RuntimeError("Ricci tensor is not proportional to the metric")
    return constant
