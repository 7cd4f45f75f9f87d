"""The invariant almost complex structures, the canonical connection data
and the curvature tensor of the naturally reductive metric.

R(X, Y)Z is contracted from the basis components R(eᵢ, eⱼ)eₖ.  Each basis
triple is computed once, on first use, by the five-term invariant formula;
the bracket-only oracle computes its values without them.  The Ricci
tensor is the trace of those components over the first slot, read off
without the metric.

J is the nearly Kähler almost complex structure, J₁ an auxiliary invariant
complex structure on the same tangent space, and F the skew rotation that
kills m₁ and rotates m₂ against m₃; the product J₁J is the involution that
separates m₁ from m₂ ⊕ m₃.  Each sends every basis vector to ± a basis
vector or to 0, so each is stored as a signed permutation of the
coordinates, built once from its defining images; P = J₁J is composed from
J₁ and J, not written out.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .exactfield import ZERO, FieldElem
from .liealg import FullVec, MVec, coeff_bracket, metric


class DegeneratePlaneError(ValueError):
    """Sectional curvature was requested on a plane with zero discriminant."""


class InvariantTensor:
    """A linear operator on the tangent space that sends each basis vector
    to ± a basis vector or to 0, stored as a signed permutation: row i is
    the pair (source, sign) with (TX)ᵢ = sign·X_source, sign 0 on a row the
    operator kills."""

    __slots__ = ("name", "rows")

    def __init__(self, name: str, rows: tuple[tuple[int, int], ...]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("InvariantTensor is immutable")

    def apply(self, x: MVec) -> MVec:
        c = x.coeffs
        return MVec._raw(tuple(c[source] if sign > 0 else -c[source] if sign else ZERO
                               for source, sign in self.rows))

    def compose(self, other: "InvariantTensor", name: str | None = None) -> "InvariantTensor":
        # Row i of T∘S is the row of S that T's row i reads, signs multiplied.
        rows = tuple((other.rows[source][0], sign * other.rows[source][1])
                     for source, sign in self.rows)
        return InvariantTensor(name or f"{self.name}{other.name}", rows)

    def __repr__(self) -> str:
        return f"InvariantTensor({self.name})"


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
P = J1.compose(J, name="J1J")


_HALF = Fraction(1, 2)


def nabla(x: MVec, y: MVec) -> MVec:
    """Levi-Civita covariant derivative at the base point of the naturally
    reductive metric: ∇_X Y = ½·[X, Y]_m."""
    return coeff_bracket(x, y).m_part() * _HALF


def nabla_tensor(tensor: InvariantTensor, x: MVec, y: MVec) -> MVec:
    """(∇_X T)(Y) = ∇_X (TY) − T(∇_X Y)."""
    return nabla(x, tensor.apply(y)) - tensor.apply(nabla(x, y))


_C52 = Fraction(5, 2)
_C34 = Fraction(3, 4)
_C94 = Fraction(9, 4)


def _five_term(x: MVec, y: MVec, z: MVec) -> MVec:
    """R(X, Y)Z from the five-term invariant expression built out of the
    metric, J, the product involution J₁J and F."""
    g = metric
    jx, jy, jz = J.apply(x), J.apply(y), J.apply(z)
    px, py, pz = P.apply(x), P.apply(y), P.apply(z)
    fx, fy, fz = F.apply(x), F.apply(y), F.apply(z)
    t1 = (x * g(y, z) - y * g(x, z)) * _C52
    t2 = (jx * g(jy, z) - jy * g(jx, z) + jz * (g(x, jy) * 2)) * _C34
    t3 = (px * g(y, pz) - py * g(x, pz)) * _C94
    t4 = (x * g(py, z) - y * g(px, z) + px * g(y, z) - py * g(x, z)) * _C34
    t5 = (fx * g(y, fz) - fy * g(x, fz)) * 3
    return t1 - t2 + t3 + t4 - t5


@cache
def curvature_components(i: int, j: int, k: int) -> tuple[tuple[int, FieldElem], ...]:
    """The nonzero coefficients ((l, c), ...) of R(eᵢ₊₁, eⱼ₊₁)eₖ₊₁ = Σ c·eₗ₊₁,
    each basis triple evaluated once by the five-term formula, on first use."""
    value = _five_term(MVec.basis(i + 1), MVec.basis(j + 1), MVec.basis(k + 1))
    return tuple((l, c) for l, c in enumerate(value.coeffs) if c)


def curvature(x: MVec, y: MVec, z: MVec) -> MVec:
    """R(X, Y)Z, contracted from the basis components of the tensor over
    the supports of X, Y and Z."""
    xs = [(i, c) for i, c in enumerate(x.coeffs) if c]
    ys = [(j, c) for j, c in enumerate(y.coeffs) if c]
    zs = [(k, c) for k, c in enumerate(z.coeffs) if c]
    acc = [ZERO] * 6
    for i, xi in xs:
        for j, yj in ys:
            xy = xi * yj
            for k, zk in zs:
                terms = curvature_components(i, j, k)
                if terms:
                    product = xy * zk
                    for l, c in terms:
                        acc[l] = acc[l] + c * product
    return MVec._raw(tuple(acc))


def _oracle_raw(x: MVec, y: MVec, z: MVec) -> MVec:
    bxy = coeff_bracket(x, y)
    first = nabla(x, nabla(y, z)) - nabla(y, nabla(x, z))
    horizontal = nabla(bxy.m_part(), z)
    isotropy = coeff_bracket(FullVec((ZERO,) * 6 + bxy.h_coeffs()), z).m_part()
    return first - horizontal - isotropy


@cache
def oracle_sign() -> int:
    """Resolve the curvature sign convention against the bracket-only route.

    Exactly one global sign must reconcile the invariant expression with
    the naturally reductive curvature on every basis triple; anything else
    is a hard failure.  Both signs fit only when every value is zero, so a
    nonzero oracle value is required.
    """
    basis = [MVec.basis(i) for i in range(1, 7)]
    pairs = [(curvature(x, y, z), _oracle_raw(x, y, z))
             for x in basis for y in basis for z in basis]
    if any(raw for _, raw in pairs):
        for sign in (1, -1):
            if all(raw * sign == expected for expected, raw in pairs):
                return sign
    raise RuntimeError("no single sign convention reconciles the curvature routes")


def curvature_oracle(x: MVec, y: MVec, z: MVec) -> MVec:
    """R(X, Y)Z computed from brackets alone:
    ∇_X∇_Y Z − ∇_Y∇_X Z − ∇_{[X,Y]_m} Z − [[X, Y]_h, Z], up to the one
    resolved sign."""
    return _oracle_raw(x, y, z) * oracle_sign()


def sectional(x: MVec, y: MVec) -> FieldElem:
    """Sectional curvature of the plane spanned by X, Y (exact)."""
    discriminant = metric(x, x) * metric(y, y) - metric(x, y) ** 2
    if not discriminant:
        raise DegeneratePlaneError("plane has degenerate induced metric")
    return metric(curvature(x, y, y), x) / discriminant


@cache
def ricci() -> tuple[tuple[FieldElem, ...], ...]:
    """Ric(Y, Z) as the trace of X ↦ R(X, Y)Z: entry (y, z) sums the eᵢ
    coefficient of R(eᵢ, e_y)e_z over the tangent basis."""
    return tuple(tuple(sum((c for i in range(6)
                            for l, c in curvature_components(i, y, z) if l == i), ZERO)
                       for z in range(6))
                 for y in range(6))


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
