"""The traceless 3x3 matrices: basis, bracket, invariant metric, splitting,
stabilizer action, and the transpose-inverse symmetry."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from nksl3.exactfield import (ONE, SQRT2, SQRT3, ZERO, FieldElem,
                              random_element)
from nksl3.liealg import (SUBSPACES, AlgMat, FullVec, MVec, _dual,
                          _metric_rows, ad_numeric,
                          basis_matrix, bracket, coeff_bracket, decompose,
                          dphi, metric, rotation_action_matrix,
                          stabilizer_element, structure_constants)
from nksl3 import liealg, linalg

RNG_SEED = 40

M_INDICES = range(1, 7)
ALL_INDICES = range(1, 9)


def test_basis_matrices_literal():
    half = Fraction(1, 2)
    e1 = basis_matrix(1)
    assert e1[0, 0] == ONE and e1[1, 1] == -ONE and e1[2, 2] == ZERO
    e2 = basis_matrix(2)
    assert e2[0, 1] == ONE and e2[1, 0] == ONE
    assert basis_matrix(3)[0, 2] == SQRT2
    assert basis_matrix(4)[1, 2] == SQRT2
    assert basis_matrix(5)[2, 0] == -SQRT2
    assert basis_matrix(6)[2, 1] == -SQRT2
    e7 = basis_matrix(7)
    third = SQRT3 * Fraction(1, 3)
    assert e7[0, 0] == third and e7[1, 1] == third and e7[2, 2] == third * (-2)
    e8 = basis_matrix(8)
    assert e8[0, 1] == ONE and e8[1, 0] == -ONE


def test_basis_traceless():
    for i in ALL_INDICES:
        assert basis_matrix(i).trace() == ZERO


def test_basis_index_range():
    with pytest.raises(ValueError):
        basis_matrix(0)
    with pytest.raises(ValueError):
        basis_matrix(9)


def test_basis_is_linearly_independent():
    rows = [[basis_matrix(i)[r, c] for r in range(3) for c in range(3)]
            for i in ALL_INDICES]
    assert linalg.rank(rows) == 8


def test_bracket_table_spot_values():
    e = basis_matrix
    assert decompose(bracket(e(1), e(2))) == FullVec.basis(8) * 2
    assert not bracket(e(3), e(4))
    assert decompose(bracket(e(1), e(3))) == FullVec.basis(3)
    assert decompose(bracket(e(7), e(3))) == FullVec.basis(3) * SQRT3
    assert decompose(bracket(e(8), e(1))) == FullVec.basis(2) * (-2)
    assert decompose(bracket(e(3), e(5))) == (-FullVec.basis(1)
                                              - FullVec.basis(7) * SQRT3)


def test_jacobi_identity_exhaustive():
    mats = [basis_matrix(i) for i in ALL_INDICES]
    for x, y, z in itertools.product(mats, repeat=3):
        total = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
                 + bracket(z, bracket(x, y)))
        assert not total


def test_bracket_antisymmetric_random():
    rng = random.Random(RNG_SEED)
    for _ in range(50):
        x = FullVec(random_element(rng) for _ in range(8)).to_matrix()
        y = FullVec(random_element(rng) for _ in range(8)).to_matrix()
        assert bracket(x, y) == -bracket(y, x)


def test_metric_table():
    # -1 on the split directions e1, e2 and the diagonal isotropy e7;
    # +1 on the cross pairings e3-e5, e4-e6 and on e8; zero elsewhere.
    expected = {(1, 1): -1, (2, 2): -1, (7, 7): -1,
                (3, 5): 1, (5, 3): 1, (4, 6): 1, (6, 4): 1, (8, 8): 1}
    for i, j in itertools.product(ALL_INDICES, repeat=2):
        value = metric(basis_matrix(i), basis_matrix(j))
        assert value == FieldElem(expected.get((i, j), 0)), (i, j)


def test_metric_on_vectors_matches_matrices():
    # full vectors reach the e₇, e₈ rows of the Gram; a mixed pair is widened
    rng = random.Random(RNG_SEED + 1)
    for _ in range(40):
        x = MVec(random_element(rng) for _ in range(6))
        y = MVec(random_element(rng) for _ in range(6))
        u = FullVec(random_element(rng) for _ in range(8))
        v = FullVec(random_element(rng) for _ in range(8))
        assert metric(x, y) == metric(x.to_matrix(), y.to_matrix())
        assert metric(u, v) == metric(u.to_matrix(), v.to_matrix())
        assert metric(x, v) == metric(v, x) == metric(x.to_matrix(), v.to_matrix())
    zero = metric(MVec.zero(), MVec.basis(1))
    assert type(zero) is FieldElem and zero == ZERO


def test_tangent_signature():
    gram = [[metric(MVec.basis(i), MVec.basis(j)) for j in M_INDICES]
            for i in M_INDICES]
    assert linalg.signature(gram) == (2, 4, 0)


def test_subspace_tags():
    assert SUBSPACES["h"] == (7, 8)
    assert SUBSPACES["m1"] == (1, 2)
    assert SUBSPACES["m2"] == (3, 4)
    assert SUBSPACES["m3"] == (5, 6)
    assert SUBSPACES["m"] == (1, 2, 3, 4, 5, 6)


def test_splitting_brackets_land_where_expected():
    # [h, m_i] stays in m_i; [m_1, m_1] lies in h,
    # [m_1, m_2] in m_2, [m_2, m_3] in m_1 + h
    def span_indices(x):
        coeffs = decompose(x).coeffs
        return {i + 1 for i, c in enumerate(coeffs) if c}

    for hi in SUBSPACES["h"]:
        for tag in ("m1", "m2", "m3"):
            for mi in SUBSPACES[tag]:
                image = bracket(basis_matrix(hi), basis_matrix(mi))
                assert span_indices(image) <= set(SUBSPACES[tag])
    for i, j in itertools.product(SUBSPACES["m1"], repeat=2):
        image = bracket(basis_matrix(i), basis_matrix(j))
        assert span_indices(image) <= set(SUBSPACES["h"])
    for i in SUBSPACES["m1"]:
        for j in SUBSPACES["m2"]:
            image = bracket(basis_matrix(i), basis_matrix(j))
            assert span_indices(image) <= set(SUBSPACES["m2"])
    for i in SUBSPACES["m2"]:
        for j in SUBSPACES["m3"]:
            image = bracket(basis_matrix(i), basis_matrix(j))
            assert span_indices(image) <= set(SUBSPACES["m1"]) | set(SUBSPACES["h"])


def test_natural_reductivity_exhaustive():
    for i, j, k in itertools.product(M_INDICES, repeat=3):
        x, y, z = (basis_matrix(n) for n in (i, j, k))
        assert metric(bracket(x, y), z) == metric(x, bracket(y, z))


def test_decompose_roundtrip_random():
    rng = random.Random(RNG_SEED + 2)
    for _ in range(100):
        coeffs = FullVec(random_element(rng) for _ in range(8))
        assert decompose(coeffs.to_matrix()) == coeffs


def _reference_gram_inverse():
    return linalg.invert([[metric(basis_matrix(i), basis_matrix(j))
                           for j in ALL_INDICES] for i in ALL_INDICES])


def test_decompose_matches_gram_inverse_route():
    # the dense route: coeffs = G⁻¹ · (⟨eⱼ, X⟩)ⱼ with trace-form pairings
    inverse = _reference_gram_inverse()

    def reference(x):
        pairings = [metric(basis_matrix(j), x) for j in ALL_INDICES]
        return FullVec(sum((g * p for g, p in zip(row, pairings)), ZERO)
                       for row in inverse)

    for i in ALL_INDICES:
        x = basis_matrix(i)
        assert decompose(x) == reference(x) == FullVec.basis(i)
    rng = random.Random(RNG_SEED + 10)
    for _ in range(20):
        x = _dense_fullvec(rng).to_matrix()
        assert decompose(x) == reference(x)


def test_dual_has_thirteen_entries():
    assert [len(entries) for entries in _dual()] == [2, 2, 1, 1, 1, 1, 3, 2]


def test_dual_float_is_the_float_gram_inverse_route():
    inverse = np.array([[entry.to_float() for entry in row]
                        for row in _reference_gram_inverse()])
    basis = [basis_matrix(i).to_float() for i in ALL_INDICES]
    pairing = -0.5 * np.array(basis).transpose(0, 2, 1).reshape(8, 9)
    # the float image of rows e₁..e₆ of `_dual`, read against a flattened X
    dual = np.zeros((6, 9))
    for i, entries in enumerate(_dual()[:6]):
        for r, c, w in entries:
            dual[i, 3 * r + c] = w.to_float()
    assert np.array_equal(dual, (inverse @ pairing)[:6])


def test_metric_rows_are_the_gram_and_their_own_inverse():
    rows = _metric_rows()
    dense = [[ZERO] * 8 for _ in range(8)]
    for i, (j, sign) in enumerate(rows):
        dense[i][j] = FieldElem(sign)
    for i, j in itertools.product(ALL_INDICES, repeat=2):
        assert dense[i - 1][j - 1] == metric(basis_matrix(i), basis_matrix(j)), (i, j)
    # symmetric and its own inverse, which the transposed `_dual` rests on
    for i, (j, sign) in enumerate(rows):
        assert rows[j] == (i, sign), i


def test_decompose_needs_no_gram_inverse(monkeypatch):
    pairings = 0
    trace_product = liealg._trace_product

    def counting(x, y):
        nonlocal pairings
        pairings += 1
        return trace_product(x, y)

    def refuse(rows):
        raise AssertionError("decompose inverted a matrix")

    liealg._metric_rows.cache_clear()
    liealg._dual.cache_clear()
    monkeypatch.setattr(liealg, "_trace_product", counting)
    monkeypatch.setattr(linalg, "invert", refuse)
    try:
        for i in ALL_INDICES:
            assert decompose(basis_matrix(i)) == FullVec.basis(i)
    finally:
        monkeypatch.undo()
        liealg._metric_rows.cache_clear()
        liealg._dual.cache_clear()
    assert pairings <= 64, pairings


def test_ad_numeric_matches_dense_float_route_bitwise():
    # the dense route: Σ cᵢ·eᵢ over the float basis matrices, conjugated,
    # then read through the float `_dual`
    basis = [basis_matrix(i).to_float() for i in M_INDICES]
    rng = random.Random(RNG_SEED + 11)
    for _ in range(200):
        t = rng.uniform(-1.0, 1.0)
        s = rng.uniform(-math.pi, math.pi)
        x = MVec(random_element(rng) for _ in range(6))
        coeffs = [c.to_float() for c in x.coeffs]
        matrix = [[sum(c * e[r][col] for c, e in zip(coeffs, basis))
                   for col in range(3)] for r in range(3)]
        conjugated = liealg.matmul(liealg.matmul(stabilizer_element(t, s), matrix),
                                   stabilizer_element(-t, -s))
        dense = [sum(w.to_float() * conjugated[r][col] for r, col, w in entries)
                 for entries in _dual()[:6]]
        assert list(map(float.hex, ad_numeric(t, s, x))) == list(map(float.hex, dense))


def test_vectors_reject_bool_scalars():
    with pytest.raises(TypeError):
        MVec.basis(1) * True
    with pytest.raises(TypeError):
        MVec([True, 0, 0, 0, 0, 0])


def test_decompose_rejects_trace():
    with pytest.raises(ValueError):
        decompose(AlgMat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def _dense_fullvec(rng):
    # every coefficient nonzero, so the h-components take part as well
    return FullVec(random_element(rng, nonzero=True) for _ in range(8))


def _sparse_vec(rng, cls):
    # a random zero pattern: each coefficient is zero with probability ½
    return cls(random_element(rng, nonzero=True) if rng.random() < 0.5 else ZERO
               for _ in range(cls._LENGTH))


def test_coeff_bracket_matches_matrix_route():
    # exhaustive on basis pairs (a proof by bilinearity), on dense pairs,
    # and on sparse pairs of every length, MVec against FullVec both ways
    for i, j in itertools.product(ALL_INDICES, repeat=2):
        x, y = FullVec.basis(i), FullVec.basis(j)
        assert coeff_bracket(x, y) == decompose(
            bracket(x.to_matrix(), y.to_matrix())), (i, j)
    rng = random.Random(RNG_SEED + 3)
    for _ in range(20):
        x, y = _dense_fullvec(rng), _dense_fullvec(rng)
        assert coeff_bracket(x, y) == decompose(
            bracket(x.to_matrix(), y.to_matrix()))
    rng = random.Random(RNG_SEED + 4)
    for types in itertools.product((MVec, FullVec), repeat=2):
        for _ in range(20):
            x, y = (_sparse_vec(rng, cls) for cls in types)
            assert coeff_bracket(x, y) == decompose(
                bracket(x.to_matrix(), y.to_matrix())), (x, y)


def test_coeff_bracket_accepts_tangent_vectors():
    x, y = MVec.basis(3), MVec.basis(5)
    assert coeff_bracket(x, y) == coeff_bracket(x.to_full(), y.to_full())
    assert coeff_bracket(x, y) == -FullVec.basis(1) - FullVec.basis(7) * SQRT3


def test_to_matrix_matches_dense_combination():
    zero = AlgMat([[0, 0, 0], [0, 0, 0], [0, 0, 0]])

    def dense(vec):
        total = zero
        for i, c in enumerate(vec.coeffs, start=1):
            total = total + basis_matrix(i) * c
        return total

    rng = random.Random(RNG_SEED + 7)
    for _ in range(20):
        x = MVec(random_element(rng) for _ in range(6))
        y = FullVec(random_element(rng) for _ in range(8))
        assert x.to_matrix() == dense(x)
        assert y.to_matrix() == dense(y)
    assert MVec.zero().to_matrix() == zero


def _ad(i, x):
    """ad(eᵢ) on the tangent space, for an isotropy index i ∈ {7, 8}."""
    return coeff_bracket(FullVec.basis(i), x).m_part()


def test_ad_action_examples():
    assert _ad(7, MVec.basis(3)) == MVec.basis(3) * SQRT3
    assert _ad(7, MVec.basis(5)) == MVec.basis(5) * (-SQRT3)
    assert _ad(8, MVec.basis(1)) == MVec.basis(2) * (-2)
    assert _ad(8, MVec.basis(2)) == MVec.basis(1) * 2


def test_ad_action_skew_for_metric():
    for i in (7, 8):
        for j, k in itertools.product(M_INDICES, repeat=2):
            x, y = MVec.basis(j), MVec.basis(k)
            lhs = metric(_ad(i, x), y)
            assert lhs == -metric(x, _ad(i, y))


def test_worst_deviation_keeps_a_nan():
    assert liealg.worst_deviation([]) == 0.0
    assert liealg.worst_deviation([1e-12, 3e-9, 2e-10]) == 3e-9
    for deviations in ([math.nan, 5.0], [1.0, math.nan, 5.0], [2.0, math.nan]):
        assert math.isnan(liealg.worst_deviation(deviations))


def test_stabilizer_element_is_group_like():
    h = np.array(stabilizer_element(0.3, 1.1))
    assert abs(np.linalg.det(h) - 1.0) < 1e-12
    hinv = np.array(stabilizer_element(-0.3, -1.1))
    assert np.max(np.abs(h @ hinv - np.eye(3))) < 1e-12


def test_ad_numeric_matches_rotation_matrix():
    rng = random.Random(RNG_SEED + 5)
    worst = 0.0
    for _ in range(100):
        t = rng.uniform(-1.0, 1.0)
        s = rng.uniform(-math.pi, math.pi)
        x = MVec(random_element(rng) for _ in range(6))
        direct = ad_numeric(t, s, x)
        closed = rotation_action_matrix(t, s) @ np.array(
            [c.to_float() for c in x.coeffs])
        worst = max(worst, float(np.max(np.abs(direct - closed))))
    assert worst < 1e-9, worst


def test_rotation_matrix_block_structure():
    mat = np.array(rotation_action_matrix(0.0, math.pi / 2))
    # at t = 0 the first block is rotation by pi, the others by pi/2
    assert np.allclose(mat[0:2, 0:2], [[-1, 0], [0, -1]], atol=1e-12)
    assert np.allclose(mat[2:4, 2:4], [[0, 1], [-1, 0]], atol=1e-12)
    assert np.allclose(mat[4:6, 4:6], [[0, 1], [-1, 0]], atol=1e-12)
    off_blocks = mat.copy()
    off_blocks[0:2, 0:2] = 0
    off_blocks[2:4, 2:4] = 0
    off_blocks[4:6, 4:6] = 0
    assert np.max(np.abs(off_blocks)) == 0.0


def test_dphi_involution_and_swap():
    for i in M_INDICES:
        assert dphi(dphi(MVec.basis(i))) == MVec.basis(i)
    assert dphi(MVec.basis(1)) == -MVec.basis(1)
    assert dphi(MVec.basis(2)) == -MVec.basis(2)
    assert dphi(MVec.basis(3)) == MVec.basis(5)
    assert dphi(MVec.basis(5)) == MVec.basis(3)
    assert dphi(MVec.basis(4)) == MVec.basis(6)
    assert dphi(MVec.basis(6)) == MVec.basis(4)


def test_dphi_isometry_exhaustive():
    for i, j in itertools.product(M_INDICES, repeat=2):
        x, y = MVec.basis(i), MVec.basis(j)
        assert metric(dphi(x), dphi(y)) == metric(x, y)


def test_dphi_is_linear_random():
    rng = random.Random(RNG_SEED + 6)
    for _ in range(30):
        x = MVec(random_element(rng) for _ in range(6))
        y = MVec(random_element(rng) for _ in range(6))
        c = random_element(rng)
        assert dphi(x + y) == dphi(x) + dphi(y)
        assert dphi(x * c) == dphi(x) * c


def test_structure_constants_match_brackets():
    consts = structure_constants()
    for i, j in itertools.product(ALL_INDICES, repeat=2):
        expected = decompose(bracket(basis_matrix(i), basis_matrix(j)))
        assert FullVec(consts[i - 1][j - 1]) == expected




def test_coeffvec_rendering():
    v = MVec.basis(1) - MVec.basis(5) * FieldElem("1/3")
    assert str(v) == "e1 - (1/3)e5"
    assert str(MVec.zero()) == "0"


def _reference_vector_str(v):
    """The vector renderer as written before it shared `signed_sum`."""
    parts = []
    for index, coeff in enumerate(v.coeffs, start=1):
        if not coeff:
            continue
        sign = coeff.sign()
        mag = coeff if sign >= 0 else -coeff
        if mag == ONE:
            body = f"e{index}"
        elif not any(mag.coords[1:]) and mag.a.denominator == 1:
            body = f"{mag}e{index}"
        else:
            body = f"({mag})e{index}"
        if not parts:
            parts.append(body if sign >= 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if sign >= 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def _sparse_entry(rng):
    kind = rng.randrange(6)
    if kind < 2:
        return ZERO
    if kind == 2:
        return FieldElem(rng.choice((-1, 1)))
    if kind == 3:
        return FieldElem(rng.randint(-30, 30))
    if kind == 4:
        return FieldElem(Fraction(rng.randint(-30, 30), rng.randint(2, 9)))
    return random_element(rng, rng.choice((1, 2, 9)), rng.choice((1, 2, 9)))


@pytest.mark.parametrize("cls", [MVec, FullVec])
def test_vector_str_matches_reference_renderer(cls):
    # entries zero, ±1, integer, fractional or irrational: an irrational
    # magnitude is parenthesized before its unit, as a fractional one is
    rng = random.Random(RNG_SEED + cls._LENGTH)
    for _ in range(10_000):
        v = cls([_sparse_entry(rng) for _ in range(cls._LENGTH)])
        assert str(v) == _reference_vector_str(v), v.coeffs
    assert str(MVec.basis(2) * -SQRT2 + MVec.basis(4) * 3) == "-(√2)e2 + 3e4"


def test_vector_length_guard():
    with pytest.raises(ValueError):
        MVec([ONE] * 8)
    with pytest.raises(ValueError):
        FullVec([ONE] * 6)


def test_int_and_fraction_scalars_match_field_scalars():
    rng = random.Random(RNG_SEED + 9)
    x = MVec(random_element(rng) for _ in range(6))
    mat = x.to_matrix()
    for scalar in (3, -1, Fraction(1, 2), Fraction(-7, 3)):
        assert x * scalar == scalar * x == x * FieldElem(scalar)
        assert mat * scalar == mat * FieldElem(scalar)
    assert MVec([1, Fraction(1, 2), 0, 0, 0, 0]) == MVec(
        [ONE, FieldElem(Fraction(1, 2)), ZERO, ZERO, ZERO, ZERO])


def test_vectors_and_matrices_reject_float_scalars():
    with pytest.raises(TypeError):
        MVec.basis(1) * 0.5
    with pytest.raises(TypeError):
        AlgMat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) * 0.5
    with pytest.raises(TypeError):
        MVec([0.5, 0, 0, 0, 0, 0])
    with pytest.raises(TypeError):
        AlgMat([[0.5, 0, 0], [0, 0, 0], [0, 0, 0]])


def _dense_matrix(rng):
    return AlgMat([[random_element(rng) for _ in range(3)] for _ in range(3)])


def test_algmat_shape_type_and_immutability():
    with pytest.raises(ValueError):
        AlgMat([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        AlgMat([[1, 0, 0], [0, 1], [0, 0, 1]])
    with pytest.raises(ValueError):
        AlgMat([[1, 0, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(TypeError):
        AlgMat([[1, 0, 0], [0, 1.0, 0], [0, 0, 1]])
    with pytest.raises(TypeError):
        AlgMat([[1, 0, 0], [0, True, 0], [0, 0, 1]])
    mat = basis_matrix(1)
    with pytest.raises(AttributeError):
        mat.rows = ()
    with pytest.raises(AttributeError):
        mat._coeffs = ()


def test_algmat_repr_is_its_rows():
    mat = AlgMat([[1, 0, SQRT2], [0, Fraction(-1, 2), 0], [3, 0, 0]])
    assert repr(mat) == str(mat) == "AlgMat[1, 0, √2; 0, -1/2, 0; 3, 0, 0]"
    assert mat.rows == ((ONE, ZERO, SQRT2),
                        (ZERO, FieldElem(Fraction(-1, 2)), ZERO),
                        (FieldElem(3), ZERO, ZERO))


def test_algmat_transpose_and_product_on_dense_matrices():
    rng = random.Random(RNG_SEED + 11)
    for _ in range(10):
        x, y = _dense_matrix(rng), _dense_matrix(rng)
        t = x.transpose()
        assert all(t[r, c] == x[c, r] for r in range(3) for c in range(3))
        assert t.transpose() == x
        assert (x @ y).transpose() == y.transpose() @ x.transpose()
        product = x @ y
        for r in range(3):
            for c in range(3):
                assert product[r, c] == sum((x[r, k] * y[k, c] for k in range(3)),
                                            ZERO)
        assert x.trace() == x[0, 0] + x[1, 1] + x[2, 2]


def test_algmat_never_equals_a_vector():
    mat = AlgMat([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert mat != FullVec.zero() and mat != MVec.zero()
    assert FullVec.zero() != mat and MVec.zero() != mat
    assert mat == AlgMat.zero() and not mat
    with pytest.raises(TypeError):
        mat + FullVec.zero()
