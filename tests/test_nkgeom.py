"""Invariant tensors, the covariant derivative, and the curvature tensor
of the naturally reductive metric, checked against an independent
bracket-built oracle."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from nksl3 import cli, nkgeom
from nksl3.exactfield import ONE, ZERO, FieldElem, random_element
from nksl3.liealg import (MVec, bracket, m_component, metric,
                          rotation_action_matrix)
from nksl3.nkgeom import (F, J, J1, P, DegeneratePlaneError, curvature,
                          curvature_oracle, einstein_constant, nabla,
                          nabla_tensor, oracle_sign, ricci, sectional)
from nksl3.nkgeom import _five_term

RNG_SEED = 77

M_INDICES = range(1, 7)
HALF = Fraction(1, 2)


def _basis():
    return [MVec.basis(i) for i in M_INDICES]


def _random_mvec(rng):
    return MVec(random_element(rng, max_numerator=4, max_denominator=3)
                for _ in range(6))


# ----------------------------------------------------------- tensors

def test_tensor_images_literal():
    e = MVec.basis
    assert J.apply(e(1)) == -e(2) and J.apply(e(2)) == e(1)
    assert J.apply(e(3)) == e(4) and J.apply(e(4)) == -e(3)
    assert J.apply(e(5)) == e(6) and J.apply(e(6)) == -e(5)
    assert J1.apply(e(1)) == e(2) and J1.apply(e(2)) == -e(1)
    assert J1.apply(e(3)) == e(4) and J1.apply(e(4)) == -e(3)
    assert F.apply(e(1)) == MVec.zero() and F.apply(e(2)) == MVec.zero()
    assert F.apply(e(3)) == e(4) and F.apply(e(4)) == -e(3)
    assert F.apply(e(5)) == -e(6) and F.apply(e(6)) == e(5)


def test_complex_structure_squares():
    for i in M_INDICES:
        e = MVec.basis(i)
        assert J.apply(J.apply(e)) == -e
        assert J1.apply(J1.apply(e)) == -e


def test_product_is_block_involution():
    signs = (1, 1, -1, -1, -1, -1)
    for i, sign in zip(M_INDICES, signs):
        e = MVec.basis(i)
        assert P.apply(e) == e * sign
        assert P.apply(P.apply(e)) == e


def test_tensors_are_immutable():
    with pytest.raises(AttributeError):
        J.rows = J1.rows
    with pytest.raises(AttributeError):
        J.name = "J1"
    assert J.name == "J" and J.rows != J1.rows
    assert J1.compose(J, "J1J").rows == P.rows


def test_f_cubed_plus_f_vanishes():
    rng = random.Random(RNG_SEED)
    for i in M_INDICES:
        e = MVec.basis(i)
        assert F.apply(F.apply(F.apply(e))) + F.apply(e) == MVec.zero()
    for _ in range(30):
        x = _random_mvec(rng)
        assert F.apply(F.apply(F.apply(x))) + F.apply(x) == MVec.zero()


def test_tensors_commute_pairwise():
    ops = [J, J1, F, P]
    for a, b in itertools.combinations(ops, 2):
        for i in M_INDICES:
            e = MVec.basis(i)
            assert a.apply(b.apply(e)) == b.apply(a.apply(e)), (a.name, b.name)


def test_tensors_preserve_metric():
    for tensor in (J, J1, P):
        for i, j in itertools.product(M_INDICES, repeat=2):
            x, y = MVec.basis(i), MVec.basis(j)
            assert metric(tensor.apply(x), tensor.apply(y)) == metric(x, y)


def test_tensor_skewness():
    # the complex structures are skew against the metric; F pairs the two
    # nilpotent blocks symmetrically because the metric itself crosses them
    for i, j in itertools.product(M_INDICES, repeat=2):
        x, y = MVec.basis(i), MVec.basis(j)
        for tensor in (J, J1):
            assert metric(tensor.apply(x), y) == -metric(x, tensor.apply(y))
        assert metric(F.apply(x), y) == metric(x, F.apply(y))


def test_tensors_commute_with_stabilizer_action():
    rng = random.Random(RNG_SEED + 1)
    for tensor in (J, J1, F, P):
        columns = [tensor.apply(MVec.basis(j)) for j in M_INDICES]
        mat = np.array([[entry.to_float() for entry in column.coeffs]
                        for column in columns]).T
        for _ in range(20):
            t = rng.uniform(-1.0, 1.0)
            s = rng.uniform(-3.0, 3.0)
            action = rotation_action_matrix(t, s)
            assert np.max(np.abs(mat @ action - action @ mat)) < 1e-12


# ------------------------------------------------- covariant derivative

def test_nabla_known_values():
    e = MVec.basis
    assert nabla(e(1), e(3)) == e(3) * HALF
    assert nabla(e(3), e(1)) == e(3) * (-HALF)
    assert nabla(e(1), e(2)) == MVec.zero()
    assert nabla(e(3), e(4)) == MVec.zero()


def test_nabla_matches_matrix_route():
    # the coefficient-space contraction against the definition through
    # 3×3 matrices and the Gram-inverse decomposition
    def reference(x, y):
        return m_component(bracket(x.to_matrix(), y.to_matrix())) * HALF

    for i, j in itertools.product(M_INDICES, repeat=2):
        x, y = MVec.basis(i), MVec.basis(j)
        assert nabla(x, y) == reference(x, y), (i, j)
    rng = random.Random(RNG_SEED + 6)
    for _ in range(20):
        x, y = _random_mvec(rng), _random_mvec(rng)
        assert nabla(x, y) == reference(x, y)


def test_nabla_metric_compatible():
    # <nabla_X Y, Z> + <Y, nabla_X Z> = 0 on the basis: the connection is
    # metric and the basis vector fields have constant pairings.
    for i, j, k in itertools.product(M_INDICES, repeat=3):
        x, y, z = (MVec.basis(n) for n in (i, j, k))
        assert metric(nabla(x, y), z) + metric(y, nabla(x, z)) == ZERO


def test_nabla_j_frozen_values():
    e = MVec.basis
    assert nabla_tensor(J, e(1), e(3)) == -e(4)
    assert nabla_tensor(J, e(3), e(1)) == e(4)
    assert nabla_tensor(J, e(1), e(2)) == MVec.zero()


def test_nearly_kaehler_identity_exhaustive():
    for i, j in itertools.product(M_INDICES, repeat=2):
        x, y = MVec.basis(i), MVec.basis(j)
        assert nabla_tensor(J, x, y) + nabla_tensor(J, y, x) == MVec.zero()


def test_nearly_kaehler_diagonal_random():
    rng = random.Random(RNG_SEED + 2)
    for _ in range(50):
        x = _random_mvec(rng)
        assert nabla_tensor(J, x, x) == MVec.zero()


def test_strictness_witness():
    assert nabla_tensor(J, MVec.basis(1), MVec.basis(3)) != MVec.zero()


def test_j1_is_not_nearly_kaehler():
    x, y = MVec.basis(1), MVec.basis(3)
    assert nabla_tensor(J1, x, y) + nabla_tensor(J1, y, x) != MVec.zero()


# ------------------------------------------------------------ curvature

def test_oracle_sign_is_direct():
    assert oracle_sign() == 1


def test_oracle_sign_refuses_a_negated_oracle(monkeypatch):
    # only R(X, Y) = ∇_X∇_Y − ∇_Y∇_X − ∇_{[X,Y]} is accepted, not its negative
    original = nkgeom.curvature_oracle
    monkeypatch.setattr(nkgeom, "curvature_oracle", lambda x, y, z: -original(x, y, z))
    with pytest.raises(RuntimeError, match="no single sign convention"):
        oracle_sign()


@pytest.mark.parametrize("zero_curvature", [False, True])
def test_oracle_sign_refuses_an_all_zero_oracle(monkeypatch, zero_curvature):
    monkeypatch.setattr(nkgeom, "curvature_oracle", lambda x, y, z: MVec.zero())
    if zero_curvature:
        # every value zero: both signs fit, so neither may be chosen
        monkeypatch.setattr(nkgeom, "curvature", lambda x, y, z: MVec.zero())
    with pytest.raises(RuntimeError, match="no single sign convention"):
        oracle_sign()


def test_curvature_agrees_with_oracle_exhaustive():
    for i, j, k in itertools.product(M_INDICES, repeat=3):
        x, y, z = (MVec.basis(n) for n in (i, j, k))
        assert curvature(x, y, z) == curvature_oracle(x, y, z), (i, j, k)


def test_curvature_agrees_with_oracle_random():
    rng = random.Random(RNG_SEED + 3)
    for _ in range(10):
        x, y, z = (_random_mvec(rng) for _ in range(3))
        assert curvature(x, y, z) == curvature_oracle(x, y, z)


def test_curvature_known_value():
    e = MVec.basis
    assert curvature(e(1), e(2), e(2)) == e(1) * (-4)


def test_curvature_trilinear():
    rng = random.Random(RNG_SEED + 4)
    for _ in range(10):
        x, y, z = (_random_mvec(rng) for _ in range(3))
        w = _random_mvec(rng)
        c = random_element(rng)
        assert curvature(x + w * c, y, z) == (curvature(x, y, z)
                                              + curvature(w, y, z) * c)
        assert curvature(x, y + w * c, z) == (curvature(x, y, z)
                                              + curvature(x, w, z) * c)
        assert curvature(x, y, z + w * c) == (curvature(x, y, z)
                                              + curvature(x, y, w) * c)


def test_curvature_symmetries_exhaustive():
    basis = {i: MVec.basis(i) for i in M_INDICES}
    table = {(i, j, k): curvature(basis[i], basis[j], basis[k])
             for i, j, k in itertools.product(M_INDICES, repeat=3)}
    for i, j, k in itertools.product(M_INDICES, repeat=3):
        assert table[i, j, k] == -table[j, i, k]
        assert (table[i, j, k] + table[j, k, i] + table[k, i, j]
                == MVec.zero())
    paired = {(i, j, k, l): metric(table[i, j, k], basis[l])
              for i, j, k, l in itertools.product(M_INDICES, repeat=4)}
    for i, j, k, l in itertools.product(M_INDICES, repeat=4):
        assert paired[i, j, k, l] == -paired[i, j, l, k]
        assert paired[i, j, k, l] == paired[k, l, i, j]


def test_sectional_constants():
    e = MVec.basis
    half_sqrt2 = FieldElem(0, HALF)
    assert sectional(e(1), e(2)) == FieldElem(4)
    for eps in (1, -1):
        x = (e(3) + e(5) * eps) * half_sqrt2
        assert sectional(x, J.apply(x)) == ONE
    x4 = (e(1) * (FieldElem(0, 0, Fraction(1, 3)))
          + e(3) + e(5) * Fraction(-1, 3))
    assert sectional(x4, J.apply(x4)) == ZERO


def test_sectional_scale_invariance():
    rng = random.Random(RNG_SEED + 5)
    e = MVec.basis
    found = 0
    while found < 10:
        x = _random_mvec(rng)
        y = _random_mvec(rng)
        c = random_element(rng, nonzero=True)
        try:
            base = sectional(x, y)
        except DegeneratePlaneError:
            continue
        found += 1
        assert sectional(x * c, y) == base
        assert sectional(x, y + x * c) == base


def test_sectional_degenerate_plane_raises():
    with pytest.raises(DegeneratePlaneError):
        sectional(MVec.basis(3), MVec.basis(4))


def test_ricci_is_proportional_to_metric():
    assert einstein_constant() == FieldElem(5)
    ric = ricci()
    for i, j in itertools.product(M_INDICES, repeat=2):
        expected = metric(MVec.basis(i), MVec.basis(j)) * 5
        assert ric[i - 1][j - 1] == expected


# ------------------------------------------------ the integer table

def _scaled(value):
    # D·R as a tuple of field elements, to compare with `_five_term`
    return (value * nkgeom.curvature_table()[0]).coeffs


def test_contraction_matches_five_term_exhaustive():
    basis = _basis()
    for i, j, k in itertools.product(range(6), repeat=3):
        x, y, z = basis[i], basis[j], basis[k]
        assert _five_term(x.coeffs, y.coeffs, z.coeffs) == _scaled(curvature(x, y, z)), \
            (i + 1, j + 1, k + 1)


def test_contraction_matches_five_term_random_dense():
    # dense irrational coefficients exercise the contraction's indices and
    # products, which basis triples alone leave at ±1
    rng = random.Random(RNG_SEED + 7)
    for _ in range(20):
        x, y, z = _random_mvec(rng), _random_mvec(rng), _random_mvec(rng)
        assert _five_term(x.coeffs, y.coeffs, z.coeffs) == _scaled(curvature(x, y, z))


def test_five_term_runs_once_per_basis_triple(tmp_path, monkeypatch):
    calls = []

    def counted(x, y, z):
        calls.append((x, y, z))
        return _five_term(x, y, z)

    monkeypatch.setattr(nkgeom, "_five_term", counted)
    nkgeom.curvature_table.cache_clear()
    code = cli.main(["all", "--format", "json",
                     "--out", str(tmp_path / "all.json")])
    assert code == 0
    assert len(calls) == len(set(calls)) == 216
