"""Exact linear algebra: echelon form, rank, span membership, inversion,
and metric signatures from the characteristic polynomial."""

import random
from fractions import Fraction

import numpy as np
import pytest

from nksl3 import linalg
from nksl3.exactfield import ONE, SQRT2, SQRT3, ZERO, FieldElem, random_element

RNG_SEED = 11


def _f(x):
    return FieldElem(x)


def _random_matrix(rng, nrows, ncols):
    return [[random_element(rng, max_numerator=5, max_denominator=3)
             for _ in range(ncols)] for _ in range(nrows)]


def test_echelon_identity_like():
    rows = [[_f(2), ZERO], [ZERO, SQRT2]]
    reduced, pivots = linalg.echelon(rows)
    assert pivots == [0, 1]
    assert reduced == [[ONE, ZERO], [ZERO, ONE]]


def test_echelon_dependent_rows():
    rows = [[ONE, SQRT2], [SQRT3, SQRT2 * SQRT3]]
    reduced, pivots = linalg.echelon(rows)
    assert pivots == [0]
    assert reduced[1] == [ZERO, ZERO]


def test_rank_random_products():
    # rank(A) <= min(m, n), and duplicating a row never raises the rank
    rng = random.Random(RNG_SEED)
    for _ in range(30):
        rows = _random_matrix(rng, 3, 4)
        r = linalg.rank(rows)
        assert 0 <= r <= 3
        assert linalg.rank(rows + [rows[0]]) == r
        scaled = [[entry * SQRT2 for entry in row] for row in rows]
        assert linalg.rank(scaled) == r


def test_solve_in_span_hit():
    x = [ONE, ZERO, SQRT2]
    y = [ZERO, ONE, SQRT3]
    target = [ONE * 2, -ONE, SQRT2 * 2 - SQRT3]
    coeffs = linalg.solve_in_span([x, y], target)
    assert coeffs == [FieldElem(2), FieldElem(-1)]


def test_solve_in_span_miss():
    x = [ONE, ZERO, ZERO]
    y = [ZERO, ONE, ZERO]
    target = [ONE, ONE, ONE]
    assert linalg.solve_in_span([x, y], target) is None


def test_solve_in_span_random_roundtrip():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(50):
        x = [random_element(rng) for _ in range(4)]
        y = [random_element(rng) for _ in range(4)]
        alpha = random_element(rng)
        beta = random_element(rng)
        target = [alpha * a + beta * b for a, b in zip(x, y)]
        coeffs = linalg.solve_in_span([x, y], target)
        assert coeffs is not None
        recombined = [coeffs[0] * a + coeffs[1] * b for a, b in zip(x, y)]
        assert recombined == target


def test_invert_roundtrip():
    rng = random.Random(RNG_SEED + 2)
    built = 0
    while built < 20:
        rows = _random_matrix(rng, 3, 3)
        if linalg.rank(rows) < 3:
            continue
        built += 1
        inverse = linalg.invert(rows)
        for i in range(3):
            for j in range(3):
                entry = sum((rows[i][k] * inverse[k][j] for k in range(3)),
                            ZERO)
                assert entry == (ONE if i == j else ZERO)


def test_invert_singular_raises():
    rows = [[ONE, ONE], [ONE, ONE]]
    with pytest.raises(ValueError):
        linalg.invert(rows)


def test_signature_diagonal():
    gram = [[ONE, ZERO, ZERO],
            [ZERO, -ONE, ZERO],
            [ZERO, ZERO, ZERO]]
    assert linalg.signature(gram) == (1, 1, 1)


def test_signature_hyperbolic_plane():
    # all-off-diagonal pairing: one positive and one negative direction
    gram = [[ZERO, ONE], [ONE, ZERO]]
    assert linalg.signature(gram) == (1, 1, 0)


def test_signature_congruence_invariance():
    # signature is invariant under A -> S^T A S for invertible S
    rng = random.Random(RNG_SEED + 3)
    diag = [ONE, ONE, -ONE, ZERO]
    gram = [[diag[i] if i == j else ZERO for j in range(4)] for i in range(4)]
    for _ in range(10):
        s = _random_matrix(rng, 4, 4)
        if linalg.rank(s) < 4:
            continue
        transformed = [[sum((s[k][i] * gram[k][l] * s[l][j]
                             for k in range(4) for l in range(4)), ZERO)
                        for j in range(4)] for i in range(4)]
        assert linalg.signature(transformed) == (2, 1, 1)


def test_signature_rejects_asymmetric():
    gram = [[ZERO, ONE], [-ONE, ZERO]]
    with pytest.raises(ValueError):
        linalg.signature(gram)


def test_signature_matches_numpy_eigenvalues():
    # S·D·Sᵀ with zeros in D and S possibly singular: the inertia must
    # match the signs of numpy's eigenvalues
    rng = random.Random(RNG_SEED + 5)
    for trial in range(300):
        n = trial % 6 + 1
        s = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        d = [rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(n)]
        gram = [[sum(s[i][k] * d[k] * s[j][k] for k in range(n))
                 for j in range(n)] for i in range(n)]
        eigen = np.linalg.eigvalsh(np.array(gram, dtype=float))
        tol = 1e-9 * max(1.0, float(np.abs(eigen).max()))
        expected = (int((eigen > tol).sum()), int((eigen < -tol).sum()),
                    int((abs(eigen) <= tol).sum()))
        assert linalg.signature([[_f(x) for x in row] for row in gram]) \
            == expected, gram


def test_signature_of_empty_and_zero_matrices():
    assert linalg.signature([]) == (0, 0, 0)
    for n in range(1, 5):
        assert linalg.signature([[ZERO] * n for _ in range(n)]) == (0, 0, n)
