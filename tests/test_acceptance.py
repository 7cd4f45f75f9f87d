"""Acceptance gate: the eight headline criteria, one per test, each printing
a single PASS/FAIL line (visible under pytest -s or in captured output).

Exact checks use no tolerance at all; the numeric exponential cross-check
runs at its stated tolerance; the stated runtime budgets are asserted.
"""

import dataclasses
import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from nksl3.classify import (CaseCandidate, claimed_case4_point,
                            match_survivors, pin_case4, tangency_test)
from nksl3.exactfield import ONE, ZERO, FieldElem, random_element
from nksl3.liealg import MVec, basis_matrix, bracket, dphi, metric
from nksl3.nkgeom import (F, J, J1, P, curvature, curvature_oracle,
                          nabla_tensor, oracle_sign, sectional)
from nksl3.surfaces import FAMILIES, certify, exp_check, generator

M_INDICES = range(1, 7)


@contextmanager
def _criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {number} PASS: {label}")


def test_criterion_1_natural_reductivity():
    with _criterion(1, "natural reductivity on all 216 tangent triples"):
        start = time.perf_counter()
        for i, j, k in itertools.product(M_INDICES, repeat=3):
            x, y, z = (basis_matrix(n) for n in (i, j, k))
            assert metric(x, bracket(y, z)) == metric(bracket(x, y), z)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_nearly_kaehler_identity():
    with _criterion(2, "nearly Kaehler identity and strictness witness"):
        start = time.perf_counter()
        for i, j in itertools.product(M_INDICES, repeat=2):
            x, y = MVec.basis(i), MVec.basis(j)
            assert nabla_tensor(J, x, y) + nabla_tensor(J, y, x) == MVec.zero()
        witness = nabla_tensor(J, MVec.basis(1), MVec.basis(3))
        assert witness == -MVec.basis(4)
        assert witness != MVec.zero()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_curvature_against_oracle():
    with _criterion(3, "curvature formula equals the bracket oracle; "
                       "all four symmetries exhaustive"):
        start = time.perf_counter()
        assert oracle_sign() in (1, -1)  # exactly one convention survives
        basis = {i: MVec.basis(i) for i in M_INDICES}
        table = {}
        for i, j, k in itertools.product(M_INDICES, repeat=3):
            value = curvature(basis[i], basis[j], basis[k])
            assert value == curvature_oracle(basis[i], basis[j], basis[k])
            table[i, j, k] = value
        # the opposite convention is genuinely refuted
        assert curvature(basis[1], basis[2], basis[2]) != \
            -curvature_oracle(basis[1], basis[2], basis[2])
        for i, j, k in itertools.product(M_INDICES, repeat=3):
            assert table[i, j, k] == -table[j, i, k]
            assert (table[i, j, k] + table[j, k, i] + table[k, i, j]
                    == MVec.zero())
        paired = {(i, j, k, l): metric(table[i, j, k], basis[l])
                  for i, j, k, l in itertools.product(M_INDICES, repeat=4)}
        for i, j, k, l in itertools.product(M_INDICES, repeat=4):
            assert paired[i, j, k, l] == -paired[i, j, l, k]
            assert paired[i, j, k, l] == paired[k, l, i, j]
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_4_constants_and_case_values():
    with _criterion(4, "headline constants: curvatures 4/1/1/0, the case 2 "
                       "value, the pinned case 4 point"):
        assert sectional(MVec.basis(1), MVec.basis(2)) == FieldElem(4)
        for fid in ("f2", "f3"):
            x, jx = generator(fid)
            assert sectional(x, jx) == ONE
        x4, jx4 = generator("f4")
        assert sectional(x4, jx4) == ZERO
        for epsilon in (-1, 1):
            candidate = CaseCandidate(2, epsilon=epsilon)
            result = tangency_test(candidate)
            expected = MVec.basis(1) * (-4 * epsilon) + MVec.basis(5) * 2
            assert result.value == expected
            assert not result.in_span
        assert tangency_test(claimed_case4_point()).in_span


def test_criterion_5_certificates(monkeypatch):
    with _criterion(5, "certificates: one orbit closure certifies f1-f5, "
                       "f5 degenerate; the e1 + e3 plane is refused"):
        for fid in ("f1", "f2", "f3", "f4"):
            cert = certify(fid, samples=10, seed=0)
            assert cert.ok, cert
            assert cert.totally_geodesic
        cert5 = certify("f5", samples=10, seed=0)
        assert cert5.ok, cert5
        assert cert5.totally_geodesic
        assert cert5.induced_signature == (0, 0, 2)
        x5, jx5 = generator("f5")
        assert not bracket(x5.to_matrix(), jx5.to_matrix())  # abelian
        expected_signatures = {"f1": (0, 2, 0), "f2": (2, 0, 0),
                               "f3": (0, 2, 0), "f4": (0, 2, 0)}
        for fid, signature in expected_signatures.items():
            assert certify(fid, samples=1, seed=0).induced_signature \
                == signature
        x = MVec.basis(1) + MVec.basis(3)
        monkeypatch.setitem(FAMILIES, "f1",
                            dataclasses.replace(FAMILIES["f1"], x=x))
        refused = certify("f1", samples=1, seed=0)
        assert not refused.totally_geodesic and not refused.ok


def test_criterion_6_exponential_cross_check():
    with _criterion(6, "exponential vs closed forms: 100 samples per family "
                       "at 1e-8, f5 exact to 1e-12"):
        start = time.perf_counter()
        for fid in ("f1", "f2", "f3", "f4", "f5"):
            result = exp_check(fid, samples=100, tol=1e-8, seed=0)
            assert result.passed, (fid, result.max_dev)
        f5 = exp_check("f5", samples=100, tol=1e-12, seed=0)
        assert f5.max_dev <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_7_classification_sweep():
    with _criterion(7, "case 4 pinned on the full default grid; survivors "
                       "map onto the five families"):
        start = time.perf_counter()
        report = pin_case4()
        assert report.claimed_point_passes
        assert report.cells == 14520
        assert report.unexpected_passes == ()
        expected = {"1": "f1", "3+": "f2", "3-": "f3", "4": "f4", "5": "f5"}
        assert match_survivors() == expected
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_8_property_suites():
    with _criterion(8, "exact property sweeps: field axioms, Jacobi, dphi "
                       "isometry, tensor commutation, F cubed"):
        rng = random.Random(0)
        for _ in range(1000):
            x, y, z = (random_element(rng) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + y == y + x and x * y == y * x
        mats = [basis_matrix(i) for i in range(1, 9)]
        for x, y, z in itertools.product(mats, repeat=3):
            assert not (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
                        + bracket(z, bracket(x, y)))
        for i, j in itertools.product(M_INDICES, repeat=2):
            x, y = MVec.basis(i), MVec.basis(j)
            assert metric(dphi(x), dphi(y)) == metric(x, y)
        for a, b in itertools.combinations((J, J1, F, P), 2):
            for i in M_INDICES:
                e = MVec.basis(i)
                assert a.apply(b.apply(e)) == b.apply(a.apply(e))
        for i in M_INDICES:
            e = MVec.basis(i)
            assert F.apply(F.apply(F.apply(e))) + F.apply(e) == MVec.zero()
