"""The five orbit surfaces: generators, closed forms, the exponential
cross-check, second fundamental forms, and the certificates."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from nksl3.exactfield import SQRT2, SQRT3, ZERO, FieldElem
from nksl3 import cli, linalg
from nksl3.liealg import (MVec, bracket, coeff_bracket, metric,
                          stabilizer_element)
from nksl3.nkgeom import J
from nksl3.surfaces import (FAMILIES, Certificate, DegenerateSpanError,
                            _generated_basis, certify, closed_form,
                            coset_deviation, exp_check, expm, family,
                            generated_algebra_dimension, generator, sff)

RNG_SEED = 5

ALL_IDS = ("f1", "f2", "f3", "f4", "f5")


def _e(i):
    return MVec.basis(i)


def test_family_ids_and_lookup():
    assert tuple(FAMILIES) == ALL_IDS
    assert family("f2").orbit_group == "SO(3)"
    with pytest.raises(ValueError):
        family("f9")


def test_generators_literal():
    inv_sqrt2 = SQRT2 * Fraction(1, 2)
    inv_sqrt3 = SQRT3 * Fraction(1, 3)
    x, jx = generator("f1")
    assert x == _e(1) and jx == -_e(2)
    x, jx = generator("f2")
    assert x == (_e(3) + _e(5)) * inv_sqrt2
    assert jx == (_e(4) + _e(6)) * inv_sqrt2
    x, jx = generator("f3")
    assert x == (_e(3) - _e(5)) * inv_sqrt2
    assert jx == (_e(4) - _e(6)) * inv_sqrt2
    x, jx = generator("f4")
    assert x == _e(1) * inv_sqrt3 + _e(3) + _e(5) * Fraction(-1, 3)
    assert jx == -_e(2) * inv_sqrt3 + _e(4) + _e(6) * Fraction(-1, 3)
    x, jx = generator("f5")
    assert x == _e(3) and jx == _e(4)


def test_generator_is_j_image():
    for fid in ALL_IDS:
        x, jx = generator(fid)
        assert jx == J.apply(x)


def test_generator_norms():
    expected = {"f1": -1, "f2": 1, "f3": -1, "f4": -1, "f5": 0}
    for fid, value in expected.items():
        x, _ = generator(fid)
        assert metric(x, x) == FieldElem(value), fid


def test_closed_forms_at_origin():
    for fid in ALL_IDS:
        assert np.allclose(closed_form(fid, 0.0, 0.0), np.eye(3), atol=1e-15)


def test_closed_form_spot_values():
    # f1 along v = 0 is the split one-parameter group diag(e^u, e^-u, 1)
    m = closed_form("f1", 0.7, 0.0)
    assert np.allclose(m, np.diag([math.exp(0.7), math.exp(-0.7), 1.0]),
                       atol=1e-12)
    # f2 at (pi/2, 0) is the 180-degree rotation diag(-1, 1, -1)
    m = closed_form("f2", math.pi / 2, 0.0)
    assert np.allclose(m, np.diag([-1.0, 1.0, -1.0]), atol=1e-12)
    # f5 is the unitriangular sheet
    m = closed_form("f5", 1.25, -0.5)
    assert np.array_equal(m, np.array([[1.0, 0.0, 1.25],
                                       [0.0, 1.0, -0.5],
                                       [0.0, 0.0, 1.0]]))


def test_closed_forms_land_in_special_linear_group():
    rng = random.Random(RNG_SEED)
    for fid in ALL_IDS:
        fam = family(fid)
        for _ in range(25):
            u = rng.uniform(*fam.u_range)
            v = rng.uniform(*fam.v_range)
            assert abs(np.linalg.det(closed_form(fid, u, v)) - 1.0) < 1e-9, fid


def test_f2_points_are_orthogonal():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(25):
        m = closed_form("f2", rng.uniform(-2, 2), rng.uniform(0, 2 * math.pi))
        assert np.max(np.abs(m.T @ m - np.eye(3))) < 1e-12


def test_f3_points_preserve_lorentz_form():
    eta = np.diag([1.0, 1.0, -1.0])
    rng = random.Random(RNG_SEED + 2)
    for _ in range(25):
        m = closed_form("f3", rng.uniform(-2, 2), rng.uniform(0, 2 * math.pi))
        assert np.max(np.abs(m @ eta @ m.T - eta)) < 1e-9
        assert m[2, 2] >= 1.0 - 1e-12  # orthochronous sheet


def test_f1_fixes_third_coordinate():
    rng = random.Random(RNG_SEED + 3)
    for _ in range(25):
        m = closed_form("f1", rng.uniform(-2, 2), rng.uniform(0, 2 * math.pi))
        assert np.allclose(m[2], [0.0, 0.0, 1.0], atol=1e-15)
        assert np.allclose(m[:, 2], [0.0, 0.0, 1.0], atol=1e-15)


def test_expm_basic_identities():
    assert np.allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)
    nilpotent = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, -1.0], [0.0, 0.0, 0.0]])
    assert np.allclose(expm(nilpotent), np.eye(3) + nilpotent, atol=1e-15)


def test_expm_against_scipy():
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(50):
        a = rng.uniform(-2.0, 2.0, size=(3, 3))
        ours = expm(a)
        reference = scipy.linalg.expm(a)
        scale = max(1.0, float(np.max(np.abs(reference))))
        worst = max(worst, float(np.max(np.abs(ours - reference))) / scale)
    assert worst < 1e-10, worst


def test_expm_one_parameter_group():
    rng = np.random.default_rng(RNG_SEED + 1)
    a = rng.uniform(-1.0, 1.0, size=(3, 3))
    for s, t in ((0.5, 0.25), (1.0, -0.75)):
        left = expm((s + t) * a)
        right = expm(s * a) @ expm(t * a)
        assert np.max(np.abs(left - right)) < 1e-12


def test_coset_deviation_compares_matrices():
    base = closed_form("f1", 0.6, 1.1)
    shifted = base @ stabilizer_element(-0.3, -0.7)
    assert coset_deviation(base, base) == 0.0
    assert coset_deviation(shifted, base @ np.diag([2.0, 1.0, 0.5])) > 1e-3
    # the same coset, but not the same matrix: no stabilizer alignment
    distance = float(np.linalg.norm(shifted - base))
    assert distance > 0.1
    assert coset_deviation(shifted, base) == distance


def test_exp_check_refuses_a_coset_equal_closed_form(monkeypatch):
    fam = FAMILIES["f1"]
    h = stabilizer_element(0.3, 0.7)
    monkeypatch.setitem(FAMILIES, "f1", dataclasses.replace(
        fam, closed_form=lambda u, v: fam.closed_form(u, v) @ h))
    result = exp_check("f1", samples=20, seed=0)
    assert not result.passed
    assert result.max_dev > 0.1


def test_exp_check_all_families():
    for fid in ALL_IDS:
        result = exp_check(fid, samples=100, tol=1e-8, seed=0)
        assert result.passed, (fid, result.max_dev)
        assert result.samples == 100


def test_exp_check_f5_is_exact():
    result = exp_check("f5", samples=60, tol=1e-12, seed=2)
    assert result.max_dev <= 1e-12


def test_exp_check_deterministic():
    a = exp_check("f3", samples=40, seed=9)
    b = exp_check("f3", samples=40, seed=9)
    assert a.max_dev == b.max_dev


def test_exp_check_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        exp_check("f1", tol=0.0)


def test_exp_check_rejects_nonfinite_tolerance():
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError):
            exp_check("f1", samples=1, tol=tol)


def test_exp_check_and_certify_refuse_zero_samples():
    with pytest.raises(ValueError, match="samples must be at least 1"):
        exp_check("f1", samples=0)
    with pytest.raises(ValueError, match="samples must be at least 1"):
        certify("f1", samples=0)


def test_sff_vanishes_on_nondegenerate_families():
    for fid in ("f1", "f2", "f3", "f4"):
        x, jx = generator(fid)
        span = [x, jx]
        for a, b in ((x, x), (x, jx), (jx, x), (jx, jx)):
            assert sff(span, a, b) == MVec.zero(), fid


def test_sff_degenerate_span_refused():
    x, jx = generator("f5")
    with pytest.raises(DegenerateSpanError,
                       match="sff needs a nondegenerate span, and certify "
                             "decides geodesy by the orbit closure"):
        sff([x, jx], x, jx)


def test_sff_detects_curved_span():
    # e2 and the f2 generator span a nondegenerate plane whose bracket
    # escapes it, so the second fundamental form must be nonzero.
    x = _e(2)
    y, _ = generator("f2")
    value = sff([x, y], x, y)
    assert value != MVec.zero()
    assert value == (_e(4) - _e(6)) * (SQRT2 * Fraction(1, 4))


def test_sff_requires_span_membership():
    x, jx = generator("f1")
    with pytest.raises(ValueError):
        sff([x, jx], x, _e(3))


def test_orbit_algebra_dimensions():
    expected = {"f1": 3, "f2": 3, "f3": 3, "f4": 2, "f5": 2}
    for fid, dim in expected.items():
        x, jx = generator(fid)
        assert generated_algebra_dimension([x, jx]) == dim, fid
    full = [MVec.basis(i) for i in range(1, 7)]
    assert generated_algebra_dimension(full) == 8
    # dense spans generate all of sl(3)
    for coeffs in ((2, 1, 1, 1, 1, 1), (1, 2, -1, 1, -1, 1)):
        x = MVec(coeffs)
        assert generated_algebra_dimension([x, J.apply(x)]) == 8, coeffs


def _closed_under_bracket(span):
    """The reference route: every bracket of two span vectors lies in the
    span, viewed inside the full algebra."""
    vectors = [list(v.to_full().coeffs) for v in span]
    return all(linalg.solve_in_span(vectors,
                                    list(coeff_bracket(a, b).coeffs))[0]
               is not None
               for i, a in enumerate(span) for b in span[i + 1:])


def _family_and_seeded_spans():
    """The five family spans, then 30 seeded spans {X, JX}.  X is drawn on
    a random set of the blocks m1, m2, m3 so that closed spans are common;
    a dense X almost always generates all of sl(3)."""
    spans = [list(generator(fid)) for fid in ALL_IDS]
    supports = [blocks for r in (1, 2, 3)
                for blocks in itertools.combinations(range(3), r)]
    rng = random.Random(RNG_SEED)
    while len(spans) < 5 + 30:
        blocks = rng.choice(supports)
        x = MVec(rng.choice((-1, 0, 1, 2)) if i // 2 in blocks else 0
                 for i in range(6))
        if x:
            spans.append([x, J.apply(x)])
    return spans


def _in_span(rows, vector):
    return linalg.solve_in_span(rows, list(vector.coeffs))[0] is not None


def test_generated_basis_is_independent_and_closed():
    for span in _family_and_seeded_spans():
        basis = _generated_basis(span)
        rows = [list(v.coeffs) for v in basis]
        assert linalg.rank(rows) == len(basis), span
        assert all(_in_span(rows, seed.to_full()) for seed in span), span
        assert all(_in_span(rows, coeff_bracket(a, b))
                   for a, b in itertools.combinations(basis, 2)), span
        assert generated_algebra_dimension(span) == len(basis), span


def test_bracket_closure_is_generated_dimension_two():
    verdicts = []
    for span in _family_and_seeded_spans():
        closed = _closed_under_bracket(span)
        assert closed == (generated_algebra_dimension(span) == 2), span
        verdicts.append(closed)
    assert verdicts[:5] == [False, False, False, True, True]
    assert True in verdicts[5:] and False in verdicts[5:]


def test_x_jx_bracket_has_no_tangent_part():
    # X -> [X, JX]_m is quadratic, so its polarization vanishing on the 21
    # basis pairs i <= j proves [X, JX]_m = 0 for every tangent X: the sff
    # of a J-plane, ½[X, JX]_m projected, is zero whatever the plane
    for i, j in itertools.combinations_with_replacement(range(1, 7), 2):
        ei, ej = MVec.basis(i), MVec.basis(j)
        polar = (coeff_bracket(ei, J.apply(ej)).m_part()
                 + coeff_bracket(ej, J.apply(ei)).m_part())
        assert polar == MVec.zero(), (i, j)


def test_f4_generators_commute():
    x, jx = generator("f4")
    assert not bracket(x.to_matrix(), jx.to_matrix())


def test_f5_generators_commute():
    x, jx = generator("f5")
    assert not bracket(x.to_matrix(), jx.to_matrix())


def test_certificates_all_ok():
    for fid in ALL_IDS:
        cert = certify(fid, samples=50, tol=1e-8, seed=1)
        assert cert.ok, (fid, cert.to_dict())
        assert cert.totally_geodesic


def test_certificate_details():
    cert = certify("f2", samples=20, seed=4)
    assert cert.induced_signature == (2, 0, 0)
    assert cert.curvature == "1"
    assert cert.orbit_algebra_dim == 3
    cert5 = certify("f5", samples=20, seed=4)
    assert cert5.induced_signature == (0, 0, 2)
    assert cert5.curvature == "degenerate"
    assert cert5.orbit_algebra_dim == 2


def test_certify_refuses_a_plane_whose_orbit_is_not_a_surface(monkeypatch):
    # span{e1 + e3, J(e1 + e3)} generates an algebra with m-rank 4, and the
    # plane fails the tangency test R(X, JX)JX ∈ span{X, JX}
    x = _e(1) + _e(3)
    monkeypatch.setitem(FAMILIES, "f1",
                        dataclasses.replace(FAMILIES["f1"], x=x))
    cert = certify("f1", samples=5, seed=0)
    assert cert.totally_geodesic is False
    assert cert.ok is False


@pytest.mark.parametrize("change", [
    {"expected_signature": (2, 0, 0)},
    {"expected_curvature": FieldElem(1)},
    {"orbit_dim": 2},
], ids=["signature", "curvature", "orbit_dim"])
def test_certificate_ok_compares_each_expected_fact(monkeypatch, change):
    # f1 is (0, 2, 0), curvature 4, orbit dimension 3: one wrong expectation
    # must fail the certificate and the CLI check that reads it
    monkeypatch.setitem(FAMILIES, "f1", dataclasses.replace(FAMILIES["f1"],
                                                            **change))
    assert certify("f1", samples=5, seed=0).ok is False
    report = cli.run(cli.SuiteSpec("examples", samples=5))
    records = {r.name: r for r in report.checks}
    assert not records["examples.f1"].passed
    assert records["examples.f1"].witness.startswith("certificate failed")
    assert all(r.passed for name, r in records.items()
               if name != "examples.f1")


def test_exp_check_fails_on_a_nan_deviation(monkeypatch):
    # one NaN sample among finite ones must survive the running maximum
    calls = []
    original = FAMILIES["f1"].closed_form

    def first_nan(u, v):
        calls.append((u, v))
        value = original(u, v)
        return np.full_like(value, np.nan) if len(calls) == 1 else value

    monkeypatch.setitem(FAMILIES, "f1", dataclasses.replace(
        FAMILIES["f1"], closed_form=first_nan))
    result = exp_check("f1", samples=5, seed=0)
    assert len(calls) == 5
    assert math.isnan(result.max_dev)
    assert not result.passed


def test_certificate_signatures_and_curvatures():
    expected = {
        "f1": ((0, 2, 0), "4"),
        "f2": ((2, 0, 0), "1"),
        "f3": ((0, 2, 0), "1"),
        "f4": ((0, 2, 0), "0"),
        "f5": ((0, 0, 2), "degenerate"),
    }
    for fid, (signature, curvature) in expected.items():
        cert = certify(fid, samples=10, seed=6)
        assert cert.induced_signature == signature, fid
        assert cert.curvature == curvature, fid


def test_certificate_dict_schema():
    payload = certify("f1", samples=10, seed=0).to_dict()
    assert set(payload) == {"id", "totally_geodesic", "induced_signature",
                            "curvature", "orbit_algebra_dim", "exp_check"}
    assert set(payload["exp_check"]) == {"samples", "tol", "max_dev"}
