"""The normal-form case engine: candidate parameters, the curvature tangency
test, case eliminations, the exact parameter pin, and the survivor map."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from nksl3 import cli
from nksl3.classify import (CaseCandidate, GridSpec, case4_coords,
                            claimed_case4_point,
                            curvature_table, eliminate_case2, in_span,
                            match_survivors, pin_case4, rational_tangency,
                            tangency_form, tangency_test)
from nksl3.exactfield import ONE, SQRT3, ZERO, FieldElem
from nksl3.liealg import MVec, dphi, metric
from nksl3.nkgeom import J, curvature
from nksl3.surfaces import FAMILIES

RNG_SEED = 3


def _e(i):
    return MVec.basis(i)


def test_candidate_validation():
    with pytest.raises(ValueError):
        CaseCandidate(6)
    with pytest.raises(ValueError):
        CaseCandidate(2, epsilon=2)
    with pytest.raises(ValueError):
        CaseCandidate(1, epsilon=1)
    with pytest.raises(ValueError):
        CaseCandidate(3, epsilon=1, a=ONE)
    with pytest.raises(ValueError):
        CaseCandidate(4, epsilon=1, a=ZERO, b=ZERO)
    with pytest.raises(ValueError):
        CaseCandidate(4, epsilon=1, a=-ONE, b=ZERO)


def test_candidate_refuses_missing_parameters():
    for kwargs in ({"case": 2}, {"case": 4, "epsilon": 1},
                   {"case": 4, "epsilon": 1, "a": ONE}):
        with pytest.raises(ValueError, match="takes exactly"):
            CaseCandidate(**kwargs)


def test_case_vectors_literal():
    half_sqrt2 = FieldElem(0, Fraction(1, 2))
    assert CaseCandidate(1).vector() == _e(1)
    assert CaseCandidate(2, epsilon=-1).vector() == -_e(1) + _e(5)
    assert CaseCandidate(3, epsilon=1).vector() == (_e(3) + _e(5)) * half_sqrt2
    assert CaseCandidate(5).vector() == _e(3)
    general = CaseCandidate(4, epsilon=1, a=FieldElem(2), b=FieldElem(-1))
    assert general.vector() == (_e(1) * 2 + _e(3) + _e(5) * Fraction(5, 2)
                                - _e(6))


def test_case4_norm_is_epsilon_for_all_parameters():
    rng = random.Random(RNG_SEED)
    for epsilon in (-1, 1):
        for _ in range(25):
            a = FieldElem(Fraction(rng.randint(1, 40), rng.randint(1, 9)))
            b = FieldElem(Fraction(rng.randint(-30, 30), rng.randint(1, 9)))
            candidate = CaseCandidate(4, epsilon=epsilon, a=a, b=b)
            assert metric(candidate.vector(), candidate.vector()) \
                == FieldElem(epsilon)


def test_expected_norms_match_metric():
    fixed = [CaseCandidate(1), CaseCandidate(2, epsilon=1),
             CaseCandidate(2, epsilon=-1), CaseCandidate(3, epsilon=1),
             CaseCandidate(3, epsilon=-1), claimed_case4_point(),
             CaseCandidate(5)]
    for candidate in fixed:
        x = candidate.vector()
        assert metric(x, x) == candidate.expected_norm(), candidate.label()


def test_in_span_decision_variants():
    hit = in_span(_e(1) * 2 - _e(2), _e(1), _e(2))
    assert hit.contained
    assert hit.coefficients == (FieldElem(2), FieldElem(-1))
    miss = in_span(_e(3), _e(1), _e(2))
    assert not miss.contained
    assert miss.coefficients is None
    assert miss.pivot_row is not None
    assert "rank 3" in miss.witness()


def test_tangency_verdicts():
    assert tangency_test(CaseCandidate(1)).in_span
    assert tangency_test(CaseCandidate(3, epsilon=1)).in_span
    assert tangency_test(CaseCandidate(3, epsilon=-1)).in_span
    assert tangency_test(CaseCandidate(5)).in_span
    assert tangency_test(claimed_case4_point()).in_span
    assert not tangency_test(CaseCandidate(2, epsilon=1)).in_span
    assert not tangency_test(CaseCandidate(2, epsilon=-1)).in_span


def test_case1_value():
    result = tangency_test(CaseCandidate(1))
    assert result.value == _e(1) * (-4)
    assert result.witness.coefficients == (FieldElem(-4), ZERO)


def test_case2_value_is_the_expected_combination():
    for epsilon in (-1, 1):
        x = CaseCandidate(2, epsilon=epsilon).vector()
        value = curvature(x, J.apply(x), J.apply(x))
        assert value == _e(1) * (-4 * epsilon) + _e(5) * 2


def test_case2_elimination_reports():
    reports = eliminate_case2()
    assert len(reports) == 4
    assert all(r.eliminated for r in reports)
    by_key = {(r.epsilon, r.representative): r for r in reports}
    direct = by_key[(1, "m1+m3")]
    assert direct.vector == _e(1) + _e(5)
    assert direct.value == _e(1) * (-4) + _e(5) * 2
    image = by_key[(1, "m1+m2 (dphi image)")]
    assert image.vector == dphi(direct.vector)
    assert image.vector == -_e(1) + _e(3)
    assert image.value == _e(1) * 4 + _e(3) * 2


def test_case2_image_value_is_dphi_of_value():
    # dphi is an isometry commuting with J on the relevant vectors, so the
    # curvature value of the image representative is the image of the value.
    for epsilon in (-1, 1):
        x = CaseCandidate(2, epsilon=epsilon).vector()
        value = curvature(x, J.apply(x), J.apply(x))
        y = dphi(x)
        image_value = curvature(y, J.apply(y), J.apply(y))
        assert image_value == dphi(value)


def test_claimed_case4_point_is_flat_direction():
    point = claimed_case4_point()
    assert point.epsilon == -1
    assert point.a == SQRT3 * Fraction(1, 3)
    assert point.a * point.a == FieldElem(Fraction(1, 3))
    assert point.b == ZERO
    x = point.vector()
    assert x == (_e(1) * (SQRT3 * Fraction(1, 3)) + _e(3)
                 + _e(5) * Fraction(-1, 3))
    assert curvature(x, J.apply(x), J.apply(x)) == MVec.zero()


def test_tangency_invariant_under_recombination():
    # the test is a property of the plane span{X, JX}: recombined bases of
    # the surviving planes must also pass
    rng = random.Random(RNG_SEED + 1)
    survivors = [CaseCandidate(1), CaseCandidate(3, epsilon=1),
                 claimed_case4_point()]
    for candidate in survivors:
        x = candidate.vector()
        jx = J.apply(x)
        for _ in range(5):
            alpha = FieldElem(rng.randint(1, 5))
            beta = FieldElem(rng.randint(-4, 4))
            xp = x * alpha + jx * beta
            jxp = J.apply(xp)
            value = curvature(xp, jxp, jxp)
            assert in_span(value, x, jx).contained, candidate.label()


def test_grid_spec_parse_and_counts():
    grid = GridSpec.parse("0:3:1/20,-3:3:1/20")
    assert grid == GridSpec()
    assert str(grid) == "0:3:1/20,-3:3:1/20"
    a_values = list(grid.a_values())
    b_values = list(grid.b_values())
    assert len(a_values) == 60
    assert len(b_values) == 121
    assert a_values[0] == Fraction(1, 20) and a_values[-1] == Fraction(3)
    assert b_values[0] == Fraction(-3) and b_values[-1] == Fraction(3)
    assert all(value > 0 for value in a_values)


def test_grid_spec_rejects_nonsense():
    with pytest.raises(ValueError):
        GridSpec.parse("1:2,3:4")
    with pytest.raises(ValueError):
        GridSpec.parse("0:3:0,-3:3:1")
    with pytest.raises(ValueError):
        GridSpec.parse("0:3:-1,-3:3:1")
    with pytest.raises(ValueError):
        GridSpec.parse("words")
    # refused before Fraction builds a million-digit integer
    for spec in ("0:1e1000000:1e1000000,0:1:1", "0:1:1,0:1E-100:1",
                 "0:1e1_0_0:1,0:1:1"):
        with pytest.raises(ValueError, match="bad grid spec"):
            GridSpec.parse(spec)
    assert GridSpec.parse("0:1e1:1,0:1e-1:1e-2").a_max == 10
    for kwargs in ({"a_step": Fraction(0)}, {"b_step": Fraction(-1, 20)}):
        with pytest.raises(ValueError, match="grid steps must be positive"):
            GridSpec(**kwargs)


def test_pin_case4_empty_grid_is_no_pass():
    report = pin_case4(GridSpec.parse("0:0:1,0:0:1"))
    assert report.claimed_point_passes and not report.unexpected_passes
    assert report.cells == 0


def test_pin_case4_coarse_grid():
    grid = GridSpec.parse("0:1:1/3,-1:1:1/2")
    report = pin_case4(grid)
    assert report.claimed_point_passes
    assert report.cells == 2 * 3 * 5
    assert report.grid_passes == 0
    assert report.unexpected_passes == ()


def test_pin_case4_skips_nonpositive_a():
    grid = GridSpec.parse("-1:1:1/2,0:0:1")
    a_values = list(grid.a_values())
    assert a_values == [Fraction(1, 2), Fraction(1)]


def test_grid_cells_counts_the_sweep():
    # the default grid, a_min < 0, fractional steps and the empty grid
    for spec in (None, "-1:1:1/3,-1:1:1/2", "1/7:5/3:2/9,-2/3:1/5:1/4",
                 "0:0:1,0:0:1"):
        grid = GridSpec.parse(spec) if spec else GridSpec()
        assert grid.cells() == pin_case4(grid).cells, spec


def test_grid_spec_refuses_grids_above_the_cap():
    # the second grid has more steps than len() of a range can count
    for grid in ("0:1000:1/50,-2500:2500:1/2", "0:1e30:1,0:1:1"):
        with pytest.raises(ValueError, match="above the cap"):
            GridSpec.parse(grid)
    assert GridSpec(Fraction(0), Fraction(1000), Fraction(1, 50),
                    Fraction(-2500), Fraction(2500),
                    Fraction(1, 2)).cells() == 2 * 50_000 * 10_001


def test_match_survivors():
    assert match_survivors() == {"1": "f1", "3+": "f2", "3-": "f3",
                                 "4": "f4", "5": "f5"}


def test_match_survivors_refuses_a_negated_x(monkeypatch):
    fam = FAMILIES["f2"]
    monkeypatch.setitem(FAMILIES, "f2", dataclasses.replace(fam, x=-fam.x))
    assert match_survivors() == {"1": "f1", "3+": None, "3-": "f3",
                                 "4": "f4", "5": "f5"}
    spec = cli.SuiteSpec("classify", grid=GridSpec.parse("0:1:1/2,-1:1:1/2"))
    records = {r.name: r for r in cli.run(spec).checks}
    assert not records["classify.mapping"].passed
    assert records["classify.mapping"].witness == \
        "a survivor does not match its surface family"


def test_candidate_labels():
    assert CaseCandidate(1).label() == "case 1"
    assert CaseCandidate(3, epsilon=-1).label() == "case 3, ε=-1"
    assert "a=" in claimed_case4_point().label()


# ------------------------------------------------------- integer kernel

def test_curvature_table_reproduces_curvature_on_basis_triples():
    # trilinearity: agreement on all 216 basis triples is agreement everywhere
    denominator, entries = curvature_table()
    assert len(entries) == 124
    assert 4 % denominator == 0
    rebuilt = {}
    for i, j, k, l, t in entries:
        rebuilt.setdefault((i, j, k), [Fraction(0)] * 6)[l] = \
            Fraction(t, denominator)
    for i, j, k in itertools.product(range(6), repeat=3):
        expected = curvature(_e(i + 1), _e(j + 1), _e(k + 1))
        assert MVec(rebuilt.get((i, j, k), [0] * 6)) == expected, (i, j, k)


def _form_value(coords):
    v = [0] * 6
    for l, p, q, r, c in tangency_form():
        v[l] += c * coords[p] * coords[q] * coords[r]
    return v


def test_tangency_form_is_the_folded_table():
    form = tangency_form()
    assert len(form) == 28
    assert all(c for *_, c in form)
    keys = [(l, p, q, r) for l, p, q, r, _ in form]
    assert len(set(keys)) == len(keys)
    assert all(p <= q <= r for _, p, q, r in keys)


def test_tangency_form_equals_scaled_curvature():
    # V = D·R(X, JX)JX coordinate by coordinate, on the basis and on dense
    # rational X, where every monomial of the form is nonzero
    denominator = curvature_table()[0]
    rng = random.Random(RNG_SEED + 5)
    points = [tuple(int(n == m) for n in range(6)) for m in range(6)]
    for _ in range(20):
        points.append(tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 30),
                                     rng.randint(1, 9)) for _ in range(6)))
    for coords in points:
        x = MVec(coords)
        jx = J.apply(x)
        expected = curvature(x, jx, jx) * denominator
        got = _form_value(coords)
        for l in range(6):
            assert FieldElem(got[l]) == expected[l], (coords, l)


def test_rational_tangency_survivors_and_case2():
    assert rational_tangency((1, 0, 0, 0, 0, 0))             # e1
    assert rational_tangency((0, 0, 1, 0, 1, 0))             # e3 + e5
    assert rational_tangency((0, 0, 1, 0, -1, 0))            # e3 - e5
    assert rational_tangency((0, 0, 1, 0, 0, 0))             # e3
    for epsilon in (-1, 1):
        assert not rational_tangency((epsilon, 0, 0, 0, 1, 0))
        assert not tangency_test(CaseCandidate(2, epsilon=epsilon)).in_span


def test_rational_tangency_rejects_zero():
    with pytest.raises(ValueError):
        rational_tangency((0, 0, 0, 0, 0, 0))


def test_rational_tangency_refuses_floats_and_scales_fractions():
    # Fraction(0.1) is the binary expansion of 0.1, not 1/10
    with pytest.raises(TypeError):
        rational_tangency((Fraction(1, 10), 0, 0.1, 0, 0, 0))
    for coords in ((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, -1, 0),
                   (1, 0, 1, 0, 0, 0), (2, 0, 1, 0, 3, -1)):
        scaled = tuple(Fraction(c, 7) for c in coords)
        mixed = (Fraction(coords[0], 3), *coords[1:])
        assert rational_tangency(scaled) == rational_tangency(coords)
        assert rational_tangency(mixed) == rational_tangency(
            (coords[0], *(3 * c for c in coords[1:])))


def test_rational_tangency_agrees_with_tangency_test_on_grid_sample():
    rng = random.Random(RNG_SEED + 2)
    grid = GridSpec()
    a_values, b_values = list(grid.a_values()), list(grid.b_values())
    for _ in range(60):
        epsilon = rng.choice((-1, 1))
        a, b = rng.choice(a_values), rng.choice(b_values)
        candidate = CaseCandidate(4, epsilon=epsilon, a=FieldElem(a),
                                  b=FieldElem(b))
        assert rational_tangency(case4_coords(epsilon, a, b)) \
            == tangency_test(candidate).in_span, candidate.label()


def test_rational_tangency_agrees_with_reference_on_small_vectors():
    # every plane spanned by X, JX with X in {-1, 0, 1}^6, up to the sign
    # of X: 36 of them pass, so both verdicts are exercised
    passes = 0
    for coords in itertools.product((-1, 0, 1), repeat=6):
        if next((c for c in coords if c), -1) < 0:
            continue
        x = MVec(coords)
        jx = J.apply(x)
        expected = in_span(curvature(x, jx, jx), x, jx).contained
        assert rational_tangency(coords) == expected, coords
        passes += expected
    assert passes == 36


def test_rational_tangency_invariant_under_recombination():
    # rational bases of the surviving planes pass: the verdict is a
    # property of span{X, JX}, as for the reference route
    rng = random.Random(RNG_SEED + 3)
    for x in (_e(1), _e(3) + _e(5), _e(3) - _e(5), _e(3)):
        jx = J.apply(x)
        for _ in range(5):
            xp = x * rng.randint(1, 5) + jx * Fraction(rng.randint(-4, 4), 3)
            assert rational_tangency(tuple(c.a for c in xp.coeffs))


def test_case4_coords_match_candidate_vector():
    rng = random.Random(RNG_SEED + 4)
    for epsilon in (-1, 1):
        for _ in range(10):
            a = Fraction(rng.randint(1, 40), rng.randint(1, 9))
            b = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            vector = CaseCandidate(4, epsilon=epsilon, a=FieldElem(a),
                                   b=FieldElem(b)).vector()
            assert vector == MVec(case4_coords(epsilon, a, b))
            assert vector == (_e(1) * a + _e(3)
                              + _e(5) * ((a * a + epsilon) / 2) + _e(6) * b)
