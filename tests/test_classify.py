"""The normal-form case engine: candidate parameters, the curvature tangency
test, case eliminations, the exact parameter pin, and the survivor map."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from nksl3 import classify, cli, linalg, nkgeom
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


def _grid_values(grid):
    """The a and b values of a sweep, read from its step indices: the
    reference for the integers `pin_case4` steps."""
    a_steps, b_steps = grid._steps()
    return ([grid.a_min + k * grid.a_step for k in a_steps],
            [grid.b_min + k * grid.b_step for k in b_steps])


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
    assert hit.in_span
    assert hit.coefficients == (FieldElem(2), FieldElem(-1))
    miss = in_span(_e(3), _e(1), _e(2))
    assert not miss.in_span
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


def test_polarized_tangency_operator_commutes_with_j():
    # R(a, Jb) + R(b, Ja) is the polarization of X ↦ R(X, JX); it commutes
    # with J, so R(X, JX)X = −J·R(X, JX)JX and `tangency_test` needs no
    # second condition
    basis = [_e(i) for i in range(1, 7)]
    for a, b, c in itertools.product(basis, repeat=3):
        ja, jb, jc = J.apply(a), J.apply(b), J.apply(c)
        assert (curvature(a, jb, jc) + curvature(b, ja, jc)
                == J.apply(curvature(a, jb, c) + curvature(b, ja, c))), (a, b, c)


def test_case1_value():
    result = tangency_test(CaseCandidate(1))
    assert result.value == _e(1) * (-4)
    assert result.coefficients == (FieldElem(-4), ZERO)


def test_span_decision_carries_the_tested_value():
    hit, miss = _e(1) * 2 - _e(2), _e(3)
    assert in_span(hit, _e(1), _e(2)).value is hit
    assert in_span(miss, _e(1), _e(2)).value is miss
    candidates = [CaseCandidate(1), CaseCandidate(3, epsilon=1),
                  CaseCandidate(3, epsilon=-1), claimed_case4_point(),
                  CaseCandidate(5), CaseCandidate(2, epsilon=1),
                  CaseCandidate(2, epsilon=-1)]
    for candidate in candidates:
        x = candidate.vector()
        jx = J.apply(x)
        value = curvature(x, jx, jx)
        result = tangency_test(candidate)
        assert result.value == value, candidate.label()
        assert result.witness() == in_span(value, x, jx).witness(), candidate.label()


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
            assert in_span(value, x, jx).in_span, candidate.label()


def test_grid_spec_parse_and_counts():
    grid = GridSpec.parse("0:3:1/20,-3:3:1/20")
    assert grid == GridSpec()
    assert str(grid) == "0:3:1/20,-3:3:1/20"
    a_values, b_values = _grid_values(grid)
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
    assert report.unexpected_passes == ()


def test_pin_case4_skips_nonpositive_a():
    grid = GridSpec.parse("-1:1:1/2,0:0:1")
    assert _grid_values(grid)[0] == [Fraction(1, 2), Fraction(1)]


def _per_cell_labels(grid):
    """The reference sweep: every cell through `rational_tangency`."""
    cells, labels = 0, []
    a_values, b_values = _grid_values(grid)
    for epsilon in (-1, 1):
        for a in a_values:
            for b in b_values:
                cells += 1
                if rational_tangency(case4_coords(epsilon, a, b)):
                    labels.append(CaseCandidate(
                        4, epsilon=epsilon, a=FieldElem(a),
                        b=FieldElem(b)).label())
    return cells, tuple(labels)


def test_pin_case4_matches_the_per_cell_route():
    # a shrunk dense-style grid with fractional offsets, a_min < 0, empty,
    # rows with no b
    for spec in ("3/200:43/200:1/40,-2387/800:-1587/800:1/40",
                 "-1:1:1/3,-1:1:1/2", "0:0:1,0:0:1", "0:1:1/2,1:0:1"):
        grid = GridSpec.parse(spec)
        report = pin_case4(grid)
        assert (report.cells, report.unexpected_passes) \
            == _per_cell_labels(grid), spec


def _cells(grid):
    a_values, b_values = _grid_values(grid)
    return [(epsilon, a, b) for epsilon in (-1, 1)
            for a in a_values for b in b_values]


def test_pin_case4_scales_each_cell_by_one_integer(monkeypatch):
    # no rational cell passes, so only the kernel's arguments show a wrong
    # scale.  Here m = 3, and at a = 2/3 the e5 coordinate m²·½(a²+ε) is
    # not an integer: only λ = 2m² keeps every coordinate integral.  The
    # recorded minor has degree 5 in b and vanishes only at b = 2, past the
    # sixth cell of each row, so those rows are not refuted by their six
    # probes: every cell goes to the kernel, and the labels of the passing
    # cells are read back from the scaled coordinates.
    grid = GridSpec.parse("0:2:1/3,-3:3:1/3")
    calls = []

    def record(x):
        calls.append(x)
        yield (x[5] - 2 * x[2]) * (x[5] ** 2 + x[2] ** 2) ** 2

    monkeypatch.setattr(classify, "_minors", record)
    monkeypatch.setattr(classify, "rational_tangency", None)
    report = pin_case4(grid)
    # the sweep's one degree pass runs first, on the ring, marked in x6
    degree_pass, *calls = calls
    assert isinstance(degree_pass[5], linalg.Degree)
    cells = _cells(grid)
    assert len(cells) == report.cells
    scale = calls[0][2]
    assert type(scale) is int and scale > 0
    scaled = {tuple(scale * c for c in case4_coords(epsilon, a, b))
              for epsilon, a, b in cells}
    for x in calls:
        assert all(type(c) is int for c in x)
        assert tuple(x) in scaled
    # each row (ε, a) probes its first six cells, then sends every cell to
    # the kernel: the calls follow that order, each cell scaled from its own
    # row's ε and a
    expected = []
    a_values, b_values = _grid_values(grid)
    for epsilon in (-1, 1):
        for a in a_values:
            row = [tuple(scale * c for c in case4_coords(epsilon, a, b))
                   for b in b_values]
            expected += row[:6] + row
    assert [tuple(x) for x in calls] == expected
    assert report.unexpected_passes == tuple(
        CaseCandidate(4, epsilon=epsilon, a=FieldElem(a),
                      b=FieldElem(b)).label()
        for epsilon, a, b in cells if b == 2)


def test_six_probes_decide_each_row(monkeypatch):
    # a quintic in x6 that equals one nonzero constant at the first five b
    # cells of every row (k = 0..4, where 3·b + 9 = k) and vanishes at
    # b = 2 (k = 15): its computed degree bound is 5, so five equal probes
    # would refute the row, the sixth (k = 5) sends it to the per-cell
    # route, which reports the b = 2 cells
    grid = GridSpec.parse("0:2:1/3,-3:3:1/3")

    def quintic(x):
        k = 3 * x[5] + 9 * x[2]
        yield (math.prod(k - i * x[2] for i in range(5))
               - math.prod(range(11, 16)) * x[2] ** 5)

    monkeypatch.setattr(classify, "_minors", quintic)
    assert pin_case4(grid).unexpected_passes == tuple(
        CaseCandidate(4, epsilon=epsilon, a=FieldElem(a),
                      b=FieldElem(b)).label()
        for epsilon, a, b in _cells(grid) if b == 2)
    monkeypatch.undo()
    # on the default grid (60 a × 2 ε = 120 rows) the real first minor has
    # degree 0 in b, so one probe refutes each row: no cell reaches the
    # kernel, and the degree pass is the one call on the ring
    calls = {"_minors": 0, "_in_plane": 0, "ring": 0}
    for name in ("_minors", "_in_plane"):
        def counted(x, name=name, original=getattr(classify, name)):
            calls[name if all(type(c) is int for c in x) else "ring"] += 1
            return original(x)
        monkeypatch.setattr(classify, name, counted)
    assert pin_case4().unexpected_passes == ()
    assert calls == {"_minors": 120, "_in_plane": 0, "ring": 1}


def test_a_quadratic_first_minor_gets_three_probes_per_row(monkeypatch):
    # degree 2 in x6 by the ring, constant in value: three equal nonzero
    # probes refute each row, and no cell reaches the kernel
    grid = GridSpec.parse("0:2:1/3,-3:3:1/3")
    calls = []

    def quadratic(x):
        calls.append(tuple(x))
        yield x[5] * x[5] - x[5] ** 2 + x[2] ** 2

    monkeypatch.setattr(classify, "_minors", quadratic)
    monkeypatch.setattr(classify, "_in_plane", None)
    assert pin_case4(grid).unexpected_passes == ()
    scale = calls[1][2]
    a_values, b_values = _grid_values(grid)
    assert calls[1:] == [tuple(scale * c for c in case4_coords(epsilon, a, b))
                         for epsilon in (-1, 1) for a in a_values
                         for b in b_values[:3]]


def test_first_minor_on_case4_rows_is_free_of_b():
    # −12a²(3a² + ε): for a > 0 it vanishes only at ε = −1, a = 1/√3
    rng = random.Random(RNG_SEED + 8)
    for _ in range(20):
        epsilon = rng.choice((-1, 1))
        a = Fraction(rng.randint(1, 40), rng.randint(1, 9))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        assert next(classify._minors(case4_coords(epsilon, a, b))) \
            == -12 * a * a * (3 * a * a + epsilon)


def test_first_minor_is_a_quintic_free_of_b_on_case4_rows():
    # the first minor is homogeneous of degree 5 in X, and on case-4 rows
    # it is −12a²(3a² + ε) as a polynomial
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x1:7")
    first = sympy.Poly(next(classify._minors(x)), *x)
    assert first.is_homogeneous and first.total_degree() == 5
    a, b = sympy.symbols("a b")
    for epsilon in (-1, 1):
        minor = next(classify._minors(case4_coords(epsilon, a, b)))
        assert sympy.expand(minor + 12 * a**2 * (3 * a**2 + epsilon)) == 0


def test_minor_16_is_minus_48_b_squared_on_case4():
    # rows e3e4e5: b = 0 on every tangent case-4 X, for either ε
    sympy = pytest.importorskip("sympy")
    a, b = sympy.symbols("a b")
    for epsilon in (-1, 1):
        minors = list(classify._minors(case4_coords(epsilon, a, b)))
        assert classify._ROW_TRIPLES[16] == (2, 3, 4)
        assert sympy.expand(minors[16] + 48 * b**2) == 0


def _bounds_cover_sympy_degrees(sympy):
    """Whether the ring's bounds in a and in b are at least sympy's degrees
    on each of the twenty minors at case-4 X, for both ε."""
    a, b = sympy.symbols("a b")
    for epsilon in (-1, 1):
        exact = [sympy.Poly(sympy.expand(minor), a, b) for minor
                 in classify._minors(case4_coords(epsilon, a, b))]
        for mark in range(2):
            marked = [linalg.Degree(int(mark == i)) for i in range(2)]
            bounds = [linalg.Degree.of(minor).d for minor in
                      classify._minors(case4_coords(epsilon, *marked))]
            for bound, poly in zip(bounds, exact, strict=True):
                if not poly.is_zero and bound < poly.degree(mark):
                    return False
    return True


def test_degree_bounds_cover_the_true_degrees(monkeypatch):
    # a mutant ring whose + keeps the smaller bound undercounts
    sympy = pytest.importorskip("sympy")
    assert _bounds_cover_sympy_degrees(sympy)

    def smaller(self, other):
        return linalg.Degree(min(self.d, linalg.Degree.of(other).d))

    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(linalg.Degree, name, smaller)
    assert not _bounds_cover_sympy_degrees(sympy)


def test_prove_case4_states_its_bounds_and_grids():
    assert classify.prove_case4() == (
        "minor 0 ≡ −12a²(3a²+ε): degree ≤ 4 in a, 0 in b; zero on the grid "
        "{0..4}×{0..0}; minor 16 ≡ −48b²: degree ≤ 4 in a, 2 in b; zero on "
        "the grid {0..4}×{0..2}; each for ε = ±1 at X = (a, 0, 1, 0, "
        "½(a²+ε), b), so b = 0, ε = −1 and a = 1/√3")


def test_prove_case4_fails_on_a_flipped_j_block_or_a_dropped_entry(monkeypatch):
    # J with the sign of its e3e4 block flipped, and the table without
    # (0, 1, 1, 0, −16): each breaks the identities
    flipped = nkgeom._complex_structure("J", {1: (2, -1), 3: (4, -1),
                                              5: (6, 1)})
    denominator, entries = curvature_table()
    assert (0, 1, 1, 0, -16) in entries
    dropped = tuple(e for e in entries if e != (0, 1, 1, 0, -16))
    for name, value in (("J", flipped),
                        ("curvature_table", lambda: (denominator, dropped))):
        tangency_form.cache_clear()
        monkeypatch.setattr(classify, name, value)
        try:
            with pytest.raises(ValueError, match="fails at ab ="):
                classify.prove_case4()
        finally:
            monkeypatch.undo()
            tangency_form.cache_clear()
    assert classify.prove_case4()


def test_prove_zero_sizes_its_grid_from_the_bounds():
    # (x − y)(x + y) − x² + y² is zero; a dropped term leaves −y², which the
    # grid catches at y = 1; a product with 0 is the exact zero, degree −1
    assert linalg.prove_zero(
        "id", lambda x, y: (x - y) * (x + y) - x * x + y ** 2, "xy") == \
        "id: degree ≤ 2 in x, 2 in y; zero on the grid {0..2}×{0..2}"
    with pytest.raises(ValueError, match=r"id fails at xy = \(0, 1\)"):
        linalg.prove_zero("id", lambda x, y: x * x - y * y - x * x, "xy")
    # x(x − 1) has the roots 0 and 1: only the third grid point refutes it
    with pytest.raises(ValueError, match=r"fails at x = \(2,\)"):
        linalg.prove_zero("x(x − 1) ≡ 0", lambda x: x * (x - 1), "x")
    assert linalg.prove_zero("zero", lambda x: 0 * x, "x") == \
        "zero: degree ≤ -1 in x; zero on the grid {0..-1}"
    with pytest.raises(TypeError, match="no truth value"):
        bool(linalg.Degree(0))


def test_a_vanishing_first_minor_sends_every_cell_to_the_kernel(monkeypatch):
    # a zero constant row is not refuted: every cell goes on to the full
    # kernel, where only the b = 2 cells pass
    grid = GridSpec.parse("0:2:1/3,-3:3:1/3")
    kernel = []

    def minors(x):
        yield 0
        kernel.append(tuple(x))
        yield x[5] - 2 * x[2]

    monkeypatch.setattr(classify, "_minors", minors)
    report = pin_case4(grid)
    cells = _cells(grid)
    scale = kernel[0][2]
    assert kernel == [tuple(scale * c for c in case4_coords(epsilon, a, b))
                      for epsilon, a, b in cells]
    assert report.unexpected_passes == tuple(
        CaseCandidate(4, epsilon=epsilon, a=FieldElem(a),
                      b=FieldElem(b)).label()
        for epsilon, a, b in cells if b == 2)


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


def test_match_survivors_compares_planes(monkeypatch):
    # −X and 2·X span the family's plane, so they match; f3's X does not
    fam = FAMILIES["f2"]
    for x in (-fam.x, fam.x * 2):
        monkeypatch.setitem(FAMILIES, "f2", dataclasses.replace(fam, x=x))
        assert match_survivors() == {"1": "f1", "3+": "f2", "3-": "f3",
                                     "4": "f4", "5": "f5"}
    monkeypatch.setitem(FAMILIES, "f2",
                        dataclasses.replace(fam, x=FAMILIES["f3"].x))
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
    # trilinearity: agreement on all 216 basis triples is agreement
    # everywhere; the bracket-only route shares no code with the table
    denominator, entries = curvature_table()
    assert len(entries) == 124
    assert denominator == 4
    rebuilt = {}
    for i, j, k, l, t in entries:
        rebuilt.setdefault((i, j, k), [0] * 6)[l] = t
    for i, j, k in itertools.product(range(6), repeat=3):
        expected = nkgeom.curvature_oracle(_e(i + 1), _e(j + 1), _e(k + 1)) * denominator
        assert MVec(rebuilt.get((i, j, k), [0] * 6)) == expected, (i, j, k)


def _form_value(coords):
    return [sum(c * coords[p] * coords[q] * coords[r] for p, q, r, c in row)
            for row in tangency_form()]


def test_tangency_form_is_the_folded_table():
    rows = tangency_form()
    assert len(rows) == 6
    form = [(l, *term) for l, row in enumerate(rows) for term in row]
    assert len(form) == 28
    assert all(c for *_, c in form)
    keys = [(l, p, q, r) for l, p, q, r, _ in form]
    assert len(set(keys)) == len(keys)
    assert all(p <= q <= r for _, p, q, r in keys)


class _Unread:
    """A form row that raises when the kernel reads it."""

    def __iter__(self):
        raise RuntimeError("a minor read a row past e3")


def test_first_minor_reads_only_the_first_three_rows(monkeypatch):
    # the first minor (rows e1e2e3) of a case-4 probe refutes it from
    # V1, V2, V3 alone: 13 of the 28 terms
    rows = tangency_form()
    assert sum(len(row) for row in rows[:3]) == 13
    monkeypatch.setattr(classify, "tangency_form",
                        lambda: rows[:3] + (_Unread(),) * 3)
    x = tuple(2 * c for c in case4_coords(1, 2, -3))   # (4, 0, 2, 0, 5, -6)
    assert next(classify._minors(x)) == -12 * 4 * 13 * 2 ** 5
    with pytest.raises(RuntimeError, match="past e3"):
        list(classify._minors(x))


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
    a_values, b_values = _grid_values(grid)
    for _ in range(60):
        epsilon = rng.choice((-1, 1))
        a, b = rng.choice(a_values), rng.choice(b_values)
        candidate = CaseCandidate(4, epsilon=epsilon, a=FieldElem(a),
                                  b=FieldElem(b))
        assert rational_tangency(case4_coords(epsilon, a, b)) \
            == tangency_test(candidate).in_span, candidate.label()


def test_kernel_is_ring_generic():
    # on FieldElem coordinates the kernel agrees with the field route:
    # the survivors, the case-2 vectors and their dphi images, the claimed
    # case-4 point and irrational perturbations of it
    survivors = [CaseCandidate(1), CaseCandidate(3, epsilon=1),
                 CaseCandidate(3, epsilon=-1), claimed_case4_point(),
                 CaseCandidate(5)]
    for candidate in survivors:
        assert tangency_test(candidate).in_span
        assert classify._in_plane(candidate.vector().coeffs), \
            candidate.label()
    reports = eliminate_case2()
    assert len(reports) == 4
    for report in reports:
        assert classify._in_plane(report.vector.coeffs) \
            == (not report.eliminated), report.representative
    rng = random.Random(RNG_SEED + 6)
    point = claimed_case4_point()
    for _ in range(10):
        a = point.a + FieldElem(0, Fraction(rng.randint(-9, 9), 97),
                                0, Fraction(rng.randint(-9, 9), 89))
        b = FieldElem(Fraction(rng.randint(-9, 9), 7), 0,
                      Fraction(rng.randint(-9, 9), 5))
        candidate = CaseCandidate(4, epsilon=rng.choice((-1, 1)), a=a, b=b)
        assert classify._in_plane(candidate.vector().coeffs) \
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
        expected = in_span(curvature(x, jx, jx), x, jx).in_span
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


def test_rational_tangency_refuses_wrong_length_and_bools():
    with pytest.raises(ValueError):
        rational_tangency((1, 0, 0, 0, 0, 0, 7))
    with pytest.raises(ValueError):
        rational_tangency((1, 0, 0))
    with pytest.raises(TypeError):
        rational_tangency((True, 0, 0, 0, 0, 0))
    with pytest.raises(TypeError):
        rational_tangency((1, 0, 0, 0, False, 0))


def test_candidate_refuses_non_int_epsilon():
    for case, epsilon in ((2, True), (3, False), (3, 1.0), (2, Fraction(1)),
                          (2, -1.0)):
        with pytest.raises(ValueError, match="epsilon must be -1 or"):
            CaseCandidate(case, epsilon=epsilon)
    with pytest.raises(ValueError, match="epsilon must be -1 or"):
        CaseCandidate(4, epsilon=True, a=ONE, b=ZERO)


def test_candidate_coerces_exact_scalars():
    b = FieldElem(Fraction(-3, 2))
    reference = CaseCandidate(4, epsilon=-1, a=ONE, b=b)
    for a, b in ((1, Fraction(-3, 2)), (Fraction(1), Fraction(-3, 2)),
                 (ONE, Fraction(-3, 2))):
        candidate = CaseCandidate(4, epsilon=-1, a=a, b=b)
        assert candidate == reference
        assert type(candidate.a) is FieldElem
        assert type(candidate.b) is FieldElem
        assert candidate.vector() == reference.vector()
    assert CaseCandidate(4, epsilon=-1, a=1, b=0) \
        == CaseCandidate(4, epsilon=-1, a=ONE, b=ZERO)
    for a, b in ((1.0, ZERO), (ONE, 0.0), (ONE, True), (True, ZERO),
                 ("1", ZERO)):
        with pytest.raises(TypeError, match="must be a FieldElem"):
            CaseCandidate(4, epsilon=1, a=a, b=b)
    for a in (0, Fraction(0), ZERO, -1):
        with pytest.raises(ValueError, match="requires a > 0"):
            CaseCandidate(4, epsilon=1, a=a, b=0)
