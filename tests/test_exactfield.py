"""Exact arithmetic in the field generated by sqrt2 and sqrt3."""

import math
import random
from fractions import Fraction

import pytest

from nksl3.exactfield import (ONE, SQRT2, SQRT3, SQRT6, ZERO, FieldElem,
                              random_element)

RNG_SEED = 20260815


def test_constructor_coercion():
    x = FieldElem(2, "1/3", Fraction(-5, 7), 0)
    assert x.coords == (Fraction(2), Fraction(1, 3), Fraction(-5, 7), Fraction(0))
    assert FieldElem("3/4") == FieldElem(Fraction(3, 4))
    assert FieldElem() == ZERO


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        FieldElem(0.5)
    with pytest.raises(TypeError):
        FieldElem(1) + 0.5


def test_bools_are_rejected():
    with pytest.raises(TypeError):
        FieldElem(1) + True
    with pytest.raises(TypeError):
        FieldElem(True)


def test_zero_iff_all_coordinates_vanish():
    assert not ZERO
    assert ONE
    assert FieldElem(0, 1) and FieldElem(0, 0, 1) and FieldElem(0, 0, 0, 1)
    assert (SQRT2 - SQRT2) == ZERO


def test_generator_products():
    assert SQRT2 * SQRT2 == FieldElem(2)
    assert SQRT3 * SQRT3 == FieldElem(3)
    assert SQRT6 * SQRT6 == FieldElem(6)
    assert SQRT2 * SQRT3 == SQRT6
    assert SQRT2 * SQRT6 == SQRT3 * 2
    assert SQRT3 * SQRT6 == SQRT2 * 3


def test_field_axioms_random_sweep():
    rng = random.Random(RNG_SEED)
    for _ in range(1000):
        x = random_element(rng)
        y = random_element(rng)
        z = random_element(rng)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + ZERO == x
        assert x * ONE == x
        assert x - x == ZERO


def test_inverse_random_sweep():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(300):
        x = random_element(rng, nonzero=True)
        assert x * x.inv() == ONE
        assert x.inv().inv() == x
        assert (x * x).inv() == x.inv() * x.inv()


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_division_and_power():
    x = FieldElem(1, 2, 0, "1/2")
    assert (x / x) == ONE
    assert x ** 0 == ONE
    assert x ** 3 == x * x * x
    assert x ** -2 == (x * x).inv()
    assert 1 / SQRT2 == SQRT2 * Fraction(1, 2)


def test_known_inverse():
    # (1 + sqrt2)(sqrt2 - 1) = 1, so inv(1 + sqrt2) = -1 + sqrt2
    assert (ONE + SQRT2).inv() == SQRT2 - 1


def test_float_embedding():
    rng = random.Random(RNG_SEED + 2)
    for _ in range(200):
        x = random_element(rng)
        y = random_element(rng)
        expected = (x.a + x.b * math.sqrt(2) + x.c * math.sqrt(3)
                    + x.d * math.sqrt(6))
        assert abs(x.to_float() - expected) < 1e-12
        assert abs((x * y).to_float() - x.to_float() * y.to_float()) < 1e-9
        assert abs((x + y).to_float() - (x.to_float() + y.to_float())) < 1e-12
    assert float(SQRT6) == pytest.approx(math.sqrt(6.0), abs=1e-15)


def test_sign_matches_float():
    rng = random.Random(RNG_SEED + 3)
    for _ in range(500):
        x = random_element(rng, nonzero=True)
        assert x.sign() == (1 if x.to_float() > 0 else -1)
    assert ZERO.sign() == 0


def test_sign_near_cancellation():
    # sqrt2 + sqrt3 - sqrt6 + a small rational offset; the float value of
    # the base element is about 0.696, so push much closer to zero.
    base = SQRT2 + SQRT3 - SQRT6
    offset = FieldElem(Fraction(-696, 1000))
    tiny = base + offset
    assert tiny.sign() == (1 if tiny.to_float() > 0 else -1)
    # 3363/2378 is a continued-fraction convergent of sqrt2: the difference
    # is about 8.8e-8 but the exact sign is still resolved.
    close = SQRT2 - FieldElem(Fraction(3363, 2378))
    assert close.sign() == -1
    assert (-close).sign() == 1


def test_ordering():
    assert SQRT2 < SQRT3 < FieldElem(2) < SQRT6
    assert ONE <= ONE
    assert SQRT6 > 2
    values = [SQRT6, ZERO, SQRT2, -SQRT3, ONE]
    assert sorted(values) == [-SQRT3, ZERO, ONE, SQRT2, SQRT6]


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(-SQRT2) == "-√2"
    assert str(FieldElem(1, -1, 0, Fraction(2, 3))) == "1 - √2 + (2/3)√6"
    assert str(FieldElem(0, 0, 2)) == "2√3"


def _reference_str(x):
    """The field renderer as written before it shared `signed_sum`."""
    parts = []
    for coef, radical in zip(x.coords, ("", "√2", "√3", "√6")):
        if not coef:
            continue
        mag = abs(coef)
        if not radical:
            body = str(mag)
        elif mag == 1:
            body = radical
        elif mag.denominator == 1:
            body = f"{mag}{radical}"
        else:
            body = f"({mag}){radical}"
        if not parts:
            parts.append(body if coef > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


@pytest.mark.parametrize("max_denominator", [1, 2, 9])
@pytest.mark.parametrize("max_numerator", [1, 2, 9, 30])
def test_str_matches_reference_renderer(max_numerator, max_denominator):
    # 12 bounds × 1,700 draws: bare rational terms, a left-out 1, integer
    # and parenthesized fractional magnitudes before each radical
    rng = random.Random(RNG_SEED + 100 * max_numerator + max_denominator)
    for _ in range(1700):
        x = random_element(rng, max_numerator, max_denominator)
        text = str(x)
        assert text == _reference_str(x), x.coords
        assert FieldElem.parse(text) == x, text


def test_parse_roundtrip_random():
    rng = random.Random(RNG_SEED + 4)
    for _ in range(500):
        x = random_element(rng)
        assert FieldElem.parse(str(x)) == x


def test_parse_explicit_forms():
    assert FieldElem.parse("0") == ZERO
    assert FieldElem.parse("√2") == SQRT2
    assert FieldElem.parse("-√3 + √2") == SQRT2 - SQRT3
    assert FieldElem.parse("1/2 + (3/4)√6") == FieldElem("1/2", 0, 0, "3/4")
    with pytest.raises(ValueError):
        FieldElem.parse("√5")
    with pytest.raises(ValueError):
        FieldElem.parse("one plus two")


def test_hash_consistency():
    rng = random.Random(RNG_SEED + 5)
    for _ in range(100):
        x = random_element(rng)
        y = FieldElem(*x.coords)
        assert x == y and hash(x) == hash(y)


def test_immutability():
    with pytest.raises(AttributeError):
        ONE.a = Fraction(2)


# ------------------------------------------- integer-coordinate representation
#
# The reference below is the arithmetic on four Fraction coordinates that
# the integer representation replaced; the two must agree exactly.

def _ref_add(x, y):
    return tuple(p + q for p, q in zip(x, y))


def _ref_sub(x, y):
    return tuple(p - q for p, q in zip(x, y))


def _ref_mul(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2)


def _ref_inv(x):
    a, b, c, d = x
    t = _ref_mul(_ref_mul((a, -b, c, -d), (a, b, -c, -d)), (a, -b, -c, d))
    n = _ref_mul(x, t)
    assert not any(n[1:])
    return tuple(p / n[0] for p in t)


def _ref_sign_rat(q):
    return (q > 0) - (q < 0)


def _ref_sign_sqrt2(p, q):
    if not q:
        return _ref_sign_rat(p)
    if not p:
        return _ref_sign_rat(q)
    sp = _ref_sign_rat(p)
    if sp == _ref_sign_rat(q):
        return sp
    return sp * _ref_sign_rat(p * p - 2 * q * q)


def _ref_sign(x):
    a, b, c, d = x
    if not (c or d):
        return _ref_sign_sqrt2(a, b)
    if not (a or b):
        return _ref_sign_sqrt2(c, d)
    su, sv = _ref_sign_sqrt2(a, b), _ref_sign_sqrt2(c, d)
    if su == sv:
        return su
    return su * _ref_sign_sqrt2(a * a + 2 * b * b - 3 * (c * c + 2 * d * d),
                                2 * a * b - 6 * c * d)


def _ref_float(x):
    a, b, c, d = x
    return (float(a) + float(b) * math.sqrt(2.0) + float(c) * math.sqrt(3.0)
            + float(d) * math.sqrt(6.0))


def _ref_str(x):
    parts = []
    for coef, radical in zip(x, ("", "√2", "√3", "√6")):
        if not coef:
            continue
        mag = abs(coef)
        if not radical:
            body = str(mag)
        elif mag == 1:
            body = radical
        elif mag.denominator == 1:
            body = f"{mag}{radical}"
        else:
            body = f"({mag}){radical}"
        sign = ("" if coef > 0 else "-") if not parts else ("+ " if coef > 0 else "- ")
        parts.append(sign + body)
    return " ".join(parts) if parts else "0"


def _assert_reduced(x):
    *nums, q = x._v
    assert q > 0
    assert math.gcd(*nums, q) == 1
    if not any(nums):
        assert x._v == (0, 0, 0, 0, 1)


def _assert_matches(got, ref):
    _assert_reduced(got)
    assert got.coords == ref
    assert str(got) == _ref_str(ref)
    assert got.to_float().hex() == _ref_float(ref).hex()
    assert got.sign() == _ref_sign(ref)


def test_integer_arithmetic_matches_fraction_reference():
    # 0, 1, −1 and a rational on either side reach the identity-operand
    # branches, which must still return reduced values
    rng = random.Random(RNG_SEED + 6)
    for i in range(500):
        bound = (9, 10 ** 3, 10 ** 6)[i % 3]
        x = random_element(rng, bound, bound, nonzero=True)
        y = random_element(rng, bound, bound, nonzero=True)
        rx, ry = x.coords, y.coords
        for r in (0, 1, -1, y.a):
            f, rf = FieldElem(r), (Fraction(r), 0, 0, 0)
            for u, ru, v, rv in ((x, rx, f, rf), (f, rf, x, rx), (f, rf, f, rf)):
                _assert_matches(u + v, _ref_add(ru, rv))
                _assert_matches(u - v, _ref_sub(ru, rv))
                _assert_matches(u * v, _ref_mul(ru, rv))
            _assert_matches(x + r, _ref_add(rx, rf))
            _assert_matches(r - x, _ref_sub(rf, rx))
            _assert_matches(r * x, _ref_mul(rf, rx))
        _assert_matches(x, rx)
        _assert_matches(x + y, _ref_add(rx, ry))
        _assert_matches(x - y, _ref_sub(rx, ry))
        _assert_matches(x * y, _ref_mul(rx, ry))
        _assert_matches(x * y.a, _ref_mul(rx, (y.a, 0, 0, 0)))
        _assert_matches(FieldElem(y.a) * x, _ref_mul((y.a, 0, 0, 0), rx))
        _assert_matches(x.inv(), _ref_inv(rx))
        _assert_matches(-x, tuple(-p for p in rx))
        _assert_matches(x - x, (0, 0, 0, 0))
        assert FieldElem.parse(str(x)) == x


def _ref_random_coords(rng, max_numerator, max_denominator, nonzero):
    while True:
        coords = tuple(Fraction(rng.randint(-max_numerator, max_numerator),
                                rng.randint(1, max_denominator)) for _ in range(4))
        if any(coords) or not nonzero:
            return coords


@pytest.mark.parametrize("nonzero", [False, True])
@pytest.mark.parametrize("bound", [1, 9, 10 ** 3, 10 ** 6])
def test_random_element_draws_match_fraction_reference(bound, nonzero):
    # bound 1 draws zero often enough to exercise the nonzero retry
    rng, twin = random.Random(RNG_SEED + 7), random.Random(RNG_SEED + 7)
    for _ in range(300):
        x = random_element(rng, bound, bound, nonzero)
        ref = _ref_random_coords(twin, bound, bound, nonzero)
        assert x._v == FieldElem(*ref)._v
        _assert_reduced(x)
    assert rng.getstate() == twin.getstate()


class _DrawBudget(random.Random):
    """A Random that refuses to draw past a fixed budget, so a sampler
    that would never return fails instead of hanging the suite."""

    def __init__(self, seed, budget):
        super().__init__(seed)
        self.left = budget

    def getrandbits(self, k):
        self.left -= 1
        if self.left < 0:
            raise RuntimeError("draw budget exhausted")
        return super().getrandbits(k)


@pytest.mark.parametrize("max_numerator, max_denominator, nonzero",
                         [(0, 9, True), (-1, 9, False), (9, 0, False)])
def test_random_element_refuses_an_empty_range(max_numerator, max_denominator, nonzero):
    # (0, 9, True) has no nonzero element to draw, and getrandbits(0) of a
    # zero denominator bound would never fall below it: both used to spin
    with pytest.raises(ValueError, match="empty range"):
        random_element(_DrawBudget(0, 1000), max_numerator, max_denominator, nonzero)


def test_random_element_draws_zero_from_the_smallest_range():
    # the smallest nonzero range, (1, 1, nonzero), is in the reference test
    assert random_element(_DrawBudget(0, 1000), 0, 1) == ZERO


def test_equal_denominator_sums_are_reduced():
    half = FieldElem(Fraction(1, 2), Fraction(1, 2), 0, Fraction(-1, 2))
    total = half + half
    _assert_reduced(total)
    assert total == FieldElem(1, 1, 0, -1)
    _assert_reduced(half - half)
    _assert_reduced(half * 2)


def test_inverse_has_positive_denominator():
    # The norms of 2 + 2√2 + √6 and 1 + √2 + √3 are −92 and −8.
    for x in (FieldElem(-3), FieldElem(2, 2, 0, 1), FieldElem(1, 1, 1),
              FieldElem(-1, Fraction(1, 3), -1, 1), SQRT3 - 2):
        _assert_reduced(x.inv())
        assert x * x.inv() == ONE


def _conjugate_product_inverse(x):
    # the route before the tower: 1/x = t / (x·t) with t the product of
    # the three nontrivial conjugates, over the integer numerators
    a, b, c, d, q = x._v
    t = _ref_mul(_ref_mul((a, -b, c, -d), (a, b, -c, -d)), (a, -b, -c, d))
    norm, *rest = _ref_mul((a, b, c, d), t)
    assert not any(rest)
    return FieldElem(*(Fraction(q * p, norm) for p in t))


def test_tower_inverse_matches_the_conjugate_product():
    # every pattern of nonzero coordinates, then seeded draws
    patterns = [FieldElem(*(Fraction((-1) ** k * (k + 2), k + 3) if mask >> k & 1 else 0
                            for k in range(4)))
                for mask in range(1, 16)]
    rng = random.Random(RNG_SEED + 30)
    draws = [random_element(rng, bound, bound, nonzero=True)
             for bound in (1, 2, 9, 1000) for _ in range(5000)]
    for x in patterns + draws:
        inverse = x.inv()
        _assert_reduced(inverse)
        assert inverse == _conjugate_product_inverse(x), x


def test_hash_agrees_with_equal_rationals():
    for value in (0, 1, -1, -2, 7, 10 ** 30, Fraction(1, 2), Fraction(-5, 7),
                  Fraction(10 ** 20 + 1, 3)):
        elem = FieldElem(value)
        assert elem == value and hash(elem) == hash(value)
        assert len({elem, value}) == 1
    assert hash(SQRT2 * SQRT2) == hash(2) and {SQRT2 * SQRT2: "two"}[2] == "two"
    assert len({FieldElem(Fraction(1, 2)), Fraction(1, 2)}) == 1


def test_hash_of_irrational_elements():
    assert hash(SQRT2 * SQRT3) == hash(SQRT6)
    assert len({SQRT6, SQRT2 * SQRT3, SQRT3 * SQRT2}) == 1
    x = FieldElem(Fraction(1, 3), Fraction(2, 3))
    assert hash(x) == hash(FieldElem.parse(str(x))) == hash(x + ZERO)
    assert len({x, -x, x * 2, SQRT2, ONE}) == 5


def test_parse_refuses_zero_denominator():
    for text in ("1/0", "(1/0)√2", "1 + 3/00", "2/0√3"):
        with pytest.raises(ValueError, match="cannot parse field element"):
            FieldElem.parse(text)
    assert FieldElem.parse("1/01") == ONE
