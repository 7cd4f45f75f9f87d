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
