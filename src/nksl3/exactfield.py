"""Exact arithmetic in the real quartic field Q(√2, √3).

Every element is a + b·√2 + c·√3 + d·√6 with rational coordinates.  The
basis is multiplicatively closed via √2·√3 = √6, √2·√6 = 2√3 and
√3·√6 = 3√2, so all matrix entries appearing downstream stay inside the
field and every identity can be checked by exact equality.

An element is stored as four integer numerators over one positive common
denominator, (a, b, c, d, q), with gcd(a, b, c, d, q) = 1, so arithmetic
runs on ints alone and each result is reduced by one gcd of five.  The
coordinates a/q, …, d/q are read as Fractions.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import total_ordering
from typing import Iterable

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT6 = math.sqrt(6.0)

Rational = int | Fraction


def _to_fraction(x: Rational | str) -> Fraction:
    if isinstance(x, (int, str, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"rational coordinate expected, got {type(x).__name__}")


def _sign_int(q: int) -> int:
    return (q > 0) - (q < 0)


def _sign_sqrt2(p: int, q: int) -> int:
    """Exact sign of p + q·√2 with p, q integers."""
    if not q:
        return _sign_int(p)
    if not p:
        return _sign_int(q)
    sp = _sign_int(p)
    if sp == _sign_int(q):
        return sp
    # p and q have opposite signs: the sign follows p exactly when
    # p² beats 2q², since (p + q√2)(p − q√2) = p² − 2q².
    return sp * _sign_int(p * p - 2 * q * q)


def signed_sum(terms: Iterable[tuple[bool, str, str]]) -> str:
    """The text of a sum from its nonzero terms (negative, magnitude, unit),
    in order: "-1/2 + √2", "e1 - (1/3)e5", "0" when there is none.  Before a
    unit a magnitude of 1 is left out and one that is not digits alone is
    parenthesized; a term with no unit is its magnitude."""
    parts: list[str] = []
    for negative, magnitude, unit in terms:
        if unit and magnitude == "1":
            body = unit
        elif unit and not magnitude.isdigit():
            body = f"({magnitude}){unit}"
        else:
            body = magnitude + unit
        if parts:
            parts.append(f"- {body}" if negative else f"+ {body}")
        else:
            parts.append(f"-{body}" if negative else body)
    return " ".join(parts) or "0"


@total_ordering
class FieldElem:
    """An element of Q(√2, √3) in coordinates over {1, √2, √3, √6}.

    Immutable.  The reduced tuple (a, b, c, d, q) of a value is unique
    (zero is (0, 0, 0, 0, 1)), so equality is componentwise and a value is
    zero iff all four numerators vanish.
    """

    __slots__ = ("_v",)

    def __init__(self, a: Rational | str = 0, b: Rational | str = 0,
                 c: Rational | str = 0, d: Rational | str = 0) -> None:
        coords = [_to_fraction(x) for x in (a, b, c, d)]
        q = math.lcm(*(x.denominator for x in coords))
        # Coprime already: each coordinate is reduced and q is their lcm.
        _SET_V(self, (*(x.numerator * (q // x.denominator) for x in coords), q))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FieldElem is immutable")

    @property
    def a(self) -> Fraction:
        return Fraction(self._v[0], self._v[4])

    @property
    def b(self) -> Fraction:
        return Fraction(self._v[1], self._v[4])

    @property
    def c(self) -> Fraction:
        return Fraction(self._v[2], self._v[4])

    @property
    def d(self) -> Fraction:
        return Fraction(self._v[3], self._v[4])

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        *nums, q = self._v
        return tuple(Fraction(n, q) for n in nums)

    def __bool__(self) -> bool:
        a, b, c, d, _ = self._v
        return bool(a or b or c or d)

    def __hash__(self) -> int:
        a, b, c, d, q = self._v
        if b or c or d:
            return hash(self._v)
        # A rational element equals the int or Fraction a/q: hash like it.
        return hash(a) if q == 1 else hash(Fraction(a, q))

    def __eq__(self, other: object) -> bool:
        if type(other) is not FieldElem:
            other = coerce(other)
            if other is None:
                return NotImplemented
        return self._v == other._v

    def __lt__(self, other: object) -> bool:
        other = coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() < 0

    def __neg__(self) -> "FieldElem":
        a, b, c, d, q = self._v
        return _reduced(-a, -b, -c, -d, q)

    def __add__(self, other: object) -> "FieldElem":
        if type(other) is not FieldElem:
            other = coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, c1, d1, q1 = self._v
        a2, b2, c2, d2, q2 = other._v
        if not (a2 or b2 or c2 or d2):
            return self
        if not (a1 or b1 or c1 or d1):
            return other
        if q1 == q2:
            return _reduced(a1 + a2, b1 + b2, c1 + c2, d1 + d2, q1)
        return _reduced(a1 * q2 + a2 * q1, b1 * q2 + b2 * q1,
                        c1 * q2 + c2 * q1, d1 * q2 + d2 * q1, q1 * q2)

    __radd__ = __add__

    def __sub__(self, other: object) -> "FieldElem":
        if type(other) is not FieldElem:
            other = coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, c1, d1, q1 = self._v
        a2, b2, c2, d2, q2 = other._v
        if q1 == q2:
            return _reduced(a1 - a2, b1 - b2, c1 - c2, d1 - d2, q1)
        return _reduced(a1 * q2 - a2 * q1, b1 * q2 - b2 * q1,
                        c1 * q2 - c2 * q1, d1 * q2 - d2 * q1, q1 * q2)

    def __rsub__(self, other: object) -> "FieldElem":
        other = coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other: object) -> "FieldElem":
        if type(other) is not FieldElem:
            other = coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, c1, d1, q1 = self._v
        a2, b2, c2, d2, q2 = other._v
        # Reduced, a rational 1 is (1, 0, 0, 0, 1) and 0 is (0, 0, 0, 0, 1).
        if not (b2 or c2 or d2):
            if a2 == q2 or not a2:
                return self if a2 else ZERO
            return _reduced(a1 * a2, b1 * a2, c1 * a2, d1 * a2, q1 * q2)
        if not (b1 or c1 or d1):
            if a1 == q1 or not a1:
                return other if a1 else ZERO
            return _reduced(a1 * a2, a1 * b2, a1 * c2, a1 * d2, q1 * q2)
        return _reduced(
            a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
            q1 * q2,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "FieldElem":
        other = coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other: object) -> "FieldElem":
        other = coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, exponent: int) -> "FieldElem":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inv() ** (-exponent)
        result = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inv(self) -> "FieldElem":
        """Exact inverse, via the product of the three nontrivial conjugates.

        x·σ(x)·τ(x)·στ(x) is fixed by the whole conjugation group, hence
        rational, so the inverse is that rational's reciprocal times the
        conjugate product.
        """
        if not self:
            raise ZeroDivisionError("inverse of the zero field element")
        a, b, c, d, q = self._v
        t = (_reduced(a, -b, c, -d, q) * _reduced(a, b, -c, -d, q)
             * _reduced(a, -b, -c, d, q))
        na, nb, nc, nd, nq = (self * t)._v
        if nb or nc or nd:
            raise ArithmeticError(f"the conjugate norm of {self} is not rational")
        if na < 0:
            na, nq = -na, -nq
        ta, tb, tc, td, tq = t._v
        return _reduced(ta * nq, tb * nq, tc * nq, td * nq, tq * na)

    def sign(self) -> int:
        """Exact sign in the real embedding with √2, √3 > 0."""
        # The denominator is positive, so the numerators carry the sign.
        a, b, c, d, _ = self._v
        if not (c or d):
            return _sign_sqrt2(a, b)
        if not (a or b):
            return _sign_sqrt2(c, d)
        su = _sign_sqrt2(a, b)
        sv = _sign_sqrt2(c, d)
        if su == sv:
            return su
        # x = u + v√3 with u, v in Q(√2) of opposite sign: compare
        # u² against 3v² inside Q(√2).
        t0 = a * a + 2 * b * b - 3 * (c * c + 2 * d * d)
        t1 = 2 * a * b - 6 * c * d
        return su * _sign_sqrt2(t0, t1)

    def to_float(self) -> float:
        # int / int is correctly rounded, as float(Fraction) is.
        a, b, c, d, q = self._v
        return a / q + b / q * _SQRT2 + c / q * _SQRT3 + d / q * _SQRT6

    __float__ = to_float

    def __str__(self) -> str:
        return signed_sum((coef < 0, str(abs(coef)), radical)
                          for coef, radical in zip(self.coords, ("", "√2", "√3", "√6"))
                          if coef)

    def __repr__(self) -> str:
        return f"FieldElem({self})"

    @classmethod
    def parse(cls, text: str) -> "FieldElem":
        """Parse the rendering produced by str(): terms p/q, n√2, (p/q)√3, ..."""
        coords = {"": Fraction(0), "2": Fraction(0), "3": Fraction(0), "6": Fraction(0)}
        pos = 0
        first = True
        stripped = text.strip()
        if not stripped:
            raise ValueError("empty field element text")
        while pos < len(stripped):
            match = _TERM_RE.match(stripped, pos)
            if match is None or match.end() == pos:
                raise ValueError(f"cannot parse field element: {text!r}")
            sign_txt, paren, plain, radical = match.groups()
            if paren is None and plain is None and radical is None:
                raise ValueError(f"cannot parse field element: {text!r}")
            if not first and not sign_txt:
                raise ValueError(f"missing sign between terms: {text!r}")
            coef = Fraction(paren if paren is not None else plain) \
                if (paren is not None or plain is not None) else Fraction(1)
            if sign_txt == "-":
                coef = -coef
            coords[radical or ""] += coef
            pos = match.end()
            first = False
        return cls(coords[""], coords["2"], coords["3"], coords["6"])


# A denominator needs a nonzero digit, so "1/0" is refused like any other
# text the grammar does not cover.
_TERM_RE = re.compile(
    r"\s*([+-])?\s*"
    r"(?:\((\d+(?:/0*[1-9]\d*)?)\)|(\d+(?:/0*[1-9]\d*)?))?"
    r"\s*(?:√([236]))?\s*"
)


def coerce(x: object) -> FieldElem | None:
    """x as a FieldElem if it is one, an int or a Fraction (not a bool), else None."""
    if isinstance(x, FieldElem):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return _reduced(int(x), 0, 0, 0, 1)
    if type(x) is Fraction:
        return _reduced(x.numerator, 0, 0, 0, x.denominator)
    return None


_SET_V = FieldElem._v.__set__


def _reduced(a: int, b: int, c: int, d: int, q: int) -> FieldElem:
    """The element (a + b√2 + c√3 + d√6)/q, q > 0, in lowest terms."""
    if q != 1:
        g = math.gcd(a, b, c, d, q)
        if g != 1:
            a, b, c, d, q = a // g, b // g, c // g, d // g, q // g
    elem = object.__new__(FieldElem)
    _SET_V(elem, (a, b, c, d, q))
    return elem


ZERO = FieldElem(0)
ONE = FieldElem(1)
SQRT2 = FieldElem(0, 1)
SQRT3 = FieldElem(0, 0, 1)
SQRT6 = FieldElem(0, 0, 0, 1)


def random_element(rng, max_numerator: int = 9, max_denominator: int = 9,
                   nonzero: bool = False) -> FieldElem:
    """Draw a small random element, each int as CPython's `randint` draws it."""
    if max_numerator < (1 if nonzero else 0) or max_denominator < 1:
        raise ValueError(f"empty range: {max_numerator=}, {max_denominator=}, {nonzero=}")
    width, getrandbits = 2 * max_numerator + 1, rng.getrandbits
    nbits, dbits = width.bit_length(), max_denominator.bit_length()
    while True:
        pairs = []
        for _ in range(4):
            while (n := getrandbits(nbits)) >= width:
                pass
            while (d := getrandbits(dbits)) >= max_denominator:
                pass
            pairs.append((n - max_numerator, d + 1))
        (n1, d1), (n2, d2), (n3, d3), (n4, d4) = pairs
        q = math.lcm(d1, d2, d3, d4)
        elem = _reduced(n1 * (q // d1), n2 * (q // d2), n3 * (q // d3), n4 * (q // d4), q)
        if elem or not nonzero:
            return elem
