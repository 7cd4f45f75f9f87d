"""Exact arithmetic in the real quartic field Q(√2, √3).

Every element is a + b·√2 + c·√3 + d·√6 with rational coordinates.  The
basis is multiplicatively closed via √2·√3 = √6, √2·√6 = 2√3 and
√3·√6 = 3√2, so all matrix entries appearing downstream stay inside the
field and every identity can be checked by exact equality.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import total_ordering

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT6 = math.sqrt(6.0)

Rational = int | Fraction


def _to_fraction(x: Rational | str) -> Fraction:
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, str, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"rational coordinate expected, got {type(x).__name__}")


def _sign_rat(q: Fraction) -> int:
    return (q > 0) - (q < 0)


def _sign_sqrt2(p: Fraction, q: Fraction) -> int:
    """Exact sign of p + q·√2 with p, q rational."""
    if not q:
        return _sign_rat(p)
    if not p:
        return _sign_rat(q)
    sp = _sign_rat(p)
    if sp == _sign_rat(q):
        return sp
    # p and q have opposite signs: the sign follows p exactly when
    # p² beats 2q², since (p + q√2)(p − q√2) = p² − 2q².
    return sp * _sign_rat(p * p - 2 * q * q)


@total_ordering
class FieldElem:
    """An element of Q(√2, √3) in coordinates over {1, √2, √3, √6}.

    Immutable.  The coordinates of a value are unique, so equality is
    componentwise and a value is zero iff all four coordinates vanish.
    """

    __slots__ = ("_a", "_b", "_c", "_d")

    def __init__(self, a: Rational | str = 0, b: Rational | str = 0,
                 c: Rational | str = 0, d: Rational | str = 0) -> None:
        object.__setattr__(self, "_a", _to_fraction(a))
        object.__setattr__(self, "_b", _to_fraction(b))
        object.__setattr__(self, "_c", _to_fraction(c))
        object.__setattr__(self, "_d", _to_fraction(d))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FieldElem is immutable")

    @classmethod
    def _raw(cls, a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> "FieldElem":
        elem = object.__new__(cls)
        object.__setattr__(elem, "_a", a)
        object.__setattr__(elem, "_b", b)
        object.__setattr__(elem, "_c", c)
        object.__setattr__(elem, "_d", d)
        return elem

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @property
    def c(self) -> Fraction:
        return self._c

    @property
    def d(self) -> Fraction:
        return self._d

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self._a, self._b, self._c, self._d)

    @property
    def is_rational(self) -> bool:
        return not (self._b or self._c or self._d)

    def __bool__(self) -> bool:
        return bool(self._a or self._b or self._c or self._d)

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._c, self._d))

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.coords == other.coords

    def __lt__(self, other: object) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() < 0

    def __neg__(self) -> "FieldElem":
        return FieldElem._raw(-self._a, -self._b, -self._c, -self._d)

    def __add__(self, other: object) -> "FieldElem":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return FieldElem._raw(self._a + other._a, self._b + other._b,
                              self._c + other._c, self._d + other._d)

    __radd__ = __add__

    def __sub__(self, other: object) -> "FieldElem":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return FieldElem._raw(self._a - other._a, self._b - other._b,
                              self._c - other._c, self._d - other._d)

    def __rsub__(self, other: object) -> "FieldElem":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other: object) -> "FieldElem":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a1, b1, c1, d1 = self.coords
        a2, b2, c2, d2 = other.coords
        if not (b2 or c2 or d2):
            return FieldElem._raw(a1 * a2, b1 * a2, c1 * a2, d1 * a2)
        if not (b1 or c1 or d1):
            return FieldElem._raw(a1 * a2, a1 * b2, a1 * c2, a1 * d2)
        return FieldElem._raw(
            a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "FieldElem":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other: object) -> "FieldElem":
        other = _coerce(other)
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
        a, b, c, d = self.coords
        s1 = FieldElem._raw(a, -b, c, -d)
        s2 = FieldElem._raw(a, b, -c, -d)
        s3 = FieldElem._raw(a, -b, -c, d)
        t = s1 * s2 * s3
        n = self * t
        if n._b or n._c or n._d:
            raise ArithmeticError(f"the conjugate norm of {self} is not rational")
        na = n._a
        return FieldElem._raw(t._a / na, t._b / na, t._c / na, t._d / na)

    def sign(self) -> int:
        """Exact sign in the real embedding with √2, √3 > 0."""
        a, b, c, d = self.coords
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
        return (float(self._a) + float(self._b) * _SQRT2
                + float(self._c) * _SQRT3 + float(self._d) * _SQRT6)

    def __float__(self) -> float:
        return self.to_float()

    def __str__(self) -> str:
        parts: list[str] = []
        for coef, radical in ((self._a, ""), (self._b, "√2"),
                              (self._c, "√3"), (self._d, "√6")):
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


_TERM_RE = re.compile(
    r"\s*([+-])?\s*"
    r"(?:\((\d+(?:/\d+)?)\)|(\d+(?:/\d+)?))?"
    r"\s*(?:√([236]))?\s*"
)


def _coerce(x: object) -> FieldElem | None:
    if isinstance(x, FieldElem):
        return x
    if (isinstance(x, int) and not isinstance(x, bool)) or type(x) is Fraction:
        return FieldElem._raw(Fraction(x), _F0, _F0, _F0)
    return None


_F0 = Fraction(0)

ZERO = FieldElem(0)
ONE = FieldElem(1)
SQRT2 = FieldElem(0, 1)
SQRT3 = FieldElem(0, 0, 1)
SQRT6 = FieldElem(0, 0, 0, 1)


def random_element(rng, max_numerator: int = 9, max_denominator: int = 9,
                   nonzero: bool = False) -> FieldElem:
    """Draw a small random element; used by the randomized identity sweeps."""
    while True:
        elem = FieldElem(*(Fraction(rng.randint(-max_numerator, max_numerator),
                                    rng.randint(1, max_denominator))
                           for _ in range(4)))
        if elem or not nonzero:
            return elem
