"""Second-order jets (truncated Taylor expansions) over exact rationals.

A :class:`Jet2` represents

    c00 + c10*e1 + c01*e2 + c20*e1^2 + c11*e1*e2 + c02*e2^2

where e1, e2 are infinitesimals and every monomial of total degree > 2 is
discarded.  Lifting a rational expression through ``Jet2.variable(a)``
computes its exact value and derivatives at ``a``:

    f(Jet2.variable(a)).first()   == f'(a)
    f(Jet2.variable(a)).second()  == f''(a)

and with two variables the (1,1) coefficient is the mixed second partial.
Truncation stops at total order 2 because nothing in the catalog is
differentiated more than twice (once in each of two parameters, or twice in
one).

A jet is stored as a Fraction is: six int slots, one per coefficient in the
order above, over one int denominator, positive and in lowest terms, so
``numerator`` (the jet of the slots) and ``denominator`` are plain reads
and the exact row kernels (exact.py) run on the numerator as on an int.
``+``, ``-`` and ``*`` are written out slot by slot in ints over the common
or product denominator (the product is the truncated convolution), reduced
by one gcd that a denominator of 1 skips.  An int or Fraction operand is
not made a jet, and only division by a jet goes through the series inverse.
``Jet2({key: value})`` builds a jet from coefficients keyed by (order in
e1, order in e2); ``.c`` reads back the nonzero ones, ints over a
denominator of 1, and ``value``, ``first``, ``second`` and ``mixed`` return
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exact import Pole

__all__ = ["Jet2"]

_new = object.__new__
_KEYS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _jet(slots: tuple, den: int = 1) -> "Jet2":
    """The jet slots / den, den > 0, in lowest terms."""
    if den != 1 and (g := gcd(den, *slots)) != 1:
        slots, den = tuple([val // g for val in slots]), den // g
    out = _new(Jet2)
    out._s, out._d = slots, den
    return out


class Jet2:
    """Bivariate jet of total order <= 2: six int slots over one int denominator."""

    __slots__ = ("_s", "_d")

    def __init__(self, coeffs: dict[tuple[int, int], int | Fraction]):
        values = [coeffs.get(key, 0) for key in _KEYS]
        self._d = lcm(*[val.denominator for val in values])
        self._s = tuple([val.numerator * (self._d // val.denominator) for val in values])

    @classmethod
    def const(cls, value) -> "Jet2":
        return cls({(0, 0): value})

    @classmethod
    def variable(cls, base, slot: int = 1) -> "Jet2":
        """base + e_slot, for slot in {1, 2}."""
        if slot not in (1, 2):
            raise ValueError("slot must be 1 or 2")
        return cls({(0, 0): base, (2 - slot, slot - 1): 1})

    # -- coefficient access -------------------------------------------------

    @property
    def c(self) -> dict[tuple[int, int], int | Fraction]:
        """The nonzero coefficients, keyed by (order in e1, order in e2)."""
        d = self._d
        return {key: val if d == 1 else Fraction(val, d)
                for key, val in zip(_KEYS, self._s) if val}

    @property
    def value(self) -> Fraction:
        """Constant coefficient (the value at the base point)."""
        return Fraction(self._s[0], self._d)

    def first(self, slot: int = 1) -> Fraction:
        """First derivative in e_slot."""
        return Fraction(self._s[slot], self._d)

    def second(self, slot: int = 1) -> Fraction:
        """Second derivative in e_slot (twice the e_slot^2 coefficient)."""
        return Fraction(2 * self._s[3 if slot == 1 else 5], self._d)

    def mixed(self) -> Fraction:
        """Mixed second partial (the e1*e2 coefficient)."""
        return Fraction(self._s[4], self._d)

    @property
    def denominator(self) -> int:
        """The least positive int that makes every coefficient an int."""
        return self._d

    @property
    def numerator(self) -> "Jet2":
        """self * denominator, with int coefficients."""
        return _jet(self._s)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        a0, a1, a2, a11, a12, a22 = self._s
        d = self._d
        if type(other) is Jet2:
            if d == other._d:
                b0, b1, b2, b11, b12, b22 = other._s
                return _jet((a0 + b0, a1 + b1, a2 + b2, a11 + b11, a12 + b12, a22 + b22), d)
            e = other._d
            return _jet(tuple([a * e + b * d for a, b in zip(self._s, other._s)]), d * e)
        if type(other) is int:
            return _jet((a0 + other * d, a1, a2, a11, a12, a22), d)
        if isinstance(other, (int, Fraction)):
            return self + Jet2.const(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if type(other) is int:
            a0, a1, a2, a11, a12, a22 = self._s
            return _jet((a0 - other * self._d, a1, a2, a11, a12, a22), self._d)
        return self + -other if isinstance(other, (Jet2, int, Fraction)) else NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is Jet2:
            a0, a1, a2, a11, a12, a22 = self._s
            b0, b1, b2, b11, b12, b22 = other._s
            return _jet((a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a2 * b0,
                         a0 * b11 + a1 * b1 + a11 * b0,
                         a0 * b12 + a1 * b2 + a2 * b1 + a12 * b0,
                         a0 * b22 + a2 * b2 + a22 * b0), self._d * other._d)
        if type(other) is not int and not isinstance(other, (int, Fraction)):
            return NotImplemented
        num, den = other.numerator, other.denominator
        a0, a1, a2, a11, a12, a22 = self._s
        return _jet((a0 * num, a1 * num, a2 * num, a11 * num, a12 * num, a22 * num),
                    self._d * den)

    __rmul__ = __mul__

    def inverse(self) -> "Jet2":
        """Multiplicative inverse by series inversion to order 2; Pole at a zero constant term."""
        a0, a1, a2, a11, a12, a22 = self._s
        if not a0:
            raise Pole("jet division pole")
        # self = (a0 + u) / d with u nilpotent, so 1/self = d (a0^2 - a0 u + u^2) / a0^3
        d = self._d if a0 > 0 else -self._d
        return _jet((d * a0 * a0, -d * a0 * a1, -d * a0 * a2, d * (a1 * a1 - a0 * a11),
                     d * (2 * a1 * a2 - a0 * a12), d * (a2 * a2 - a0 * a22)), abs(a0) ** 3)

    def __truediv__(self, other):
        if type(other) is Jet2:
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            if not other:
                raise Pole("jet division pole")
            return self * Fraction(other.denominator, other.numerator)
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self if exponent >= 0 else self.inverse()
        out = _jet((1, 0, 0, 0, 0, 0))
        for _ in range(abs(exponent)):
            out = out * base
        return out

    # -- comparison / display -----------------------------------------------

    def __eq__(self, other):
        if type(other) is Jet2:
            return self._s == other._s and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return self == Jet2.const(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"Jet2({self.c})"
