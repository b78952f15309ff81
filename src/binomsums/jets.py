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

A jet stores its six coefficients as six fixed slots, in the order above,
and ``+``, ``-`` and ``*`` are written out slot by slot (the product is the
truncated convolution).  An int or Fraction operand is a constant: it adds
to the first slot, or scales every slot, without being turned into a jet;
``jet / d`` for a rational d divides every slot.  Only division by a jet
goes through the series inverse.  ``Jet2({key: value})`` builds a jet from
coefficients keyed by (order in e1, order in e2), and ``.c`` reads back the
nonzero ones the same way.

Coefficients are exact rationals.  Int coefficients stay ints through
``+``, ``-``, ``*`` and ``**``, so a jet reads as ``numerator /
denominator`` like a Fraction: the numerator is the jet with int
coefficients over the least positive int denominator.  The exact row
kernels (exact.py) run on that numerator as on an int, and divide once at
the end.  The accessors ``value``, ``first``, ``second`` and ``mixed``
always return Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, neg, sub

__all__ = ["Jet2", "JetDivisionPole"]

_KEYS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


class JetDivisionPole(ZeroDivisionError):
    """Division by a jet whose constant coefficient is zero."""


def _jet(slots: tuple) -> "Jet2":
    out = Jet2.__new__(Jet2)
    out._s = slots
    return out


class Jet2:
    """Bivariate jet of total order <= 2 with int or Fraction coefficients."""

    __slots__ = ("_s",)

    def __init__(self, coeffs: dict[tuple[int, int], int | Fraction]):
        self._s = tuple(coeffs.get(key, 0) for key in _KEYS)

    @classmethod
    def const(cls, value) -> "Jet2":
        return _jet((Fraction(value), 0, 0, 0, 0, 0))

    @classmethod
    def variable(cls, base, slot: int = 1) -> "Jet2":
        """base + e_slot, for slot in {1, 2}."""
        if slot not in (1, 2):
            raise ValueError("slot must be 1 or 2")
        return _jet((Fraction(base), 2 - slot, slot - 1, 0, 0, 0))

    # -- coefficient access -------------------------------------------------

    @property
    def c(self) -> dict[tuple[int, int], int | Fraction]:
        """The nonzero coefficients, keyed by (order in e1, order in e2)."""
        return {key: val for key, val in zip(_KEYS, self._s) if val}

    @property
    def value(self) -> Fraction:
        """Constant coefficient (the value at the base point)."""
        return Fraction(self._s[0])

    def first(self, slot: int = 1) -> Fraction:
        """First derivative in e_slot."""
        return Fraction(self._s[slot])

    def second(self, slot: int = 1) -> Fraction:
        """Second derivative in e_slot (twice the e_slot^2 coefficient)."""
        return 2 * Fraction(self._s[3 if slot == 1 else 5])

    def mixed(self) -> Fraction:
        """Mixed second partial (the e1*e2 coefficient)."""
        return Fraction(self._s[4])

    @property
    def denominator(self) -> int:
        """The least positive int that makes every coefficient an int."""
        return lcm(*[val.denominator for val in self._s])

    @property
    def numerator(self) -> "Jet2":
        """self * denominator, with int coefficients."""
        den = self.denominator
        return _jet(tuple(val.numerator * (den // val.denominator) for val in self._s))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return _jet(tuple(map(add, self._s, other._s)))
        if isinstance(other, (int, Fraction)):
            a0, a1, a2, a11, a12, a22 = self._s
            return _jet((a0 + other, a1, a2, a11, a12, a22))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _jet(tuple(map(neg, self._s)))

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return _jet(tuple(map(sub, self._s, other._s)))
        if isinstance(other, (int, Fraction)):
            a0, a1, a2, a11, a12, a22 = self._s
            return _jet((a0 - other, a1, a2, a11, a12, a22))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            a0, a1, a2, a11, a12, a22 = self._s
            return _jet((other - a0, -a1, -a2, -a11, -a12, -a22))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet2):
            a0, a1, a2, a11, a12, a22 = self._s
            b0, b1, b2, b11, b12, b22 = other._s
            return _jet((a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a2 * b0,
                         a0 * b11 + a1 * b1 + a11 * b0,
                         a0 * b12 + a1 * b2 + a2 * b1 + a12 * b0,
                         a0 * b22 + a2 * b2 + a22 * b0))
        if isinstance(other, (int, Fraction)):
            a0, a1, a2, a11, a12, a22 = self._s
            return _jet((a0 * other, a1 * other, a2 * other, a11 * other, a12 * other,
                         a22 * other))
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "Jet2":
        """Multiplicative inverse by series inversion to order 2."""
        c0 = self.value
        if not c0:
            raise JetDivisionPole("jet division pole")
        # self = c0 (1 - u) with u nilpotent, so 1/self = (1 + u + u^2) / c0
        u = _jet((0,) + tuple(-val / c0 for val in self._s[1:]))
        return (1 + u + u * u) * (1 / c0)

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            if not other:
                raise JetDivisionPole("jet division pole")
            return _jet(tuple(Fraction(val, other) for val in self._s))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = _jet((1, 0, 0, 0, 0, 0))
        for _ in range(exponent):
            out = out * self
        return out

    # -- comparison / display -----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Jet2):
            return self._s == other._s
        if isinstance(other, (int, Fraction)):
            return self._s == (other, 0, 0, 0, 0, 0)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        names = ("", "*e1", "*e2", "*e1^2", "*e1*e2", "*e2^2")
        parts = [f"{self._s[i]}{names[i]}" for i in (0, 2, 1, 5, 4, 3) if self._s[i]]
        return "Jet2(" + (" + ".join(parts) or "0") + ")"
