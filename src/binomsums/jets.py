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

Coefficients are exact rationals: ints and Fractions coerce to constant
jets, so jets can be dropped into any code written for rational scalars.
Int coefficients stay ints through ``+``, ``-``, ``*`` and ``**`` (an int
coerces to an int constant), so a jet reads as ``numerator / denominator``
like a Fraction: the numerator is the jet with int coefficients over the
least positive int denominator.  The exact row kernels (exact.py) run on
that numerator as on an int, and divide once at the end.  The accessors
``value``, ``first``, ``second`` and ``mixed`` always return Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = ["Jet2", "JetDivisionPole"]


class JetDivisionPole(ZeroDivisionError):
    """Division by a jet whose constant coefficient is zero."""


def _coerce(x):
    if isinstance(x, Jet2):
        return x
    if isinstance(x, (int, Fraction)):
        return Jet2({(0, 0): x})
    return None


class Jet2:
    """Bivariate jet of total order <= 2 with int or Fraction coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[tuple[int, int], int | Fraction]):
        self.c = {key: val for key, val in coeffs.items() if val}

    @classmethod
    def const(cls, value) -> "Jet2":
        return cls({(0, 0): Fraction(value)})

    @classmethod
    def variable(cls, base, slot: int = 1) -> "Jet2":
        """base + e_slot, for slot in {1, 2}."""
        if slot not in (1, 2):
            raise ValueError("slot must be 1 or 2")
        eps = (1, 0) if slot == 1 else (0, 1)
        return cls({(0, 0): Fraction(base), eps: 1})

    # -- coefficient access -------------------------------------------------

    @property
    def value(self) -> Fraction:
        """Constant coefficient (the value at the base point)."""
        return Fraction(self.c.get((0, 0), 0))

    def first(self, slot: int = 1) -> Fraction:
        """First derivative in e_slot."""
        key = (1, 0) if slot == 1 else (0, 1)
        return Fraction(self.c.get(key, 0))

    def second(self, slot: int = 1) -> Fraction:
        """Second derivative in e_slot (twice the e_slot^2 coefficient)."""
        key = (2, 0) if slot == 1 else (0, 2)
        return 2 * Fraction(self.c.get(key, 0))

    def mixed(self) -> Fraction:
        """Mixed second partial (the e1*e2 coefficient)."""
        return Fraction(self.c.get((1, 1), 0))

    @property
    def denominator(self) -> int:
        """The least positive int that makes every coefficient an int."""
        return lcm(*(val.denominator for val in self.c.values()))

    @property
    def numerator(self) -> "Jet2":
        """self * denominator, with int coefficients."""
        den = self.denominator
        return Jet2({key: val.numerator * (den // val.denominator)
                     for key, val in self.c.items()})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.c)
        for key, val in o.c.items():
            out[key] = out.get(key, 0) + val
        return Jet2(out)

    __radd__ = __add__

    def __neg__(self):
        return Jet2({key: -val for key, val in self.c.items()})

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        out: dict[tuple[int, int], int | Fraction] = {}
        for (i1, j1), a in self.c.items():
            for (i2, j2), b in o.c.items():
                i, j = i1 + i2, j1 + j2
                if i + j > 2:
                    continue
                key = (i, j)
                out[key] = out.get(key, 0) + a * b
        return Jet2(out)

    __rmul__ = __mul__

    def inverse(self) -> "Jet2":
        """Multiplicative inverse by series inversion to order 2."""
        c0 = self.value
        if not c0:
            raise JetDivisionPole("jet division pole")
        # self = c0 (1 - u) with u nilpotent, so 1/self = (1 + u + u^2) / c0
        u = Jet2({key: -val / c0 for key, val in self.c.items() if key != (0, 0)})
        return (1 + u + u * u) * (1 / c0)

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = Jet2({(0, 0): 1})
        for _ in range(exponent):
            out = out * self
        return out

    # -- comparison / display -----------------------------------------------

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.c == o.c

    __hash__ = None

    def __repr__(self):
        if not self.c:
            return "Jet2(0)"
        names = {(0, 0): "", (1, 0): "*e1", (0, 1): "*e2",
                 (2, 0): "*e1^2", (1, 1): "*e1*e2", (0, 2): "*e2^2"}
        parts = [f"{self.c[key]}{names[key]}"
                 for key in sorted(self.c, key=lambda k: (k[0] + k[1], k))]
        return "Jet2(" + " + ".join(parts) + ")"
