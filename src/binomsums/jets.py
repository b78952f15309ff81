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

All coefficients are Fractions; ints and Fractions coerce to constant jets,
so jets can be dropped into any code written for rational scalars.

``compose_taylor`` evaluates polynomials f at a jet x = x0 + d, d nilpotent,
from their Taylor coefficients at x0: f(x) = f(x0) + f'(x0) d + f''(x0)/2 d^2.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["Jet2", "JetDivisionPole"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class JetDivisionPole(ZeroDivisionError):
    """Division by a jet whose constant coefficient is zero."""


def _coerce(x):
    if isinstance(x, Jet2):
        return x
    if isinstance(x, int):
        return Jet2({(0, 0): Fraction(x)})
    if isinstance(x, Fraction):
        return Jet2({(0, 0): x})
    return None


class Jet2:
    """Bivariate jet of total order <= 2 with Fraction coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[tuple[int, int], Fraction]):
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
        return cls({(0, 0): Fraction(base), eps: _ONE})

    # -- coefficient access -------------------------------------------------

    @property
    def value(self) -> Fraction:
        """Constant coefficient (the value at the base point)."""
        return self.c.get((0, 0), _ZERO)

    def first(self, slot: int = 1) -> Fraction:
        """First derivative in e_slot."""
        key = (1, 0) if slot == 1 else (0, 1)
        return self.c.get(key, _ZERO)

    def second(self, slot: int = 1) -> Fraction:
        """Second derivative in e_slot (twice the e_slot^2 coefficient)."""
        key = (2, 0) if slot == 1 else (0, 2)
        return 2 * self.c.get(key, _ZERO)

    def mixed(self) -> Fraction:
        """Mixed second partial (the e1*e2 coefficient)."""
        return self.c.get((1, 1), _ZERO)

    def compose_taylor(self, rows) -> list["Jet2"]:
        """[(a0 + a1 d + a2 d^2) / den for (a0, a1, a2, den) in rows], with
        d = self - self.value the nilpotent part (d^3 = 0)."""
        d = self - self.value
        d2 = (d * d).c
        out = []
        for a0, a1, a2, den in rows:
            c1, c2 = Fraction(a1, den), Fraction(a2, den)
            coeffs = {key: c1 * val for key, val in d.c.items()}
            for key, val in d2.items():
                coeffs[key] = coeffs.get(key, _ZERO) + c2 * val
            coeffs[(0, 0)] = Fraction(a0, den)
            out.append(Jet2(coeffs))
        return out

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.c)
        for key, val in o.c.items():
            out[key] = out.get(key, _ZERO) + val
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
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), a in self.c.items():
            for (i2, j2), b in o.c.items():
                i, j = i1 + i2, j1 + j2
                if i + j > 2:
                    continue
                key = (i, j)
                out[key] = out.get(key, _ZERO) + a * b
        return Jet2(out)

    __rmul__ = __mul__

    def inverse(self) -> "Jet2":
        """Multiplicative inverse by series inversion to order 2."""
        c0 = self.value
        if not c0:
            raise JetDivisionPole("jet division pole")
        # self = c0 (1 - u) with u nilpotent, so 1/self = (1 + u + u^2) / c0
        u = Jet2({key: -val / c0 for key, val in self.c.items() if key != (0, 0)})
        one = Jet2({(0, 0): _ONE})
        return (one + u + u * u) * (1 / c0)

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
        out = Jet2({(0, 0): _ONE})
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
