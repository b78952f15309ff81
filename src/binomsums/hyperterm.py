"""Structured hypergeometric terms with exact shift ratios.

A :class:`HyperTerm` is

    constant * (-1)^sign(vars) * prod_i binom(top_i, bottom_i)^(+1|-1)

where sign, top_i and bottom_i are affine forms in the catalog variables
with integer variable coefficients (so that shifting any variable by one
moves every binomial argument by an integer).  Three primitives are exposed:

* ``bind`` -- fixes some variables (a parameter draw) once and returns a
  :class:`BoundTerm`, which evaluates the term on the free variables
  (n, j, k in the certificate checks).  Each affine form is split into a
  Fraction part from the constant and the fixed variables plus integer
  coefficients on the free ones, so at an integer point every binomial is
  part + offset with int offsets.  The bound term memoizes binomial values
  under the all-int key (part id, top offset, bottom offset), where the
  part id numbers the distinct (top part, bottom part) pairs; the memo
  lives and dies with the bound term, one per draw.

* ``evaluate`` -- the exact rational value at a concrete assignment, which
  is ``bind`` of every variable followed by one evaluation.  A factor is
  evaluable when its lower argument is an integer (polynomial
  falling-factorial form) or when top - bottom is an integer m, in which
  case binom(top, bottom) = binom(bottom + m, m) (zero for negative m).
  Every point is a full evaluation: the sign, then every factor in order,
  with the same exceptions and messages with or without the memo.

* ``shift_ratio`` -- T(v+1)/T(v) as a canonical rational function, built
  factor by factor from the ratio rule Gamma(x+m)/Gamma(x) =
  prod_{i=0..m-1}(x+i).  This is the bridge from hypergeometric terms to
  the rational-function algebra in which certificates are verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import binom_poly, binom_upper_shift
from .poly import VARS, MultiPoly, RatFunc

__all__ = [
    "AffineForm",
    "BoundTerm",
    "HyperTerm",
    "HyperTermPole",
    "NonHypergeometricShift",
]


class NonHypergeometricShift(ValueError):
    """A unit shift moved a binomial argument by a non-integer."""


class HyperTermPole(ZeroDivisionError):
    """A denominator binomial vanished at the assignment."""


@dataclass(frozen=True)
class AffineForm:
    """constant + sum coeff_v * v, with rational constant.

    Variable coefficients are normally integers (a requirement for shift
    ratios, enforced there); the constant may be any rational.
    """

    constant: Fraction
    coeffs: tuple[tuple[str, Fraction], ...]

    @classmethod
    def make(cls, constant, coeffs: dict[str, Fraction] | None = None) -> "AffineForm":
        items = tuple(sorted(
            (name, Fraction(c)) for name, c in (coeffs or {}).items() if c
        ))
        return cls(Fraction(constant), items)

    @classmethod
    def from_ratfunc(cls, r: RatFunc) -> "AffineForm":
        """The form of r: its canonical denominator must be 1, its numerator's degree <= 1."""
        if r.den.degree() > 0:
            raise ValueError("not an affine expression (non-constant divisor)")
        if r.num.degree() > 1:
            raise ValueError("not an affine expression (degree > 1)")
        terms = r.num.terms
        coeffs = {VARS[exp.index(1)]: c for exp, c in terms.items() if any(exp)}
        return cls.make(terms.get((0,) * len(VARS), 0), coeffs)

    def coeff(self, name: str) -> Fraction:
        for var, c in self.coeffs:
            if var == name:
                return c
        return Fraction(0)

    def split(self, fixed) -> tuple[Fraction, tuple[tuple[str, int | Fraction], ...]]:
        """(constant plus the fixed variables' terms, the coefficients of the
        free variables, as ints where integral); with every variable fixed,
        the first part is the form's value."""
        part = self.constant
        free = []
        for name, c in self.coeffs:
            if name in fixed:
                part += c * fixed[name]
            else:
                free.append((name, int(c) if c.denominator == 1 else c))
        return part, tuple(free)

    def to_poly(self) -> MultiPoly:
        poly = MultiPoly.const(self.constant)
        for name, c in self.coeffs:
            poly = poly + MultiPoly.var(name) * c
        return poly

    def render(self) -> str:
        parts = []
        for name, c in self.coeffs:
            if c == 1:
                parts.append(f"+{name}")
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{'+' if c > 0 else '-'}{abs(c)}*{name}")
        if self.constant or not parts:
            parts.append(f"{'+' if self.constant >= 0 else '-'}{abs(self.constant)}")
        text = "".join(parts)
        return text[1:] if text.startswith("+") else text


@dataclass(frozen=True)
class HyperTerm:
    """constant * (-1)^sign * prod binom(top, bottom)^exp."""

    constant: Fraction
    sign: AffineForm
    factors: tuple[tuple[AffineForm, AffineForm, int], ...]

    def __post_init__(self):
        for top, bottom, exp in self.factors:
            if exp not in (1, -1):
                raise ValueError("factor exponent must be +1 or -1")

    # -- exact evaluation ---------------------------------------------------

    def evaluate(self, assign) -> Fraction:
        """Exact value at an assignment of Fractions to every variable used."""
        return self.bind(assign).evaluate({})

    def bind(self, fixed) -> "BoundTerm":
        """The term with the variables of ``fixed`` set to their values."""
        return BoundTerm(self, fixed)

    # -- shift ratio ----------------------------------------------------------

    def shift_ratio(self, name: str) -> RatFunc:
        """T(name+1)/T(name) as a canonical rational function."""
        delta_sign = self.sign.coeff(name)
        if delta_sign.denominator != 1:
            raise NonHypergeometricShift(
                f"sign exponent moves by {delta_sign} under a unit shift of {name}")
        ratio = RatFunc.const(-1 if int(delta_sign) % 2 else 1)
        for top, bottom, exp in self.factors:
            a = top.coeff(name)
            b = bottom.coeff(name)
            if a.denominator != 1 or b.denominator != 1:
                raise NonHypergeometricShift(
                    f"binom({top.render()},{bottom.render()}) shifts by a non-integer in {name}")
            a, b = int(a), int(b)
            if a == 0 and b == 0:
                continue
            top_poly = top.to_poly()
            bottom_poly = bottom.to_poly()
            contrib = _gamma_ratio(top_poly + 1, a)
            contrib = contrib / _gamma_ratio(bottom_poly + 1, b)
            contrib = contrib / _gamma_ratio(top_poly - bottom_poly + 1, a - b)
            ratio = ratio * contrib if exp == 1 else ratio / contrib
        return ratio

    def render(self) -> str:
        parts = []
        if self.sign.coeffs or self.sign.constant:
            parts.append(f"sign({self.sign.render()})")
        if self.constant != 1 or not self.factors:
            parts.append(str(self.constant))
        for top, bottom, exp in self.factors:
            suffix = "" if exp == 1 else "^-1"
            parts.append(f"binom({top.render()},{bottom.render()}){suffix}")
        return " * ".join(parts)


class BoundTerm:
    """A :class:`HyperTerm` with some of its variables fixed, made by
    :meth:`HyperTerm.bind`; the module docstring describes its memo.

    Equal (top part, bottom part) pairs share one part id, so factors such
    as binom(beta+k,k) and binom(beta+j,j) share memo entries.  A factor's
    arguments are built only on a miss, and poles and unevaluable factors
    are never stored, so they raise at every point.
    """

    __slots__ = ("_constant", "_sign_part", "_sign_free", "_factors", "_memo")

    def __init__(self, term: HyperTerm, fixed):
        self._constant = term.constant
        sign_part, self._sign_free = term.sign.split(fixed)
        self._sign_part = int(sign_part) if sign_part.denominator == 1 else sign_part
        part_ids: dict[tuple[Fraction, Fraction], int] = {}
        factors = []
        for top, bottom, exp in term.factors:
            top_part, top_free = top.split(fixed)
            bottom_part, bottom_free = bottom.split(fixed)
            part_id = part_ids.setdefault((top_part, bottom_part), len(part_ids))
            factors.append((part_id, top_part, top_free, bottom_part, bottom_free,
                            exp, top, bottom))
        self._factors = tuple(factors)
        self._memo: dict[tuple, Fraction] = {}

    def evaluate(self, point) -> Fraction:
        """Exact value at a point that gives every free variable a value
        (ints, in the grid loops; any rational is exact)."""
        sign_val = self._sign_part + _offset(self._sign_free, point)
        if sign_val.denominator != 1:
            raise ValueError("sign exponent is not an integer at this assignment")
        value = -self._constant if int(sign_val) % 2 else self._constant
        memo = self._memo
        for (part_id, top_part, top_free, bottom_part, bottom_free,
             exp, top, bottom) in self._factors:
            top_offset = _offset(top_free, point)
            bottom_offset = _offset(bottom_free, point)
            key = (part_id, top_offset, bottom_offset)
            f = memo.get(key)
            if f is None:
                f = memo[key] = _eval_binomial(top_part + top_offset,
                                               bottom_part + bottom_offset)
            if exp == 1:
                value *= f
            else:
                if f == 0:
                    raise HyperTermPole(
                        f"binom({top.render()},{bottom.render()}) vanished in a denominator")
                value /= f
        return value


def _offset(free, point):
    """sum coeff * point[name] over a form's free variables."""
    total = 0
    for name, c in free:
        total += c * point[name]
    return total


def _eval_binomial(t: Fraction, b: Fraction) -> Fraction:
    """binom(t, b) for arguments where it is a rational number.

    With Gamma(t+1)/(Gamma(b+1) Gamma(t-b+1)) as the reference meaning:
    a pole below the bar alone gives 0, a pole above *and* below is a
    genuine indeterminacy (raised as a pole, so callers can skip the draw),
    and the two regular shapes are the falling-factorial form (integer b)
    and the upper-shift product (integer t - b >= 0).
    """
    if b.denominator == 1:
        if b < 0:
            if t.denominator == 1 and t < 0:
                raise HyperTermPole(
                    f"binom({t},{b}) is indeterminate (0/0 ratio of poles)")
            return Fraction(0)
        return binom_poly(t, int(b))
    diff = t - b
    if diff.denominator != 1:
        raise ValueError(
            f"binom({t},{b}) is not rational (neither the lower index nor "
            "the upper shift is an integer)")
    m = int(diff)
    if m < 0:
        # Gamma(t-b+1) has a pole below the bar, so the coefficient is 0
        return Fraction(0)
    return binom_upper_shift(b, m)


def _gamma_ratio(x: MultiPoly, m: int) -> RatFunc:
    """Gamma(x+m)/Gamma(x): prod_{i=0..m-1}(x+i), or its reciprocal shape."""
    out = RatFunc.const(1)
    if m >= 0:
        for i in range(m):
            out = out * RatFunc.from_poly(x + i)
    else:
        for i in range(1, -m + 1):
            out = out / RatFunc.from_poly(x - i)
    return out
