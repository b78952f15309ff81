"""Structured hypergeometric terms with exact shift ratios.

A :class:`HyperTerm` is

    constant * (-1)^sign(vars) * prod_i binom(top_i, bottom_i)^(+1|-1)

where sign, top_i and bottom_i are affine forms in the catalog variables
with integer variable coefficients (so that shifting any variable by one
moves every binomial argument by an integer).  Three primitives are exposed:

* ``bind`` -- fixes some variables (a parameter draw) once and returns a
  :class:`BoundTerm`, whose ``rows(point, inner, js, var, ks)`` gives, for
  each j in js, the term along var at the ks (n in point, the inner index j
  and k along var in the certificate checks) as ints over one positive int
  denominator, ``exact.py``'s ``(row, den)`` contract; ``row`` is the one-j
  case.  Each factor is read from a row kernel where it can, along the one
  variable it depends on: once along k, once along j, or at each j.  A row
  raises what the first failing (k, factor) raises, in point order: the ks
  in order, at each the sign, then the factors in order.

* ``evaluate`` -- the exact rational value at a concrete assignment: a row
  of length one along no variable.  A factor is evaluable when its lower
  argument is an integer (polynomial falling-factorial form) or when
  top - bottom is an integer m, in which case binom(top, bottom) =
  binom(bottom + m, m) (zero for negative m).

* ``shift_ratio`` -- T(v+1)/T(v) as a canonical rational function, built
  factor by factor from the ratio rule Gamma(x+m)/Gamma(x) =
  prod_{i=0..m-1}(x+i).  This is the bridge from hypergeometric terms to
  the rational-function algebra in which certificates are verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .exact import binom_poly, binom_row, binom_upper_shift, rising_row
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
        terms = r.num.coeffs()
        coeffs = {VARS[exp.index(1)]: c for exp, c in terms.items() if any(exp)}
        return cls.make(terms.get((0,) * len(VARS), 0), coeffs)

    def coeff(self, name: str) -> Fraction:
        for var, c in self.coeffs:
            if var == name:
                return c
        return Fraction(0)

    def split(self, fixed) -> tuple[int | Fraction, tuple[tuple[str, int | Fraction], ...]]:
        """(constant plus the fixed variables' terms, the coefficients of the
        free variables), each an int where integral; with every variable
        fixed, the first part is the form's value."""
        part = self.constant
        free = []
        for name, c in self.coeffs:
            if name in fixed:
                part += c * fixed[name]
            else:
                free.append((name, int(c) if c.denominator == 1 else c))
        return int(part) if part.denominator == 1 else part, tuple(free)

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
    """A :class:`HyperTerm` with some variables fixed, by :meth:`HyperTerm.bind`."""

    __slots__ = ("_constant", "_sign", "_factors")

    def __init__(self, term: HyperTerm, fixed):
        self._constant = term.constant
        self._sign = term.sign.split(fixed)
        self._factors = tuple((top.split(fixed), bottom.split(fixed), exp, top, bottom)
                              for top, bottom, exp in term.factors)

    def evaluate(self, point) -> Fraction:
        """Exact value at a point that gives every free variable a value."""
        row, den = self.row(point, None, (0,))
        return Fraction(row[0], den)

    def row(self, point, var, ks):
        """([the term at var = k for k in ks] as ints, one positive int den), with
        point giving every other free variable a value; raises what the first
        failing (k, factor) raises, in point order."""
        return next(self.rows(point, None, (0,), var, ks))

    def rows(self, point, inner, js, var, ks):
        """For each j in js in turn, row({**point, inner: j}, var, ks), raising at the
        first j whose row fails.  A factor free of inner is read once along var,
        one free of var once along inner, and only a factor of both at each j."""
        sign0, sign_j, sign_k = _line(self._sign, point, inner, var)
        base, den = [self._constant.numerator] * len(ks), self._constant.denominator
        failures, per_j = [], []
        for position, (top_split, bottom_split, exp, top, bottom) in enumerate(self._factors):
            t0, tj, tk = _line(top_split, point, inner, var)
            b0, bj, bk = _line(bottom_split, point, inner, var)
            factor = position, exp, top, bottom
            if tj == bj == 0:       # one row along var, for every j
                base, den = _times(base, den, factor, _binomial_row(t0, tk, b0, bk, ks), failures)
            else:   # one row along inner if free of var and some k is read, as row reads it
                per_j.append((t0, tj, tk, b0, bj, bk, factor, _binomial_row(t0, tj, b0, bj, js)
                              if ks and tk == bk == 0 else None))
        for index, j in enumerate(js):
            signs = [sign0 + sign_j * j + sign_k * k for k in ks]
            found = [(i, -1, ValueError("sign exponent is not an integer at this assignment"))
                     for i, s in enumerate(signs) if s.denominator != 1][:1] + failures
            row, row_den = [-x if s % 2 else x for x, s in zip(base, signs)], den
            for t0, tj, tk, b0, bj, bk, factor, along in per_j:
                if along and (along[2] is None or index < along[2][0]):
                    read = along[0][index:index + 1], along[1], None
                else:       # read at this j alone, as row reads it
                    read = _binomial_row(t0 + tj * j, tk, b0 + bj * j, bk, ks)
                row, row_den = _times(row, row_den, factor, read, found)
            if found:
                raise min(found, key=lambda f: f[:2])[2]
            yield row, row_den


def _line(split, point, inner, var):
    """A split form at point: (its value at inner = var = 0, its two slopes)."""
    part, free = split
    for name, c in free:
        if name != var and name != inner:
            part += c * point[name]
    free = dict(free)
    return part, free.get(inner, 0), free.get(var, 0)


def _times(row, den, factor, read, failures):
    """(row, den) times a factor's (values, den, failure) read, inverted for a
    reciprocal factor, where a zero value is a pole; a failure goes to failures
    as (index, position, exception) instead, and (row, den) stay as they were."""
    position, exp, top, bottom = factor
    values, factor_den, failure = read
    if exp == -1:
        zero = next((i for i, v in enumerate(values) if not v), None)
        if zero is not None and (failure is None or zero < failure[0]):
            failure = (zero, HyperTermPole(
                f"binom({top.render()},{bottom.render()}) vanished in a denominator"))
        elif failure is None:
            common = lcm(*values)
            values, factor_den = [factor_den * (common // v) for v in values], common
    if failure is not None:
        failures.append((failure[0], position, failure[1]))
        return row, den
    if len(values) == 1:     # one value: a factor constant along var
        return [x * values[0] for x in row], den * factor_den
    return [x * v for x, v in zip(row, values)], den * factor_den


def _binomial_row(t0, a, b0, c, ks):
    """[C(t0 + a*k, b0 + c*k) for k in ks] (ks[0] alone if a = c = 0) as (ints,
    one positive int den, the first failure as (index, exception) or None).
    An int lower index reads binom_row, rising_row or math.comb; a negative
    one, and any other factor, goes to :func:`_eval_binomial`."""
    values, ks = None, ks if a or c else ks[:1]
    if type(a) is int and type(c) is int and type(b0) is int:
        bottoms = [b0 + c * k for k in ks]
        if a == 0 or a == c:
            last = max(bottoms, default=0)
            kernel, den = binom_row(t0, last) if a == 0 else rising_row(t0 - b0, last)
            values = [kernel[b] if b >= 0 else 0 for b in bottoms]
        elif type(t0) is int:
            tops = [t0 + a * k for k in ks]
            values, den = [0 if b < 0 else comb(t, b) if t >= 0 else (-1) ** b
                           * comb(b - t - 1, b) for t, b in zip(tops, bottoms)], 1
    found, failure = [], None
    for i in range(len(ks)) if values is None else [i for i, b in enumerate(bottoms) if b < 0]:
        try:
            found.append(_eval_binomial(t0 + a * ks[i], b0 + c * ks[i]))
        except (HyperTermPole, ValueError) as exc:
            failure = (i, exc)
            break
    if values is None:
        den = lcm(*(v.denominator for v in found))
        values = [v.numerator * (den // v.denominator) for v in found]
    return values, den, failure


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
