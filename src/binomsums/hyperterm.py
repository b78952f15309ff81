"""Structured hypergeometric terms with exact shift ratios.

A :class:`HyperTerm` is

    constant * (-1)^sign(vars) * prod_i binom(top_i, bottom_i)^(+1|-1)

where sign, top_i and bottom_i are affine forms in the catalog variables
with integer variable coefficients (so that shifting any variable by one
moves every binomial argument by an integer).  Three primitives are exposed:

* ``grid`` -- reads a parameter draw's whole (n, j) grid in one call as int
  rows along k, each factor's ``binom_row`` or ``rising_row`` once per call
  (per n if it moves with n, C(g+n, .) stepped by Pascal's rule), as deep as
  that factor reads, inverted once for a reciprocal; an int factor of
  j and k by ``math.comb`` at each (n, j), or in the telescoped sums by the
  paper's Taylor step: sum_k w_k C(k, j) for every j is the k-row w shifted by
  +1, once per n.  The first failing (n, j, k, factor) raises: at each point
  the sign, then the factors.

* ``evaluate`` -- the exact rational value at a concrete assignment: a row
  of length one along no variable, rational where :func:`_eval_binomial` is.

* ``shift_ratio`` -- T(v+1)/T(v) as a canonical rational function, built
  factor by factor from the ratio rule Gamma(x+m)/Gamma(x) =
  prod_{i=0..m-1}(x+i).  This is the bridge from hypergeometric terms to
  the rational-function algebra in which certificates are verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import mul, sub

from .exact import binom_poly, binom_row, binom_upper_shift, pascal_step, rising_row, taylor_shift
from .poly import VARS, MultiPoly, RatFunc

__all__ = [
    "AffineForm",
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
        row, scale, den = next(self.grid(assign, None, None, None, ((0, (0,), (0,)),)))
        return Fraction(scale * row[0], den)

    def grid(self, point, outer, inner, var, reads, sums=False):
        """For each (m, js, ks) in reads and each j in js in turn, ints (row, scale, den > 0)
        with the term at {**point, outer: m, inner: j} along var at the ks equal to
        [scale * x / den for x in row]; a row where a point fails is read point by point.
        With sums only sum(row) is read: where C(var, inner) is the one factor of both
        and the ks are 0, 1, ..., each row is its one sum, every j's from one Taylor shift."""
        sign = _bind(self.sign, point, outer, inner, var)
        forms = [(_bind(top, point, outer, inner, var), _bind(bottom, point, outer, inner, var))
                 for top, bottom, _ in self.factors]
        plans = [_plan(*form, exp) for form, (_, _, exp) in zip(forms, self.factors)]
        reads, kernels = list(reads), {}
        for m, js, ks in reads:
            if None in plans or any(type(c) is not int for c in sign) or not (js and ks):
                yield from (self._points(forms, sign, m, j, ks) for j in js)
                continue
            # factors of var alone: one row along var; free of var: one scale along inner
            base, base_den = [-1 if sign[3] * k % 2 else 1 for k in ks], 1
            num, scale_den = self.constant.numerator, self.constant.denominator
            scales, per_j = [-num if _at(sign, m, j, 0) % 2 else num for j in js], []
            for q, (plan, (_, _, exp)) in enumerate(zip(plans, self.factors)):
                read, index, arg, _ = plan
                key = q, arg[1] and m               # a row per call, or per m if it moves
                if read and key not in kernels:
                    reach = _reach(index, [(m, js, ks)] if arg[1] else reads)
                    # C(x, .) with x and its reach one above m - 1's: that row stepped
                    x, last = _at(arg, m, 0, 0), kernels.get((q, m - 1))
                    kernels[key] = pascal_step(*last, x.numerator, x.denominator) if (
                        read is binom_row and arg[1] == 1 and last and len(last[0]) == reach
                    ) else read(x, reach)
                if read and exp < 0 and key + (-1,) not in kernels:     # inverted once
                    (row, den), c = kernels[key], lcm(*filter(None, kernels[key][0]))
                    kernels[key + (-1,)] = [den * (c // v) if v else None for v in row], c
                on_j, on_k = index[2] or arg[2], index[3] or arg[3]
                kernel = kernels.get(key + (-1,) if exp < 0 else key)
                if on_j and on_k:
                    per_j.append((plan, kernel, exp))
                elif on_j or not on_k:
                    values, den = _values(plan, kernel, m, 0, 2, js, exp)
                    scales = [None if None in (s, v) else s * v for s, v in zip(scales, values)]
                    scale_den *= den
                else:
                    values, den = _values(plan, kernel, m, 0, 3, ks, exp)
                    base = None if base is None or None in values else list(map(mul, base, values))
                    base_den *= den
            if sums and base and None not in scales and ks == range(len(ks)) and [
                    plan for plan, _, _ in per_j] == [(None, (0, 0, 0, 1), (0, 0, 1, 0), 0)]:
                # the paper's Taylor step: every j's sum_k w_k C(k, j), the k-row w shifted by +1
                totals, den = taylor_shift(base, 1), base_den * scale_den
                yield from (([totals[j] if 0 <= j < len(ks) else 0], scale, den)
                            for j, scale in zip(js, scales))
                continue
            for j, scale in zip(js, scales):
                row, den = base if scale is not None else None, base_den * scale_den
                for plan, kernel, exp in per_j:
                    values, factor_den = _values(plan, kernel, m, j, 3, ks, exp)
                    row = None if row is None or None in values else list(map(mul, row, values))
                    den *= factor_den
                yield self._points(forms, sign, m, j, ks) if row is None else (row, scale, den)

    def _points(self, forms, sign, m, j, ks):
        """grid's row at (m, j) through :func:`_eval_binomial`, point by point."""
        values = []
        for k in ks:
            if _at(sign, m, j, k).denominator != 1:
                raise ValueError("sign exponent is not an integer at this assignment")
            values.append(-self.constant if _at(sign, m, j, k) % 2 else self.constant)
            for (top, bottom), (top_form, bottom_form, exp) in zip(forms, self.factors):
                f = _eval_binomial(_at(top, m, j, k), _at(bottom, m, j, k))
                if exp == -1 and not f:
                    raise HyperTermPole(f"binom({top_form.render()},{bottom_form.render()})"
                                        " vanished in a denominator")
                values[-1] *= f ** exp
        den = lcm(*(v.denominator for v in values))
        return [v.numerator * (den // v.denominator) for v in values], 1, den

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


def _bind(form, point, outer, inner, var):
    """form at point: (its value at outer = inner = var = 0, its three slopes)."""
    axes = (outer, inner, var)
    part, free = form.split({name: v for name, v in point.items() if name not in axes})
    if missing := {name for name, _ in free} - set(axes):
        raise KeyError(min(missing))
    return part, *(dict(free).get(name, 0) for name in axes)


def _at(form, m, j, k):
    return form[1] * m + form[2] * j + form[3] * k + form[0]     # one Fraction sum at most


def _plan(top, bottom, exp):
    """(kernel, index, argument, 1 if top = argument + index), (None, top, bottom, 0) or None."""
    shift = tuple(int(c) if c.denominator == 1 else c for c in map(sub, top, bottom))
    if all(type(c) is int for c in bottom):
        if top[2:] == (0, 0):
            return binom_row, bottom, top, 0
        if shift[2:] == (0, 0):
            return rising_row, bottom, shift, 1
        if exp > 0 and all(type(c) is int for c in top):     # a reciprocal: point by point
            return None, top, bottom, 0
    elif all(type(c) is int for c in shift + bottom[1:]) and bottom[2:] == (0, 0):
        return rising_row, shift, bottom, 1
    return None


def _reach(index, reads):
    """The deepest index over the (m, js, ks) reads, or 0."""
    return max([_at(index, m, (min, max)[index[2] > 0](js), (min, max)[index[3] > 0](ks))
                for m, js, ks in reads if js and ks] + [0])


def _values(plan, kernel, m, j, axis, points, exp):
    """A planned factor from (m, j) along axis (2: j, 3: k) at the points, to the power
    exp (its kernel inverted for -1), as ([ints], one int den > 0), None where a point fails."""
    read, first, second, rising = plan
    start, step = _at(first, m, j, 0), first[axis]
    if read is None:
        low, slope = _at(second, m, j, 0), second[axis]
        try:
            return [comb(start + step * p, low + slope * p) for p in points], 1
        except ValueError:      # a negative argument: below the bar, or a negative top
            return [_comb(start + step * p, low + slope * p) for p in points], 1
    # below the bar 0 (a pole in a reciprocal), or 0/0 where the top there is a negative int
    (row, den), indices = kernel, [start + step * p for p in points]
    return list(map(row.__getitem__, indices)) if min(indices) >= 0 else [
        row[i] if i >= 0 else None if exp < 0 else _comb(_at(second, m, 0, 0) + rising * i, i)
        if type(second[0]) is int else 0 for i in indices], den


def _comb(t, b):
    """C(t, b) at ints: 0 below the bar, None where it is 0/0."""
    if b < 0:
        return None if t < 0 else 0
    return comb(t, b) if t >= 0 else (-1) ** b * comb(b - t - 1, b)


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
