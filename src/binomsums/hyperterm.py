"""Structured hypergeometric terms with exact shift ratios.

A :class:`HyperTerm` is

    constant * (-1)^sign(vars) * prod_i binom(top_i, bottom_i)^(+1|-1)

where sign, top_i and bottom_i are affine forms in the catalog variables
with integer variable coefficients (so that shifting any variable by one
moves every binomial argument by an integer).  Three primitives are exposed:

* ``grid`` -- reads a parameter draw's whole (n, j, k) grid in one call, one
  block of ints per n: the rows along k of every j, the scales along j and one
  den.  A plan made once per call reads each factor's kernel row once, as deep
  as it reads (a reciprocal's by products alone); one that moves with n is
  stepped from the last n's row, C(g+n, .) by Pascal's rule and 1/C(g+n, .) by
  ``reciprocal_step``, else built at each n; the factors free of n are fused
  with the sign into weight rows along n, j and k, so an n reads only what
  moves with it; an int factor of j and k by ``math.comb`` along j at each k,
  or in the telescoped sums by the paper's Taylor step: sum_k w_k C(k, j) for
  every j is the k-row w shifted by +1.  The first failing (n, j, k, factor)
  raises.

* ``evaluate`` -- the exact rational value at a concrete assignment: a row
  of length one along no variable, rational where :func:`_eval_binomial` is.

* ``shift_ratio`` -- T(v+1)/T(v) as a canonical rational function: every
  factor's ratio rule Gamma(x+m)/Gamma(x) = prod_{i=0..m-1}(x+i) multiplied
  into one numerator and one denominator, canonicalised once.  This is the
  bridge from hypergeometric terms to the rational-function algebra in which
  certificates are verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import add, mul, sub

from .exact import (Pole, binom_poly, binom_row, binom_upper_shift, pascal_step,
                    reciprocal_row, reciprocal_step, rising_row, taylor_shift)
from .poly import VARS, MultiPoly, RatFunc

__all__ = ["AffineForm", "HyperTerm"]


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
        fixed, the first part is the form's value; the fixed terms are added as
        ints over one den, divided out once."""
        num, den = self.constant.as_integer_ratio()
        free = []
        for name, c in self.coeffs:
            if name in fixed:
                (a, b), (p, q) = c.as_integer_ratio(), fixed[name].as_integer_ratio()
                num, den = num * b * q + a * p * den, den * b * q
            else:
                free.append((name, int(c) if c.denominator == 1 else c))
        return num // den if num % den == 0 else Fraction(num, den), tuple(free)

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
        rows, scales, den = next(self.grid(assign, None, None, None, ((0, (0,), (0,)),)))
        return Fraction(scales[0] * rows[0][0], den)

    def grid(self, point, outer, inner, var, reads, sums=False):
        """For each (m, js, ks) in reads one block (rows, scales, den) of ints, den > 0: the
        term at {**point, outer: m, inner: js[i]} along var at the ks is [scales[i] * x / den
        for x in rows[i]].  A block holding a failing point is read point by point: the rows
        of the js before it come as a shorter block, then that point raises.  With sums only
        sum(rows[i]) is read: where C(var, inner) is the one factor of both and the ks are
        0, 1, ..., each row is its one sum, every j's from one Taylor shift of the k-row."""
        axes = outer, inner, var
        fixed = {name: v for name, v in point.items() if name not in axes}
        sign = _bind(self.sign, fixed, axes)
        forms = [(_bind(top, fixed, axes), _bind(bottom, fixed, axes))
                 for top, bottom, _ in self.factors]
        plans = [_plan(*form, exp) for form, (_, _, exp) in zip(forms, self.factors)]
        reads, kernels = list(reads), {}
        ends = [(m, *_ends(js), *_ends(ks)) if js and ks else None for m, js, ks in reads]
        live = [] if None in plans or any(type(c) is not int for c in sign) else [
            end for end in ends if end]

        def kernel(q, m, end):
            # factor q's kernel row from its argument's ints p/d at m, once per call or per m if
            # it moves with n: a reciprocal's 1/C(b+i, i), b = -1 - x for 1/C(x, i), by products
            # alone; C(x, .) or 1/C(x, .), x up one per m, stepped from m - 1's as it grows by one
            read, index, arg, _ = plans[q]
            key, exp = (q, arg[1] and m), self.factors[q][2]
            if read and key not in kernels:
                reach, last = _reach(index, [end] if arg[1] else live), kernels.get((q, m - 1))
                p, d = arg[0].numerator + arg[1] * m * arg[0].denominator, arg[0].denominator
                if read is binom_row and arg[1] == 1 and last and len(last[0]) == reach:
                    kernels[key] = (pascal_step(*last, p, d) if exp > 0 else
                                    reciprocal_step(*last, -p, d))
                else:
                    b = Fraction(-d - p if exp < 0 and read is binom_row else p, d)
                    kernels[key] = (read if exp > 0 else reciprocal_row)(b, reach)
            return kernels.get(key)

        def along(factors, m, end, points, rows):
            # rows [(along n, den), (along j, den), (along k, den)] times the factors at m, for
            # the read of those ends, each on its axis (1: n, 2: j, 3: k) at those points
            for q, plan, exp, axis in factors:
                row, den = rows[axis - 1]
                values, factor_den = _values(plan, kernel(q, m, end), m, 0, axis,
                                             points[axis - 1], exp)
                product = [None if None in (v, w) else v * w for v, w in zip(row, values)] if (
                    None in row or None in values) else list(map(mul, row, values))
                rows[axis - 1] = product, den * factor_den
            return rows

        # the plan, once per call: a factor of j and k is read along j at each (m, k); a
        # factor of n alone from one kernel is read along n (axis 1) once; any other along
        # j (axis 2, the scales) or k (axis 3, the row) at each m if it moves with n, else
        # once; what is read once is fused with the constant and the sign's part on its axis
        per_j, moving, fused, parity = [], [], [], sign
        for q, (plan, (_, _, exp)) in enumerate(zip(plans, self.factors) if live else ()):
            read, index, arg, _ = plan
            if read is binom_row and exp < 0:   # 1/C(x, i) = (-1)^i / C(i-x-1, i): (-1)^i signs
                parity = tuple(map(add, parity, index))
            on_j, on_k = index[2] or arg[2], index[3] or arg[3]
            axis = 3 if on_k else 2 if on_j or arg[1] else 1
            (per_j if on_j and on_k else moving if axis > 1 and (index[1] or arg[1]) else
             fused).append((q, plan, exp, axis))
        ms, lo_j, hi_j, lo_k, hi_k = zip(*live) if live else [(0,)] * 5
        spans = [range(min(lo), max(hi) + 1) for lo, hi in ((ms, ms), (lo_j, hi_j), (lo_k, hi_k))]
        c, d = self.constant.as_integer_ratio()
        weights = along(fused, 0, None, spans, [
            ([-c if (parity[0] + parity[1] * m) % 2 else c for m in spans[0]], d),
            ([-1 if parity[2] * j % 2 else 1 for j in spans[1]], 1),
            ([-1 if parity[3] * k % 2 else 1 for k in spans[2]], 1)])
        taylor = sums and [plan for _, plan, _, _ in per_j] == [
            (None, (0, 0, 0, 1), (0, 0, 1, 0), 0)]

        for (m, js, ks), end in zip(reads, ends):
            scale = weights[0][0][m - spans[0].start] if live and end else None
            if scale is not None:
                _, (scales, scale_den), (base, den) = along(moving, m, end, (None, js, ks), [
                    None, *[([row[p - span.start] for p in points], den) for (row, den), span,
                            points in zip(weights[1:], spans[1:], (js, ks))]])
                den *= weights[0][1] * scale_den
            if scale is None or None in scales or None in base:
                yield from self._points(forms, sign, m, js, ks)
                continue
            scales = scales if scale == 1 else [scale * w for w in scales]
            if taylor and ks == range(len(ks)):
                # the paper's Taylor step: every j's sum_k w_k C(k, j), the k-row w shifted by 1
                totals = taylor_shift(base, 1)
                yield [[totals[j]] if 0 <= j < len(ks) else [0] for j in js], scales, den
                continue
            # the factors of j and k along j at each k: a column per k, then a row per j
            rows, columns = [base] * len(js), [[b] * len(js) for b in base] if per_j else ()
            for q, plan, exp, _ in per_j:
                kernel_row = kernel(q, m, end)
                for i, k in enumerate(ks):
                    values, factor_den = _values(plan, kernel_row, m, k, 2, js, exp)
                    columns[i] = None if columns[i] is None or None in values else list(
                        map(mul, columns[i], values))
                den *= factor_den
            if per_j:
                rows = None if None in columns else list(zip(*columns))
            if rows is None:
                yield from self._points(forms, sign, m, js, ks)
            else:
                yield rows, scales, den

    def _points(self, forms, sign, m, js, ks):
        """grid's block at m through :func:`_eval_binomial`, point by point: at a failing
        point, the rows of the js before it as a shorter block, then what that point raises."""
        rows = []
        try:
            for j in js:
                rows.append([])
                for k in ks:
                    if _at(sign, m, j, k).denominator != 1:
                        raise ValueError("sign exponent is not an integer at this assignment")
                    rows[-1].append(-self.constant if _at(sign, m, j, k) % 2 else self.constant)
                    for (top, bottom), (top_form, bottom_form, exp) in zip(forms, self.factors):
                        f = _eval_binomial(_at(top, m, j, k), _at(bottom, m, j, k))
                        if exp == -1 and not f:
                            raise Pole(f"binom({top_form.render()},{bottom_form.render()})"
                                       " vanished in a denominator")
                        rows[-1][-1] *= f ** exp
        except (ValueError, ZeroDivisionError):
            del rows[-1]
            if rows:
                yield _block(rows)
            raise
        yield _block(rows)

    # -- shift ratio ----------------------------------------------------------

    def shift_ratio(self, name: str) -> RatFunc:
        """T(name+1)/T(name) as a canonical rational function, one gcd for all factors."""
        delta_sign = self.sign.coeff(name)
        if delta_sign.denominator != 1:
            raise ValueError(
                f"sign exponent moves by {delta_sign} under a unit shift of {name}")
        parts = [MultiPoly.const(-1 if int(delta_sign) % 2 else 1), MultiPoly.const(1)]
        for top, bottom, exp in self.factors:
            a, b = top.coeff(name), bottom.coeff(name)
            if a.denominator != 1 or b.denominator != 1:
                raise ValueError(
                    f"binom({top.render()},{bottom.render()}) shifts by a non-integer in {name}")
            top_poly, bottom_poly = top.to_poly(), bottom.to_poly()
            for x, m, side in ((top_poly + 1, int(a), 0), (bottom_poly + 1, int(b), 1),
                               (top_poly - bottom_poly + 1, int(a - b), 1)):
                # m < 0: Gamma(x+m)/Gamma(x) = 1 / prod_{i=1..-m} (x-i), on the other side
                for i in range(m) if m >= 0 else range(-1, m - 1, -1):
                    parts[side ^ (exp < 0) ^ (m < 0)] *= x + i
        return RatFunc(*parts)


def _bind(form, fixed, axes):
    """form at the fixed values: (its value where the three axes are 0, its three slopes)."""
    part, free = form.split(fixed)
    if missing := (slopes := dict(free)).keys() - set(axes):
        raise KeyError(min(missing))
    return part, *map(slopes.get, axes, (0, 0, 0))


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


def _ends(points):
    """(min, max) of a read's js or ks, taken once per grid call: a range's two ends."""
    return sorted((points[0], points[-1])) if type(points) is range else (min(points), max(points))


def _reach(index, ends):
    """The deepest index over the reads' ends (m, lo_j, hi_j, lo_k, hi_k), or 0."""
    _, _, on_j, on_k = index
    return max([_at(index, m, on_j and (lo_j, hi_j)[on_j > 0], on_k and (lo_k, hi_k)[on_k > 0])
                for m, lo_j, hi_j, lo_k, hi_k in ends] + [0])


def _values(plan, kernel, m, at, axis, points, exp):
    """A planned factor along axis (1: n, 2: j, 3: k) at the points, from n = m with the
    other of j and k at `at` (j and k at 0 along n), to the power exp (its kernel inverted
    for -1), as ([ints], one int den > 0), None where a point fails."""
    read, first, second, rising = plan
    j, k = (at, 0) if axis == 3 else (0, at)
    start, step = _at(first, m, j, k), first[axis]
    if read is None:
        low, slope = _at(second, m, j, k), second[axis]
        try:
            return [comb(start + step * p, low + slope * p) for p in points], 1
        except ValueError:      # a negative argument: below the bar, or a negative top
            return [_comb(start + step * p, low + slope * p) for p in points], 1
    # a pole: below the bar 0 or any read of a row over den 0; 0/0 at a negative int top
    (row, den), indices = kernel if kernel[1] else ((None,) * len(kernel[0]), 1), [
        start + step * p for p in points]
    return list(map(row.__getitem__, indices)) if min(indices) >= 0 else [
        row[i] if i >= 0 else None if exp < 0 else _comb(_at(second, m, 0, 0) + rising * i, i)
        if type(second[0]) is int else 0 for i in indices], den


def _block(rows):
    """Rows of Fractions as a grid block: (their ints over one den, every scale 1, that den)."""
    den = lcm(*(v.denominator for row in rows for v in row))
    rows = [[v.numerator * (den // v.denominator) for v in row] for row in rows]
    return rows, [1] * len(rows), den


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
                raise Pole(f"binom({t},{b}) is indeterminate (0/0 ratio of poles)")
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
