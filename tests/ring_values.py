"""The tests' reference value of a MultiPoly or a RatFunc at a point, term by
term in Fraction arithmetic."""

from __future__ import annotations

from fractions import Fraction

from binomsums.poly import VARS, MultiPoly


def evaluate(r, assign):
    """r (a MultiPoly or a RatFunc) at an assignment of Fractions to every
    variable it uses; ZeroDivisionError where a RatFunc's denominator vanishes."""
    if not isinstance(r, MultiPoly):
        den = evaluate(r.den, assign)
        if den == 0:
            raise ZeroDivisionError("pole at assignment")
        return evaluate(r.num, assign) / den
    total = Fraction(0)
    for exp, c in r.coeffs().items():
        for i, e in enumerate(exp):
            if e:
                c *= assign[VARS[i]] ** e
        total += c
    return total
