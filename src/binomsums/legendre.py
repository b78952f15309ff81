"""Legendre polynomials at rational arguments, all exact.

The three-term recurrence (n+1) P_{n+1}(x) = (2n+1) x P_n(x) - n P_{n-1}(x)
is the reference evaluator; the two summation representations below are
verified against it, never the other way around.  Both are stated at the
argument (t^2+1)/(2t), which is where a rational t gives a rational
argument covering [1, inf) and (-inf, -1]; t = 0 is excluded.

Row convention, as in exact.py: at x = u/v the recurrence runs on
R_m = m! v^m P_m(x), R_{m+1} = (2m+1) u R_m - m^2 v^2 R_{m-1}, through
exact's one row builder: ``legendre_row`` is R_m scaled over n! v^n
(ints for an exact x, ``MultiPoly`` values for a ``RatFunc`` x).  The
summation forms are dot products of ``n_row``'s coefficients with a
``power_row``.  ``legendre`` (R_n over n! v^n, each n's top built without
the rest of the row) and ``legendre_new_repr`` (t^n in its den) give each
n's (num, den) for a range of n, the value for one (``exact.block``).
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .exact import _row, _tops, block, n_row, over, power_row

__all__ = [
    "legendre",
    "legendre_inversion_check",
    "legendre_new_repr",
    "legendre_product_form",
    "legendre_row",
]


def _recurrence(u, v, m, prev, cur):
    return (2 * m + 1) * u * cur - m * m * v * v * prev, (m + 1) * v


def legendre_row(x, n: int):
    """([P_0(x), ..., P_n(x)], n! v^n) by the three-term recurrence on R_m."""
    return _row(x, n, _recurrence)


@block
def legendre(ns, x):
    """P_n(x) by the three-term recurrence: (R_n, n! v^n) at each n (``exact._tops``)."""
    return _tops(x, ns, _recurrence)


def _check_t(t: Fraction) -> None:
    if t == 0:
        raise ValueError("t must be nonzero")


def legendre_product_form(n: int, t: Fraction) -> Fraction:
    """(1/4^n) sum_k binom(2k,k) binom(2n-2k,n-k) t^(2k).

    Equals t^n * P_n((t^2+1)/(2t)); the classical even-power expansion.
    """
    _check_t(t)
    powers, den = power_row(t * t, n)
    return over(sum(map(mul, n_row("C(2k,k)C(2n-2k,n-k)", n), powers)), den * 4**n)


@block
def legendre_new_repr(ns, t):
    """(1/t^n) sum_k binom(n,k) binom(2k,k) ((t^2-1)/4)^k, t^n in the den.

    Equals P_n((t^2+1)/(2t)) exactly; at t = 1 only the k = 0 term
    survives, giving P_n(1) = 1.
    """
    _check_t(t)
    (powers, den), p, q = power_row((t * t - 1) / 4, ns[-1]), t.numerator, t.denominator
    return [(sum(map(mul, n_row("C(n,k)C(2k,k)", n), powers)) * q**n, den * p**n) for n in ns]


def legendre_inversion_check(n: int, t: Fraction) -> tuple[Fraction, Fraction]:
    """Both sides of the inverted representation, ID14's two catalog sides:

        sum_k (-1)^k binom(n,k) P_k((t^2+1)/(2t)) t^k
            =  binom(2n,n) ((1-t^2)/4)^n.

    The left side uses the recurrence evaluator, the right side is a closed
    form; they are returned as a pair and equal exactly on success.
    """
    from .catalog.entries import REGISTRY    # the catalog imports this module
    _check_t(t)
    return REGISTRY["ID14"].lhs(n, {"t": t}), REGISTRY["ID14"].rhs(n, {"t": t})
