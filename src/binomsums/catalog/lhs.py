"""Left-hand-side evaluators, one per catalog entry.

Each function computes the left side of its identity exactly as displayed,
by direct summation.  It shares with the right-hand sides only the scalar
helpers (the ``*_row`` kernels, ``binom_poly``, ``harmonic``), each tested
on its own, and through them the rows kept on a draw (see exact.py): a
drawn value's, a ``derived`` argument's such as s + p, and ``pascal_row``'s
C(n-p, .).  A kept row is a pure function of immutable values and n, the
ints either side would build, so it can hide a wrong row only as a shared
kernel can: a test breaks each row helper in both modules at once, and
every entry using it must then fail.  A parametric or harmonic sum
multiplies row entries, ints over one denominator per row for exact
parameters, and divides once by the product of those denominators
(``over``).  The harmonic sums (ID15, ID17, ID22, ID24-26) read
``harmonic_row``; H_k^2 and H_k^(2) both sit over lcm(1..n)^2, the order-2
row's denominator.  The sums are ring-generic: RatFunc parameters give
MultiPoly rows over one MultiPoly, so a symbolic sum builds one RatFunc,
and Jet2 parameters (the jet oracle differentiates ID06, ID07, ID08 and
ID21) int-coefficient jet rows over one int (over one jet for
``reciprocal_row``), so a jet sum is divided once.

ID07 and ID19 are stated with both sides divided by C(n, p): that
normalization is what makes every factor rational for every rational p
(and polynomial in p, hence jet-liftable).  The un-divided originals are
checked separately for non-negative integer p, where they are directly
evaluable.

ID04 has an inner index j = 0..n.  A side returns its whole j-row (row, den),
and the check compares the two rows; entries.py gives a per-j caller one
entry of it.  The left row is the paper's Taylor step: the coefficients of
f(x) = sum_k C(beta+k, k) C(alpha, n-k) x^k at the powers of x + 1 are those
of f(y - 1), so the weights are Taylor-shifted by -1 (``taylor_shift``).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from ..exact import (binom_poly, binom_row, central_binomial, derived, harmonic,
                     harmonic_row, over, pascal_row, power_row, reciprocal_row, rising_row,
                     shift_row, taylor_shift)
from ..legendre import legendre, legendre_row

F = Fraction


def id01(n, a):
    px, dx = power_row(a["x"], n)
    terms = (comb(n, k) * comb(n + k, k) * px[k] for k in range(n + 1))
    return over(sum(terms), dx)


def id02(n, a):
    ba, da = binom_row(a["alpha"], n)      # C(alpha, m)
    bb, db = rising_row(a["beta"], n)      # C(beta+k, k)
    px, dx = power_row(a["x"], n)
    py, dy = power_row(a["y"], n)
    total = sum(ba[n - k] * bb[k] * px[k] * py[n - k] for k in range(n + 1))
    return over(total, da * db * dx * dy)


def id03(n, a):
    ba, da = binom_row(a["alpha"], n)
    bb, db = rising_row(a["beta"], n)
    px, dx = power_row(a["x"], n)
    return over(sum(ba[n - k] * bb[k] * px[k] for k in range(n + 1)), da * db * dx)


def id04(n, a):
    """[sum_k (-1)^(k+j) C(k, j) C(beta+k, k) C(alpha, n-k)]_j, j = 0..n, over
    one den: the weights Taylor-shifted by -1 (module docstring)."""
    ba, da = binom_row(a["alpha"], n)
    bb, db = rising_row(a["beta"], n)
    return taylor_shift([bb[k] * ba[n - k] for k in range(n + 1)], -1), da * db


def id05(n, a):
    return 4**n * binom_poly(a["lam"], n)


def id06(n, a):
    bs, ds = binom_row(a["s"], n)          # C(s, k)
    rt, dt = reciprocal_row(a["t"], n)     # 1/C(t+k, k)
    return over(sum(comb(n, k) * bs[k] * rt[k] for k in range(n + 1)), ds * dt)


def id07(n, a):
    bnp, dp = pascal_row(derived("-x", a["p"]), n)  # C(n-p, m)
    bs, ds = rising_row(a["s"], n)                  # C(s+k, k)
    terms = (bs[k] * bnp[n - k] for k in range(n + 1))
    return over(sum(-v if (n + k) % 2 else v for k, v in enumerate(terms)), dp * ds)


def id08(n, a):
    bb, db = rising_row(a["beta"], n)      # C(beta+k, k)
    px, dx = power_row(a["x"], n)
    return over(sum(comb(n, k) * bb[k] * px[k] for k in range(n + 1)), db * dx)


def id09(n, a):
    row, den = shift_row(a["beta"], n)     # C(beta+k, n)
    terms = (comb(n, k) * row[k] for k in range(n + 1))
    return over(sum(-v if k % 2 else v for k, v in enumerate(terms)), den)


def id10(n, a):
    bb, den = rising_row(a["beta"], n)
    terms = (-comb(n, k) * bb[k] if k % 2 else comb(n, k) * bb[k]
             for k in range(n + 1))
    return over(sum(terms), den)


def id11(n, a):
    return harmonic(n)


def id12(n, a):
    px, dx = power_row(a["x"], n)
    terms = (comb(n, k) * central_binomial(k) * 4 ** (n - k) * px[k]
             for k in range(n + 1))
    return over(sum(terms), dx * 4**n)


def id13(n, a):
    t = a["t"]
    return legendre(n, derived("(x^2+1)/(2x)", t))


def id14(n, a):
    t = a["t"]
    values, dv = legendre_row(n, derived("(x^2+1)/(2x)", t))
    pt, dt = power_row(t, n)
    terms = (comb(n, k) * values[k] * pt[k] for k in range(n + 1))
    return over(sum(-v if k % 2 else v for k, v in enumerate(terms)), dv * dt)


def id15(n, a):
    bs, ds = rising_row(a["s"], n)         # C(s+k, k)
    h, dh = harmonic_row(n)
    terms = (comb(n, k) * bs[k] * h[k] for k in range(n + 1))
    return over(sum(-v if (n + k) % 2 else v for k, v in enumerate(terms)), ds * dh)


def id16(n, a):
    return harmonic(n)


def id17(n, a):
    h, dh = harmonic_row(n)
    terms = (comb(n, k) * central_binomial(k) * 4 ** (n - k) * h[k] for k in range(n + 1))
    return over(sum(-v if k % 2 else v for k, v in enumerate(terms)), dh * 4**n)


def id18(n, a):
    h = harmonic(n)
    return h * h


def id19(n, a):
    s, p = a["s"], a["p"]
    bnp, dp = pascal_row(derived("-x", p), n)      # C(n-p, m)
    bsp, dsp = binom_row(derived("x+y", s, p), n)  # C(s+p, k)
    return over(sum(bsp[k] * bnp[n - k] for k in range(n + 1)), dp * dsp)


def id20(n, a):
    den = lcm(*(central_binomial(k) for k in range(n + 1)))
    return F(sum(4**k * comb(n, k) ** 2 * (den // central_binomial(k))
                 for k in range(n + 1)), den)


def id20e(n, a):
    total = 0
    for k in range(n + 1):
        total += comb(2 * n, 2 * k) * central_binomial(n - k) * 4**k
    return F(total)


def id21(n, a):
    bs, ds = rising_row(a["s"], n)         # C(s+k, k)
    return over(sum(bs[k] * (central_binomial(n - k) * 4**k) for k in range(n + 1)), ds)


def id22(n, a):
    h, dh = harmonic_row(n)
    total = sum(central_binomial(k) * 4 ** (n - k) * h[n - k] for k in range(n + 1))
    return over(total, dh * 4**n)


def id23(n, a):
    total = 0
    for k in range(1, n + 1):
        total += k * comb(n, k) ** 2
    return F(total)


def id24(n, a):
    h, dh = harmonic_row(n)
    return over(sum(comb(n, k) ** 2 * h[k] for k in range(n + 1)), dh)


def id25(n, a):
    h, dh = harmonic_row(n)
    return over(sum(comb(n, k) ** 2 * h[k] * h[n - k] for k in range(n + 1)), dh * dh)


def id26(n, a):
    h, _ = harmonic_row(n)
    h2, d2 = harmonic_row(n, 2)
    return over(sum(comb(n, k) ** 2 * (h[k] * h[k] + h2[k]) for k in range(n + 1)), d2)
