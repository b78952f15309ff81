"""Left-hand-side evaluators, one per catalog entry.

Each function computes the left side of its identity exactly as displayed,
by direct summation.  It shares with the right-hand sides only the scalar
helpers of exact.py, each tested on its own, and through them kept rows:
those kept on a draw (a drawn value's, a ``derived`` argument's such as
s + p, ``pascal_row``'s C(n-p, .)) and those that depend on n alone, which
both sides and every draw at one n read (``harmonic_row``, and ``n_row``'s
signed coefficients such as (-1)^(n+k) C(n, k) C(n+k, k)).  A drawn value's
row is built once at its draw's depth and read as a prefix, and a harmonic
row is a prefix of one table, so a kept row's entries have the values
either side would build: it can hide a wrong row only as a shared kernel
can, and a test breaks each row helper in both modules at once, and every
entry using it must then fail.  A parametric or harmonic sum is a dot
product of rows, ints over one denominator per row for exact parameters,
divided once by the product of those denominators (``over``); H_k^2 and
H_k^(2) both sit over lcm(1..N)^2, N the harmonic table's depth.  The sums
are ring-generic: RatFunc parameters give MultiPoly rows over one
MultiPoly, so a symbolic sum builds one RatFunc, and Jet2 parameters (the
jet oracle differentiates ID06, ID07, ID08 and ID21) int-coefficient jet
rows over one int (over one jet for ``reciprocal_row``), so a jet sum is
divided once.  ID09's C(n, k) C(beta+k, n) is read as C(beta, n-k)
C(beta+k, k), entries of beta's kept binomial and rising rows.

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
from operator import mul

from ..exact import (binom_poly, binom_row, central_binomial, derived, harmonic,
                     harmonic_row, n_row, over, pascal_row, power_row, reciprocal_row,
                     rising_row, taylor_shift)
from ..legendre import legendre, legendre_row

F = Fraction


def id01(n, a):
    px, dx = power_row(a["x"], n)
    return over(sum(map(mul, n_row("C(n,k)C(n+k,k)", n), px)), dx)


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
    return over(sum(map(mul, n_row("C(n,k)", n), map(mul, bs, rt))), ds * dt)


def id07(n, a):
    bnp, dp = pascal_row(derived("-x", a["p"]), n)  # C(n-p, m)
    bs, ds = rising_row(a["s"], n)                  # C(s+k, k)
    terms = (bs[k] * bnp[n - k] for k in range(n + 1))
    return over(sum(-v if (n + k) % 2 else v for k, v in enumerate(terms)), dp * ds)


def id08(n, a):
    bb, db = rising_row(a["beta"], n)      # C(beta+k, k)
    px, dx = power_row(a["x"], n)
    return over(sum(map(mul, n_row("C(n,k)", n), map(mul, bb, px))), db * dx)


def id09(n, a):
    (ba, da), (bb, db) = binom_row(a["beta"], n), rising_row(a["beta"], n)
    terms = map(mul, reversed(ba), bb)     # C(n,k) C(beta+k,n) = C(beta,n-k) C(beta+k,k)
    return over(sum(-v if k % 2 else v for k, v in enumerate(terms)), da * db)


def id10(n, a):
    bb, den = rising_row(a["beta"], n)
    return over(sum(map(mul, n_row("(-1)^k C(n,k)", n), bb)), den)


def id11(n, a):
    return harmonic(n)


def id12(n, a):
    px, dx = power_row(a["x"], n)
    return over(sum(map(mul, n_row("C(n,k)C(2k,k)4^(n-k)", n), px)), dx * 4**n)


def id13(n, a):
    return legendre(n, derived("(x^2+1)/(2x)", a["t"]))


def id14(n, a):
    t = a["t"]
    values, dv = legendre_row(n, derived("(x^2+1)/(2x)", t))
    pt, dt = power_row(t, n)
    return over(sum(map(mul, n_row("(-1)^k C(n,k)", n), map(mul, values, pt))), dv * dt)


def id15(n, a):
    bs, ds = rising_row(a["s"], n)         # C(s+k, k)
    h, dh = harmonic_row(n)
    return over(sum(map(mul, n_row("(-1)^(n+k) C(n,k)", n), map(mul, bs, h))), ds * dh)


def id16(n, a):
    return harmonic(n)


def id17(n, a):
    h, dh = harmonic_row(n)
    return over(sum(map(mul, n_row("(-1)^k C(n,k)C(2k,k)4^(n-k)", n), h)), dh * 4**n)


def id18(n, a):
    return harmonic(n) ** 2


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
    return F(sum(comb(2 * n, 2 * k) * central_binomial(n - k) * 4**k for k in range(n + 1)))


def id21(n, a):
    bs, ds = rising_row(a["s"], n)         # C(s+k, k)
    return over(sum(map(mul, n_row("C(2n-2k,n-k)4^k", n), bs)), ds)


def id22(n, a):
    h, dh = harmonic_row(n)                # k -> n-k: C(2n-2k, n-k) 4^k H_k
    return over(sum(map(mul, n_row("C(2n-2k,n-k)4^k", n), h)), dh * 4**n)


def id23(n, a):
    return F(sum(k * comb(n, k) ** 2 for k in range(n + 1)))


def id24(n, a):
    h, dh = harmonic_row(n)
    return over(sum(map(mul, n_row("C(n,k)^2", n), h)), dh)


def id25(n, a):
    h, dh = harmonic_row(n)
    return over(sum(map(mul, n_row("C(n,k)^2", n), map(mul, h, reversed(h)))), dh * dh)


def id26(n, a):
    h, _ = harmonic_row(n)
    h2, d2 = harmonic_row(n, 2)
    terms = (v * v + w for v, w in zip(h, h2))
    return over(sum(map(mul, n_row("C(n,k)^2", n), terms)), d2)
