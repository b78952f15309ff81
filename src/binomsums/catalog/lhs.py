"""Left-hand-side evaluators, one per catalog entry.

Each function computes the left side of its identity exactly as displayed,
by direct summation.  It shares with the right-hand sides only the scalar
helpers of exact.py, each tested on its own, and through them kept rows:
those kept on a draw (a drawn value's, a ``derived`` argument's such as
s + p, ``pascal_row``'s C(n-p, .), a ``product_row`` of two along one k such
as C(beta+k, k) x^k) and those that depend on n alone (``harmonic_row``,
``n_row``'s signed coefficients such as (-1)^(n+k) C(n, k) C(n+k, k)).  A
kept row's entries have the values either side would build: it can hide a
wrong row only as a shared kernel can, and a test breaks each row helper in
both modules at once, and every entry using it must then fail.  A sum is a
dot product of rows, ints over one den per row for exact parameters, divided
once by the product of those dens (``over``); H_k^2 and H_k^(2) read at
one n both sit over lcm(1..N)^2, N the depth class of n.  The sums are
ring-generic: RatFunc parameters give MultiPoly rows over one MultiPoly, so
a symbolic side builds one RatFunc, and Jet2 parameters (the jet oracle
differentiates ID06, ID07, ID08 and ID21) jet rows, so a jet side is
divided once.  ID09's C(n, k) C(beta+k, n) is read as C(beta, n-k)
C(beta+k, k), entries of beta's kept rows.

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

from ..exact import (binom_row, binom_top, central_binomial, derived, harmonic, harmonic_row,
                     n_row, over, pascal_row, power_row, product_row, reciprocal_row,
                     rising_row, taylor_shift)
from ..legendre import legendre, legendre_row


def id01(n, a):
    px, dx = power_row(a["x"], n)
    return over(sum(map(mul, n_row("C(n,k)C(n+k,k)", n), px)), dx)


def id02(n, a):
    bx, dbx = product_row(rising_row, a["beta"], power_row, a["x"], n)   # C(beta+k, k) x^k
    ay, day = product_row(binom_row, a["alpha"], power_row, a["y"], n)   # C(alpha, m) y^m
    return over(sum(map(mul, bx, reversed(ay))), dbx * day)


def id03(n, a):
    ba, da = binom_row(a["alpha"], n)
    bx, dbx = product_row(rising_row, a["beta"], power_row, a["x"], n)
    return over(sum(map(mul, bx, reversed(ba))), da * dbx)


def id04(n, a):
    """[sum_k (-1)^(k+j) C(k, j) C(beta+k, k) C(alpha, n-k)]_j, j = 0..n, over
    one den: the weights Taylor-shifted by -1 (module docstring)."""
    ba, da = binom_row(a["alpha"], n)
    bb, db = rising_row(a["beta"], n)
    return taylor_shift([bb[k] * ba[n - k] for k in range(n + 1)], -1), da * db


def id05(n, a):
    num, den = binom_top(a["lam"], n)
    return over(4**n * num, den)


def id06(n, a):
    st, dst = product_row(binom_row, a["s"], reciprocal_row, a["t"], n)  # C(s, k) / C(t+k, k)
    return over(sum(map(mul, n_row("C(n,k)", n), st)), dst)


def id07(n, a):
    bnp, dp = pascal_row(derived("-x", a["p"]), n)  # C(n-p, m)
    bs, ds = rising_row(a["s"], n)                  # C(s+k, k)
    terms = (bs[k] * bnp[n - k] for k in range(n + 1))
    return over(sum(-v if (n + k) % 2 else v for k, v in enumerate(terms)), dp * ds)


def id08(n, a):
    bx, dbx = product_row(rising_row, a["beta"], power_row, a["x"], n)   # C(beta+k, k) x^k
    return over(sum(map(mul, n_row("C(n,k)", n), bx)), dbx)


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
    pt, dpt = product_row(legendre_row, derived("(x^2+1)/(2x)", t), power_row, t, n)  # P_k t^k
    return over(sum(map(mul, n_row("(-1)^k C(n,k)", n), pt)), dpt)


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
    return Fraction(sum(4**k * comb(n, k) ** 2 * (den // central_binomial(k))
                 for k in range(n + 1)), den)


def id20e(n, a):
    return Fraction(sum(comb(2 * n, 2 * k) * central_binomial(n - k) * 4**k for k in range(n + 1)))


def id21(n, a):
    bs, ds = rising_row(a["s"], n)         # C(s+k, k)
    return over(sum(map(mul, n_row("C(2n-2k,n-k)4^k", n), bs)), ds)


def id22(n, a):
    h, dh = harmonic_row(n)                # k -> n-k: C(2n-2k, n-k) 4^k H_k
    return over(sum(map(mul, n_row("C(2n-2k,n-k)4^k", n), h)), dh * 4**n)


def id23(n, a):
    return Fraction(sum(k * comb(n, k) ** 2 for k in range(n + 1)))


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
