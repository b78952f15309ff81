"""Right-hand-side evaluators, one per catalog entry.

Implemented from the displayed right sides only; see lhs.py for the
independence convention, kept rows and ``n_row`` included, and the C(n, p)
normalization of ID07/ID19.  The single binomials read kept rows: C(s+n, n)
is entry n of s's ``rising_row``, so ID19 and ID21 call ``binom_upper_shift``.
ID08 reads C(n, k) C(beta+k, n) from beta's rows, as lhs.py's ID09 does.

ID04's right side is, as in lhs.py, its whole j-row (-1)^(n+j) C(beta+j, j)
C(beta-alpha+n, n-j) over one den.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul

from ..exact import (binom_poly, binom_row, binom_upper_shift, central_binomial, derived,
                     digamma_diff, harmonic, harmonic_row, n_row, over, pascal_row,
                     power_row, reciprocal_row, rising_row)
from ..legendre import legendre_new_repr

F = Fraction


def id01(n, a):
    px, dx = power_row(derived("x+1", a["x"]), n)
    return over(sum(map(mul, n_row("(-1)^(n+k) C(n,k)C(n+k,k)", n), px)), dx)


def id02(n, a):
    alpha, beta, x, y = a["alpha"], a["beta"], a["x"], a["y"]
    bg, dg = pascal_row(derived("x-y", beta, alpha), n)   # C(beta-alpha+n, m)
    bb, db = rising_row(beta, n)                          # C(beta+k, k)
    pxy, dxy = power_row(derived("x+y", x, y), n)
    py, dy = power_row(y, n)
    terms = (bg[n - k] * bb[k] * pxy[k] * py[n - k] for k in range(n + 1))
    return over(sum(-v if (n + k) % 2 else v for k, v in enumerate(terms)), dg * db * dxy * dy)


def id03(n, a):
    alpha, beta = a["alpha"], a["beta"]
    bg, dg = pascal_row(derived("x-y", beta, alpha), n)
    bb, db = rising_row(beta, n)
    px, dx = power_row(derived("x+1", a["x"]), n)
    terms = (bg[n - j] * bb[j] * px[j] for j in range(n + 1))
    return over(sum(-v if (n + j) % 2 else v for j, v in enumerate(terms)), dg * db * dx)


def id04(n, a):
    """[(-1)^(n+j) C(beta+j, j) C(beta-alpha+n, n-j)]_j, j = 0..n, over one den."""
    alpha, beta = a["alpha"], a["beta"]
    (bb, db), (bg, dg) = rising_row(beta, n), pascal_row(derived("x-y", beta, alpha), n)
    row = (bb[j] * bg[n - j] for j in range(n + 1))
    return [-v if (n + j) % 2 else v for j, v in enumerate(row)], db * dg


def id05(n, a):
    lam = a["lam"]
    g = derived("-x-1/2", lam)
    top, dt = pascal_row(g, n)           # C(n - lam - 1/2, k)
    low, dl = reciprocal_row(g, n)       # 1/C(k - lam - 1/2, k)
    total = over(sum(map(mul, n_row("C(n,k)", n), map(mul, top, low))), dt * dl)
    return binom_poly(derived("2x", lam), n) * total


def id06(n, a):
    return binom_upper_shift(derived("x+y", a["s"], a["t"]), n) / binom_upper_shift(a["t"], n)


def id07(n, a):
    return binom_poly(derived("x+y", a["s"], a["p"]), n)


def id08(n, a):
    (ba, da), (bb, db) = binom_row(a["beta"], n), rising_row(a["beta"], n)
    px, dx = power_row(derived("x+1", a["x"]), n)
    terms = map(mul, map(mul, reversed(ba), bb), px)  # C(beta,n-k) C(beta+k,k): lhs.id09
    return over(sum(-v if (n + k) % 2 else v for k, v in enumerate(terms)), da * db * dx)


def id09(n, a):
    return F(-1 if n % 2 else 1)


def id10(n, a):
    value = binom_poly(a["beta"], n)
    return -value if n % 2 else value


def id11(n, a):
    h, dh = harmonic_row(2 * n)            # H_{n+k} is h[n + k]
    return over(sum(map(mul, n_row("(-1)^(n+k) C(n,k)C(n+k,k)", n), h[n:])), 2 * dh)


def id12(n, a):
    px, dx = power_row(derived("x+1", a["x"]), n)
    return over(sum(map(mul, n_row("C(2k,k)C(2n-2k,n-k)", n), px)), dx * 4**n)


def id13(n, a):
    return legendre_new_repr(n, a["t"])


def id14(n, a):
    return central_binomial(n) * ((1 - a["t"] * a["t"]) / 4) ** n


def id15(n, a):
    s = a["s"]
    return binom_poly(s, n) * (harmonic(n) + digamma_diff(s, n))


def id16(n, a):
    h, dh = harmonic_row(n)
    return over(sum(map(mul, n_row("(-1)^(n+k) C(n,k)C(n+k,k)", n), h)), 2 * dh)


def id17(n, a):
    return central_binomial(n) * (harmonic(n) - harmonic(2 * n)) / F(2 ** (2 * n - 1))


def id18(n, a):
    h, _ = harmonic_row(n)
    h2, d2 = harmonic_row(n, 2)            # over lcm(1..N)^2, one table's, as H_k^2 is
    terms = (v * v + w for v, w in zip(h, h2))
    return over(sum(map(mul, n_row("(-1)^(n+k) C(n,k)C(n+k,k)", n), terms)), 4 * d2)


def id19(n, a):
    return binom_upper_shift(a["s"], n)


def id20(n, a):
    return F(comb(4 * n, 2 * n)) / central_binomial(n)


def id20e(n, a):
    return F(comb(4 * n, 2 * n))


def id21(n, a):
    s = a["s"]
    return (central_binomial(n) * binom_upper_shift(derived("2x+1", s), 2 * n)
            / binom_upper_shift(s, n))


def id22(n, a):
    return ((2 * n + 1) * central_binomial(n)
            * (2 * harmonic(2 * n + 1) - harmonic(n) - 2) / F(4**n))


def id23(n, a):
    return F(n) * central_binomial(n) / 2


def id24(n, a):
    return central_binomial(n) * (2 * harmonic(n) - harmonic(2 * n))


def id25(n, a):
    d = harmonic(2 * n) - 2 * harmonic(n)
    return central_binomial(n) * (d * d + harmonic(n, 2) - harmonic(2 * n, 2))


def id26(n, a):
    d = harmonic(2 * n) - 2 * harmonic(n)
    return central_binomial(n) * (d * d + 2 * harmonic(n, 2) - harmonic(2 * n, 2))
