"""Right-hand-side evaluators, one per catalog entry.

Implemented from the displayed right sides only; see lhs.py for the block
protocol, the independence convention, the rows kept by n alone
(``harmonic_row``, ``n_row``) and the C(n, p) normalization of ID07/ID19.
Each closed form hands back one numerator and one denominator per n, so a
``RatFunc`` side is canonicalised once: a single binomial is entry n of a
row as a pair (``binom_tops``, ``rising_tops``, each block's n at once) and
the harmonic numbers are entries of ``harmonic_row`` at the block's top,
over one den.  ID13, ID15 and ID19 read pairs over the range
(``legendre_new_repr``, ``pole_sum``'s one digamma pass,
``binom_upper_shift``), ID02-ID05 the moving rows of ``pascal_rows``.  ID08
reads C(n, k) C(beta+k, n) from beta's rows, as lhs.py's ID09 does.

ID04's right side is, as in lhs.py, its whole j-row (-1)^(n+j) C(beta+j, j)
C(beta-alpha+n, n-j) over one den.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul

from ..exact import (alternating, binom_row, binom_tops, binom_upper_shift, central_binomial,
                     harmonic_row, n_row, pascal_rows, pole_sum, power_row, product_row,
                     reciprocal_row, rising_row, rising_tops)
from ..legendre import legendre_new_repr


def id01(ns, a):
    px, dx = power_row(a["x"] + 1, ns[-1])
    return [(sum(map(mul, n_row("(-1)^(n+k) C(n,k)C(n+k,k)", n), px)), dx) for n in ns]


def id02(ns, a):
    alpha, beta, x, y = a["alpha"], a["beta"], a["x"], a["y"]
    (rows, dg), (py, dy) = pascal_rows(beta - alpha, ns, True), power_row(y, ns[-1])
    bp, dp = product_row(rising_row, beta, power_row, x + y, ns[-1])
    return [(sum(map(mul, bp, map(mul, reversed(bg), py[n::-1]))), dg * dp * dy)
            for n, bg in zip(ns, rows)]         # bg: (-1)^m C(beta-alpha+n, m)


def id03(ns, a):
    rows, dg = pascal_rows(a["beta"] - a["alpha"], ns, True)
    bp, dp = product_row(rising_row, a["beta"], power_row, a["x"] + 1, ns[-1])
    return [(sum(map(mul, reversed(bg), bp)), dg * dp) for bg in rows]


def id04(ns, a):
    """[(-1)^(n+j) C(beta+j, j) C(beta-alpha+n, n-j)]_j, j = 0..n, over one den."""
    rows, dg = pascal_rows(a["beta"] - a["alpha"], ns, True)
    bb, db = rising_row(a["beta"], ns[-1])
    return [(list(map(mul, bb, reversed(bg))), db * dg) for bg in rows]


def id05(ns, a):
    lam = a["lam"]
    g = -lam - Fraction(1, 2)
    (low, dl), (rows, dt) = reciprocal_row(g, ns[-1]), pascal_rows(g, ns)  # 1/C(k-lam-1/2, k)
    tops = zip(ns, binom_tops(2 * lam, ns), rows)    # C(2 lam, n), C(n-lam-1/2, k)
    return [(nb * sum(map(mul, n_row("C(n,k)", n), map(mul, top, low))), db * dt * dl)
            for n, (nb, db), top in tops]


def id06(ns, a):
    tops = zip(rising_tops(a["s"] + a["t"], ns), rising_tops(a["t"], ns))
    return [(nu * dt, du * nt) for (nu, du), (nt, dt) in tops]   # C(s+t+n, n) / C(t+n, n)


def id07(ns, a):
    return binom_tops(a["s"] + a["p"], ns)


def id08(ns, a):
    ba, da = binom_row(a["beta"], ns[-1])
    bp, dp = product_row(rising_row, a["beta"], power_row, a["x"] + 1, ns[-1])
    ba = alternating(ba)        # C(beta,n-k) C(beta+k,k) (x+1)^k: lhs.id09
    return [(sum(map(mul, ba[n::-1], bp)), da * dp) for n in ns]


def id09(ns, a):
    return [(-1 if n % 2 else 1, 1) for n in ns]


def id10(ns, a):
    return [(-b if n % 2 else b, d) for n, (b, d) in zip(ns, binom_tops(a["beta"], ns))]


def id11(ns, a):
    h, dh = harmonic_row(2 * ns[-1])       # H_{n+k} is h[n + k]
    return [(sum(map(mul, n_row("(-1)^(n+k) C(n,k)C(n+k,k)", n), h[n:])), 2 * dh) for n in ns]


def id12(ns, a):
    px, dx = power_row(a["x"] + 1, ns[-1])
    return [(sum(map(mul, n_row("C(2k,k)C(2n-2k,n-k)", n), px)), dx * 4**n) for n in ns]


def id13(ns, a):
    return legendre_new_repr(ns, a["t"])


def id14(ns, a):
    p, q = a["t"].numerator, a["t"].denominator
    return [(central_binomial(n) * (q * q - p * p) ** n, (4 * q * q) ** n) for n in ns]


def id15(ns, a):
    s, (h, dh) = a["s"], harmonic_row(ns[-1])
    sums = zip(ns, binom_tops(s, ns), pole_sum(s, ns, 1))     # C(s, n), sum_{i<n} 1/(s-i)
    return [(nb * (h[n] * d + t * dh), db * dh * d) for n, (nb, db), (t, d) in sums]


def id16(ns, a):
    h, dh = harmonic_row(ns[-1])
    return [(sum(map(mul, n_row("(-1)^(n+k) C(n,k)C(n+k,k)", n), h)), 2 * dh) for n in ns]


def id17(ns, a):
    h, dh = harmonic_row(2 * ns[-1])
    return [(2 * central_binomial(n) * (h[n] - h[2 * n]), dh * 4**n) for n in ns]


def id18(ns, a):
    h, _ = harmonic_row(ns[-1])
    h2, d2 = harmonic_row(ns[-1], 2)       # over lcm(1..N)^2 at one n, as H_k^2 is
    terms = tuple(v * v + w for v, w in zip(h, h2))
    return [(sum(map(mul, n_row("(-1)^(n+k) C(n,k)C(n+k,k)", n), terms)), 4 * d2) for n in ns]


def id19(ns, a):
    return binom_upper_shift(a["s"], ns)


def id20(ns, a):
    return [(comb(4 * n, 2 * n), central_binomial(n)) for n in ns]


def id20e(ns, a):
    return [(comb(4 * n, 2 * n), 1) for n in ns]


def id21(ns, a):
    s, twice = a["s"], range(2 * ns[0], 2 * ns[-1] + 1, 2)
    tops = zip(ns, rising_tops(2 * s + 1, twice), rising_tops(s, ns))
    return [(central_binomial(n) * nu * dd, du * nd) for n, (nu, du), (nd, dd) in tops]


def id22(ns, a):
    h, dh = harmonic_row(2 * ns[-1] + 1)
    return [((2 * n + 1) * central_binomial(n) * (2 * h[2 * n + 1] - h[n] - 2 * dh),
             dh * 4**n) for n in ns]


def id23(ns, a):
    return [(n * central_binomial(n), 2) for n in ns]


def id24(ns, a):
    h, dh = harmonic_row(2 * ns[-1])
    return [(central_binomial(n) * (2 * h[n] - h[2 * n]), dh) for n in ns]


def id25(ns, a):
    (h, _), (h2, d2) = harmonic_row(2 * ns[-1]), harmonic_row(2 * ns[-1], 2)   # d2: h's den squared
    return [(central_binomial(n) * (d * d + h2[n] - h2[2 * n]), d2)
            for n in ns for d in [h[2 * n] - 2 * h[n]]]


def id26(ns, a):
    (h, _), (h2, d2) = harmonic_row(2 * ns[-1]), harmonic_row(2 * ns[-1], 2)
    return [(central_binomial(n) * (d * d + 2 * h2[n] - h2[2 * n]), d2)
            for n in ns for d in [h[2 * n] - 2 * h[n]]]
