"""Right-hand-side evaluators, one per catalog entry.

Implemented from the displayed right sides only; see lhs.py for the
independence convention, kept rows and ``n_row`` included, and the C(n, p)
normalization of ID07/ID19.  Each closed form builds one numerator and one
denominator and divides once (``over``), so a ``RatFunc`` side is
canonicalised once: a single binomial is entry n of a kept row as a pair
(``binom_top``, ``rising_top``), the harmonic numbers are entries of
``harmonic_row`` at one n, over one den, and ID15's digamma sum
is ``pole_sum``'s pair.  ID08 reads C(n, k) C(beta+k, n) from beta's rows,
as lhs.py's ID09 does.

ID04's right side is, as in lhs.py, its whole j-row (-1)^(n+j) C(beta+j, j)
C(beta-alpha+n, n-j) over one den.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul

from ..exact import (binom_poly, binom_row, binom_top, binom_upper_shift, central_binomial,
                     derived, harmonic_row, n_row, over, pascal_row, pole_sum, power_row,
                     product_row, reciprocal_row, rising_row, rising_top)
from ..legendre import legendre_new_repr


def id01(n, a):
    px, dx = power_row(derived("x+1", a["x"]), n)
    return over(sum(map(mul, n_row("(-1)^(n+k) C(n,k)C(n+k,k)", n), px)), dx)


def id02(n, a):
    alpha, beta, x, y = a["alpha"], a["beta"], a["x"], a["y"]
    bg, dg = pascal_row(derived("x-y", beta, alpha), n)   # C(beta-alpha+n, m)
    bp, dp = product_row(rising_row, beta, power_row, derived("x+y", x, y), n)  # C(b+k,k) (x+y)^k
    py, dy = power_row(y, n)
    terms = (bg[n - k] * bp[k] * py[n - k] for k in range(n + 1))
    return over(sum(-v if (n + k) % 2 else v for k, v in enumerate(terms)), dg * dp * dy)


def id03(n, a):
    alpha, beta = a["alpha"], a["beta"]
    bg, dg = pascal_row(derived("x-y", beta, alpha), n)
    bp, dp = product_row(rising_row, beta, power_row, derived("x+1", a["x"]), n)
    terms = map(mul, reversed(bg), bp)
    return over(sum(-v if (n + j) % 2 else v for j, v in enumerate(terms)), dg * dp)


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
    nb, db = binom_top(derived("2x", lam), n)
    return over(nb * sum(map(mul, n_row("C(n,k)", n), map(mul, top, low))), db * dt * dl)


def id06(n, a):
    (nu, du), (nt, dt) = rising_top(derived("x+y", a["s"], a["t"]), n), rising_top(a["t"], n)
    return over(nu * dt, du * nt)


def id07(n, a):
    return binom_poly(derived("x+y", a["s"], a["p"]), n)


def id08(n, a):
    ba, da = binom_row(a["beta"], n)
    bp, dp = product_row(rising_row, a["beta"], power_row, derived("x+1", a["x"]), n)
    terms = map(mul, reversed(ba), bp)  # C(beta,n-k) C(beta+k,k) (x+1)^k: lhs.id09
    return over(sum(-v if (n + k) % 2 else v for k, v in enumerate(terms)), da * dp)


def id09(n, a):
    return Fraction(-1 if n % 2 else 1)


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
    p, q = a["t"].numerator, a["t"].denominator
    return over(central_binomial(n) * (q * q - p * p) ** n, (4 * q * q) ** n)


def id15(n, a):
    s = a["s"]
    (nb, db), (h, dh) = binom_top(s, n), harmonic_row(n)
    return pole_sum(s, n, 1, lambda t, d: (nb * (h[n] * d + t * dh), db * dh * d))


def id16(n, a):
    h, dh = harmonic_row(n)
    return over(sum(map(mul, n_row("(-1)^(n+k) C(n,k)C(n+k,k)", n), h)), 2 * dh)


def id17(n, a):
    h, dh = harmonic_row(2 * n)
    return over(2 * central_binomial(n) * (h[n] - h[2 * n]), dh * 4**n)


def id18(n, a):
    h, _ = harmonic_row(n)
    h2, d2 = harmonic_row(n, 2)            # over lcm(1..N)^2 at one n, as H_k^2 is
    terms = (v * v + w for v, w in zip(h, h2))
    return over(sum(map(mul, n_row("(-1)^(n+k) C(n,k)C(n+k,k)", n), terms)), 4 * d2)


def id19(n, a):
    return binom_upper_shift(a["s"], n)


def id20(n, a):
    return over(comb(4 * n, 2 * n), central_binomial(n))


def id20e(n, a):
    return Fraction(comb(4 * n, 2 * n))


def id21(n, a):
    s = a["s"]
    (nu, du), (ns, ds) = rising_top(derived("2x+1", s), 2 * n), rising_top(s, n)
    return over(central_binomial(n) * nu * ds, du * ns)


def id22(n, a):
    h, dh = harmonic_row(2 * n + 1)
    return over((2 * n + 1) * central_binomial(n) * (2 * h[2 * n + 1] - h[n] - 2 * dh), dh * 4**n)


def id23(n, a):
    return over(n * central_binomial(n), 2)


def id24(n, a):
    h, dh = harmonic_row(2 * n)
    return over(central_binomial(n) * (2 * h[n] - h[2 * n]), dh)


def id25(n, a):
    (h, _), (h2, d2) = harmonic_row(2 * n), harmonic_row(2 * n, 2)   # d2: the den of h, squared
    d = h[2 * n] - 2 * h[n]
    return over(central_binomial(n) * (d * d + h2[n] - h2[2 * n]), d2)


def id26(n, a):
    (h, _), (h2, d2) = harmonic_row(2 * n), harmonic_row(2 * n, 2)
    d = h[2 * n] - 2 * h[n]
    return over(central_binomial(n) * (d * d + 2 * h2[n] - h2[2 * n]), d2)
