"""Left-hand-side evaluators, one per catalog entry.

Each function computes the left side of its identity exactly as displayed,
by direct summation; nothing here is shared with the right-hand sides beyond
the scalar helpers (``binom_row``, ``rising_row``, ``binom_poly``,
``harmonic``, ``legendre_row``), each tested on its own; a test breaks each
row helper in both modules at once and every entry using it must then fail,
so the two sides stay independent computation paths.  Entries whose sides get
differentiated by the jet oracle (ID06, ID07, ID08, ID21) are written
ring-generically: parameters may be Fractions or Jet2 values.

ID07 and ID19 are stated with both sides divided by C(n, p): that
normalization is what makes every factor rational for every rational p
(and polynomial in p, hence jet-liftable).  The un-divided originals are
checked separately for non-negative integer p, where they are directly
evaluable.

ID04 is checked at every inner index j = 0..n with the same n, alpha and
beta, so its j-free weights (-1)^k C(beta+k, k) C(alpha, n-k) are kept in a
one-slot memo and each j costs only sum_{k>=j} C(k, j) w_k.  For Fraction
alpha and beta the memo holds the weights as int numerators over their one
lcm denominator, so each j is one int sum and one Fraction.  The memo key is
n plus the identity of the alpha and beta objects, not their value: RatFunc
and Jet2 values are unhashable, all values are immutable, the check hands
every j the same objects, and the slot holds strong references, so an id
cannot be reused while it is the key.  rhs.py keeps its own slot, so the two
sides still share no computed value.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ..exact import (binom_int, binom_poly, binom_row, central_binomial, harmonic,
                     rising_row, zero_like)
from ..legendre import legendre, legendre_row

F = Fraction


def id01(n, a):
    x = a["x"]
    total = F(0)
    for k in range(n + 1):
        total += binom_int(n, k) * binom_int(n + k, k) * x**k
    return total


def id02(n, a):
    alpha, beta, x, y = a["alpha"], a["beta"], a["x"], a["y"]
    ba = binom_row(alpha, n)      # C(alpha, m)
    bb = rising_row(beta, n)      # C(beta+k, k)
    total = F(0)
    for k in range(n + 1):
        total += ba[n - k] * bb[k] * x**k * y ** (n - k)
    return total


def id03(n, a):
    alpha, beta, x = a["alpha"], a["beta"], a["x"]
    ba = binom_row(alpha, n)
    bb = rising_row(beta, n)
    total = F(0)
    for k in range(n + 1):
        total += ba[n - k] * bb[k] * x**k
    return total


# (n, alpha, beta, weights) of the last ID04 call; see the module docstring
_id04_memo = (None, None, None, None)


def _id04_weights(n, alpha, beta):
    """The j-free factors (-1)^k C(beta+k, k) C(alpha, n-k), k = 0..n, and
    their int lcm denominator, or ring values and None (module docstring)."""
    global _id04_memo
    memo_n, memo_alpha, memo_beta, weights = _id04_memo
    if memo_n == n and memo_alpha is alpha and memo_beta is beta:
        return weights
    ba = binom_row(alpha, n)
    bb = rising_row(beta, n)
    terms = [-bb[k] * ba[n - k] if k % 2 else bb[k] * ba[n - k] for k in range(n + 1)]
    if isinstance(alpha, F) and isinstance(beta, F):
        den = lcm(*(w.denominator for w in terms))
        weights = [w.numerator * (den // w.denominator) for w in terms], den
    else:
        weights = terms, None
    _id04_memo = (n, alpha, beta, weights)
    return weights


def id04(n, a):
    j = int(a["j"])
    weights, den = _id04_weights(n, a["alpha"], a["beta"])
    total = sum(binom_int(k, j) * weights[k] for k in range(j, n + 1))
    if den is not None:
        total = F(total, den)
    return -total if j % 2 else total


def id05(n, a):
    return 4**n * binom_poly(a["lam"], n)


def id06(n, a):
    s, t = a["s"], a["t"]
    bs = binom_row(s, n)           # C(s, k)
    bt = rising_row(t, n)          # C(t+k, k)
    total = zero_like(s)
    for k in range(n + 1):
        total = total + binom_int(n, k) * bs[k] / bt[k]
    return total


def id07(n, a):
    s, p = a["s"], a["p"]
    bnp = binom_row(n - p, n)      # C(n-p, m)
    bs = rising_row(s, n)          # C(s+k, k)
    total = zero_like(s)
    for k in range(n + 1):
        term = bs[k] * bnp[n - k]
        total = total + (-term if (n + k) % 2 else term)
    return total


def id08(n, a):
    beta, x = a["beta"], a["x"]
    bb = rising_row(beta, n)       # C(beta+k, k)
    total = zero_like(beta)
    for k in range(n + 1):
        total = total + binom_int(n, k) * bb[k] * x**k
    return total


def id09(n, a):
    beta = a["beta"]
    total = F(0)
    for k in range(n + 1):
        term = binom_int(n, k) * binom_poly(beta + k, n)
        total += -term if k % 2 else term
    return total


def id10(n, a):
    bb = rising_row(a["beta"], n)
    total = F(0)
    for k in range(n + 1):
        total += -binom_int(n, k) * bb[k] if k % 2 else binom_int(n, k) * bb[k]
    return total


def id11(n, a):
    return harmonic(n)


def id12(n, a):
    x = a["x"]
    total = F(0)
    for k in range(n + 1):
        total += binom_int(n, k) * central_binomial(k) * x**k / 4**k
    return total


def id13(n, a):
    t = a["t"]
    return legendre(n, (t * t + 1) / (2 * t))


def id14(n, a):
    t = a["t"]
    values = legendre_row(n, (t * t + 1) / (2 * t))
    total = F(0)
    power = F(1)
    for k in range(n + 1):
        term = binom_int(n, k) * values[k] * power
        total += -term if k % 2 else term
        power *= t
    return total


def id15(n, a):
    bs = rising_row(a["s"], n)     # C(s+k, k)
    total = F(0)
    for k in range(n + 1):
        term = binom_int(n, k) * bs[k] * harmonic(k)
        total += -term if (n + k) % 2 else term
    return total


def id16(n, a):
    return harmonic(n)


def id17(n, a):
    total = F(0)
    for k in range(1, n + 1):
        term = binom_int(n, k) * central_binomial(k) * harmonic(k) / F(4**k)
        total += -term if k % 2 else term
    return total


def id18(n, a):
    h = harmonic(n)
    return h * h


def id19(n, a):
    s, p = a["s"], a["p"]
    bnp = binom_row(n - p, n)      # C(n-p, m)
    bsp = binom_row(s + p, n)      # C(s+p, k)
    total = F(0)
    for k in range(n + 1):
        total += bsp[k] * bnp[n - k]
    return total


def id20(n, a):
    total = F(0)
    for k in range(n + 1):
        total += F(4**k) * binom_int(n, k) ** 2 / central_binomial(k)
    return total


def id20e(n, a):
    total = 0
    for k in range(n + 1):
        total += binom_int(2 * n, 2 * k) * central_binomial(n - k) * 4**k
    return F(total)


def id21(n, a):
    s = a["s"]
    bs = rising_row(s, n)          # C(s+k, k)
    total = zero_like(s)
    for k in range(n + 1):
        total = total + bs[k] * central_binomial(n - k) * 4**k
    return total


def id22(n, a):
    total = F(0)
    for k in range(n + 1):
        total += central_binomial(k) * harmonic(n - k) / F(4**k)
    return total


def id23(n, a):
    total = 0
    for k in range(1, n + 1):
        total += k * binom_int(n, k) ** 2
    return F(total)


def id24(n, a):
    total = F(0)
    for k in range(n + 1):
        total += binom_int(n, k) ** 2 * harmonic(k)
    return total


def id25(n, a):
    total = F(0)
    for k in range(n + 1):
        total += binom_int(n, k) ** 2 * harmonic(k) * harmonic(n - k)
    return total


def id26(n, a):
    total = F(0)
    for k in range(n + 1):
        h = harmonic(k)
        total += binom_int(n, k) ** 2 * (h * h + harmonic(k, 2))
    return total
