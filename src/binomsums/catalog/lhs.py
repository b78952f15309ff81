"""Left-hand-side evaluators, one per catalog entry.

Each function computes the left side of its identity exactly as displayed,
by direct summation with running products; nothing here is shared with the
right-hand sides beyond the scalar layer, so the two sides stay independent
computation paths.  Entries whose sides get differentiated by the jet
oracle (ID06, ID07, ID08, ID21) are written ring-generically: parameters
may be Fractions or Jet2 values.

ID07 and ID19 are stated with both sides divided by C(n, p): that
normalization is what makes every factor rational for every rational p
(and polynomial in p, hence jet-liftable).  The un-divided originals are
checked separately for non-negative integer p, where they are directly
evaluable.

ID04 is checked at every inner index j = 0..n with the same n, alpha and
beta, so its j-free weights (-1)^k C(beta+k, k) C(alpha, n-k) are kept in a
one-slot memo and each j costs only sum_{k>=j} C(k, j) w_k.  The memo key is
n plus the identity of the alpha and beta objects, not their value: RatFunc
and Jet2 values are unhashable, all values are immutable, the check hands
every j the same objects, and the slot holds strong references, so an id
cannot be reused while it is the key.  rhs.py keeps its own slot, so the two
sides still share no computed value.
"""

from __future__ import annotations

from fractions import Fraction

from ..exact import binom_int, binom_poly, binom_row, central_binomial, harmonic
from ..legendre import legendre

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
    total = F(0)
    bb = F(1)                      # C(beta+k, k)
    for k in range(n + 1):
        if k:
            bb = bb * (beta + k) / k
        total += ba[n - k] * bb * x**k * y ** (n - k)
    return total


def id03(n, a):
    alpha, beta, x = a["alpha"], a["beta"], a["x"]
    ba = binom_row(alpha, n)
    total = F(0)
    bb = F(1)
    for k in range(n + 1):
        if k:
            bb = bb * (beta + k) / k
        total += ba[n - k] * bb * x**k
    return total


# (n, alpha, beta, weights) of the last ID04 call; see the module docstring
_id04_memo = (None, None, None, None)


def _id04_weights(n, alpha, beta):
    """[(-1)^k C(beta+k, k) C(alpha, n-k) for k in 0..n], the j-free factors."""
    global _id04_memo
    memo_n, memo_alpha, memo_beta, weights = _id04_memo
    if memo_n == n and memo_alpha is alpha and memo_beta is beta:
        return weights
    ba = binom_row(alpha, n)
    weights = []
    bb = F(1)
    for k in range(n + 1):
        if k:
            bb = bb * (beta + k) / k
        term = bb * ba[n - k]
        weights.append(-term if k % 2 else term)
    _id04_memo = (n, alpha, beta, weights)
    return weights


def id04(n, a):
    j = int(a["j"])
    weights = _id04_weights(n, a["alpha"], a["beta"])
    total = F(0)
    for k in range(j, n + 1):
        total += binom_int(k, j) * weights[k]
    return -total if j % 2 else total


def id05(n, a):
    return 4**n * binom_poly(a["lam"], n)


def id06(n, a):
    s, t = a["s"], a["t"]
    total = s * 0
    bs = s * 0 + 1                 # C(s, k)
    bt = bs                       # C(t+k, k)
    for k in range(n + 1):
        if k:
            bs = bs * (s - k + 1) / k
            bt = bt * (t + k) / k
        total = total + binom_int(n, k) * bs / bt
    return total


def id07(n, a):
    s, p = a["s"], a["p"]
    bnp = [p * 0 + 1]              # C(n-p, m), ring-generic in p
    for m in range(1, n + 1):
        bnp.append(bnp[-1] * (n - p - m + 1) / m)
    total = s * 0
    bs = s * 0 + 1                 # C(s+k, k)
    for k in range(n + 1):
        if k:
            bs = bs * (s + k) / k
        term = bs * bnp[n - k]
        total = total + (-term if (n + k) % 2 else term)
    return total


def id08(n, a):
    beta, x = a["beta"], a["x"]
    total = beta * 0
    bb = beta * 0 + 1              # C(beta+k, k)
    for k in range(n + 1):
        if k:
            bb = bb * (beta + k) / k
        total = total + binom_int(n, k) * bb * x**k
    return total


def id09(n, a):
    beta = a["beta"]
    total = F(0)
    for k in range(n + 1):
        term = binom_int(n, k) * binom_poly(beta + k, n)
        total += -term if k % 2 else term
    return total


def id10(n, a):
    beta = a["beta"]
    total = F(0)
    bb = F(1)
    for k in range(n + 1):
        if k:
            bb = bb * (beta + k) / k
        total += -binom_int(n, k) * bb if k % 2 else binom_int(n, k) * bb
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
    arg = (t * t + 1) / (2 * t)
    total = F(0)
    power = F(1)
    prev, cur = F(0), F(1)         # P_{k-1}, P_k walked along the recurrence
    for k in range(n + 1):
        if k == 1:
            prev, cur = cur, arg
        elif k >= 2:
            prev, cur = cur, ((2 * k - 1) * arg * cur - (k - 1) * prev) / k
        term = binom_int(n, k) * cur * power
        total += -term if k % 2 else term
        power *= t
    return total


def id15(n, a):
    s = a["s"]
    total = F(0)
    bs = F(1)                      # C(s+k, k)
    for k in range(n + 1):
        if k:
            bs = bs * (s + k) / k
        term = binom_int(n, k) * bs * harmonic(k)
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
    bnp = [F(1)]                   # C(n-p, m)
    for m in range(1, n + 1):
        bnp.append(bnp[-1] * (n - p - m + 1) / m)
    total = F(0)
    bsp = F(1)                     # C(s+p, k)
    for k in range(n + 1):
        if k:
            bsp = bsp * (s + p - k + 1) / k
        total += bsp * bnp[n - k]
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
    total = s * 0
    bs = s * 0 + 1                 # C(s+k, k)
    for k in range(n + 1):
        if k:
            bs = bs * (s + k) / k
        total = total + bs * central_binomial(n - k) * 4**k
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
