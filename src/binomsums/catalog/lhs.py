"""Left-hand-side evaluators, one per catalog entry.

Each function computes the left side of its identity exactly as displayed,
by direct summation, as a block evaluator: ``idNN(ns, a)`` takes an
ascending range of n, reads each of its rows once, at the top of the range,
and returns each n's (num, den) pair in order, undivided: the check divides
a row once (entries.py, where ``exact.block`` makes a single n a block of
one, divided).  An alternating sign is folded into a row (``alternating``)
and a row that moves with n (``pascal_rows``' C(n-p, .)) comes one per n of
the block, read reversed.  A side shares with the right-hand sides only the
scalar helpers of exact.py, each tested on its own: it builds its own rows,
at the draw's values and at arguments written out from them (s + p, -p,
(t^2+1)/(2t)), and reads kept rows only where they depend on n alone
(``harmonic_row``, ``n_row``'s signed coefficients such as (-1)^(n+k) C(n,
k) C(n+k, k)).  A kept row's entries have the values either side would
build: it can hide a wrong row only as a shared kernel can, and a test
breaks each row helper in both modules at once, and every entry using it
must then fail.  A sum is a dot product of rows, ints over one den per row
for exact parameters, over the product of those dens; H_k^2 and H_k^(2) read
at one n both sit over lcm(1..N)^2, N the depth class of n.  The sums are
ring-generic: RatFunc parameters give MultiPoly pairs, one RatFunc once
divided, and Jet2 parameters (the jet oracle differentiates ID06, ID07, ID08
and ID21) jet pairs.  ID09 reads C(n, k) C(beta+k, n) as C(beta, n-k)
C(beta+k, k), from two rows at beta.

ID07 and ID19 are stated with both sides divided by C(n, p): that
normalization is what makes every factor rational for every rational p
(and polynomial in p, hence jet-liftable).  The un-divided originals are
checked separately for non-negative integer p, where they are directly
evaluable.

ID04 has an inner index j = 0..n.  A side gives its whole j-row (row, den),
and the check compares the two rows; entries.py gives a per-j caller one
entry of it.  The left row is the paper's Taylor step: the coefficients of
f(x) = sum_k C(beta+k, k) C(alpha, n-k) x^k at the powers of x + 1 are those
of f(y - 1), so the weights are Taylor-shifted by -1 (``taylor_shift``).
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, lcm
from operator import mul

from ..exact import (alternating, binom_row, binom_tops, central_binomial, harmonic_row, n_row,
                     pascal_rows, power_row, product_row, reciprocal_row, rising_row,
                     taylor_shift)
from ..legendre import legendre, legendre_row


def id01(ns, a):
    px, dx = power_row(a["x"], ns[-1])
    return [(sum(map(mul, n_row("C(n,k)C(n+k,k)", n), px)), dx) for n in ns]


def id02(ns, a):
    bx, dbx = product_row(rising_row, a["beta"], power_row, a["x"], ns[-1])   # C(beta+k, k) x^k
    ay, day = product_row(binom_row, a["alpha"], power_row, a["y"], ns[-1])   # C(alpha, m) y^m
    return [(sum(map(mul, bx, ay[n::-1])), dbx * day) for n in ns]


def id03(ns, a):
    ba, da = binom_row(a["alpha"], ns[-1])
    bx, dbx = product_row(rising_row, a["beta"], power_row, a["x"], ns[-1])
    return [(sum(map(mul, bx, ba[n::-1])), da * dbx) for n in ns]


def id04(ns, a):
    """[sum_k (-1)^(k+j) C(k, j) C(beta+k, k) C(alpha, n-k)]_j, j = 0..n, over
    one den: the weights Taylor-shifted by -1 (module docstring)."""
    (ba, da), (bb, db) = binom_row(a["alpha"], ns[-1]), rising_row(a["beta"], ns[-1])
    return [(taylor_shift(list(map(mul, bb, ba[n::-1])), -1), da * db) for n in ns]


def id05(ns, a):
    return [(4**n * b, d) for n, (b, d) in zip(ns, binom_tops(a["lam"], ns))]


def id06(ns, a):
    st, dst = product_row(binom_row, a["s"], reciprocal_row, a["t"], ns[-1])  # C(s, k) / C(t+k, k)
    return [(sum(map(mul, n_row("C(n,k)", n), st)), dst) for n in ns]


def id07(ns, a):
    bs, ds = rising_row(a["s"], ns[-1])                       # C(s+k, k)
    rows, dp = pascal_rows(-a["p"], ns, True)                 # (-1)^m C(n-p, m)
    return [(sum(map(mul, bs, reversed(bnp))), dp * ds) for bnp in rows]


def id08(ns, a):
    bx, dbx = product_row(rising_row, a["beta"], power_row, a["x"], ns[-1])   # C(beta+k, k) x^k
    return [(sum(map(mul, n_row("C(n,k)", n), bx)), dbx) for n in ns]


def id09(ns, a):
    (ba, da), (bb, db) = binom_row(a["beta"], ns[-1]), rising_row(a["beta"], ns[-1])
    bb = alternating(bb)        # C(n,k) C(beta+k,n) = C(beta,n-k) C(beta+k,k), signed (-1)^k
    return [(sum(map(mul, ba[n::-1], bb)), da * db) for n in ns]


def id10(ns, a):
    bb, den = rising_row(a["beta"], ns[-1])
    return [(sum(map(mul, n_row("(-1)^k C(n,k)", n), bb)), den) for n in ns]


def id11(ns, a):
    h, dh = harmonic_row(ns[-1])
    return [(h[n], dh) for n in ns]


def id12(ns, a):
    px, dx = power_row(a["x"], ns[-1])
    return [(sum(map(mul, n_row("C(n,k)C(2k,k)4^(n-k)", n), px)), dx * 4**n) for n in ns]


def id13(ns, a):
    t = a["t"]
    return legendre(ns, (t * t + 1) / (2 * t))


def id14(ns, a):
    t = a["t"]
    pt, dpt = product_row(legendre_row, (t * t + 1) / (2 * t), power_row, t, ns[-1])  # P_k t^k
    return [(sum(map(mul, n_row("(-1)^k C(n,k)", n), pt)), dpt) for n in ns]


def id15(ns, a):
    (bs, ds), (h, dh) = rising_row(a["s"], ns[-1]), harmonic_row(ns[-1])   # C(s+k, k), H_k
    bh = tuple(map(mul, bs, h))
    return [(sum(map(mul, n_row("(-1)^(n+k) C(n,k)", n), bh)), ds * dh) for n in ns]


id16 = id11                     # H_n


def id17(ns, a):
    h, dh = harmonic_row(ns[-1])
    return [(sum(map(mul, n_row("(-1)^k C(n,k)C(2k,k)4^(n-k)", n), h)), dh * 4**n) for n in ns]


def id18(ns, a):
    h, dh = harmonic_row(ns[-1])
    return [(h[n] * h[n], dh * dh) for n in ns]


def id19(ns, a):
    s, p = a["s"], a["p"]
    bsp, dsp = binom_row(s + p, ns[-1])         # C(s+p, k)
    rows, dp = pascal_rows(-p, ns)              # C(n-p, m)
    return [(sum(map(mul, bsp, reversed(bnp))), dp * dsp) for bnp in rows]


def id20(ns, a):
    dens = list(accumulate(map(central_binomial, range(ns[-1] + 1)), lcm))
    return [(sum(4**k * comb(n, k) ** 2 * (dens[n] // central_binomial(k))
                 for k in range(n + 1)), dens[n]) for n in ns]


def id20e(ns, a):
    return [(sum(comb(2 * n, 2 * k) * central_binomial(n - k) * 4**k for k in range(n + 1)), 1)
            for n in ns]


def id21(ns, a):
    bs, ds = rising_row(a["s"], ns[-1])         # C(s+k, k)
    return [(sum(map(mul, n_row("C(2n-2k,n-k)4^k", n), bs)), ds) for n in ns]


def id22(ns, a):
    h, dh = harmonic_row(ns[-1])                # k -> n-k: C(2n-2k, n-k) 4^k H_k
    return [(sum(map(mul, n_row("C(2n-2k,n-k)4^k", n), h)), dh * 4**n) for n in ns]


def id23(ns, a):
    return [(sum(k * comb(n, k) ** 2 for k in range(n + 1)), 1) for n in ns]


def id24(ns, a):
    h, dh = harmonic_row(ns[-1])
    return [(sum(map(mul, n_row("C(n,k)^2", n), h)), dh) for n in ns]


def id25(ns, a):
    h, dh = harmonic_row(ns[-1])
    return [(sum(map(mul, n_row("C(n,k)^2", n), map(mul, h, h[n::-1]))), dh * dh) for n in ns]


def id26(ns, a):
    (h, _), (h2, d2) = harmonic_row(ns[-1]), harmonic_row(ns[-1], 2)
    terms = tuple(v * v + w for v, w in zip(h, h2))
    return [(sum(map(mul, n_row("C(n,k)^2", n), terms)), d2) for n in ns]
