"""Exact rational building blocks.

All scalars in this package are ``fractions.Fraction``.  Parameters range
over the rationals: every identity verified here is a rational-function
identity, so rational inputs are dense enough to pin it down, and no
floating-point value ever appears.  The digamma and trigamma functions enter
only through the differences psi(s+1) - psi(s-n+1) and psi'(s+1) -
psi'(s-n+1), which are rational in s, so the constants gamma, pi^2 and ln 2
never enter the value domain.

Row convention: every ``*_row`` kernel returns ``(row, den)``, read-only, and
reads its input as p/q through ``numerator`` and ``denominator``, so one path
serves all three rings: ints over one int den > 0 for an int or ``Fraction``
(n! q^n for the binomial rows, q^n for ``power_row``, lcm(1..N)^order for
``harmonic_row``), ``MultiPoly`` values over one ``MultiPoly`` for a
``RatFunc``, int-coefficient jets over one int for a ``Jet2``.  No kernel
divides, and every catalog side hands back each n's (num, den) undivided
(``block``: a single n is a block of one, divided); a pair leaves through one
exit, ``over``, which divides it in its ring, into one ``Fraction``, one
``RatFunc`` or a jet.  ``binom_tops`` and ``rising_tops`` read entries of a
kernel's row as such pairs, without the rest of the row (``_tops``), as
``binom_upper_shift``, ``pole_sum`` (sum_{i<n} 1/(s-i)^power, one running sum
over the product of the (p - iq)^power) and ``legendre`` do for a range of n,
dividing one for one n.  ``reciprocal_row``'s den is the product of the
rising factors, so a vanishing C(b+k, k) raises the ring's
``ZeroDivisionError`` at ``over`` (``Pole`` for a jet).

A row at a parameter is built afresh by each call (only the rows that depend
on n alone, below, are kept): a block side reads each of its rows once, at
the top of its range of n, and ``product_row`` is the entrywise product of
two rows along one k (C(beta+k, k) x^k, C(s, k) / C(t+k, k), P_k t^k).
``pascal_rows`` steps C(g+n, .), which moves with n, through a block by
Pascal's rule in additions, over g's rising den; ``pascal_step`` and
``reciprocal_step`` take a row of C(x, k) or 1/C(b+k, k) one deeper at x + 1
or b - 1 (the WZ grid's moving C).

``harmonic_row(n, order)`` is a prefix of the table kept for n's depth
class N, the least power of two >= max(n, 32): H_0 .. H_N over
lcm(1..N)^order, so a read depends on n alone and two orders read at one n
share a den (H_k^2 and H_k^(2) over lcm(1..N)^2).  ``n_row(form, n)`` holds
a sum's int coefficients along k that depend on n alone, its sign folded
in, so a sum is one dot product; the last 256 are kept, as tuples, enough
for two forms of one entry's sweep to n = 127 draw by draw.  Both are shared
by the draws at one n and by the two sides of an identity.

Rendering convention (used by the CLI and all JSON output): lowest terms
with positive denominator, ``p/q``, or just ``p`` when the denominator is 1,
with a leading ``-`` on the numerator.  ``parse_rational`` reads it back, and
any other ``-``? digits (``/`` digits) spelling in ASCII digits too (``007``, ``4/2``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, partial, update_wrapper
from itertools import accumulate
from math import comb, lcm
from operator import add, mul, sub

from .poly import MultiPoly, RatFunc

__all__ = ["Pole", "alternating", "binom_poly", "binom_row", "binom_tops", "binom_upper_shift",
           "block", "central_binomial", "digamma_diff", "harmonic", "harmonic_row",
           "n_row", "over", "parse_rational", "pascal_rows", "pascal_step", "pole_sum",
           "power_row", "product_row", "reciprocal_row", "reciprocal_step", "render_rational",
           "rising_row", "rising_tops", "taylor_shift", "trigamma_diff"]


class Pole(ZeroDivisionError):
    """A term with no value at a draw: the only exception a check reports as skipped."""


# ---------------------------------------------------------------------------
# Rendering / parsing
# ---------------------------------------------------------------------------

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?\Z")


def render_rational(q: Fraction) -> str:
    """Render in the canonical ``p/q`` / ``p`` format."""
    return str(q)


def parse_rational(text: str) -> Fraction:
    """``-``? digits (``/`` digits of a nonzero den), ASCII 0-9 only, and no ``+``, space,
    float or exponent: :func:`render_rational`'s output or any other spelling, so
    ``007``, ``-0``, ``4/2`` and ``3/1`` read as 7, 0, 2 and 3."""
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    if den and int(den) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(num), int(den or 1))


# ---------------------------------------------------------------------------
# Harmonic numbers
# ---------------------------------------------------------------------------

def harmonic(n: int, order: int = 1) -> Fraction:
    """H_n^(order) = sum_{i=1..n} 1/i^order, with H_0 = 0."""
    row, den = harmonic_row(n, order)
    return Fraction(row[n], den)


def harmonic_row(n: int, order: int = 1):
    """((H_0, ..., H_n) of the given order, lcm(1..N)^order), as ints: a prefix of
    the table at n's depth class N, the least power of two >= max(n, 32)."""
    if order < 1:
        raise ValueError("harmonic order must be >= 1")
    if n < 0:
        raise ValueError("harmonic rows are indexed by n >= 0")
    row, den = _harmonic_table(max(32, 1 << (n - 1).bit_length()), order)
    return row[:n + 1], den


@lru_cache(maxsize=None)
def _harmonic_table(depth: int, order: int):
    """((H_0, ..., H_depth) of ``order`` over lcm(1, ..., depth)^order, that den): the
    orders at one depth share a power of one lcm, lcm^2 = den(H)^2 = den(H^(2))."""
    top = lcm(*range(1, depth + 1)) ** order
    return (0, *accumulate(top // i**order for i in range(1, depth + 1))), top


# ---------------------------------------------------------------------------
# Binomial coefficients
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def central_binomial(k: int) -> int:
    """binom(2k, k), kept."""
    if k < 0:
        raise ValueError("central binomials are indexed by k >= 0")
    return comb(2 * k, k)


_COEFFS = {
    "C(n,k)": comb,
    "C(n,k)C(n+k,k)": lambda n, k: comb(n, k) * comb(n + k, k),
    "C(n,k)^2": lambda n, k: comb(n, k) ** 2,
    "C(n,k)C(2k,k)": lambda n, k: comb(n, k) * central_binomial(k),
    "C(n,k)C(2k,k)4^(n-k)": lambda n, k: comb(n, k) * central_binomial(k) * 4 ** (n - k),
    "C(2k,k)C(2n-2k,n-k)": lambda n, k: central_binomial(k) * central_binomial(n - k),
    "C(2n-2k,n-k)4^k": lambda n, k: central_binomial(n - k) * 4**k,
}


@lru_cache(maxsize=256)
def n_row(form: str, n: int) -> tuple[int, ...]:
    """(c_0, ..., c_n), the ints ``form`` names along k at n, kept; a form led by
    "(-1)^k " or "(-1)^(n+k) " has that sign folded in."""
    if n < 0:
        raise ValueError("row depth must be non-negative")
    sign, _, body = form.rpartition(" ")  # "(-1)^k C(n,k)": "(-1)^k", "C(n,k)"
    even, odd = {"": (1, 1), "(-1)^k": (1, -1), "(-1)^(n+k)": ((-1) ** n, (-1) ** (n + 1))}[sign]
    return tuple((odd if k % 2 else even) * _COEFFS[body](n, k) for k in range(n + 1))


def block(side):
    """``side(ns, a)``, its (num, den) pairs over an ascending range ns, as a catalog side
    that also takes a single n as a block of one, ``over`` (ID04's: ``entries._per_index``)."""
    return update_wrapper(lambda n, a: side(n, a) if type(n) is range
                          else over(*side(range(n, n + 1), a)[0]), side)


def alternating(row):
    """[(-1)^k row[k]]: read reversed from n, entry k is (-1)^(n+k) row[n-k]."""
    return tuple(-v if k % 2 else v for k, v in enumerate(row))


def over(total, den):
    """The exit of a row sum: ``total / den``, as one ``Fraction`` for int
    parts, one ``RatFunc`` when either part is a ``MultiPoly``, and in total's
    ring otherwise (total itself when den == 1)."""
    if type(total) is type(den) is int:
        return Fraction(total, den)
    return (RatFunc(*(v if isinstance(v, MultiPoly) else MultiPoly.const(v) for v in (total, den)))
            if isinstance(total, MultiPoly) or isinstance(den, MultiPoly)
            else total if den == 1 else total / den)


def _row(x, n: int, step):
    """(row, den) of a kernel at x = p/q to depth n by multiplication only: step(p, q, m,
    N_{m-1}, N_m) is (N_{m+1}, s_{m+1}), from N_0 = q^0; entry m is N_m s_{m+1} ... s_n
    over den = s_1 ... s_n."""
    if n < 0:
        raise ValueError("row depth must be non-negative")
    p, q = x.numerator, x.denominator
    prev, cur, row, scales = 0, q**0, [p**0], [q**0]   # N_0 and s_0 = 1
    for m in range(n):
        prev, (cur, s) = cur, step(p, q, m, prev, cur)
        row.append(cur)
        scales.append(s)
    den = scales[-1] ** 0       # 1 in the scales' ring, as every entry and den are
    for m in range(n, -1, -1):  # entry m takes s_{m+1} ... s_n, then den takes s_m
        row[m] *= den
        den *= scales[m]
    return tuple(row), den


def _tops(x, ns: range, step):
    """Entry n of ``_row``'s row at x for each n in ns, as (N_n, s_1 ... s_n), built
    without the rest of the row."""
    if ns[-1] < 0:
        raise ValueError("row depth must be non-negative")
    p, q = x.numerator, x.denominator
    tops = [(p**0, q**0)]
    prev, cur, den = 0, *tops[0]
    for m in range(ns[-1]):
        prev, (cur, s) = cur, step(p, q, m, prev, cur)
        den *= s
        tops.append((cur, den))
    return tops[ns.start::ns.step]


def product_row(f, x, g, y, n: int):
    """([a_k b_k for k = 0..n], da db) of the rows (a, da) = f(x, n) and (b, db) = g(y, n)."""
    (a, da), (b, db) = f(x, n), g(y, n)
    return tuple(map(mul, a, b)), da * db


def _falling(p, q, m, _, num):
    return num * (p - m * q), (m + 1) * q


def _rising(p, q, m, _, num):
    return num * (p + (m + 1) * q), (m + 1) * q


def binom_poly(s, k: int):
    """binom(s, k) for integer lower index, as the degree-k polynomial in s:

        s (s-1) ... (s-k+1) / k!

    Returns 0 for k < 0 (the boundary convention that makes the summation
    identities run over k = 0..n with out-of-support terms vanishing).  The
    upper argument may be an int, a Fraction, a RatFunc or a Jet2, since the
    product form is polynomial in s: ``binom_tops``, divided once.
    """
    if isinstance(s, int):
        s = Fraction(s)
    if k < 0:
        return s * 0            # the zero of s's ring
    return over(*binom_tops(s, range(k, k + 1))[0])


def binom_row(s, n: int):
    """([C(s, 0), ..., C(s, n)], n! q^n) at s = p/q: C(s, m) = prod_{i<m} (s-i) / m!."""
    return _row(s, n, _falling)


def rising_row(b, n: int):
    """([C(b+k, k) for k = 0..n], n! q^n) at b = p/q: C(b+k, k) = prod_{i=1..k} (b+i) / k!."""
    return _row(b, n, _rising)


def pascal_rows(g, ns: range, signed=False):
    """([[(-1)^m C(g+n, m)]_{m<=n} for n in ns], den), the sign if ``signed``: ``binom_row(g +
    ns[0], ns[0])``, for a block scaled to the den of ``rising_row(g, ns[-1])`` and stepped by
    Pascal's rule in additions (signed: subtractions), each new top read from that row."""
    rise, (row, den) = (), binom_row(g + ns[0], ns[0])
    if len(ns) > 1:             # one n reads no rising row: O(n) in every ring
        rise, top = rising_row(g, ns[-1])
        scale = top // den if type(top) is int else top.divexact(den)
        row, den = tuple(v * scale for v in row), top
    rows, step = [alternating(row) if signed else row], sub if signed else add
    for n in range(ns[0] + 1, ns[-1] + 1):
        row = rows[-1]
        rows.append((row[0], *map(step, row[1:], row), -rise[n] if signed and n % 2 else rise[n]))
    return rows[::ns.step], den


def pascal_step(row, den, p, q):
    """``binom_row(x, r + 1)`` from ``binom_row(x - 1, r)``, x = p/q in lowest terms, by
    Pascal's rule; each entry and den take (r+1) q, and the top C(x-1, r) x/(r+1) is row[r] p."""
    s = len(row) * q
    return (*[(v + w) * s for v, w in zip(row, (0, *row))], row[-1] * p), den * s


def reciprocal_step(row, den, p, q):
    """``reciprocal_row(b - 1, r + 1)`` from ``reciprocal_row(b, r)``, b = p/q in lowest terms:
    a fresh entry k is k! q^k prod_{i=k..r} (p + iq), so entry k takes p + kq, the top is
    row[r] (r+1) q and den takes p, turned so den > 0 (den is 0 where a fresh den is)."""
    row, den = (*map(mul, row, range(p, p + len(row) * q, q)), row[-1] * len(row) * q), den * p
    return (tuple(-v for v in row), -den) if den < 0 else (row, den)


def taylor_shift(row, by):
    """P's coefficients in row made those of P(x + by), by = 1 or -1, in place by Horner's
    scheme in n(n+1)/2 additions: [sum_k row[k] C(k, j) by^(k-j) for j = 0..n]."""
    for i in range(len(row) - 1):
        for k in range(len(row) - 2, i - 1, -1):
            row[k] = row[k] + row[k + 1] if by > 0 else row[k] - row[k + 1]
    return row


def reciprocal_row(b, n: int):
    """([1/C(b+k, k) for k = 0..n], den), nothing divided: at b = p/q,
    1/C(b+k, k) = k! q^k prod_{i=k+1..n} (p + i q) / prod_{i=1..n} (p + i q),
    ``_row``'s row of N_k = k! q^k and scales p + i q, turned so an int den is
    > 0.  A vanishing C(b+k, k) makes den vanish, and ``over`` raises."""
    row, den = _row(b, n, lambda p, q, m, _, num: (num * (m + 1) * q, p + (m + 1) * q))
    den = den if n else b.numerator**0  # a depth-0 den in p's ring
    return (tuple(-v for v in row), -den) if isinstance(den, int) and den < 0 else (row, den)


def power_row(x, n: int):
    """([x^0, ..., x^n], q^n): p^k q^(n-k) over q^n at x = p/q."""
    return _row(x, n, lambda p, q, m, _, num: (num * p, q))


def binom_upper_shift(b, m):
    """binom(b + m, m) = prod_{i=1..m} (b + i) / m!, m >= 0, or a range's pairs: ``rising_tops``."""
    return rising_tops(b, m) if type(m) is range else over(*rising_tops(b, range(m, m + 1))[0])


# C(s, n) and C(b + n, n) as (num, den) for each n in a range: entries of binom_row, rising_row
binom_tops = partial(_tops, step=_falling)
rising_tops = partial(_tops, step=_rising)


# ---------------------------------------------------------------------------
# Digamma / trigamma differences
# ---------------------------------------------------------------------------

def pole_sum(s, n, power: int):
    """sum_{i<n} 1/(s-i)^power for power 1 or 2, or for a range of n each one's
    (num, den), as one running pass: at s = p/q the terms are q^power / f_i,
    f_i = (p - iq)^power, and each f_i takes total / den to (total f_i + den) /
    (den f_i).  Raises ``Pole`` at the first i with s = i in 0..n-1, where the
    top den vanishes or (for jets: at the base point) a single n's division."""
    ns = n if type(n) is range else range(n, n + 1)
    if ns[-1] < 0:
        raise ValueError("row depth must be non-negative")
    p, q = s.numerator, s.denominator
    sums = [(0, 1)]
    for i in range(ns[-1]):
        (total, den), f = sums[-1], (p - i * q) ** power
        sums.append((total * f + den, den * f))
    pairs = [(q**power * t, d) for t, d in sums[ns.start::ns.step]]
    try:    # one n, or a block whose top den vanishes, divides its (last) pair
        return pairs if type(n) is range and sums[-1][1] != 0 else over(*pairs[-1])
    except ZeroDivisionError as exc:
        for i in range(ns[-1]):     # the first i where 1/(s - i) has no value
            try:
                1 / (s - i)
            except ZeroDivisionError:
                name = "digamma" if power == 1 else "trigamma"
                raise Pole(f"{name} pole: s - {i} vanishes") from exc
        raise


def digamma_diff(s, n: int):
    """psi(s+1) - psi(s-n+1) = sum_{i<n} 1/(s-i), H_n at s = n; Pole at a pole."""
    return pole_sum(s, n, 1)


def trigamma_diff(s, n: int):
    """psi'(s+1) - psi'(s-n+1) = -sum_{i<n} 1/(s-i)^2, -H_n^(2) at s = n; Pole at a pole."""
    return -pole_sum(s, n, 2)
