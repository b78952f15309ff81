"""Rational scalar layer: field ops, harmonic numbers, binomials, psi diffs."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from importlib import import_module
from math import comb, factorial, lcm

import pytest

from binomsums.catalog.entries import REGISTRY, check_identity, draw_for_entry
from binomsums import exact
from binomsums.exact import (
    Pole,
    binom_poly,
    binom_row,
    binom_upper_shift,
    central_binomial,
    digamma_diff,
    harmonic,
    harmonic_row,
    n_row,
    over,
    parse_rational,
    pascal_rows,
    pole_sum,
    power_row,
    product_row,
    reciprocal_row,
    render_rational,
    rising_row,
    trigamma_diff,
)
from binomsums.jets import Jet2
from binomsums.legendre import legendre, legendre_new_repr, legendre_row
from binomsums.params import ParamSpec, draw
from binomsums.poly import MultiPoly, RatFunc

try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:          # optional test dependency: the property tests skip
    st = None

needs_hypothesis = pytest.mark.skipif(st is None, reason="hypothesis is not installed")

F = Fraction


def random_rational(rng: random.Random, bound: int = 100) -> Fraction:
    return F(rng.randint(-bound, bound), rng.randint(1, bound))


# ---------------------------------------------------------------------------
# Field operations and the render/parse interface
# ---------------------------------------------------------------------------

def test_field_ops_examples():
    assert F(1, 2) + F(1, 3) == F(5, 6)
    assert F(2, 4) == F(1, 2)                      # canonical on construction
    assert F(2, 4).denominator == 2
    with pytest.raises(ZeroDivisionError):
        F(3, 2) / F(0)


def test_canonical_form_random():
    rng = random.Random(1)
    for _ in range(200):
        a, b = random_rational(rng), random_rational(rng)
        for val in (a + b, a - b, a * b):
            assert val.denominator > 0
        if b:
            assert (a / b).denominator > 0


def test_field_axioms_random():
    rng = random.Random(2)
    for _ in range(100):
        a, b, c = (random_rational(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if c:
            assert (a / c) * c == a


def test_render_parse_round_trip():
    rng = random.Random(3)
    for _ in range(300):
        q = random_rational(rng, 10**6)
        assert parse_rational(render_rational(q)) == q
    assert render_rational(F(5)) == "5"
    assert render_rational(F(-3, 4)) == "-3/4"
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational("0") == 0


@pytest.mark.parametrize("bad", ["1.5", "3e2", " 1/2", "1/2 ", "1//2", "", "+1", "a", "1/0",
                                 "\u0663/2", "\uff11"])
def test_parse_rejects_non_canonical(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


# ---------------------------------------------------------------------------
# Harmonic numbers
# ---------------------------------------------------------------------------

def test_harmonic_examples():
    assert harmonic(0, 1) == 0
    assert harmonic(2, 1) == F(3, 2)
    # oracle: direct summation
    assert harmonic(4, 2) == sum(F(1, i * i) for i in range(1, 5)) == F(205, 144)


def test_harmonic_row_difference_invariant():
    row, den = harmonic_row(60, 3)
    assert len(row) == 61 and row[0] == 0
    for n in range(1, 61):
        assert F(row[n] - row[n - 1], den) == F(1, n**3)


def test_harmonic_rejects_bad_input():
    for n, order in ((4, 0), (4, -1), (-3, 1), (-1, 2)):
        with pytest.raises(ValueError):
            harmonic_row(n, order)
    with pytest.raises(ValueError):
        harmonic(4, 0)
    with pytest.raises(ValueError, match="indexed by n >= 0"):
        harmonic(-1)
    with pytest.raises(ValueError, match="indexed by n >= 0"):
        harmonic(-2, 2)


def test_harmonic_matches_direct_sum():
    for m in (1, 2):
        total = F(0)
        for n in range(1, 50):
            total += F(1, n**m)
            assert harmonic(n, m) == total


# ---------------------------------------------------------------------------
# Binomials (polynomial form, integer lower index)
# ---------------------------------------------------------------------------

def test_binom_poly_examples():
    assert binom_poly(F(1, 2), 1) == F(1, 2)
    assert binom_poly(F(7, 3), 0) == 1
    assert binom_poly(F(3, 2), 2) == F(3, 8)
    # cross-check against the half-integer reduction binom(2k,k)/4^k at k=2
    assert binom_poly(F(3, 2), 2) == F(comb(4, 2), 4**2)
    assert binom_poly(F(1, 2), -1) == 0
    assert binom_poly(F(1, 2), -2) == 0
    assert binom_poly(3, 5) == 0          # integer upper, k > s: vanishes
    assert binom_poly(-2, 3) == -4        # (-2)(-3)(-4)/6


def test_binom_poly_is_falling_factorial():
    rng = random.Random(4)
    for _ in range(30):
        s = random_rational(rng)
        for k in range(21):
            prod = F(1)
            for i in range(k):
                prod *= s - i
            assert binom_poly(s, k) * factorial(k) == prod


def test_pascal_rule_random():
    rng = random.Random(5)
    for _ in range(20):
        s = random_rational(rng)
        for k in range(1, 21):
            assert binom_poly(s, k) == binom_poly(s - 1, k) + binom_poly(s - 1, k - 1)


def test_half_integer_lemma():
    # binom(k - 1/2, k) == binom(2k, k) / 4^k
    for k in range(51):
        assert binom_poly(F(2 * k - 1, 2), k) == F(central_binomial(k), 4**k)


def test_second_half_integer_lemma():
    # binom(k - 1/2, n) == (-1)^(n+k) binom(2k,k) binom(2n-2k,n-k) / (4^n binom(n,k))
    for n in range(31):
        for k in range(n + 1):
            lhs = binom_poly(F(2 * k - 1, 2), n)
            rhs = F((-1) ** (n + k) * central_binomial(k) * comb(2 * n - 2 * k, n - k),
                    4**n * comb(n, k))
            assert lhs == rhs


def test_binom_upper_shift_examples():
    assert binom_upper_shift(F(17, 5), 0) == 1
    assert binom_upper_shift(F(1, 3), 2) == F(14, 9)      # (4/3)(7/3)/2
    assert binom_upper_shift(F(1), 2) == 3                # binom(3, 2)
    with pytest.raises(ValueError):
        binom_upper_shift(F(1), -1)


def test_binom_upper_shift_matches_binom_poly_on_integers():
    rng = random.Random(6)
    for _ in range(50):
        b = rng.randint(0, 30)
        m = rng.randint(0, 12)
        assert binom_upper_shift(F(b), m) == binom_poly(F(b + m), m)


# ---------------------------------------------------------------------------
# Integer kernels against plain Fraction running products
# ---------------------------------------------------------------------------

def values(kernel_row):
    """A kernel's (row, den) as the list of its values."""
    row, den = kernel_row
    return [over(v, den) for v in row]


def falling_reference(s, n):
    """[C(s, m) for m = 0..n], one Fraction operation per factor."""
    row = [F(1)]
    for m in range(1, n + 1):
        row.append(row[-1] * (s - m + 1) / m)
    return row


def harmonic_reference(n, order):
    """[H_0, ..., H_n] of the given order, one Fraction addition per term."""
    row = [F(0)]
    for i in range(1, n + 1):
        row.append(row[-1] + F(1, i**order))
    return row


def rising_reference(b, n):
    """[C(b+k, k) for k = 0..n], one Fraction operation per factor."""
    row = [F(1)]
    for k in range(1, n + 1):
        row.append(row[-1] * (b + k) / k)
    return row


if st is not None:
    RATIONALS = st.one_of(
        st.fractions(min_value=-60, max_value=60, max_denominator=100),
        st.integers(-60, 60).map(lambda i: F(2 * i + 1, 2)),            # half-integers
        st.builds(F, st.integers(-10**9, 10**9), st.integers(10**6, 10**9)),
    )


@needs_hypothesis
def test_binomial_kernels_equal_fraction_running_products():
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(RATIONALS, st.integers(0, 40))
    @example(F(-7, 3), 40)
    @example(F(-5), 40)
    @example(F(1, 2), 0)
    @example(F(123457, 1000003), 40)
    def check(x, n):
        falling, rising = falling_reference(x, n), rising_reference(x, n)
        powers = [F(1)]
        for _ in range(n):
            powers.append(powers[-1] * x)
        kernels = [(binom_row(x, n), falling), (rising_row(x, n), rising),
                   (power_row(x, n), powers), (harmonic_row(n), harmonic_reference(n, 1)),
                   (harmonic_row(n, 2), harmonic_reference(n, 2))]
        kernels += reciprocal_case(x, n, rising)
        for (row, den), want in kernels:
            assert type(den) is int and den > 0
            assert all(type(v) is int for v in row)
            assert [over(v, den) for v in row] == want
        assert [binom_poly(x, k) for k in range(n + 1)] == falling
        assert [binom_upper_shift(x, k) for k in range(n + 1)] == rising

    check()


def test_binomial_kernels_on_nonnegative_integers_equal_comb():
    for s in range(41):
        for x in (s, F(s)):
            assert values(binom_row(x, 40)) == [comb(s, k) for k in range(41)]
            assert values(rising_row(x, 40)) == [comb(s + k, k) for k in range(41)]
            assert [binom_poly(x, k) for k in range(41)] == [comb(s, k) for k in range(41)]
            assert [binom_upper_shift(x, m) for m in range(41)] == [
                comb(s + m, m) for m in range(41)]


def legendre_reference(x, n):
    """[P_0(x), ..., P_n(x)] by the three-term recurrence in Fractions."""
    row = [F(1), x]
    for m in range(1, n):
        row.append(((2 * m + 1) * x * row[m] - m * row[m - 1]) / (m + 1))
    return row[:n + 1]


ROW_REFERENCES = {
    binom_row: falling_reference,
    rising_row: rising_reference,
    power_row: lambda x, n: [x**k for k in range(n + 1)],
    legendre_row: legendre_reference,
    reciprocal_row: lambda x, n: [1 / v if v else None for v in rising_reference(x, n)],
}


VISITS = (list(range(41)) + [40, 40, 17, 17]               # increasing, repeated
          + list(range(40, -1, -1))                        # decreasing
          + [0, 7, 3, 19, 40, 1, 38, 2, 25, 25, 11])       # skipping both ways


def drawn_values(label):
    rng = random.Random(label)
    spec = ParamSpec(("x",))
    drawn = [draw(rng, spec, 40)["x"] for _ in range(12)]
    return drawn + [F(0), F(0, 7), F(5), F(-3, 1), F(1)]   # p = 0 and q = 1


def test_grown_rows_equal_fresh_rows():
    # the row kernels read at drawn values, interleaved, at depths going up,
    # repeated, down and skipping: each read is a tuple of n + 1 ints over an
    # int den with a reference row's values, whatever was read before, and a
    # reciprocal row past its pole is over den 0
    kernels = list(ROW_REFERENCES)
    for x in drawn_values("grown rows"):
        want = {kernel: reference(x, 40) for kernel, reference in ROW_REFERENCES.items()}
        for i, n in enumerate(VISITS):
            for kernel in kernels[i % 5:] + kernels[:i % 5]:
                row, den = kernel(x, n)
                assert type(row) is tuple and len(row) == n + 1 and type(den) is int
                assert all(type(v) is int for v in row), (kernel, x, n)
                if None in want[kernel][:n + 1]:
                    assert den == 0, (kernel, x, n)
                else:
                    assert den > 0 and values((row, den)) == want[kernel][:n + 1], (kernel, x, n)


def test_a_draw_builds_each_row_once_at_its_depth(monkeypatch):
    # a block side reads each of its rows once, at the top of its range: over a
    # draw's block to n_max no side builds one kernel's row at one argument
    # twice, or deeper than n_max; a row both sides read (ID04's C(beta+k, k))
    # each side builds for itself
    built, depth = Counter(), 0
    real = exact._row

    def counted(x, n, step):
        assert n <= depth, (x, n)
        built[step.__code__, x] += 1
        return real(x, n, step)

    monkeypatch.setattr(exact, "_row", counted)
    # import_module: the package re-exports a function named like the module
    monkeypatch.setattr(import_module("binomsums.legendre"), "_row", counted)
    for entry in REGISTRY.values():
        depth = entry.n_max
        for a in draw_for_entry(entry, 0, 3, depth):
            for side in (entry.lhs, entry.rhs):
                built.clear()
                side(range(depth + 1), a)
                assert all(count == 1 for count in built.values()), (entry.id, built)
                if entry.id == "ID04":
                    assert built[exact._rising.__code__, a["beta"]] == 1


def moving_row(x, n, signed=False):
    """``pascal_rows``' row at n, of a block stepped from n // 2, and the block's den."""
    rows, den = pascal_rows(x, range(n // 2, n + 1), signed)
    return rows[-1], den


def test_stepped_and_derived_rows_equal_fresh_rows():
    # pascal_rows steps C(g+n, .) by Pascal's rule over g's rising den: at drawn
    # values and at the arguments the sides derive from them (-p, beta - alpha,
    # -lam - 1/2), each n's row has the values of binom_row(g + n, n), signed
    # (-1)^m if asked, as a tuple of ints over an int den > 0
    for x in drawn_values("stepped and derived rows"):
        for g in (x, -x, x - F(7, 3), -x - F(1, 2)):
            for n in range(41):
                want = values(binom_row(g + n, n))
                for signed in (False, True):
                    row, den = moving_row(g, n, signed)
                    assert type(row) is tuple and len(row) == n + 1
                    assert all(type(v) is int for v in row) and type(den) is int and den > 0
                    assert values((row, den)) == [(-1) ** m * v if signed else v
                                                  for m, v in enumerate(want)], (g, n, signed)


def divided_rows(rows, den):
    return [[over(v, den) for v in row] for row in rows]


@pytest.mark.parametrize("ring", ["Fraction", "RatFunc", "Jet2"])
def test_pascal_rows_are_the_fresh_binomial_rows(ring):
    # each row of a block, divided, is binom_row(g + n, n) entry by entry,
    # times (-1)^m when signed: from 0, from a > 0, a single n, and a block past
    # the depth, each block of two or more over the den of g's rising row
    d = 6 if ring == "RatFunc" else 12
    s, t = RatFunc.var("s"), RatFunc.var("t")
    gs = {"Fraction": [F(-7, 3), F(5), F(0), F(1, 2), F(-3, 1)],
          "RatFunc": [s, s / 3 - F(1, 2), (s + 1) / (2 * s - 3), (s - t) / (t + 2)],
          "Jet2": [Jet2.variable(F(2, 5), 1) * 3 - 1, Jet2.variable(F(-4), 2) + F(1, 3)]}[ring]
    for g in gs:
        for ns in (range(d + 1), range(3, d + 1), range(d // 2, d // 2 + 1), range(0, 1),
                   range(2, d + 4)):
            for signed in (False, True):
                rows, den = pascal_rows(g, ns, signed)
                assert len(rows) == len(ns) and all(type(row) is tuple for row in rows)
                assert [len(row) for row in rows] == [n + 1 for n in ns]
                assert type(den) is (MultiPoly if ring == "RatFunc" else int)
                want = [[(-1) ** m * v if signed else v for m, v in enumerate(values(
                    binom_row(g + n, n)))] for n in ns]
                assert divided_rows(rows, den) == want, (g, ns, signed)
                assert len(ns) == 1 or den == rising_row(g, ns[-1])[1]


def test_pascal_rows_step_by_additions_only():
    # past the first row, a block multiplies nothing: each next row is the
    # Pascal sum or difference of two entries and a top read from the rising row
    g = F(-7, 3)
    rise, _ = rising_row(g, 9)
    for signed, step in ((False, lambda a, b: a + b), (True, lambda a, b: a - b)):
        rows, _ = pascal_rows(g, range(4, 10), signed)
        for n, (prev, row) in enumerate(zip(rows, rows[1:]), start=5):
            top = (-1) ** n * rise[n] if signed else rise[n]
            assert row == (prev[0], *map(step, prev[1:], prev), top)


def test_block_forms_equal_their_single_n_values():
    # binom_upper_shift, pole_sum, legendre and legendre_new_repr over a range of
    # n hand back each n's (num, den), which divides to the single-n value
    s = RatFunc.var("s")
    x = draw(random.Random("block forms"), ParamSpec(("x",)), 12)["x"]
    for v in (x, F(-7, 3), F(9, 2), s / 3 + F(1, 2), (s + 1) / (s - 2)):
        top = 6 if isinstance(v, RatFunc) else 14
        for ns in (range(top + 1), range(2, top + 1), range(4, 5)):
            assert [over(*pair) for pair in binom_upper_shift(v, ns)] == [
                binom_upper_shift(v, n) for n in ns]
            for power in (1, 2):
                assert [over(*pair) for pair in pole_sum(v, ns, power)] == [
                    pole_sum(v, n, power) for n in ns]
            assert [over(*pair) for pair in legendre(ns, v)] == [legendre(n, v) for n in ns]
            assert [over(*pair) for pair in legendre_new_repr(ns, v)] == [
                legendre_new_repr(n, v) for n in ns]


def test_a_pole_sum_block_raises_the_first_pole():
    # an integer s in 0..D-1 is a pole of every n > s: a block up to D raises
    # Pole naming s, as each such n alone does, and a block that stops at s
    # is the single-n values
    for d in (1, 5, 12):
        for s in range(d):
            for power, name in ((1, "digamma"), (2, "trigamma")):
                for ns in (range(d + 1), range(s + 1, d + 1), range(d, d + 1)):
                    with pytest.raises(Pole) as exc:
                        pole_sum(F(s), ns, power)
                    assert str(exc.value) == f"{name} pole: s - {s} vanishes"
                for n in range(s + 1, d + 1):
                    with pytest.raises(Pole) as exc:
                        pole_sum(F(s), n, power)
                    assert str(exc.value) == f"{name} pole: s - {s} vanishes"
                assert [over(*pair) for pair in pole_sum(F(s), range(s + 1), power)] == [
                    pole_sum(F(s), n, power) for n in range(s + 1)]
    with pytest.raises(Pole) as exc:
        pole_sum(RatFunc.const(2), range(6), 1)
    assert str(exc.value) == "digamma pole: s - 2 vanishes"


def fraction_branch_taylor(x, m):
    """(f(x), f'(x), f''(x)) for f = C(., m), from the Fraction branch alone:
    the forward differences of f at x are C(x, m - j), and Newton's series
    f(x + h) = sum_j C(x, m - j) C(h, j) has [h] C(h, j) = (-1)^(j-1) / j and
    [h^2] C(h, j) = (-1)^j H_(j-1) / j."""
    row = values(binom_row(x, m))
    first = sum(F((-1) ** (j - 1), j) * row[m - j] for j in range(1, m + 1))
    half_second = sum(F((-1) ** j, j) * harmonic(j - 1) * row[m - j] for j in range(2, m + 1))
    return row[m], first, 2 * half_second


@needs_hypothesis
def test_jet_path_has_the_fraction_branch_value():
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(RATIONALS, st.integers(0, 40))
    @example(F(3), 8)                  # a root of C(x, m) for m > 3
    @example(F(-5), 8)                 # a root of C(x + k, k) for k >= 5
    def check(x, n):
        def taylor(v):
            assert isinstance(v, Jet2)
            return v.value, v.first(), v.second()

        jet = Jet2.variable(x)
        assert [taylor(v) for v in values(binom_row(jet, n))] == [
            fraction_branch_taylor(x, m) for m in range(n + 1)]
        assert [taylor(v) for v in values(rising_row(jet, n))] == [
            fraction_branch_taylor(x + k, k) for k in range(n + 1)]
        assert taylor(binom_poly(jet, n)) == fraction_branch_taylor(x, n)
        assert taylor(binom_upper_shift(jet, n)) == fraction_branch_taylor(x + n, n)

    check()


def reciprocal_case(x, n, rising):
    """[(reciprocal_row(x, n), its reference)], or [] once a root is checked:
    when some C(x+k, k) has no inverse, the kernel or its ``over`` raises the
    ring's own ZeroDivisionError (Pole for a jet)."""
    try:
        inverses = [1 / v for v in rising]
    except ZeroDivisionError as exc:
        with pytest.raises(type(exc)):
            row, den = reciprocal_row(x, n)
            over(row[0], den)
        return []
    return [(reciprocal_row(x, n), inverses)]


def test_admitted_draws_have_no_reciprocal_pole_at_their_depth():
    # a draw is admitted at n_max + 1, the top of its block, so its rows there
    # must have no pole: ID05's and ID06's predicates reject exactly the draws
    # whose factor p + iq of 1/C(b+k, k) vanishes for some i <= depth
    for entry_id, argument in (("ID05", lambda a: -a["lam"] - F(1, 2)),
                               ("ID06", lambda a: a["t"])):
        entry = REGISTRY[entry_id]
        drawn = draw_for_entry(entry, 0, 500, entry.n_max)
        assert None not in drawn and len(drawn) == 500
        for a in drawn:
            assert type(a) is dict and all(type(v) is Fraction for v in a.values())
            assert reciprocal_row(argument(a), entry.n_max + 1)[1] > 0, (entry_id, a)
    # every value whose den vanishes at a depth d <= 51 is rejected there: b = -lam-1/2
    # (ID05) or t (ID06) in {-d..-1}; ID05's domain rejects no other b
    id05, id06 = REGISTRY["ID05"].params.reject, REGISTRY["ID06"].params.reject
    for d in range(52):
        for b in range(-d - 3, d + 3):
            vanishes = reciprocal_row(F(b), d)[1] == 0
            assert vanishes == (-d <= b <= -1), (d, b)
            assert (id05(d, {"lam": F(-b) - F(1, 2)}) is not None) == vanishes, (d, b)
            assert not vanishes or id06(d, {"s": F(1, 2), "t": F(b)}) is not None, (d, b)
    # a draw ID05 rejects at depth 31 has a vanishing den there (-lam-1/2 =
    # -16, a pole at k = 16), so over raises
    assert REGISTRY["ID05"].params.reject(31, {"lam": F(31, 2)}) is not None
    row, den = reciprocal_row(F(-31, 2) - F(1, 2), 31)
    assert den == 0
    with pytest.raises(ZeroDivisionError):
        over(row[0], den)


def test_a_block_past_a_reciprocal_pole_is_read_n_by_n_below_it():
    # ID05 at lam = 31/2 reads 1/C(k-16, k), whose den vanishes from k = 16 on:
    # its domain rejects the block's top, so check_identity reads the block n by
    # n, and each row is the row of a check at that n alone, a pass below the
    # domain's bound and a skip from it on
    lam = F(31, 2)
    rows = check_identity("ID05", range(31), {"lam": lam})
    assert rows == [check_identity("ID05", n, {"lam": lam}) for n in range(31)]
    assert [r.status for r in rows] == ["pass"] * 15 + ["skipped"] * 16
    assert {r.reason for r in rows[15:]} == {
        "lam - 1/2 is an integer in [0, n_max): denominator binomial vanishes"}
    # a row and a product past the pole are over den 0, and a read below it is
    # over a den > 0, whatever was read before
    for s in (F(1, 2), F(-7, 3), F(4)):
        for n in (5, 2, 0, 1, 4, 3, 2, 9, 1):
            row, den = product_row(binom_row, s, reciprocal_row, F(-3), n)
            assert len(row) == n + 1 and (den > 0) == (n < 3) and (den == 0) == (n >= 3)
            if n < 3:
                assert values((row, den)) == fresh_product(binom_row, s, reciprocal_row, F(-3), n)
    assert values(reciprocal_row(F(-3), 2)) == [1, F(-1, 2), 1]


# row pairs multiplied along k: the four the catalog multiplies, and power by rising
PRODUCTS = [(rising_row, power_row), (binom_row, reciprocal_row), (binom_row, power_row),
            (legendre_row, power_row), (power_row, rising_row)]


def fresh_product(f, x, g, y, n):
    """The values of f's row at x times g's at y, entry by entry."""
    return [a * b for a, b in zip(values(f(x, n)), values(g(y, n)))]


def test_a_product_with_a_ring_value_is_the_product_of_the_rows():
    # entry k of product_row is a_k b_k over da db: for a Jet2, a RatFunc or a
    # Fraction partner, and for each pair the catalog multiplies, at rationals
    # a tuple of ints over an int den > 0
    x = F(2, 3)
    for y in (Jet2.variable(F(1, 3), 1), RatFunc.var("s"), F(5, 7)):
        for n in (0, 3, 8):
            row, den = product_row(rising_row, x, power_row, y, n)
            (a, da), (b, db) = rising_row(x, n), power_row(y, n)
            assert list(row) == [u * v for u, v in zip(a, b)] and den == da * db
    for f, g in PRODUCTS:
        for x, y in ((F(-7, 3), F(1, 2)), (F(5), F(-4, 9)), (F(0), F(1))):
            for n in (0, 3, 12):
                row, den = product_row(f, x, g, y, n)
                assert type(row) is tuple and len(row) == n + 1
                assert all(type(v) is int for v in row) and type(den) is int and den > 0
                assert values((row, den)) == fresh_product(f, x, g, y, n), (f, g, x, y, n)


def ring_falling_reference(x, n):
    """[C(x, m) for m = 0..n] as a running product in x's ring, one factor at a time."""
    row = [x**0]
    for m in range(1, n + 1):
        row.append(row[-1] * (x - (m - 1)) * F(1, m))
    return row


def ring_rising_reference(x, n):
    """[C(x+k, k) for k = 0..n] as a running product in x's ring, one factor at a time."""
    row = [x**0]
    for k in range(1, n + 1):
        row.append(row[-1] * (x + k) * F(1, k))
    return row


def int_jet(v):
    """v is a Jet2 with int coefficients."""
    return type(v) is Jet2 and all(type(c) is int for c in v.c.values())


def check_ring_kernels(x, n):
    """Every row kernel at a Jet2 or RatFunc x, equal to the running products.
    A Jet2 row holds int-coefficient jets over one positive int (over one
    int-coefficient jet for reciprocal_row); a RatFunc row holds MultiPoly
    numerators over one MultiPoly denominator."""
    falling, rising = ring_falling_reference(x, n), ring_rising_reference(x, n)
    powers = [x**0]
    for _ in range(n):
        powers.append(powers[-1] * x)
    kernels = [(binom_row(x, n), falling), (rising_row(x, n), rising),
               (power_row(x, n), powers)]
    reciprocal = reciprocal_case(x, n, rising)
    for (row, den), want in kernels + reciprocal:
        if isinstance(x, Jet2):
            assert all(int_jet(v) for v in row)
        else:
            assert type(den) is MultiPoly and all(type(v) is MultiPoly for v in row)
        assert [over(v, den) for v in row] == want
    if isinstance(x, Jet2):
        assert all(type(den) is int and den > 0 for (_, den), _ in kernels)
        assert all(int_jet(den) for (_, den), _ in reciprocal)
    assert [binom_poly(x, k) for k in range(n + 1)] == falling
    assert [binom_upper_shift(x, k) for k in range(n + 1)] == rising


JET_KEYS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

if st is not None:
    @st.composite
    def jets_and_lengths(draw):
        """(x, n): n in 0..40 and a two-slot jet with every coefficient drawn;
        the base value is a general rational or a root of the kernels' rows
        (0..n for C(x, m), -1..-n-1 for C(x+k, k))."""
        n = draw(st.integers(0, 40))
        base = draw(st.one_of(RATIONALS, st.integers(0, n).map(F),
                              st.integers(-n - 1, -1).map(F)))
        coeffs = draw(st.lists(RATIONALS, min_size=5, max_size=5))
        return Jet2({(0, 0): base, **dict(zip(JET_KEYS, coeffs))}), n


def test_shifted_binomial_sums_equal_the_direct_sums():
    # ID09's left side and ID08's right side read C(n, k) C(beta+k, n) as
    # C(beta, n-k) C(beta+k, k), from beta's binom_row and rising_row: equal to
    # the sums of binom_poly at the ring values beta + k, in every ring
    s, t = RatFunc.var("s"), RatFunc.var("t")
    jet = Jet2.variable(F(-7, 3), 1) + Jet2.variable(F(1, 3), 2) * 5
    x = F(2, 5)
    for beta in (F(1, 3), F(-7, 2), F(-5), F(4), F(-3, 7), jet, Jet2.variable(F(2)),
                 s, s / 2 + F(1, 3), (s + t) / (2 * s - 1)):
        for n in range(13):
            shifted = [comb(n, k) * binom_poly(beta + k, n) for k in range(n + 1)]
            assert REGISTRY["ID09"].lhs(n, {"beta": beta}) == sum(
                -v if k % 2 else v for k, v in enumerate(shifted)), (beta, n)
            assert REGISTRY["ID08"].rhs(n, {"beta": beta, "x": x}) == sum(
                (-1) ** (n + k) * v * (x + 1) ** k for k, v in enumerate(shifted)), (beta, n)


@needs_hypothesis
def test_jet_kernels_equal_jet_running_products():
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(jets_and_lengths())
    def check(case):
        x, n = case
        check_ring_kernels(x, n)
        assert binom_poly(x, -1).c == {}

    check()
    for n in range(6):
        check_ring_kernels(RatFunc.var("s"), n)
        check_ring_kernels(RatFunc.var("s") / (RatFunc.var("t") + 2), n)
    assert binom_poly(RatFunc.var("s"), -1).is_zero


def test_central_binomial():
    for k in range(40):
        assert central_binomial(k) == comb(2 * k, k)


def test_central_binomial_rejects_a_negative_index():
    # a negative index raises, also once entries are kept
    central_binomial(5)
    for k in (-1, -3, -6, -100):
        with pytest.raises(ValueError):
            central_binomial(k)


DRAWN = draw(random.Random("a drawn value"), ParamSpec(("x",)), 3)["x"]


@pytest.mark.parametrize("kernel", [
    lambda m: binom_row(F(1, 3), m), lambda m: binom_row(DRAWN, m),
    lambda m: rising_row(F(-5, 2), m), lambda m: power_row(F(2, 7), m),
    lambda m: power_row(DRAWN, m), lambda m: reciprocal_row(F(1, 3), m),
    lambda m: pascal_rows(F(1, 3), range(m, m + 1)),
    lambda m: pascal_rows(DRAWN, range(m, m + 1)), lambda m: legendre_row(F(5, 4), m),
    lambda m: harmonic_row(m), lambda m: harmonic_row(m, 2), lambda m: n_row("C(n,k)", m),
    lambda m: binom_upper_shift(F(1, 3), m), lambda m: binom_upper_shift(DRAWN, m),
    lambda m: legendre(m, F(5, 4)), lambda m: legendre(m, DRAWN),
    lambda m: digamma_diff(F(1, 3), m), lambda m: trigamma_diff(F(1, 3), m),
], ids=["binom_row", "binom_row-drawn", "rising_row", "power_row", "power_row-drawn",
        "reciprocal_row", "pascal_rows", "pascal_rows-drawn", "legendre_row",
        "harmonic_row", "harmonic_row-2", "n_row", "binom_upper_shift",
        "binom_upper_shift-drawn", "legendre", "legendre-drawn", "digamma_diff",
        "trigamma_diff"])
def test_every_row_kernel_rejects_a_negative_depth(kernel):
    kernel(3)                           # a row built at depth 3 first changes nothing
    for m in (-1, -2):
        with pytest.raises(ValueError):
            kernel(m)


def n_row_reference(form, n):
    """The signed coefficients of ``form`` along k, one ``math.comb`` product each."""
    sign, _, body = form.rpartition(" ")
    c = {"C(n,k)": lambda k: comb(n, k),
         "C(n,k)C(n+k,k)": lambda k: comb(n, k) * comb(n + k, k),
         "C(n,k)^2": lambda k: comb(n, k) ** 2,
         "C(n,k)C(2k,k)": lambda k: comb(n, k) * comb(2 * k, k),
         "C(n,k)C(2k,k)4^(n-k)": lambda k: comb(n, k) * comb(2 * k, k) * 4 ** (n - k),
         "C(2k,k)C(2n-2k,n-k)": lambda k: comb(2 * k, k) * comb(2 * n - 2 * k, n - k),
         "C(2n-2k,n-k)4^k": lambda k: comb(2 * n - 2 * k, n - k) * 4**k}[body]
    power = {"": lambda k: 0, "(-1)^k": lambda k: k, "(-1)^(n+k)": lambda k: n + k}[sign]
    return [(-1) ** power(k) * c(k) for k in range(n + 1)]


N_ROW_FORMS = [sign + body for sign in ("", "(-1)^k ", "(-1)^(n+k) ") for body in (
    "C(n,k)", "C(n,k)C(n+k,k)", "C(n,k)^2", "C(n,k)C(2k,k)", "C(n,k)C(2k,k)4^(n-k)",
    "C(2k,k)C(2n-2k,n-k)", "C(2n-2k,n-k)4^k")]


def depth_class(n):
    """The least power of two >= max(n, 32): the depth of a read's harmonic table."""
    depth = 32
    while depth < n:
        depth *= 2
    return depth


def test_kept_n_rows_equal_fresh_rows_in_any_read_order():
    # the rows that depend on n alone, read interleaved as the catalog reads them
    # (n, 2n and 2n+1, orders 1 and 2, several forms) with n going up, down and
    # back: each kept row is a tuple of ints over an int den > 0, and its values
    # are the reference's; a harmonic read at m sits over lcm(1..N)^order, N the
    # depth class of m, so the order-2 den is the order-1 den squared
    ns = [*range(0, 25), *range(24, -1, -3), 7, 7, 0, 13, 2]
    for n in ns:
        for m in (n, 2 * n, 2 * n + 1):
            scale = lcm(*range(1, depth_class(m) + 1))
            for order in (1, 2):
                row, den = harmonic_row(m, order)
                assert type(row) is tuple and len(row) == m + 1
                assert all(type(v) is int for v in row) and type(den) is int and den > 0
                assert den == scale**order
                assert [F(v, den) for v in row] == harmonic_reference(m, order)
                assert harmonic(m, order) == F(row[m], den)
            assert harmonic_row(m, 2)[1] == harmonic_row(m)[1] ** 2
        for form in N_ROW_FORMS[n % 3::3]:
            row = n_row(form, n)
            assert type(row) is tuple and row == n_row.__wrapped__(form, n)
            assert list(row) == n_row_reference(form, n)
    # a sweep to n = 200 reads every depth class to 512 over its own lcm, and
    # leaves the n_row store at most its bound
    for n in range(201):
        harmonic_row(n)
        row, den = harmonic_row(2 * n, 2)
        assert den == lcm(*range(1, depth_class(2 * n) + 1)) ** 2
        assert F(row[-1], den) == harmonic(2 * n, 2)
        n_row(N_ROW_FORMS[n % len(N_ROW_FORMS)], n)
    assert [depth_class(m) for m in (0, 1, 32, 33, 64, 65, 400)] == [32, 32, 32, 64, 64, 128, 512]
    info = n_row.cache_info()
    assert info.currsize <= info.maxsize == 256


def test_every_harmonic_order_read_at_one_n_shares_one_den():
    # whatever was read before, two orders read at one n sit over powers of one
    # lcm, so H_k^2 and H_k^(2) share a den, as ID18, ID25 and ID26 add them over it
    harmonic_row(201)
    for n in (0, 5, 31, 32, 33, 64, 201, 260):
        scale = lcm(*range(1, depth_class(n) + 1))
        assert harmonic_row(n, 2)[1] == harmonic_row(n)[1] ** 2 == scale**2
        assert harmonic_row(n, 3)[1] == scale**3
    for entry_id in ("ID18", "ID25", "ID26"):
        for n in range(13):
            assert check_identity(entry_id, n, {}).status == "pass", (entry_id, n)


def test_a_harmonic_row_does_not_depend_on_earlier_reads():
    # a read is a function of (n, order) alone: a deep read in between leaves
    # the ints and the den of a shallow one as they were
    before = [harmonic_row(5, order) for order in (1, 2)]
    harmonic_row(401)
    harmonic_row(401, 2)
    assert [harmonic_row(5, order) for order in (1, 2)] == before


# ---------------------------------------------------------------------------
# Digamma / trigamma differences
# ---------------------------------------------------------------------------

def termwise_diffs(s, n):
    """The references: (sum_{i<n} 1/(s - i), -sum_{i<n} 1/(s - i)^2), one term
    at a time in s's ring."""
    digamma, trigamma = F(0), F(0)
    for i in range(n):
        term = 1 / (s - i)
        digamma, trigamma = digamma + term, trigamma - term * term
    return digamma, trigamma


def diffs(s, n):
    return digamma_diff(s, n), trigamma_diff(s, n)


def test_digamma_diff_examples():
    assert digamma_diff(F(7, 2), 0) == 0
    assert digamma_diff(RatFunc.var("s"), 0) == 0
    assert digamma_diff(F(3), 3) == harmonic(3) == F(11, 6)
    assert digamma_diff(F(1, 2), 2) == 0          # 1/(1/2) + 1/(-1/2)


def test_digamma_diff_is_the_termwise_sum():
    rng = random.Random(19)
    draws = [random_rational(rng) for _ in range(30)] + [F(1, 2), F(-3), F(31), F(59, 2)]
    for s in draws:
        for n in range(31):
            if s.denominator == 1 and 0 <= s < n:
                continue
            assert diffs(s, n) == termwise_diffs(s, n), (s, n)
    for s in draws[:4]:
        for n in range(13):
            jet = Jet2.variable(s, 1) + Jet2.variable(F(1, 3), 2) * s
            assert diffs(jet, n) == termwise_diffs(jet, n), (s, n)


def test_digamma_diff_over_ratfunc_is_the_termwise_sum():
    s, t = RatFunc.var("s"), RatFunc.var("t")
    for x in (s, s / 2 + F(1, 3), (s + t) / (s - 1), 1 / (2 * s + 3)):
        for n in range(13):
            got = diffs(x, n)
            assert all(isinstance(v, RatFunc) for v in got) or n == 0
            assert got == termwise_diffs(x, n), (x, n)


def test_digamma_diff_pole():
    # the first vanishing s - i names the pole in every ring
    for s in (F(2), Jet2.variable(F(2)), Jet2.variable(F(2), 2) * 3 - 4, RatFunc.const(2)):
        for diff, name in ((digamma_diff, "digamma"), (trigamma_diff, "trigamma")):
            with pytest.raises(Pole) as exc:
                diff(s, 5)
            assert str(exc.value) == f"{name} pole: s - 2 vanishes"
    with pytest.raises(Pole) as exc:
        digamma_diff(F(0), 1)
    assert str(exc.value) == "digamma pole: s - 0 vanishes"


def test_digamma_diff_recurrence():
    rng = random.Random(7)
    for _ in range(40):
        s = random_rational(rng)
        n = rng.randint(1, 12)
        if any(s == i for i in range(n)):
            continue
        assert digamma_diff(s, n) - digamma_diff(s, n - 1) == 1 / (s - n + 1)


def test_trigamma_diff_examples():
    assert trigamma_diff(F(9, 4), 0) == 0
    assert trigamma_diff(F(2), 2) == F(-5, 4)
    assert trigamma_diff(F(2), 2) == -harmonic(2, 2)
    assert trigamma_diff(F(1, 2), 1) == -4


def test_trigamma_diff_pole():
    with pytest.raises(Pole) as exc:
        trigamma_diff(F(0), 1)
    assert str(exc.value) == "trigamma pole: s - 0 vanishes"


def test_integer_specializations():
    for n in range(1, 30):
        assert digamma_diff(F(n), n) == harmonic(n)
        assert trigamma_diff(F(n), n) == -harmonic(n, 2)
