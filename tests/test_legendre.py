"""Legendre evaluations: recurrence oracle vs the summation forms."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from binomsums.poly import MultiPoly, RatFunc

from binomsums.exact import over
from binomsums.legendre import (
    legendre,
    legendre_inversion_check,
    legendre_new_repr,
    legendre_product_form,
    legendre_row,
)

try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:          # optional test dependency: the property tests skip
    st = None

needs_hypothesis = pytest.mark.skipif(st is None, reason="hypothesis is not installed")

F = Fraction


def seeded_ts(count: int, seed: int = 0) -> list[Fraction]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = F(rng.randint(-100, 100), rng.randint(1, 100))
        if t != 0:
            out.append(t)
    return out


def test_low_degrees():
    x = F(5, 4)
    assert legendre(0, F(17, 3)) == 1
    assert legendre(1, x) == x
    assert legendre(2, x) == (3 * x * x - 1) / 2 == F(59, 32)
    assert legendre(3, x) == (5 * x**3 - 3 * x) / 2


def test_recurrence_invariant():
    rng = random.Random(51)
    for _ in range(10):
        x = F(rng.randint(-50, 50), rng.randint(1, 20))
        values = [legendre(n, x) for n in range(20)]
        for n in range(1, 19):
            assert (n + 1) * values[n + 1] == (2 * n + 1) * x * values[n] - n * values[n - 1]


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        legendre(-1, F(1))
    with pytest.raises(ValueError):
        legendre_row(F(1), -1)


def test_product_form_examples():
    assert legendre_product_form(1, F(2)) == F(5, 2) == 2 * legendre(1, F(5, 4))
    assert legendre_product_form(0, F(7, 9)) == 1
    assert legendre_product_form(2, F(2)) == F(59, 8) == 4 * legendre(2, F(5, 4))


def test_new_repr_examples():
    assert legendre_new_repr(1, F(2)) == F(5, 4) == legendre(1, F(5, 4))
    assert legendre_new_repr(2, F(2)) == F(59, 32) == legendre(2, F(5, 4))
    for n in range(20):
        assert legendre_new_repr(n, F(1)) == 1


def test_inversion_examples():
    lhs, rhs = legendre_inversion_check(1, F(2))
    assert lhs == rhs == F(-3, 2)
    assert legendre_inversion_check(0, F(7, 5)) == (1, 1)
    lhs, rhs = legendre_inversion_check(2, F(2))
    assert lhs == rhs == F(27, 8)


def test_t_zero_rejected():
    for fn in (legendre_product_form, legendre_new_repr, legendre_inversion_check):
        with pytest.raises(ValueError):
            fn(3, F(0))


def test_representations_against_recurrence_grid():
    ts = seeded_ts(20)
    for t in ts:
        x = (t * t + 1) / (2 * t)
        for n in range(0, 51, 7):
            assert legendre_new_repr(n, t) == legendre(n, x)
            assert legendre_product_form(n, t) == t**n * legendre(n, x)
            lhs, rhs = legendre_inversion_check(n, t)
            assert lhs == rhs


def test_symmetry_t_inverse():
    # (t^2+1)/(2t) is invariant under t -> 1/t, so the representation is too
    ts = seeded_ts(8, seed=3)
    for t in ts:
        for n in range(0, 31, 5):
            assert legendre_new_repr(n, t) == legendre_new_repr(n, 1 / t)


# ---------------------------------------------------------------------------
# The integer recurrence against the Fraction recurrence
# ---------------------------------------------------------------------------

def fraction_recurrence(n, x):
    """[P_0(x), ..., P_n(x)], one Fraction operation per step."""
    row = [F(1), x]
    for m in range(1, n):
        row.append(((2 * m + 1) * x * row[m] - m * row[m - 1]) / (m + 1))
    return row[:n + 1]


def row_values(n, x):
    """legendre_row's (row, den) as values, after checking the row's contract:
    ints over a positive int den for exact x, MultiPoly numerators over one
    MultiPoly den for a RatFunc x."""
    row, den = legendre_row(x, n)
    if isinstance(x, (int, F)):
        assert type(den) is int and den > 0 and all(type(v) is int for v in row)
    else:
        assert type(den) is MultiPoly and all(type(v) is MultiPoly for v in row)
    return [over(v, den) for v in row]


def check_t(t, n):
    x = (t * t + 1) / (2 * t)
    want = fraction_recurrence(n, x)
    assert row_values(n, x) == want
    assert legendre(n, x) == want[n]
    assert legendre_product_form(n, t) == t**n * want[n]
    assert legendre_new_repr(n, t) == want[n]


@needs_hypothesis
def test_integer_recurrence_equals_fraction_recurrence():
    nonzero = st.fractions(min_value=-100, max_value=100, max_denominator=100).filter(bool)
    large = st.builds(F, st.integers(-10**9, 10**9).filter(bool), st.integers(10**6 + 1, 10**9))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.one_of(nonzero, large), st.integers(0, 60))
    @example(F(1), 60)
    @example(F(-1), 60)
    @example(F(-3, 7), 60)
    @example(F(999_999_937, 1_000_003), 60)
    def check(t, n):
        check_t(t, n)

    check()
    t = RatFunc.var("t")
    x = (t * t + 1) / (2 * t)
    for n in range(8):
        assert row_values(n, x) == fraction_recurrence(n, x)


def test_integer_recurrence_at_plus_minus_one_and_zero():
    for n in range(61):
        check_t(F(1), n)
        check_t(F(-1), n)
        assert legendre(n, F(1)) == 1 and legendre(n, -1) == (-1) ** n
        assert row_values(n, 0) == fraction_recurrence(n, F(0))


def test_scalar_legendre_is_the_last_row_entry():
    # the scalar reads only the last scaled pair; the row rescales them all
    t = RatFunc.var("t")
    xs = [F(0), F(1), F(-1), F(5, 4), F(-3, 7), 2, F(999_999_937, 1_000_003),
          (t * t + 1) / (2 * t), t]
    for x in xs:
        for n in range(12):
            row, den = legendre_row(x, n)
            assert legendre(n, x) == over(row[n], den), (n, x)

