"""poly_gcd and the PRS route against sympy.gcd as an independent oracle.

hypothesis and sympy are optional: without either, this module is skipped.
The examples are derandomized and bounded, so the run is deterministic.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from binomsums.poly import VARS, MultiPoly, _prs_gcd, poly_gcd  # noqa: E402

SYMBOLS = sympy.symbols(VARS)
N, S = MultiPoly.var("n"), MultiPoly.var("s")
EXAMPLES = settings(derandomize=True, database=None, deadline=None, max_examples=40)

coeff = st.integers(-9, 9)


def univariate(max_degree: int):
    return st.lists(coeff, max_size=max_degree + 1).map(
        lambda cs: sum((c * S**i for i, c in enumerate(cs)), MultiPoly.zero()))


def bivariate(max_degree: int):
    exps = st.tuples(st.integers(0, max_degree), st.integers(0, max_degree))
    return st.dictionaries(exps, coeff, max_size=5).map(
        lambda terms: sum((c * N**i * S**j for (i, j), c in terms.items()),
                          MultiPoly.zero()))


def to_sympy(p: MultiPoly):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(x**e for x, e in zip(SYMBOLS, exp)))
        for exp, c in p.coeffs().items()))


def assert_matches_oracle(a: MultiPoly, b: MultiPoly) -> None:
    expected = sympy.gcd(to_sympy(a), to_sympy(b))
    routes = [poly_gcd(a, b)]
    if not a.is_zero and not b.is_zero:
        routes.append(_prs_gcd(a.content_primitive()[1], b.content_primitive()[1]))
    for got in routes:
        if expected == 0:
            assert got.is_zero
            continue
        # the same polynomial up to a unit, and in canonical form
        assert (sympy.Poly(to_sympy(got), *SYMBOLS).monic()
                == sympy.Poly(expected, *SYMBOLS).monic())
        assert got.content_primitive()[0] == 1


@EXAMPLES
@given(univariate(10), univariate(10), univariate(10))
def test_univariate_gcd_with_planted_factor(a, b, g):
    assert_matches_oracle(a * g, b * g)


@EXAMPLES
@given(bivariate(2), bivariate(2), bivariate(2))
def test_bivariate_gcd_with_planted_factor(a, b, g):
    assert_matches_oracle(a * g, b * g)


@EXAMPLES
@given(st.integers(1, 20),
       st.lists(st.integers(-30, 30).filter(bool), min_size=20, max_size=20),
       st.integers(-5, 5))
# the numerator of H_20 + sum_{i<20} 1/(s-i), on which the heuristic gives up
@example(m=20, weights=[1] * 20, lead=sum(Fraction(1, i) for i in range(1, 21)))
def test_coprime_to_a_falling_factorial(budget, m, weights, lead):
    # partner = lead*F + sum_k w_k F/(s-k) with F = s(s-1)...(s-m+1): at
    # s = k only the k-th term survives, so nonzero weights make it coprime
    factors = [S - i for i in range(m)]
    falling = MultiPoly.const(1)
    for f in factors:
        falling = falling * f
    partner = falling * lead
    for k, w in zip(range(m), weights):
        rest = MultiPoly.const(w)
        for i, f in enumerate(factors):
            if i != k:
                rest = rest * f
        partner = partner + rest
    with budget(2.0):
        assert poly_gcd(partner, falling) == MultiPoly.const(1)
        assert_matches_oracle(partner, falling)


def test_oracle_sees_rational_coefficients():
    a = (S + Fraction(1, 2)) * (N - 3)
    b = (2 * S + 1) * (N + Fraction(2, 3))
    assert_matches_oracle(a, b)
    assert poly_gcd(a, b) == 2 * S + 1
