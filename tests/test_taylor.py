"""The polynomial-shift route: ID04's left j-row, the coefficients of
f(x) = sum_k C(alpha, n-k) C(beta+k, k) x^k at the powers of x + 1, against
the closed form of its right row and a Fraction re-expansion done here."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from binomsums.catalog.entries import REGISTRY, check_identity
from binomsums.exact import binom_poly, over

F = Fraction


def weights(n, alpha, beta):
    """The coefficients of f, one binom_poly product each."""
    return [binom_poly(alpha, n - k) * binom_poly(beta + k, k) for k in range(n + 1)]


def shifted(coeffs):
    """Coefficients in the (x+1)-basis of sum_k c_k x^k, from x^k = ((x+1) - 1)^k."""
    n = len(coeffs) - 1
    return [sum((-1) ** (k - j) * comb(k, j) * coeffs[k] for k in range(j, n + 1))
            for j in range(n + 1)]


def row_values(n, alpha, beta, side="lhs"):
    row, den = getattr(REGISTRY["ID04"], side)(n, {"alpha": alpha, "beta": beta})
    return [over(v, den) for v in row]


def test_shift_coefficients_reexpand_correctly():
    rng = random.Random(71)
    for _ in range(20):
        alpha, beta = (F(rng.randint(-9, 9), rng.randint(2, 5)) for _ in range(2))
        n = rng.randint(0, 7)
        coeffs, row = weights(n, alpha, beta), row_values(n, alpha, beta)
        for x in (F(0), F(1), F(-1), F(2, 3), F(-7, 5)):
            direct = sum(c * x**k for k, c in enumerate(coeffs))
            again = sum(d * (x + 1) ** j for j, d in enumerate(row))
            assert direct == again


def test_degree_zero_case():
    assert row_values(0, F(17, 3), F(-5, 7)) == [1]
    assert check_identity("ID04", 0, {"alpha": F(17, 3), "beta": F(-5, 7)}).status == "pass"


def test_hand_value_n1():
    # j = 0 coefficient is -5/6 on both sides at (alpha, beta) = (1/2, 1/3)
    alpha, beta = F(1, 2), F(1, 3)
    assert row_values(1, alpha, beta)[0] == F(-5, 6)
    assert -binom_poly(beta, 0) * binom_poly(beta - alpha + 1, 1) == F(-5, 6)
    assert check_identity("ID04", 1, {"alpha": alpha, "beta": beta}).status == "pass"


def test_equal_integer_parameters():
    # alpha = beta = n, the self-dual case of the transform
    assert check_identity("ID04", 2, {"alpha": F(2), "beta": F(2)}).status == "pass"


def test_random_grid():
    rng = random.Random(72)
    for _ in range(15):
        alpha = F(rng.randint(-60, 60), rng.randint(2, 11))
        beta = F(rng.randint(-60, 60), rng.randint(2, 11))
        n = rng.randint(0, 12)      # negative integers included: the rows are polynomial
        assert row_values(n, alpha, beta) == row_values(n, alpha, beta, "rhs")


def test_route_agrees_with_id04():
    # the Fraction re-expansion is ID04's left row, read through the registry
    alpha, beta = F(3, 4), F(-2, 5)
    n = 6
    assert row_values(n, alpha, beta) == shifted(weights(n, alpha, beta))
