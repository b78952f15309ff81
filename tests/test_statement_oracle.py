"""The source paper's displayed identities against the catalog entries that carry them.

The paper's abstract (PAPER.md) displays three identities: Munarini's
identity, H_n as an alternating sum of the H_k, and a closed form of
sum C(n,k)^2 H_k H_(n-k).  Each is transcribed here in sympy as the abstract
prints it, apart from the package's evaluators, and each side is compared on
its own with the same side of the catalog entry that carries it (ID03, ID16
and ID25) at every n <= 12, ID03 at three seed-0 draws.

Entry statements, as ``list`` prints them, are transcribed in sympy too,
keyed by the exact statement string, so an edited statement fails until its
transcription follows.  ID04's sides are rows over j; each j of both rows is
compared at every n <= 8 on three seed-0 draws.

sympy is optional: without it, this module is skipped.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from binomsums.catalog.entries import REGISTRY, draw_for_entry  # noqa: E402

C, H = sympy.binomial, sympy.harmonic
N_MAX = 12


def _sum(first, n, term):
    return sum((term(k) for k in range(first, n + 1)), sympy.Integer(0))


def munarini(n, alpha, beta, x):
    """sum_{k=0..n} C(alpha,n-k) C(beta+k,k) x^k
         = sum_{k=0..n} (-1)^(n+k) C(beta-alpha+n,n-k) C(beta+k,k) (x+1)^k"""
    return (_sum(0, n, lambda k: C(alpha, n - k) * C(beta + k, k) * x**k),
            _sum(0, n, lambda k: (-1) ** (n + k) * C(beta - alpha + n, n - k) * C(beta + k, k)
                 * (x + 1) ** k))


def harmonic_as_alternating_sum(n):
    """H_n = 1/2 sum_{k=1..n} (-1)^(n+k) C(n,k) C(n+k,k) H_k"""
    return H(n), _sum(1, n, lambda k: (-1) ** (n + k) * C(n, k) * C(n + k, k) * H(k)) / 2


def harmonic_product_sum(n):
    """sum_{k=0..n} C(n,k)^2 H_k H_(n-k) = C(2n,n) ((H_2n - 2 H_n)^2 + H_n^(2) - H_2n^(2))"""
    return (_sum(0, n, lambda k: C(n, k) ** 2 * H(k) * H(n - k)),
            C(2 * n, n) * ((H(2 * n) - 2 * H(n)) ** 2 + H(n, 2) - H(2 * n, 2)))


# each displayed identity, as (left side, right side) at n and the entry's parameters
PAPER = {"ID03": munarini, "ID16": harmonic_as_alternating_sum, "ID25": harmonic_product_sum}


def id04(n, j, alpha, beta):
    """sum (-1)^(k+j) C(b+k,k) C(k,j) C(a,n-k) = (-1)^(n+j) C(b+j,j) C(b-a+n,n-j)"""
    return (_sum(0, n, lambda k: (-1) ** (k + j) * C(beta + k, k) * C(k, j) * C(alpha, n - k)),
            (-1) ** (n + j) * C(beta + j, j) * C(beta - alpha + n, n - j))


# each transcribed statement, keyed by the entry's statement string: (entry id, sides)
STATEMENTS = {
    "sum (-1)^(k+j) C(b+k,k) C(k,j) C(a,n-k) = (-1)^(n+j) C(b+j,j) C(b-a+n,n-j)": ("ID04", id04),
}


@pytest.mark.parametrize("entry_id", PAPER)
def test_each_side_of_a_displayed_identity_is_its_entrys_side(entry_id):
    entry = REGISTRY[entry_id]
    draws = draw_for_entry(entry, 0, 3, N_MAX)
    assert None not in draws and len(draws) == (3 if entry.params.names else 1)
    for draw in draws:
        symbolic = {name: sympy.Rational(v.numerator, v.denominator) for name, v in draw.items()}
        for n in range(N_MAX + 1):
            for side, expected in zip((entry.lhs, entry.rhs), PAPER[entry_id](n, **symbolic)):
                expected = sympy.Rational(expected)
                assert side(n, draw) == Fraction(int(expected.p), int(expected.q)), (
                    entry_id, n, draw, side.__name__)


@pytest.mark.parametrize("statement", STATEMENTS, ids=lambda text: STATEMENTS[text][0])
def test_each_j_of_a_row_entry_is_its_transcribed_statement(statement):
    entry_id, sides = STATEMENTS[statement]
    entry = REGISTRY[entry_id]
    assert entry.statement == statement
    draws = draw_for_entry(entry, 0, 3, 8)
    assert None not in draws and len(draws) == 3
    for draw in draws:
        symbolic = {name: sympy.Rational(v.numerator, v.denominator) for name, v in draw.items()}
        for n in range(9):
            expected = [[sympy.Rational(v) for v in sides(n, j, **symbolic)]
                        for j in range(n + 1)]
            for index, side in enumerate((entry.lhs, entry.rhs)):
                row, den = side(n, draw)
                assert [Fraction(v, den) for v in row] == [
                    Fraction(int(at_j[index].p), int(at_j[index].q)) for at_j in expected], (
                    entry_id, n, draw, side.__name__)
