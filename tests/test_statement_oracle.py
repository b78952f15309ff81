"""The source paper's displayed identities against the catalog entries that carry them.

The paper's abstract (PAPER.md) displays three identities: Munarini's
identity, H_n as an alternating sum of the H_k, and a closed form of
sum C(n,k)^2 H_k H_(n-k).  Each is transcribed here in sympy as the abstract
prints it, apart from the package's evaluators, and each side is compared on
its own with the same side of the catalog entry that carries it (ID03, ID16
and ID25) at every n <= 12, ID03 at three seed-0 draws.

Every entry statement, as ``list`` prints it, is transcribed in sympy too,
keyed by the exact statement string, so an edited statement fails until its
transcription follows, and the keys are the registry's statements.  ID04's
sides are rows over j; each j of both rows is compared at every n <= 8 on
three seed-0 draws.  The other entries are compared side by side at every
n <= 12, the parametric ones at three seed-0 draws: the binomial sums
ID01-ID03, ID05-ID10, ID12, ID19, ID20, ID20E, ID21 and ID23 (ID06, ID07,
ID08 and ID21 are the bases the jet oracle lifts; ID07 and ID19 as printed,
both sides over C(n,p)), the Legendre entries ID13 and ID14 (sympy's P_n),
and the nine harmonic entries (ID11, ID15-ID18, ID22 and ID24-ID26): ID03,
ID16 and ID25 so twice, as their statements and as the paper displays them.

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


def id01(n, x):
    """sum C(n,k) C(n+k,k) x^k = sum (-1)^(n+k) C(n,k) C(n+k,k) (x+1)^k"""
    return (_sum(0, n, lambda k: C(n, k) * C(n + k, k) * x**k),
            _sum(0, n, lambda k: (-1) ** (n + k) * C(n, k) * C(n + k, k) * (x + 1) ** k))


def id02(n, alpha, beta, x, y):
    """sum C(a,n-k) C(b+k,k) x^k y^(n-k) = sum (-1)^(n+k) C(b-a+n,n-k) C(b+k,k) (x+y)^k y^(n-k)"""
    return (_sum(0, n, lambda k: C(alpha, n - k) * C(beta + k, k) * x**k * y ** (n - k)),
            _sum(0, n, lambda k: (-1) ** (n + k) * C(beta - alpha + n, n - k) * C(beta + k, k)
                 * (x + y) ** k * y ** (n - k)))


def id03(n, alpha, beta, x):
    """sum C(a,n-k) C(b+k,k) x^k = sum (-1)^(n+j) C(b-a+n,n-j) C(b+j,j) (x+1)^j"""
    return (_sum(0, n, lambda k: C(alpha, n - k) * C(beta + k, k) * x**k),
            _sum(0, n, lambda j: (-1) ** (n + j) * C(beta - alpha + n, n - j) * C(beta + j, j)
                 * (x + 1) ** j))


def id04(n, j, alpha, beta):
    """sum (-1)^(k+j) C(b+k,k) C(k,j) C(a,n-k) = (-1)^(n+j) C(b+j,j) C(b-a+n,n-j)"""
    return (_sum(0, n, lambda k: (-1) ** (k + j) * C(beta + k, k) * C(k, j) * C(alpha, n - k)),
            (-1) ** (n + j) * C(beta + j, j) * C(beta - alpha + n, n - j))


def id05(n, lam):
    """4^n C(lam,n) = C(2 lam,n) sum C(n,k) C(n-lam-1/2,k) / C(k-lam-1/2,k)"""
    half = sympy.Rational(1, 2)
    return (4**n * C(lam, n),
            C(2 * lam, n) * _sum(0, n, lambda k: C(n, k) * C(n - lam - half, k)
                                 / C(k - lam - half, k)))


def id06(n, s, t):
    """sum C(n,k) C(s,k) / C(t+k,k) = prod_{i=1..n} (s+t+i)/(t+i)"""
    return (_sum(0, n, lambda k: C(n, k) * C(s, k) / C(t + k, k)),
            sympy.prod([(s + t + i) / (t + i) for i in range(1, n + 1)]))


def id07(n, s, p):
    """sum (-1)^(n+k) C(s+k,k) C(n-p,n-k) = C(s+p,n)   [both sides / C(n,p)]

    The sides as printed: the note says they are the sides of thm3's form
    over C(n,p), which leaves every factor polynomial in p."""
    return (_sum(0, n, lambda k: (-1) ** (n + k) * C(s + k, k) * C(n - p, n - k)),
            C(s + p, n))


def id08(n, beta, x):
    """sum C(n,k) C(b+k,k) x^k = sum (-1)^(n+k) C(n,k) C(b+k,n) (1+x)^k"""
    return (_sum(0, n, lambda k: C(n, k) * C(beta + k, k) * x**k),
            _sum(0, n, lambda k: (-1) ** (n + k) * C(n, k) * C(beta + k, n) * (1 + x) ** k))


def id09(n, beta):
    """sum (-1)^k C(n,k) C(b+k,n) = (-1)^n"""
    return _sum(0, n, lambda k: (-1) ** k * C(n, k) * C(beta + k, n)), (-1) ** n


def id10(n, beta):
    """sum (-1)^k C(n,k) C(b+k,k) = (-1)^n C(b,n)"""
    return _sum(0, n, lambda k: (-1) ** k * C(n, k) * C(beta + k, k)), (-1) ** n * C(beta, n)


def id11(n):
    """H_n = 1/2 sum (-1)^(n+k) C(n,k) C(n+k,k) H_{n+k}"""
    return H(n), _sum(0, n, lambda k: (-1) ** (n + k) * C(n, k) * C(n + k, k) * H(n + k)) / 2


def id12(n, x):
    """sum C(n,k) C(2k,k) x^k / 4^k = 4^-n sum C(2k,k) C(2n-2k,n-k) (1+x)^k"""
    return (_sum(0, n, lambda k: C(n, k) * C(2 * k, k) * x**k / sympy.Integer(4) ** k),
            sympy.Integer(4) ** -n
            * _sum(0, n, lambda k: C(2 * k, k) * C(2 * n - 2 * k, n - k) * (1 + x) ** k))


def id13(n, t):
    """P_n((t^2+1)/(2t)) = t^-n sum C(n,k) C(2k,k) ((t^2-1)/4)^k"""
    return (sympy.legendre(n, (t**2 + 1) / (2 * t)),
            t**-n * _sum(0, n, lambda k: C(n, k) * C(2 * k, k) * ((t**2 - 1) / 4) ** k))


def id14(n, t):
    """sum (-1)^k C(n,k) P_k((t^2+1)/(2t)) t^k = C(2n,n) ((1-t^2)/4)^n"""
    return (_sum(0, n, lambda k: (-1) ** k * C(n, k) * sympy.legendre(k, (t**2 + 1) / (2 * t))
                 * t**k),
            C(2 * n, n) * ((1 - t**2) / 4) ** n)


def id15(n, s):
    """sum (-1)^(n+k) C(n,k) C(s+k,k) H_k = C(s,n) (H_n + sum_{i<n} 1/(s-i))"""
    return (_sum(0, n, lambda k: (-1) ** (n + k) * C(n, k) * C(s + k, k) * H(k)),
            C(s, n) * (H(n) + _sum(0, n - 1, lambda i: 1 / (s - i))))


def id16(n):
    """H_n = 1/2 sum (-1)^(n+k) C(n,k) C(n+k,k) H_k"""
    return H(n), _sum(0, n, lambda k: (-1) ** (n + k) * C(n, k) * C(n + k, k) * H(k)) / 2


def id17(n):
    """sum (-1)^k C(n,k) C(2k,k) H_k / 4^k = 2^(1-2n) C(2n,n) (H_n - H_{2n})"""
    return (_sum(0, n, lambda k: (-1) ** k * C(n, k) * C(2 * k, k) * H(k) / sympy.Integer(4) ** k),
            sympy.Integer(2) ** (1 - 2 * n) * C(2 * n, n) * (H(n) - H(2 * n)))


def id18(n):
    """H_n^2 = 1/4 sum (-1)^(n+k) C(n,k) C(n+k,k) (H_k^2 + H_k^(2))"""
    return H(n) ** 2, _sum(0, n, lambda k: (-1) ** (n + k) * C(n, k) * C(n + k, k)
                           * (H(k) ** 2 + H(k, 2))) / 4


def id19(n, s, p):
    """sum C(s+p,k) C(n-p,n-k) = C(s+n,n)   [both sides / C(n,p)]

    The sides as printed, as ID07's are."""
    return _sum(0, n, lambda k: C(s + p, k) * C(n - p, n - k)), C(s + n, n)


def id20(n):
    """sum 4^k C(n,k)^2 / C(2k,k) = C(4n,2n) / C(2n,n)"""
    return (_sum(0, n, lambda k: sympy.Integer(4) ** k * C(n, k) ** 2 / C(2 * k, k)),
            C(4 * n, 2 * n) / C(2 * n, n))


def id20e(n):
    """sum C(2n,2k) C(2n-2k,n-k) 4^k = C(4n,2n)"""
    return (_sum(0, n, lambda k: C(2 * n, 2 * k) * C(2 * n - 2 * k, n - k) * 4**k),
            C(4 * n, 2 * n))


def id21(n, s):
    """sum C(s+k,k) C(2n-2k,n-k) 4^k = C(2n,n) C(2n+2s+1,2s+1) / C(n+s,n)

    A rational bottom (2s+1, for rational s) makes sympy's binomials gamma
    ratios; ``gammasimp`` reduces them to a rational."""
    return (_sum(0, n, lambda k: C(s + k, k) * C(2 * n - 2 * k, n - k) * 4**k),
            sympy.gammasimp(C(2 * n, n) * C(2 * n + 2 * s + 1, 2 * s + 1) / C(n + s, n)))


def id22(n):
    """sum C(2k,k) H_{n-k} / 4^k = (2n+1) 4^-n C(2n,n) (2 H_{2n+1} - H_n - 2)"""
    return (_sum(0, n, lambda k: C(2 * k, k) * H(n - k) / sympy.Integer(4) ** k),
            (2 * n + 1) * sympy.Integer(4) ** -n * C(2 * n, n) * (2 * H(2 * n + 1) - H(n) - 2))


def id23(n):
    """sum k C(n,k)^2 = (n/2) C(2n,n)"""
    return _sum(0, n, lambda k: k * C(n, k) ** 2), sympy.Rational(n, 2) * C(2 * n, n)


def id24(n):
    """sum C(n,k)^2 H_k = C(2n,n) (2 H_n - H_{2n})"""
    return _sum(0, n, lambda k: C(n, k) ** 2 * H(k)), C(2 * n, n) * (2 * H(n) - H(2 * n))


def id25(n):
    """sum C(n,k)^2 H_k H_{n-k} = C(2n,n) ((H_{2n}-2H_n)^2 + H_n^(2) - H_{2n}^(2))"""
    return (_sum(0, n, lambda k: C(n, k) ** 2 * H(k) * H(n - k)),
            C(2 * n, n) * ((H(2 * n) - 2 * H(n)) ** 2 + H(n, 2) - H(2 * n, 2)))


def id26(n):
    """sum C(n,k)^2 (H_k^2 + H_k^(2)) = C(2n,n) ((H_{2n}-2H_n)^2 + 2 H_n^(2) - H_{2n}^(2))"""
    return (_sum(0, n, lambda k: C(n, k) ** 2 * (H(k) ** 2 + H(k, 2))),
            C(2 * n, n) * ((H(2 * n) - 2 * H(n)) ** 2 + 2 * H(n, 2) - H(2 * n, 2)))


# each transcribed statement, keyed by the entry's statement string: (entry id, sides)
STATEMENTS = {
    "sum C(n,k) C(n+k,k) x^k = sum (-1)^(n+k) C(n,k) C(n+k,k) (x+1)^k": ("ID01", id01),
    "sum C(a,n-k) C(b+k,k) x^k y^(n-k) = "
    "sum (-1)^(n+k) C(b-a+n,n-k) C(b+k,k) (x+y)^k y^(n-k)": ("ID02", id02),
    "sum C(a,n-k) C(b+k,k) x^k = sum (-1)^(n+j) C(b-a+n,n-j) C(b+j,j) (x+1)^j": ("ID03", id03),
    "sum (-1)^(k+j) C(b+k,k) C(k,j) C(a,n-k) = (-1)^(n+j) C(b+j,j) C(b-a+n,n-j)": ("ID04", id04),
    "4^n C(lam,n) = C(2 lam,n) sum C(n,k) C(n-lam-1/2,k) / C(k-lam-1/2,k)": ("ID05", id05),
    "sum C(n,k) C(s,k) / C(t+k,k) = prod_{i=1..n} (s+t+i)/(t+i)": ("ID06", id06),
    "sum (-1)^(n+k) C(s+k,k) C(n-p,n-k) = C(s+p,n)   [both sides / C(n,p)]": ("ID07", id07),
    "sum C(n,k) C(b+k,k) x^k = sum (-1)^(n+k) C(n,k) C(b+k,n) (1+x)^k": ("ID08", id08),
    "sum (-1)^k C(n,k) C(b+k,n) = (-1)^n": ("ID09", id09),
    "sum (-1)^k C(n,k) C(b+k,k) = (-1)^n C(b,n)": ("ID10", id10),
    "H_n = 1/2 sum (-1)^(n+k) C(n,k) C(n+k,k) H_{n+k}": ("ID11", id11),
    "sum C(n,k) C(2k,k) x^k / 4^k = 4^-n sum C(2k,k) C(2n-2k,n-k) (1+x)^k": ("ID12", id12),
    "P_n((t^2+1)/(2t)) = t^-n sum C(n,k) C(2k,k) ((t^2-1)/4)^k": ("ID13", id13),
    "sum (-1)^k C(n,k) P_k((t^2+1)/(2t)) t^k = C(2n,n) ((1-t^2)/4)^n": ("ID14", id14),
    "sum (-1)^(n+k) C(n,k) C(s+k,k) H_k = C(s,n) (H_n + sum_{i<n} 1/(s-i))": ("ID15", id15),
    "H_n = 1/2 sum (-1)^(n+k) C(n,k) C(n+k,k) H_k": ("ID16", id16),
    "sum (-1)^k C(n,k) C(2k,k) H_k / 4^k = 2^(1-2n) C(2n,n) (H_n - H_{2n})": ("ID17", id17),
    "H_n^2 = 1/4 sum (-1)^(n+k) C(n,k) C(n+k,k) (H_k^2 + H_k^(2))": ("ID18", id18),
    "sum C(s+p,k) C(n-p,n-k) = C(s+n,n)   [both sides / C(n,p)]": ("ID19", id19),
    "sum 4^k C(n,k)^2 / C(2k,k) = C(4n,2n) / C(2n,n)": ("ID20", id20),
    "sum C(2n,2k) C(2n-2k,n-k) 4^k = C(4n,2n)": ("ID20E", id20e),
    "sum C(s+k,k) C(2n-2k,n-k) 4^k = C(2n,n) C(2n+2s+1,2s+1) / C(n+s,n)": ("ID21", id21),
    "sum C(2k,k) H_{n-k} / 4^k = (2n+1) 4^-n C(2n,n) (2 H_{2n+1} - H_n - 2)": ("ID22", id22),
    "sum k C(n,k)^2 = (n/2) C(2n,n)": ("ID23", id23),
    "sum C(n,k)^2 H_k = C(2n,n) (2 H_n - H_{2n})": ("ID24", id24),
    "sum C(n,k)^2 H_k H_{n-k} = C(2n,n) ((H_{2n}-2H_n)^2 + H_n^(2) - H_{2n}^(2))": ("ID25", id25),
    "sum C(n,k)^2 (H_k^2 + H_k^(2)) = "
    "C(2n,n) ((H_{2n}-2H_n)^2 + 2 H_n^(2) - H_{2n}^(2))": ("ID26", id26),
}


def assert_sides(entry, transcribed):
    """Each side of entry is the same side of transcribed(n, **draw) at every
    n <= N_MAX, on three seed-0 draws (one empty draw for no parameters)."""
    draws = draw_for_entry(entry, 0, 3, N_MAX)
    assert None not in draws and len(draws) == (3 if entry.params.names else 1)
    for draw in draws:
        symbolic = {name: sympy.Rational(v.numerator, v.denominator) for name, v in draw.items()}
        for n in range(N_MAX + 1):
            for side, expected in zip((entry.lhs, entry.rhs), transcribed(n, **symbolic)):
                expected = sympy.Rational(expected)
                assert side(n, draw) == Fraction(int(expected.p), int(expected.q)), (
                    entry.id, n, draw, side.__name__)


@pytest.mark.parametrize("entry_id", PAPER)
def test_each_side_of_a_displayed_identity_is_its_entrys_side(entry_id):
    assert_sides(REGISTRY[entry_id], PAPER[entry_id])


def test_every_entry_statement_is_transcribed():
    assert set(STATEMENTS) == {entry.statement for entry in REGISTRY.values()}
    assert sorted(entry_id for entry_id, _ in STATEMENTS.values()) == sorted(REGISTRY)


def _statements(rows: bool):
    return [text for text, (entry_id, _) in STATEMENTS.items()
            if bool(REGISTRY[entry_id].inner_index) == rows]


@pytest.mark.parametrize("statement", _statements(rows=False),
                         ids=lambda text: STATEMENTS[text][0])
def test_each_statement_is_its_entrys_sides(statement):
    entry_id, sides = STATEMENTS[statement]
    entry = REGISTRY[entry_id]
    assert entry.statement == statement
    assert_sides(entry, sides)


@pytest.mark.parametrize("statement", _statements(rows=True),
                         ids=lambda text: STATEMENTS[text][0])
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
