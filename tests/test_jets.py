"""Jet arithmetic: truncation semantics and exact derivative extraction."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from operator import add

import pytest

from binomsums.exact import Pole, binom_poly, digamma_diff
from binomsums.jets import Jet2

try:
    from hypothesis import given, settings, strategies as st
except ImportError:          # optional test dependency: the property tests skip
    st = None

needs_hypothesis = pytest.mark.skipif(st is None, reason="hypothesis is not installed")

F = Fraction
KEYS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def random_jet(rng: random.Random, slots: int = 2) -> Jet2:
    keys = [(0, 0), (1, 0), (2, 0)]
    if slots == 2:
        keys += [(0, 1), (1, 1), (0, 2)]
    return Jet2({key: F(rng.randint(-9, 9), rng.randint(1, 9)) for key in keys})


def poly_derivative_at(f, x0: Fraction, degree: int) -> Fraction:
    """First derivative of a polynomial function of known degree at x0.

    Independent oracle: interpolate f exactly on degree+1 rational nodes via
    Newton divided differences, differentiate the Newton form, evaluate.
    """
    nodes = [x0 + i for i in range(degree + 1)]
    coef = [f(x) for x in nodes]
    for level in range(1, degree + 1):
        for i in range(degree, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (nodes[i] - nodes[i - level])
    # Newton form: sum_j coef[j] * prod_{i<j} (x - nodes[i]); differentiate at x0.
    deriv = F(0)
    for j in range(1, degree + 1):
        term = F(0)
        for skip in range(j):
            prod = F(1)
            for i in range(j):
                if i != skip:
                    prod *= x0 - nodes[i]
            term += prod
        deriv += coef[j] * term
    return deriv


def test_square_expansion():
    s = Jet2.variable(F(3))
    assert s * s == Jet2({(0, 0): F(9), (1, 0): F(6), (2, 0): F(1)})


def test_binom_poly_lift_example():
    j = binom_poly(Jet2.variable(F(3)), 2)
    assert j.value == 3
    assert j.first() == F(5, 2)
    assert j.c[(2, 0)] == F(1, 2)


def test_geometric_series_inverse():
    inv = 1 / (1 + Jet2.variable(F(0)))
    assert inv == Jet2({(0, 0): F(1), (1, 0): F(-1), (2, 0): F(1)})


def test_division_pole():
    with pytest.raises(Pole):
        Jet2.variable(F(0)).inverse()
    with pytest.raises(Pole):
        1 / (Jet2.variable(F(2)) - 2)


def test_truncation_and_constant_coefficient():
    rng = random.Random(11)
    for _ in range(60):
        a, b = random_jet(rng), random_jet(rng)
        prod = a * b
        assert all(i + j <= 2 for i, j in prod.c)
        assert prod.value == a.value * b.value
        assert (a + b).value == a.value + b.value


def test_jet_reads_as_int_numerator_over_least_int_denominator():
    rng = random.Random(16)
    jets = [random_jet(rng, slots) for slots in (1, 2) for _ in range(40)]
    jets += [Jet2({}), Jet2.variable(F(3)), Jet2({(0, 0): F(5, 6), (1, 1): 4})]
    for x in jets:
        num, den = x.numerator, x.denominator
        assert type(den) is int and den > 0
        assert type(num) is Jet2 and all(type(c) is int for c in num.c.values())
        assert num / den == x
        # least: no den // r for a prime r | den makes every coefficient integral
        for r in (2, 3, 5, 7):
            if den % r == 0:
                assert any((c * (den // r)).denominator != 1 for c in x.c.values())
    assert Jet2.variable(F(3)).denominator == 1
    assert Jet2({(0, 0): F(5, 6), (1, 1): 4}).denominator == 6


def test_int_coefficients_stay_ints_and_accessors_give_fractions():
    a = Jet2({(0, 0): 3, (1, 0): 1, (2, 0): -2})
    b = Jet2({(0, 0): -2, (0, 1): 5, (1, 1): 4})
    for v in (a + b, a - b, -a, a * b, 7 * a, 7 - a, a + 1, a**3, a**0, a * 0):
        assert all(type(c) is int for c in v.c.values())
        accessors = (v.value, v.first(1), v.first(2), v.second(1), v.second(2), v.mixed())
        assert all(type(c) is Fraction for c in accessors)
    assert ((a * b).value, (a * b).first(2), (a * b).mixed()) == (-6, 15, 1 * 5 + 3 * 4)
    assert (a**2).second() == 2 * (2 * 3 * -2 + 1)


def test_ring_axioms_random():
    rng = random.Random(12)
    for _ in range(40):
        a, b, c = (random_jet(rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_inverse_round_trip():
    rng = random.Random(13)
    for _ in range(40):
        a = random_jet(rng)
        if not a.value:
            continue
        assert a * a.inverse() == 1
        assert (1 / a) * a == Jet2.const(1)


def test_pow_matches_repeated_multiplication():
    rng = random.Random(14)
    for _ in range(20):
        a = random_jet(rng)
        acc = Jet2.const(1)
        for e in range(5):
            assert a**e == acc
            acc = acc * a
        if a.value:
            assert a**-2 == (a.inverse()) * (a.inverse())


def test_first_derivative_against_interpolation_oracle():
    rng = random.Random(15)
    for _ in range(25):
        s0 = F(rng.randint(-40, 40), rng.randint(1, 20))
        k = rng.randint(1, 8)
        if any(s0 == i for i in range(k)):
            continue
        jet = binom_poly(Jet2.variable(s0), k)
        oracle = poly_derivative_at(lambda x: binom_poly(x, k), s0, k)
        assert jet.first() == oracle


def test_second_derivative_from_finite_differences():
    # exact for quadratics: f(x+1) - 2 f(x) + f(x-1)
    rng = random.Random(16)
    for _ in range(25):
        s0 = F(rng.randint(-20, 20), rng.randint(1, 10))
        a, b, c = (F(rng.randint(-9, 9)) for _ in range(3))

        def f(x):
            return a * x * x + b * x + c

        jet = f(Jet2.variable(s0))
        assert jet.second() == f(s0 + 1) - 2 * f(s0) + f(s0 - 1)
        assert jet.first() == (f(s0 + 1) - f(s0 - 1)) / 2


def test_product_logarithmic_derivative():
    # d/ds binom(s, k) == binom(s, k) * sum_{i<k} 1/(s-i) off the poles
    rng = random.Random(17)
    for _ in range(30):
        s0 = F(rng.randint(-30, 30), rng.randint(2, 11))
        k = rng.randint(0, 10)
        if any(s0 == i for i in range(k)):
            continue
        jet = binom_poly(Jet2.variable(s0), k)
        assert jet.first() == binom_poly(s0, k) * digamma_diff(s0, k)


def test_two_variable_mixed_coefficient():
    s = Jet2.variable(F(2), slot=1)
    t = Jet2.variable(F(5), slot=2)
    prod = s * t
    assert prod.mixed() == 1
    assert prod.value == 10
    # f(s,t) = s^2 t: f_st = 2 s = 4 at the base point
    f = s * s * t
    assert f.mixed() == 4
    assert f.second(1) == 2 * 5


def test_digamma_diff_lifts():
    # digamma_diff is rational in s, so the jet path must agree with the
    # derivative of the closed form: d/ds sum 1/(s-i) = -sum 1/(s-i)^2.
    s0 = F(7, 2)
    jet = digamma_diff(Jet2.variable(s0), 3)
    assert jet.value == digamma_diff(s0, 3)
    assert jet.first() == -sum(1 / (s0 - i) ** 2 for i in range(3))


# ---------------------------------------------------------------------------
# The six written-out slots against the definition
# ---------------------------------------------------------------------------

def truncated_convolution(a: dict, b: dict) -> dict:
    """The product from the definition: every pair of terms, degree > 2 dropped."""
    out = {}
    for (i1, j1), x in a.items():
        for (i2, j2), y in b.items():
            if i1 + i2 + j1 + j2 <= 2:
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + x * y
    return {key: v for key, v in out.items() if v}


if st is not None:
    INTS = st.integers(-30, 30)
    FRACTIONS = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
    # all-int slots, all-Fraction slots, or a mix; zero slots included
    SLOTS = st.one_of(*(st.dictionaries(st.sampled_from(KEYS), values, max_size=6)
                        for values in (INTS, FRACTIONS, st.one_of(INTS, FRACTIONS))))


@needs_hypothesis
def test_written_out_product_is_the_truncated_convolution():
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(SLOTS, SLOTS, st.one_of(INTS, FRACTIONS))
    def check(a, b, scalar):
        x, y = Jet2(a), Jet2(b)
        product = x * y
        assert product.c == truncated_convolution(a, b)
        if all(type(v) is int for v in (*a.values(), *b.values())):
            assert all(type(v) is int for v in product.c.values())
        for got in (x * scalar, scalar * x):
            assert got.c == truncated_convolution(a, {(0, 0): scalar})
        shifted = {**a, (0, 0): a.get((0, 0), 0) + scalar}
        assert (x + scalar).c == {key: v for key, v in shifted.items() if v}
        assert x + scalar == x + Jet2({(0, 0): scalar})
        assert x - scalar == x - Jet2({(0, 0): scalar})
        assert scalar - x == Jet2({(0, 0): scalar}) - x
        # .c lists the nonzero slots only, keyed by the orders in e1, e2
        assert x.c == {key: v for key, v in a.items() if v}
        assert all(v != 0 for v in product.c.values())

    check()


@needs_hypothesis
def test_dividing_by_an_int_scales_by_its_reciprocal():
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(SLOTS, st.integers(-50, 50).filter(bool))
    def check(a, d):
        x = Jet2(a)
        assert x / d == x * F(1, d)
        assert x / F(d) == x * F(1, d)
        assert (x / d).c == {k: F(v) / d for k, v in a.items() if v}
        assert (x * d) / d == x

    check()


def test_equality_ignores_int_against_fraction_slots():
    ints = Jet2({(0, 0): 3, (1, 0): -2, (1, 1): 5})
    fractions = Jet2({(0, 0): F(3), (1, 0): F(-2), (1, 1): F(10, 2)})
    assert ints == fractions and fractions == ints
    assert ints != Jet2({(0, 0): 3, (1, 0): -2})
    assert Jet2({(0, 0): 3}) == 3 == Jet2({(0, 0): F(3)})
    assert Jet2({(0, 0): F(3, 2)}) == F(3, 2)
    assert Jet2({(0, 0): 3, (0, 2): 1}) != 3
    assert Jet2({}) == 0 == Jet2({(1, 1): F(0)})
    assert Jet2({(2, 0): 0}).c == {} and Jet2({(2, 0): F(0)}).c == {}


def test_division_by_a_jet_with_zero_constant_term_raises():
    x = Jet2({(0, 0): F(2, 3), (1, 0): 1, (0, 2): F(5, 7)})
    for zero in (Jet2({(1, 0): 1}), Jet2({(0, 0): F(0), (1, 1): 3}), Jet2({})):
        for numerator in (x, 1, F(1, 2)):
            with pytest.raises(Pole):
                numerator / zero
        with pytest.raises(Pole):
            zero ** -1
    for zero in (0, F(0)):
        with pytest.raises(Pole):
            x / zero


# ---------------------------------------------------------------------------
# Int slots over one denominator against a Fraction-slot reference
# ---------------------------------------------------------------------------

class FractionJet:
    """The jet arithmetic with one Fraction per slot and no shared
    denominator: the reference for Jet2's int slots.  Its inverse is the
    series (1 + u + u^2) / c0 for self = c0 (1 - u)."""

    def __init__(self, slots):
        self.s = tuple(Fraction(v) for v in slots)

    def __add__(self, other):
        if isinstance(other, FractionJet):
            return FractionJet(map(add, self.s, other.s))
        return FractionJet((self.s[0] + other, *self.s[1:]))

    __radd__ = __add__

    def __neg__(self):
        return FractionJet(-v for v in self.s)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, FractionJet):
            return FractionJet(v * other for v in self.s)
        a0, a1, a2, a11, a12, a22 = self.s
        b0, b1, b2, b11, b12, b22 = other.s
        return FractionJet((a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a2 * b0,
                            a0 * b11 + a1 * b1 + a11 * b0,
                            a0 * b12 + a1 * b2 + a2 * b1 + a12 * b0,
                            a0 * b22 + a2 * b2 + a22 * b0))

    __rmul__ = __mul__

    def inverse(self):
        c0 = self.s[0]
        u = FractionJet((0, *(-v / c0 for v in self.s[1:])))
        return (1 + u + u * u) * (1 / c0)

    def __truediv__(self, other):
        if isinstance(other, FractionJet):
            return self * other.inverse()
        return FractionJet(v / other for v in self.s)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent):
        out, base = FractionJet((1, 0, 0, 0, 0, 0)), self if exponent >= 0 else self.inverse()
        for _ in range(abs(exponent)):
            out = out * base
        return out


def agrees_and_is_canonical(jet, ref: FractionJet) -> bool:
    """jet equals ref slot by slot, and is stored as six ints over one positive
    int in lowest terms."""
    slots = [jet.numerator.c.get(key, 0) for key in KEYS]
    return (type(jet) is Jet2 and all(type(v) is int for v in slots)
            and jet.denominator > 0 and gcd(jet.denominator, *slots) == 1
            and tuple(F(v, jet.denominator) for v in slots) == ref.s)


@needs_hypothesis
def test_int_slots_agree_with_the_fraction_reference():
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(SLOTS, SLOTS, INTS, FRACTIONS, st.integers(-3, 3))
    def check(a, b, k, r, exponent):
        x, y = Jet2(a), Jet2(b)
        rx, ry = (FractionJet(slots.get(key, 0) for key in KEYS) for slots in (a, b))
        cases = [(x, rx), (y, ry), (x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry),
                 (-x, -rx), (x ** max(exponent, 0), rx ** max(exponent, 0))]
        for c in (k, r):
            cases += [(x + c, rx + c), (c + x, c + rx), (x - c, rx - c), (c - x, c - rx),
                      (x * c, rx * c), (c * x, c * rx)]
            if c:
                cases.append((x / c, rx / c))
            if y.value:
                cases.append((c / y, c / ry))
        if y.value:
            cases += [(x / y, rx / ry), (y.inverse(), ry.inverse()),
                      (y ** exponent, ry ** exponent)]
        for got, want in cases:
            assert agrees_and_is_canonical(got, want)

    check()
