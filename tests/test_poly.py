"""Sparse polynomials, gcd, and canonical rational functions."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from binomsums.expr import parse_ratfunc
from binomsums.poly import (
    VARS,
    MultiPoly,
    RatFunc,
    poly_gcd,
)

from ring_values import evaluate

try:
    from hypothesis import given, settings, strategies as st
except ImportError:          # optional test dependency: the property tests skip
    st = None

needs_hypothesis = pytest.mark.skipif(st is None, reason="hypothesis is not installed")

F = Fraction


def random_poly(rng: random.Random, nterms: int = 4, nvars: int = 4,
                max_exp: int = 3) -> MultiPoly:
    terms = {}
    for _ in range(nterms):
        exp = [0] * len(VARS)
        for _ in range(rng.randint(0, 2)):
            exp[rng.randrange(nvars)] = rng.randint(0, max_exp)
        terms[tuple(exp)] = F(rng.randint(-9, 9), rng.randint(1, 5))
    return MultiPoly(terms)


def random_assignment(rng: random.Random) -> dict[str, Fraction]:
    return {name: F(rng.randint(-30, 30), rng.randint(1, 10)) for name in VARS}


def leading_coefficient(p: MultiPoly) -> Fraction:
    """The coefficient of p's graded-lex leading term: highest total degree,
    then the earlier variables weighing more."""
    coeffs = p.coeffs()
    return coeffs[max(coeffs, key=lambda exp: (sum(exp), exp))]


# ---------------------------------------------------------------------------
# MultiPoly ring structure
# ---------------------------------------------------------------------------

def test_zero_polynomial_is_empty():
    assert MultiPoly.zero().is_zero
    assert MultiPoly.const(0).is_zero
    assert not (MultiPoly.const(0) + 0).terms
    assert (MultiPoly.var("n") - MultiPoly.var("n")).is_zero


def test_no_stored_zero_coefficients():
    rng = random.Random(21)
    for _ in range(50):
        a, b = random_poly(rng), random_poly(rng)
        for p in (a + b, a - b, a * b):
            assert all(c != 0 for c in p.terms.values())


def test_ring_axioms_random():
    rng = random.Random(22)
    for _ in range(40):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_degree_multiplicative():
    rng = random.Random(23)
    for _ in range(60):
        a, b = random_poly(rng), random_poly(rng)
        if a.is_zero or b.is_zero:
            continue
        assert (a * b).degree() == a.degree() + b.degree()


def test_evaluation_is_ring_morphism():
    rng = random.Random(24)
    for _ in range(30):
        a, b = random_poly(rng), random_poly(rng)
        assign = random_assignment(rng)
        assert evaluate(a + b, assign) == evaluate(a, assign) + evaluate(b, assign)
        assert evaluate(a * b, assign) == evaluate(a, assign) * evaluate(b, assign)


def test_shift_substitutes():
    rng = random.Random(25)
    n = MultiPoly.var("n")
    k = MultiPoly.var("k")
    p = n * n * k - 3 * n + 1
    shifted = p.shift("n", 2)
    for _ in range(10):
        assign = random_assignment(rng)
        moved = dict(assign)
        moved["n"] = assign["n"] + 2
        assert evaluate(shifted, assign) == evaluate(p, moved)
    assert p.shift("n", 0) == p


def test_divexact_and_failure():
    a = parse_ratfunc("(n+1)*(k-2)").num
    b = parse_ratfunc("n+1").num
    assert a.divexact(b) == parse_ratfunc("k-2").num
    with pytest.raises(ArithmeticError):
        a.divexact(parse_ratfunc("n+2").num)
    # a constant divisor divides every coefficient
    assert a.divexact(MultiPoly.const(2)) == parse_ratfunc("(n+1)*(k-2)/2").num


def test_content_primitive():
    p = MultiPoly.const(F(4, 6)) * MultiPoly.var("n") + MultiPoly.const(F(2, 3))
    c, prim = p.content_primitive()
    assert c * prim == p
    assert leading_coefficient(prim) > 0
    assert prim.den == 1
    assert gcd(*prim.terms.values()) == 1


# ---------------------------------------------------------------------------
# GCD
# ---------------------------------------------------------------------------

def test_gcd_divides_absorbs_and_is_maximal():
    rng = random.Random(26)
    for _ in range(25):
        a, b, g = random_poly(rng, 3), random_poly(rng, 3), random_poly(rng, 2)
        if g.is_zero:
            continue
        ag, bg = a * g, b * g
        if ag.is_zero or bg.is_zero:
            continue
        d = poly_gcd(ag, bg)
        ca = ag.divexact(d)
        cb = bg.divexact(d)
        # the planted factor divides the gcd ...
        d.divexact(poly_gcd(d, g.content_primitive()[1]))
        # ... and the cofactors are coprime (maximality)
        assert poly_gcd(ca, cb).degree() == 0


def test_heuristic_and_prs_routes_agree():
    from binomsums.poly import _prs_gcd

    rng = random.Random(30)
    for _ in range(15):
        a, b, g = random_poly(rng, 2, 3, 2), random_poly(rng, 2, 3, 2), \
            random_poly(rng, 2, 3, 2)
        if a.is_zero or b.is_zero or g.is_zero:
            continue
        heuristic = poly_gcd(a * g, b * g)
        prs = _prs_gcd((a * g).content_primitive()[1],
                       (b * g).content_primitive()[1])
        assert heuristic == prs


def test_gcd_of_coprime_is_constant():
    a = parse_ratfunc("n+1").num
    b = parse_ratfunc("n+2").num
    assert poly_gcd(a, b).degree() == 0
    c = parse_ratfunc("alpha*n+1").num
    d = parse_ratfunc("alpha+n").num
    assert poly_gcd(c, d).degree() == 0


def test_gcd_classic():
    n2m1 = parse_ratfunc("n^2-1").num
    nm1 = parse_ratfunc("n-1").num
    assert poly_gcd(n2m1, nm1) == nm1
    # multivariate with content: (2n+2k)(n-k) vs (n+k)(3n-3k)
    a = parse_ratfunc("(2*n+2*k)*(n-k)").num
    b = parse_ratfunc("(n+k)*(3*n-3*k)").num
    g = poly_gcd(a, b)
    assert g == parse_ratfunc("(n+k)*(n-k)").num


def test_gcd_with_a_constant_operand_is_one():
    n, s = MultiPoly.var("n"), MultiPoly.var("s")
    for p in (n + 1, 6 * n * s - 4, s**3, MultiPoly.const(5)):
        for c in (1, -3, F(2, 7)):
            c = MultiPoly.const(c)
            assert poly_gcd(p, c) == poly_gcd(c, p) == MultiPoly.const(1)


def test_gcd_with_zero_operand():
    p = MultiPoly.const(-6) * MultiPoly.var("n") + 4
    assert poly_gcd(p, MultiPoly.zero()) == MultiPoly.const(3) * MultiPoly.var("n") - 2
    assert poly_gcd(MultiPoly.zero(), MultiPoly.const(F(-2, 7))) == MultiPoly.const(1)
    assert poly_gcd(MultiPoly.const(4), MultiPoly.zero()) == MultiPoly.const(1)
    assert poly_gcd(MultiPoly.zero(), MultiPoly.zero()).is_zero


def _falling_factorial_pair(m: int) -> tuple[MultiPoly, MultiPoly]:
    """s(s-1)...(s-m+1) and the numerator of H_m + sum_{i<m} 1/(s-i) over
    it: coprime, and at m = 20 a pair on which the heuristic gives up (the
    smooth values of the falling factorial leave spurious factors above
    xi/2)."""
    s = MultiPoly.var("s")
    factors = [s - i for i in range(m)]
    falling = MultiPoly.const(1)
    for f in factors:
        falling = falling * f
    partner = falling * sum(F(1, i) for i in range(1, m + 1))
    for k in range(m):
        rest = MultiPoly.const(1)
        for i, f in enumerate(factors):
            if i != k:
                rest = rest * f
        partner = partner + rest
    return partner.content_primitive()[1], falling


def test_heuristic_gives_up_on_the_falling_factorial_pair(budget):
    from binomsums.poly import _HeuristicFailed, _heugcd

    a, b = _falling_factorial_pair(20)
    with pytest.raises(_HeuristicFailed):
        _heugcd(a, b)
    with budget(1.0):
        assert poly_gcd(a, b) == MultiPoly.const(1)


def test_prs_gcd_of_falling_factorial_pair_is_bounded(budget):
    # the PRS that kept each remainder's integer content ran for minutes
    # here, its remainders doubling in bit size at every step
    from binomsums.poly import _prs_gcd

    a, b = _falling_factorial_pair(20)
    with budget(1.0):
        assert _prs_gcd(a, b) == MultiPoly.const(1)


@pytest.mark.parametrize("n", [20, 26])
def test_symbolic_id15_is_zero_within_budget(n, budget):
    # these two n used to take over 40 s in poly_gcd
    from binomsums.catalog.entries import REGISTRY

    entry = REGISTRY["ID15"]
    point = {"s": RatFunc.var("s")}
    with budget(5.0):
        assert (entry.lhs(n, point) - entry.rhs(n, point)).is_zero


# ---------------------------------------------------------------------------
# RatFunc canonical form
# ---------------------------------------------------------------------------

def test_cancellation_example():
    r = parse_ratfunc("(n^2-1)/(n-1)")
    assert r == parse_ratfunc("n+1")
    assert r.den == MultiPoly.const(1)


def test_constant_half():
    r = parse_ratfunc("1/2")
    assert r == RatFunc.const(F(1, 2))


def test_denominator_sign_normalization():
    r = parse_ratfunc("n/(1-k)")
    assert leading_coefficient(r.den) > 0
    # value must be unchanged
    assert evaluate(r, {"n": F(3), "k": F(4), **{v: F(0) for v in VARS if v not in ("n", "k")}}) == F(-1)


def test_zero_detection_decides_equality():
    cases = [
        ("(n+1) - (n+1)", True),
        ("(n+k)^2 - n^2 - 2*n*k - k^2", True),
        ("1/(n+1) - 1/(n+2)", False),
        ("(n^2-1)/(n-1) - n - 1", True),
    ]
    for text, expect in cases:
        assert parse_ratfunc(text).is_zero is expect


def test_canonical_forms_match_across_rewrites():
    rng = random.Random(27)
    names = ["n", "k", "alpha", "beta"]
    for _ in range(50):
        # random factored product of linear terms over a few variables
        factors = []
        for _ in range(rng.randint(1, 3)):
            terms = [str(rng.randint(-4, 4))]
            for name in rng.sample(names, rng.randint(1, 2)):
                coeff = rng.randint(-3, 3)
                terms.append(f"{coeff}*{name}")
            factors.append("(" + "+".join(terms) + ")")
        factored = "*".join(factors)
        expanded = parse_ratfunc(factored).num
        if expanded.is_zero:
            continue
        assert parse_ratfunc(factored) == parse_ratfunc(expanded.render().replace(" ", ""))


def test_eval_and_pole():
    r = parse_ratfunc("(n+1)/(k+2)")
    assign = {v: F(0) for v in VARS}
    assign.update(n=F(1), k=F(0))
    assert evaluate(r, assign) == 1
    bad = parse_ratfunc("n/(n-1)")
    assign["n"] = F(1)
    with pytest.raises(ZeroDivisionError, match="pole at assignment"):
        evaluate(bad, assign)


def test_certificate_ratio_example():
    # the 2x2-factor ratio shape used by the certificates: evaluates finitely
    r = parse_ratfunc("(k-j)*(alpha+k-n)/((k-n-1)*(alpha-beta-n-1))")
    assign = {v: F(0) for v in VARS}
    assign.update(j=F(0), k=F(1), n=F(1), alpha=F(1, 2), beta=F(1, 3))
    value = evaluate(r, assign)
    # direct substitution oracle
    num = (F(1) - 0) * (F(1, 2) + 1 - 1)
    den = (F(1) - 1 - 1) * (F(1, 2) - F(1, 3) - 1 - 1)
    assert value == num / den


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError, match="zero denominator expression"):
        parse_ratfunc("1/(n-n)")
    with pytest.raises(ZeroDivisionError, match="zero denominator expression"):
        RatFunc(MultiPoly.const(1), MultiPoly.zero())


def test_shift_matches_substitution():
    rng = random.Random(28)
    r = parse_ratfunc("(n+2*k)/(k+1)")
    shifted = r.shift("k", 1)
    for _ in range(10):
        assign = random_assignment(rng)
        moved = dict(assign)
        moved["k"] = assign["k"] + 1
        try:
            expect = evaluate(r, moved)
        except ZeroDivisionError:
            continue
        assert evaluate(shifted, assign) == expect


def test_schwartz_zippel_smoke():
    # a canonically nonzero ratfunc must be nonzero at some of 20 assignments
    rng = random.Random(29)
    candidates = [
        "1/(n+1) - 1/(n+2)",
        "(n+k)^2 - n^2 - 2*n*k",
        "alpha*beta - 1",
    ]
    for text in candidates:
        r = parse_ratfunc(text)
        assert not r.is_zero
        hits = 0
        for _ in range(20):
            assign = random_assignment(rng)
            try:
                if evaluate(r, assign) != 0:
                    hits += 1
            except ZeroDivisionError:
                continue
        assert hits >= 1


# ---------------------------------------------------------------------------
# The int product and division against a term-by-term Fraction reference
# ---------------------------------------------------------------------------

def _grlex(exp):
    return (sum(exp), exp)


def reference_mul(a: dict, b: dict) -> dict:
    """a * b, one Fraction product and sum per pair of terms."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            out[exp] = out.get(exp, F(0)) + F(c1) * F(c2)
    return {exp: c for exp, c in out.items() if c}


def reference_add(a: dict, b: dict) -> dict:
    out = {exp: F(c) for exp, c in a.items()}
    for exp, c in b.items():
        out[exp] = out.get(exp, F(0)) + c
    return {exp: c for exp, c in out.items() if c}


def reference_divexact(a: dict, b: dict) -> dict:
    """a / b by graded-lex long division in Fractions; ArithmeticError when
    a leading term does not divide (the division is not exact)."""
    d_exp = max(b, key=_grlex)
    rem, out = {exp: F(c) for exp, c in a.items() if c}, {}
    while rem:
        r_exp = max(rem, key=_grlex)
        q_exp = tuple(x - y for x, y in zip(r_exp, d_exp))
        if min(q_exp) < 0:
            raise ArithmeticError("not exact")
        q = rem[r_exp] / b[d_exp]
        out[q_exp] = q
        rem = reference_add(rem, reference_mul({q_exp: -q}, b))
    return out


def canonical(p: MultiPoly) -> bool:
    """The stored form: nonzero int numerators over one int den > 0 that shares
    no factor with all of them."""
    values = list(p.terms.values())
    return (all(type(c) is int and c != 0 for c in values)
            and type(p.den) is int and p.den > 0 and gcd(p.den, *values) == 1)


if st is not None:
    COEFFS = st.one_of(st.integers(-9, 9),
                       st.builds(F, st.integers(-40, 40), st.integers(1, 12)))
    # sparse: up to six terms over three of the eight variables
    EXPS = st.tuples(*(st.integers(0, 3) for _ in range(3))).map(
        lambda e: (e[0], 0, e[1], 0, 0, e[2], 0, 0))
    TERMS = st.dictionaries(EXPS, COEFFS, max_size=6)


@needs_hypothesis
def test_product_equals_the_fraction_reference():
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(TERMS, TERMS, TERMS, COEFFS)
    def check(a, b, c, scalar):
        pa, pb, pc = MultiPoly(a), MultiPoly(b), MultiPoly(c)
        minus_c = {exp: -v for exp, v in c.items()}
        scaled = reference_mul(a, {(0,) * 8: scalar})
        cases = [
            (pa * pb, reference_mul(a, b)),
            # (a + c)(a - c): the cross terms cancel inside one product
            ((pa + pc) * (pa - pc),
             reference_mul(reference_add(a, c), reference_add(a, minus_c))),
            (pa * MultiPoly.zero(), {}),
            (pa * scalar, scaled),
            (scalar * pa, scaled),
            (pa * F(scalar), scaled),
            (pa * MultiPoly.const(scalar), scaled),
            (MultiPoly.const(scalar) * pa, scaled),
            (pa * 0, {}),
        ]
        for exp, v in list(b.items())[:1]:                 # a one-term operand
            cases.append((pa * MultiPoly({exp: v}), reference_mul(a, {exp: v})))
        for got, want in cases:
            assert got.coeffs() == want
            assert canonical(got)
        assert (pa + pc) * (pa - pc) == pa * pa - pc * pc

    check()


@needs_hypothesis
def test_divexact_equals_the_fraction_reference():
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(TERMS, TERMS, TERMS)
    def check(a, b, r):
        pa, pb = MultiPoly(a), MultiPoly(b)
        if pb.is_zero:
            with pytest.raises(ZeroDivisionError):
                pa.divexact(pb)
            return
        product = pa * pb
        quotient = product.divexact(pb)
        assert quotient == pa and canonical(quotient)
        assert quotient.coeffs() == reference_divexact(product.coeffs(), pb.coeffs())
        # a dividend that need not be a multiple: exact or not, both agree
        dividend = product + MultiPoly(r)
        try:
            want = reference_divexact(dividend.coeffs(), pb.coeffs())
        except ArithmeticError:
            with pytest.raises(ArithmeticError):
                dividend.divexact(pb)
        else:
            got = dividend.divexact(pb)
            assert got.coeffs() == want and canonical(got)
            assert got * pb == dividend

    check()


@needs_hypothesis
def test_one_polynomial_has_one_stored_form():
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(TERMS, TERMS, TERMS, COEFFS)
    def check(a, b, c, q):
        pa, pb, pc = MultiPoly(a), MultiPoly(b), MultiPoly(c)
        routes = [MultiPoly({exp: F(v) for exp, v in a.items()}), (pa + pc) - pc]
        if not pb.is_zero:
            routes.append((pa * pb).divexact(pb))
        if q:
            routes.append(pa * q * (1 / F(q)))
        for got in routes:
            assert got.terms == pa.terms and got.den == pa.den and canonical(got)

    check()


@needs_hypothesis
def test_ratfunc_sum_equals_the_cross_multiplied_sum():
    seen = {"equal": 0, "unequal": 0}

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(TERMS, TERMS, TERMS, TERMS)
    def check(n1, d1, n2, d2):
        num1, den1, num2, den2 = (MultiPoly(t) for t in (n1, d1, n2, d2))
        if den1.is_zero or den2.is_zero:
            return
        pairs = [(RatFunc(num1, den1), RatFunc(num2, den1)),
                 (RatFunc(num1, den1), RatFunc(num2, den2)),
                 (RatFunc.from_poly(num1), RatFunc.from_poly(num2))]
        for a, b in pairs:
            seen["equal" if a.den == b.den else "unequal"] += 1
            assert a + b == RatFunc(a.num * b.den + b.num * a.den, a.den * b.den)

    check()
    assert seen["equal"] and seen["unequal"]


def test_coefficients_that_are_not_rational_raise_type_error():
    for bad in (0.5, 0.0, 1j, "1", None):
        with pytest.raises(TypeError):
            MultiPoly({(0,) * 8: bad})
        with pytest.raises(TypeError):
            MultiPoly({(1,) + (0,) * 7: F(1, 2), (0,) * 8: bad})
        with pytest.raises(TypeError):
            MultiPoly.const(bad)
        with pytest.raises(TypeError):
            RatFunc.const(bad)
    # a Fraction made from a float is an exact rational, stored as ints
    half = MultiPoly.const(F(0.5))
    assert half == MultiPoly.const(F(1, 2)) and canonical(half) and half.den == 2


def test_inexact_divisions_raise(budget):
    n, k = MultiPoly.var("n"), MultiPoly.var("k")
    cases = [(n * n + 1, n), (n * k + 1, n + k), (n + F(1, 2), 2 * n + 3),
             (n * n * k, n * k + k * k), (MultiPoly.const(1), n),
             # the leading coefficient 1 is not a multiple of 2
             (n + 1, 2 * n + 1), (3 * n * n + n, 2 * n + 1)]
    with budget(10):            # a division that loops fails instead of hanging
        for a, b in cases:
            with pytest.raises(ArithmeticError):
                a.divexact(b)
    # a divisor with rational coefficients and an int content
    q = (n * F(3, 4) + k * F(3, 2)).divexact(F(3, 4) * n + F(3, 2) * k)
    assert q == MultiPoly.const(1) and canonical(q)
    assert canonical((6 * n * n + 4 * n).divexact(3 * n + 2))


# ---------------------------------------------------------------------------
# Packed monomial keys
# ---------------------------------------------------------------------------

def test_exponent_vectors_that_are_not_monomials_raise():
    for exp in [(-1,) + (0,) * 7, (1,) + (0,) * 6, (0,) * 9, ()]:
        with pytest.raises(ValueError):
            MultiPoly({exp: 1})


def test_an_exponent_past_the_field_range_raises():
    from binomsums.poly import _MAXDEG

    def n_to(e):
        return MultiPoly({(e,) + (0,) * 7: 1})

    assert n_to(_MAXDEG).degree() == _MAXDEG
    with pytest.raises(OverflowError):
        n_to(_MAXDEG + 1)
    with pytest.raises(OverflowError):
        MultiPoly({(0, 0, 0, 0, 0, 0, 20_000, 20_000): 1})
    big = MultiPoly({(0, 10_000) + (0,) * 5 + (10_000,): 1})
    with pytest.raises(OverflowError):
        big * big
    with pytest.raises(OverflowError):
        (big + 1) * n_to(_MAXDEG - 19_999)
    assert (n_to(_MAXDEG - 20_000) * big).degree() == _MAXDEG
    # a power squares its base only while bits remain
    assert big ** 1 == big and n_to(16_383) ** 2 == n_to(32_766)
    with pytest.raises(OverflowError):
        big ** 2


def test_divexact_rejects_a_larger_exponent_in_one_variable():
    n, k = MultiPoly.var("n"), MultiPoly.var("k")
    for a, b in [(n * k * k, k ** 3), (n, k), (k, n), (n * n * k, n * k * k)]:
        with pytest.raises(ArithmeticError):
            a.divexact(b)


if st is not None:
    EXP_VECTORS = st.tuples(*(st.integers(0, 2047) for _ in VARS))


@needs_hypothesis
def test_packed_keys_carry_the_exponent_arithmetic():
    from binomsums.poly import _pack, unpack

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(EXP_VECTORS, EXP_VECTORS)
    def check(a, b):
        ka, kb = _pack(a), _pack(b)
        assert unpack(ka) == a and unpack(kb) == b
        assert (ka < kb) == ((sum(a), a) < (sum(b), b))
        assert unpack(ka + kb) == tuple(x + y for x, y in zip(a, b))
        assert MultiPoly({a: 1}).coeffs() == {a: 1}

    check()


@needs_hypothesis
def test_divexact_of_monomials_follows_the_exponents():
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(EXP_VECTORS, st.integers(0, 7), st.integers(0, 7), st.integers(1, 5))
    def check(a, i, j, moved):
        dividend = MultiPoly({a: 3})
        # b: a with `moved` units taken from variable i and given to j, so
        # that b exceeds a in variable j at the same total degree
        if i == j or a[i] < moved:
            return
        b = list(a)
        b[i] -= moved
        b[j] += moved
        with pytest.raises(ArithmeticError):
            dividend.divexact(MultiPoly({tuple(b): 1}))
        # and b without the units given to j divides a
        b[j] -= moved
        quotient = dividend.divexact(MultiPoly({tuple(b): 1}))
        want = [0] * len(VARS)
        want[i] = moved
        assert quotient.coeffs() == {tuple(want): 3}

    check()
