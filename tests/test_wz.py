"""Certificate pairs: symbolic residuals, reports, telescoping, fixtures."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from functools import partial
from importlib import resources
from math import lcm

import pytest

from binomsums import hyperterm
from binomsums.exact import Pole, binom_poly
from binomsums.expr import ExprSyntaxError, parse_ratfunc, parse_term
from binomsums.hyperterm import HyperTerm
from binomsums.catalog.entries import REGISTRY
from binomsums.params import ResultRow, draw, draws
from binomsums.poly import MultiPoly, RatFunc
from binomsums.wz import (
    PAIR_NAMES,
    WZFixtureError,
    _int_poly,
    builtin_pairs,
    certificate_residual,
    load_pair,
    parse_pair_file,
    telescoping_sum_check,
    verify_wz_pair,
)

from ring_values import evaluate

try:
    from hypothesis import assume, given, settings, strategies as st
except ImportError:          # optional test dependency: the property tests skip
    st = None

needs_hypothesis = pytest.mark.skipif(st is None, reason="hypothesis is not installed")

F = Fraction


def _fixture_term(name):
    """The ``term:`` line of a pair's fixture file, as the file spells it."""
    text = resources.files("binomsums.fixtures").joinpath(f"{name}.wz").read_text()
    return next(line.split(":", 1)[1].strip() for line in text.splitlines()
                if line.startswith("term:"))


def _seeded(pair, n_max, samples, seed=0):
    """verify_wz_pair's rows on the draws the suite hands it for the pair at the seed."""
    return verify_wz_pair(pair, n_max, list(draws(f"{seed}:wz:{pair.name}", pair.params,
                                                  n_max, samples)))


# ---------------------------------------------------------------------------
# Fixture parsing
# ---------------------------------------------------------------------------

def test_parse_term_spec_full_shape():
    term = parse_term(
        "sign(n+k) * 3/2 * binom(beta+k,k) * binom(alpha,n-k)^-1")
    assert term.constant == F(3, 2)
    assert term.sign.coeff("n") == 1 and term.sign.coeff("k") == 1
    assert len(term.factors) == 2
    assert term.factors[0][2] == 1
    assert term.factors[1][2] == -1


def test_parse_term_spec_errors_carry_position():
    for line, term in [(3, "binom(n,k)^2"), (4, "binom(q,k)")]:     # q: an unknown variable
        with pytest.raises(WZFixtureError) as exc:
            parse_pair_file("# comment\n" * (line - 1)
                            + f"term: {term}\ncertificate: k\norientation: +1\n")
        assert exc.value.line == line
    for term in ("binom(n)", "sign(n*k)", "n+k"):      # n+k: a bare non-constant factor
        with pytest.raises(ExprSyntaxError):
            parse_term(term)


def test_term_errors_sit_at_the_first_token_they_concern():
    for term, column in [
        ("binom(n,k) * n+k", 20),                 # the item, not the space before it
        ("binom(n,k)^2", 18),                     # the exponent
        ("binom(n,k) * sign(n) * sign(k)", 30),   # the second sign
        ("binom(n,k) * 1/(n-n)", 20),             # a ring error sits at its item
        ("binom(n,k) * binom(n*k,k)", 26),        # a non-affine argument
        ("sign(n)^-1", 14),                       # only a binomial takes an exponent
    ]:
        with pytest.raises(WZFixtureError) as exc:
            parse_pair_file(f"term: {term}\ncertificate: k\norientation: +1\n")
        assert (exc.value.line, exc.value.column) == (1, column), term
    # the grammar ignores whitespace, around an exponent too
    assert parse_term("binom(n,k) ^ -1") == parse_term("binom(n,k)^-1")
    assert parse_term("binom ( n , k ) ^ + 1") == parse_term("binom(n,k)")


def test_certificate_ring_errors_sit_at_their_token():
    for certificate, column in [
        ("k + q", 18),          # the unknown variable
        ("1/(n-n)", 16),        # the zero divisor's first token
    ]:
        with pytest.raises(WZFixtureError) as exc:
            parse_pair_file(f"term: binom(n,k)\ncertificate: {certificate}\norientation: +1\n")
        assert (exc.value.line, exc.value.column) == (2, column), certificate


def test_parse_pair_file_round_trip():
    body = """
    # comment
    term: binom(n,k) * binom(t+k,k)^-1
    certificate: k/(k-n-1)
    orientation: +1
    """
    term, cert, orientation = parse_pair_file(body)
    assert orientation == 1
    assert len(term.factors) == 2
    assert cert == parse_ratfunc("k/(k-n-1)")


def test_parse_pair_file_missing_key():
    with pytest.raises(WZFixtureError):
        parse_pair_file("term: binom(n,k)\norientation: +1\n")


def test_parse_pair_file_bad_orientation():
    with pytest.raises(WZFixtureError):
        parse_pair_file("term: binom(n,k)\ncertificate: k\norientation: 2\n")


@pytest.mark.parametrize("term,certificate,line", [
    ("binom(n,k)", "q+1", 2),            # unknown variable
    ("binom(n,k)", "1/(n-n)", 2),        # division by the zero function
    ("binom(n,k)", "k/(k-", 2),          # syntax
    ("binom(q,k)", "k", 1),
    ("binom(n,1/(k-k))", "k", 1),
    ("binom(n*k,k)", "k", 1),            # not affine
    # nested too deep to parse (a RecursionError without the depth limit)
    pytest.param("binom(n,k)", "(" * 400 + "k" + ")" * 400, 2, id="400-parens"),
    pytest.param("binom(n,k)", "-" * 1200 + "k", 2, id="1200-minus"),
    pytest.param("binom(" + "(" * 400 + "n" + ")" * 400 + ",k)", "k", 1, id="term-parens"),
])
def test_parse_pair_file_field_errors_carry_their_line(term, certificate, line):
    with pytest.raises(WZFixtureError) as exc:
        parse_pair_file(f"term: {term}\ncertificate: {certificate}\norientation: +1\n")
    assert exc.value.line == line


@pytest.mark.parametrize("certificate", ["(" * 400 + "k" + ")" * 400, "-" * 1200 + "k"],
                         ids=["400-parens", "1200-minus"])
def test_deep_nesting_error_points_at_the_first_level_too_deep(certificate):
    with pytest.raises(WZFixtureError) as exc:
        parse_pair_file(f"term: binom(n,k)\ncertificate: {certificate}\norientation: +1\n")
    # 1-based column of the 101st opening token after "certificate: "
    assert (exc.value.line, exc.value.column) == (2, len("certificate: ") + 101)


_FIELD_LEAVES = ("n", "k", "j", "alpha", "s", "q", "0", "1", "2", "7")
_FIELD_TOKENS = _FIELD_LEAVES + ("+", "-", "*", "/", "(", ")", ",",
                                 "binom", "sign", "^-1", "#")


def _pair_file_texts():
    """Pair-file texts built from the grammar's tokens, joined by spaces so
    that every integer literal is one digit.  A field is a token soup or a
    well-formed parenthesized expression, with at most one '^<digit>'
    inserted, which keeps the exponents, and so the arithmetic, small."""
    from hypothesis import strategies as st

    well_formed = st.recursive(
        st.sampled_from(_FIELD_LEAVES).map(lambda token: [token]),
        lambda inner: st.builds(lambda a, op, b: ["(", *a, op, *b, ")"],
                                inner, st.sampled_from("+-*/"), inner),
        max_leaves=6)

    @st.composite
    def field(draw):
        tokens = draw(st.one_of(st.lists(st.sampled_from(_FIELD_TOKENS), max_size=10),
                                well_formed))
        if draw(st.booleans()):
            tokens.insert(draw(st.integers(0, len(tokens))),
                          "^" + draw(st.sampled_from("0123456789")))
        return " ".join(tokens)

    @st.composite
    def term(draw):
        pieces = draw(st.lists(st.one_of(
            field(),
            st.builds("sign ( {} )".format, field()),
            st.builds("binom ( {} , {} ){}".format, field(), field(),
                      st.sampled_from(["", " ^-1", "^+1", " ^2"]))), min_size=1, max_size=3))
        return " * ".join(pieces)

    @st.composite
    def text(draw):
        lines = [f"term: {draw(term())}", f"certificate: {draw(field())}",
                 f"orientation: {draw(st.one_of(st.sampled_from(['+1', '-1']), field()))}"]
        lines = draw(st.permutations(lines))
        for extra in draw(st.lists(st.sampled_from(
                ["", "# note", "junk", "bogus: 1", "term: n", "certificate"]), max_size=2)):
            lines.insert(draw(st.integers(0, len(lines))), extra)
        return "\n".join(lines)

    return text()


def test_parse_pair_file_raises_only_fixture_errors(budget):
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @hypothesis.given(_pair_file_texts())
    def check(text):
        try:
            parse_pair_file(text)
        except WZFixtureError as exc:
            assert 1 <= exc.line <= len(text.splitlines()) + 1

    with budget(60.0):
        check()


def test_builtin_pairs_load():
    pairs = builtin_pairs()
    assert set(pairs) == set(PAIR_NAMES)
    assert pairs["thm1"].extra_index == "j"
    assert pairs["thm2"].orientation == +1
    assert pairs["thm3"].orientation == -1


def test_each_pair_loads_once_and_an_unknown_name_raises_each_time():
    for name in PAIR_NAMES:
        assert load_pair(name) is load_pair(name) is builtin_pairs()[name]
    for _ in range(2):      # an exception is not cached
        with pytest.raises(KeyError, match="unknown pair 'thm4'; known: thm1, thm2, thm3"):
            load_pair("thm4")


# ---------------------------------------------------------------------------
# Parameter predicates against the terms
# ---------------------------------------------------------------------------

@needs_hypothesis
@pytest.mark.parametrize("name, explicit", [
    ("thm1", None), ("thm2", None),
    # the domain admits a positive integer p, where C(n-p, n-k) is 0/0 for n < p; flips
    # together with test_each_pair_domain_rejects_its_terms_singular_set's thm3 case
    pytest.param("thm3", {"s": F(1, 2), "p": F(3)}, marks=pytest.mark.xfail(
        strict=True, raises=Pole, reason="thm3's predicate admits integer p > 0"))],
    ids=PAIR_NAMES)
def test_each_admitted_draw_reads_the_term_at_every_grid_point(name, explicit):
    # every draw a pair's predicate admits reads its term at every n <= 8, j <= n and
    # k <= n+2 without an exception; small denominators make integer values likely
    pair, n_max = load_pair(name), 8
    inner = pair.extra_index
    reads = [(n, range(n + 1) if inner else (0,), range(n + 3)) for n in range(n_max + 1)]

    def read_all(assign):
        if pair.params.reject(n_max, assign) is None:
            assert len(list(pair.term.grid(assign, "n", inner, "k", reads))) == n_max + 1

    if explicit is not None:
        read_all(explicit)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.fixed_dictionaries({v: st.builds(F, st.integers(-12, 12), st.integers(1, 3))
                                  for v in pair.params.names}))
    def check(assign):
        assume(pair.params.reject(n_max, assign) is None)
        read_all(assign)

    check()


# the depth of the singular-set check and the values of the parameters it does not solve for
SINGULAR_N_MAX, GENERIC = 10, (F(1, 2), F(1, 7))


def _factor_is_singular(top, bottom, exp, d):
    """C(top/d, bottom/d)^exp, at ints top and bottom, is 0/0 (both negative integers),
    or a ^-1 of a C that vanishes: below the bar, at an integer top in [0, bottom), or at
    top - bottom a negative integer over a bottom that is not one."""
    if bottom % d == 0 and bottom < 0:
        return exp < 0 or (top % d == 0 and top < 0)
    if exp > 0:
        return False
    if bottom % d == 0:
        return top % d == 0 and 0 <= top < bottom
    return (top - bottom) % d == 0 and top < bottom


def _singular_witnesses(pair, domain, n_max=SINGULAR_N_MAX):
    """The assignments that ``domain`` admits at n_max where a factor of the pair's term
    is singular at some n <= n_max, j <= n, k <= n+2, and whether it rejects any that
    is.  Each factor's top, bottom and top - bottom at each grid point is set to each
    integer m with |m| <= 2 n_max + 3 and solved for one parameter, the others at
    generic values; the generic assignments themselves are candidates too."""
    names, inner = pair.params.names, pair.extra_index
    factors = set()             # each factor at each grid point, in the parameters alone
    for n in range(n_max + 1):
        for j in range(n + 1) if inner else (0,):
            for k in range(n + 3):
                at = {"n": n, "k": k, **({inner: j} if inner else {})}
                factors.update((top.split(at), bottom.split(at), exp)
                               for top, bottom, exp in pair.term.factors)
    forms = set()               # top, bottom and top - bottom of each, as (constant, coeffs)
    for (t0, top), (b0, bottom), _ in factors:
        difference = {v: dict(top).get(v, 0) - dict(bottom).get(v, 0) for v in names}
        forms.update([(t0, top), (b0, bottom),
                      (t0 - b0, tuple((v, c) for v, c in difference.items() if c))])
    bases = [dict(zip(names, GENERIC[i:] + GENERIC[:i])) for i in range(len(GENERIC))]
    candidates = {tuple(base.values()) for base in bases}
    for constant, coeffs in forms:
        for solved, c in coeffs:
            for base in bases:
                rest = constant + sum(cv * base[v] for v, cv in coeffs if v != solved)
                candidates.update(tuple(F(m - rest) / c if v == solved else base[v]
                                        for v in names)
                                  for m in range(-2 * n_max - 3, 2 * n_max + 4))

    # every value is a multiple of 1/d, and the variables' coefficients are ints: each
    # form is read as d times its value, an int
    d = lcm(*(x.denominator for values in candidates for x in values),
            *(form[0].denominator for factor in factors for form in factor[:2]))
    scaled = [(int(t0 * d), top, int(b0 * d), bottom, exp)
              for (t0, top), (b0, bottom), exp in factors]

    def singular(a):
        a = {v: int(x * d) for v, x in a.items()}
        return any(_factor_is_singular(t0 + sum(c * a[v] for v, c in top),
                                       b0 + sum(c * a[v] for v, c in bottom), exp, d)
                   for t0, top, b0, bottom, exp in scaled)

    assigns = [dict(zip(names, values)) for values in sorted(candidates)]
    admitted = [domain(n_max, a) is None for a in assigns]
    return ([a for a, ok in zip(assigns, admitted) if ok and singular(a)],
            any(singular(a) for a, ok in zip(assigns, admitted) if not ok))


@pytest.mark.parametrize("name", PAIR_NAMES)
def test_each_pair_domain_rejects_its_terms_singular_set(name):
    # the domain must reject every assignment where a factor of the term is 0/0 or a
    # vanishing ^-1 at a grid point, derived from the factors' affine forms
    pair = load_pair(name)
    missed, rejects_one = _singular_witnesses(pair, pair.params.reject)
    assert rejects_one, "no singular candidate that the domain rejects"
    if name == "thm3":
        # the known gap of ROADMAP item 1: a positive integer p, where C(n-p, n-k) is 0/0
        # at k > n for every n < p; this flips to none together with the strict xfail of
        # the grid test above when that item's fix lands
        assert missed and all(a["p"].denominator == 1 and a["p"] > 0 for a in missed), missed
        assert {"s": F(1, 2), "p": F(3)} in missed
    else:
        assert not missed, missed[:10]


# ---------------------------------------------------------------------------
# Symbolic residuals (the core certification)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", PAIR_NAMES)
def test_certificate_residual_is_zero(name):
    assert certificate_residual(load_pair(name)).is_zero


def test_scaled_certificate_fails_symbolically():
    pair = load_pair("thm1").scaled(F(2))
    residual = certificate_residual(pair)
    assert not residual.is_zero
    # and the residual is genuinely nonzero at a pole-free rational point
    assign = {"n": F(5), "k": F(2), "j": F(1), "alpha": F(1, 2), "beta": F(1, 3),
              "s": F(0), "t": F(0), "p": F(0)}
    assert evaluate(residual, assign) != 0


def test_perturbed_certificate_fails_symbolically():
    pair = load_pair("thm2")
    bumped = replace(pair, certificate=pair.certificate + parse_ratfunc("1/(n+1)"))
    rows = _seeded(bumped, 4, 2)
    symbolic = [row for row in rows if row.reason.startswith("symbolic residual")]
    assert symbolic and symbolic[0].status == "fail"
    assert not all(row.status == "pass" for row in rows)


def _flip_factor(pair, index):
    factors = list(pair.term.factors)
    top, bottom, exp = factors[index]
    factors[index] = (top, bottom, -exp)
    term = HyperTerm(pair.term.constant, pair.term.sign, tuple(factors))
    return replace(pair, term=term)


def test_sympy_rebuilds_each_residual_verdict_from_the_fixture_text():
    # an independent residual: sympy reads each fixture's text (sign(e) as (-1)**e), puts
    # T(n+1,k)/T(n,k) and T(n,k+1)/T(n,k) through combsimp and cancels the residual; its
    # zero/nonzero verdict is certificate_residual's for the three pairs, for their
    # scale-cert:2 and scale-cert:8/7 mutants and for each one-factor exponent flip, of
    # which only thm1's binom(beta+j,j)^-1, free of n and k, leaves the residual zero
    import sympy

    symbols = {str(v): v for v in sympy.symbols("n k j alpha beta s t p")}
    n, k = symbols["n"], symbols["k"]

    def residual(term_text, cert, orientation):
        term = sympy.sympify(term_text.replace("sign(", "(-1)**(").replace("^", "**")
                             .replace("binom(", "binomial("), locals=symbols)
        r_n, r_k = (sympy.combsimp(term.subs(v, v + 1) / term) for v in (n, k))
        return sympy.cancel(orientation * (r_n - 1) - cert.subs(k, k + 1) * r_k + cert)

    flips_left_zero = []
    for name in PAIR_NAMES:
        text = resources.files("binomsums.fixtures").joinpath(f"{name}.wz").read_text()
        fields = dict(line.split(":", 1) for raw in text.splitlines()
                      if (line := raw.split("#", 1)[0]).strip())
        orientation = int(fields["orientation"])
        cert = sympy.sympify(fields["certificate"], locals=symbols)
        pair = load_pair(name)
        for scale in ("1", "2", "8/7"):
            got = residual(fields["term"], cert * sympy.Rational(scale), orientation)
            scaled = pair.scaled(F(scale)) if scale != "1" else pair
            assert (got == 0) is certificate_residual(scaled).is_zero is (scale == "1"), (
                name, scale, got)
        pieces = [piece.strip() for piece in fields["term"].split(" * ")]
        binoms = [i for i, piece in enumerate(pieces) if piece.startswith("binom(")]
        assert len(binoms) == len(pair.term.factors)
        for index, at in enumerate(binoms):
            flipped = list(pieces)
            flipped[at] = (pieces[at].removesuffix("^-1") if pieces[at].endswith("^-1")
                           else pieces[at] + "^-1")
            got = residual(" * ".join(flipped), cert, orientation)
            assert (got == 0) is certificate_residual(_flip_factor(pair, index)).is_zero, (
                name, flipped[at], got)
            if got == 0:
                flips_left_zero.append((name, pieces[at]))
    assert flips_left_zero == [("thm1", "binom(beta+j,j)^-1")]


def test_mutated_pairs_fail():
    # Ten seeded mutations per pair.  Flipping a factor that moves under the
    # n/k shifts, or scaling the certificate, breaks the symbolic residual.
    # A factor free of n and k (thm1's inner-index normalizer) leaves the
    # recurrence intact, so that flip is caught by the telescoping sum
    # instead.
    rng = random.Random(43)
    for name in PAIR_NAMES:
        pair = load_pair(name)
        shifting = [i for i, (top, bottom, _) in enumerate(pair.term.factors)
                    if any(f.coeff(v) for f in (top, bottom) for v in ("n", "k"))]
        static = [i for i in range(len(pair.term.factors)) if i not in shifting]
        mutations = 0
        while mutations < 10:
            kind = rng.randrange(3)
            if kind == 0:
                scale = F(rng.randint(2, 9), rng.randint(1, 4))
                if scale == 1:
                    continue
                assert not certificate_residual(pair.scaled(scale)).is_zero
            elif kind == 1:
                flipped = _flip_factor(pair, rng.choice(shifting))
                assert not certificate_residual(flipped).is_zero
            else:
                if not static:
                    continue
                flipped = _flip_factor(pair, rng.choice(static))
                assert certificate_residual(flipped).is_zero
                results = telescoping_sum_check(
                    flipped, 4, [{"alpha": F(1, 2), "beta": F(1, 3)}])
                assert results[0].status == "fail"
            mutations += 1


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", PAIR_NAMES)
def test_verify_report_all_pass(name):
    rows = _seeded(load_pair(name), 10, 20)
    assert all(row.status == "pass" for row in rows)
    assert {row.id for row in rows} == {f"WZ-{name}"}
    checks = {row.reason.partition(":")[0] for row in rows}
    assert "symbolic residual = 0" in checks
    assert "boundary" in checks
    assert "base-edge" in checks


def _broken_thm2():
    # doubling the term breaks T(0,0) = 1; adding 1 to the certificate breaks G(n,0) = 0
    pair = load_pair("thm2")
    return replace(pair, term=replace(pair.term, constant=2 * pair.term.constant),
                   certificate=pair.certificate + 1)


def test_boundary_and_base_edge_rows_name_their_own_failure():
    rows = {row.reason.partition(":")[0]: row
            for row in _seeded(_broken_thm2(), 2, 1)}
    assert rows["boundary"].status == "fail" and rows["boundary"].reason == "boundary: G(0,0) != 0"
    assert (rows["base-edge"].status == "fail"
            and rows["base-edge"].reason == "base-edge: T(0,0) != 1")


@pytest.mark.parametrize("name", PAIR_NAMES)
def test_bound_certificate_equals_evaluate_on_the_grid(name):
    # the draw bound into numerator and denominator apart, once each, as
    # verify_wz_pair does, gives each of them on the grid up to one positive
    # scale per draw, so every value and every pole of the certificate
    pair = load_pair(name)
    cert, inner = pair.certificate, pair.extra_index
    rng = random.Random(f"bind:{name}")
    poles = 0
    for _ in range(3):
        assign = draw(rng, pair.params, 6)
        for poly in (cert.num, cert.den):
            values, scales = _int_poly(poly, assign, inner), set()
            for n in range(7):
                js = range(n + 1) if inner else (0,)
                for k in range(n + 3):
                    for j, got in zip(js, values(n, k, js)):
                        assert type(got) is int
                        want = evaluate(poly, {**assign, "n": n, "k": k, inner or "j": j})
                        if want:
                            scales.add(got / want)
                        else:
                            assert got == 0, (assign, n, j, k)
                            poles += poly is cert.den
            assert len(scales) == 1 and scales.pop() > 0, (assign, scales)
    assert poles > 0     # every certificate has poles on this grid


def _common_factor_pair():
    # (k-2) above and below the bar, built past RatFunc's canonicalising
    # constructor: binding must not cancel it, so G(0, 2) is a pole
    pair = load_pair("thm2")
    factor = MultiPoly.var("k") - 2
    cert = RatFunc.__new__(RatFunc)
    cert.num = pair.certificate.num * factor
    cert.den = pair.certificate.den * factor
    return replace(pair, certificate=cert)


def test_certificate_common_factor_still_gives_the_pole_row():
    rows = _seeded(_common_factor_pair(), 2, 1)
    assert [(row.status, row.reason) for row in rows[1:]] == [
        ("fail", "draw-0: unexpected pole: pole at assignment")]


def test_a_pair_with_no_admissible_draw_gives_fail_rows():
    from binomsums.catalog import suite
    from binomsums.params import ParamSpec, ResultRow

    pair = replace(load_pair("thm2"), params=ParamSpec(("s", "t"), lambda n_max, a: "rejected"))
    symbolic = ResultRow("WZ-thm2", {}, None, None, None, "pass", "symbolic residual = 0")
    expected = [symbolic] + [
        ResultRow("WZ-thm2", {}, None, None, None, "fail", f"draw-{i}: could not draw parameters")
        for i in range(3)]
    assert verify_wz_pair(pair, 2, [None] * 3) == _seeded(pair, 2, 3) == expected
    # the report has the same rows and no telescoping row: no draw is left to sum
    assert list(suite.wz_rows({"thm2": pair}, 2, 3, 0)) == expected


def test_verify_is_deterministic():
    a = _seeded(load_pair("thm2"), 6, 5, 7)
    b = _seeded(load_pair("thm2"), 6, 5, 7)
    assert a == b


# ---------------------------------------------------------------------------
# Telescoping sums
# ---------------------------------------------------------------------------

def test_telescoping_thm1_spot():
    pair = load_pair("thm1")
    results = telescoping_sum_check(pair, 6, [{"alpha": F(1, 2), "beta": F(1, 3)}])
    assert results[0].status == "pass"
    # the unnormalized coefficient identity at n=1, j=0: both sides -5/6
    lhs = sum((-1) ** k * binom_poly(F(1, 3) + k, k) * binom_poly(F(k), 0)
              * binom_poly(F(1, 2), 1 - k) for k in range(2))
    rhs = -binom_poly(F(1, 3), 0) * binom_poly(F(1, 3) - F(1, 2) + 1, 1)
    assert lhs == rhs == F(-5, 6)


def test_telescoping_thm2_small_n():
    pair = load_pair("thm2")
    results = telescoping_sum_check(pair, 5, [{"s": F(1, 2), "t": F(1, 3)}])
    assert results[0].status == "pass"


def test_telescoping_thm3_spot():
    pair = load_pair("thm3")
    results = telescoping_sum_check(pair, 4, [{"s": F(1, 2), "p": F(1)}])
    assert results[0].status == "pass"
    # unnormalized spot value at n=2: both sides of the un-divided identity = 3/4
    s, p = F(1, 2), 1
    lhs = sum((-1) ** k * binom_poly(F(2), k) * binom_poly(s + k, k)
              * binom_poly(F(k), p) for k in range(3))
    rhs = binom_poly(F(2), p) * binom_poly(s + p, 2)
    assert lhs == rhs == F(3, 4)


def test_telescoping_random_draws():
    for name in PAIR_NAMES:
        pair = load_pair(name)
        rng = random.Random(f"44:{name}")
        draws = []
        while len(draws) < 5:
            d = draw(rng, pair.params, 8)
            assert d is not None
            draws.append(d)
        results = telescoping_sum_check(pair, 8, draws)
        assert all(r.status == "pass" for r in results)


def test_telescoping_pole_is_skipped():
    pair = load_pair("thm2")
    results = telescoping_sum_check(pair, 4, [{"s": F(1, 2), "t": F(-2)}])
    assert results[0].status == "skipped"
    assert results[0].reason == (
        "skipped: pole (binom(-2,-2) is indeterminate (0/0 ratio of poles))")


def test_telescoping_bare_division_by_zero_fails():
    class DividesByZero:
        def grid(self, point, outer, inner, var, reads, sums=False):
            for n, js, ks in reads:
                yield [[F(1) / (n - n)]], [1], 1

    pair = replace(load_pair("thm2"), term=DividesByZero())
    results = telescoping_sum_check(pair, 2, [{"s": F(1, 2), "t": F(1, 3)}])
    assert results[0].status == "fail"
    assert "ZeroDivisionError" in results[0].reason


@pytest.mark.parametrize("perturb", ["2 * ", "binom(k-n+19,k-n+19) * "])
def test_a_perturbed_thm1_fails_where_the_per_j_rows_fail(monkeypatch, perturb):
    # the constant times 2 fails the first sum; binom(k-n+19, k-n+19) is 1 but
    # at (n, k) = (20, 0), where it is 0/0: the n up to 19 are Taylor-shifted and
    # n = 20 is read j by j.  Either way the row is the per-j path's, byte for byte
    pair, n_max = load_pair("thm1"), 20
    pair = replace(pair, term=parse_term(perturb + _fixture_term("thm1")))
    draws = [draw(random.Random(f"perturbed:{i}"), pair.params, n_max) for i in range(3)]
    shifts, real_shift = [], hyperterm.taylor_shift

    def shift(*args):
        shifts.append(args)
        return real_shift(*args)
    monkeypatch.setattr(hyperterm, "taylor_shift", shift)
    taylor = telescoping_sum_check(pair, n_max, draws)
    assert len(shifts) == 3 * (1 if perturb == "2 * " else n_max)
    real_grid = hyperterm.HyperTerm.grid
    monkeypatch.setattr(hyperterm.HyperTerm, "grid",
                        lambda self, *args, sums=False: real_grid(self, *args))
    assert taylor == telescoping_sum_check(pair, n_max, draws)
    assert {(row.status, row.reason) for row in taylor} == ({
        ("fail", "sum at n=0, j=0 is 2")} if perturb == "2 * " else {
        ("skipped", "skipped: pole (binom(-1,-1) is indeterminate (0/0 ratio of poles))")})


def _with_factor(name, factor):
    return replace(load_pair(name), term=parse_term(_fixture_term(name) + " * " + factor))


def _pole_at_n2(pair):
    """The pair with its certificate divided by n-2: a pole at every point of n = 2."""
    return replace(pair, certificate=pair.certificate / (RatFunc.var("n") - 2))


def test_a_draw_fails_at_its_first_failing_point_in_read_order():
    # binom(k-n-2-2*j, n-k) is 0/0 at the edge k = n+1 for every j, and at the
    # boundary k = n+2 for j >= 1 only: the edge point (n, j, k) = (0, 0, 1) is
    # read before the boundary point (1, 1, 3), and its failure is the row
    pair = _with_factor("thm1", "binom(k-n-2-2*j,n-k)")
    rows = _seeded(pair, 3, 1)
    assert [(row.status, row.reason) for row in rows[1:]] == [
        ("fail",
         "draw-0: unexpected pole: binom(-1,-1) is indeterminate (0/0 ratio of poles)")]
    rows = _seeded(_with_factor("thm1", "binom(k-n-2,n-k)"), 3, 1)
    assert rows[1].reason == (
        "draw-0: unexpected pole: binom(-1,-1) is indeterminate (0/0 ratio of poles)")
    # the certificate's boundary poles are read before the term: a pole at
    # n = 2 wins over the term's failures at n = 0 and 1
    rows = _seeded(_pole_at_n2(pair), 3, 1)
    assert [(row.status, row.reason) for row in rows[1:]] == [
        ("fail", "draw-0: unexpected pole: pole at assignment")]


def _per_point_rows(pair, n_max, samples, seed):
    """verify_wz_pair's rows by a plain walk over (n, j, k) with HyperTerm.evaluate
    and the certificate read point by point: a pole of the certificate at any
    k = 0 or n+2 first, else the term's first failing point in (n, j, k = 0,
    n+2, n+1) order; then the first nonzero G at k = 0 or n+2, T(0, 0) and the
    first nonzero T at k = n+1."""
    def row(params, status, reason):
        return ResultRow(f"WZ-{pair.name}", params, None, None, None, status, reason)

    zero = certificate_residual(pair).is_zero
    rows = [row({}, "pass" if zero else "fail", f"symbolic residual {'=' if zero else '!='} 0")]
    rng = random.Random(f"{seed}:wz:{pair.name}")
    for index in range(samples):
        assign = draw(rng, pair.params, n_max)
        if assign is None:
            rows.append(row({}, "fail", f"draw-{index}: could not draw parameters"))
            continue
        points = [(n, j, k) for n in range(n_max + 1)
                  for j in (range(n + 1) if pair.extra_index else (0,))
                  for k in (0, n + 2, n + 1)]

        def at(n, j, k):
            inner = {pair.extra_index: F(j)} if pair.extra_index else {}
            return {**assign, **inner, "n": F(n), "k": F(k)}
        try:
            if any(evaluate(pair.certificate.den, at(n, j, k)) == 0
                   for n, j, k in points if k != n + 1):
                raise ZeroDivisionError("pole at assignment")
            term = {point: pair.term.evaluate(at(*point)) for point in points}
        except (ZeroDivisionError, ValueError) as exc:
            cause = "pole" if isinstance(exc, ZeroDivisionError) else type(exc).__name__
            rows.append(row(assign, "fail", f"draw-{index}: unexpected {cause}: {exc}"))
            continue
        boundary = next((f"G({n},{k}) != 0" for n, j, k in points if k != n + 1 and term[n, j, k]
                         and evaluate(pair.certificate.num, at(n, j, k))), "")
        edge = next((f"T({n},{k}) != 0" for n, j, k in points if k == n + 1 and term[n, j, k]), "")
        base = "T(0,0) != 1" if term[0, 0, 0] != 1 else edge
        rows.append(row(assign, "fail" if boundary else "pass",
                        f"boundary: {boundary or 'G(n,0) = G(n,n+2) = 0'}"))
        rows.append(row(assign, "fail" if base else "pass",
                        f"base-edge: {base or 'T(0,0) = 1, T(n,n+1) = 0'}"))
    return rows


@pytest.mark.parametrize("make, n_max, seed", [
    *((partial(load_pair, name), 6, seed) for name in PAIR_NAMES for seed in (0, 1, 2)),
    (partial(_with_factor, "thm1", "binom(k-n-2-2*j,n-k)"), 3, 0),
    (partial(_with_factor, "thm1", "binom(k-n-2,n-k)"), 3, 0),
    (lambda: _pole_at_n2(_with_factor("thm1", "binom(k-n-2-2*j,n-k)")), 3, 0),
    (_common_factor_pair, 2, 0), (_broken_thm2, 4, 0)])
def test_verify_rows_equal_a_per_point_reference(make, n_max, seed):
    pair = make()
    want = _per_point_rows(pair, n_max, 20, seed)
    assert _seeded(pair, n_max, 20, seed) == want


# thm1 with C(k, j) and C(alpha, n-k) moved so that the term can be nonzero at k = n+2
# and at k = 0 for j >= 2, times C(n-k+2, n+j-3), which at k = 0 and n+2 is 0 for n <= 1
# and is nonzero at n = 2 only at (j, k) = (1, 4) and (2, 0): there G is first nonzero
_BOUNDARY_IN_BLOCK = ("sign(n+k) * binom(beta+k,k) * binom(k+2*j-2,j) * binom(alpha,n-k+2)"
                      " * binom(beta+j,j)^-1 * binom(beta-alpha+n,n-j)^-1 * binom(n-k+2,n+j-3)")


def test_a_boundary_failing_inside_a_block_names_its_first_j():
    # the block of n = 2 holds the first nonzero G; its first j is 1, where only
    # G(2,4) is nonzero, so the row is G(2,4) != 0, as in the per-point walk.  Reading
    # k = 0 for every j first, or taking the last failing j, would give G(2,0)
    pair = replace(load_pair("thm1"), term=parse_term(_BOUNDARY_IN_BLOCK))
    rows = _seeded(pair, 4, 5)
    assert rows == _per_point_rows(pair, 4, 5, 0)
    assert [row.reason for row in rows[1::2]] == ["boundary: G(2,4) != 0"] * 5


def _per_j_sums(pair, n_max, assign):
    """The telescoping row's reason by a walk over (n, j), each sum of HyperTerm.evaluate."""
    for n in range(n_max + 1):
        for j in range(n + 1):
            total = sum(pair.term.evaluate({**assign, "n": F(n), "j": F(j), "k": F(k)})
                        for k in range(n + 1))
            if total != 1:
                return f"sum at n={n}, j={j} is {total}"
    return "telescoped sum = 1"


def test_a_sum_failing_inside_a_block_names_its_first_j(monkeypatch):
    # binom(n+j-1, j) is 1 for n <= 1 and j+1 at n = 2: the block of n = 2, from one
    # Taylor shift, fails at j = 1 and 2 (sums 2 and 3) but not at j = 0, and the row
    # is the per-j walk's, with the Taylor step and without it
    pair, n_max = _with_factor("thm1", "binom(n+j-1,j)"), 6
    draws = [draw(random.Random(f"block-sum:{i}"), pair.params, n_max) for i in range(3)]
    shifts = []
    real_shift, real_grid = hyperterm.taylor_shift, hyperterm.HyperTerm.grid
    monkeypatch.setattr(hyperterm, "taylor_shift", lambda *args: shifts.append(args) or
                        real_shift(*args))
    rows = telescoping_sum_check(pair, n_max, draws)
    assert len(shifts) == 3 * 3         # n = 0, 1, 2 of each draw
    assert [row.reason for row in rows] == [_per_j_sums(pair, n_max, a) for a in draws]
    assert {row.reason for row in rows} == {"sum at n=2, j=1 is 2"}
    monkeypatch.setattr(hyperterm.HyperTerm, "grid",
                        lambda self, *args, sums=False: real_grid(self, *args))
    assert telescoping_sum_check(pair, n_max, draws) == rows


def test_each_factor_is_read_once_per_draw(monkeypatch):
    # thm1's kernel factors C(beta+k, k), C(alpha, n-k) and C(beta+j, j)^-1 do not
    # move with n, so each is read once per draw, from its own row (the reciprocal's
    # row of 1/C by products alone); C(beta-alpha+n, n-j)^-1 moves with n and its row
    # of 1/C is built at n = 0 and stepped at each later n, and C(k, j) is read by
    # math.comb: 4 kernel rows, 2 of them reciprocal, and n_max steps per check
    grids = []

    def counting(kernel):
        def wrapped(*args):
            grids[-1].append((kernel.__name__, args[0]))
            return kernel(*args)
        return wrapped

    def grid(self, *args, **kwargs):
        grids.append([])
        return real_grid(self, *args, **kwargs)

    real_grid = hyperterm.HyperTerm.grid
    monkeypatch.setattr(hyperterm.HyperTerm, "grid", grid)
    for name in ("binom_row", "rising_row", "reciprocal_row", "reciprocal_step"):
        monkeypatch.setattr(hyperterm, name, counting(getattr(hyperterm, name)))
    pair, n_max = load_pair("thm1"), 8
    assign = draw(random.Random("once:thm1"), pair.params, n_max)
    checks = (lambda: telescoping_sum_check(pair, n_max, [assign])[0].status == "pass",
              lambda: all(row.status == "pass" for row in _seeded(pair, n_max, 1)))
    for check in checks:
        grids.clear()
        assert check() is True
        calls = [name for reads in grids for name, _ in reads]
        assert len(calls) == 4 + n_max, calls
        assert calls.count("reciprocal_row") == 2 and calls.count("reciprocal_step") == n_max


def test_a_non_rational_factor_is_a_fail_row():
    # binom(s+t, t) at s = 1/2, t = 1/3 is binom(5/6, 1/3): not a rational
    # number, so both checks report the ValueError as a failed row
    pair = replace(load_pair("thm2"), term=parse_term("binom(s+t,t) * binom(n,k)"))
    results = telescoping_sum_check(pair, 3, [{"s": F(1, 2), "t": F(1, 3)}])
    assert results[0].status == "fail"
    assert results[0].reason == (
        "unexpected ValueError: binom(5/6,1/3) is not rational (neither the lower "
        "index nor the upper shift is an integer)")
    rows = _seeded(pair, 3, 3)
    assert len(rows) == 4 and all(row.status == "fail" for row in rows[1:])
    assert all(row.reason.startswith(f"draw-{i}: unexpected ValueError: binom(")
               for i, row in enumerate(rows[1:]))


# ---------------------------------------------------------------------------
# Pair-entry links
# ---------------------------------------------------------------------------

# each pair's T is the summand of the entry named here over that entry's right side
LINKED_ENTRY = {"thm1": "ID04", "thm2": "ID06", "thm3": "ID07"}
# thm3's predicate admits a positive integer p; its term's 0/0 there is at k = n+2 alone
# (the xfail above), so the sums over k <= n read no pole and the link holds
LINK_DRAWS = {"thm3": [{"s": F(1, 2), "p": F(3)}]}


# the linked entry's summand at (n, j, k), as its statement prints it
SUMMAND = {
    "thm1": lambda a, n, j, k: ((-1) ** (k + j) * binom_poly(a["beta"] + k, k)
                                * binom_poly(F(k), j) * binom_poly(a["alpha"], n - k)),
    "thm2": lambda a, n, j, k: (binom_poly(F(n), k) * binom_poly(a["s"], k)
                                / binom_poly(a["t"] + k, k)),
    "thm3": lambda a, n, j, k: ((-1) ** (n + k) * binom_poly(a["s"] + k, k)
                                * binom_poly(n - a["p"], n - k)),
}


def _link(pair, assigns, n_max=8):
    """(checked, poles, mismatches) over the assignments, T read through HyperTerm.grid
    at every n <= n_max (and j <= n for thm1) against the linked entry: sum_k T(n,k)
    times the entry's right side against its left side (a "sum" mismatch), and each
    T(n,k) times the right side against the entry's summand (a "term" mismatch).  A
    draw on which T raises a Pole is counted."""
    entry, inner, summand = REGISTRY[LINKED_ENTRY[pair.name]], pair.extra_index, SUMMAND[pair.name]
    reads = [(n, range(n + 1) if inner else (0,), range(n + 1)) for n in range(n_max + 1)]
    checked, poles, mismatches = 0, 0, []
    for assign in assigns:
        try:
            sums = list(pair.term.grid(assign, "n", inner, "k", reads, sums=True))
            terms = list(pair.term.grid(assign, "n", inner, "k", reads))
        except Pole:
            poles += 1
            continue
        checked += 1
        for (n, js, ks), (sum_rows, scales, den), (rows, row_scales, row_den) in zip(
                reads, sums, terms):
            left, right = entry.lhs(n, assign), entry.rhs(n, assign)
            if inner:           # ID04's sides are rows over j, each over one den
                (lrow, lden), (rrow, rden) = left, right
                left, right = [F(v, lden) for v in lrow], [F(v, rden) for v in rrow]
            else:
                left, right = [left], [right]
            totals = [F(scale * sum(row), den) for scale, row in zip(scales, sum_rows)]
            if [t * r for t, r in zip(totals, right)] != left:
                mismatches.append(("sum", n, assign))
            if any(F(scale * x, row_den) * r != summand(assign, n, j, k)
                   for j, scale, row, r in zip(js, row_scales, rows, right)
                   for k, x in zip(ks, row)):
                mismatches.append(("term", n, assign))
    return checked, poles, mismatches


@pytest.mark.parametrize("name", PAIR_NAMES)
def test_each_pair_sums_to_its_entrys_sides(name):
    pair, n_max = load_pair(name), 8
    assigns = [a for a in [*draws(f"link:{name}", pair.params, n_max, 3), *LINK_DRAWS.get(name, [])]
               if a is not None and pair.params.reject(n_max, a) is None]
    checked, poles, mismatches = _link(pair, assigns, n_max)
    assert not mismatches and not poles and checked == len(assigns) >= 3
    # with one factor's exponent flipped the term no longer sums to the entry's sides
    # and is no longer its summand over the right side, or has a pole on all but at most
    # one draw (thm1's binom(k,j)^-1, on every draw)
    for index in range(len(pair.term.factors)):
        checked, _, mismatches = _link(_flip_factor(pair, index), assigns, n_max)
        assert {kind for kind, *_ in mismatches} == {"sum", "term"} or checked < 2, (
            name, index)
