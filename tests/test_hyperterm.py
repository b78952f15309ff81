"""Hypergeometric terms: affine forms, evaluation, shift ratios."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from binomsums import hyperterm
from binomsums.exact import Pole, binom_row, reciprocal_row, reciprocal_step
from binomsums.expr import parse_ratfunc
from binomsums.hyperterm import (
    AffineForm,
    HyperTerm,
    _eval_binomial,
)
from binomsums.params import draw
from binomsums.poly import RatFunc
from binomsums.wz import PAIR_NAMES, load_pair

from ring_values import evaluate

F = Fraction


def affine(text: str) -> AffineForm:
    return AffineForm.from_ratfunc(parse_ratfunc(text))


def term_binom(top: str, bottom: str, exp: int = 1, sign: str = "0",
               constant=1) -> HyperTerm:
    return HyperTerm(F(constant), affine(sign), ((affine(top), affine(bottom), exp),))


# ---------------------------------------------------------------------------
# Affine forms
# ---------------------------------------------------------------------------

def test_affine_extraction():
    form = affine("beta+2*k-1")
    assert form.constant == -1
    assert form.coeff("beta") == 1
    assert form.coeff("k") == 2
    assert form.coeff("n") == 0


def test_affine_with_rational_constant():
    form = affine("2*s+1/2")
    assert form.constant == F(1, 2)
    assert form.coeff("s") == 2


def test_affine_rejects_products_and_powers():
    with pytest.raises(ValueError):
        affine("n*k")
    with pytest.raises(ValueError):
        affine("n^2+1")
    with pytest.raises(ValueError):
        affine("1/n")


def test_affine_is_judged_on_the_canonical_form():
    # affine as a function, not as written: these cancel to n and n+1
    assert affine("n*k-n*k+n") == affine("n")
    assert affine("(n^2-1)/(n-1)") == affine("n+1")


def test_affine_eval_and_render_round_trip():
    rng = random.Random(41)
    for text in ("n-k", "-n+2*k-3", "beta+j", "5", "-alpha+beta+n"):
        form = affine(text)
        again = affine(form.render())
        assert again == form
        assign = {v: F(rng.randint(-9, 9)) for v in ("n", "k", "j", "alpha", "beta")}
        value = evaluate(parse_ratfunc(text),
                         {**{v: F(0) for v in ("s", "t", "p")}, **assign})
        assert form.split(assign) == (value, ())


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_evaluate_integer_lower_index():
    t = term_binom("n", "k")
    assert t.evaluate({"n": F(5), "k": F(2)}) == 10
    assert t.evaluate({"n": F(5), "k": F(7)}) == 0
    assert t.evaluate({"n": F(5), "k": F(-1)}) == 0


def test_evaluate_sign_and_constant():
    t = term_binom("n", "k", sign="n+k", constant=F(3, 2))
    assert t.evaluate({"n": F(2), "k": F(1)}) == -F(3, 2) * 2   # (-1)^3 * 3/2 * C(2,1)
    assert t.evaluate({"n": F(2), "k": F(2)}) == F(3, 2)


def test_evaluate_upper_shift_shape():
    # binom(t+n, t) at non-integer t: equals prod_{i<=n}(t+i)/n!
    t = term_binom("t+n", "t")
    val = t.evaluate({"t": F(1, 3), "n": F(2)})
    assert val == (F(1, 3) + 1) * (F(1, 3) + 2) / 2


def test_evaluate_negative_upper_shift_is_zero():
    t = term_binom("t-1", "t")
    assert t.evaluate({"t": F(1, 3)}) == 0


def test_evaluate_denominator_pole():
    t = term_binom("n", "k", exp=-1)
    with pytest.raises(Pole):
        t.evaluate({"n": F(2), "k": F(5)})


def test_evaluate_non_rational_factor():
    t = term_binom("s+t", "t")    # neither lower index nor shift is integral
    with pytest.raises(ValueError):
        t.evaluate({"s": F(1, 2), "t": F(1, 3)})


# ---------------------------------------------------------------------------
# Bound terms
# ---------------------------------------------------------------------------

def _reference(term, assign, point):
    """The term at one point, factor by factor in factor order: the sign,
    then a product of _eval_binomial values."""
    at = {**assign, **point}
    sign = term.sign.split(at)[0]
    if sign.denominator != 1:
        raise ValueError("sign exponent is not an integer at this assignment")
    value = -term.constant if sign % 2 else term.constant
    for top, bottom, exp in term.factors:
        f = _eval_binomial(top.split(at)[0], bottom.split(at)[0])
        if exp == 1:
            value *= f
        elif f == 0:
            raise Pole(
                f"binom({top.render()},{bottom.render()}) vanished in a denominator")
        else:
            value /= f
    return value


def _outcome(call):
    try:
        return call()
    except (Pole, ValueError) as exc:
        return type(exc), str(exc)


def _flat(term, point, outer, inner, var, reads, sums=False):
    """``term.grid``'s blocks over the reads, one ([the term at each k, times den], den)
    per j in read order: a block has ints, den > 0, a row and a scale for every j and,
    unless only sums are read, a value for every k; only the block right before the
    exception that its next j raises may have fewer rows."""
    short = False
    for (rows, scales, den), (_, js, ks) in zip(term.grid(point, outer, inner, var, reads,
                                                          sums=sums), reads):
        assert not short and den > 0 and type(den) is int
        assert len(rows) == len(scales) and 0 < len(rows) <= len(js) or len(js) == 0 == len(rows)
        short = len(rows) < len(js)
        for row, scale in zip(rows, scales):
            assert (sums or len(row) == len(ks)) and all(type(v) is int for v in (scale, *row))
            yield [scale * x for x in row], den
    assert not short, "a shorter block must be followed by an exception"


def _rows(term, point, inner, js, var, ks):
    """One m of ``term.grid``: for each j in js, ([the term at {**point, inner: j},
    var = k for k in ks] as ints, int den > 0)."""
    return _flat(term, point, None, inner, var, ((0, js, ks),))


def _assert_row_matches(term, assign, point, ks):
    """_rows(term, {**assign, **point}, None, (0,), "k", ks) equals the reference at
    every k, or raises what the reference raises at the first failing k."""
    def by_points():
        return [_reference(term, assign, {**point, "k": k}) for k in ks]

    def by_row():
        row, den = next(_rows(term, {**assign, **point}, None, (0,), "k", ks))
        return [F(v, den) for v in row]

    assert _outcome(by_row) == _outcome(by_points), (assign, point, ks)


@pytest.mark.parametrize("name", ["thm1", "thm2", "thm3"])
def test_bound_row_agrees_with_a_per_point_reference(name):
    pair = load_pair(name)
    rng = random.Random(f"memo:{name}")
    draws = [draw(rng, pair.params, 6) for _ in range(3)]
    if name == "thm3":
        draws.append({"s": F(1, 2), "p": F(3)})     # lands on 0/0 poles
    for assign in draws:
        for n in range(7):
            for j in range(n + 1) if pair.extra_index else (None,):
                point = {"n": n} if j is None else {"n": n, pair.extra_index: j}
                for ks in (range(n + 3), (0, n + 2, n + 1), (n + 2, 0), (n + 1,)):
                    _assert_row_matches(pair.term, assign, point, ks)


def test_bound_row_raises_the_first_failing_point():
    terms = [
        # a later factor fails at an earlier k: C(k,1) vanishes below at
        # k = 0, C(2-k,-1) is 0/0 from k = 3 on
        HyperTerm(F(1), affine("0"), ((affine("2-k"), affine("-1"), 1),
                                      (affine("k"), affine("1"), -1))),
        # both fail at k = 3; the first factor's exception wins
        HyperTerm(F(1), affine("0"), ((affine("2-k"), affine("-1"), 1),
                                      (affine("k-3"), affine("1"), -1))),
        # below the bar: 0 (a pole) at k = 0 and 1, then 0/0 from k = 2 on
        HyperTerm(F(1), affine("0"), ((affine("1-k"), affine("-1"), -1),)),
        # a non-integer lower index: not rational at odd k
        HyperTerm(F(2), affine("0"), ((affine("n+k"), affine("k"), 1),
                                      (affine("1/3"), affine("k/2"), 1))),
        # a non-integer sign exponent at odd k, before any factor fails
        HyperTerm(F(1), affine("k/2"), ((affine("n"), affine("k"), -1),)),
        # upper shifts and an int top, with a pole below at k > n
        HyperTerm(F(3, 2), affine("n+k"), ((affine("t+n"), affine("t"), 1),
                                           (affine("k"), affine("2"), 1),
                                           (affine("n"), affine("k"), -1),
                                           (affine("t+k"), affine("k"), -1))),
    ]
    for term in terms:
        for n in range(5):
            for ks in (range(6), (3, 0), (5, 4, 1), (2,), (4, 1, 3)):
                _assert_row_matches(term, {"t": F(1, 3)}, {"n": n}, ks)
    with pytest.raises(Pole) as info:
        next(_rows(terms[0], {}, None, (0,), "k", range(5)))
    assert str(info.value) == "binom(k,1) vanished in a denominator"


def _read(rows):
    """Every row up to the first exception, then that exception's type and message."""
    got = []
    try:
        for row in rows:
            got.append(row)
    except (Pole, ValueError) as exc:
        got.append((type(exc), str(exc)))
    return got


def _assert_rows_match(term, assign, n, js, ks):
    """_rows(term, {**assign, "n": n}, "j", js, "k", ks) gives the reference at every (j, k),
    j by j, and raises what the reference raises at the first failing j (at
    that j's first failing k)."""
    def by_points():
        for j in js:
            yield [_reference(term, assign, {"n": n, "j": j, "k": k}) for k in ks]

    def by_rows():
        for row, den in _rows(term, {**assign, "n": n}, "j", js, "k", ks):
            yield [F(v, den) for v in row]

    assert _read(by_rows()) == _read(by_points()), (term.render(), assign, n, js, ks)


def _grid_orders(n):
    """Orders of j and of k to read at n: in order, out of order, past n."""
    return [(range(n + 1), range(n + 1)), (range(n + 1), (0, n + 2, n + 1)),
            ((n, 0), (n + 2, 0)), ((2, n + 1, 1), (3, 0, 1))]


@pytest.mark.parametrize("name", ["thm1", "thm2", "thm3"])
def test_rows_along_j_agree_with_a_per_point_reference(name):
    pair = load_pair(name)
    rng = random.Random(f"rows:{name}")
    draws = [draw(rng, pair.params, 6) for _ in range(3)]
    if name == "thm3":
        draws.append({"s": F(1, 2), "p": F(3)})     # lands on 0/0 poles
    for assign in draws:
        for n in range(7):
            for js, ks in _grid_orders(n):
                _assert_rows_match(pair.term, assign, n, js, ks)


# factors that fail along k alone, along j alone, or along both, with the
# first (j, k) each fails at for j, k >= 0
FAILING_FACTORS = {
    "k 0/0": (affine("2-k"), affine("-1"), 1),          # k >= 3
    "k pole": (affine("k"), affine("1"), -1),           # k = 0
    "j pole": (affine("j-1"), affine("1"), -1),         # j = 1 only
    "j 0/0": (affine("j-2"), affine("j-3"), 1),         # j = 0, 1 only
    "j 0/0 on": (affine("1-j"), affine("-1"), 1),       # j >= 2
    "j not rational": (affine("1/3"), affine("j/2"), 1),   # odd j
    "jk 0/0": (affine("j-k"), affine("-1"), 1),         # k > j
    "jk pole": (affine("k-j"), affine("1"), -1),        # k = j
}
# C(t, 4-k) is free of n and its index falls along k: the fused weight row reads
# it backwards, and past k = 4 below the bar
HEALTHY_FACTORS = [(affine("t+k"), affine("k"), 1), (affine("t+n"), affine("n-j"), -1),
                   (affine("k"), affine("j"), 1), (affine("t"), affine("4-k"), 1)]


def test_rows_along_j_raise_the_first_failing_point():
    # each kind of failure alone and in pairs and triples, in both factor
    # orders and among factors that never fail: the first failing j, and at
    # it the first failing (k, factor), wins whichever kinds meet there
    names = sorted(FAILING_FACTORS)
    for size in (1, 2, 3):
        for chosen in itertools.combinations(names, size):
            failing = [FAILING_FACTORS[c] for c in chosen]
            for factors in (HEALTHY_FACTORS[:1] + failing + HEALTHY_FACTORS[1:],
                            failing[::-1] + HEALTHY_FACTORS):
                for sign in ("n+k", "j/2"):
                    term = HyperTerm(F(3, 2), affine(sign), tuple(factors))
                    for n in range(4):
                        for js, ks in _grid_orders(n):
                            _assert_rows_match(term, {"t": F(1, 3)}, n, js, ks)
    # a k-only pole at k = 0 and a j-only pole at j = 1 meet at (1, 0): the
    # first factor's wins; at j = 0 only the k-only pole is there
    term = HyperTerm(F(1), affine("0"), (FAILING_FACTORS["j pole"],
                                         FAILING_FACTORS["k pole"]))
    for js, message in (((1, 0), "binom(j-1,1)"), ((0, 1), "binom(k,1)")):
        with pytest.raises(Pole) as info:
            next(_rows(term, {"n": 2}, "j", js, "k", range(3)))
        assert str(info.value) == f"{message} vanished in a denominator"


def _assert_grid_matches(term, assign, reads):
    """One grid call over the (n, js, ks) reads gives the reference at every
    (n, j, k), and raises what the reference raises at its first failing point,
    after the same rows."""
    def by_points():
        for n, js, ks in reads:
            for j in js:
                yield [_reference(term, assign, {"n": n, "j": j, "k": k}) for k in ks]

    def by_grid():
        for row, den in _flat(term, assign, "n", "j", "k", reads):
            yield [F(v, den) for v in row]

    assert _read(by_grid()) == _read(by_points()), (term.render(), assign, reads)


def _whole_draw_reads(n_max):
    """Reads of n = 0..n_max in one call each: every order of j and k of
    _grid_orders at every n, out of order and past n, and once with n
    backwards between reads of no j and of no k."""
    reads = [[(n, *_grid_orders(n)[(n + shift) % 4]) for n in range(n_max + 1)]
             for shift in range(4)]
    return reads + [[(2, (), (0, 1))] + reads[0][::-1] + [(1, (1, 0), ())]]


def _reference_sums(term, assign, reads):
    """Each (n, j)'s sum over its ks through the per-point reference, in read order."""
    for n, js, ks in reads:
        for j in js:
            yield sum(_reference(term, assign, {"n": n, "j": j, "k": k}) for k in ks)


def test_one_grid_call_per_draw_agrees_with_a_per_point_reference():
    for name in ("thm1", "thm2", "thm3"):
        pair = load_pair(name)
        rng = random.Random(f"grid:{name}")
        draws = [draw(rng, pair.params, 8) for _ in range(3)]
        if name == "thm3":
            draws.append({"s": F(1, 2), "p": F(3)})     # lands on 0/0 poles
        for assign in draws:
            for reads in _whole_draw_reads(8):
                _assert_grid_matches(pair.term, assign, reads)
            # the reads the two checks make at n <= 8: k = 0, n+2, n+1 for the boundary
            # and edge, and every sum over k = 0..n (thm1's by the Taylor step)
            js = [range(n + 1) if pair.extra_index else (0,) for n in range(9)]
            _assert_grid_matches(pair.term, assign, [(n, js[n], (0, n + 2, n + 1))
                                                     for n in range(9)])
            reads = [(n, js[n], range(n + 1)) for n in range(9)]
            assert _sums(pair.term, assign, reads) == _read(
                _reference_sums(pair.term, assign, reads)), (name, assign)
    # every term of test_rows_along_j_raise_the_first_failing_point, and the
    # healthy factors alone: C(t+n, n-j) reads a row per n, C(t+k, k) and
    # C(t, 4-k) one row each, fused into one weight row along k
    names = sorted(FAILING_FACTORS)
    for size in (0, 1, 2, 3):
        for chosen in itertools.combinations(names, size):
            failing = [FAILING_FACTORS[c] for c in chosen]
            for factors in (HEALTHY_FACTORS[:1] + failing + HEALTHY_FACTORS[1:],
                            failing[::-1] + HEALTHY_FACTORS):
                for sign in ("n+j+k", "j/2"):
                    term = HyperTerm(F(3, 2), affine(sign), tuple(factors))
                    for reads in _whole_draw_reads(8):
                        _assert_grid_matches(term, {"t": F(1, 3)}, reads)


def test_bound_term_keeps_the_pole_message():
    term = load_pair("thm3").term
    with pytest.raises(Pole) as info:
        term.evaluate({"s": F(1, 2), "p": F(3), "n": 0, "k": 2})
    assert str(info.value) == "binom(-3,-2) is indeterminate (0/0 ratio of poles)"


def _sums(term, assign, reads, sums=True):
    """The sum of each row grid reads, as a Fraction, up to the first exception."""
    return _read(F(sum(row), den) for row, den in _flat(term, assign, "n", "j", "k", reads, sums))


def _counting(monkeypatch, name):
    """Patch hyperterm's function of that name to record its calls' (args, result)."""
    calls, real = [], getattr(hyperterm, name)

    def counted(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]
    monkeypatch.setattr(hyperterm, name, counted)
    return calls


def test_taylor_sums_equal_the_per_j_row_sums(monkeypatch):
    # thm1's one factor of j and k is C(k, j) and k runs over 0..n: every n's
    # sums come from one Taylor shift of its k-row, and equal the sums of the
    # rows read j by j at every (n, j)
    pair, n_max = load_pair("thm1"), 20
    rng = random.Random("taylor:thm1")
    reads = [(n, range(n + 1), range(n + 1)) for n in range(n_max + 1)]
    shifts = _counting(monkeypatch, "taylor_shift")
    for _ in range(6):
        assign = draw(rng, pair.params, n_max)
        shifts.clear()
        by_rows = _sums(pair.term, assign, reads, sums=False)
        assert not shifts
        assert _sums(pair.term, assign, reads) == by_rows
        assert len(by_rows) == (n_max + 1) * (n_max + 2) // 2 and len(shifts) == n_max + 1


def test_sums_fall_back_to_the_rows_at_a_failing_point(monkeypatch):
    # with C(k, j) among the factors, an n whose k-row or j-scales hold a failing
    # point is read j by j: the sums equal the reference's up to its first
    # failing (n, j, k, factor), which raises the same exception
    def reference(term, reads):
        for n, js, ks in reads:
            for j in js:
                yield sum(_reference(term, {"t": F(1, 3)}, {"n": n, "j": j, "k": k})
                          for k in ks)

    reads = [[(n, range(n + 1), range(n + 1)) for n in range(6)],
             [(n, (n + 2, -1, 0, n), range(n + 1)) for n in range(5, -1, -1)]]
    shifts, names, read = _counting(monkeypatch, "taylor_shift"), sorted(FAILING_FACTORS), 0
    for size in (0, 1, 2):
        for chosen in itertools.combinations(names, size):
            failing = [FAILING_FACTORS[c] for c in chosen]
            for factors in (HEALTHY_FACTORS[:1] + failing + HEALTHY_FACTORS[1:],
                            failing[::-1] + HEALTHY_FACTORS):
                for sign in ("n+j+k", "j/2"):
                    term = HyperTerm(F(3, 2), affine(sign), tuple(factors))
                    for each in reads:
                        assert _sums(term, {"t": F(1, 3)}, each) == _read(
                            reference(term, each)), (term.render(), each)
                        read += len(each)
    assert 0 < len(shifts) < read       # some n shifted, some read by the rows


@pytest.mark.parametrize("top", ["t+n", "n"])
def test_stepped_kernel_rows_equal_fresh_rows(monkeypatch, top):
    # C(top, k) moves with n by one: built once per grid call, then stepped by
    # Pascal's rule to the ints of a fresh binom_row at each n, as deep as the
    # reads at that n (reach n, or n + 2 past the edge)
    steps = _counting(monkeypatch, "pascal_step")
    term = HyperTerm(F(1), affine("k"), ((affine(top), affine("k"), 1),
                                         (affine("t+k"), affine("k"), -1)))
    for past in (0, 2):
        steps.clear()
        reads = [(n, (0,), range(n + 1 + past)) for n in range(9)]
        _assert_grid_matches(term, {"t": F(-7, 3)}, reads)
        assert len(steps) == 8
        for n, ((_, _, p, q), (row, den)) in enumerate(steps, start=1):
            x = F(p, q)
            assert x == (n - F(7, 3) if top == "t+n" else n)
            assert len(row) == n + 1 + past and (row, den) == binom_row(x, n + past)


@pytest.mark.parametrize("t", [F(7, 3), F(-3)], ids=["negative-p", "pole"])
def test_stepped_reciprocal_rows_equal_fresh_rows(monkeypatch, t):
    # 1/C(t+n, n-j) = (-1)^(n-j) / C(b+n-j, n-j), b = -1-t-n, moves with n: its row is
    # built at n = 0, then stepped from b to b - 1, one deeper, to the ints of a fresh
    # reciprocal_row at each n.  At t = 7/3 every step's p is negative, so each step
    # turns its row; at t = -3 the step to n = 3 lands on the pole of C(0, 3-j), den 0
    steps = _counting(monkeypatch, "reciprocal_step")
    term = HyperTerm(F(1), affine("n+k"), ((affine("t+n"), affine("n-j"), -1),
                                           (affine("k"), affine("j"), 1)))
    _assert_grid_matches(term, {"t": t}, [(n, range(n + 1), range(n + 2)) for n in range(9)])
    assert len(steps) == (8 if t > 0 else 3)
    for n, ((_, _, p, q), (row, den)) in enumerate(steps, start=1):
        assert F(p, q) == -t - n and (row, den) == reciprocal_row(F(p, q) - 1, n)
        assert p < 0 if t > 0 else (den == 0) == (n == 3)
    # and called alone from b = -1 - t at n = 0, where a grid stops at t = -3, past the pole
    b, (row, den) = -1 - t, reciprocal_row(-1 - t, 0)
    for r in range(1, 11):
        row, den = reciprocal_step(row, den, b.numerator, b.denominator)
        b -= 1
        assert (row, den) == reciprocal_row(b, r) and (den == 0) == (t < 0 and r >= 3)


def test_reciprocal_kernels_are_inverted_once_per_grid_call(monkeypatch):
    # a reciprocal factor's kernel is its row of 1/C, built by products alone with
    # nothing divided: thm2's C(t+k, k)^-1 and C(s+t+n, s+t)^-1 read n-free kernels,
    # one row each per grid call, not one per n; thm1's C(beta+j, j)^-1 reads one row
    # per call, and its C(beta-alpha+n, n-j)^-1 moves with n: built at n = 0, then
    # stepped one deeper at each n
    inversions, divisions = _counting(monkeypatch, "reciprocal_row"), _counting(monkeypatch, "lcm")
    steps = _counting(monkeypatch, "reciprocal_step")
    for name, per_call, per_n in (("thm2", 2, 0), ("thm1", 2, 8)):
        pair = load_pair(name)
        assign = draw(random.Random(f"inverse:{name}"), pair.params, 8)
        reads = [(n, range(n + 1), range(n + 3)) for n in range(9)]
        inversions.clear()
        steps.clear()
        _assert_grid_matches(pair.term, assign, reads)
        assert len(inversions) == per_call and len(steps) == per_n and not divisions


@pytest.mark.parametrize("name, per_call, per_n", [("thm2", 4, 1), ("thm3", 2, 1)])
def test_the_plan_reads_each_factor_once_per_call_or_once_per_n(monkeypatch, name, per_call,
                                                                 per_n):
    # each factor's role is fixed once per grid call: a factor of k alone whose kernel
    # and index are free of n (thm2's C(s, k) and C(t+k, k)^-1, thm3's C(s+k, k)) is
    # read from its kernel once, into the fused weight row along k; a factor of n alone
    # whose kernel is free of n (thm2's C(t+n, t) and C(s+t+n, s+t)^-1, thm3's
    # C(s+p, n)^-1) once, into the weight row along n; a factor of k that moves with n
    # (thm2's C(n, k), thm3's C(n-p, n-k)) is read once per n
    reads_of = _counting(monkeypatch, "_values")
    pair = load_pair(name)
    assign = draw(random.Random(f"plan:{name}"), pair.params, 8)
    _assert_grid_matches(pair.term, assign, [(n, (0,), range(n + 3)) for n in range(9)])
    counts = Counter(args[0] for args, _ in reads_of)        # by the factor's bound plan
    assert len(counts) == len(pair.term.factors) == per_call + per_n
    for (_, index, argument, _), reads in counts.items():
        assert reads == (9 if argument[1] or index[1] and (index[2] or index[3]) else 1)
    assert sorted(counts.values()) == [1] * per_call + [9] * per_n


def test_inverted_kernels_keep_their_poles():
    # a 0 in an inverted kernel, 1/C(t+k, k) at t = -3 and k >= 3 or 1/C(2, n-k)
    # at n - k > 2, and a read below the bar, 1/C(2, n-k) at k > n, are still
    # failing points, raised where the reference raises
    for factor in ((affine("t+k"), affine("k"), -1), (affine("2"), affine("n-k"), -1)):
        term = HyperTerm(F(1), affine("n+k"), (factor, (affine("k"), affine("j"), 1)))
        for past in (0, 2):
            for n_last in range(6):
                reads = [(n, range(n + 1), range(n + 1 + past)) for n in range(n_last + 1)]
                _assert_grid_matches(term, {"t": F(-3)}, reads)
                assert _sums(term, {"t": F(-3)}, reads) == _sums(term, {"t": F(-3)}, reads, False)


# ---------------------------------------------------------------------------
# Shift ratios
# ---------------------------------------------------------------------------

def test_shift_ratio_examples():
    t = term_binom("n", "k")
    assert t.shift_ratio("n") == parse_ratfunc("(n+1)/(n+1-k)")
    assert t.shift_ratio("k") == parse_ratfunc("(n-k)/(k+1)")
    alt = HyperTerm(F(1), affine("n+k"),
                    ((affine("beta+k"), affine("k"), 1),))
    assert alt.shift_ratio("k") == parse_ratfunc("-(beta+k+1)/(k+1)")


def _reference_shift_ratio(term, name):
    """T(name+1)/T(name) built factor by factor, a canonical RatFunc at each step."""
    def gamma_ratio(x, m):      # Gamma(x+m)/Gamma(x)
        out = RatFunc.const(1)
        for i in range(m) if m >= 0 else range(1, -m + 1):
            out = out * RatFunc.from_poly(x + i) if m >= 0 else out / RatFunc.from_poly(x - i)
        return out

    ratio = RatFunc.const(-1 if int(term.sign.coeff(name)) % 2 else 1)
    for top, bottom, exp in term.factors:
        a, b = int(top.coeff(name)), int(bottom.coeff(name))
        top_poly, bottom_poly = top.to_poly(), bottom.to_poly()
        contrib = gamma_ratio(top_poly + 1, a) / gamma_ratio(bottom_poly + 1, b)
        contrib = contrib / gamma_ratio(top_poly - bottom_poly + 1, a - b)
        ratio = ratio * contrib if exp == 1 else ratio / contrib
    return ratio


def test_shift_ratio_equals_the_factor_by_factor_reference():
    # one numerator and one denominator, canonicalised once, give the ratio built
    # factor by factor byte for byte: on the three pairs, every one-factor flip of
    # them (the terms test_mutated_pairs_fail draws from) and the example terms
    terms = [term_binom("n", "k"), term_binom("beta+k", "k", sign="n+k"), term_binom("t+n", "t")]
    for name in PAIR_NAMES:
        term = load_pair(name).term
        terms.append(term)
        for i, (top, bottom, exp) in enumerate(term.factors):
            flipped = term.factors[:i] + ((top, bottom, -exp),) + term.factors[i + 1:]
            terms.append(HyperTerm(term.constant, term.sign, flipped))
    for term in terms:
        for var in ("n", "k", "j"):
            got, want = term.shift_ratio(var), _reference_shift_ratio(term, var)
            assert got == want and got.render() == want.render(), (term.render(), var)


def test_shift_ratio_upper_shift_factor():
    t = term_binom("t+n", "t")
    assert t.shift_ratio("n") == parse_ratfunc("(t+n+1)/(n+1)")


def test_shift_ratio_matches_direct_evaluation():
    rng = random.Random(42)
    terms = [
        term_binom("n", "k"),
        term_binom("beta+k", "k", sign="n+k"),
        term_binom("alpha", "n-k"),
        term_binom("t+n", "t"),
        HyperTerm(F(1), affine("0"), (
            (affine("n"), affine("k"), 1),
            (affine("t+k"), affine("k"), -1),
        )),
    ]
    for term in terms:
        for var in ("n", "k"):
            ratio = term.shift_ratio(var)
            hits = 0
            for _ in range(50):
                assign = {
                    "n": F(rng.randint(0, 12)),
                    "k": F(rng.randint(0, 12)),
                    "alpha": F(rng.randint(-60, 60), rng.randint(2, 13)),
                    "beta": F(rng.randint(-60, 60), rng.randint(2, 13)),
                    "t": F(rng.randint(-60, 60), rng.randint(2, 13)),
                }
                shifted = dict(assign)
                shifted[var] = assign[var] + 1
                try:
                    base_val = term.evaluate(assign)
                    shift_val = term.evaluate(shifted)
                    ratio_val = evaluate(ratio, assign)
                except ZeroDivisionError:
                    continue
                if base_val == 0:
                    continue
                assert shift_val == ratio_val * base_val
                hits += 1
            assert hits >= 10


def test_shift_ratio_non_integer_coefficient():
    t = HyperTerm(F(1), affine("0"), ((affine("n/2"), affine("k"), 1),))
    with pytest.raises(ValueError, match="shifts by a non-integer in n"):
        t.shift_ratio("n")
    assert t.shift_ratio("j") == parse_ratfunc("1")   # unused variable shifts trivially


def test_exponent_validation():
    with pytest.raises(ValueError):
        HyperTerm(F(1), affine("0"), ((affine("n"), affine("k"), 2),))
