"""Catalog rows that divide once, and sides against the code they replaced.

A side hands back each n's (num, den) undivided, and the check divides a
catalog row once: it compares two int pairs by cross-multiplying, which
must give the verdict of comparing the two Fractions (negative dens, zero
numerators, pairs that differ by a common factor), and a zero den fails the
row naming the first side's division, as a side that divided itself did.  A
default sweep of ID01 and of ID24 divides once per pass row, where sides
that divided themselves made two divisions per row.

Each closed-form right side (and the left side of ID05) was a chain of ring
divisions, and each side that multiplies two of a draw's rows along one k
read the two rows apart.  Both are kept here, as they were, as independent
references: every reference runs on plain copies of a draw's values, so it
builds its own rows and shares no kept state with the side it checks.  The
sides, a single n divided (``exact.block``), must give the same values over
``Fraction`` (draws of seeds 0-2 at every n up to the entry's depth), over
``RatFunc`` (n <= 8) and over ``Jet2`` at the points the jet oracle lifts,
and keep the status and reason of their poles.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from importlib import import_module
from math import comb
from operator import mul

import pytest

from binomsums.catalog.entries import (MUTATIONS, REGISTRY, apply_mutations, check_identity,
                                       draw_for_entry)
from binomsums.catalog.suite import SuiteConfig, catalog_rows
from binomsums.exact import (binom_poly, binom_row, binom_upper_shift, block, central_binomial,
                             digamma_diff, harmonic, n_row, over, power_row, reciprocal_row,
                             rising_row)
from binomsums.jets import Jet2
from binomsums.params import ParamSpec
from binomsums.poly import VARS, RatFunc

try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:          # optional test dependency: the property tests skip
    st = None

needs_hypothesis = pytest.mark.skipif(st is None, reason="hypothesis is not installed")

F = Fraction


# -- one division per row ----------------------------------------------------

def given_pairs(left, right):
    """ID23, parameter-free, with sides that give these (num, den) pairs at every n."""
    def side(pair):
        return block(lambda ns, a: [pair] * len(ns))
    return {"ID23": replace(REGISTRY["ID23"], lhs=side(left), rhs=side(right))}


def checked(left, right):
    """The rows of a block over n = 0..2 and of each n alone, which must agree."""
    entries = given_pairs(left, right)
    rows = check_identity("ID23", range(3), {}, entries)
    assert rows == [check_identity("ID23", n, {}, entries) for n in range(3)]
    return rows


@needs_hypothesis
def test_a_pair_verdict_is_the_verdict_of_its_fractions():
    ints = st.integers(-10**12, 10**12)
    nonzero = ints.filter(bool)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.tuples(ints, nonzero), st.tuples(ints, nonzero), nonzero, st.booleans())
    @example((0, 3), (0, -7), 1, False)         # zero numerators, a negative den
    @example((6, -4), (-3, 2), 1, False)        # equal, the dens of opposite signs
    @example((5, 3), (5, 3), 1, False)          # equal pairs, the same value twice
    @example((5, 3), (6, 3), 1, False)
    @example((-2, 7), None, -12, True)          # a common factor of the pair
    def check(left, right, factor, scaled):
        if scaled:
            right = left[0] * factor, left[1] * factor
        same = F(*left) == F(*right)
        for r in checked(left, right):
            assert (r.status, r.reason) == (("pass", "") if same else ("fail", "sides differ"))
            assert (r.lhs, r.rhs) == (F(*left), F(*right))
            assert type(r.lhs) is type(r.rhs) is Fraction

    check()


@needs_hypothesis
def test_a_zero_den_fails_the_row_naming_the_first_side_to_divide():
    ints = st.integers(-10**12, 10**12)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.tuples(ints, ints), st.tuples(ints, ints), st.sampled_from(["lhs", "rhs", "both"]))
    @example((3, 5), (7, 5), "rhs")
    @example((-18, 6), (0, 1), "lhs")
    def check(left, right, zero):
        left = (left[0], 0) if zero != "rhs" else left
        right = (right[0], 0) if zero != "lhs" else right
        first = left if left[1] == 0 else right
        reason = f"unexpected ZeroDivisionError: Fraction({first[0]}, 0)"
        for r in checked(left, right):
            assert (r.status, r.reason, r.lhs, r.rhs) == ("fail", reason, None, None)

    check()


DIVIDING = [import_module(f"binomsums.{name}")
            for name in ("exact", "legendre", "catalog.lhs", "catalog.rhs", "catalog.entries")]


@pytest.mark.parametrize("entry_id", ["ID01", "ID13", "ID15", "ID19", "ID24"])
def test_a_sweep_divides_once_per_pass_row(entry_id, monkeypatch):
    # every over of the catalog's modules, and a side module's Fraction, counted:
    # one division per pass row, its one value printed as both sides, and none
    # while a side runs (ID13's sides and the right sides of ID15 and ID19
    # once divided in legendre.py and exact.py)
    divisions, in_sides = [], []

    def counted(divide):
        def wrapped(*args):
            divisions.append(args)
            return divide(*args)
        return wrapped

    def watched(side):
        def wrapped(*args):
            before = len(divisions)
            value = side(*args)
            in_sides.append(len(divisions) - before)
            return value
        return wrapped

    for module in DIVIDING:
        names = ("over", "Fraction") if module.__name__.endswith(("lhs", "rhs")) else ("over",)
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    entry = REGISTRY[entry_id]
    monkeypatch.setitem(REGISTRY, entry_id,
                        replace(entry, lhs=watched(entry.lhs), rhs=watched(entry.rhs)))
    rows = list(catalog_rows(SuiteConfig(only=(entry_id,))))
    assert rows and all(r.status == "pass" for r in rows)
    assert in_sides and not any(in_sides)
    assert len(divisions) == len(rows)
    assert all(r.lhs is r.rhs for r in rows)


def test_every_side_hands_back_pairs_over_a_drawn_block():
    # over a draw's block of n, every registry side, and every side a mutation
    # puts in, gives one (num, den) tuple per n, never a divided value (ID04: its
    # j-row and den)
    mutated = [e for name in MUTATIONS for eid, e in apply_mutations((name,)).items()
               if e is not REGISTRY[eid]]
    assert [e.id for e in mutated] == ["ID24"]      # id24-flip-h2n's right side
    for entry in [*REGISTRY.values(), *mutated]:
        for a in draw_for_entry(entry, 0, 3, entry.n_max):
            ns = range(entry.n_max + 1)
            for which in ("lhs", "rhs"):
                pairs = getattr(entry, which)(ns, a)
                assert len(pairs) == len(ns), (entry.id, which)
                assert all(type(pair) is tuple and len(pair) == 2 for pair in pairs), (
                    entry.id, which)
                assert not any(isinstance(v, Fraction) for pair in pairs for v in pair), (
                    entry.id, which)


# -- the replaced sides, as they were -----------------------------------------

def rhs_id02(n, a):
    alpha, beta, x, y = a["alpha"], a["beta"], a["x"], a["y"]
    bg, dg = binom_row(beta - alpha + n, n)               # C(beta-alpha+n, m)
    bb, db = rising_row(beta, n)                          # C(beta+k, k)
    pxy, dxy = power_row(x + y, n)
    py, dy = power_row(y, n)
    terms = (bg[n - k] * bb[k] * pxy[k] * py[n - k] for k in range(n + 1))
    return over(sum(-v if (n + k) % 2 else v for k, v in enumerate(terms)), dg * db * dxy * dy)


def rhs_id03(n, a):
    alpha, beta = a["alpha"], a["beta"]
    bg, dg = binom_row(beta - alpha + n, n)
    bb, db = rising_row(beta, n)
    px, dx = power_row(a["x"] + 1, n)
    terms = (bg[n - j] * bb[j] * px[j] for j in range(n + 1))
    return over(sum(-v if (n + j) % 2 else v for j, v in enumerate(terms)), dg * db * dx)


def rhs_id05(n, a):
    lam = a["lam"]
    g = -lam - F(1, 2)
    top, dt = binom_row(g + n, n)        # C(n - lam - 1/2, k)
    low, dl = reciprocal_row(g, n)       # 1/C(k - lam - 1/2, k)
    total = over(sum(map(mul, n_row("C(n,k)", n), map(mul, top, low))), dt * dl)
    return binom_poly(2 * lam, n) * total


def rhs_id06(n, a):
    return binom_upper_shift(a["s"] + a["t"], n) / binom_upper_shift(a["t"], n)


def rhs_id08(n, a):
    (ba, da), (bb, db) = binom_row(a["beta"], n), rising_row(a["beta"], n)
    px, dx = power_row(a["x"] + 1, n)
    terms = map(mul, map(mul, reversed(ba), bb), px)  # C(beta,n-k) C(beta+k,k): lhs.id09
    return over(sum(-v if (n + k) % 2 else v for k, v in enumerate(terms)), da * db * dx)


def rhs_id14(n, a):
    return central_binomial(n) * ((1 - a["t"] * a["t"]) / 4) ** n


def rhs_id15(n, a):
    s = a["s"]
    return binom_poly(s, n) * (harmonic(n) + digamma_diff(s, n))


def rhs_id17(n, a):
    return central_binomial(n) * (harmonic(n) - harmonic(2 * n)) / F(2 ** (2 * n - 1))


def rhs_id20(n, a):
    return F(comb(4 * n, 2 * n)) / central_binomial(n)


def rhs_id21(n, a):
    s = a["s"]
    return (central_binomial(n) * binom_upper_shift(2 * s + 1, 2 * n)
            / binom_upper_shift(s, n))


def rhs_id22(n, a):
    return ((2 * n + 1) * central_binomial(n)
            * (2 * harmonic(2 * n + 1) - harmonic(n) - 2) / F(4**n))


def rhs_id23(n, a):
    return F(n) * central_binomial(n) / 2


def rhs_id24(n, a):
    return central_binomial(n) * (2 * harmonic(n) - harmonic(2 * n))


def rhs_id25(n, a):
    d = harmonic(2 * n) - 2 * harmonic(n)
    return central_binomial(n) * (d * d + harmonic(n, 2) - harmonic(2 * n, 2))


def rhs_id26(n, a):
    d = harmonic(2 * n) - 2 * harmonic(n)
    return central_binomial(n) * (d * d + 2 * harmonic(n, 2) - harmonic(2 * n, 2))


def lhs_id02(n, a):
    ba, da = binom_row(a["alpha"], n)      # C(alpha, m)
    bb, db = rising_row(a["beta"], n)      # C(beta+k, k)
    px, dx = power_row(a["x"], n)
    py, dy = power_row(a["y"], n)
    total = sum(ba[n - k] * bb[k] * px[k] * py[n - k] for k in range(n + 1))
    return over(total, da * db * dx * dy)


def lhs_id03(n, a):
    ba, da = binom_row(a["alpha"], n)
    bb, db = rising_row(a["beta"], n)
    px, dx = power_row(a["x"], n)
    return over(sum(ba[n - k] * bb[k] * px[k] for k in range(n + 1)), da * db * dx)


def lhs_id05(n, a):
    return 4**n * binom_poly(a["lam"], n)


def lhs_id06(n, a):
    bs, ds = binom_row(a["s"], n)          # C(s, k)
    rt, dt = reciprocal_row(a["t"], n)     # 1/C(t+k, k)
    return over(sum(map(mul, n_row("C(n,k)", n), map(mul, bs, rt))), ds * dt)


def lhs_id08(n, a):
    bb, db = rising_row(a["beta"], n)      # C(beta+k, k)
    px, dx = power_row(a["x"], n)
    return over(sum(map(mul, n_row("C(n,k)", n), map(mul, bb, px))), db * dx)


# (entry, side) -> the replaced code of that side
REFERENCES = {(name[4:].upper(), name[:3]): value for name, value in dict(globals()).items()
              if name.startswith(("rhs_id", "lhs_id"))}
SIDES = sorted(REFERENCES)
PARAMETRIC = [key for key in SIDES if REGISTRY[key[0]].params.names]


def side(entry_id, which):
    """The entry's side, which takes a single n as a block of one."""
    return getattr(REGISTRY[entry_id], which)


def plain(a):
    """The draw's values as plain Fractions, which keep no rows."""
    return {k: Fraction(v) for k, v in a.items()}


def test_every_replaced_side_has_its_reference():
    assert len(SIDES) == 20 and len(PARAMETRIC) == 13
    assert {key[0] for key in SIDES} == {"ID02", "ID03", "ID05", "ID06", "ID08", "ID14", "ID15",
                                         "ID17", "ID20", "ID21", "ID22", "ID23", "ID24", "ID25",
                                         "ID26"}


@pytest.mark.parametrize("key", SIDES, ids=lambda key: f"{key[0]}-{key[1]}")
def test_a_side_equals_its_reference_on_the_drawn_grid(key):
    # over Fraction: every n up to the entry's depth, on the draws of seeds 0-2
    entry_id, which = key
    entry, new, old = REGISTRY[entry_id], side(*key), REFERENCES[key]
    for seed in range(3):
        for a in draw_for_entry(entry, seed, 20 if entry.params.names else 1, entry.n_max):
            for n in range(entry.n_max + 1):
                got, want = new(n, a), old(n, plain(a))
                assert type(got) is Fraction and got == want, (key, seed, a, n)


def symbolic(entry_id):
    names = REGISTRY[entry_id].params.names
    spare = [v for v in VARS[3:] if v not in names]
    return {name: RatFunc.var(name if name in VARS else spare.pop(0)) for name in names}


@pytest.mark.parametrize("key", PARAMETRIC, ids=lambda key: f"{key[0]}-{key[1]}")
def test_a_side_equals_its_reference_over_ratfunc(key):
    # one RatFunc per side: the same rational function as the replaced code's
    values = symbolic(key[0])
    for n in range(9):
        got, want = side(*key)(n, values), REFERENCES[key](n, values)
        assert isinstance(got, RatFunc) or n == 0, (key, n)
        assert got == want, (key, n)


def c_s_plus_p(n, a):
    """C(s + p, n) as the running product of (s + p - i) / (i + 1), in the jet ring."""
    value = a["s"] * 0 + a["p"] ** 0
    for i in range(n):
        value = value * (a["s"] + a["p"] - i) * F(1, i + 1)
    return value


# the jet oracle's base points and lifted names: ID06 for ID24-ID26, ID07 for
# ID15-ID18, ID08 for ID11 and ID21 for ID22
JET_POINTS = [("ID06", lambda n: {"s": F(n), "t": F(0)}, names)
              for names in (("s",), ("s", "t"), ("t",))] + [
    ("ID07", lambda n: {"s": s, "p": F(0)}, ("p",)) for s in (F(-1, 2), F(3), F(7, 5))] + [
    ("ID08", lambda n: {"beta": F(n), "x": F(0)}, ("beta",)),
    ("ID21", lambda n: {"s": F(0)}, ("s",)),
]


@pytest.mark.parametrize("point", range(len(JET_POINTS)))
def test_a_side_equals_its_reference_over_jets(point):
    entry_id, at, names = JET_POINTS[point]
    references = {which: REFERENCES.get((entry_id, which)) for which in ("lhs", "rhs")}
    if entry_id == "ID07":
        references["rhs"] = c_s_plus_p
    assert any(references.values())
    for n in range(13):
        base = at(n)
        lifted = dict(base)
        for slot, name in enumerate(names, start=1):
            lifted[name] = Jet2.variable(base[name], slot)
        for which, old in references.items():
            if old is not None:
                got, want = side(entry_id, which)(n, lifted), old(n, dict(lifted))
                assert type(got) is Jet2 and got == want, (entry_id, which, names, n)


def opened(entry_id, **sides):
    """The entry with its domain opened, and any side replaced."""
    entry = REGISTRY[entry_id]
    return {entry_id: replace(entry, params=ParamSpec(entry.params.names), **sides)}


def test_id15_keeps_its_digamma_pole_rows():
    # s in 0..n-1 is a pole of the digamma sum: a skipped row naming the first
    # vanishing s - i, as the replaced right side gave, and never a fail
    entries = opened("ID15")
    for n in range(1, 9):
        for s in range(n):
            r = check_identity("ID15", n, {"s": F(s)}, entries)
            assert (r.status, r.reason) == ("skipped", f"pole: digamma pole: s - {s} vanishes")
            with pytest.raises(ZeroDivisionError) as exc:
                rhs_id15(n, {"s": F(s)})
            assert str(exc.value) == f"digamma pole: s - {s} vanishes"
    assert check_identity("ID15", 3, {"s": F(3)}, entries).status == "pass"


def test_id06_keeps_its_rows_at_a_negative_integer_t():
    # at t = -m, m <= n, 1/C(t+k, k) and C(t+n, n) vanish: over jets each side
    # is a skipped jet pole, as the replaced sides were; over Fraction a fail
    # that names the ZeroDivisionError (the domain rejects these t)
    lhs_only = opened("ID06", rhs=lambda n, a: 0)
    rhs_only = opened("ID06", lhs=lambda n, a: 0)
    for n in range(1, 6):
        for m in range(1, n + 1):
            for s in (F(1, 2), F(3)):
                jets = {"s": Jet2.variable(s, 1), "t": Jet2.variable(F(-m), 2)}
                for entries in (opened("ID06"), lhs_only, rhs_only):
                    r = check_identity("ID06", n, jets, entries)
                    assert (r.status, r.reason) == ("skipped", "pole: jet division pole")
                    r = check_identity("ID06", n, {"s": s, "t": F(-m)}, entries)
                    assert r.status == "fail" and r.reason.startswith(
                        "unexpected ZeroDivisionError: Fraction("), r
                    assert r.reason.endswith(", 0)")
    # the number is the numerator over the vanishing den: the one division's
    # -18 is C(s+t+n, n) = -3/48 undivided times the den 3! of C(t+n, n) = 0/6,
    # where the replaced right side, dividing the reduced -1/16 by 0, named -1
    r = check_identity("ID06", 3, {"s": F(1, 2), "t": F(-2)}, rhs_only)
    assert r.reason == "unexpected ZeroDivisionError: Fraction(-18, 0)"
    r = check_identity("ID06", 3, {"s": F(1, 2), "t": F(-2)}, lhs_only)
    assert r.reason == "unexpected ZeroDivisionError: Fraction(-18, 0)"
    assert check_identity("ID06", 3, {"s": F(1, 2), "t": F(-4)}, opened("ID06")).status == "pass"
