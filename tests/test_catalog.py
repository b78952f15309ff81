"""Catalog entries: spot values, exclusions, cross-identity reductions."""

from __future__ import annotations

import hashlib
import random
from importlib import import_module
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from binomsums.catalog import lhs, rhs
from binomsums.catalog.entries import (
    REGISTRY,
    _per_index,
    apply_mutations,
    check_identity,
    draw_for_entry,
)
from binomsums.exact import binom_poly, binom_upper_shift, harmonic, over
from binomsums.jets import Jet2
from binomsums.params import ParamSpec
from binomsums.poly import VARS, RatFunc

F = Fraction

# sha256 of every parametric entry's rendered sides over RatFunc symbols at
# n <= 6, recorded while the kernels still built RatFunc rows one factor at a
# time: the canonical forms, not only their difference, are pinned
GOLDEN_RATFUNC_SIDES_SHA256 = "80fbf4bbba1e7f40543db3153eb62cab9264e2e6959daf1766910c3b35364079"


def test_registry_shape():
    assert len(REGISTRY) == 27
    assert list(REGISTRY)[0] == "ID01"
    assert "ID20E" in REGISTRY
    for entry in REGISTRY.values():
        assert entry.statement
        assert entry.n_max >= 30


# ---------------------------------------------------------------------------
# Spot values (each expected value recomputed by a hand-expanded oracle)
# ---------------------------------------------------------------------------

def test_id01_spot():
    # n=1, x=1: 1 + 2x = 3 on both sides
    r = check_identity("ID01", 1, {"x": F(1)})
    assert r.status == "pass" and r.lhs == r.rhs == 3


def test_id03_spot():
    r = check_identity("ID03", 1, {"alpha": F(1, 2), "beta": F(1, 3), "x": F(2)})
    oracle = binom_poly(F(1, 2), 1) + binom_poly(F(4, 3), 1) * 2
    assert oracle == F(19, 6)
    assert r.status == "pass" and r.lhs == r.rhs == F(19, 6)


def test_id05_spot():
    r = check_identity("ID05", 1, {"lam": F(1)})
    assert r.status == "pass" and r.lhs == r.rhs == 4


def test_id06_spot():
    r = check_identity("ID06", 2, {"s": F(1, 2), "t": F(1, 3)})
    oracle = (F(1, 2) + F(1, 3) + 1) * (F(1, 2) + F(1, 3) + 2) \
        / ((F(1, 3) + 1) * (F(1, 3) + 2))
    assert oracle == F(187, 112)
    assert r.status == "pass" and r.rhs == F(187, 112)


def test_id09_spot():
    r = check_identity("ID09", 2, {"beta": F(1, 3)})
    oracle = binom_poly(F(1, 3), 2) - 2 * binom_poly(F(4, 3), 2) + binom_poly(F(7, 3), 2)
    assert oracle == 1
    assert r.status == "pass" and r.lhs == 1


def test_id15_spot():
    r = check_identity("ID15", 2, {"s": F(1, 2)})
    assert r.status == "pass" and r.lhs == r.rhs == F(-3, 16)


def test_id16_spot():
    r = check_identity("ID16", 2, {})
    assert r.status == "pass"
    assert r.lhs == F(3, 2)
    assert r.rhs == (-6 + 9) / F(2)


def test_id18_spot():
    r = check_identity("ID18", 2, {})
    assert r.status == "pass" and r.lhs == r.rhs == F(9, 4)
    # oracle: quarter of 0 - 12 + 21
    assert (0 - 12 + 21) / F(4) == F(9, 4)


def test_id20_spots():
    r = check_identity("ID20", 1, {})
    assert r.status == "pass" and r.lhs == 3 == F(comb(4, 2), 2)
    r = check_identity("ID20E", 1, {})
    assert r.status == "pass" and r.lhs == 2 + 4 == comb(4, 2)


def test_id21_spot():
    r = check_identity("ID21", 2, {"s": F(1, 2)})
    oracle = 6 + binom_poly(F(3, 2), 1) * 2 * 4 + binom_poly(F(5, 2), 2) * 16
    assert oracle == 48
    assert r.status == "pass" and r.lhs == r.rhs == 48


def test_id22_spot():
    r = check_identity("ID22", 2, {})
    oracle = harmonic(2) + 2 * harmonic(1) / 4 + 6 * harmonic(0) / 16
    assert oracle == 2
    assert r.status == "pass" and r.lhs == r.rhs == 2


def test_id24_id25_spots():
    r = check_identity("ID24", 2, {})
    assert r.status == "pass" and r.lhs == F(11, 2)
    r = check_identity("ID25", 2, {})
    assert r.status == "pass" and r.lhs == 4
    assert 6 * (F(121, 144) + F(180, 144) - F(205, 144)) == 4


def test_id26_spot():
    r = check_identity("ID26", 1, {})
    assert r.status == "pass" and r.lhs == r.rhs == 2


# ---------------------------------------------------------------------------
# Parameterized grids
# ---------------------------------------------------------------------------

def test_all_entries_pass_on_seeded_draws():
    for entry in REGISTRY.values():
        draws = draw_for_entry(entry, seed=1, samples=4, n_max=8)
        for n in range(9):
            for draw in draws:
                assert draw is not None
                result = check_identity(entry.id, n, draw)
                assert result.status == "pass", (entry.id, n, draw, result)


def test_inner_index_checked_for_all_j():
    # ID04 holds for every j in 0..n; a right row wrong at one inner j must fail there
    n, assign = 5, {"alpha": F(1, 2), "beta": F(1, 3)}
    entry = REGISTRY["ID04"]
    r = check_identity("ID04", n, assign)
    assert r.status == "pass"
    at_n = dict(assign, j=n)
    assert (r.lhs, r.rhs) == (entry.lhs(n, at_n), entry.rhs(n, at_n))

    for j in (2, 0, n):
        def wrong_at_j(n, a, j=j):
            row, den = entry.rhs(n, a)
            return [v + den if i == j else v for i, v in enumerate(row)], den

        r = check_identity("ID04", n, assign, {"ID04": replace(entry, rhs=wrong_at_j)})
        assert r.status == "fail" and r.reason == f"sides differ at j={j}"
        at_j = dict(assign, j=j)
        assert r.lhs == entry.lhs(n, at_j)
        assert r.rhs == entry.rhs(n, at_j) + 1


def _id04_reference(n, a):
    """Both ID04 sides from binom_poly products alone, with no memo."""
    alpha, beta, j = a["alpha"], a["beta"], a["j"]
    left = beta * 0
    for k in range(j, n + 1):
        term = binom_poly(beta + k, k) * comb(k, j) * binom_poly(alpha, n - k)
        left = left + (-term if (k + j) % 2 else term)
    right = binom_poly(beta + j, j) * binom_poly(beta - alpha + n, n - j)
    return left, -right if (n + j) % 2 else right


def test_id04_rows_match_the_reference():
    # both j-rows, and the per-j view of each, against the memo-free reference at
    # every j, over Fraction draws and one RatFunc draw
    entry = REGISTRY["ID04"]
    draws = draw_for_entry(entry, seed=7, samples=3, n_max=10)
    draws.append({"alpha": RatFunc.var("alpha"), "beta": RatFunc.var("beta")})
    for params in draws:
        for n in range(11):
            rows = entry.lhs(n, params), entry.rhs(n, params)
            assert [len(row) for row, _ in rows] == [n + 1, n + 1]
            for j in range(n + 1):
                a = dict(params, j=j)
                want = _id04_reference(n, a)
                from_rows = tuple(over(row[j], den) for row, den in rows)
                per_j = entry.lhs(n, a), entry.rhs(n, a)
                assert from_rows == want and per_j == want, (n, a)
                assert [type(v) for v in from_rows + per_j] == [type(v) for v in want * 2]


def test_id04_rows_compare_over_the_gcd_of_their_dens_in_every_ring():
    # int dens are compared over their lcm, MultiPoly dens cross-multiplied; a
    # right row off by one at j = 1 fails there, at every n >= 1, in both rings
    entry = REGISTRY["ID04"]

    def slipped(n, a):
        row, den = entry.rhs(n, a)
        return [v + den * (j == 1) for j, v in enumerate(row)], den

    wrong = {"ID04": replace(entry, rhs=slipped)}
    b = RatFunc.var("beta")
    alpha, beta = 1 / (RatFunc.var("alpha") + 2), b / (b + 1)     # dens that differ
    for a in ({"alpha": F(5, 3), "beta": F(-2, 7)}, {"alpha": alpha, "beta": beta}):
        for n in range(5):
            assert check_identity("ID04", n, a).status == "pass"
            r = check_identity("ID04", n, a, wrong)
            assert (r.status, r.reason) == (("fail", "sides differ at j=1") if n else
                                            ("pass", "")), (a, n)


def test_id04_memo_never_serves_stale_rows():
    entry = REGISTRY["ID04"]
    half, third, other = F(1, 2), F(1, 3), F(-7, 5)
    calls = [
        (5, {"alpha": half, "beta": third}, range(6)),
        # the same objects at another n; then one of alpha and beta changed
        (3, {"alpha": half, "beta": third}, (0, 1, 2, 3)),
        (3, {"alpha": half, "beta": other}, (3, 1)),
        (3, {"alpha": F(9, 4), "beta": other}, (2, 0)),
        # equal values in distinct objects
        (5, {"alpha": F(1, 2), "beta": F(1, 3)}, (3, 0, 5)),
        # a RatFunc draw between two Fraction draws of the same objects
        (4, {"alpha": half, "beta": third}, (0, 2)),
        (4, {"alpha": RatFunc.var("alpha"), "beta": RatFunc.var("beta")}, (2, 4, 0)),
        (4, {"alpha": half, "beta": third}, (3, 1, 4, 0, 2)),
    ]
    for n, params, inner in calls:
        for j in inner:
            a = dict(params, j=j)
            got, want = (entry.lhs(n, a), entry.rhs(n, a)), _id04_reference(n, a)
            assert got == want, (n, a)
            assert [type(v) for v in got] == [type(v) for v in want], (n, a)


def test_id04_rows_built_once_per_check(monkeypatch):
    # the j-free rows are built once per (n, draw), not once per inner j
    built = {"lhs": 0, "rhs": 0}

    def counting(side, row):
        def wrapped(*args):
            built[side] += 1
            return row(*args)
        return wrapped

    monkeypatch.setattr(lhs, "binom_row", counting("lhs", lhs.binom_row))
    monkeypatch.setattr(rhs, "pascal_rows", counting("rhs", rhs.pascal_rows))
    # fresh objects, so no earlier call can have left them in the memo
    assign = {k: F(v.numerator, v.denominator)
              for k, v in draw_for_entry(REGISTRY["ID04"], 0, 1, 8)[0].items()}
    r = check_identity("ID04", 8, assign)
    assert r.status == "pass"
    assert built == {"lhs": 1, "rhs": 1}



def test_per_index_view_keeps_one_row_per_side():
    # two stub sides with different rows, each behind its own view
    built = []

    def stub(offset):
        def side(n, a):
            built.append(offset)
            return [offset + 10 * n + i for i in range(n + 1)], 2
        return side

    left, right = _per_index(stub(100), "j"), _per_index(stub(200), "j")
    x, y = F(1, 2), F(1, 3)
    # alternate reads of the same objects: each side gives its own entries, built once
    for j in (0, 2, 1, 2, 0):
        assert left(2, {"x": x, "y": y, "j": j}) == F(120 + j, 2)
        assert right(2, {"x": x, "y": y, "j": j}) == F(220 + j, 2)
    assert built == [100, 200]
    # a new n, or a new object for any non-inner value, even an equal one, rebuilds
    for n, a in ((3, {"x": x, "y": y}), (3, {"x": F(1, 2), "y": y}),
                 (3, {"x": x, "y": F(1, 3)}), (2, {"x": x, "y": y})):
        built.clear()
        assert left(n, dict(a, j=1)) == F(100 + 10 * n + 1, 2)
        assert left(n, dict(a, j=0)) == F(100 + 10 * n, 2)
        assert built == [100]
    # without the inner index the call passes through and leaves the kept row alone
    built.clear()
    assert left(5, {"x": x, "y": y}) == ([150, 151, 152, 153, 154, 155], 2)
    assert left(2, {"x": x, "y": y, "j": 2}) == F(122, 2)
    assert built == [100]


ROW_HELPER_CALLERS = {
    "rising_row": {"ID02", "ID03", "ID04", "ID07", "ID08", "ID09", "ID10", "ID15", "ID21"},
    "binom_row": {"ID02", "ID03", "ID04", "ID06", "ID08", "ID09", "ID19"},
    "pascal_rows": {"ID02", "ID03", "ID04", "ID05", "ID07", "ID19"},
    "power_row": {"ID01", "ID02", "ID03", "ID08", "ID12", "ID13", "ID14"},
    "harmonic_row": {"ID11", "ID15", "ID16", "ID17", "ID18", "ID22", "ID24", "ID25", "ID26"},
    "reciprocal_row": {"ID05", "ID06"},
    "legendre_row": {"ID14"},
    "product_row": {"ID02", "ID03", "ID06", "ID08", "ID14"},
    "n_row": {"ID01", "ID05", "ID06", "ID08", "ID10", "ID11", "ID12", "ID13", "ID14",
              "ID15", "ID16", "ID17", "ID18", "ID21", "ID22", "ID24", "ID25", "ID26"},
}


@pytest.mark.parametrize("helper", sorted(ROW_HELPER_CALLERS))
def test_a_helper_bug_shared_by_both_sides_cannot_cancel(monkeypatch, helper):
    # the same wrong row entry on both sides must still fail every entry that
    # builds rows with the helper, somewhere in n <= 5
    real = getattr(lhs, helper)
    callers, current = set(), None

    def wrong(row, den):
        return [row[0], row[1] + den, *row[2:]] if len(row) > 1 else row

    def wrong_at_index_one(*args):
        # one more than the right value at index 1, in the (row, den) contract
        # (n_row's rows are ints over 1, pascal_rows' a row per n over one den),
        # on a copy: a returned row is read-only, and a drawn value and the
        # store of n-only rows keep theirs
        callers.add(current)
        if helper == "n_row":
            return wrong(real(*args), 1)
        row, den = real(*args)
        return ([wrong(r, den) for r in row] if helper == "pascal_rows" else wrong(row, den)), den

    # import_module: the package re-exports a function named like the module
    for module in (lhs, rhs, import_module("binomsums.legendre")):
        if hasattr(module, helper):      # every module that uses the helper
            monkeypatch.setattr(module, helper, wrong_at_index_one)
    missed = []
    for entry in REGISTRY.values():
        current = entry.id
        draws = draw_for_entry(entry, seed=0, samples=2, n_max=5)
        statuses = {check_identity(entry.id, n, a).status for n in range(6) for a in draws}
        if entry.id in callers and "fail" not in statuses:
            missed.append(entry.id)
    assert callers == ROW_HELPER_CALLERS[helper], callers
    assert missed == []


def test_exclusions_produce_skips():
    r = check_identity("ID15", 3, {"s": F(2)})
    assert r.status == "skipped" and "digamma" in r.reason
    r = check_identity("ID06", 3, {"s": F(1, 2), "t": F(-2)})
    assert r.status == "skipped"
    r = check_identity("ID15", 3, {"s": F(1)})
    assert r.status == "skipped" and r.lhs is None and r.rhs is None


def test_only_typed_poles_are_skips():
    # ID15's rhs raises a digamma Pole at s = 2, n = 3 once its predicate lets s through
    open_id15 = replace(REGISTRY["ID15"], params=ParamSpec(("s",)))
    r = check_identity("ID15", 3, {"s": F(2)}, {"ID15": open_id15})
    assert r.status == "skipped" and "digamma pole" in r.reason
    # a jet t at a negative integer makes both ID06 sides divide a jet by zero
    open_id06 = {"ID06": replace(REGISTRY["ID06"], params=ParamSpec(("s", "t")))}
    jets = {"s": Jet2.variable(F(1, 2), 1), "t": Jet2.variable(F(-2), 2)}
    r = check_identity("ID06", 3, jets, open_id06)
    assert r.status == "skipped" and "jet division pole" in r.reason

    def divides_by_zero(n, a):
        return F(1) / (n - n)

    entries = {"ID16": replace(REGISTRY["ID16"], rhs=divides_by_zero)}
    r = check_identity("ID16", 3, {}, entries)
    assert r.status == "fail" and "ZeroDivisionError" in r.reason


def test_draws_respect_exclusions():
    entry = REGISTRY["ID15"]
    for draw in draw_for_entry(entry, seed=9, samples=50, n_max=30):
        assert entry.params.reject(31, draw) is None


def test_a_block_asks_its_domain_once_at_its_top():
    # a domain admits at every depth below one it admits at, so a block asks it
    # once, at its top n + 1; a block whose top it rejects is re-read n by n,
    # each n asked at n + 1, and gives each n the reason a check at that n gives
    asked = []

    def counting(n_max, a):
        asked.append(n_max)
        return REGISTRY["ID15"].params.reject(n_max, a)

    entries = {"ID15": replace(REGISTRY["ID15"], params=ParamSpec(("s",), counting))}
    drawn = draw_for_entry(entries["ID15"], 0, 5, 10)
    for a in drawn:
        asked.clear()
        assert {r.status for r in check_identity("ID15", range(11), a, entries)} == {"pass"}
        assert asked == [11]
    # s = 5 is a pole of every n > 5: the top rejects, and so does every n >= 5
    asked.clear()
    rows = check_identity("ID15", range(11), {"s": F(5)}, entries)
    assert asked == [11, *range(1, 12)]
    assert rows == [check_identity("ID15", n, {"s": F(5)}, entries) for n in range(11)]
    assert [r.status for r in rows] == ["pass"] * 5 + ["skipped"] * 6
    assert {r.reason for r in rows[5:]} == {"s in {0..n-1}: digamma pole"}
    # s = 2, which ID21's domain admits at any depth: ID15's own domain still skips it
    assert REGISTRY["ID21"].params.reject(31, {"s": F(2)}) is None
    r = check_identity("ID15", 3, {"s": F(2)})
    assert (r.status, r.reason) == ("skipped", "s in {0..n-1}: digamma pole")
    rows = check_identity("ID15", range(11), {"s": F(2)})
    assert [r.status for r in rows] == ["pass"] * 2 + ["skipped"] * 9 and rows[3] == r


def test_draw_determinism_and_independence_from_filter():
    entry = REGISTRY["ID06"]
    a = draw_for_entry(entry, seed=5, samples=10, n_max=30)
    b = draw_for_entry(entry, seed=5, samples=10, n_max=30)
    assert a == b
    c = draw_for_entry(entry, seed=6, samples=10, n_max=30)
    assert a != c


# ---------------------------------------------------------------------------
# Cross-identity reductions
# ---------------------------------------------------------------------------

def test_id02_reduces_to_id03():
    """Replacing x by x*y in the two-variable form and dividing by y^n gives
    the one-variable form."""
    rng = random.Random(61)
    for _ in range(10):
        alpha = F(rng.randint(-50, 50), rng.randint(2, 9))
        beta = F(rng.randint(-50, 50), rng.randint(2, 9))
        if alpha.denominator == 1 or beta.denominator == 1:
            continue
        x = F(rng.randint(-9, 9), rng.randint(1, 9))
        y = F(rng.randint(1, 9), rng.randint(1, 9))
        for n in range(6):
            two_var = REGISTRY["ID02"].lhs(n, {"alpha": alpha, "beta": beta,
                                               "x": x * y, "y": y})
            one_var = REGISTRY["ID03"].lhs(n, {"alpha": alpha, "beta": beta, "x": x})
            assert two_var == one_var * y**n


def test_id01_is_id03_specialized():
    # alpha = beta = n recovers the self-dual alternating transform
    for n in range(8):
        for x in (F(0), F(1), F(-2), F(3, 7)):
            a = REGISTRY["ID01"].lhs(n, {"x": x})
            b = REGISTRY["ID03"].lhs(n, {"alpha": F(n), "beta": F(n), "x": x})
            assert a == b


def test_id05_maps_onto_id06_term_by_term():
    """s = n - lam - 1/2, t = -lam - 1/2 sends the lam-identity summand onto
    the (s,t)-identity summand, and the closed forms match."""
    rng = random.Random(62)
    half = F(1, 2)
    for _ in range(8):
        lam = F(rng.randint(-40, 40), rng.randint(2, 9))
        for n in range(6):
            s = n - lam - half
            t = -lam - half
            for k in range(n + 1):
                al_term = comb(n, k) * binom_poly(n - lam - half, k) \
                    / binom_poly(k - lam - half, k)
                id06_term = comb(n, k) * binom_poly(s, k) \
                    / binom_poly(t + k, k)
                assert al_term == id06_term
            product = REGISTRY["ID06"].rhs(n, {"s": s, "t": t})
            ratio = 4**n * binom_poly(lam, n) / binom_poly(2 * lam, n)
            assert product == ratio


def test_id07_id19_unnormalized_for_integer_p():
    """For non-negative integer p the un-divided displays are directly
    evaluable; both must match the normalized entries times C(n, p)."""
    rng = random.Random(63)
    for _ in range(10):
        s = F(rng.randint(-40, 40), rng.randint(2, 9))
        p = rng.randint(0, 4)
        for n in range(7):
            raw_lhs = sum(
                (-1) ** ((n + k) % 2) * comb(n, k) * binom_poly(s + k, k)
                * comb(k, p) for k in range(n + 1))
            raw_rhs = comb(n, p) * binom_poly(s + p, n)
            assert raw_lhs == raw_rhs
            norm = REGISTRY["ID07"].lhs(n, {"s": s, "p": F(p)})
            assert raw_lhs == norm * comb(n, p)
            inv_lhs = sum(
                comb(n, k) * binom_poly(s + p, k) * comb(k, p)
                for k in range(n + 1))
            inv_rhs = comb(n, p) * binom_poly(s + n, n)
            assert inv_lhs == inv_rhs
            norm19 = REGISTRY["ID19"].lhs(n, {"s": s, "p": F(p)})
            assert inv_lhs == norm19 * comb(n, p)


def test_binomial_inversion_involution():
    """b_n = sum (-1)^k C(n,k) a_k applied twice returns a_n, exercised on
    the alternating-transform data."""
    def invert(seq):
        out = []
        for n in range(len(seq)):
            total = F(0)
            for k in range(n + 1):
                term = comb(n, k) * seq[k]
                total += -term if k % 2 else term
            out.append(total)
        return out

    s, p = F(1, 2), 1
    a = [binom_poly(s + k, k) * comb(k, p) for k in range(21)]
    b = invert(a)
    for n in range(21):
        expect = comb(n, p) * binom_poly(s + p, n)
        assert b[n] == (-expect if n % 2 else expect)
    assert invert(b) == a


def test_id21_connects_to_id06():
    # the upper-shifted closed form equals the product form at 2s+1, degree 2n
    rng = random.Random(64)
    for _ in range(10):
        s = F(rng.randint(-30, 30), rng.randint(2, 9))
        for n in range(6):
            lhs = binom_upper_shift(2 * s + 1, 2 * n)
            assert lhs == binom_poly(2 * n + 2 * s + 1, 2 * n)


# ---------------------------------------------------------------------------
# Mutations
# ---------------------------------------------------------------------------

def test_mutation_registry():
    entries = apply_mutations(("id24-flip-h2n",))
    bad = [n for n in range(1, 12)
           if check_identity("ID24", n, {}, entries).status != "fail"]
    assert bad == []
    # everything else is untouched
    assert check_identity("ID16", 5, {}, entries).status == "pass"
    with pytest.raises(ValueError):
        apply_mutations(("no-such-mutation",))


@pytest.mark.parametrize("entry_id", list(REGISTRY))
def test_every_entry_detects_a_shifted_rhs(entry_id):
    # negative control: rhs + 1/(n+2) differs from the true value at every n
    entry = REGISTRY[entry_id]

    def shifted_rhs(n, a):
        if entry.inner_index:       # the whole j-row (row, den): + 1/(n+2) at every j
            row, den = entry.rhs(n, a)
            return [v * (n + 2) + den for v in row], den * (n + 2)
        return entry.rhs(n, a) + F(1, n + 2)

    entries = {entry_id: replace(entry, rhs=shifted_rhs)}
    assign = draw_for_entry(entry, seed=0, samples=1, n_max=4)[0]
    statuses = [check_identity(entry_id, n, assign, entries).status for n in range(5)]
    assert statuses == ["fail"] * 5


def symbolic_params(entry):
    """Each parameter as a RatFunc variable; names outside the fixed variable
    list (x, y, lam) take the next unused parameter variable."""
    spare = [v for v in VARS[3:] if v not in entry.params.names]
    return {name: RatFunc.var(name if name in VARS else spare.pop(0))
            for name in entry.params.names}


@pytest.mark.parametrize("entry_id", ["ID13", "ID14"])
def test_legendre_entries_are_proved_for_every_t(entry_id):
    # over a RatFunc t the two sides are rational functions of t, so a pass
    # holds for every admissible t at that n, where 20 draws only bound a slip
    t = RatFunc.var("t")
    assert [check_identity(entry_id, n, {"t": t}).status for n in range(51)] == ["pass"] * 51


def test_a_degree_150_slip_in_id13_fails_symbolically():
    # the degree of ID13's own sides at n = 50, where a sampled pass is weakest
    entry = REGISTRY["ID13"]
    slipped = replace(entry, rhs=lambda n, a: entry.rhs(n, a) + (a["t"] * a["t"] - 1) ** 75)
    r = check_identity("ID13", 50, {"t": RatFunc.var("t")}, {"ID13": slipped})
    assert r.status == "fail" and r.reason == "sides differ"


def test_ratfunc_sides_are_pinned(budget):
    # the budget guards against a hang, it is not a speed gate
    def render(side):
        return side.render() if isinstance(side, RatFunc) else str(side)

    lines = []
    with budget(60):
        for entry in REGISTRY.values():
            if not entry.params.names:
                continue
            values = symbolic_params(entry)
            for n in range(7):
                for j in (range(n + 1) if entry.inner_index else (None,)):
                    point = dict(values)
                    if j is not None:
                        point[entry.inner_index] = j
                    lines.append(f"{entry.id} {n} {j} {render(entry.lhs(n, point))} | "
                                 f"{render(entry.rhs(n, point))}")
    assert len(lines) == 133
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN_RATFUNC_SIDES_SHA256
