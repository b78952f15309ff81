"""The jet oracle: derivative coefficients of base identities reproduce the
harmonic corollaries along an independent path."""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from binomsums.catalog.entries import REGISTRY, check_identity, draw_for_entry
from binomsums.catalog.jets_oracle import _id07_undivided, lift_sides, oracle
from binomsums.exact import (Pole, binom_poly, digamma_diff, harmonic, harmonic_row,
                             over, render_rational, rising_row, trigamma_diff)
from binomsums.jets import Jet2

F = Fraction

ORACLE_IDS = ("ID11", "ID16", "ID17", "ID18", "ID22", "ID24", "ID25", "ID26")

# sha256 of the rendered oracle pairs below, recorded from the generic
# running-product jet kernels: ring-generic values are pinned to the byte,
# so a slip in the jet kernels that hits both sides alike still shows
GOLDEN_ORACLE_SHA256 = "e321373918bd71ee375f5fe6620f2a0f98f7e9f7c7ed9d13b4be058e85184e79"


def test_order_zero_equals_plain_evaluation():
    # zeroth-order lifting is plain evaluation, for every catalog entry; an
    # entry with an inner index is read as its two j-rows, each (row, den)
    for entry in REGISTRY.values():
        for draw in draw_for_entry(entry, seed=3, samples=2, n_max=8):
            for n in (0, 3, 7):
                direct = check_identity(entry.id, n, draw)
                assert direct.status == "pass"
                if entry.inner_index:
                    left, right = ([over(v, den) for v in row]
                                   for row, den in (entry.lhs(n, draw), entry.rhs(n, draw)))
                    assert left == right and left[n] == direct.lhs, (entry.id, n)
                    continue
                left, right = lift_sides(entry.id, n, draw)
                assert left == right, (entry.id, n)
                assert left.value == direct.lhs and right.value == direct.rhs


def test_a_third_lifted_name_raises():
    # a jet has two slots; a lift that raises keeps nothing, so it raises again
    draw = {"alpha": F(1, 3), "beta": F(1, 2), "x": F(3)}
    for _ in range(2):
        with pytest.raises(ValueError):
            lift_sides("ID03", 2, draw, "alpha", "beta", "x")


def test_a_lift_at_a_jet_pole_raises_again():
    # t + 1 vanishes at t = -1: the lift keeps nothing, so it raises again
    for _ in range(2):
        with pytest.raises(Pole):
            lift_sides("ID06", 2, {"s": F(1, 2), "t": F(-1)}, "t")


def _counting(entry, calls: Counter):
    """entry with each side counting its calls by (id, side, n, point, names):
    the point is every value at its base, the names the jet-valued ones in
    slot order."""
    def count(which, side):
        def counted(n, values):
            point = tuple((name, v.value if isinstance(v, Jet2) else v)
                          for name, v in values.items())
            names = tuple(name for slot in (1, 2) for name, v in values.items()
                          if isinstance(v, Jet2) and v.first(slot) == 1)
            calls[entry.id, which, n, point, names] += 1
            return side(n, values)
        return counted
    return replace(entry, lhs=count("lhs", entry.lhs), rhs=count("rhs", entry.rhs))


def test_a_sweep_lifts_each_base_once_per_point(monkeypatch):
    # the eight fixed-point corollaries at n <= 50, in the order the callers
    # ask them: siblings read one lift, so no side runs twice on one key, and
    # ID06 runs at one (point, names) per n for ID24, ID25 and ID26 together
    calls = Counter()
    for base_id in ("ID06", "ID07", "ID08", "ID21"):
        monkeypatch.setitem(REGISTRY, base_id, _counting(REGISTRY[base_id], calls))
    for entry_id in ORACLE_IDS:
        for n in range(51):
            oracle(entry_id, n)
    assert set(calls.values()) == {1}
    lifts = Counter(key[0] for key in calls if key[1] == "lhs")
    # ID07 at s = n (ID11, ID16, ID18) and at s = -1/2 (ID17)
    assert lifts == {"ID06": 51, "ID07": 102, "ID08": 51, "ID21": 51}


def test_a_replaced_base_entry_is_lifted_afresh(monkeypatch):
    # the kept lift is keyed by the side functions, not by the entry's id
    before = oracle("ID24", 3)
    entry = REGISTRY["ID06"]
    monkeypatch.setitem(REGISTRY, "ID06", replace(entry, lhs=lambda n, a: 2 * entry.lhs(n, a)))
    after = oracle("ID24", 3)
    assert before[0] != 0 and after == (2 * before[0], before[1])


def test_the_shared_id06_lift_reads_as_one_slot_lifts():
    # ID24 and ID26 read ID06 lifted in s and t together; their coefficients
    # are those of the lifts in s alone and in t alone
    for n in range(13):
        point = {"s": F(n), "t": F(0)}
        (sl, sr), (tl, tr) = (lift_sides("ID06", n, point, name) for name in ("s", "t"))
        h = harmonic(n)
        assert oracle("ID24", n) == (h * sl.value - sl.first(), h * sr.value - sr.first()), n
        assert oracle("ID26", n) == (tl.second(), tr.second()), n


def test_id15_reconstruction_spot():
    assert oracle("ID15", 2, s=F(1, 2)) == (F(-3, 16), F(-3, 16))


def test_base_jets_agree_on_all_coefficients():
    # all six jet coefficients of both sides match: the base identities hold
    # identically in a neighborhood, not just to the extracted order
    rng = random.Random(81)
    for n in (1, 4, 9):
        s = F(rng.randint(-30, 30), rng.randint(2, 9))
        t = F(rng.randint(1, 30), rng.randint(1, 9))
        jl, jr = lift_sides("ID06", n, {"s": s, "t": t}, "s", "t")
        assert jl == jr
        jl, jr = lift_sides("ID07", n, {"s": s, "p": F(0)}, "p")
        assert jl == jr


@pytest.mark.parametrize("entry_id", ORACLE_IDS)
def test_oracle_matches_direct_path(entry_id):
    for n in range(0, 21):
        left, right = oracle(entry_id, n)
        assert left == right, (entry_id, n)
        direct = check_identity(entry_id, n, {})
        assert direct.status == "pass"
        assert left == direct.lhs
        assert right == direct.rhs


def test_oracle_id15_with_draws():
    entry = REGISTRY["ID15"]
    for draw in draw_for_entry(entry, seed=4, samples=5, n_max=12):
        for n in range(0, 13, 3):
            left, right = oracle("ID15", n, s=draw["s"])
            assert left == right
            direct = check_identity("ID15", n, draw)
            assert direct.status == "pass"
            assert left == direct.lhs


def general_s_second_derivative(n: int, s: Fraction) -> dict[str, Fraction]:
    """The corrected general-s twice-differentiated identity.

    Generated from the jets of ID07 (both second-derivative coefficients)
    and, independently, from the closed forms

        lhs = sum (-1)^(n+k) C(n,k) C(s+k,k) (H_k^2 + H_k^(2))
        rhs = C(s,n) ((H_n + dd)^2 + H_n^(2) + td)

    with dd = psi(s+1) - psi(s-n+1) and td = psi'(s+1) - psi'(s-n+1) as
    rational differences.  At s = n the right side collapses to 4 H_n^2.
    """
    jet_lhs, jet_rhs = (jet.second() for jet in _id07_undivided(n, s))
    bs, ds = rising_row(s, n)      # C(s+k, k) = bs[k] / ds
    h, _ = harmonic_row(n)
    h2, d2 = harmonic_row(n, 2)    # H_k^2 sits over lcm(1..N)^2 too: one table's depth N
    terms = (comb(n, k) * bs[k] * (h[k] * h[k] + h2[k]) for k in range(n + 1))
    closed_lhs = over(sum(-v if (n + k) % 2 else v for k, v in enumerate(terms)), ds * d2)
    dd = digamma_diff(s, n)
    td = trigamma_diff(s, n)
    h_n = harmonic(n)
    closed_rhs = binom_poly(s, n) * ((h_n + dd) ** 2 + harmonic(n, 2) + td)
    return {"jet_lhs": jet_lhs, "jet_rhs": jet_rhs,
            "closed_lhs": closed_lhs, "closed_rhs": closed_rhs}


def test_general_s_second_derivative():
    rng = random.Random(82)
    for _ in range(6):
        s = F(rng.randint(-40, 40), rng.randint(2, 9))
        n = rng.randint(0, 10)
        out = general_s_second_derivative(n, s)
        assert out["jet_lhs"] == out["jet_rhs"] == out["closed_lhs"] == out["closed_rhs"]


def test_general_s_specializes_to_id18():
    for n in range(0, 12):
        out = general_s_second_derivative(n, F(n))
        assert out["jet_lhs"] == out["jet_rhs"] == 4 * harmonic(n) ** 2
        direct = check_identity("ID18", n, {})
        assert direct.lhs * 4 == out["jet_rhs"]


def test_oracle_values_are_pinned(budget):
    # the budget guards against a hang, it is not a speed gate
    lines = []
    with budget(60):
        for entry_id in ORACLE_IDS:
            for n in range(51):
                left, right = oracle(entry_id, n)
                lines.append(f"{entry_id} {n} {render_rational(left)} {render_rational(right)}")
        for draw in draw_for_entry(REGISTRY["ID15"], 0, 5, 30):
            for n in range(31):
                left, right = oracle("ID15", n, s=draw["s"])
                lines.append(f"ID15 {n} s={render_rational(draw['s'])} "
                             f"{render_rational(left)} {render_rational(right)}")
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_ORACLE_SHA256
