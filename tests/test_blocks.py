"""Catalog sides as block evaluators, against the same sides read one n at a time.

A side called with an ascending range of n reads each of its rows once, at
the top of the range, and gives each n's (num, den) pair undivided; a single
n is a block of one, divided.  Every entry's block over range(0, n_max + 1) must equal its per-n
values over ``Fraction`` (the seed-0 draws, and plain copies of three, which
keep no rows), over ``RatFunc`` (n <= 4) and over ``Jet2`` at the points the
jet oracle lifts (ID06, ID07, ID08 and ID21, n <= 6).  ``check_identity``
over a range must give the rows that per-n calls give, reasons included,
where the range crosses a typed pole, a bare division by zero or a domain
rejection.  A default-depth sweep builds each ``n_row`` row once.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from binomsums.catalog.entries import REGISTRY, check_identity, draw_for_entry
from binomsums.catalog.suite import SuiteConfig, catalog_rows
from binomsums.exact import divided, n_row, over
from binomsums.jets import Jet2
from binomsums.params import ParamSpec
from binomsums.poly import VARS, RatFunc

F = Fraction
PARAMETRIC = [entry_id for entry_id, entry in REGISTRY.items() if entry.params.names]


def values(entry, value):
    """A side's value at one n, a block's (num, den) pair divided first; an inner-index
    entry's (row, den) as its entries."""
    return [over(v, value[1]) for v in value[0]] if entry.inner_index else divided(value)


def assert_block_is_per_n(entry, ns, a):
    for side in (entry.lhs, entry.rhs):
        block = side(ns, a)
        assert len(block) == len(ns), (entry.id, side.__name__)
        assert [values(entry, v) for v in block] == [values(entry, side(n, a)) for n in ns], (
            entry.id, side.__name__, a)


@pytest.mark.parametrize("entry_id", REGISTRY)
def test_a_block_is_its_per_n_values_over_fraction(entry_id):
    entry = REGISTRY[entry_id]
    drawn = draw_for_entry(entry, 0, 20, entry.n_max)
    plain = [{k: Fraction(v) for k, v in a.items()} for a in drawn[:3]]
    for a in drawn + plain:
        assert_block_is_per_n(entry, range(entry.n_max + 1), a)
    # a block need not start at 0
    assert_block_is_per_n(entry, range(3, 7), drawn[0])


@pytest.mark.parametrize("entry_id", PARAMETRIC)
def test_a_block_is_its_per_n_values_over_ratfunc(entry_id):
    entry = REGISTRY[entry_id]
    spare = [v for v in VARS[3:] if v not in entry.params.names]
    symbolic = {name: RatFunc.var(name if name in VARS else spare.pop(0))
                for name in entry.params.names}
    assert_block_is_per_n(entry, range(5), symbolic)


# the jet oracle's points at n0 and their lifted names: ID06 at (s, t) = (n0, 0),
# ID07 at p = 0 (s = n0, -1/2 or a drawn s), ID08 at (beta, x) = (n0, 0), ID21 at s = 0
JET_POINTS = [("ID06", lambda n0: {"s": F(n0), "t": F(0)}, names)
              for names in (("s",), ("s", "t"), ("t",))] + [
    ("ID07", lambda n0: {"s": s if s is not None else F(n0), "p": F(0)}, ("p",))
    for s in (None, F(-1, 2), F(7, 5))] + [
    ("ID08", lambda n0: {"beta": F(n0), "x": F(0)}, ("beta",)),
    ("ID21", lambda n0: {"s": F(0)}, ("s",)),
]


@pytest.mark.parametrize("point", range(len(JET_POINTS)))
def test_a_block_is_its_per_n_values_over_jets(point):
    entry_id, at, names = JET_POINTS[point]
    for n0 in range(7):
        lifted = at(n0)
        for slot, name in enumerate(names, start=1):
            lifted[name] = Jet2.variable(lifted[name], slot)
        assert_block_is_per_n(REGISTRY[entry_id], range(7), lifted)


def opened(entry_id):
    """The entry with its domain opened, as the pole tests of test_one_division.py do."""
    entry = REGISTRY[entry_id]
    return {entry_id: replace(entry, params=ParamSpec(entry.params.names))}


@pytest.mark.parametrize("entry_id, assignment, entries, status, reason", [
    # the digamma sum has a pole at s in 0..n-1: skipped from n = 4 on
    ("ID15", {"s": F(3)}, opened("ID15"), "skipped", "pole: digamma pole: s - 3 vanishes"),
    # C(t+n, n) and 1/C(t+k, k) vanish from n = 2 on: a fail naming the division
    ("ID06", {"s": F(1, 2), "t": F(-2)}, opened("ID06"), "fail",
     "unexpected ZeroDivisionError: Fraction("),
    # over jets the same division is a typed pole
    ("ID06", {"s": Jet2.variable(F(1, 2), 1), "t": Jet2.variable(F(-2), 2)}, opened("ID06"),
     "skipped", "pole: jet division pole"),
    # with its domain the entry is never evaluated where the domain rejects s = 2
    ("ID15", {"s": F(2)}, None, "skipped", "s in {0..n-1}: digamma pole"),
    # the pole at either end of the block's one running digamma pass
    ("ID15", {"s": F(0)}, opened("ID15"), "skipped", "pole: digamma pole: s - 0 vanishes"),
    ("ID15", {"s": F(7)}, opened("ID15"), "skipped", "pole: digamma pole: s - 7 vanishes"),
])
def test_a_block_across_a_pole_gives_the_per_n_rows(entry_id, assignment, entries, status,
                                                    reason):
    ns = range(9)
    rows = check_identity(entry_id, ns, assignment, entries)
    assert rows == [check_identity(entry_id, n, assignment, entries) for n in ns]
    assert rows[0].status == "pass" and [r.n for r in rows] == list(ns)
    unchecked = [r for r in rows if r.status != "pass"]
    assert unchecked and all(r.status == status and r.reason.startswith(reason)
                             and r.lhs is r.rhs is None for r in unchecked)


def test_a_default_sweep_builds_each_n_row_once():
    # draw by draw, an entry reads every (form, n) of its sweep once per draw:
    # a store smaller than the sweep would build each again for every draw
    deepest = max(entry.n_max for entry in REGISTRY.values())
    assert n_row.cache_info().maxsize >= 2 * (deepest + 1)
    built = 0
    for entry_id in PARAMETRIC:
        n_row.cache_clear()
        for _ in catalog_rows(SuiteConfig(only=(entry_id,))):
            pass
        info = n_row.cache_info()
        assert info.misses == info.currsize, (entry_id, info)
        built += info.misses
    assert built > 0
