"""Parameter domains as data: each shipped Domain against the predicate it replaced.

The callables below are the hand-written rejection predicates the domains
replaced, copied as they were.  Each spec's Domain must give the same verdict
and the same reason string as its reference on the draw streams the report
digests pin and on seeded assignments with small numerators and denominators,
where every integer condition is likely.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from binomsums.catalog.entries import REGISTRY, draw_for_entry
from binomsums.catalog.suite import WZ_N_MAX
from binomsums.jets import Jet2
from binomsums.params import Domain, ParamSpec, draws
from binomsums.poly import RatFunc
from binomsums.wz import PAIR_NAMES, load_pair

try:
    from hypothesis import given, settings, strategies as st
except ImportError:          # optional test dependency: the small rationals alone run
    st = None

F = Fraction


# -- the reference predicates, as they were ----------------------------------

def _accept(n_max, a):
    return None


def is_neg_int(q: Fraction) -> bool:
    return q.denominator == 1 and q < 0


def not_negative_integers(*names: str):
    def reject(n_max, a):
        for name in names:
            if is_neg_int(a[name]):
                return f"{name} is a negative integer"
        return None
    return reject


def _reject_id05(n_max, a):
    lam = a["lam"]
    shifted = lam - F(1, 2)
    if shifted.denominator == 1 and 0 <= shifted < n_max:
        return "lam - 1/2 is an integer in [0, n_max): denominator binomial vanishes"
    return None


def _reject_id15(n_max, a):
    s = a["s"]
    if s.denominator == 1 and 0 <= s < n_max:
        return "s in {0..n-1}: digamma pole"
    if is_neg_int(s):
        return "s is a negative integer"
    return None


def _reject_nonzero_t(n_max, a):
    if a["t"] == 0:
        return "t = 0 excluded"
    return None


def _reject_thm1(n_max: int, a: dict) -> str | None:
    if is_neg_int(a["alpha"]) or is_neg_int(a["beta"]):
        return "negative integer parameter"
    if (a["beta"] - a["alpha"]).denominator == 1:
        return "beta - alpha is an integer (boundary binomials may vanish)"
    return None


def _reject_thm2(n_max: int, a: dict) -> str | None:
    if is_neg_int(a["s"]) or is_neg_int(a["t"]):
        return "negative integer parameter"
    if is_neg_int(a["s"] + a["t"]):
        return "s + t is a negative integer (denominator products vanish)"
    return None


def _reject_thm3(n_max: int, a: dict) -> str | None:
    if is_neg_int(a["s"]) or is_neg_int(a["p"]):
        return "negative integer parameter"
    total = a["s"] + a["p"]
    if total.denominator == 1 and total >= 0:
        return "s + p is a non-negative integer (normalizing binomial may vanish)"
    return None


REFERENCE = {
    **dict.fromkeys(["ID01", "ID11", "ID12", "ID16", "ID17", "ID18", "ID20", "ID20E", "ID22",
                     "ID23", "ID24", "ID25", "ID26"], _accept),
    **dict.fromkeys(["ID02", "ID03", "ID04"], not_negative_integers("alpha", "beta")),
    "ID05": _reject_id05,
    "ID06": not_negative_integers("s", "t"),
    **dict.fromkeys(["ID07", "ID19"], not_negative_integers("s", "p")),
    **dict.fromkeys(["ID08", "ID09", "ID10"], not_negative_integers("beta")),
    **dict.fromkeys(["ID13", "ID14"], _reject_nonzero_t),
    "ID15": _reject_id15,
    "ID21": not_negative_integers("s"),
    "thm1": _reject_thm1,
    "thm2": _reject_thm2,
    "thm3": _reject_thm3,
}

SPECS = {**{eid: e.params for eid, e in REGISTRY.items()},
         **{name: load_pair(name).params for name in PAIR_NAMES}}


def test_every_shipped_spec_holds_a_domain_with_a_reference():
    assert set(REFERENCE) == set(SPECS)
    assert all(type(spec.reject) is Domain for spec in SPECS.values())
    # a domain is data: it survives a round trip through pickle
    assert all(pickle.loads(pickle.dumps(spec.reject)) == spec.reject for spec in SPECS.values())


class _Both:
    """A spec's Domain, each call compared with its reference; the Domain's verdict."""

    def __init__(self, key):
        self.domain, self.reference, self.calls, self.differ = (
            SPECS[key].reject, REFERENCE[key], 0, [])

    def __call__(self, n_max, a):
        got, want = self.domain(n_max, a), self.reference(n_max, a)
        self.calls += 1
        if got != want:
            self.differ.append((n_max, dict(a), got, want))
        return got


def test_domains_match_their_references_on_the_pinned_draw_streams():
    # the catalog's draws ("{seed}:{id}" at n_max + 1) and every row's check at n + 1,
    # the pairs' ("{seed}:wz:{pair}", "{seed}:telescope:{pair}") at the suite's depth and
    # at wz --n-max 20, all at seeds 0-9 with the default 20 samples
    for seed in range(10):
        for eid, entry in REGISTRY.items():
            both = _Both(eid)
            drawn = draw_for_entry(replace(entry, params=replace(entry.params, reject=both)),
                                   seed, 20, entry.n_max)
            for a in drawn:
                for n in range(entry.n_max + 1):
                    both(n + 1, a)
            assert not both.differ, (eid, seed, both.differ[:3])
        for name in PAIR_NAMES:
            both = _Both(name)
            spec = replace(SPECS[name], reject=both)
            for n_max in (WZ_N_MAX, 20):
                for key in (f"{seed}:wz:{name}", f"{seed}:telescope:{name}"):
                    assert None not in list(draws(key, spec, n_max, 20))
            assert not both.differ and both.calls >= 4 * 20, (name, seed, both.differ[:3])


DISTINCT = [k for i, k in enumerate(SPECS) if SPECS[k] not in list(SPECS.values())[:i]]
DEPTHS = (0, 1, 5, 31, 51)


def small_cases(key):
    """10 000 seeded (n_max, assignment) cases for a spec, numerators in -12..12 and
    denominators in 1..3, each at one of DEPTHS."""
    spec, rng = SPECS[key], random.Random(f"domains:{key}")
    pool = [F(p, q) for p in range(-12, 13) for q in (1, 2, 3)]
    values = iter(rng.choices(pool, k=10_000 * len(spec.names)))
    return [(n_max, {name: next(values) for name in spec.names})
            for n_max in rng.choices(DEPTHS, k=10_000)]


@pytest.mark.parametrize("key", DISTINCT)      # each distinct spec once
def test_domains_match_their_references_on_small_rationals(key):
    # every reason the domain can give comes up
    spec, cases = SPECS[key], small_cases(key)
    got = [spec.reject(n_max, a) for n_max, a in cases]
    want = [REFERENCE[key](n_max, a) for n_max, a in cases]
    assert got == want, next((case, g, w) for case, g, w in zip(cases, got, want) if g != w)
    assert set(got) - {None} == {c.reason for c in spec.reject}


def test_an_assignment_admitted_at_a_depth_is_admitted_at_every_smaller_one():
    # check_identity asks a block's domain once, at its top n + 1, and reads every
    # n below: sound only if a domain admits, at every smaller depth, what it
    # admits at a depth (so a draw admitted at n_max + 1 is admitted at each n + 1)
    for seed in range(10):
        for key, spec in SPECS.items():
            if key in REGISTRY:
                entry = REGISTRY[key]
                streams = [(entry.n_max + 1, draw_for_entry(entry, seed, 20, entry.n_max))]
            else:
                streams = [(n_max, draws(f"{seed}:{kind}:{key}", spec, n_max, 20))
                           for kind in ("wz", "telescope") for n_max in (WZ_N_MAX, 20)]
            for depth, drawn in streams:
                for a in drawn:
                    rejected = [(d, spec.reject(d, a)) for d in range(depth)
                                if spec.reject(d, a) is not None]
                    assert not rejected, (key, seed, a, rejected)


@pytest.mark.parametrize("key", DISTINCT)
def test_a_small_rational_admitted_at_a_depth_is_admitted_at_every_smaller_one(key):
    # each distinct assignment of the small-rational cases, at each of DEPTHS up to
    # the deepest it comes with: the depths that admit it are the smallest ones
    spec, deepest = SPECS[key], {}
    for n_max, a in small_cases(key):
        values = tuple(a.values())
        deepest[values] = max(n_max, deepest.get(values, 0))
    for values, top in deepest.items():
        a = dict(zip(spec.names, values))
        admitted = [spec.reject(d, a) is None for d in DEPTHS if d <= top]
        assert admitted == sorted(admitted, reverse=True), (key, a, admitted)


def admitted_depths(spec, a, top=52):
    """Whether spec's domain admits a at each depth 0..top-1."""
    return [spec.reject(d, a) is None for d in range(top)]


@pytest.mark.parametrize("key", DISTINCT)
def test_a_domain_admits_at_every_depth_below_one_it_admits_at(key):
    # the one invariant behind a block's single domain question: reject(d, a) is
    # None implies reject(d2, a) is None for every d2 < d, at every depth to 51,
    # on small rationals (where every integer condition is likely) and on
    # hypothesis's rationals, integers and half-integers
    spec = SPECS[key]
    for _, a in small_cases(key)[:1000]:
        admitted = admitted_depths(spec, a)
        assert admitted == sorted(admitted, reverse=True), (key, a, admitted)
    if st is None:
        return
    value = st.one_of(st.integers(-60, 60).map(F), st.integers(-60, 60).map(lambda i: F(i, 2)),
                      st.fractions(min_value=-60, max_value=60, max_denominator=100))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(value, min_size=len(spec.names), max_size=len(spec.names)))
    def check(values):
        a = dict(zip(spec.names, values))
        admitted = admitted_depths(spec, a)
        assert admitted == sorted(admitted, reverse=True), (key, a, admitted)

    check()


@pytest.mark.parametrize("key", sorted(SPECS))
def test_a_symbolic_value_breaks_no_constraint(key):
    # a RatFunc or a Jet2 has a denominator too, but no value decides a constraint
    spec = SPECS[key]
    for value in (RatFunc.var("t"), Jet2.variable(F(-2), 1)):
        assert spec.reject(51, dict.fromkeys(spec.names, value)) is None
        if len(spec.names) == 2:        # one symbolic value leaves a joint form undecided
            assert spec.reject(51, {spec.names[0]: F(1, 2), spec.names[1]: value}) is None


def test_a_spec_still_takes_any_callable():
    spec = ParamSpec(("x",), lambda n_max, a: "rejected")
    assert spec.reject(3, {"x": F(1)}) == "rejected"
    assert ParamSpec().reject(3, {}) is None and ParamSpec().reject == Domain()
