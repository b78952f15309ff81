"""Edge points: every parameter domain swept on fixed grids of small p/q.

A drawn parameter is an integer about one time in a hundred, so a domain that
admits a bad integer shows only at some seeds.  Here every parametric catalog
entry is checked at n <= 12, one block per point, on a fixed grid of small
integers and fractions, where the arithmetic is most delicate: no point may
give a fail row, and a skipped row must carry one of its domain's reasons or
a ``pole:`` reason.  The same grids run through the certificate pairs, each
check handed the points as its draws: thm1's and thm2's boundary and
base-edge checks at every admitted point, and the telescoping sums of all
three pairs.  thm3's boundary check is not swept: its domain admits a
positive integer p, where C(n-p, n-k) is 0/0 (ROADMAP item 1).
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from binomsums.catalog.entries import REGISTRY, check_identity
from binomsums.hyperterm import AffineForm
from binomsums.params import Avoid, Domain, not_negative_integers
from binomsums.wz import PAIR_NAMES, load_pair, telescoping_sum_check, verify_wz_pair

F = Fraction
N_MAX = 12
PARAMETRIC = [entry_id for entry_id, entry in REGISTRY.items() if entry.params.names]

# one parameter: every p/q with |p| <= 6 and q <= 3 (27 values)
ONE = sorted({F(p, q) for p in range(-6, 7) for q in (1, 2, 3)})
# more parameters: -4..4 and +-1/2, +-3/2, +-5/2 each (15 values); ID02's four
# parameters take -2..2 and +-1/2, +-3/2 (9 values)
MANY = [F(v) for v in range(-4, 5)] + [F(s * p, 2) for p in (1, 3, 5) for s in (1, -1)]
COARSE = [F(v) for v in range(-2, 3)] + [F(s * p, 2) for p in (1, 3) for s in (1, -1)]
# the pairs: every p/q with |p| <= 4 and q <= 3 (19 values) for each parameter
PAIR_VALUES = sorted({F(p, q) for p in range(-4, 5) for q in (1, 2, 3)})


def _grid(entry_id, names):
    values = ONE if len(names) == 1 else COARSE if entry_id == "ID02" else MANY
    return [dict(zip(names, point)) for point in product(values, repeat=len(names))]


def _unexplained(entry_id, entries=REGISTRY):
    """(points, the rows of the entry's sweep that fail or skip for no reason of
    its domain and no pole)."""
    entry = entries[entry_id]
    reasons = {c.reason for c in entry.params.reject}
    points = _grid(entry_id, entry.params.names)
    rows = [row for a in points for row in check_identity(entry_id, range(N_MAX + 1), a, entries)]
    assert len(rows) == len(points) * (N_MAX + 1)
    return points, [row for row in rows if row.status == "fail" or row.status == "skipped"
                    and row.reason not in reasons and not row.reason.startswith("pole: ")]


@pytest.mark.parametrize("entry_id", PARAMETRIC)
def test_every_entry_passes_or_skips_for_its_domain_at_every_edge_point(entry_id):
    points, bad = _unexplained(entry_id)
    assert len(points) in (27, 15**2, 15**3, 9**4)
    assert not bad, bad[:3]


def test_a_domain_widened_by_one_integer_fails_the_sweep():
    # ID06 with t = -1 admitted: C(t+k, k) = C(k-1, k) vanishes for k >= 1 and the
    # left side divides by it
    entry = REGISTRY["ID06"]
    widened = Domain([*not_negative_integers("s"),
                      Avoid(AffineForm.make(0, {"t": 1}), None, -1, "t is an integer below -1")])
    entries = {"ID06": replace(entry, params=replace(entry.params, reject=widened))}
    _, bad = _unexplained("ID06", entries)
    assert bad and {row.status for row in bad} == {"fail"}
    assert {row.params["t"] for row in bad} == {F(-1)}


def _admitted(pair):
    names = pair.params.names
    return [a for point in product(PAIR_VALUES, repeat=len(names))
            if pair.params.reject(N_MAX, a := dict(zip(names, point))) is None]


@pytest.mark.parametrize("name, rows", [("thm1", 333), ("thm2", 427)])
def test_each_pair_passes_its_boundary_checks_at_every_admitted_edge_point(name, rows):
    pair = load_pair(name)
    points = _admitted(pair)
    verified = verify_wz_pair(pair, N_MAX, points)
    assert len(verified) == 1 + 2 * len(points) == rows
    assert [row for row in verified if row.status != "pass"] == []


@pytest.mark.parametrize("name", PAIR_NAMES)
def test_each_pair_telescopes_or_meets_a_pole_at_every_admitted_edge_point(name):
    pair = load_pair(name)
    points = _admitted(pair)
    rows = telescoping_sum_check(pair, N_MAX, points)
    assert len(rows) == len(points) > 0
    assert [row for row in rows if not (row.status == "pass" or row.status == "skipped"
                                        and row.reason.startswith("skipped: pole ("))] == []
