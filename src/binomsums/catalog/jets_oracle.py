"""Parameter differentiation of the base identities, as an independent
oracle for the harmonic-number corollaries.

The base identities ID06, ID07, ID08 and ID21 hold for every rational value
of their parameters, so both sides lift to jets and every derivative
coefficient must agree.  Each corollary below lifts its base identity once
through ``lift_sides`` and reads the coefficient it needs, rearranged; the
reconstruction formulas combine base-side jet coefficients with harmonic
numbers only, never the corollary's own evaluators, giving a second
computation path for every corollary value.

The ID07 family needs one extra ingredient, applied in ``_id07_undivided``
(read by ID15 and ID18, and through ID15 by ID16 and ID17).  ID07 is stored
with both sides divided by C(n, p); the printed corollaries differentiate
the un-divided form, so both p-lifted jets get multiplied back by the jet
of C(n, p) at p = 0, which is 1 + H_n e + ((H_n^2 + H_n^(2))/2 + c) e^2
with c a constant independent of everything else on the line.  Because the
order-0 coefficients of a verified base identity agree, the two sides shift
by the same unknown multiple of c, so dropping c keeps the comparison exact
and reproduces the printed displays, whose second-order terms are exactly
the c-free combinations.
"""

from __future__ import annotations

from fractions import Fraction

from ..exact import harmonic
from ..jets import Jet2
from .entries import REGISTRY

F = Fraction

__all__ = ["lift_sides", "oracle"]


def lift_sides(base_id: str, n: int, assignment: dict[str, Fraction],
               *names: str) -> tuple[Jet2, Jet2]:
    """Both sides of a base identity over jets at the assignment, the named
    parameters lifted into jet slots 1 and 2 in order; with no names this is
    plain evaluation."""
    entry = REGISTRY[base_id]
    lifted: dict[str, object] = dict(assignment)
    for slot, name in enumerate(names, start=1):
        lifted[name] = Jet2.variable(assignment[name], slot)
    left = entry.lhs(n, lifted)
    right = entry.rhs(n, lifted)
    if not isinstance(left, Jet2):
        left = Jet2.const(left)
    if not isinstance(right, Jet2):
        right = Jet2.const(right)
    return left, right


def _id07_undivided(n: int, s: Fraction) -> tuple[Jet2, Jet2]:
    """ID07's sides at p = 0, p lifted, times the rational part of the jet of
    C(n, p) (see module docstring)."""
    left, right = lift_sides("ID07", n, {"s": s, "p": F(0)}, "p")
    h = harmonic(n)
    u = Jet2({(0, 0): F(1), (1, 0): h, (2, 0): (h * h + harmonic(n, 2)) / 2})
    return left * u, right * u


# ---------------------------------------------------------------------------
# Corollary reconstructions (printed lhs, printed rhs), jets-only paths
# ---------------------------------------------------------------------------

def oracle_id15(n: int, s: Fraction) -> tuple[Fraction, Fraction]:
    left, right = _id07_undivided(n, s)
    return left.first(), right.first()


def oracle_id16(n: int) -> tuple[Fraction, Fraction]:
    left, right = oracle_id15(n, F(n))
    return right / 2, left / 2


def oracle_id17(n: int) -> tuple[Fraction, Fraction]:
    left, right = oracle_id15(n, F(-1, 2))
    sign = -1 if n % 2 else 1
    return sign * left, sign * right


def oracle_id18(n: int) -> tuple[Fraction, Fraction]:
    left, right = _id07_undivided(n, F(n))
    return right.second() / 4, left.second() / 4


def oracle_id11(n: int) -> tuple[Fraction, Fraction]:
    jl, jr = lift_sides("ID08", n, {"beta": F(n), "x": F(0)}, "beta")
    h_n, half_sum = oracle_id16(n)
    return h_n, (jr.first() - jl.first()) / 2 + half_sum


def oracle_id22(n: int) -> tuple[Fraction, Fraction]:
    left, right = lift_sides("ID21", n, {"s": F(0)}, "s")
    scale = F(1, 4**n)
    return left.first() * scale, right.first() * scale


def _h_combo(jet: Jet2, n: int) -> Fraction:
    return harmonic(n) * jet.value - jet.first()


def oracle_id24(n: int) -> tuple[Fraction, Fraction]:
    jl, jr = lift_sides("ID06", n, {"s": F(n), "t": F(0)}, "s")
    return _h_combo(jl, n), _h_combo(jr, n)


def oracle_id25(n: int) -> tuple[Fraction, Fraction]:
    jl, jr = lift_sides("ID06", n, {"s": F(n), "t": F(0)}, "s", "t")
    h = harmonic(n)
    return (jl.mixed() + h * _h_combo(jl, n),
            jr.mixed() + h * _h_combo(jr, n))


def oracle_id26(n: int) -> tuple[Fraction, Fraction]:
    jl, jr = lift_sides("ID06", n, {"s": F(n), "t": F(0)}, "t")
    return jl.second(), jr.second()


ORACLES = {
    "ID11": oracle_id11,
    "ID15": oracle_id15,
    "ID16": oracle_id16,
    "ID17": oracle_id17,
    "ID18": oracle_id18,
    "ID22": oracle_id22,
    "ID24": oracle_id24,
    "ID25": oracle_id25,
    "ID26": oracle_id26,
}


def oracle(entry_id: str, n: int, **params) -> tuple[Fraction, Fraction]:
    """Jet-path values of a corollary's printed sides; ID15 takes s."""
    return ORACLES[entry_id](n, **params)
