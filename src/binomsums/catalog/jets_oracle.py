"""Parameter differentiation of the base identities, as an independent
oracle for the harmonic-number corollaries.

The base identities ID06, ID07, ID08 and ID21 hold for every rational value
of their parameters, so both sides lift to jets and every derivative
coefficient must agree.  Each corollary below is that coefficient equality,
rearranged; the reconstruction formulas combine base-side jet coefficients
with harmonic numbers only, never the corollary's own evaluators, giving a
second computation path for every corollary value.

The ID07 family needs one extra ingredient.  ID07 is stored with both sides
divided by C(n, p); the printed corollaries differentiate the un-divided
form, so both jets get multiplied back by the jet of C(n, p) at p = 0,
which is 1 + H_n e + ((H_n^2 + H_n^(2))/2 + c) e^2 with c a constant
independent of everything else on the line.  Because the order-0
coefficients of a verified base identity agree, the two sides shift by the
same unknown multiple of c, so dropping c keeps the comparison exact and
reproduces the printed displays, whose second-order terms are exactly the
c-free combinations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..exact import harmonic
from ..jets import Jet2
from .entries import REGISTRY

F = Fraction

__all__ = [
    "DerivSpec",
    "derived_identity_via_jets",
    "lift_sides",
    "oracle",
]


@dataclass(frozen=True)
class DerivSpec:
    """Which parameters to differentiate (name, order), total order <= 2."""

    eps: tuple[tuple[str, int], ...] = ()
    rescale: str | None = None      # "binom_n_p": multiply back by jet C(n,p)|p=0

    def __post_init__(self):
        orders = [order for _, order in self.eps]
        if not set(orders) <= {1, 2} or sum(orders) > 2:
            raise ValueError("derivative orders are 1 or 2, at most 2 in total")
        if len(dict(self.eps)) < len(self.eps):
            raise ValueError("a lifted parameter appears twice")
        if self.rescale not in (None, "binom_n_p"):
            raise ValueError(f"unknown rescale {self.rescale!r}")


def _binom_n_p_jet(n: int, slot: int) -> Jet2:
    """Rational part of the jet of C(n, p) at p = 0 (see module docstring)."""
    h = harmonic(n)
    eps1 = (1, 0) if slot == 1 else (0, 1)
    eps2 = (2, 0) if slot == 1 else (0, 2)
    return Jet2({(0, 0): F(1), eps1: h,
                 eps2: (h * h + harmonic(n, 2)) / 2})


def lift_sides(base_id: str, spec: DerivSpec, n: int,
               assignment: dict[str, Fraction]) -> tuple[Jet2, Jet2]:
    """Both sides of a base identity evaluated over jets at the assignment."""
    entry = REGISTRY[base_id]
    lifted: dict[str, object] = dict(assignment)
    slots = {}
    for slot, (name, _) in enumerate(spec.eps, start=1):
        slots[name] = slot
        lifted[name] = Jet2.variable(assignment[name], slot)
    left = entry.lhs(n, lifted)
    right = entry.rhs(n, lifted)
    if not isinstance(left, Jet2):
        left = Jet2.const(left)
    if not isinstance(right, Jet2):
        right = Jet2.const(right)
    if spec.rescale == "binom_n_p":
        u = _binom_n_p_jet(n, slots["p"])
        left = left * u
        right = right * u
    return left, right


def _extract(jet: Jet2, spec: DerivSpec) -> Fraction:
    if not spec.eps:
        return jet.value
    if len(spec.eps) == 2:
        return jet.mixed()
    (_, order), = spec.eps
    return jet.first(1) if order == 1 else jet.second(1)


def derived_identity_via_jets(base_id: str, spec: DerivSpec, n: int,
                              assignment: dict[str, Fraction]
                              ) -> tuple[Fraction, Fraction]:
    """The requested derivative coefficient of each side; equality is the test.

    With an empty spec this is plain evaluation and agrees with
    check_identity on the base entry.
    """
    left, right = lift_sides(base_id, spec, n, assignment)
    return _extract(left, spec), _extract(right, spec)


# ---------------------------------------------------------------------------
# Corollary reconstructions (printed lhs, printed rhs), jets-only paths
# ---------------------------------------------------------------------------

_D_P = DerivSpec((("p", 1),), rescale="binom_n_p")
_D_PP = DerivSpec((("p", 2),), rescale="binom_n_p")


def oracle_id15(n: int, s: Fraction) -> tuple[Fraction, Fraction]:
    return derived_identity_via_jets("ID07", _D_P, n, {"s": s, "p": F(0)})


def oracle_id16(n: int) -> tuple[Fraction, Fraction]:
    left, right = oracle_id15(n, F(n))
    return right / 2, left / 2


def oracle_id17(n: int) -> tuple[Fraction, Fraction]:
    left, right = oracle_id15(n, F(-1, 2))
    sign = -1 if n % 2 else 1
    return sign * left, sign * right


def oracle_id18(n: int) -> tuple[Fraction, Fraction]:
    left, right = derived_identity_via_jets("ID07", _D_PP, n,
                                            {"s": F(n), "p": F(0)})
    return right / 4, left / 4


def oracle_id11(n: int) -> tuple[Fraction, Fraction]:
    jl, jr = lift_sides("ID08", DerivSpec((("beta", 1),)), n,
                        {"beta": F(n), "x": F(0)})
    h_n, half_sum = oracle_id16(n)
    return h_n, (jr.first(1) - jl.first(1)) / 2 + half_sum


def oracle_id22(n: int) -> tuple[Fraction, Fraction]:
    left, right = derived_identity_via_jets("ID21", DerivSpec((("s", 1),)),
                                            n, {"s": F(0)})
    scale = F(1, 4**n)
    return left * scale, right * scale


def _h_combo(jet: Jet2, n: int) -> Fraction:
    return harmonic(n) * jet.value - jet.first(1)


def oracle_id24(n: int) -> tuple[Fraction, Fraction]:
    jl, jr = lift_sides("ID06", DerivSpec((("s", 1),)), n,
                        {"s": F(n), "t": F(0)})
    return _h_combo(jl, n), _h_combo(jr, n)


def oracle_id25(n: int) -> tuple[Fraction, Fraction]:
    spec = DerivSpec((("s", 1), ("t", 1)))
    jl, jr = lift_sides("ID06", spec, n, {"s": F(n), "t": F(0)})
    h = harmonic(n)
    return (jl.mixed() + h * _h_combo(jl, n),
            jr.mixed() + h * _h_combo(jr, n))


def oracle_id26(n: int) -> tuple[Fraction, Fraction]:
    jl, jr = lift_sides("ID06", DerivSpec((("t", 2),)), n,
                        {"s": F(n), "t": F(0)})
    return jl.second(1), jr.second(1)


ORACLES = {
    "ID11": oracle_id11,
    "ID16": oracle_id16,
    "ID17": oracle_id17,
    "ID18": oracle_id18,
    "ID22": oracle_id22,
    "ID24": oracle_id24,
    "ID25": oracle_id25,
    "ID26": oracle_id26,
}


def oracle(entry_id: str, n: int, **params) -> tuple[Fraction, Fraction]:
    """Jet-path values of a corollary's printed sides."""
    if entry_id == "ID15":
        return oracle_id15(n, params["s"])
    return ORACLES[entry_id](n)

