"""Parameter domains, the seeded draw and the report row, shared by the
catalog entries and the certificate pairs.

A :class:`ParamSpec` names an identity's free parameters and holds its
domain ``reject(n_max, assignment) -> reason | None``; each shipped one is a
:class:`Domain`, :class:`Avoid` constraints held as data: an affine form of
the parameters and the integers it must not be.  They encode the statement's
hypotheses (e.g. "alpha, beta are not negative integers") and the values
where an evaluation would hit a pole.  An admitted assignment may still land
on a :class:`~binomsums.exact.Pole`, the only exception a check may report
as "skipped".  Any other division by zero is a defect of the evaluator and
is reported as a failure.  A ``Domain`` that admits an assignment at a depth
admits it at every smaller one (an ``N_MAX`` bound only widens with the
depth), so a check of a block of n asks it once, at the top.

:func:`draw` is the one seeded draw, a plain ``dict`` of ``Fraction`` values,
and :func:`draws` the one loop over it, with one generator per key:
``"{seed}:{entry id}"`` (catalog), ``"{seed}:wz:{pair}"`` (boundary and base
checks) or ``"{seed}:telescope:{pair}"`` (telescoping sums), the pair keys
made in ``catalog.suite.wz_rows``.  Those keys, the draw order, the ``n_max``
handed to the domain and its reasons are part of the byte-stable report.

A :class:`ResultRow` is one verdict of the report: each check is handed its
draws, and a row carries its draw itself (``{}`` if none) and its sides as
values, which the writers render.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .hyperterm import AffineForm

__all__ = ["BOUND", "MAX_TRIES", "N_MAX", "Avoid", "Domain", "ParamSpec", "ResultRow",
           "draw", "draws", "not_negative_integers"]

MAX_TRIES = 1000
BOUND = 100                            # a drawn value's numerator and denominator bound
N_MAX = "n_max"                        # an Avoid bound: the depth the domain is asked at
_RATIONAL = (Fraction, int)            # by type: a Jet2 and a RatFunc have a denominator too


class ResultRow(NamedTuple):
    id: str
    params: Mapping[str, Fraction]     # the draw checked, {} where there is none
    n: int | None
    lhs: Fraction | None
    rhs: Fraction | None
    status: str                        # pass | fail | skipped
    reason: str = ""


class Avoid(NamedTuple):
    """The parameters' affine ``form`` must not be an integer in [lo, hi)."""
    form: AffineForm
    lo: int | None                     # None: no bound
    hi: int | str | None               # None: no bound; N_MAX: the depth asked at
    reason: str


class Domain(tuple):
    """A tuple of Avoid constraints, called as ``(n_max, assignment)``: the first broken
    one's reason, or None.  A value of no rational type (a Jet2, a RatFunc) breaks none."""

    def __new__(cls, constraints: Iterable[Avoid] = ()):
        self = super().__new__(cls, constraints)
        # a form that renders as a name is that parameter alone; None for any other
        self._plan = [(name if (name := c.form.render()).isidentifier() else None, *c)
                      for c in self]
        return self

    def __call__(self, n_max: int, a: Mapping[str, Fraction]) -> str | None:
        for name, form, lo, hi, reason in self._plan:
            v = a[name] if name else None       # a bare parameter is read directly: the hot path
            if not name and all(type(a[p]) in _RATIONAL for p, _ in form.coeffs):
                v = form.split(a)[0]
            if type(v) in _RATIONAL and v.denominator == 1 and (lo is None or lo <= v) and (
                    hi is None or v < (n_max if hi == N_MAX else hi)):
                return reason
        return None


@dataclass(frozen=True)
class ParamSpec:
    names: tuple[str, ...] = ()
    reject: Callable[[int, Mapping[str, Fraction]], str | None] = Domain()


def not_negative_integers(*names: str, reason: str | None = None) -> Domain:
    """Each name, in order, must not be a negative integer."""
    return Domain(Avoid(AffineForm.make(0, {name: 1}), None, 0,
                        reason or f"{name} is a negative integer") for name in names)


def draw(rng: random.Random, spec: ParamSpec, n_max: int) -> dict[str, Fraction] | None:
    """One assignment with numerators in [-BOUND, BOUND] and denominators in
    [1, BOUND], redrawn until ``spec.reject(n_max, ...)`` accepts it; None
    after MAX_TRIES tries."""
    for _ in range(MAX_TRIES):
        assign = {name: Fraction(rng.randint(-BOUND, BOUND), rng.randint(1, BOUND))
                  for name in spec.names}
        if spec.reject(n_max, assign) is None:
            return assign
    return None


def draws(key: str, spec: ParamSpec, n_max: int,
          samples: int) -> Iterator[dict[str, Fraction] | None]:
    """``samples`` draws in order from one generator seeded with ``key``, each
    made as it is asked for."""
    rng = random.Random(key)
    return (draw(rng, spec, n_max) for _ in range(samples))
