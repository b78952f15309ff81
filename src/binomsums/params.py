"""Parameter domains, the seeded draw and the report row, shared by the
catalog entries and the certificate pairs.

A :class:`ParamSpec` names an identity's free parameters and holds its
rejection predicate ``reject(n_max, assignment) -> reason | None``, which
encodes the statement's hypotheses (e.g. "alpha, beta are not negative
integers") and the values where an evaluation would hit a pole.  An
assignment that passes the predicate may still land on a
:class:`~binomsums.exact.Pole`, the only exception a check may report as
"skipped".  Any other division by zero is a defect of the evaluator and is
reported as a failure.

:func:`draw` is the one seeded draw, and :func:`draws` the one loop over it,
with one generator per key: ``"{seed}:{entry id}"`` (catalog),
``"{seed}:wz:{pair}"`` (boundary and base checks) or
``"{seed}:telescope:{pair}"`` (telescoping sums).  Those keys, the draw order
and the ``n_max`` handed to the predicate are part of the byte-stable report.

A :class:`ResultRow` is one verdict of the report, as the catalog and the
certificate checks give it; its sides are values, which the writers render,
and its draw is :func:`render_draw`'s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, NamedTuple

from .exact import Drawn

__all__ = ["BOUND", "MAX_TRIES", "ParamSpec", "ResultRow", "draw", "draws", "is_neg_int",
           "not_negative_integers", "render_draw"]

MAX_TRIES = 1000
BOUND = 100                            # a drawn value's numerator and denominator bound


class ResultRow(NamedTuple):
    id: str
    params: dict[str, str]
    n: int | None
    lhs: Fraction | None
    rhs: Fraction | None
    status: str                        # pass | fail | skipped
    reason: str = ""


def render_draw(assign: Mapping[str, Fraction]) -> dict[str, str]:
    """A draw as the report shows it: each value as ``str`` gives it."""
    return {k: str(v) for k, v in assign.items()}


def _accept(n_max: int, a: Mapping[str, Fraction]) -> str | None:
    return None


@dataclass(frozen=True)
class ParamSpec:
    names: tuple[str, ...] = ()
    reject: Callable[[int, Mapping[str, Fraction]], str | None] = _accept


def is_neg_int(q: Fraction) -> bool:
    return q.denominator == 1 and q < 0


def not_negative_integers(*names: str):
    def reject(n_max, a):
        for name in names:
            if is_neg_int(a[name]):
                return f"{name} is a negative integer"
        return None
    return reject


def draw(rng: random.Random, spec: ParamSpec, n_max: int) -> dict[str, Fraction] | None:
    """One assignment with numerators in [-BOUND, BOUND] and denominators in
    [1, BOUND], redrawn until ``spec.reject(n_max, ...)`` accepts it; None
    after MAX_TRIES tries.  The values are ``exact.Drawn`` at depth n_max:
    each kernel row is built once at n_max, where the predicate has ruled out
    its poles, and a read at n <= n_max is its prefix."""
    for _ in range(MAX_TRIES):
        assign = {name: Drawn(rng.randint(-BOUND, BOUND), rng.randint(1, BOUND))
                  for name in spec.names}
        if spec.reject(n_max, assign) is None:
            for value in assign.values():
                value.depth = n_max
            return assign
    return None


def draws(key: str, spec: ParamSpec, n_max: int,
          samples: int) -> Iterator[dict[str, Fraction] | None]:
    """``samples`` draws in order from one generator seeded with ``key``, each
    made as it is asked for."""
    rng = random.Random(key)
    return (draw(rng, spec, n_max) for _ in range(samples))
