"""Certificate pairs and their verification.

A pair couples a hypergeometric term T(n, k) with a certificate ratio
c(n, k) = G(n, k)/T(n, k) and an orientation sigma in {+1, -1} such that

    sigma * (T(n+1, k) - T(n, k)) = G(n, k+1) - G(n, k).

Dividing that difference equation by T(n, k) turns it into an identity of
rational functions:

    sigma * (r_n - 1) - c(n, k+1) * r_k + c(n, k) = 0

with r_n = T(n+1,k)/T(n,k) and r_k = T(n,k+1)/T(n,k); the left-hand side is
:func:`certificate_residual`, and the pair is certified symbolically when
the residual normalizes to the zero rational function.  This sidesteps the
removable 0*inf points of G itself (e.g. at k = n+1) that a pointwise check
would trip over.

Verification of a pair combines
  (a) the symbolic residual check,
  (b) boundary vanishing G(n, 0) = G(n, n+2) = 0, which is what collapses
      the telescoped sum, and
  (c) the base and edge values T(0, 0) = 1 and T(n, n+1) = 0 that convert
      "the sum is constant" into "the sum is 1".
(b), (c) and the telescoped sums run on seeded parameter draws, each draw's
grid read in one pass, one block of every j per n (``HyperTerm.grid``) that is
tested with list operations; the certificate is bound once per draw to int
polynomials read along j by Horner's rule, its numerator only where T is not 0.
A draw of (b), (c) fails at a pole of the certificate at any boundary point
first, else at the term's first failing point in (n, j, k = 0, n+2, n+1) order.
Both checks return the report's own rows (:class:`~binomsums.params.ResultRow`,
id ``WZ-<pair>``), each reason prefixed by the check that gave it.

Each pair's parameter hypotheses are a :class:`~binomsums.params.Domain` of
``Avoid`` data, as a catalog entry's are.  Both checks are handed their draws
(``catalog.suite.wz_rows`` makes them with :func:`binomsums.params.draws`),
and each row carries its draw itself.  In the telescoping check only a
:class:`~binomsums.exact.Pole` is a skip; any other division by zero, and a
factor that is not rational at the draw, is a failure.

The three shipped pairs live as plain-text fixtures next to this module;
each file carries exactly the lines

    term: sign(<affine>) * <rational> * binom(<affine>,<affine>)^<+1|-1> * ...
    certificate: <expression>
    orientation: +1|-1

with '#' comments allowed.  One grammar reads both expressions
(:func:`binomsums.expr.parse_term`, :func:`~binomsums.expr.parse_ratfunc`);
every malformed field is a WZFixtureError at the line and column of its
token, an unknown variable or a zero divisor in the certificate included.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from operator import mul

from .exact import Pole
from .expr import parse_ratfunc, parse_term
from .hyperterm import AffineForm, HyperTerm
from .params import Avoid, Domain, ParamSpec, ResultRow, not_negative_integers
from .poly import VARS, RatFunc, unpack

__all__ = [
    "WZFixtureError",
    "WZPair",
    "builtin_pairs",
    "certificate_residual",
    "parse_pair_file",
    "telescoping_sum_check",
    "verify_wz_pair",
]


class WZFixtureError(ValueError):
    """Malformed certificate fixture; carries line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class WZPair:
    """A term, its certificate ratio, and bookkeeping for checking it."""

    name: str
    term: HyperTerm
    certificate: RatFunc
    orientation: int
    params: ParamSpec
    extra_index: str | None = None   # inner summation index (ranges 0..n)

    def scaled(self, factor: Fraction) -> "WZPair":
        """Copy with the certificate multiplied by a constant (negative control)."""
        return replace(self, certificate=self.certificate * factor)


# ---------------------------------------------------------------------------
# Fixture parsing
# ---------------------------------------------------------------------------

def _parse_field(parse, text: str, line: int, col0: int):
    """``parse(text)``; an error is a WZFixtureError at the offset of its token."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        reason = getattr(exc, "reason", str(exc))      # a ring error has no reason
        raise WZFixtureError(reason, line, col0 + exc.offset + 1) from exc


def parse_pair_file(text: str) -> tuple[HyperTerm, RatFunc, int]:
    """Parse a fixture file body into (term, certificate, orientation)."""
    fields: dict[str, tuple[str, int, int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if ":" not in line:
            raise WZFixtureError("expected 'key: value'", line_no, 1)
        key, value = line.split(":", 1)
        key = key.strip()
        if key not in ("term", "certificate", "orientation"):
            raise WZFixtureError(f"unknown key {key!r}", line_no, 1)
        if key in fields:
            raise WZFixtureError(f"duplicate key {key!r}", line_no, 1)
        fields[key] = (value, line_no, line.index(":") + 1)
    for key in ("term", "certificate", "orientation"):
        if key not in fields:
            raise WZFixtureError(f"missing {key!r} line", len(text.splitlines()) + 1, 1)

    term = _parse_field(parse_term, *fields["term"])
    certificate = _parse_field(parse_ratfunc, *fields["certificate"])
    value, line_no, col0 = fields["orientation"]
    orientation_text = value.strip()
    if orientation_text not in ("+1", "-1"):
        raise WZFixtureError("orientation must be +1 or -1", line_no, col0 + 1)
    return term, certificate, int(orientation_text)


# ---------------------------------------------------------------------------
# The three shipped pairs
# ---------------------------------------------------------------------------

def _spec(names, coeffs, lo, hi, reason):
    """No parameter a negative integer, and sum(coeffs * names) not an integer in [lo, hi)."""
    return ParamSpec(names, Domain([
        *not_negative_integers(*names, reason="negative integer parameter"),
        Avoid(AffineForm.make(0, dict(zip(names, coeffs))), lo, hi, reason)]))


_PAIR_INFO = {
    "thm1": (_spec(("alpha", "beta"), (-1, 1), None, None,
                   "beta - alpha is an integer (boundary binomials may vanish)"), "j"),
    "thm2": (_spec(("s", "t"), (1, 1), None, 0,
                   "s + t is a negative integer (denominator products vanish)"), None),
    # admits a positive integer p, where C(n-p, n-k) is 0/0 (ROADMAP item 1)
    "thm3": (_spec(("s", "p"), (1, 1), 0, None,
                   "s + p is a non-negative integer (normalizing binomial may vanish)"), None),
}
PAIR_NAMES = tuple(_PAIR_INFO)


@functools.cache
def load_pair(name: str) -> WZPair:
    """Load one of the shipped pairs (thm1, thm2, thm3) from its fixture."""
    if name not in _PAIR_INFO:
        raise KeyError(f"unknown pair {name!r}; known: {', '.join(PAIR_NAMES)}")
    text = resources.files("binomsums.fixtures").joinpath(f"{name}.wz").read_text()
    term, certificate, orientation = parse_pair_file(text)
    params, extra = _PAIR_INFO[name]
    return WZPair(name, term, certificate, orientation, params, extra)


def builtin_pairs() -> dict[str, WZPair]:
    return {name: load_pair(name) for name in PAIR_NAMES}


# ---------------------------------------------------------------------------
# Symbolic residual
# ---------------------------------------------------------------------------

def certificate_residual(pair: WZPair) -> RatFunc:
    """sigma*(r_n - 1) - c(n, k+1)*r_k + c(n, k); zero iff the pair verifies."""
    r_n = pair.term.shift_ratio("n")
    r_k = pair.term.shift_ratio("k")
    c = pair.certificate
    return pair.orientation * (r_n - 1) - c.shift("k", 1) * r_k + c


# ---------------------------------------------------------------------------
# Verification rows
# ---------------------------------------------------------------------------

def _row(pair: WZPair, params: dict, status: str, reason: str) -> ResultRow:
    """A report row of the pair at the draw ``params``: id WZ-<name>, no n and no sides."""
    return ResultRow(f"WZ-{pair.name}", params, None, None, None, status, reason)


def _int_poly(poly, assign, inner):
    """poly with assign put in, summed per free monomial (n, k, inner) and scaled
    to ints by one positive int, each value p/q put in as p^e q^(d-e), d its
    variable's degree: a function of (n, k, js) giving its values at (n, j, k)
    for j in js (j the inner index), by Horner's rule in j."""
    exps = [(dict(zip(VARS, unpack(key))), c) for key, c in poly.terms.items()]
    degree = {name: max([exp[name] for exp, _ in exps] + [0]) for name in assign}
    merged = {}
    for exp, c in exps:
        for name, value in assign.items():
            c *= value.numerator ** exp[name] * value.denominator ** (degree[name] - exp[name])
        monomial = exp["n"], exp["k"], exp.get(inner, 0)
        merged[monomial] = merged.get(monomial, 0) + c
    terms = [(c, monomial) for monomial, c in merged.items() if c]
    powers = [[(c, a, b) for c, (a, b, e) in terms if e == p]     # the highest first
              for p in range(max([e for _, (_, _, e) in terms] + [0]), -1, -1)]

    def values(n, k, js):
        cs = [sum(c * n ** a * k ** b for c, a, b in group) for group in powers]
        row = [cs[0]] * len(js)
        for c in cs[1:]:
            row = [v * j + c for v, j in zip(row, js)]
        return row
    return values


def verify_wz_pair(pair: WZPair, n_max: int, param_draws: list[dict | None]) -> list[ResultRow]:
    """The symbolic row, then a boundary and a base-edge row per draw; a draw
    that fails is one fail row ``draw-<i>: ...`` in their place: a pole of the
    certificate at any k = 0 or n+2 first, read before the term, else the
    term's first failing point in (n, j, k = 0, n+2, n+1) order.  A None draw
    is one fail row, ``draw-<i>: could not draw parameters``."""
    zero = certificate_residual(pair).is_zero
    rows = [_row(pair, {}, "pass" if zero else "fail",
                 f"symbolic residual {'=' if zero else '!='} 0")]

    for index, assign in enumerate(param_draws):
        if assign is None:
            rows.append(_row(pair, {}, "fail", f"draw-{index}: could not draw parameters"))
            continue
        # each row names its own first failing point; "" while none failed
        boundary_detail, base_detail = "", ""
        try:
            inner = pair.extra_index
            # numerator and denominator bound apart, not through RatFunc,
            # so that a common factor vanishing on the grid stays a pole
            cert_num, cert_den = (_int_poly(poly, assign, inner)
                                  for poly in (pair.certificate.num, pair.certificate.den))
            reads = [(n, range(n + 1) if inner else (0,), (0, n + 2, n + 1))
                     for n in range(n_max + 1)]
            if not all(all(cert_den(n, k, js)) for n, js, ks in reads for k in ks[:2]):
                raise ZeroDivisionError("pole at assignment")
            grid = pair.term.grid(assign, "n", inner, "k", reads)
            for (term_rows, scales, den), (n, js, _) in zip(grid, reads):
                # the term along j at k = 0, n+2 and n+1; G's numerator is read only where
                # the term is nonzero, and the first (j, k) where G is nonzero names the row
                at_0, at_end, at_edge = zip(*term_rows)
                hits = []
                for k, at_k in ((0, at_0), (n + 2, at_end)) if not boundary_detail else ():
                    if nonzero := [j for j, s, t in zip(js, scales, at_k) if s and t]:
                        hits += [(j, k) for j, c in zip(nonzero, cert_num(n, k, nonzero)) if c]
                if hits:
                    boundary_detail = f"G({n},{min(hits)[1]}) != 0"
                # base and edge values of the term itself
                if n == 0 and scales[0] * at_0[0] != den:
                    base_detail = "T(0,0) != 1"
                if any(map(mul, scales, at_edge)) and not base_detail:
                    base_detail = f"T({n},{n+1}) != 0"
        except (ZeroDivisionError, ValueError) as exc:
            # a ValueError: a factor that is not rational at this draw
            cause = "pole" if isinstance(exc, ZeroDivisionError) else type(exc).__name__
            rows.append(_row(pair, assign, "fail", f"draw-{index}: unexpected {cause}: {exc}"))
            continue
        rows.append(_row(pair, assign, "fail" if boundary_detail else "pass",
                         f"boundary: {boundary_detail or 'G(n,0) = G(n,n+2) = 0'}"))
        rows.append(_row(pair, assign, "fail" if base_detail else "pass",
                         f"base-edge: {base_detail or 'T(0,0) = 1, T(n,n+1) = 0'}"))
    return rows


# ---------------------------------------------------------------------------
# Telescoping sums
# ---------------------------------------------------------------------------

def _telescope(pair: WZPair, n_max: int, assign: dict) -> ResultRow:
    try:
        inner = pair.extra_index
        reads = [(n, range(n + 1) if inner else (0,), range(n + 1)) for n in range(n_max + 1)]
        blocks = pair.term.grid(assign, "n", inner, "k", reads, sums=True)
        for (rows, scales, den), (n, js, _) in zip(blocks, reads):
            sums = list(map(mul, scales, map(sum, rows)))
            if sums.count(den) < len(sums):
                i = next(i for i, total in enumerate(sums) if total != den)
                return _row(pair, assign, "fail", f"sum at n={n}"
                            + (f", j={js[i]}" if inner else "") + f" is {Fraction(sums[i], den)}")
    except Pole as exc:
        return _row(pair, assign, "skipped", f"skipped: pole ({exc})")
    except (ZeroDivisionError, ValueError) as exc:
        return _row(pair, assign, "fail", f"unexpected {type(exc).__name__}: {exc}")
    return _row(pair, assign, "pass", "telescoped sum = 1")


def telescoping_sum_check(pair: WZPair, n_max: int,
                          param_draws: list[dict]) -> list[ResultRow]:
    """Check sum_{k=0..n} T(n,k) == 1 for every n <= n_max: one row per draw.

    For a pair with an inner index the check runs for every value of that
    index in 0..n, for thm1 by the paper's Taylor step: an n's sums for every
    j are its k-row shifted by +1 (``HyperTerm.grid`` with sums).  A draw that
    lands on a ``Pole`` is reported as skipped; any other division by zero,
    or a factor that is not rational at the draw (ValueError), is a failure
    naming the exception.
    """
    return [_telescope(pair, n_max, assign) for assign in param_draws]
