"""The identity catalog: entries, parameter domains, single checks.

Each entry binds an id to independent left/right evaluators (see lhs.py and
rhs.py), its parameters and their domain (a :class:`~binomsums.params.ParamSpec`
holding a :class:`~binomsums.params.Domain` of ``Avoid`` data), and a default
depth n_max.  A domain excludes for two reasons: hypotheses of the statements
(parameters that must not be negative integers) and evaluability (digamma
poles at s in {0..n-1}, a vanishing denominator binomial, t = 0 for the
Legendre entries), decided at the largest n a draw will be used with and
asked again once per check, at the top of its n.

ID04's sides return the whole row (row, den) over its inner index j = 0..n,
and the check compares the two rows.  ``_per_index`` holds a side's last row
at one n, in its own closure, and gives it, or with a[inner] one entry of it,
divided once, so a wrong row on one side cannot appear on the other and cancel.
The held row is keyed on n and the identity (``is``) of the other values:
RatFunc and Jet2 values are unhashable, values are immutable, a per-j caller
hands every j the same objects, and the key holds strong references, so no id
is reused while it is the key.

:func:`check_identity` is the one guarded evaluation, and where a catalog
row divides: every side, a mutation's included, hands back (num, den)
pairs, and a pair leaves through ``exact.over`` alone.  Int pairs are equal
iff their cross products are, and a pass row builds one ``Fraction`` for
both sides, from the pair with the shorter den; a fail row, a zero den and
the other rings divide each side's pair, the left first; each row carries
the assignment itself.  :func:`draw_for_entry` draws through
:func:`~binomsums.params.draws` with the key ``"{seed}:{entry id}"``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
from typing import Callable, Mapping

from ..exact import Pole, block, over
from ..hyperterm import AffineForm
from ..params import N_MAX, Avoid, Domain, ParamSpec, ResultRow, draws, not_negative_integers
from . import lhs, rhs

F = Fraction

__all__ = [
    "REGISTRY",
    "IdentityEntry",
    "ParamSpec",
    "apply_mutations",
    "check_identity",
    "draw_for_entry",
    "MUTATIONS",
]


@dataclass(frozen=True)
class IdentityEntry:
    id: str
    statement: str
    params: ParamSpec
    lhs: Callable
    rhs: Callable
    n_max: int
    inner_index: str | None = None


# -- parameter domains ------------------------------------------------------

_NOT_NEG_AB = ParamSpec(("alpha", "beta"), not_negative_integers("alpha", "beta"))
_NOT_NEG_B = ParamSpec(("beta",), not_negative_integers("beta"))
_LEGENDRE_T = ParamSpec(("t",), Domain([Avoid(AffineForm.make(0, {"t": 1}), 0, 1,
                                              "t = 0 excluded")]))
_ID05 = ParamSpec(("lam",), Domain([Avoid(
    AffineForm.make(F(-1, 2), {"lam": 1}), 0, N_MAX,
    "lam - 1/2 is an integer in [0, n_max): denominator binomial vanishes")]))
_ID15 = ParamSpec(("s",), Domain([Avoid(AffineForm.make(0, {"s": 1}), 0, N_MAX,
                                        "s in {0..n-1}: digamma pole"),
                                  *not_negative_integers("s")]))


def _per_index(side, inner):
    """side over a range of n; at one n its held last row, or with a[inner] one entry of it."""
    kept = None, None, None, None     # (n, other names), their values, row, den

    def view(n, a):
        nonlocal kept
        if type(n) is range:
            return side(n, a)
        key = n, [k for k in a if k != inner]
        if key != kept[0] or any(v is not a[k] for k, v in zip(key[1], kept[1])):
            kept = key, [a[k] for k in key[1]], *side(range(n, n + 1), a)[0]
        return over(kept[2][int(a[inner])], kept[3]) if inner in a else kept[2:]

    return view


def _entry(eid, statement, params, n_max, inner_index=None):
    left, right = (_per_index(side, inner_index) if inner_index else block(side)
                   for side in (getattr(lhs, eid.lower()), getattr(rhs, eid.lower())))
    return IdentityEntry(eid, statement, params, left, right, n_max, inner_index)


REGISTRY: dict[str, IdentityEntry] = {e.id: e for e in [
    _entry("ID01",
           "sum C(n,k) C(n+k,k) x^k = sum (-1)^(n+k) C(n,k) C(n+k,k) (x+1)^k",
           ParamSpec(("x",)), 30),
    _entry("ID02",
           "sum C(a,n-k) C(b+k,k) x^k y^(n-k) = "
           "sum (-1)^(n+k) C(b-a+n,n-k) C(b+k,k) (x+y)^k y^(n-k)",
           ParamSpec(("alpha", "beta", "x", "y"),
                     not_negative_integers("alpha", "beta")), 30),
    _entry("ID03",
           "sum C(a,n-k) C(b+k,k) x^k = sum (-1)^(n+j) C(b-a+n,n-j) C(b+j,j) (x+1)^j",
           ParamSpec(("alpha", "beta", "x"),
                     not_negative_integers("alpha", "beta")), 30),
    _entry("ID04",
           "sum (-1)^(k+j) C(b+k,k) C(k,j) C(a,n-k) = (-1)^(n+j) C(b+j,j) C(b-a+n,n-j)",
           _NOT_NEG_AB, 30, inner_index="j"),
    _entry("ID05",
           "4^n C(lam,n) = C(2 lam,n) sum C(n,k) C(n-lam-1/2,k) / C(k-lam-1/2,k)",
           _ID05, 30),
    _entry("ID06",
           "sum C(n,k) C(s,k) / C(t+k,k) = prod_{i=1..n} (s+t+i)/(t+i)",
           ParamSpec(("s", "t"), not_negative_integers("s", "t")), 30),
    _entry("ID07",
           "sum (-1)^(n+k) C(s+k,k) C(n-p,n-k) = C(s+p,n)   [both sides / C(n,p)]",
           ParamSpec(("s", "p"), not_negative_integers("s", "p")), 30),
    _entry("ID08",
           "sum C(n,k) C(b+k,k) x^k = sum (-1)^(n+k) C(n,k) C(b+k,n) (1+x)^k",
           ParamSpec(("beta", "x"), not_negative_integers("beta")), 30),
    _entry("ID09",
           "sum (-1)^k C(n,k) C(b+k,n) = (-1)^n",
           _NOT_NEG_B, 30),
    _entry("ID10",
           "sum (-1)^k C(n,k) C(b+k,k) = (-1)^n C(b,n)",
           _NOT_NEG_B, 30),
    _entry("ID11",
           "H_n = 1/2 sum (-1)^(n+k) C(n,k) C(n+k,k) H_{n+k}",
           ParamSpec(), 100),
    _entry("ID12",
           "sum C(n,k) C(2k,k) x^k / 4^k = 4^-n sum C(2k,k) C(2n-2k,n-k) (1+x)^k",
           ParamSpec(("x",)), 30),
    _entry("ID13",
           "P_n((t^2+1)/(2t)) = t^-n sum C(n,k) C(2k,k) ((t^2-1)/4)^k",
           _LEGENDRE_T, 50),
    _entry("ID14",
           "sum (-1)^k C(n,k) P_k((t^2+1)/(2t)) t^k = C(2n,n) ((1-t^2)/4)^n",
           _LEGENDRE_T, 50),
    _entry("ID15",
           "sum (-1)^(n+k) C(n,k) C(s+k,k) H_k = C(s,n) (H_n + sum_{i<n} 1/(s-i))",
           _ID15, 30),
    _entry("ID16",
           "H_n = 1/2 sum (-1)^(n+k) C(n,k) C(n+k,k) H_k",
           ParamSpec(), 100),
    _entry("ID17",
           "sum (-1)^k C(n,k) C(2k,k) H_k / 4^k = 2^(1-2n) C(2n,n) (H_n - H_{2n})",
           ParamSpec(), 100),
    _entry("ID18",
           "H_n^2 = 1/4 sum (-1)^(n+k) C(n,k) C(n+k,k) (H_k^2 + H_k^(2))",
           ParamSpec(), 100),
    _entry("ID19",
           "sum C(s+p,k) C(n-p,n-k) = C(s+n,n)   [both sides / C(n,p)]",
           ParamSpec(("s", "p"), not_negative_integers("s", "p")), 30),
    _entry("ID20",
           "sum 4^k C(n,k)^2 / C(2k,k) = C(4n,2n) / C(2n,n)",
           ParamSpec(), 100),
    _entry("ID20E",
           "sum C(2n,2k) C(2n-2k,n-k) 4^k = C(4n,2n)",
           ParamSpec(), 100),
    _entry("ID21",
           "sum C(s+k,k) C(2n-2k,n-k) 4^k = C(2n,n) C(2n+2s+1,2s+1) / C(n+s,n)",
           ParamSpec(("s",), not_negative_integers("s")), 30),
    _entry("ID22",
           "sum C(2k,k) H_{n-k} / 4^k = (2n+1) 4^-n C(2n,n) (2 H_{2n+1} - H_n - 2)",
           ParamSpec(), 100),
    _entry("ID23",
           "sum k C(n,k)^2 = (n/2) C(2n,n)",
           ParamSpec(), 100),
    _entry("ID24",
           "sum C(n,k)^2 H_k = C(2n,n) (2 H_n - H_{2n})",
           ParamSpec(), 100),
    _entry("ID25",
           "sum C(n,k)^2 H_k H_{n-k} = C(2n,n) ((H_{2n}-2H_n)^2 + H_n^(2) - H_{2n}^(2))",
           ParamSpec(), 50),
    _entry("ID26",
           "sum C(n,k)^2 (H_k^2 + H_k^(2)) = "
           "C(2n,n) ((H_{2n}-2H_n)^2 + 2 H_n^(2) - H_{2n}^(2))",
           ParamSpec(), 50),
]}


# ---------------------------------------------------------------------------
# Mutations (negative controls only; see the CLI --mutate flag)
# ---------------------------------------------------------------------------

def _id24_flip_h2n(entries: dict[str, IdentityEntry]) -> dict[str, IdentityEntry]:
    from ..exact import central_binomial, harmonic

    def flipped_rhs(ns, a):
        return [(central_binomial(n) * (2 * harmonic(n) + harmonic(2 * n))).as_integer_ratio()
                for n in ns]

    return {**entries, "ID24": replace(entries["ID24"], rhs=block(flipped_rhs))}


MUTATIONS: dict[str, Callable[[dict], dict]] = {
    "id24-flip-h2n": _id24_flip_h2n,
}


def apply_mutations(names: tuple[str, ...]) -> dict[str, IdentityEntry]:
    entries = REGISTRY
    for name in names:
        if name not in MUTATIONS:
            raise ValueError(f"unknown mutation {name!r}; known: "
                             + ", ".join(sorted(MUTATIONS)))
        entries = MUTATIONS[name](entries)
    return entries


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def check_identity(entry_id: str, n: int | range, assignment: Mapping[str, Fraction],
                   entries: dict[str, IdentityEntry] | None = None) -> ResultRow | list[ResultRow]:
    """The report's row of one check, pass iff both sides are exactly equal;
    for a range of n, the draw's rows over it in n order, each side one block.

    Skipped where the domain rejects the assignment at n + 1 or a side hits a
    ``Pole``; a fail row naming any other division by zero.  A block asks the
    domain once, at its top (a domain admits at every depth below one it
    admits at), and where that rejects or a side raises it is re-read n by n,
    so each row keeps its reason.  For an entry with an inner index both sides
    are rows over 0..n (module docstring); the first index where they differ
    is reported, n for a pass.  Every row's params is ``assignment`` itself."""
    entry = (entries or REGISTRY)[entry_id]
    many = type(n) is range
    reason = entry.params.reject((n[-1] if many else n) + 1, assignment)

    def compared(m, left, right):
        tag = ""
        if entry.inner_index:       # each side is its whole j-row (row, den)
            (lrow, lden), (rrow, rden) = left, right
            ls, rs = ((rden // (g := gcd(lden, rden)), lden // g)     # over lcm(lden, rden)
                      if type(lden) is type(rden) is int else (rden, lden))
            j = next((j for j in range(m) if lrow[j] * ls != rrow[j] * rs), m)
            left, right = (lrow[j], lden), (rrow[j], rden)
            tag = f" at {entry.inner_index}={j}"
        ln, ld = left if type(left) is tuple else (left.numerator, left.denominator)
        rn, rd = right if type(right) is tuple else (right.numerator, right.denominator)
        ints = type(ln) is type(ld) is type(rn) is type(rd) is int and ld and rd
        if ints and ln * rd == rn * ld:     # p/q = r/s iff ps = rq: one division for both
            value = over(ln, ld) if abs(ld) <= abs(rd) else over(rn, rd)    # the shorter den
            return ResultRow(entry_id, assignment, m, value, value, "pass", "")
        left, right = over(ln, ld), over(rn, rd)    # a fail, a zero den or another ring
        status = "pass" if not ints and left == right else "fail"
        return ResultRow(entry_id, assignment, m, left, right, status,
                         f"sides differ{tag}" if status == "fail" else "")

    status = "skipped"
    try:
        if reason is None:
            left, right = entry.lhs(n, assignment), entry.rhs(n, assignment)
            return list(map(compared, n, left, right)) if many else compared(n, left, right)
    except ZeroDivisionError as exc:
        status, reason = (("skipped", f"pole: {exc}") if isinstance(exc, Pole)
                          else ("fail", f"unexpected {type(exc).__name__}: {exc}"))
    return ([check_identity(entry_id, m, assignment, entries) for m in n] if many
            else ResultRow(entry_id, assignment, n, None, None, status, reason))


def draw_for_entry(entry: IdentityEntry, seed: int, samples: int,
                   n_max: int) -> list[dict[str, Fraction] | None]:
    """Seeded parameter draws for an entry, rejection-resampled.

    Deterministic in (seed, entry id) alone, so filtered runs reproduce the
    rows of a full run.  Entries without parameters get one empty draw; a
    draw that finds no admissible assignment is None.
    """
    if not entry.params.names:
        return [{}]
    return list(draws(f"{seed}:{entry.id}", entry.params, n_max + 1, samples))
