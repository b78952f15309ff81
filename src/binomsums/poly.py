"""Sparse multivariate polynomials and canonical rational functions over Q.

The variable list is fixed and ordered once for the whole package:

    n, k, j, alpha, beta, s, t, p

Monomials are ordered graded-lexicographically (total degree first, then
the exponents with earlier variables weighing more), and that order is what
"leading term" means everywhere below.  Fixing the order globally makes
canonical forms byte-stable: two RatFunc values are equal as functions iff
they are equal as data.

Each monomial is one int key of packed exponents (Monagan & Pearce 2007):
16-bit fields, the total degree on top, then n, k, ..., p.  A product of
monomials is one int addition, and int order is graded-lex order.  The top
bit of each field is a guard: degrees stay below 2**15 (OverflowError past
that, never a carry into the next field), and a field that goes negative in
a subtraction sets it.  The constructor, ``coeffs()`` and ``render()`` speak
exponent 8-tuples; ``unpack`` turns one key into one.

Canonical form of a RatFunc: numerator and denominator coprime (their gcd
is a unit), denominator primitive with integer coefficients and positive
leading coefficient.  Subtraction therefore normalizes to the zero RatFunc
exactly when the two sides agree as functions, which is the zero-test the
certificate verification reduces to.

Coefficients are stored as nonzero ints over one int denominator den > 0
that shares no factor with all of them, so the stored form is canonical and
``==`` compares the data.  Every operation runs on the ints: a sum adds
them over the lcm of the two denominators, a product convolves them over
d1*d2, and each divides out one gcd with the new denominator; divexact
subtracts from one int working dict in place.  ``coeffs()`` is the Fraction
view.  A RatFunc sum over equal denominators adds the numerators only.

poly_gcd takes one of three routes:

1. Short cut: a zero operand gives the primitive part of the other; a
   nonzero constant operand gives 1 with no further work (most calls made
   while RatFunc canonicalises, whose denominators are mostly constant);
   two monomials give the monomial of the smaller exponents.
2. GCDHEU, the integer-evaluation heuristic (Char, Geddes & Gonnet 1989):
   evaluate one variable at a large integer xi, take the gcd one level
   down, reconstruct coefficients from balanced base-xi digits, and certify
   the candidate by exact trial division.  Certificate residual arithmetic
   produces inputs around total degree 12 in four or five variables, where
   the certified heuristic stays quick.
3. When six evaluation points fail to certify, the primitive
   pseudo-remainder sequence (Collins 1967; Brown 1971), which divides
   every remainder by its content in the other variables *and* by its
   integer content, so coefficient sizes stay bounded.

GCDHEU gives up on coprime inputs whose values have a smooth common part.
With the falling factorial B = s(s-1)...(s-19) from the harmonic entries,
B(xi) is a product of twenty consecutive integers, and gcd(A(xi), B(xi))
carries spurious factors (powers of the primes up to 19) whose product
exceeds xi/2 at all six points, so the digits never reconstruct the true
gcd 1.  Such pairs go to the PRS.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from math import comb, gcd as int_gcd, lcm
from typing import Mapping

__all__ = [
    "VARS",
    "MultiPoly",
    "RatFunc",
    "poly_gcd",
    "unpack",
]

VARS = ("n", "k", "j", "alpha", "beta", "s", "t", "p")
_INDEX = {name: i for i, name in enumerate(VARS)}
_NVARS = len(VARS)
_ZERO_EXP = (0,) * _NVARS

_W = 16                                         # bits per field of a packed key
_FIELDS = struct.Struct(f">{_NVARS + 1}H")      # its fields ("H": _W bits), degree first
_MAXDEG = (1 << _W - 1) - 1                     # below each field's guard bit
_DEG = 1 << _W * _NVARS                         # one in the total-degree field
# one more of VARS[i] (and so one more total degree) is _UNITS[i] more on a key
_UNITS = tuple((1 << _W * i) + _DEG for i in reversed(range(_NVARS)))
_GUARDS = sum(1 << _W * i + _W - 1 for i in range(_NVARS))

_F1 = Fraction(1)


def _pack(exp: tuple[int, ...]) -> int:
    if len(exp) != _NVARS or min(exp) < 0:
        raise ValueError(f"an exponent vector is {_NVARS} non-negative ints, not {exp!r}")
    if sum(exp) > _MAXDEG:
        raise OverflowError(f"total degree {sum(exp)} is past {_MAXDEG}")
    return int.from_bytes(_FIELDS.pack(sum(exp), *exp), "big")


def unpack(key: int) -> tuple[int, ...]:
    """The exponent 8-tuple of a packed monomial key."""
    return _FIELDS.unpack(key.to_bytes(_FIELDS.size, "big"))[1:]


def _reduced(terms: dict, den: int) -> "MultiPoly":
    """The MultiPoly terms/den, for int terms and an int den > 0: the zero terms
    go and both sides are divided by their gcd, which makes the form canonical."""
    for exp in [exp for exp, c in terms.items() if not c]:
        del terms[exp]
    if den != 1:
        g = int_gcd(den, *terms.values())
        if g != 1:
            terms = {exp: c // g for exp, c in terms.items()}
            den //= g
    res = MultiPoly.__new__(MultiPoly)
    res.terms = terms
    res.den = den
    return res


class MultiPoly:
    """Sparse polynomial: map from packed monomial key to nonzero int, over
    the one int den > 0 (see module docstring)."""

    __slots__ = ("terms", "den")

    def __init__(self, terms: Mapping[tuple[int, ...], int | Fraction] | None = None):
        terms = terms or {}
        for c in terms.values():
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"polynomial coefficients are int or Fraction, "
                                f"not {type(c).__name__}")
        # over the lcm of the reduced denominators, no prime divides den and
        # every numerator
        den = lcm(*[c.denominator for c in terms.values()])
        self.terms = {_pack(exp): c.numerator * (den // c.denominator)
                      for exp, c in terms.items() if c}
        self.den = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def const(cls, value) -> "MultiPoly":
        return cls({_ZERO_EXP: value})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        if name not in _INDEX:
            raise ValueError(f"unknown variable {name!r}; known: {', '.join(VARS)}")
        exp = [0] * _NVARS
        exp[_INDEX[name]] = 1
        return cls({tuple(exp): 1})

    # -- structure --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeffs(self) -> dict[tuple[int, ...], Fraction]:
        """The coefficients as Fractions: {exponent tuple: numerator / den}."""
        return {unpack(key): Fraction(c, self.den) for key, c in self.terms.items()}

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(self.terms) // _DEG if self.terms else -1

    def variables(self) -> set[str]:
        used = 0
        for key in self.terms:
            used |= key
        return {name for name, e in zip(VARS, unpack(used)) if e}

    # -- ring operations --------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        den = lcm(self.den, o.den)
        s1, s2 = den // self.den, den // o.den
        out = {exp: c * s1 for exp, c in self.terms.items()}
        get = out.get
        for exp, c in o.terms.items():
            out[exp] = get(exp, 0) + c * s2
        return _reduced(out, den)

    __radd__ = __add__

    def __neg__(self):
        res = MultiPoly.__new__(MultiPoly)
        res.terms = {exp: -c for exp, c in self.terms.items()}
        res.den = self.den
        return res

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return _reduced({exp: c * p for exp, c in self.terms.items()}, self.den * q)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if (max(self.terms, default=0) + max(other.terms, default=0)) // _DEG > _MAXDEG:
            raise OverflowError(f"a product's total degree is past {_MAXDEG}")
        out: dict = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = e1 + e2
                out[exp] = get(exp, 0) + c1 * c2
        return _reduced(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial power needs a non-negative integer")
        out = MultiPoly.const(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            base = base * base if e else base     # no square past the last bit
        return out

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms and self.den == o.den

    __hash__ = None

    # -- substitution ---------------------------------------------------

    def shift(self, name: str, delta: int) -> "MultiPoly":
        """Substitute name -> name + delta, expanding (x+delta)^e binomially.

        The substitution is invertible over the integers, so the int
        numerators keep their gcd and den stays."""
        if delta == 0:
            return self
        idx = _INDEX[name]
        out: dict[int, int] = {}
        for exp, c in self.terms.items():
            e = unpack(exp)[idx]
            for i in range(e + 1):
                key = exp - (e - i) * _UNITS[idx]
                out[key] = out.get(key, 0) + c * comb(e, i) * delta ** (e - i)
        return _reduced(out, self.den)

    # -- content / primitive part -------------------------------------------

    def content_primitive(self) -> tuple[Fraction, "MultiPoly"]:
        """Split into content * primitive part.

        The primitive part has coprime integer coefficients and a positive
        leading coefficient; the content carries the sign.  Zero splits as
        (1, 0).
        """
        if not self.terms:
            return _F1, self
        g = int_gcd(*self.terms.values())
        if self.terms[max(self.terms)] < 0:
            g = -g
        prim = MultiPoly.__new__(MultiPoly)
        prim.terms = {exp: c // g for exp, c in self.terms.items()}
        prim.den = 1
        return Fraction(g, self.den), prim

    def divexact(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact polynomial division; raises ArithmeticError if not exact.

        On int numerators: by Gauss's lemma an exact quotient by a primitive
        int divisor has int coefficients, so a remainder means not exact."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = dict(self.terms)
        content = int_gcd(*divisor.terms.values())
        d_terms = {exp: c // content for exp, c in divisor.terms.items()}
        d_exp = max(d_terms)
        d_lead = d_terms[d_exp]
        out: dict = {}
        while rem:
            r_exp = max(rem)
            q_exp = r_exp - d_exp       # a negative field sets its guard bit
            q, r = divmod(rem[r_exp], d_lead)
            if r or q_exp < 0 or q_exp & _GUARDS:
                raise ArithmeticError("polynomial division is not exact")
            out[q_exp] = q * divisor.den
            # rem -= q * divisor, in place
            for exp, c in d_terms.items():
                exp += q_exp
                v = rem.get(exp, 0) - q * c
                if v:
                    rem[exp] = v
                else:
                    del rem[exp]
        return _reduced(out, self.den * content)

    # -- display ----------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, reverse=True):
            c = Fraction(self.terms[key], self.den)
            factors = []
            for i, e in enumerate(unpack(key)):
                if e == 1:
                    factors.append(VARS[i])
                elif e > 1:
                    factors.append(f"{VARS[i]}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        text = parts[0]
        for part in parts[1:]:
            text += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return text

    def __repr__(self):
        return f"MultiPoly({self.render()})"


# ---------------------------------------------------------------------------
# GCD
# ---------------------------------------------------------------------------

def _coeffs_in(a: MultiPoly, idx: int) -> dict[int, MultiPoly]:
    """View a as univariate in VARS[idx] with MultiPoly coefficients."""
    out: dict[int, dict] = {}
    for exp, c in a.terms.items():
        e = unpack(exp)[idx]
        out.setdefault(e, {})[exp - e * _UNITS[idx]] = c
    return {e: _reduced(terms, a.den) for e, terms in out.items()}


def _prem(a: MultiPoly, b: MultiPoly, idx: int) -> MultiPoly:
    """Pseudo-remainder of a by b in VARS[idx] (up to a content factor)."""
    cb = _coeffs_in(b, idx)
    db = max(cb)
    lb = cb[db]
    var_mono = MultiPoly.var(VARS[idx])
    rem = a
    while not rem.is_zero:
        cr = _coeffs_in(rem, idx)
        dr = max(cr)
        if dr < db:
            break
        lr = cr[dr]
        rem = rem * lb - b * lr * var_mono ** (dr - db)
    return rem


def _primitive_in(a: MultiPoly, idx: int) -> MultiPoly:
    """Divide out the content with respect to VARS[idx], integer part included.

    poly_gcd returns the content primitive over Q, so its integer part has to
    go separately; without it a univariate PRS keeps every remainder's
    integer content and runs as the Euclidean PRS, whose coefficients double
    in bit size at each step.
    """
    coeffs = _coeffs_in(a, idx)
    cont = MultiPoly.zero()
    for p in coeffs.values():
        cont = poly_gcd(cont, p)
    if cont.degree() > 0:
        a = a.divexact(cont)
    return a.content_primitive()[1]


def _prs_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Primitive pseudo-remainder sequence gcd (fallback path)."""
    used = a.variables() | b.variables()
    if not used:
        return MultiPoly.const(1)
    idx = min(_INDEX[name] for name in used)

    ca_map = _coeffs_in(a, idx)
    cb_map = _coeffs_in(b, idx)
    cont_a = MultiPoly.zero()
    for p in ca_map.values():
        cont_a = poly_gcd(cont_a, p)
    cont_b = MultiPoly.zero()
    for p in cb_map.values():
        cont_b = poly_gcd(cont_b, p)
    cont_g = poly_gcd(cont_a, cont_b)

    pa = a.divexact(cont_a)
    pb = b.divexact(cont_b)
    if max(ca_map) < max(cb_map):
        pa, pb = pb, pa
    while not pb.is_zero:
        rem = _prem(pa, pb, idx)
        if rem.is_zero:
            pa, pb = pb, rem
        else:
            pa, pb = pb, _primitive_in(rem, idx)
    pp_g = _primitive_in(pa, idx)
    return (cont_g * pp_g).content_primitive()[1]


class _HeuristicFailed(Exception):
    pass


def _int_norm(a: MultiPoly) -> int:
    return max(abs(c) for c in a.terms.values())


def _eval_var_int(a: MultiPoly, idx: int, point: int) -> MultiPoly:
    out: dict[int, int] = {}
    for exp, c in a.terms.items():
        e = unpack(exp)[idx]
        key = exp - e * _UNITS[idx]
        out[key] = out.get(key, 0) + (c * point**e if e else c)
    return _reduced(out, a.den)


def _divides(candidate: MultiPoly, a: MultiPoly) -> bool:
    try:
        a.divexact(candidate)
    except ArithmeticError:
        return False
    return True


def _interpolate_digits(values: MultiPoly, idx: int, point: int) -> MultiPoly:
    """Rebuild a polynomial in VARS[idx] from its balanced base-point digits."""
    half = point // 2
    out: dict[int, int] = {}
    power = 0
    current = values.terms
    while current:
        rest: dict[int, int] = {}
        for exp, c in current.items():
            digit = c % point
            if digit > half:
                digit -= point
            if digit:
                out[exp + power * _UNITS[idx]] = digit
            carry = (c - digit) // point
            if carry:
                rest[exp] = carry
        current = rest
        power += 1
    return _reduced(out, 1)


def _heugcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Heuristic gcd of two nonzero integer-coefficient polynomials (den 1).

    The integer-content gcd is split off at every level and multiplied back
    at the end: the content of the evaluated images carries the point-power
    factors that encode monomial divisibility, so it must survive the
    recursion.  Candidates are certified by trial division; raises
    _HeuristicFailed when six evaluation points in a row fail to certify.
    """
    used = a.variables() | b.variables()
    if not used:
        return MultiPoly.const(int_gcd(_int_norm(a), _int_norm(b)))
    ca, cb = int_gcd(*a.terms.values()), int_gcd(*b.terms.values())
    content = int_gcd(ca, cb)
    if ca > 1:
        a = a * Fraction(1, ca)
    if cb > 1:
        b = b * Fraction(1, cb)
    idx = min(_INDEX[name] for name in used)
    point = 2 * min(_int_norm(a), _int_norm(b)) + 29
    for _ in range(6):
        aa = _eval_var_int(a, idx, point)
        bb = _eval_var_int(b, idx, point)
        if not aa.is_zero and not bb.is_zero:
            sub = _heugcd(aa, bb)
            candidate = _interpolate_digits(sub, idx, point).content_primitive()[1]
            if not candidate.is_zero and _divides(candidate, a) and _divides(candidate, b):
                return candidate * content
        point = point * 73794 // 27011 + 1
    raise _HeuristicFailed


def _is_const(a: MultiPoly) -> bool:
    return len(a.terms) == 1 and 0 in a.terms


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """The gcd of a and b over Q, primitive with positive leading coeff.

    gcd(0, 0) = 0; otherwise the result divides both arguments exactly and
    every common divisor divides it (certified by trial division on the
    heuristic path, by the PRS theory on the fallback path).
    """
    if a.is_zero and b.is_zero:
        return MultiPoly.zero()
    if a.is_zero:
        return b.content_primitive()[1]
    if b.is_zero:
        return a.content_primitive()[1]
    if _is_const(a) or _is_const(b):
        return MultiPoly.const(1)
    pa = a.content_primitive()[1]
    pb = b.content_primitive()[1]
    if len(pa.terms) == 1 and len(pb.terms) == 1:
        (ka,), (kb,) = pa.terms, pb.terms
        return MultiPoly({tuple(map(min, unpack(ka), unpack(kb))): 1})
    try:
        return _heugcd(pa, pb)
    except _HeuristicFailed:
        return _prs_gcd(pa, pb)


# ---------------------------------------------------------------------------
# Canonical rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Quotient of MultiPolys in canonical form (see module docstring)."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator expression")
        if num.is_zero:
            self.num = MultiPoly.zero()
            self.den = MultiPoly.const(1)
            return
        g = poly_gcd(num, den)
        if g.degree() > 0:
            num = num.divexact(g)
            den = den.divexact(g)
        c, prim_den = den.content_primitive()
        self.den = prim_den
        self.num = num * (1 / c)

    @classmethod
    def const(cls, value) -> "RatFunc":
        return cls(MultiPoly.const(value), MultiPoly.const(1))

    @classmethod
    def var(cls, name: str) -> "RatFunc":
        return cls(MultiPoly.var(name), MultiPoly.const(1))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    # numerator/denominator, as Fraction has them: the exact row kernels
    # read a RatFunc as p/q over the MultiPoly ring
    @property
    def numerator(self) -> MultiPoly:
        return self.num

    @property
    def denominator(self) -> MultiPoly:
        return self.den

    def _coerced(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:       # den 1 in most sums: canonical forms are unique
            return RatFunc(self.num + o.num, self.den)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero:
            raise ZeroDivisionError("zero denominator expression")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return RatFunc.const(1) / self ** (-exponent)
        return RatFunc(self.num**exponent, self.den**exponent)

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    __hash__ = None

    def shift(self, name: str, delta: int) -> "RatFunc":
        """Substitute name -> name + delta."""
        return RatFunc(self.num.shift(name, delta), self.den.shift(name, delta))

    def render(self) -> str:
        if self.den == MultiPoly.const(1):
            return self.num.render()
        return f"({self.num.render()}) / ({self.den.render()})"

    def __repr__(self):
        return f"RatFunc({self.render()})"
