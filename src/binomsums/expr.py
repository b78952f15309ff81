"""The fixture grammar: certificates, term specs and binomial arguments.

Grammar (whitespace ignored, byte offsets reported on errors):

    spec    :=  item ('*' item)*
    item    :=  'sign' '(' expr ')' | 'binom' '(' expr ',' expr ')' ('^' ['+' | '-'] INT)?
             |  expr          (its terms take '/' only, so '3/2 * ...' is two items)
    expr    :=  term (('+' | '-') term)*
    term    :=  factor (('*' | '/') factor)*
    factor  :=  '-' factor | power
    power   :=  atom ('^' INT)*
    atom    :=  INT | NAME | '(' expr ')'
    INT     :=  [0-9]+
    NAME    :=  [A-Za-z_][A-Za-z0-9_]*

Precedence is therefore ^ above unary minus above * / above + -, all
left-associative; exponents must be non-negative integer literals.  Hostile
text ends in a syntax error, not in a deep recursion or a huge power: ``(``
and unary ``-`` may nest at most ``MAX_DEPTH`` levels, and the exponents of
one ``^`` chain may multiply to at most ``MAX_EXPONENT``.

There is no syntax tree: each grammar rule returns the canonical
:class:`~binomsums.poly.RatFunc` of what it read, built with the ring's own
``+ - * / **`` in the order the rules finish (left operand, right operand,
then the operator).  Syntax errors are :class:`ExprSyntaxError` with the
offset of the first bad token; in :func:`parse_ratfunc` an unknown variable
(``ValueError``) and a zero divisor (``ZeroDivisionError``) come from the
ring, with the offset of the name or of the divisor's first token as
``offset``.
:func:`parse_term` reads a spec into a :class:`~binomsums.hyperterm.HyperTerm`.
Its arguments are affine, judged on the canonical form: n*k-n*k+n reads as n,
while n*k, n^2+1 and 1/n are rejected.  A binomial's exponent is 1, +1 or -1,
a sign comes at most once with an integer constant, and a bare item is a
constant.  Each such error, and a ring error in an item, is an
ExprSyntaxError at the first token of the item or argument it concerns.
"""

from __future__ import annotations

from fractions import Fraction
from operator import truediv

from .hyperterm import AffineForm, HyperTerm
from .poly import RatFunc

__all__ = ["ExprSyntaxError", "parse_ratfunc", "parse_term"]


class ExprSyntaxError(ValueError):
    """Parse failure; ``offset`` is the byte position of the first error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
        self.reason = message


_OPS = set("+-*/^(),")
MAX_DEPTH = 100          # five frames per '(': half the default recursion limit
MAX_EXPONENT = 12        # (n+k+j+alpha)^12 expands in about 0.2 s, ^16 in seconds


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            start = i
            while i < size and text[i].isdecimal():
                i += 1
            tokens.append(("INT", int(text[start:i]), start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < size and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("NAME", text[start:i], start))
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unknown character {ch!r}", i)
    tokens.append(("END", None, size))
    return tokens


def _ring(at: int, op, *args):
    """``op(*args)``; a ring error it raises keeps its type and gets ``offset = at``."""
    try:
        return op(*args)
    except (ValueError, ZeroDivisionError) as exc:
        exc.offset = at
        raise


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def enter(self):
        """Advance past a '(' or unary '-', one nesting level deeper."""
        offset = self.advance()[2]
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"nesting deeper than {MAX_DEPTH} levels", offset)

    def fail(self, expected: str):
        kind, _, offset = self.peek()
        found = "end of input" if kind == "END" else f"{kind!r}"
        raise ExprSyntaxError(f"expected {expected}, found {found}", offset)

    def expect(self, kind: str, expected: str | None = None):
        if self.peek()[0] != kind:
            self.fail(expected or repr(kind))
        self.advance()

    def expr(self, ops=("*", "/")) -> RatFunc:
        value = self.term(ops)
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term(ops)
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self, ops) -> RatFunc:
        value = self.factor()
        while self.peek()[0] in ops:
            op, at = self.advance()[0], self.peek()[2]
            rhs = self.factor()
            value = value * rhs if op == "*" else _ring(at, truediv, value, rhs)
        return value

    def factor(self) -> RatFunc:
        if self.peek()[0] == "-":
            self.enter()
            value = -self.factor()
            self.depth -= 1
            return value
        return self.power()

    def power(self) -> RatFunc:
        value = self.atom()
        chain = 1
        while self.peek()[0] == "^":
            caret = self.advance()[2]
            kind, exponent, _ = self.peek()
            if kind != "INT":
                self.fail("a non-negative integer exponent")
            chain *= exponent
            if chain > MAX_EXPONENT:
                raise ExprSyntaxError(f"exponents multiply past {MAX_EXPONENT}", caret)
            self.advance()
            value = value ** exponent
        return value

    def atom(self) -> RatFunc:
        kind, value, at = self.peek()
        if kind == "INT":
            self.advance()
            return RatFunc.const(value)
        if kind == "NAME":
            self.advance()
            return _ring(at, RatFunc.var, value)
        if kind == "(":
            self.enter()
            inner = self.expr()
            self.expect(")")
            self.depth -= 1
            return inner
        self.fail("an integer, a variable or '('")

    def affine(self, ops=("*", "/")) -> AffineForm:
        """An expr's affine form; any other error is a syntax error at its first token."""
        at = self.peek()[2]
        try:
            return AffineForm.from_ratfunc(self.expr(ops))
        except ExprSyntaxError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise ExprSyntaxError(str(exc), at) from exc

    def call(self, count: int) -> list[AffineForm]:
        """A function name and its ``count`` affine arguments."""
        self.advance()
        forms = []
        for opener in "(" + "," * (count - 1):
            self.expect(opener)
            forms.append(self.affine())
        self.expect(")")
        return forms

    def exponent(self) -> int:
        """A binomial's optional '^1', '^+1' or '^-1'."""
        if self.peek()[0] != "^":
            return 1
        self.advance()
        kind, _, at = self.peek()
        if kind in ("+", "-"):
            self.advance()
        if self.peek()[:2] != ("INT", 1):
            raise ExprSyntaxError("a binomial's exponent is 1, +1 or -1", at)
        self.advance()
        return -1 if kind == "-" else 1


def parse_ratfunc(text: str) -> RatFunc:
    """The canonical rational function of the full string."""
    parser = _Parser(_tokenize(text))
    value = parser.expr()
    parser.expect("END", "end of input")
    return value


def parse_term(text: str) -> HyperTerm:
    """The hypergeometric term of a spec ``sign(...) * const * binom(a,b)^e * ...``."""
    parser = _Parser(_tokenize(text))
    constant, sign, factors = Fraction(1), None, []
    while True:
        kind, name, at = parser.peek()
        if kind == "NAME" and name == "sign":
            if sign is not None:
                raise ExprSyntaxError("duplicate sign(...) factor", at)
            (sign,) = parser.call(1)
            if sign.constant.denominator != 1:
                raise ExprSyntaxError("sign exponent must have an integer constant", at)
        elif kind == "NAME" and name == "binom":
            top, bottom = parser.call(2)
            factors.append((top, bottom, parser.exponent()))
        else:
            form = parser.affine(("/",))
            if form.coeffs:
                raise ExprSyntaxError("constant factor contains variables", at)
            constant *= form.constant
        if parser.peek()[0] != "*":
            break
        parser.advance()
    parser.expect("END", "'*' or end of input")
    return HyperTerm(constant, AffineForm.make(0) if sign is None else sign, tuple(factors))
