"""Expression language for entering certificates and binomial arguments.

Grammar (whitespace ignored, byte offsets reported on errors):

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
offset of the first bad token; an unknown variable (``ValueError``) and a
division by the zero function (``ZeroDenominator``) come from the ring.
"""

from __future__ import annotations

from .poly import RatFunc

__all__ = ["ExprSyntaxError", "parse_ratfunc"]


class ExprSyntaxError(ValueError):
    """Parse failure; ``offset`` is the byte position of the first error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
        self.reason = message


_OPS = set("+-*/^()")
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
        if ch.isdigit():
            start = i
            while i < size and text[i].isdigit():
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

    def expr(self) -> RatFunc:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> RatFunc:
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.factor()
            value = value * rhs if op == "*" else value / rhs
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
        kind, value, _ = self.peek()
        if kind == "INT":
            self.advance()
            return RatFunc.const(value)
        if kind == "NAME":
            self.advance()
            return RatFunc.var(value)
        if kind == "(":
            self.enter()
            inner = self.expr()
            if self.peek()[0] != ")":
                self.fail("')'")
            self.advance()
            self.depth -= 1
            return inner
        self.fail("an integer, a variable or '('")


def parse_ratfunc(text: str) -> RatFunc:
    """The canonical rational function of the full string."""
    parser = _Parser(_tokenize(text))
    value = parser.expr()
    if parser.peek()[0] != "END":
        parser.fail("end of input")
    return value
