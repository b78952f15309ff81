"""Expression parser: grammar, diagnostics, values."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from binomsums.expr import MAX_DEPTH, MAX_EXPONENT, ExprSyntaxError, parse_ratfunc
from binomsums.poly import VARS, RatFunc

from ring_values import evaluate

n, k, j, alpha, beta = (RatFunc.var(name) for name in ("n", "k", "j", "alpha", "beta"))


def test_product_of_sums():
    value = parse_ratfunc("(n+1)*(k-j)")
    assert value == (n + 1) * (k - j)
    assert value != n + 1 * k - j


def test_unary_minus_over_sum():
    value = parse_ratfunc("-(alpha - beta - n - 1)")
    assert value == -(alpha - beta - n - 1)
    assert value != -alpha - beta - n - 1


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_ratfunc("n+*k")
    assert exc.value.offset == 2


def test_unknown_character_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_ratfunc("n + $k")
    assert exc.value.offset == 4


@pytest.mark.parametrize("text,offset", [
    ("", 0),
    ("(n+1", 4),
    ("n^k", 2),          # exponent must be an integer literal
    ("n^-2", 2),
    ("n*", 2),
    ("n n", 2),
    # INT and NAME are ASCII: a superscript digit is not an int() literal
    pytest.param("n + \u00b2", 4, id="superscript-two"),
    # nesting past MAX_DEPTH: the 101st '(' or unary '-'
    pytest.param("(" * 400 + "k" + ")" * 400, 100, id="400-parens"),
    pytest.param("-" * 1200 + "k", 100, id="1200-minus"),
    pytest.param("-(" * 50 + "-k" + ")" * 50, 100, id="mixed-nesting"),
    # exponent chains multiplying past MAX_EXPONENT: the '^' that passes it
    pytest.param("n^13", 1, id="one-exponent"),
    pytest.param("n^2^3^3", 5, id="chain"),
])
def test_error_positions(text, offset):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_ratfunc(text)
    assert exc.value.offset == offset


def test_nesting_and_exponents_up_to_the_limits_parse():
    assert parse_ratfunc("(" * MAX_DEPTH + "k" + ")" * MAX_DEPTH) == k
    assert parse_ratfunc("-" * MAX_DEPTH + "k") == k
    assert parse_ratfunc(f"n^{MAX_EXPONENT}") == n**MAX_EXPONENT
    assert parse_ratfunc("n^2^3^2") == n**12
    assert parse_ratfunc("n^0^99999") == 1


def test_exponent_chain_is_a_typed_error_within_budget(budget):
    # (n+k+j+alpha)^81 would take minutes to expand
    with budget(5.0):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_ratfunc("(n+k+j+alpha)^9^2")
    assert exc.value.offset == 15


def test_precedence():
    # each pair is the grammar's reading, then the reading it must not be
    assert parse_ratfunc("1+2*k") == 1 + 2 * k != (1 + 2) * k
    assert parse_ratfunc("-n^2") == -(n**2) != (-n) ** 2
    assert parse_ratfunc("-n*k") == (-n) * k
    assert parse_ratfunc("n-k-j") == (n - k) - j != n - (k - j)
    assert parse_ratfunc("n/k/j") == (n / k) / j != n / (k / j)
    assert parse_ratfunc("n^2^3") == n**6 != n**8


_LEVEL_SUM, _LEVEL_PROD, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = range(5)


def random_text(rng: random.Random, point: dict, depth: int = 0):
    """(text, precedence level, Fraction value at point) of a random
    expression, written with the fewest parentheses its reading needs.
    Raises ZeroDivisionError when a divisor vanishes at the point."""

    def wrap(item, context):
        text, level, _ = item
        return text if level >= context else f"({text})"

    choices = ["int", "var"]
    if depth < 3:
        choices += ["neg", "add", "sub", "mul", "div", "pow"]
    kind = rng.choice(choices)
    if kind == "int":
        value = rng.randint(0, 99)
        return str(value), _LEVEL_ATOM, Fraction(value)
    if kind == "var":
        name = rng.choice(VARS)
        return name, _LEVEL_ATOM, point[name]
    if kind == "neg":
        inner = random_text(rng, point, depth + 1)
        return "-" + wrap(inner, _LEVEL_NEG), _LEVEL_NEG, -inner[2]
    if kind == "pow":
        base, exponent = random_text(rng, point, depth + 1), rng.randint(0, 3)
        return wrap(base, _LEVEL_ATOM) + f"^{exponent}", _LEVEL_POW, base[2] ** exponent
    left, right = random_text(rng, point, depth + 1), random_text(rng, point, depth + 1)
    level = _LEVEL_SUM if kind in ("add", "sub") else _LEVEL_PROD
    op, value = {
        "add": ("+", lambda a, b: a + b), "sub": ("-", lambda a, b: a - b),
        "mul": ("*", lambda a, b: a * b), "div": ("/", lambda a, b: a / b),
    }[kind]
    text = wrap(left, level) + op + wrap(right, level + 1)
    return text, level, value(left[2], right[2])


def test_random_text_matches_fraction_value(budget):
    # Fraction arithmetic on the expression's own structure is the oracle:
    # the parsed canonical form must take the same value at a random point
    rng = random.Random(31)
    checked = 0
    with budget(30.0):
        while checked < 100:
            point = {name: Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for name in VARS}
            try:
                text, _, value = random_text(rng, point)
            except ZeroDivisionError:
                continue
            assert evaluate(parse_ratfunc(text), point) == value, text
            checked += 1


def test_whitespace_ignored():
    assert parse_ratfunc(" ( n + 1 ) * k ") == parse_ratfunc("(n+1)*k")


def test_parse_ratfunc_unknown_variable():
    with pytest.raises(ValueError, match="unknown variable"):
        parse_ratfunc("q+1")
