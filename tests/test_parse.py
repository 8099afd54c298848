"""Grammar behaviour: precedence, associativity, rejection messages."""
import math

import pytest

from isomean._errors import DomainError, ExprSyntaxError
from isomean.expr import evaluate, to_string
from isomean.parse import MAX_NESTING, parse


@pytest.mark.parametrize(
    "source,x,expected",
    [
        ("x^2^3", 2.0, 256.0),  # right-associative power
        ("-x^2", 2.0, -4.0),  # unary minus binds looser than ^
        ("2*-3", 0.0, -6.0),
        ("2^-1", 0.0, 0.5),
        ("x^-2", 2.0, 0.25),
        ("2+3*4", 0.0, 14.0),
        ("(2+3)*4", 0.0, 20.0),
        ("6/3/2", 0.0, 1.0),  # left-associative division
        ("10-4-3", 0.0, 3.0),
        ("--x", 5.0, 5.0),
        ("2^0.5", 0.0, math.sqrt(2.0)),
    ],
)
def test_precedence(source, x, expected):
    assert evaluate(parse(source), x) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize(
    "source,x,expected",
    [
        ("sin(x)", 1.2, math.sin(1.2)),
        ("cos(x)", 1.2, math.cos(1.2)),
        ("tan(x)", 0.7, math.tan(0.7)),
        ("exp(x)", 0.3, math.exp(0.3)),
        ("ln(x)", 4.0, math.log(4.0)),
        ("sqrt(x)", 9.0, 3.0),
        ("abs(x)", -2.5, 2.5),
        ("sinh(x)", 0.8, math.sinh(0.8)),
        ("cosh(x)", 0.8, math.cosh(0.8)),
        ("ln(exp(x))", 1.7, 1.7),
    ],
)
def test_function_calls(source, x, expected):
    assert evaluate(parse(source), x) == pytest.approx(expected, rel=1e-14)


def test_constants():
    assert evaluate(parse("pi"), 0.0) == math.pi
    assert evaluate(parse("e"), 0.0) == math.e
    assert evaluate(parse("sin(pi)"), 0.0) == pytest.approx(0.0, abs=1e-15)


def test_variable_letter_is_interchangeable():
    # "x" and "y" both name the single free variable
    ex = parse("y^2 + 1")
    assert evaluate(ex, 3.0) == 10.0
    assert evaluate(parse("x^2 + 1"), 3.0) == evaluate(parse("y^2 + 1"), 3.0)


@pytest.mark.parametrize(
    "source,fragment",
    [
        ("2x", "unexpected trailing input"),
        ("x y", "unexpected trailing input"),
        ("ln x", "expected '('"),
        ("", "unexpected end of input"),
        ("x +", "unexpected end of input"),
        ("foo(x)", "unknown identifier"),
        ("(x", "expected ')'"),
    ],
)
def test_rejections(source, fragment):
    import re

    with pytest.raises(ExprSyntaxError, match=re.escape(fragment)):
        parse(source)


def test_evaluation_outside_function_domain():
    with pytest.raises(DomainError, match="evaluation failed at x="):
        evaluate(parse("ln(x)"), -1.0)
    with pytest.raises(DomainError):
        evaluate(parse("ln(x)"), 0.0)
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x)"), -4.0)


def test_to_string_round_trips():
    for source in ("x^2^3", "-x^2", "sin(x)*exp(-x/2)", "1/(1+x^2)", "x^-2"):
        e = parse(source)
        back = parse(to_string(e))
        for x in (0.3, 1.1, 2.7):
            assert evaluate(back, x) == pytest.approx(evaluate(e, x), rel=1e-15)


# Each kind of nesting: the input n levels deep, and the byte offset of the
# token that opens level 101.
NESTINGS = {
    "parentheses": (lambda n: "(" * n + "x" + ")" * n, 100),
    "calls": (lambda n: "sin(" * n + "x" + ")" * n, 403),
    "unary minus": (lambda n: "-" * n + "x", 100),
    "power chain": (lambda n: "^".join(["x"] * (n + 1)), 201),
}


@pytest.mark.parametrize("kind", NESTINGS)
def test_nesting_is_capped(kind):
    make, offset = NESTINGS[kind]
    parse(make(MAX_NESTING))
    with pytest.raises(ExprSyntaxError, match="nested deeper than 100 levels") as err:
        parse(make(MAX_NESTING + 1))
    assert err.value.offset == offset


def test_flat_sums_and_products_have_no_length_limit():
    n = 20000
    assert evaluate(parse("+".join(["x"] * n)), 0.5) == 0.5 * n
    assert evaluate(parse("*".join(["x"] * n)), 1.0) == 1.0
