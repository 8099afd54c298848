"""Symbolic derivatives, vectorised evaluation, and axis rescalings."""
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from isomean import expr as E
from isomean.expr import (
    ScaleShift,
    as_scalar_fn,
    as_vector_fn,
    compile_numpy,
    depends_on_var,
    differentiate,
    evaluate,
    h_scaleshift,
    hv_scaleshift,
    substitute,
    to_string,
    v_scaleshift,
)
from isomean._errors import DomainError, PreconditionError
from isomean.intervals import Interval
from isomean.parse import parse
from isomean.verify import _EXPR_CORPUS

CORPUS = [
    "x^2",
    "x^3 - 2*x",
    "sin(x)*cos(x)",
    "exp(x/2)",
    "ln(1+x^2)",
    "sqrt(1+x^2)",
    "tan(x/4)",
    "1/(2+x)",
    "x^1.5",
    "sinh(x)/cosh(x)",
]


def central_difference(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


@pytest.mark.parametrize("source", CORPUS)
def test_derivative_matches_finite_difference(source):
    e = parse(source)
    d = differentiate(e)
    f = as_scalar_fn(e)
    for x in (0.2, 0.9, 1.7, 2.4):
        want = central_difference(f, x)
        got = evaluate(d, x)
        assert got == pytest.approx(want, rel=5e-8, abs=5e-8)


@pytest.mark.parametrize("source", CORPUS)
def test_vector_and_scalar_evaluation_agree(source):
    e = parse(source)
    xs = np.linspace(0.1, 2.5, 37)
    vec = as_vector_fn(e)(xs)
    scal = np.array([as_scalar_fn(e)(float(x)) for x in xs])
    np.testing.assert_array_equal(vec, scal)


@pytest.mark.parametrize("source", _EXPR_CORPUS)
def test_evaluate_is_the_program_at_one_point(source):
    # Wherever evaluate returns, it returns the array view's value there,
    # bit for bit; where it raises, the view's value is not finite or some
    # intermediate overflowed, divided by zero or left the domain.
    e = parse(source)
    xs = np.random.default_rng(3).uniform(-30.0, 30.0, 400).tolist() + [0.0, -2.0, 710.0, 1e200]
    returned = 0
    for x in xs:
        view = compile_numpy(e)(np.array([x]))[0]
        try:
            v = evaluate(e, x)
        except DomainError:
            continue
        returned += 1
        assert v == view, (source, x)
    assert returned > 100


def test_the_scalar_view_gives_nan_or_inf_where_f_is_undefined():
    assert math.isnan(as_scalar_fn(parse("ln(x)"))(-1.0))
    assert as_scalar_fn(parse("1/x"))(0.0) == math.inf
    assert as_scalar_fn(np.exp)(1.0) == np.exp(np.array([1.0]))[0]


def test_compile_numpy_returns_arrays():
    fn = compile_numpy(parse("x^2 + sin(x)"))
    xs = np.array([0.0, 1.0, 2.0])
    out = fn(xs)
    assert isinstance(out, np.ndarray)
    np.testing.assert_allclose(out, xs**2 + np.sin(xs), rtol=1e-15)


def test_depends_on_var():
    assert depends_on_var(parse("x+1"))
    assert not depends_on_var(parse("2*pi"))
    assert not depends_on_var(parse("exp(1)"))


def test_substitute_composes():
    outer = parse("x^2 + 1")
    inner = parse("sin(x)")
    comp = substitute(outer, inner)
    for x in (0.3, 1.2):
        assert evaluate(comp, x) == pytest.approx(math.sin(x) ** 2 + 1.0, rel=1e-15)


def test_every_intermediate_value_must_be_finite():
    # exp(1000) overflows although exp(-exp(1000)) would round to 0.
    with pytest.raises(DomainError, match="evaluation failed at x=1000"):
        evaluate(parse("exp(-exp(x))"), 1000)
    # x*x overflows although 1/(x*x) would round to 0.
    with pytest.raises(DomainError, match="intermediate value not finite"):
        evaluate(parse("1/(x*x)"), 1e200)
    with pytest.raises(DomainError, match="division by zero"):
        evaluate(parse("1/x"), 0.0)
    # The array view keeps going: bad points come out as they fall.
    np.testing.assert_array_equal(compile_numpy(parse("1/(x*x)"))(np.array([1e200, 0.0])), [0.0, np.inf])


def slots(e):
    consts, steps = E._lower(e)
    return 1 + len(consts) + len(steps)


def test_lowering_shares_structurally_equal_subtrees():
    d2 = differentiate(differentiate(parse("ln(x)^2/(1+exp(-x))")))
    assert slots(d2) <= 37  # the tree has 127 nodes
    xs = np.linspace(0.5, 3.0, 15)
    np.testing.assert_allclose(compile_numpy(d2)(xs), [evaluate(d2, x) for x in xs], rtol=1e-13)


def test_lowering_keeps_negative_zero_apart_from_zero():
    one = E.const(1.0)
    e = E.sub(E.div(one, E.const(0.0)), E.div(one, E.const(-0.0)))  # inf - (-inf)
    np.testing.assert_array_equal(compile_numpy(e)(np.array([1.0, 2.0])), [np.inf, np.inf])


def test_trees_and_their_derivative_and_program_are_cached():
    e = parse("x*sin(x)")
    assert parse("x*sin(x)") is e  # the same text gives the same tree
    assert differentiate(e) is differentiate(e)
    assert E._cached(e, "_prog", E._lower) is E._cached(e, "_prog", E._lower)


def test_deep_trees_need_no_recursion():
    n = 5000
    total = parse("+".join(["x"] * n))
    nest = E.var()
    for _ in range(n):
        nest = E.sin(nest)
    assert evaluate(total, 1.5) == 1.5 * n
    np.testing.assert_array_equal(compile_numpy(total)(np.array([1.0, 2.0])), [n, 2.0 * n])
    assert differentiate(total).value == n
    assert depends_on_var(total) and not depends_on_var(substitute(total, E.const(1.0)))
    assert to_string(total) == " + ".join(["x"] * n)
    assert evaluate(nest, 1.0) == pytest.approx(compile_numpy(nest)(np.array([1.0]))[0], rel=1e-14)
    assert evaluate(differentiate(nest), 1.0) > 0.0
    assert to_string(nest) == "sin(" * n + "x" + ")" * n


class TestScaleShift:
    def test_zero_scale_rejected(self):
        with pytest.raises(PreconditionError, match="nonzero"):
            ScaleShift(0.0)

    def test_value_rescale(self):
        # v-rescale replaces f by k*f + C
        s = ScaleShift(3.0, -1.0)
        e = v_scaleshift(parse("x^2"), s)
        assert evaluate(e, 2.0) == pytest.approx(3.0 * 4.0 - 1.0)

    def test_argument_rescale(self):
        # h-rescale precomposes with the inverse affine map u -> (u-C)/k
        s = ScaleShift(2.0, 5.0)
        e = h_scaleshift(parse("x^2"), s)
        assert evaluate(e, 9.0) == pytest.approx(((9.0 - 5.0) / 2.0) ** 2)

    def test_both_rescales_commute_into_one_expression(self):
        sv = ScaleShift(2.0, 1.0)
        sh = ScaleShift(-3.0, 0.5)
        e = hv_scaleshift(parse("exp(x)"), sv, sh)
        u = 2.0
        want = 2.0 * math.exp((u - 0.5) / -3.0) + 1.0
        assert evaluate(e, u) == pytest.approx(want, rel=1e-15)


def test_deep_trees_work_in_repr_hash_equality_and_as_dict_keys():
    n = 5000
    total = parse("+".join(["x"] * n))
    again = parse(" + ".join(["x"] * n))  # another text: another tree
    assert total is not again
    assert repr(total) == f"Expr({to_string(total)!r})"
    assert hash(total) == hash(again) and total == again
    assert {total: "sum"}[again] == "sum"
    other = parse("+".join(["x"] * (n - 1)) + "+1")
    assert total != other and other not in {total: "sum"}


def test_equality_is_structural_and_compares_constants_by_value():
    assert parse("2*x + sin(x)") == E.add(E.mul(E.const(2.0), E.var()), E.sin(E.var()))
    assert parse("x - 1") != parse("x + 1") and parse("x^2") != parse("x^3")
    assert E.const(0.0) == E.const(-0.0) and hash(E.const(0.0)) == hash(E.const(-0.0))
    assert E.const(1.0) != 1.0 and E.var() != "x"
    # sharing does not matter: two separate constants equal one shared one
    shared = E.const(3.0)
    assert E.mul(shared, shared) == E.mul(E.const(3.0), E.const(3.0))


def test_a_pickled_tree_keeps_its_hash_under_another_hash_seed():
    e = parse("x*sin(x) + 2")
    hash(e)  # cached on the node, so the pickle carries it
    code = (
        "import pickle, sys; from isomean.parse import parse; "
        "e = pickle.loads(sys.stdin.buffer.read()); fresh = parse('x*sin(x) + 2'); "
        "print(e == fresh, {fresh: 1}.get(e))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONHASHSEED": "12345"}
    out = subprocess.run(
        [sys.executable, "-c", code], input=pickle.dumps(e), env=env,
        capture_output=True, check=True, timeout=60,
    )
    assert out.stdout.split() == [b"True", b"1"]
