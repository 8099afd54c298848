"""Expression trees: evaluation, symbolic differentiation, printing,
composition, and the affine scale-shift transforms.

The node set is deliberately closed — constant, variable, negate, the four
arithmetic operators, pow, and the elementary functions ln, exp, sin, cos,
tan, sinh, cosh, abs, sqrt — so that every expression has a symbolic
derivative and a known inversion recipe or monotone bracket.  Composition
happens through substitution of the single variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from ._errors import DomainError, PreconditionError

_MATH_FN = {
    "ln": math.log,
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "abs": abs,
    "sqrt": math.sqrt,
}

_NUMPY_FN = {
    "neg": np.negative,
    "ln": np.log,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "abs": np.abs,
    "sqrt": np.sqrt,
}


@dataclass(frozen=True)
class Expr:
    """One node of an expression tree.

    `op` is the node tag, `args` the child nodes, and `value` carries the
    payload of a ``const`` node.  Instances are immutable and hashable.
    """

    op: str
    args: tuple["Expr", ...] = ()
    value: float = 0.0

    # Convenience operators so code building derivative rules stays readable.
    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return sub(self, _as_expr(other))

    def __rsub__(self, other):
        return sub(_as_expr(other), self)

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return div(_as_expr(other), self)

    def __pow__(self, other):
        return powx(self, _as_expr(other))

    def __neg__(self):
        return neg(self)

    def __call__(self, x: float) -> float:
        return evaluate(self, x)

    def __str__(self) -> str:
        return to_string(self)


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    return const(float(v))


# -- smart constructors (constant folding only; no CAS rewriting) ------------

def const(v: float) -> Expr:
    v = float(v)
    if math.isnan(v):
        raise PreconditionError("constant node must not be NaN")
    return Expr("const", (), v)


_VAR = Expr("var")


def var() -> Expr:
    return _VAR


def neg(a: Expr) -> Expr:
    if a.op == "const":
        return const(-a.value)
    if a.op == "neg":
        return a.args[0]
    return Expr("neg", (a,))


def add(a: Expr, b: Expr) -> Expr:
    if a.op == "const" and b.op == "const":
        return const(a.value + b.value)
    if a.op == "const" and a.value == 0.0:
        return b
    if b.op == "const" and b.value == 0.0:
        return a
    return Expr("add", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    if a.op == "const" and b.op == "const":
        return const(a.value - b.value)
    if b.op == "const" and b.value == 0.0:
        return a
    if a.op == "const" and a.value == 0.0:
        return neg(b)
    return Expr("sub", (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    if a.op == "const" and b.op == "const":
        return const(a.value * b.value)
    if a.op == "const":
        if a.value == 0.0:
            return const(0.0)
        if a.value == 1.0:
            return b
    if b.op == "const":
        if b.value == 0.0:
            return const(0.0)
        if b.value == 1.0:
            return a
    return Expr("mul", (a, b))


def div(a: Expr, b: Expr) -> Expr:
    if a.op == "const" and b.op == "const" and b.value != 0.0:
        return const(a.value / b.value)
    if b.op == "const" and b.value == 1.0:
        return a
    return Expr("div", (a, b))


def powx(a: Expr, b: Expr) -> Expr:
    if b.op == "const" and b.value == 1.0:
        return a
    if a.op == "const" and b.op == "const":
        try:
            return const(math.pow(a.value, b.value))
        except (ValueError, OverflowError):
            pass  # out of domain: keep the node, evaluation will raise
    return Expr("pow", (a, b))


def _fold_unary(op: str, a: Expr) -> Expr:
    if a.op == "const":
        try:
            return const(_MATH_FN[op](a.value))
        except (ValueError, OverflowError):
            pass
    return Expr(op, (a,))


def ln(a: Expr) -> Expr:
    return _fold_unary("ln", a)


def exp(a: Expr) -> Expr:
    return _fold_unary("exp", a)


def sin(a: Expr) -> Expr:
    return _fold_unary("sin", a)


def cos(a: Expr) -> Expr:
    return _fold_unary("cos", a)


def tan(a: Expr) -> Expr:
    return _fold_unary("tan", a)


def sinh(a: Expr) -> Expr:
    return _fold_unary("sinh", a)


def cosh(a: Expr) -> Expr:
    return _fold_unary("cosh", a)


def absx(a: Expr) -> Expr:
    return _fold_unary("abs", a)


def sqrt(a: Expr) -> Expr:
    return _fold_unary("sqrt", a)


# -- evaluation ---------------------------------------------------------------

def evaluate(e: Expr, x: float) -> float:
    """Evaluate `e` at the point `x`.

    Returns a finite float or raises DomainError — never a silent NaN/inf.
    """
    try:
        v = _eval(e, float(x))
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"evaluation failed at x={x}: {exc}") from exc
    if not math.isfinite(v):
        raise DomainError(f"evaluation left the finite domain at x={x}")
    return v


def _eval(e: Expr, x: float) -> float:
    op = e.op
    if op == "const":
        return e.value
    if op == "var":
        return x
    if op == "neg":
        return -_eval(e.args[0], x)
    if op in _MATH_FN:
        return _MATH_FN[op](_eval(e.args[0], x))
    a = _eval(e.args[0], x)
    b = _eval(e.args[1], x)
    if op == "add":
        v = a + b
    elif op == "sub":
        v = a - b
    elif op == "mul":
        v = a * b
    elif op == "div":
        if b == 0.0:
            raise ZeroDivisionError("division by zero")
        v = a / b
    elif op == "pow":
        v = math.pow(a, b)
    else:  # pragma: no cover - closed node set
        raise PreconditionError(f"unknown node op {op!r}")
    if not math.isfinite(v):
        raise OverflowError("intermediate value not finite")
    return v


def depends_on_var(e: Expr) -> bool:
    if e.op == "var":
        return True
    return any(depends_on_var(a) for a in e.args)


# -- symbolic differentiation -------------------------------------------------

def differentiate(e: Expr) -> Expr:
    """Symbolic derivative with respect to the single variable."""
    op = e.op
    if op == "const":
        return const(0.0)
    if op == "var":
        return const(1.0)
    if op == "neg":
        return neg(differentiate(e.args[0]))
    if op == "add":
        return add(differentiate(e.args[0]), differentiate(e.args[1]))
    if op == "sub":
        return sub(differentiate(e.args[0]), differentiate(e.args[1]))
    if op == "mul":
        a, b = e.args
        return add(mul(differentiate(a), b), mul(a, differentiate(b)))
    if op == "div":
        a, b = e.args
        num = sub(mul(differentiate(a), b), mul(a, differentiate(b)))
        return div(num, powx(b, const(2.0)))
    if op == "pow":
        a, b = e.args
        da = differentiate(a)
        if not depends_on_var(b):
            # c constant: d/dx a^c = c a^(c-1) a'; keeps the domain of a^c
            # (the general rule would introduce ln a).
            return mul(mul(b, powx(a, sub(b, const(1.0)))), da)
        db = differentiate(b)
        if not depends_on_var(a):
            # a constant: d/dx a^g = a^g ln(a) g'
            return mul(mul(e, ln(a)), db)
        # general: a^b (b' ln a + b a'/a)
        return mul(e, add(mul(db, ln(a)), mul(b, div(da, a))))
    arg = e.args[0]
    d = differentiate(arg)
    if op == "ln":
        return div(d, arg)
    if op == "exp":
        return mul(e, d)
    if op == "sin":
        return mul(cos(arg), d)
    if op == "cos":
        return neg(mul(sin(arg), d))
    if op == "tan":
        return div(d, powx(cos(arg), const(2.0)))
    if op == "sinh":
        return mul(cosh(arg), d)
    if op == "cosh":
        return mul(sinh(arg), d)
    if op == "abs":
        # f f'/|f|; undefined at f = 0, which is the correct domain.
        return div(mul(arg, d), absx(arg))
    if op == "sqrt":
        return div(d, mul(const(2.0), sqrt(arg)))
    raise PreconditionError(f"unknown node op {op!r}")  # pragma: no cover


# -- composition --------------------------------------------------------------

def substitute(e: Expr, replacement: Expr) -> Expr:
    """Replace the variable of `e` by `replacement` (composition e∘replacement)."""
    op = e.op
    if op == "const":
        return e
    if op == "var":
        return replacement
    rebuilt = tuple(substitute(a, replacement) for a in e.args)
    if op == "neg":
        return neg(rebuilt[0])
    if op == "add":
        return add(*rebuilt)
    if op == "sub":
        return sub(*rebuilt)
    if op == "mul":
        return mul(*rebuilt)
    if op == "div":
        return div(*rebuilt)
    if op == "pow":
        return powx(*rebuilt)
    return _fold_unary(op, rebuilt[0])


# -- printing -----------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _fmt_number(v: float) -> str:
    if v.is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _level(e: Expr) -> int:
    op = e.op
    if op in ("add", "sub"):
        return _LEVEL_ADD
    if op in ("mul", "div"):
        return _LEVEL_MUL
    if op == "neg" or (op == "const" and e.value < 0):
        return _LEVEL_NEG
    if op == "pow":
        return _LEVEL_POW
    return _LEVEL_ATOM


def _print(e: Expr, min_level: int) -> str:
    s = _print_raw(e)
    if _level(e) < min_level:
        return f"({s})"
    return s


def _print_raw(e: Expr) -> str:
    op = e.op
    if op == "const":
        if e.value < 0:
            return "-" + _fmt_number(-e.value)
        return _fmt_number(e.value)
    if op == "var":
        return "x"
    if op == "neg":
        return "-" + _print(e.args[0], _LEVEL_POW)
    if op == "add":
        return f"{_print(e.args[0], _LEVEL_ADD)} + {_print(e.args[1], _LEVEL_MUL)}"
    if op == "sub":
        return f"{_print(e.args[0], _LEVEL_ADD)} - {_print(e.args[1], _LEVEL_MUL)}"
    if op == "mul":
        return f"{_print(e.args[0], _LEVEL_MUL)}*{_print(e.args[1], _LEVEL_NEG)}"
    if op == "div":
        return f"{_print(e.args[0], _LEVEL_MUL)}/{_print(e.args[1], _LEVEL_NEG)}"
    if op == "pow":
        return f"{_print(e.args[0], _LEVEL_ATOM)}^{_print(e.args[1], _LEVEL_POW)}"
    name = "abs" if op == "abs" else op
    return f"{name}({_print(e.args[0], 0)})"


def to_string(e: Expr) -> str:
    return _print(e, 0)


# -- vectorized evaluation ----------------------------------------------------

def compile_numpy(e: Expr) -> Callable[[np.ndarray], np.ndarray]:
    """Compile `e` into a vectorized ndarray→ndarray function.

    Out-of-domain samples come back as NaN/inf rather than raising, so
    callers doing grid work can mark bad points instead of aborting.
    """
    fn = _compile(e)

    def compiled(x):
        arr = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            out = fn(arr)
        if np.ndim(out) == 0:
            out = np.full_like(arr, float(out))
        return out

    return compiled


def _compile(e: Expr):
    op = e.op
    if op == "const":
        v = e.value
        return lambda x: np.full(np.shape(x), v)
    if op == "var":
        return lambda x: x
    if op in _NUMPY_FN and op != "neg":
        a = _compile(e.args[0])
        f = _NUMPY_FN[op]
        return lambda x: f(a(x))
    if op == "neg":
        a = _compile(e.args[0])
        return lambda x: -a(x)
    a = _compile(e.args[0])
    b = _compile(e.args[1])
    if op == "add":
        return lambda x: a(x) + b(x)
    if op == "sub":
        return lambda x: a(x) - b(x)
    if op == "mul":
        return lambda x: a(x) * b(x)
    if op == "div":
        return lambda x: a(x) / b(x)
    if op == "pow":
        return lambda x: np.power(a(x), b(x))
    raise PreconditionError(f"unknown node op {op!r}")  # pragma: no cover


ExprLike = Union[Expr, Callable[[float], float]]


def as_scalar_fn(f: ExprLike) -> Callable[[float], float]:
    """Uniform scalar view of an Expr or a plain callable."""
    if isinstance(f, Expr):
        return lambda x: evaluate(f, x)
    return f


def as_vector_fn(f: ExprLike) -> Callable[[np.ndarray], np.ndarray]:
    """Uniform vectorized view of an Expr or a plain callable.

    Plain callables are looped; Exprs go through the compiled fast path.
    """
    if isinstance(f, Expr):
        return compile_numpy(f)

    def looped(x):
        arr = np.asarray(x, dtype=float)
        flat = arr.ravel()
        out = np.empty_like(flat)
        for i, v in enumerate(flat):
            try:
                out[i] = f(float(v))
            except (DomainError, ValueError, OverflowError, ZeroDivisionError):
                out[i] = np.nan
        return out.reshape(arr.shape)

    return looped


# -- scale-shift transforms ---------------------------------------------------

@dataclass(frozen=True)
class ScaleShift:
    """An affine transform u ↦ k·u + C with nonzero scale."""

    k: float
    C: float = 0.0

    def __post_init__(self):
        if self.k == 0.0:
            raise PreconditionError("scale k must be nonzero")


def v_scaleshift(e: Expr, s: ScaleShift) -> Expr:
    """Vertical: x ↦ k·f(x) + C."""
    return add(mul(const(s.k), e), const(s.C))


def h_scaleshift(e: Expr, s: ScaleShift) -> Expr:
    """Horizontal: u ↦ f((u − C)/k); defined for u in k·dom(f) + C."""
    return substitute(e, div(sub(var(), const(s.C)), const(s.k)))


def hv_scaleshift(e: Expr, sv: ScaleShift, sh: ScaleShift) -> Expr:
    """Both axes: u ↦ k·f((u − Q)/p) + L with sv=(k, L), sh=(p, Q)."""
    return v_scaleshift(h_scaleshift(e, sh), sv)


def h_scaleshift_interval(d, s: ScaleShift):
    """Domain of h_scaleshift(e, s) given dom(e) = d: the image k·d + C."""
    from .intervals import Interval

    lo = s.k * d.lo + s.C
    hi = s.k * d.hi + s.C
    if s.k > 0:
        return Interval(lo, hi, d.lo_open, d.hi_open)
    return Interval(hi, lo, d.hi_open, d.lo_open)
