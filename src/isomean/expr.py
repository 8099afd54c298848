"""Expression trees: evaluation, symbolic differentiation, printing,
composition, and the affine scale-shift transforms.

The node set is deliberately closed — constant, variable, negate, the four
arithmetic operators, pow, and the elementary functions ln, exp, sin, cos,
tan, sinh, cosh, abs, sqrt — so that every expression has a symbolic
derivative and a known inversion recipe or monotone bracket.  Composition
happens through substitution of the single variable.

Nothing here recurses.  Differentiation, substitution, printing and
lowering are folds over one explicit-stack post-order walk.  Lowering
turns a tree into a program: its distinct constants, then ``(op, i, j)``
steps in evaluation order, each reading the slots of earlier ones.
Structurally equal subtrees share a slot.  The program and the derivative
are cached on the node.

One loop, :func:`_run`, runs a program, and it has one arithmetic: NumPy.
Negation, ``+``, ``-`` and ``*`` are the array operators; the op table
``_OPS`` supplies the elementary functions, ``/`` and ``^``, and also folds
constant nodes.  :func:`compile_numpy` runs the program on arrays, where
bad points come out NaN or inf.  :func:`evaluate` runs it at one point, on a
one-element array, and raises on a division by zero or a non-finite
intermediate; where it returns, its value is the array view's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from ._errors import DomainError, PreconditionError


@dataclass(frozen=True, repr=False, eq=False)
class Expr:
    """One node of an expression tree.

    `op` is the node tag, `args` the child nodes, and `value` carries the
    payload of a ``const`` node.  Instances are immutable and hashable;
    equality is structural, with constants compared by ``==`` (so 0.0 and
    -0.0 are equal).  The lowered program, the derivative and the hash are
    cached on the node the first time they are asked for.  ``repr``, ``==``
    and ``hash`` walk the tree without recursion, so trees of any depth
    work as dict keys.
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

    def __repr__(self) -> str:
        return f"Expr({to_string(self)!r})"

    def __hash__(self) -> int:
        return _cached(self, "_hash", lambda root: _fold(root, _hash_node))

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        if self is other:
            return True
        if hash(self) != hash(other):
            return False
        # Number the distinct structures of both trees from one table: the
        # trees are equal exactly when their roots get the same number.
        table = {}

        def number(node, kids):
            return table.setdefault((node.op, node.value, *kids), len(table))

        return _fold(self, number) == _fold(other, number)


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
        folded = _fold_const("pow", a.value, b.value)
        if folded is not None:
            return folded
    return Expr("pow", (a, b))


def _unary(op: str) -> Callable[[Expr], Expr]:
    """The constructor of `op` nodes: a constant argument is folded through
    the op table unless that leaves the domain."""

    def build(a: Expr) -> Expr:
        if a.op == "const":
            folded = _fold_const(op, a.value)
            if folded is not None:
                return folded
        return Expr(op, (a,))

    build.__name__ = build.__qualname__ = op
    return build


# The constructor of every operator node, by op.
_BUILD = {op: _unary(op) for op in ("ln", "exp", "sin", "cos", "tan", "sinh", "cosh", "abs", "sqrt")}
ln, exp, sin, cos, tan, sinh, cosh, absx, sqrt = _BUILD.values()
_BUILD.update(neg=neg, add=add, sub=sub, mul=mul, div=div, pow=powx)
# A number per op for the hash: a str hash changes with the process's hash
# seed, and the hash is cached on the node, which pickling keeps.
_OP_CODE = {op: i for i, op in enumerate(("const", "var", *_BUILD))}


# -- the walk -----------------------------------------------------------------

_EXPANDED = object()  # stack marker: the node below it has its children done


def _postorder(root: Expr) -> list:
    """Each distinct node object under `root` once, children before their
    parent and left before right, from an explicit stack."""
    order, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if node is _EXPANDED:
            node = stack.pop()
        elif id(node) in seen:
            continue
        elif node.args:
            stack += (node, _EXPANDED)
            stack.extend(node.args[::-1])
            continue
        seen.add(id(node))
        order.append(node)
    return order


def _fold(root: Expr, visit):
    """visit(node, results of its children) at every node; root's result.

    Nodes are keyed by identity, never hashed: the hash is itself a fold.
    """
    done = {}
    for node in _postorder(root):
        args = node.args
        done[id(node)] = visit(node, [done[id(a)] for a in args] if args else ())
    return done[id(root)]


def _hash_node(node: Expr, kids) -> int:
    """The node's hash from its children's, kept on the node."""
    if "_hash" not in node.__dict__:
        object.__setattr__(node, "_hash", hash((_OP_CODE[node.op], node.value, *kids)))
    return node.__dict__["_hash"]


def _cached(e: Expr, name: str, build):
    """build(e), computed once and kept on the node under `name`."""
    if name not in e.__dict__:
        object.__setattr__(e, name, build(e))
    return e.__dict__[name]


# -- the program ----------------------------------------------------------------

def _array_pow(a, b):
    if isinstance(b, float):
        # A scalar exponent of 2, 0.5 or -1 sends NumPy to its square, sqrt
        # or reciprocal shortcut; a full array keeps libm's pow at every point.
        full = np.empty_like(a)
        full.fill(b)
        b = full
    return np.power(a, b)


_OPS = {
    "ln": np.log, "exp": np.exp, "sin": np.sin, "cos": np.cos,
    "tan": np.tan, "sinh": np.sinh, "cosh": np.cosh, "abs": np.abs,
    "sqrt": np.sqrt, "div": np.divide, "pow": _array_pow,
}


@np.errstate(all="ignore")
def _fold_const(op: str, *args: float):
    """The constant node of op(*args) by the op table; None where the value
    is not finite, so the node is kept and evaluating it raises."""
    v = float(_OPS[op](*args))
    return const(v) if math.isfinite(v) else None


def _lower(root: Expr) -> tuple:
    """The program of `root`, ``(constants, steps)``.

    Slot 0 holds x, slots 1… the distinct constants, then one slot per step
    ``(op, i, j)`` in evaluation order, the root's last.
    """
    nodes = _postorder(root)
    slot_of, const_slot, step_slot = {}, {}, {}  # by id(node), by value, by step
    for node in nodes:
        if node.op == "const":  # keyed with its sign: -0.0 is not 0.0
            key = (node.value, math.copysign(1.0, node.value))
            slot_of[id(node)] = const_slot.setdefault(key, len(const_slot) + 1)
        elif node.op == "var":
            slot_of[id(node)] = 0
    for node in nodes:
        args = node.args
        if args:
            key = (node.op, slot_of[id(args[0])], slot_of[id(args[1])] if len(args) == 2 else -1)
            slot_of[id(node)] = step_slot.setdefault(key, 1 + len(const_slot) + len(step_slot))
    return tuple(v for v, _ in const_slot), tuple(step_slot)


def _run(prog: tuple, x):
    """Run a program at the array of points `x`; the root's value."""
    consts, steps = prog
    vals = [x, *consts]
    push = vals.append
    for op, i, j in steps:
        if j < 0:
            push(-vals[i] if op == "neg" else _OPS[op](vals[i]))
        elif op == "add":
            push(vals[i] + vals[j])
        elif op == "mul":
            push(vals[i] * vals[j])
        elif op == "sub":
            push(vals[i] - vals[j])
        else:
            push(_OPS[op](vals[i], vals[j]))
    return vals[-1]


# As a decorator np.errstate costs about half of a with-block per call.
_run_quietly = np.errstate(all="ignore")(_run)
_run_strictly = np.errstate(all="raise", under="ignore")(_run)


def evaluate(e: Expr, x: float) -> float:
    """Evaluate `e` at the point `x`: the program run on the one-element
    array [x], so a value it returns is the array view's value at x.

    Returns a finite float or raises DomainError — never a silent NaN/inf.
    A division by zero, an overflow or an invalid operation anywhere in the
    program raises, even where the root's value would be finite, as in
    exp(-exp(x)) at x = 1000; an underflow to zero does not.
    """
    try:
        v = _run_strictly(_cached(e, "_prog", _lower), np.array([float(x)]))
    except FloatingPointError as exc:
        reason = "division by zero" if "divide by zero" in str(exc) else "intermediate value not finite"
        raise DomainError(f"evaluation failed at x={x}: {reason}") from exc
    v = float(v[0]) if np.ndim(v) else float(v)
    if not math.isfinite(v):
        raise DomainError(f"evaluation left the finite domain at x={x}")
    return v


def compile_numpy(e: Expr) -> Callable[[np.ndarray], np.ndarray]:
    """Compile `e` into a vectorized ndarray→ndarray function.

    Out-of-domain samples come back as NaN/inf rather than raising, so
    callers doing grid work can mark bad points instead of aborting.
    """
    prog = _cached(e, "_prog", _lower)
    # A program without steps (x, a constant) computes nothing that could warn.
    run = _run_quietly if prog[1] else _run

    def compiled(x):
        arr = np.asarray(x, dtype=float)
        out = run(prog, arr)
        if np.ndim(out) == 0:
            out = np.full_like(arr, float(out))
        return out

    return compiled


def depends_on_var(e: Expr) -> bool:
    return any(node.op == "var" for node in _postorder(e))


# -- symbolic differentiation -------------------------------------------------

def differentiate(e: Expr) -> Expr:
    """Symbolic derivative with respect to the single variable."""
    return _cached(e, "_diff", lambda root: _fold(root, _derivative)[0])


# d/dx op(u) from u, the node op(u) itself, and u′.
_CHAIN = {
    "neg": lambda u, e, du: neg(du),
    "ln": lambda u, e, du: div(du, u),
    "exp": lambda u, e, du: mul(e, du),
    "sin": lambda u, e, du: mul(cos(u), du),
    "cos": lambda u, e, du: neg(mul(sin(u), du)),
    "tan": lambda u, e, du: div(du, powx(cos(u), const(2.0))),
    "sinh": lambda u, e, du: mul(cosh(u), du),
    "cosh": lambda u, e, du: mul(sinh(u), du),
    # u u′/|u|; undefined at u = 0, which is the correct domain.
    "abs": lambda u, e, du: div(mul(u, du), absx(u)),
    "sqrt": lambda u, e, du: div(du, mul(const(2.0), sqrt(u))),
}


def _derivative(e: Expr, kids: list) -> tuple:
    """(e′, whether e depends on x), from the same pair for each child."""
    op = e.op
    if op == "const":
        return const(0.0), False
    if op == "var":
        return const(1.0), True
    if len(kids) == 1:
        du, dep = kids[0]
        return _CHAIN[op](e.args[0], e, du), dep
    a, b = e.args
    (da, a_dep), (db, b_dep) = kids
    dep = a_dep or b_dep
    if op == "add":
        return add(da, db), dep
    if op == "sub":
        return sub(da, db), dep
    if op == "mul":
        return add(mul(da, b), mul(a, db)), dep
    if op == "div":
        return div(sub(mul(da, b), mul(a, db)), powx(b, const(2.0))), dep
    if not b_dep:
        # c constant: d/dx a^c = c a^(c-1) a'; keeps the domain of a^c
        # (the general rule would introduce ln a).
        return mul(mul(b, powx(a, sub(b, const(1.0)))), da), dep
    if not a_dep:
        # a constant: d/dx a^g = a^g ln(a) g'
        return mul(mul(e, ln(a)), db), dep
    # general: a^b (b' ln a + b a'/a)
    return mul(e, add(mul(db, ln(a)), mul(b, div(da, a)))), dep


# -- composition --------------------------------------------------------------

def substitute(e: Expr, replacement: Expr) -> Expr:
    """Replace the variable of `e` by `replacement` (composition e∘replacement)."""

    def visit(node, kids):
        if node.op == "var":
            return replacement
        return _BUILD[node.op](*kids) if kids else node

    return _fold(e, visit)


# -- printing -----------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5
_LEVEL = {"add": _LEVEL_ADD, "sub": _LEVEL_ADD, "mul": _LEVEL_MUL, "div": _LEVEL_MUL,
          "neg": _LEVEL_NEG, "pow": _LEVEL_POW}

# Infix operators: symbol, and the levels below which the left and the
# right operand are parenthesised.
_INFIX = {
    "add": (" + ", _LEVEL_ADD, _LEVEL_MUL),
    "sub": (" - ", _LEVEL_ADD, _LEVEL_MUL),
    "mul": ("*", _LEVEL_MUL, _LEVEL_NEG),
    "div": ("/", _LEVEL_MUL, _LEVEL_NEG),
    "pow": ("^", _LEVEL_ATOM, _LEVEL_POW),
}


def _fmt_number(v: float) -> str:
    if v.is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _level(e: Expr) -> int:
    if e.op == "const" and e.value < 0:
        return _LEVEL_NEG
    return _LEVEL.get(e.op, _LEVEL_ATOM)


def _print_node(e: Expr, kids: list) -> str:
    def operand(k, min_level):
        return f"({kids[k]})" if _level(e.args[k]) < min_level else kids[k]

    op = e.op
    if op == "const":
        return ("-" if e.value < 0 else "") + _fmt_number(abs(e.value))
    if op == "var":
        return "x"
    if op == "neg":
        return "-" + operand(0, _LEVEL_POW)
    if op in _INFIX:
        symbol, left, right = _INFIX[op]
        return operand(0, left) + symbol + operand(1, right)
    return f"{op}({kids[0]})"


def to_string(e: Expr) -> str:
    return _fold(e, _print_node)


# A callable stands for a function as its array view: it takes an array of
# points and gives the values in the same shape, NaN where it is undefined.
ExprLike = Union[Expr, Callable[[np.ndarray], np.ndarray]]


def as_scalar_fn(f: ExprLike) -> Callable[[float], float]:
    """The one-point call of :func:`as_vector_fn` (f): a float, NaN or
    ±inf where f is undefined, never an error."""
    fvec = as_vector_fn(f)
    return lambda x: float(np.asarray(fvec(np.array([float(x)])), dtype=float).reshape(-1)[0])


def as_vector_fn(f: ExprLike) -> Callable[[np.ndarray], np.ndarray]:
    """Array view of an Expr (its compiled program) or an array callable
    (the callable itself)."""
    return compile_numpy(f) if isinstance(f, Expr) else f


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

