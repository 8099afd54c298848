"""Reference values computed apart from isomean.

Every reference is a closed form (or the root of a closed form) written
directly in mpmath at 30 significant digits.  Nothing here goes through
``isomean.parse`` or any other isomean code, so a fault in the library
cannot leak into the figure it is checked against.

Each function takes the same floats the library receives and converts them
exactly (``mpf(float)``), so references and results describe one problem.
"""
from __future__ import annotations

import mpmath as M

M.mp.dps = 30

E = M.e
PI = M.pi


def F(x: float):
    """The exact value of a float as an mpmath number."""
    return M.mpf(float(x))


# ---------------------------------------------------------------------------
# closed forms used by several workloads
# ---------------------------------------------------------------------------


def log_mean(a, b):
    a, b = F(a), F(b)
    return (b - a) / M.log(b / a)


def stolarsky_row(p, qs, a, b):
    """Q_{p,q}(a, b) for every q, from the definition, with each degenerate
    line taken as its own limit (written out here, not copied from the
    library).  Powers go through logarithms computed once per row."""
    p, a, b = F(p), F(a), F(b)
    la, lb = M.log(a), M.log(b)
    ap, bp = M.exp(p * la), M.exp(p * lb)
    out = []
    for q in qs:
        q = F(q)
        if p == 0 and q == 0:
            v = M.exp((la + lb) / 2)
        elif p == q:
            v = M.exp(M.log((ap + bp) / 2) / p)
        elif p + q == 0:
            v = M.exp(M.log((bp - ap) / (p * (lb - la))) / p)
        elif p == 0:
            v = M.exp(M.log((M.exp(q * lb) - M.exp(q * la)) / (q * (lb - la))) / q)
        elif q == 0:
            v = M.exp((bp * lb - ap * la) / (bp - ap) - 1 / p)
        else:
            core = p * (M.exp((p + q) * lb) - M.exp((p + q) * la)) / ((p + q) * (bp - ap))
            v = M.exp(M.log(core) / q)
        out.append(v)
    return out


def cubic_plus_x_inverse(u):
    """t with t^3 + t = u (Cardano; the cubic has one real root)."""
    u = M.mpf(u)
    s = M.sqrt(u * u / 4 + M.mpf(1) / 27)
    return _real_cbrt(u / 2 + s) + _real_cbrt(u / 2 - s)


def _real_cbrt(x):
    return M.sign(x) * M.cbrt(abs(x))


def x_plus_exp_inverse(u):
    """t with t + e^t = u, via the Lambert W function: t = u − W(e^u)."""
    u = M.mpf(u)
    return u - M.lambertw(M.exp(u)).real


# ---------------------------------------------------------------------------
# proper_means: one reference per mean kind, window [a, b] with 0 < a < b
# ---------------------------------------------------------------------------


def proper(kind: str, a, b, p=None):
    a, b = F(a), F(b)
    if kind == "class_I":  # f = exp, h = y^2
        return M.sqrt((M.exp(2 * b) - M.exp(2 * a)) / (2 * (b - a)))
    if kind == "class_II":  # f = sin, g = x^2
        anti = lambda x: M.sin(x) - x * M.cos(x)
        return 2 * (anti(b) - anti(a)) / (b * b - a * a)
    if kind == "class_III":  # f = exp, g = h = x^2
        anti = lambda x: M.exp(2 * x) * (x - M.mpf(1) / 2)
        return M.sqrt((anti(b) - anti(a)) / (b * b - a * a))
    if kind == "class_IV":  # f = exp, g = x^2, h = ln y
        return M.exp(M.mpf(2) / 3 * (b**3 - a**3) / (b * b - a * a))
    if kind == "class_V":  # g = ln x, h = y^2
        return M.sqrt((b * b - a * a) / (2 * M.log(b / a)))
    if kind == "class_VI":  # f = 1/(1+x^2)
        return (M.atan(b) - M.atan(a)) / (b - a)
    if kind == "class_VII":  # f = exp paired with ln
        t = (M.exp(b) * (b - 1) - M.exp(a) * (a - 1)) / (M.exp(b) - M.exp(a))
        return M.exp(t)
    if kind == "geometric":  # f = x^2 + 1
        anti = lambda x: x * M.log(x * x + 1) - 2 * x + 2 * M.atan(x)
        return M.exp((anti(b) - anti(a)) / (b - a))
    if kind == "harmonic":  # f = exp
        return (b - a) / (M.exp(-a) - M.exp(-b))
    if kind == "power":  # f = x, order p
        p = F(p)
        return ((b ** (p + 1) - a ** (p + 1)) / ((p + 1) * (b - a))) ** (1 / p)
    if kind == "elastic_ln":  # f = ln x
        return (M.log(a) + M.log(b)) / 2
    if kind == "elastic_sq":  # f = x^2
        return (b * b - a * a) / (2 * M.log(b / a))
    if kind == "plain":  # f = sin
        return (M.cos(a) - M.cos(b)) / (b - a)
    raise KeyError(kind)


def proper_hull(kind: str, a, b):
    """Exact [min f, max f] over [a, b] for the kind's function."""
    a, b = F(a), F(b)
    mono = {
        "class_I": M.exp,
        "class_III": M.exp,
        "class_IV": M.exp,
        "class_VII": M.exp,
        "harmonic": M.exp,
        "class_V": lambda x: x,
        "power": lambda x: x,
        "class_VI": lambda x: 1 / (1 + x * x),
        "geometric": lambda x: x * x + 1,
        "elastic_ln": M.log,
        "elastic_sq": lambda x: x * x,
    }
    if kind in mono:
        ya, yb = mono[kind](a), mono[kind](b)
        return min(ya, yb), max(ya, yb)
    # sin on a window inside (0, 3π/2): the only interior extremum is π/2
    ys = [M.sin(a), M.sin(b)] + ([M.mpf(1)] if a < PI / 2 < b else [])
    return min(ys), max(ys)


# ---------------------------------------------------------------------------
# improper_means
# ---------------------------------------------------------------------------


def sin_recip_mean(c):
    """Plain mean of sin(1/x) on [c, 1]: ∫ sin(1/x) dx = x sin(1/x) − Ci(1/x)."""
    c = F(c)
    anti = lambda x: x * M.sin(1 / x) - M.ci(1 / x)
    return (anti(1) - anti(c)) / (1 - c)


def improper(kind: str, s):
    """Reference and exact value hull (lo, hi) for an improper case."""
    s = F(s)
    inf = M.inf
    if kind == "geo_sin":  # geometric mean of s·sin on [0, π]
        return s / 2, (0, s)
    if kind == "ln":  # plain mean of ln x on (0, s]
        return M.log(s) - 1, (-inf, M.log(s))
    if kind == "rsqrt":  # plain mean of 1/sqrt(x) on (0, s]
        return 2 / M.sqrt(s), (1 / M.sqrt(s), inf)
    if kind == "geo_x":  # geometric mean of x on [0, s]
        return s / E, (0, s)
    if kind == "ln_sq":  # plain mean of ln(x)^2 on (0, s]: ∫ = x(ln²x − 2 ln x + 2)
        ls = M.log(s)
        return ls**2 - 2 * ls + 2, (0 if s >= 1 else ls**2, inf)
    if kind == "elastic_tan":  # elastic mean of s·tan on (0, π/2)
        return 2 * s / PI, (0, inf)
    if kind in ("sin_recip_far", "sin_recip_near"):  # plain mean of sin(1/x) on [s, 1]
        return sin_recip_mean(s), (-1, 1)
    if kind == "ln_sin":  # plain mean of ln(s·sin x) on (0, π)
        return M.log(s) - M.log(2), (-inf, M.log(s))
    if kind == "geo_tan":  # geometric mean of s·tan on (0, π/2)
        return s, (0, inf)
    if kind == "sqrt":  # plain mean of sqrt(x) on [0, s]
        return 2 * M.sqrt(s) / 3, (0, M.sqrt(s))
    raise KeyError(kind)


# ---------------------------------------------------------------------------
# verdicts: both means of each comparison, window [a, b]
# ---------------------------------------------------------------------------


def verdict_means(kind: str, a, b, p=None, q=None):
    """(left mean, right mean) for a comparison scenario kind."""
    a, b = F(a), F(b)
    ea, eb = M.exp(a), M.exp(b)
    if kind == "ClassI":  # f = exp; (x, y^2) vs (x, y)
        return M.sqrt((eb**2 - ea**2) / (2 * (b - a))), (eb - ea) / (b - a)
    if kind == "ClassII":  # f = x; (x^2, y) vs (x, y)
        return M.mpf(2) / 3 * (b**3 - a**3) / (b**2 - a**2), (a + b) / 2
    if kind == "ClassIII-pair":  # f = x; (x^p, y^p) vs (x^q, y^q)
        p, q = F(p), F(q)
        return ((a**p + b**p) / 2) ** (1 / p), ((a**q + b**q) / 2) ** (1 / q)
    if kind == "ExchangedDMs":  # f = π/2 − x; (cos, sin) vs (sin, cos)
        return (
            M.asin((M.cos(a) + M.cos(b)) / 2),
            M.acos((M.sin(a) + M.sin(b)) / 2),
        )
    sq_exp = M.sqrt(
        (M.exp(2 * b) * (b - M.mpf(1) / 2) - M.exp(2 * a) * (a - M.mpf(1) / 2)) / (b**2 - a**2)
    )
    if kind == "SameIVDM":  # f = exp; (x^2, y^2) vs (x^2, y)
        return sq_exp, 2 * (eb * (b - 1) - ea * (a - 1)) / (b**2 - a**2)
    if kind == "SamePVDM":  # f = exp; (x^2, y^2) vs (x, y^2)
        return sq_exp, M.sqrt((eb**2 - ea**2) / (2 * (b - a)))
    if kind == "ClassV":  # f = x; (ln x, y) vs (x^2, y^3)
        return log_mean(a, b), M.cbrt(M.mpf(2) / 5 * (b**5 - a**5) / (b**2 - a**2))
    if kind == "GeneralIV":  # f = exp; (x^2, y^3) vs (x, ln y)
        anti = lambda x: M.exp(3 * x) * (x / 3 - M.mpf(1) / 9)
        return M.cbrt(2 * (anti(b) - anti(a)) / (b**2 - a**2)), M.exp((a + b) / 2)
    if kind == "power_integral":  # f = x; (x, y^3) vs (x, y^2)
        return (
            M.cbrt((b**4 - a**4) / (4 * (b - a))),
            M.sqrt((b**3 - a**3) / (3 * (b - a))),
        )
    raise KeyError(kind)


def number_means(kind: str, xs, p=None, q=None):
    """(g-mean, h-mean) of an equal-weight tuple for a number-mean kind."""
    xs = [F(x) for x in xs]
    n = len(xs)
    if kind == "power_pair":  # g = x^p, h = x^q
        p, q = F(p), F(q)
        return (
            (M.fsum(x**p for x in xs) / n) ** (1 / p),
            (M.fsum(x**q for x in xs) / n) ** (1 / q),
        )
    if kind == "exp_vs_x":  # g = exp, h = identity
        return M.log(M.fsum(M.exp(x) for x in xs) / n), M.fsum(xs) / n
    raise KeyError(kind)


def geometric_vs_elastic_row(a, b, ps):
    """(G, E) for x^p on [a, b], for every p: G = I(a, b)^p and
    E = (b^p − a^p)/(p ln(b/a))."""
    a, b = F(a), F(b)
    la, lb = M.log(a), M.log(b)
    log_identric = (b * lb - a * la) / (b - a) - 1
    out = []
    for p in ps:
        p = F(p)
        out.append((M.exp(p * log_identric), (M.exp(p * lb) - M.exp(p * la)) / (p * (lb - la))))
    return out


# ---------------------------------------------------------------------------
# bivariate
# ---------------------------------------------------------------------------


def bivariate(kind: str, a, b):
    """Reference for a bivariate kind on [a, b]."""
    a, b = F(a), F(b)
    if kind == "classV_xexp_cubic":  # g = x + e^x, h = t^3 + t
        anti = lambda x: x**4 / 4 + x**2 / 2 + M.exp(x) * (x**3 - 3 * x**2 + 7 * x - 7)
        u = (anti(b) - anti(a)) / ((b + M.exp(b)) - (a + M.exp(a)))
        return cubic_plus_x_inverse(u)
    if kind == "classV_cubic_xexp":  # g = x^3 + x, h = t + e^t
        anti = lambda x: 3 * x**4 / 4 + x**2 / 2 + M.exp(x) * (3 * x**2 - 6 * x + 7)
        u = (anti(b) - anti(a)) / ((b**3 + b) - (a**3 + a))
        return x_plus_exp_inverse(u)
    if kind == "classV_cubic_ln":  # g = x^3 + x, h = ln t
        anti = lambda x: x**3 * M.log(x) - x**3 / 3 + x * M.log(x) - x
        return M.exp((anti(b) - anti(a)) / ((b**3 + b) - (a**3 + a)))
    if kind == "cauchy_cubic":  # f = x^4/4 + x^2/2, g = x: f' = t^3 + t
        f = lambda x: x**4 / 4 + x**2 / 2
        return cubic_plus_x_inverse((f(b) - f(a)) / (b - a))
    if kind == "cauchy_xexp":  # f = e^x + x^2/2, g = x: f' = t + e^t
        f = lambda x: M.exp(x) + x**2 / 2
        return x_plus_exp_inverse((f(b) - f(a)) / (b - a))
    if kind == "cauchy_to_classV":  # f = exp, g = x^2: e^t/(2t) = s, t > 1
        secant = (M.exp(b) - M.exp(a)) / (b**2 - a**2)
        return -M.lambertw(-1 / (2 * secant), -1).real
    if kind == "classV_to_cauchy":  # ∫ (x^3 + x)(1 + e^x) dx over [a, b]
        anti = lambda x: x**4 / 4 + x**2 / 2 + M.exp(x) * (x**3 - 3 * x**2 + 7 * x - 7)
        return anti(b) - anti(a)
    if kind == "first_mvt":  # ∫ e^x x^2 / ∫ x^2
        anti = lambda x: M.exp(x) * (x**2 - 2 * x + 2)
        return (anti(b) - anti(a)) / ((b**3 - a**3) / 3)
    raise KeyError(kind)
