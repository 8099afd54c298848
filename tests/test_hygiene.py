"""Source hygiene: no module of the package imports a name it never uses,
no private top-level name goes unreferenced by the whole package, no public
one goes unexported and unreferenced, no function of the expression module
recurses, and every name the benchmark's tracer wraps still exists."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "isomean"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by import statements in `source` and never loaded.

    A name counts as used when it occurs as an ``ast.Name``; the base of an
    attribute chain such as ``np.linalg.norm`` is such a node.
    ``from __future__`` imports are compiler directives and are skipped.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scan_finds_unused_names():
    src = "from __future__ import annotations\nimport os, sys\nfrom math import pi, tau\nprint(sys.argv, pi)\n"
    assert unused_imports(src) == ["os (line 2)", "tau (line 3)"]


def test_scan_counts_attribute_bases_and_annotations():
    src = "import numpy as np\nfrom typing import Optional\ndef f(x: Optional[int]):\n    return np.linalg.norm(x)\n"
    assert unused_imports(src) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def top_level_names(sources: dict) -> tuple:
    """(defined, referenced) over `sources`, a map of module name to text.

    `defined` maps ``module.name`` to each name bound at module level by a
    ``def``, a ``class`` or an assignment.  `referenced` holds every name
    some source loads as an ``ast.Name`` or reads as an attribute
    (``frame._limit_toward``).
    """
    defined = {}
    referenced = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                defined[f"{module}.{name}"] = name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def dead_private_names(sources: dict) -> list:
    """Private top-level names of `sources` that no source references.

    A private name starts with one underscore (see `top_level_names`).
    """
    defined, referenced = top_level_names(sources)
    return sorted(
        q for q, name in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in referenced
    )


def test_dead_name_scan_finds_unreferenced_private_names():
    sources = {
        "a": "_USED = 1\n_DEAD = 2\ndef _helper():\n    return _USED\nclass _Gone:\n    pass\n",
        "b": "from . import a\nprint(a._helper())\n",
    }
    assert dead_private_names(sources) == ["a._DEAD", "a._Gone"]


def test_package_has_no_dead_private_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert dead_private_names(sources) == []


def dead_public_names(sources: dict, kept=()) -> list:
    """Public top-level names of `sources` that nothing needs.

    A public name does not start with an underscore.  It is needed when the
    ``__all__`` of the ``__init__`` source exports it, when any source
    references it (see `top_level_names`), or when it is one of `kept`,
    the names looked up from outside the package.
    """
    init = sources.get("__init__", "")
    exported = set()
    for node in ast.parse(init).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            exported = set(ast.literal_eval(node.value))
    defined, referenced = top_level_names(sources)
    needed = exported | referenced | set(kept)
    return sorted(
        q for q, name in defined.items()
        if not name.startswith("_") and not q.startswith("__init__.") and name not in needed
    )


def test_dead_name_scan_finds_unexported_unreferenced_public_names():
    sources = {
        "__init__": "from .a import shown\n__all__ = ['shown']\n",
        "a": "LIMIT = 3\ndef shown():\n    return LIMIT\ndef helper():\n    pass\n"
             "def wrapped():\n    pass\nclass Gone:\n    pass\n",
        "b": "from . import a\nprint(a.helper())\n",
    }
    assert dead_public_names(sources, kept=["wrapped"]) == ["a.Gone"]
    assert dead_public_names(sources) == ["a.Gone", "a.wrapped"]


def test_package_has_no_dead_public_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    kept = [attr for _, attr, _ in tracer_lookups()]
    assert dead_public_names(sources, kept) == []


def self_references(source: str) -> list:
    """Functions of `source`, nested ones included, that refer to their own
    name: a call such as ``walk(x)`` or ``self.walk(x)``, or the function
    handed on as in ``map(walk, xs)``."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Name) and node.id == fn.name) or (
                    isinstance(node, ast.Attribute) and node.attr == fn.name
                ):
                    found.append(f"{fn.name} (line {node.lineno})")
    return found


def test_self_reference_scan_finds_recursion():
    src = (
        "def depth(e):\n    return 1 + max(map(depth, e.args), default=0)\n"
        "def size(e):\n    return 1 + sum(size(a) for a in e.args)\n"
        "class T:\n    def walk(self, e):\n        return [self.walk(a) for a in e.args]\n"
        "def outer(e):\n    def inner(a):\n        return inner(a)\n    return inner(e)\n"
        "def flat(e):\n    return flatten(e)\n"
    )
    assert self_references(src) == ["depth (line 2)", "size (line 4)", "walk (line 7)", "inner (line 10)"]


def test_expression_module_does_not_recurse():
    assert self_references((PACKAGE / "expr.py").read_text()) == []


TRACER = PACKAGE.parent.parent / "perfbench" / "tracer.py"


def tracer_spans() -> tuple:
    """The tracer's SPANS table, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS table in {TRACER}")


def tracer_lookups() -> list:
    """(module, attribute, class or None) of every name the tracer looks up:
    its SPANS table and the two names it wraps outside it."""
    lookups = [(module, attr, cls) for _, module, attr, cls in tracer_spans()]
    return lookups + [("isomean.quadrature", "is_improper_near", None), ("isomean.expr", "evaluate", None)]


def test_every_name_the_tracer_wraps_resolves():
    # `perfbench/run.py --trace 1` looks these up by name; a rename breaks it
    lookups = tracer_lookups()
    assert len(lookups) > 2
    for module, attr, cls in lookups:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), f"{module}:{cls or ''}.{attr}"


def unbounded_caches(source: str) -> list:
    """Caches in `source` that never evict: a call ``lru_cache(maxsize=None)``
    or ``lru_cache(None)``, and ``functools.cache`` read as an attribute or
    imported by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and "lru_cache" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            size = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "maxsize"), None
            )
            if isinstance(size, ast.Constant) and size.value is None:
                found.append((node.lineno, "lru_cache(maxsize=None)"))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "cache"
            and getattr(node.value, "id", None) == "functools"
        ):
            found.append((node.lineno, "functools.cache"))
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, "functools.cache") for a in node.names if a.name == "cache"]
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_cache_scan_finds_unbounded_caches():
    src = (
        "import functools\nfrom functools import lru_cache, cache\n"
        "@lru_cache(maxsize=None)\ndef a(x):\n    return x\n"
        "@functools.lru_cache(None)\ndef b(x):\n    return x\n"
        "@functools.cache\ndef c(x):\n    return x\n"
        "@lru_cache(maxsize=128)\ndef d(x):\n    return x\n"
        "@lru_cache\ndef e(x):\n    return x\n"
        "def f(cache):\n    return cache.cache\n"
    )
    assert unbounded_caches(src) == [
        "functools.cache (line 2)",
        "lru_cache(maxsize=None) (line 3)",
        "lru_cache(maxsize=None) (line 6)",
        "functools.cache (line 9)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unbounded_cache(path):
    assert unbounded_caches(path.read_text()) == []
