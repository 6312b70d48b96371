"""Rules on the package source, checked on its syntax trees.

No ``assert`` statement decides anything, since ``python -O`` strips them
and the results must not depend on it; no module imports sympy, which
only the tests use as an oracle; floating point (mpmath) appears only
in MPMATH_ALLOWED, the module of the numeric embedding and its checks;
Fraction appears in valuefield only in the functions of
FRACTION_ALLOWED, as the value algebra runs on integers; no module
imports a private name of ``survey``, so what the sweeps cache and when
it is emptied stays inside that module; and no
function, class, method or class attribute, private or public (dunders
excepted), is dead: each is read in the package outside its own
definition, exported in ``grossen.__all__`` or on CALLED_FROM_OUTSIDE.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

import grossen

SOURCES = sorted(Path(grossen.__file__).resolve().parent.glob("*.py"))

# The one module that may use a name bound by an mpmath import.  Every
# yes/no decision is exact.
MPMATH_ALLOWED = "numeric.py"

# The functions, per module, that may use a name bound by a fractions
# import: rational scalars, the output coords, the coordinates of build's
# inline roots and the one precomputation of the rule for z**phi.  The
# normal form, the structure constants and the cube test run on ints.
FRACTION_ALLOWED = {
    "valuefield.py": {"AlgebraElement.coords", "AlgebraElement.__mul__",
                      "AlgebraElement.__eq__", "ValueAlgebra.__init__",
                      "ValueAlgebra._wrap", "ValueAlgebra.scalar",
                      "_field_zeta_rule"},
}

# Public names that nothing in the package uses or exports, each with the
# outside caller that keeps it.
CALLED_FROM_OUTSIDE = {
    "UnitsStructure.rebuild": "the benchmark's units workload",
}


def violations(source: str) -> list[str]:
    """Each assert statement and each import of sympy, with its line."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            out.append(f"line {node.lineno}: assert")
        elif isinstance(node, ast.Import):
            out.extend(f"line {node.lineno}: import {a.name}"
                       for a in node.names
                       if a.name.split(".")[0] == "sympy")
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and (node.module or "").split(".")[0] == "sympy"):
            out.append(f"line {node.lineno}: from {node.module} import")
    return out


def _imports(node, module: str) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == module for a in node.names)
    return (isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == module)


def module_uses(source: str, module: str, allowed=frozenset()) -> list[str]:
    """Each use of a name bound by an import of module, annotations
    included, and each such import below module level, outside the
    allowed functions (qualified as Class.method, nested ones as
    outer.inner), with its line."""
    tree = ast.parse(source)
    names = {(a.asname or a.name).split(".")[0]
             for node in ast.walk(tree) if _imports(node, module)
             for a in node.names}
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
                if inner not in allowed:
                    visit(child, inner)
            elif isinstance(child, ast.Name) and child.id in names:
                out.append(f"line {child.lineno}: {child.id} in "
                           f"{scope or 'the module'}")
            elif scope and _imports(child, module):
                out.append(f"line {child.lineno}: {module} import in {scope}")
            else:
                visit(child, scope)

    visit(tree, "")
    return out


def test_the_package_has_sources():
    assert {p.name for p in SOURCES} >= {"__init__.py", "survey.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_and_no_sympy(path):
    assert violations(path.read_text()) == []


@pytest.mark.parametrize("source, count", [
    ("def f(x):\n    assert x > 0\n    return x\n", 1),
    ("import sympy\n", 1),
    ("import os, sympy.ntheory as nt\n", 1),
    ("from sympy import factorint\n", 1),
    ("from sympy.ntheory import isprime\n", 1),
    ("def f():\n    import sympy\n    return sympy\n", 1),
    ("import sympyx\nfrom .sympy import x\nx = 'assert'\n", 0),
])
def test_planted_violations_are_found(source, count):
    assert len(violations(source)) == count


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_mpmath_only_in_the_numeric_embeddings(path):
    uses = module_uses(path.read_text(), "mpmath")
    assert (uses != []) == (path.name == MPMATH_ALLOWED)


@pytest.mark.parametrize("source, allowed, count", [
    ("import mpmath\ndef f():\n    return mpmath.pi\n", set(), 1),
    ("from mpmath.libmp import fzero as z\ndef f():\n    return z\n",
     set(), 1),
    ("def f():\n    import mpmath\n    return mpmath.mpf(1)\n", set(), 2),
    ("import mpmath\nx = mpmath.mp.dps\n", set(), 1),
    ("import mpmath\nclass A:\n    def embed(self):\n"
     "        return mpmath.pi\n", {"A.embed"}, 0),
    ("import mpmath\nclass A:\n    def embed(self):\n"
     "        return mpmath.pi\n", {"embed"}, 1),
    ("import mpmath as mp\ndef g():\n    def embed():\n"
     "        return mp.pi\n    return embed\n", {"embed"}, 1),
    ("import os\nmpmath = 1\ndef f():\n    return os.sep, mpmath\n",
     set(), 0),
])
def test_planted_mpmath_uses_are_found(source, allowed, count):
    assert len(module_uses(source, "mpmath", allowed)) == count


@pytest.mark.parametrize("name", sorted(FRACTION_ALLOWED))
def test_fraction_only_at_the_edges(name):
    path = next(p for p in SOURCES if p.name == name)
    assert module_uses(path.read_text(), "fractions",
                       FRACTION_ALLOWED[name]) == []


@pytest.mark.parametrize("source, allowed, count", [
    ("from fractions import Fraction\ndef f(x):\n    return Fraction(x)\n",
     set(), 1),
    ("from fractions import Fraction\ndef f(x: Fraction) -> int:\n"
     "    return x\n", set(), 1),
    ("from fractions import Fraction\ndef f(x) -> dict[int, Fraction]:\n"
     "    return x\n", set(), 1),
    ("from fractions import Fraction\ndef f():\n    y: Fraction = 1\n"
     "    return y\n", set(), 1),
    ("from fractions import Fraction as F\nclass A:\n    def m(self):\n"
     "        return F(1)\n    def n(self):\n        return F(2)\n",
     {"A.m"}, 1),
    ("import fractions\ndef f():\n    return fractions.Fraction(1, 2)\n",
     set(), 1),
    ("def f():\n    from fractions import Fraction\n"
     "    return Fraction(1)\n", set(), 2),
    ("from fractions import Fraction\nx: Fraction = Fraction(1)\n",
     set(), 2),
    ("import fractionsx\nfrom math import gcd\ndef f(x: int) -> int:\n"
     "    return gcd(x, fractionsx.y)\n", set(), 0),
])
def test_planted_fraction_uses_are_found(source, allowed, count):
    assert len(module_uses(source, "fractions", allowed)) == count


def private_imports(source: str, module: str) -> list[str]:
    """Each underscore-prefixed name imported from the sibling module
    (``from .module import _name``), with its line."""
    return [f"line {node.lineno}: {a.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module == module
            for a in node.names if a.name.startswith("_")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_survey_names_outside_survey(path):
    assert private_imports(path.read_text(), "survey") == []


@pytest.mark.parametrize("source, count", [
    ("from .survey import _exponent_discs, _memoized, all_rows\n", 2),
    ("from .survey import (EXP2_BOUND,\n    _witness_row)\n", 1),
    ("def f():\n    from .survey import _d1_modulus\n    return 1\n", 1),
    ("from .survey import clear_memo, theorem2_tables\n", 0),
    ("from .chargroup import _chi_e_conditions\n", 0),
    ("from survey import _x\nfrom ..survey import _y\n", 0),
])
def test_planted_private_survey_imports_are_found(source, count):
    assert len(private_imports(source, "survey")) == count


def _loads(node: ast.AST) -> tuple[Counter, Counter]:
    """The names and the attributes read in node, with their counts."""
    names: Counter = Counter()
    attrs: Counter = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names[child.id] += 1
        elif (isinstance(child, ast.Attribute)
              and isinstance(child.ctx, ast.Load)):
            attrs[child.attr] += 1
    return names, attrs


def dead_names(sources: dict[str, str], exported=frozenset(),
               allowed=frozenset()) -> list[str]:
    """Each module-level function or class and each method or name assigned
    in a class body, qualified as Class.name, dunders excepted, whose name
    no module other than __init__.py reads outside the name's own
    definition, and which is neither exported nor allowed.  A module-level
    name is read as a name or an attribute; a class member only as an
    attribute, since a bare name never reaches it.  Private names are
    checked too, so a helper that only calls itself is dead."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    names: Counter = Counter()
    attrs: Counter = Counter()
    for name, tree in trees.items():
        if name != "__init__.py":
            tree_names, tree_attrs = _loads(tree)
            names += tree_names
            attrs += tree_attrs
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for name, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            found = [(node.name, node, node.name in exported, False)]
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{m.name}", m, False, True)
                          for m in node.body if isinstance(m, defs)]
                found += [(f"{node.name}.{t.id}", m, False, True)
                          for m in node.body if isinstance(m, ast.Assign)
                          for t in m.targets if isinstance(t, ast.Name)]
            for qual, defn, export, member in found:
                short = qual.rsplit(".", 1)[-1]
                if (export or qual in allowed
                        or short.startswith("__") and short.endswith("__")):
                    continue
                own_names, own_attrs = (_loads(defn) if name != "__init__.py"
                                        else (Counter(), Counter()))
                reads = attrs[short] - own_attrs[short]
                if not member:
                    reads += names[short] - own_names[short]
                if reads <= 0:
                    out.append(f"{name}: {qual}")
    return out


def test_no_dead_public_names():
    # exactly the allowed names are dead without the list, so an entry
    # goes once the package uses or exports its name
    sources = {p.name: p.read_text() for p in SOURCES}
    dead = dead_names(sources, set(grossen.__all__))
    assert sorted(d.split(": ")[1] for d in dead) == sorted(CALLED_FROM_OUTSIDE)


@pytest.mark.parametrize("sources, exported, allowed, count", [
    ({"a.py": "def f():\n    return 1\n"}, set(), set(), 1),
    ({"a.py": "def f():\n    return 1\n"}, {"f"}, set(), 0),
    ({"a.py": "def f():\n    return 1\n"}, set(), {"f"}, 0),
    ({"a.py": "def f():\n    return 1\n", "b.py": "x = f()\n"},
     set(), set(), 0),
    ({"a.py": "def f():\n    return 1\n",
      "__init__.py": "from .a import f\nx = f\n"}, set(), set(), 1),
    # a dunder is never dead, a private method read by a sibling is live
    ({"a.py": "class A:\n    def m(self):\n        return self._p()\n"
              "    def _p(self):\n        return 2\n"
              "    def __len__(self):\n        return 0\n"},
     {"A"}, set(), 1),
    ({"a.py": "class A:\n    def m(self):\n        return 1\n",
      "b.py": "def g(a):\n    return a.m()\n"}, {"A", "g"}, set(), 0),
    ({"a.py": "class A:\n    def m(self):\n        return 1\n"},
     {"A", "m"}, {"m"}, 1),
    # a nested function is not checked
    ({"a.py": "def _f():\n    def g():\n        return 1\n"
              "    return g\nx = _f()\n"}, set(), set(), 0),
    ({"a.py": "def _t(self):\n    return 1\nclass A:\n    t = _t\n"},
     {"A"}, set(), 1),
    ({"a.py": "class A:\n    t = 1\n", "b.py": "def g(a):\n    a.t = 2\n"},
     {"A", "g"}, set(), 1),
    ({"a.py": "class A:\n    t = 1\n", "b.py": "def g(a):\n    return a.t\n"},
     {"A", "g"}, set(), 0),
    # a method read only as a bare name is dead, read as x.m it is live
    ({"a.py": "class A:\n    def m(self):\n        return 1\n",
      "b.py": "def g(m):\n    return m()\n"}, {"A", "g"}, set(), 1),
    ({"a.py": "class A:\n    def m(self):\n        return 1\n",
      "b.py": "def g(x):\n    return x.m()\n"}, {"A", "g"}, set(), 0),
    # a module-level function read as an attribute is live
    ({"a.py": "def f():\n    return 1\n", "b.py": "import a\nx = a.f()\n"},
     set(), set(), 0),
    # a private helper read only by its own recursion is dead, one also
    # called from elsewhere is live; the same for a method
    ({"a.py": "def _f(n):\n    return _f(n - 1) if n else 0\n"},
     set(), set(), 1),
    ({"a.py": "def _f(n):\n    return _f(n - 1) if n else 0\n",
      "b.py": "x = _f(3)\n"}, set(), set(), 0),
    ({"a.py": "class A:\n    def _r(self, n):\n"
              "        return self._r(n - 1) if n else 0\n"},
     {"A"}, set(), 1),
    ({"a.py": "class A:\n    def _r(self, n):\n"
              "        return self._r(n - 1) if n else 0\n",
      "b.py": "def g(a):\n    return a._r(2)\n"}, {"A", "g"}, set(), 0),
    # a class read only inside its own body is dead
    ({"a.py": "class A:\n    def m(self):\n        return A\n"},
     set(), {"A.m"}, 1),
])
def test_planted_dead_names_are_found(sources, exported, allowed, count):
    assert len(dead_names(sources, exported, allowed)) == count
