"""Rules on the package source, checked on its syntax trees.

No ``assert`` statement decides anything, since ``python -O`` strips them
and the results must not depend on it; no module imports sympy, which
only the tests use as an oracle; floating point (mpmath) appears only
in the functions of MPMATH_ALLOWED, the numeric embeddings and checks;
and no public function, class, method or class attribute is dead: each
is read in the package, exported in ``grossen.__all__`` or on
CALLED_FROM_OUTSIDE.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import grossen

SOURCES = sorted(Path(grossen.__file__).resolve().parent.glob("*.py"))

# The float surface still open: the functions, per module, that may use a
# name bound by an mpmath import.  Every yes/no decision is exact.
MPMATH_ALLOWED = {
    "valuefield.py": {"AlgebraElement.embed", "ValueAlgebra._embedding",
                      "ValueAlgebra.embed_many"},
    "cmform.py": {"_max_imag", "_ramanujan_bound", "hecke_verify"},
    "cli.py": {"cmd_gross_eval"},
}

# Public names that nothing in the package uses or exports, each with the
# outside caller that keeps it.
CALLED_FROM_OUTSIDE = {
    "UnitsStructure.rebuild": "the benchmark's units workload",
    "clear_memo": "the tests' cold reset",
    "dedekind_maximal": "the round-two oracle test (ROADMAP item 11)",
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


def _is_mpmath_import(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "mpmath" for a in node.names)
    return (isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "mpmath")


def mpmath_uses(source: str, allowed=frozenset()) -> list[str]:
    """Each use of a name bound by an mpmath import, and each such import
    below module level, outside the allowed functions (qualified as
    Class.method, nested ones as outer.inner), with its line."""
    tree = ast.parse(source)
    names = {(a.asname or a.name).split(".")[0]
             for node in ast.walk(tree) if _is_mpmath_import(node)
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
            elif scope and _is_mpmath_import(child):
                out.append(f"line {child.lineno}: mpmath import in {scope}")
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
    allowed = MPMATH_ALLOWED.get(path.name, set())
    assert mpmath_uses(path.read_text(), allowed) == []


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
    assert len(mpmath_uses(source, allowed)) == count


def dead_names(sources: dict[str, str], exported=frozenset(),
               allowed=frozenset()) -> list[str]:
    """Each public module-level function or class and each public method
    or name assigned in a class body, qualified as Class.name, whose name
    no module other than __init__.py reads (as a name or an attribute),
    and which is neither exported nor allowed."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for name, tree in trees.items() if name != "__init__.py"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for name, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            found = [(node.name, node.name in exported)]
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{m.name}", False)
                          for m in node.body if isinstance(m, defs)]
                found += [(f"{node.name}.{t.id}", False)
                          for m in node.body if isinstance(m, ast.Assign)
                          for t in m.targets if isinstance(t, ast.Name)]
            out.extend(f"{name}: {qual}" for qual, export in found
                       if not qual.rsplit(".", 1)[-1].startswith("_")
                       and qual.rsplit(".", 1)[-1] not in used
                       and not export and qual not in allowed)
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
    ({"a.py": "class A:\n    def m(self):\n        return 1\n"
              "    def _p(self):\n        return 2\n"
              "    def __len__(self):\n        return 0\n"},
     {"A"}, set(), 1),
    ({"a.py": "class A:\n    def m(self):\n        return 1\n",
      "b.py": "def g(a):\n    return a.m()\n"}, {"A", "g"}, set(), 0),
    ({"a.py": "class A:\n    def m(self):\n        return 1\n"},
     {"A", "m"}, {"m"}, 1),
    ({"a.py": "def _f():\n    def g():\n        return 1\n"
              "    return g\n"}, set(), set(), 0),
    ({"a.py": "def _t(self):\n    return 1\nclass A:\n    t = _t\n"},
     {"A"}, set(), 1),
    ({"a.py": "class A:\n    t = 1\n", "b.py": "def g(a):\n    a.t = 2\n"},
     {"A", "g"}, set(), 1),
    ({"a.py": "class A:\n    t = 1\n", "b.py": "def g(a):\n    return a.t\n"},
     {"A", "g"}, set(), 0),
])
def test_planted_dead_names_are_found(sources, exported, allowed, count):
    assert len(dead_names(sources, exported, allowed)) == count
