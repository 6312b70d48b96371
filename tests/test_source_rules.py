"""Rules on the package source, checked on its syntax trees.

No ``assert`` statement decides anything, since ``python -O`` strips them
and the results must not depend on it; and no module imports sympy, which
only the tests use as an oracle.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import grossen

SOURCES = sorted(Path(grossen.__file__).resolve().parent.glob("*.py"))


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
