"""Inventory of the memoizing caches in the program."""

import ast
from pathlib import Path

import gemax

CACHE_DECORATORS = {"lru_cache", "cache"}

#: the int-keyed Gauss-Legendre rules; the CLI parser, keyed on nothing, built
#: once per process because a build costs about 1 ms on every `main` call; and
#: the Airy bundle, the one cache keyed on a float argument
EXPECTED = {"special._leggauss", "cli.build_parser", "airy._bundle_cached"}


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def test_cache_inventory():
    found = set()
    for path in sorted(Path(gemax.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _decorator_name(d) in CACHE_DECORATORS for d in node.decorator_list
            ):
                found.add(f"{path.stem}.{node.name}")
    assert found == EXPECTED
