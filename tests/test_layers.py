"""The package's import layering.

Every module of ``heavytail`` imports only modules below it in the order
errors -> randkit -> tailstats -> models -> cluster -> {limits, regen}
-> cli, with the package itself on top, so no import cycle can form.
Function-level imports count: they hide a cycle, they do not remove it.
"""
import ast
import os

import pytest

import heavytail

PACKAGE = os.path.dirname(heavytail.__file__)

LAYERS = {
    "errors": 0,
    "randkit": 1,
    "tailstats": 2,
    "models": 3,
    "cluster": 4,
    "limits": 5,
    "regen": 5,
    "cli": 6,
    "__init__": 7,
}


def _modules():
    return sorted(name[:-3] for name in os.listdir(PACKAGE)
                  if name.endswith(".py"))


def _imported(source):
    """Names of the package modules that ``source``, the text of a
    package module, imports anywhere. ``from . import x`` names module x,
    or the package itself when x is not a module."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] != "heavytail":
                    continue
                parts = parts[1:]
            elif node.level == 1:
                parts = node.module.split(".") if node.module else []
            else:
                raise AssertionError("import from above the package")
            if parts:
                found.add(parts[0])
            else:
                found.update(a.name if a.name in LAYERS else "__init__"
                             for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "heavytail":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def test_every_module_has_a_layer():
    assert set(_modules()) == set(LAYERS)


@pytest.mark.parametrize("module", _modules())
def test_imports_point_down(module):
    with open(os.path.join(PACKAGE, module + ".py")) as fh:
        targets = _imported(fh.read())
    up = sorted(t for t in targets if LAYERS[t] >= LAYERS[module])
    assert not up, f"{module} imports {up}, which are not below it"


@pytest.mark.parametrize("source, targets", [
    ("def f():\n    from .cluster import Direction\n", {"cluster"}),
    ("from . import __version__, models\n", {"__init__", "models"}),
    ("import heavytail.limits\nfrom heavytail import cli\n",
     {"limits", "cli"}),
    ("import numpy\nfrom numpy import linalg\n", set())])
def test_every_import_form_is_read(source, targets):
    assert _imported(source) == targets
