"""The package's import layering, and no unreached code.

Every module of ``heavytail`` imports only modules below it in the order
errors -> randkit -> tailstats -> models -> cluster -> {limits, regen}
-> cli, with the package itself on top, so no import cycle can form.
Function-level imports count: they hide a cycle, they do not remove it.

Every function, class and method of the package is reached from the
package itself, or is one of the few names only the benchmark tracer or
an acceptance criterion calls; every defaulted parameter of a
function of the package, and every defaulted constructor field of its
dataclasses, is set by at least one call, and by a call outside the
tests but for a few listed ones; every parameter is read by its body,
or by a sibling that shares its signature; and no module reads the
environment.
"""
import ast
from collections import Counter
import importlib.util
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


TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                      "tracer.py")

# names no module of the package calls beyond the tracer's TARGETS, with
# the check that calls them
OUTSIDE_CALLERS = {
    "regen.make_iid_minorization": "Criterion 8",
    "tailstats.TailFit.overlaps": "Criterion 8",
    "cluster.nu_alpha": "Criterion 10",
    "cluster.LimitMeasureEvaluator": "Criterion 10",
    "randkit.RngStream.counter": "bench/tracer.py, randkit.philox_blocks",
}


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return set(module.TARGETS)


def _identifiers(node):
    """Every name and attribute that ``node`` and its children read."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(module, tree):
    """(qualified name, node) of every module-level function and class
    of ``tree`` and every method of those classes but the dunders, which
    Python calls itself."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item


def test_every_public_name_is_reached():
    trees = {}
    for module in _modules():
        if module != "__init__":
            with open(os.path.join(PACKAGE, module + ".py")) as fh:
                trees[module] = ast.parse(fh.read())
    used = sum((_identifiers(t) for t in trees.values()), Counter())
    defined = {name: node for module, tree in trees.items()
               for name, node in _definitions(module, tree)}
    allowed = _tracer_targets() | set(OUTSIDE_CALLERS)
    assert allowed <= set(defined), sorted(allowed - set(defined))
    # a name is reached when it is read outside its own definition
    unreached = sorted(
        name for name, node in defined.items() if name not in allowed
        and used[node.name] <= _identifiers(node)[node.name])
    assert not unreached, f"defined but never called: {unreached}"


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _trees(*dirs):
    """(file name, parsed module) of every Python file under ``dirs``."""
    for top in dirs:
        for base, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    with open(os.path.join(base, name)) as fh:
                        yield name, ast.parse(fh.read())


def _name(node):
    """The name a decorator or callee ends in: ``f`` of ``f`` or
    ``module.f``."""
    return node.id if isinstance(node, ast.Name) else \
        getattr(node, "attr", None)


def _init_fields(node):
    """The constructor fields of ``node`` when it is a ``@dataclass``
    class (none otherwise), in order: each annotated class attribute but
    a ``field(init=False, ...)``. No dataclass of the package extends
    another, so the order is that of the constructor's arguments."""
    if not any(_name(d.func if isinstance(d, ast.Call) else d)
               == "dataclass" for d in node.decorator_list):
        return []
    fields = []
    for item in node.body:
        if not isinstance(item, ast.AnnAssign):
            continue
        value = item.value
        call = isinstance(value, ast.Call) and _name(value.func) == "field"
        if call and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in value.keywords):
            continue
        fields.append((item.target.id, value is not None and (
            not call or any(k.arg in ("default", "default_factory")
                            for k in value.keywords))))
    return fields


def _defaulted(tree):
    """(function name, parameter, position or None) of every defaulted
    parameter of every function in ``tree``, and of every defaulted
    constructor field of its dataclasses under the class's name. The
    position counts the arguments a call passes, so a method's ``self``
    is left out; keyword-only parameters have none."""
    methods = {id(item) for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for item in node.body
               if isinstance(item, ast.FunctionDef) and not any(
                   isinstance(d, ast.Name) and d.id == "staticmethod"
                   for d in item.decorator_list)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for i, (name, defaulted) in enumerate(_init_fields(node)):
                if defaulted:
                    yield node.name, name, i
        if isinstance(node, ast.FunctionDef):
            args = node.args
            params = args.posonlyargs + args.args
            skip = 1 if id(node) in methods else 0
            first = len(params) - len(args.defaults)
            for i, param in enumerate(params[first:], first):
                yield node.name, param.arg, i - skip
            for param, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, param.arg, None


def _unset_defaults(*callers):
    """Every defaulted parameter of the package, as module.func(param),
    that no call in the files under ``callers`` sets."""
    # what the calls of each name set: positions, keywords, or "*" for a
    # call through *args or **kwargs, which may set anything
    setters = {}
    for _, tree in _trees(*callers):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            got = setters.setdefault(_name(node.func), set())
            got.update(range(len(node.args)))
            got.update(k.arg or "*" for k in node.keywords)
            if any(isinstance(a, ast.Starred) for a in node.args):
                got.add("*")
    return sorted(
        f"{module[:-3]}.{func}({param})"
        for module, tree in _trees(os.path.join("src", "heavytail"))
        for func, param, pos in _defaulted(tree)
        if not setters.get(func, set()) & {"*", param, pos})


@pytest.mark.parametrize("source, defaulted", [
    ("def f(a, b=1, *, c=2, d):\n    pass\n",
     [("f", "b", 1), ("f", "c", None)]),
    ("@dataclass(eq=False)\nclass S:\n    a: int\n    b: int = 0\n"
     "    c: list = field(default_factory=list)\n"
     "    d: int = field(init=False, default=0)\n    e: int = field()\n"
     "    k = 1\n",
     [("S", "b", 1), ("S", "c", 2)]),
    ("@dataclasses.dataclass\nclass T:\n    a: int = 1\n"
     "    def m(self, x=None):\n        pass\n",
     [("T", "a", 0), ("m", "x", 0)]),
    ("class U:\n    a: int = 1\n", [])])
def test_every_default_is_seen(source, defaulted):
    assert list(_defaulted(ast.parse(source))) == defaulted


def test_every_defaulted_parameter_is_set_by_some_call():
    unset = _unset_defaults(os.path.join("src", "heavytail"), "tests",
                            "bench")
    assert not unset, f"defaulted parameters no call sets: {unset}"


# defaulted parameters that only tests set, with the test behind each
TEST_ONLY_DEFAULTS = {
    "limits.ldp_scan(region)": "Criterion 3",
}


def test_every_defaulted_parameter_is_set_outside_tests():
    # a setting no command or benchmark ever changes is a constant
    unset = _unset_defaults(os.path.join("src", "heavytail"), "bench")
    assert unset == sorted(TEST_ONLY_DEFAULTS), \
        f"defaulted parameters only tests set: {unset}"


def _environment_reads(tree):
    """``os.environ`` and ``os.getenv``, however imported, for every read
    of them in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in (
                "environ", "getenv"):
            found.add(f"os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.update(f"os.{a.name}" for a in node.names
                         if a.name in ("environ", "getenv"))
    return found


@pytest.mark.parametrize("module", _modules())
def test_no_module_reads_the_environment(module):
    # a setting the environment gives reaches a run unseen: every
    # setting of a run is a config key, a command-line option or an
    # argument, and the manifest echoes it
    with open(os.path.join(PACKAGE, module + ".py")) as fh:
        found = _environment_reads(ast.parse(fh.read()))
    assert not found, f"{module} reads the environment: {sorted(found)}"


@pytest.mark.parametrize("source, names", [
    ("n = os.environ.get('N')\n", {"os.environ"}),
    ("n = os.getenv('N', '1')\n", {"os.getenv"}),
    ("from os import environ, path\n", {"os.environ"}),
    ("p = os.path.join(a, b)\n", set())])
def test_every_environment_read_is_seen(source, names):
    assert _environment_reads(ast.parse(source)) == names


# parameters that no body of the package reads, with what reads them
UNREAD_PARAMETERS = {
    "cluster.closed_form_cluster_index(replicas)":
        "bench/tracer.py, cluster.replicas",
}


def _functions(prefix, body):
    """(qualified name, family, node) of every function in ``body`` and
    the functions nested in them. A method's family is its name, so a
    family's override and the base hook it overrides share one."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = f"{prefix}.{node.name}.{item.name}"
                    yield name, ("method", item.name), item
                    yield from _functions(name, item.body)
        elif isinstance(node, ast.FunctionDef):
            name = f"{prefix}.{node.name}"
            yield name, name, node
            yield from _functions(name, node.body)


def _handlers(tree):
    """Names of the functions the ``_HANDLERS`` table maps commands to,
    each the first of its ``(handler, stage)`` pair: they share one
    signature."""
    return {value.elts[0].id for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "_HANDLERS"
                    for t in node.targets)
            for value in node.value.values}


def test_every_parameter_is_read():
    found, reads = [], {}
    for module in _modules():
        with open(os.path.join(PACKAGE, module + ".py")) as fh:
            tree = ast.parse(fh.read())
        handlers = _handlers(tree)
        for name, family, node in _functions(module, tree.body):
            if node.name in handlers:
                family = ("handler", module)
            args = node.args
            params = [a.arg for a in (args.posonlyargs + args.args
                                      + args.kwonlyargs
                                      + [args.vararg, args.kwarg]) if a]
            if isinstance(family, tuple) and family[0] == "method":
                params = params[1:]  # self
            loaded = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Load)}
            reads.setdefault(family, set()).update(loaded)
            found += [(name, family, p) for p in params]
    unread = sorted(f"{name}({p})" for name, family, p in found
                    if p not in reads[family])
    assert unread == sorted(UNREAD_PARAMETERS), \
        f"parameters no body reads: {unread}"


# private names that one package module reads off another, with the
# reader that shares each; nothing else may cross a module boundary
SHARED_PRIVATE_NAMES = {
    "models._ar1": "the AR(1) scan of regen.harvest_blocks",
}


def _private_reads(tree, module):
    """Every ``_private`` name that ``tree`` reads off an object other
    than ``self`` or ``cls``, as ``owner._name``, and every one it
    imports, as ``module._name``; dunders are Python's own."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name, owner = node.attr, node.value
            if isinstance(owner, ast.Name) and owner.id in ("self", "cls"):
                continue
            found.add(f"{ast.unparse(owner)}.{name}")
        elif isinstance(node, ast.ImportFrom):
            source = (node.module or "").split(".")[-1] or module
            found.update(f"{source}.{a.name}" for a in node.names)
    return {name for name in found if name.split(".")[-1].startswith("_")
            and not name.split(".")[-1].startswith("__")}


def test_no_module_reads_another_modules_private_names():
    found = set()
    for module in _modules():
        with open(os.path.join(PACKAGE, module + ".py")) as fh:
            found |= _private_reads(ast.parse(fh.read()), module)
    assert found == set(SHARED_PRIVATE_NAMES), \
        f"private names read across modules: {sorted(found)}"


@pytest.mark.parametrize("source, names", [
    ("spec._pilot_cache[1] = 2\n", {"spec._pilot_cache"}),
    ("from .models import _ar1, tail_index\n", {"models._ar1"}),
    ("x = self._a + cls._b + type(s).__name__\n", set())])
def test_every_private_read_is_seen(source, names):
    assert _private_reads(ast.parse(source), "cli") == names


# the modules that key a stream by the master seed: every other module
# draws on the stream it is handed and on that stream's substreams
SEED_READERS = {"cli", "randkit"}


def _seed_reads(tree):
    """``derive_stream`` for every call of it, bare or off a module, and
    ``master_seed`` for every read of that attribute, in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if _name(node.func) == "derive_stream":
                found.add("derive_stream")
        elif isinstance(node, ast.Attribute) and node.attr == "master_seed":
            found.add(node.attr)
    return found


@pytest.mark.parametrize("module", sorted(set(_modules()) - SEED_READERS))
def test_only_the_runner_keys_a_stream_by_the_seed(module):
    with open(os.path.join(PACKAGE, module + ".py")) as fh:
        found = _seed_reads(ast.parse(fh.read()))
    assert not found, f"{module} keys a stream by the master seed: {found}"


@pytest.mark.parametrize("source, names", [
    ("s = derive_stream(seed, 7)\n", {"derive_stream"}),
    ("s = randkit.derive_stream(seed, 7)\n", {"derive_stream"}),
    ("x = pilot(spec, stream.master_seed)\n", {"master_seed"}),
    ("from .randkit import derive_stream\nx = stream.substream(3)\n",
     set())])
def test_every_seed_read_is_seen(source, names):
    assert _seed_reads(ast.parse(source)) == names
