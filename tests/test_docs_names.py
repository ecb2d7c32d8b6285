"""Every name the docs put in backticks names code that exists.

The inline code spans of ``docs/*.md`` and ``README.md`` (fenced blocks
left out) are checked when they hold a name of one of three kinds:

* a dotted ``repro.…`` name resolves by import, then attribute lookup;
* ``Class.attr`` resolves against the classes defined in ``repro``,
  counting dataclass and NamedTuple fields and the attributes that
  ``__init__`` sets;
* a bare CamelCase name resolves against the globals of the ``repro``
  modules, the builtins and the ``Test*`` classes under ``tests/``.

Other spans (commands, paths, expressions, lowercase names) are not
checked.  :data:`HISTORICAL` lists the names the docs keep in passages
that say the code is gone.
"""

from __future__ import annotations

import ast
import builtins
import dataclasses
import functools
import glob
import importlib
import inspect
import os
import pkgutil
import re
import textwrap

import repro

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Names the docs quote as removed code.
HISTORICAL = {
    "Machine.fetch",
    "TraceCompiler.compile_entry",
    "TranslatedTrace.compile_at",
    "repro.vm.compile._FACTORIES",
}

_FENCE = re.compile(r"```.*?```", re.S)
_SPAN = re.compile(r"`([^`\n]+)`")
_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
_CAMEL = re.compile(r"_?[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*")


def documented_names() -> dict:
    """``{name: [doc, ...]}`` of every backticked dotted or bare
    identifier, a trailing ``()`` dropped."""
    names: dict = {}
    docs = sorted(glob.glob(os.path.join(REPO, "docs", "*.md")))
    for path in docs + [os.path.join(REPO, "README.md")]:
        with open(path) as handle:
            text = _FENCE.sub("", handle.read())
        for span in _SPAN.findall(text):
            name = span.strip().removesuffix("()")
            if _NAME.fullmatch(name):
                names.setdefault(name, []).append(os.path.basename(path))
    return names


@functools.lru_cache(maxsize=None)
def _inventory():
    """``(classes by name, every module global, Test* class names)``."""
    classes: dict = {}
    module_globals = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        for key, value in vars(importlib.import_module(info.name)).items():
            module_globals.add(key)
            if (inspect.isclass(value)
                    and value.__module__.startswith("repro")):
                classes.setdefault(key, set()).add(value)
    test_classes = set()
    for path in glob.glob(os.path.join(REPO, "tests", "*.py")):
        with open(path) as handle:
            test_classes.update(
                re.findall(r"^class (Test\w+)", handle.read(), re.M))
    return classes, module_globals, test_classes


def _instance_attribute(cls, attr: str) -> bool:
    """Whether ``attr`` is a field of ``cls`` or set by an ``__init__``
    in its MRO."""
    if dataclasses.is_dataclass(cls) and attr in {
            item.name for item in dataclasses.fields(cls)}:
        return True
    if attr in getattr(cls, "_fields", ()):
        return True
    for klass in cls.__mro__:
        try:
            source = inspect.getsource(vars(klass)["__init__"])
        except (KeyError, TypeError, OSError):
            continue  # no __init__ of its own, or a generated one
        for node in ast.walk(ast.parse(textwrap.dedent(source))):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self" and node.attr == attr):
                return True
    return False


def _found_on(owner, parts) -> bool:
    """Whether the attribute path ``parts`` exists on ``owner``; a path
    that reaches an instance attribute of a class ends there."""
    for part in parts:
        if hasattr(owner, part):
            owner = getattr(owner, part)
        else:
            return inspect.isclass(owner) and _instance_attribute(owner, part)
    return True


def resolves(name: str):
    """True or False for a checked name, None for one of no kind."""
    parts = name.split(".")
    if parts[0] == "repro":
        for cut in range(len(parts), 0, -1):
            try:
                module = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            return _found_on(module, parts[cut:])
        return False
    if not _CAMEL.fullmatch(parts[0]):
        return None
    classes, module_globals, test_classes = _inventory()
    if len(parts) == 1:
        return (name in module_globals or hasattr(builtins, name)
                or name in test_classes)
    return any(_found_on(cls, parts[1:]) for cls in classes.get(parts[0], ()))


def test_every_documented_name_resolves():
    missing = {
        name: docs for name, docs in sorted(documented_names().items())
        if name not in HISTORICAL and resolves(name) is False
    }
    assert not missing, "backticked names that name no code: %s" % missing


def test_historical_names_are_quoted_and_gone():
    names = documented_names()
    assert {name for name in HISTORICAL if name not in names} == set()
    assert {name for name in HISTORICAL if resolves(name)} == set()
