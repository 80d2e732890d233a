"""Every function, class, method and module-level name in src/sqcount has a
caller in the package, and every exception class a handler in the CLI.

Code whose only callers are tests is deleted rather than kept. This scan
stops it from growing back. A top-level definition, which is a function,
a class or a name assigned at module level, counts as used when,
outside its own body, its name appears in its own module, another module
of the package imports it by name, or the package reaches it as an
attribute. A local variable of the same name in another module does not
count. A method other than a dunder counts as used when, outside its own
body, the package reaches its name as an attribute. A name imported into
a module must be used there, or the import would keep its definition
looking used. A function defined inside another must be named again in
that function, outside its own body.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sqcount"

# definitions kept without a caller in the package, each with its reason
ALLOWED = {
    "main": "console-script entry point declared in pyproject.toml",
}

# (module, name) of imports kept without a use in the module, each with its
# reason
UNUSED_IMPORTS = {
    ("moments", "enumerate_points"):
        "perfbench/test_perfbench.py checks that the tracer rewraps it",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _names(tree) -> Counter:
    return Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))


def _attributes(tree) -> Counter:
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute))


def _definitions(tree):
    """(name, node) of each function, class and assigned name at the top
    level of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _imported(modules) -> set:
    """(module, name) for every `from .module import name` in the package;
    `from . import name` imports from __init__."""
    return {
        (node.module or "__init__", alias.name)
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_every_definition_has_a_package_caller():
    modules = _modules()
    imported = _imported(modules)
    names = {module: _names(tree) for module, tree in modules.items()}
    attributes = sum((_attributes(tree) for tree in modules.values()), Counter())
    unused = [
        f"{module}.py:{node.lineno} {name}"
        for module, tree in modules.items()
        for name, node in _definitions(tree)
        if name not in ALLOWED
        and (module, name) not in imported
        and names[module][name] == _names(node)[name]
        and attributes[name] == _attributes(node)[name]
    ]
    assert not unused, "defined but never used in src/sqcount: " + ", ".join(unused)


def _unused_imports(modules) -> dict:
    """(module, name) -> line of every name an import binds in a module
    where no other line uses it; `from __future__` imports bind none."""
    unused = {}
    for module, tree in modules.items():
        names = _names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if not names[name]:
                        unused[module, name] = node.lineno
    return unused


def test_every_import_is_used():
    unused = _unused_imports(_modules())
    stale = [key for key in UNUSED_IMPORTS if key not in unused]
    assert not stale, f"exempt imports that are used or gone: {stale}"
    extra = [f"{module}.py:{line} {name}"
             for (module, name), line in sorted(unused.items())
             if (module, name) not in UNUSED_IMPORTS]
    assert not extra, "imported but never used in src/sqcount: " + ", ".join(extra)


def test_every_method_has_a_package_caller():
    modules = _modules()
    attributes = sum((_attributes(tree) for tree in modules.values()), Counter())
    unused = [
        f"{module}.py:{node.lineno} {cls.name}.{node.name}"
        for module, tree in modules.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in ALLOWED
        and attributes[node.name] == _attributes(node)[node.name]
    ]
    assert not unused, "methods never called in src/sqcount: " + ", ".join(unused)


def test_every_nested_function_is_called():
    # a nested def is reachable only from its enclosing function
    uncalled = [
        f"{module}.py:{inner.lineno} {outer.name}.{inner.name}"
        for module, tree in _modules().items()
        for outer in ast.walk(tree)
        if isinstance(outer, ast.FunctionDef)
        for inner in ast.walk(outer)
        if isinstance(inner, ast.FunctionDef) and inner is not outer
        and _names(outer)[inner.name] == _names(inner)[inner.name]
    ]
    assert not uncalled, "nested functions never called: " + ", ".join(uncalled)


def test_allowlist_names_existing_definitions():
    defined = {name for tree in _modules().values()
               for name, _ in _definitions(tree)}
    assert set(ALLOWED) <= defined


def _caught_by_main() -> set:
    """The names in the except clauses of cli.main."""
    main = next(node for node in _modules()["cli"].body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    return {name.id
            for handler in ast.walk(main)
            if isinstance(handler, ast.ExceptHandler) and handler.type
            for name in ast.walk(handler.type) if isinstance(name, ast.Name)}


def test_every_exception_class_maps_to_an_exit_code():
    # cli.main turns each error class into an exit code; a class that no
    # handler names is told apart only by tests
    defined = set()
    for module in _modules():
        mod = importlib.import_module("sqcount" if module == "__init__"
                                      else f"sqcount.{module}")
        defined |= {name for name, obj in vars(mod).items()
                    if isinstance(obj, type) and issubclass(obj, Exception)
                    and obj.__module__ == mod.__name__}
    assert {"ConfigError", "BudgetError"} <= defined  # the scan sees them
    uncaught = sorted(defined - _caught_by_main())
    assert not uncaught, "never caught by cli.main: " + ", ".join(uncaught)
