"""Every function, class and method in src/sqcount has a caller in the package.

Code whose only callers are tests is deleted rather than kept. This scan
stops it from growing back. A top-level definition counts as used when,
outside its own body, its name appears in its own module, another module
of the package imports it by name, or the package reaches it as an
attribute. A local variable of the same name in another module does not
count. A method other than a dunder counts as used when, outside its own
body, the package reaches its name as an attribute.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sqcount"

# definitions kept without a caller in the package, each with its reason
ALLOWED = {
    "main": "console-script entry point declared in pyproject.toml",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _names(tree) -> Counter:
    return Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))


def _attributes(tree) -> Counter:
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute))


def _imported(modules) -> set:
    """(module, name) for every `from .module import name` in the package."""
    return {
        (node.module, alias.name)
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
        f"{module}.py:{node.lineno} {node.name}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in ALLOWED
        and (module, node.name) not in imported
        and names[module][node.name] == _names(node)[node.name]
        and attributes[node.name] == _attributes(node)[node.name]
    ]
    assert not unused, "defined but never used in src/sqcount: " + ", ".join(unused)


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


def test_allowlist_names_existing_definitions():
    defined = {
        node.name
        for tree in _modules().values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert set(ALLOWED) <= defined
