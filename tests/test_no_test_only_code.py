"""Every top-level function and class in src/sqcount has a caller in the package.

Code whose only callers are tests is deleted rather than kept. This scan
stops it from growing back: a definition counts as used when its name
appears, as a name or an attribute, somewhere in src/sqcount outside its
own body.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sqcount"

# definitions kept without a caller in the package, each with its reason
ALLOWED = {
    "main": "console-script entry point declared in pyproject.toml",
    "affine_slattice": "exact real-place lattice mode, the reference the "
                       "enumerator is tested against in exact arithmetic",
    "indicator_quadric_slice": "only constructor of the quadric-slice "
                               "indicator, the reference for slice counts",
    # the orbit decomposition of Z_S^d + w/q by t = gcd(q k); no command uses
    # it yet, and its removal is open on ROADMAP item 5a
    "complete_primitive": "orbit decomposition: unimodular completion over Z_S",
    "gamma_w": "orbit decomposition: coordinate change sending w to e_d",
    "representative_for_t": "orbit decomposition: a point with invariant t",
}


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _references(tree) -> Counter:
    """How often each identifier appears as a name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_definition_has_a_package_caller():
    modules = _modules()
    everywhere = sum((_references(tree) for tree in modules.values()), Counter())
    unused = [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in ALLOWED
        and everywhere[node.name] == _references(node)[node.name]
    ]
    assert not unused, "defined but never used in src/sqcount: " + ", ".join(unused)


def test_allowlist_names_existing_definitions():
    defined = {
        node.name
        for tree in _modules().values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert set(ALLOWED) <= defined
