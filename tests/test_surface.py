"""The package's public surface is what its callers use.

Every public function, class and method defined in ``src/`` must be named
somewhere in ``src/``, ``scripts/`` or ``perfbench/`` other than at its own
definition; names that start with an underscore, dunders among them, are
private.  A name reached only from the tests belongs in the tests (as an
oracle) or nowhere.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "thresholdgame"
CALLER_DIRS = ("src", "scripts", "perfbench")

#: Public names kept without a caller, each with the reason it stays.
ALLOWED_UNCALLED = {
    "success_probability": "the exact marginal success chance that the realized success "
                           "rate of the payoff draw is tested against",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def definitions(tree):
    """(name, node) of each module-level function and class and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item


def references(tree):
    """Every name the code uses: names, attributes, imports and identifier-like
    strings (``getattr`` targets such as ``"Dataset.numeric"``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENTIFIER.fullmatch(node.value):
                yield from node.value.split(".")


def test_every_public_name_has_a_caller():
    used = set()
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            used.update(references(ast.parse(path.read_text(encoding="utf-8"))))
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if not name.startswith("_"):
                defined.setdefault(name, f"{path.name}:{node.lineno} {name}")
    uncalled = {name: where for name, where in defined.items() if name not in used}
    assert sorted(where for name, where in uncalled.items() if name not in ALLOWED_UNCALLED) == []
    # An allowlisted name that gains a caller, or loses its definition, leaves the list.
    assert sorted(set(ALLOWED_UNCALLED) - set(uncalled)) == []
