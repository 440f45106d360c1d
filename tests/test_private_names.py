"""No monogamy module reaches into another module's ``_``-prefixed names."""

import ast
from pathlib import Path

import monogamy

PACKAGE = Path(monogamy.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _module_of(node: ast.ImportFrom) -> str | None:
    """Sibling module named by ``from .mod import ...`` or
    ``from monogamy.mod import ...``; "" for the package itself."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "monogamy":
        return ".".join(node.module.split(".")[1:])
    return None


def cross_module_private_uses(path: Path) -> list[str]:
    own = path.stem
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {}  # local name -> sibling module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _module_of(node)
            if module is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if module == "" and alias.name in MODULES:
                    aliases[local] = alias.name
                elif module != own and _private(alias.name):
                    found.append(f"{own}: from {module or 'monogamy'} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "monogamy" and len(parts) == 2 and alias.asname:
                    aliases[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and aliases.get(node.value.id, own) != own and _private(node.attr)):
            found.append(f"{own}: {node.value.id}.{node.attr}")
    return found


def test_no_cross_module_private_access():
    found = [use for path in sorted(PACKAGE.glob("*.py"))
             for use in cross_module_private_uses(path)]
    assert found == []


def test_scan_detects_private_access(tmp_path):
    bad = tmp_path / "verify.py"
    bad.write_text(
        "from . import bounds\n"
        "from .states import _normalized\n"
        "x = bounds._two_term(1, 2, 3, 4, 5, 'ours', 0.5)\n"
        "y = bounds.tripartite_bound\n"
    )
    assert cross_module_private_uses(bad) == [
        "verify: from states import _normalized",
        "verify: bounds._two_term",
    ]
