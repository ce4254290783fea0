"""Each concf module uses only the public names of the others."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "concf"
MODULES = {path.stem for path in SRC.glob("*.py")}


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(source: str) -> list[str]:
    """Each underscore name that ``source``, a concf module, imports from
    another concf module or reads off one it imported, as "line: module.name"."""
    tree = ast.parse(source)
    bound = {}  # local name -> the concf module it names
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = node.module  # None for "from . import name"
        elif node.module.split(".")[0] == "concf":
            module = node.module.removeprefix("concf").lstrip(".") or None
        else:
            continue
        for alias in node.names:
            if module is None and alias.name in MODULES:
                bound[alias.asname or alias.name] = alias.name
            elif is_private(alias.name):
                found.append(f"{node.lineno}: {module or 'concf'}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and is_private(node.attr)):
            found.append(f"{node.lineno}: {bound[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("source, want", [
    ("from .dataset import DatasetSplit, _write_replacing\n", ["1: dataset._write_replacing"]),
    ("from concf.model import _check\n", ["1: model._check"]),
    ("from . import overlap\nx = overlap._WORKERS\n", ["2: overlap._WORKERS"]),
    ("from concf import overlap as o\no._usable_cpus()\n", ["2: overlap._usable_cpus"]),
    ("from . import __version__, framed\nframed.write_replacing\n", []),
    ("from scipy.sparse import _sparsetools\n_sparsetools._x\n", []),
])
def test_scanner_finds_private_uses(source, want):
    assert private_uses(source) == want


def test_no_module_uses_another_modules_private_name():
    found = [f"{path.name}:{use}" for path in sorted(SRC.glob("*.py"))
             for use in private_uses(path.read_text(encoding="utf-8"))]
    assert found == []
