"""Module boundaries of the library source, read with ast."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "drlp"


def _drlp_imports(path):
    """(line, module, name) of every name a drlp module imports from another drlp module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "drlp"):
            for alias in node.names:
                yield node.lineno, "." * node.level + (node.module or ""), alias.name


def test_no_private_name_crosses_a_module():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    private = [f"{path.name}:{line}: from {module} import {name}"
               for path in modules for line, module, name in _drlp_imports(path) if name.startswith("_")]
    assert private == []


def test_the_scan_sees_private_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .solver import _hidden, shown\nfrom drlp.network import _forward\n"
                    "from os import _exit\n")
    assert [name for _, _, name in _drlp_imports(path)] == ["_hidden", "shown", "_forward"]
