"""Rules on how the modules of the botopt package use each other, checked on
the source text."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "botopt"


def test_no_module_imports_a_private_name_of_another():
    # a module works with another only through its public names
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "botopt":
                continue
            found += [
                f"{path.name}:{node.lineno}: from {'.' * node.level}{module} import {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert len(list(PACKAGE.glob("*.py"))) > 1
    assert not found, "private names imported across modules:\n" + "\n".join(found)
