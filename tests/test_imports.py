"""Every import in the nessim package sits at module level and is used there."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nessim"
MODULES = sorted(SRC.glob("*.py"))

IMPORTS = (ast.Import, ast.ImportFrom)


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_no_function_local_imports():
    nested = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for top in parse(path).body
        if not isinstance(top, IMPORTS)
        for node in ast.walk(top)
        if isinstance(node, IMPORTS)
    ]
    assert nested == []


def test_no_unused_module_imports():
    unused = []
    for path in MODULES:
        tree = parse(path)
        bound = {}
        for top in tree.body:
            if isinstance(top, ast.ImportFrom) and top.module == "__future__":
                continue
            if isinstance(top, IMPORTS):
                for alias in top.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = top.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]
    assert unused == []
