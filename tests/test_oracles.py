import ast
from pathlib import Path


def test_oracles_import_nothing_from_tropidom():
    # the oracles are the independent reference, so they share no code with src/
    tree = ast.parse((Path(__file__).parent / "_oracles.py").read_text())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    assert modules and not [m for m in modules if m.split(".")[0] in ("tropidom", "")]
