import ast
from pathlib import Path

import gpade


def test_star_import_and_exports_resolve():
    namespace: dict = {}
    exec("from gpade import *", namespace)
    assert len(gpade.__all__) == len(set(gpade.__all__))
    for name in gpade.__all__:
        assert getattr(gpade, name) is namespace[name]


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads; `__all__` entries count as read."""
    tree = ast.parse(path.read_text())
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_every_import_is_used():
    root = Path(__file__).resolve().parent.parent
    files = sorted((root / "src" / "gpade").glob("*.py")) + sorted((root / "tests").glob("*.py"))
    assert [u for path in files for u in _unused_imports(path)] == []
