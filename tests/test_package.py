import ast
import re
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


# defined in src/gpade, named nowhere in src/gpade, demos/ or perfbench/, and kept
KEPT_UNREFERENCED = {
    "GFunctionSystem.check_ode": "the tests' oracle for a system's differential equation",
    "parse_interval": "reads an interval field of a report back",
    "_Parser.error": "an argparse override: argparse calls it, so usage errors exit 2",
}


def _definitions(node: ast.AST, prefix: str = "") -> list[str]:
    """Qualified names (Class.method, outer.inner) of the functions defined under `node`."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                out.append(name)
            out += _definitions(child, name + ".")
        else:
            out += _definitions(child, prefix)
    return out


def _references(tree: ast.AST) -> set[str]:
    """Names read, attributes taken, and dotted identifiers written as strings."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)):
            names.update(node.value.split("."))
    return names


def test_every_definition_is_used():
    root = Path(__file__).resolve().parent.parent
    package = sorted((root / "src" / "gpade").glob("*.py"))
    readers = package + sorted((root / "demos").glob("*.py")) \
        + sorted((root / "perfbench").glob("*.py"))
    referenced = set().union(*(_references(ast.parse(path.read_text())) for path in readers))
    unused = [name for path in package for name in _definitions(ast.parse(path.read_text()))
              if not name.split(".")[-1].startswith("__") and name not in gpade.__all__
              and name.split(".")[-1] not in referenced]
    assert sorted(unused) == sorted(KEPT_UNREFERENCED)


def _perfbench(monkeypatch, *modules: str) -> tuple:
    """perfbench's modules, imported without writing bytecode: perfbench/ stays as committed."""
    import importlib
    import sys

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return tuple(importlib.import_module(m) for m in modules)


def test_benchmark_contract_holds(monkeypatch):
    """perfbench's traced names resolve, and its first job of each kind runs and checks."""
    import importlib

    spans, workloads, checks = _perfbench(monkeypatch, "spans", "workloads", "checks")
    for module, attr in spans.TRACED:
        obj = importlib.import_module(f"gpade.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, attr)

    systems = {name: gpade.resolve_system(name) for name in workloads.SYSTEMS["deep"]}
    first: dict = {}
    for spec in workloads.make_jobs("shapes", 1)[:1] + workloads.make_jobs("deep", 1):
        first.setdefault(spec[0] if spec[0] in ("digits", "log", "exp", "constants")
                         else "shape", spec)
    assert sorted(first) == ["constants", "digits", "exp", "log", "shape"]
    for spec in first.values():
        out = workloads.run_job(spec, systems)
        assert checks.certified(spec, out), spec
        assert checks.check(spec, out) is None, spec


def test_deep_outputs_keep_their_bytes(monkeypatch):
    """Every `deep` job of seed 1 hashes to a pinned run digest: a change to the series
    kernels or the digit expansion keeps every enclosure and digit, byte for byte."""
    import hashlib

    workloads, checks = _perfbench(monkeypatch, "workloads", "checks")
    systems = {name: gpade.resolve_system(name) for name in workloads.SYSTEMS["deep"]}
    digest = hashlib.sha256()
    for spec in workloads.make_jobs("deep", 1):
        digest.update(checks.digest_item(spec, workloads.run_job(spec, systems)))
    assert digest.hexdigest() == "ac0b8e64b76dad9fdd20ce7a2430a9f7851caffcf576b9ec0ced91d7add5b40f"


# the functions of `math` the package may call: exact on ints, and floor/ceil on Fractions
EXACT_MATH = {"gcd", "lcm", "isqrt", "factorial", "floor", "ceil"}


def _inexact_uses(source: str) -> list[str]:
    """Float literals, uses of `float`, and `math` functions outside EXACT_MATH in `source`."""
    tree = ast.parse(source)
    math_aliases = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names if alias.name == "math"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{node.lineno}: float")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{node.lineno}: math.{a.name}" for a in node.names
                      if a.name not in EXACT_MATH]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in math_aliases and node.attr not in EXACT_MATH):
            found.append(f"{node.lineno}: math.{node.attr}")
    return found


def test_the_package_holds_no_floats():
    # the package's own claim: every number is an exact integer or rational, and every
    # term-count estimate stays in integers
    package = sorted((Path(__file__).resolve().parent.parent / "src" / "gpade").glob("*.py"))
    assert [f"{path.name}:{use}" for path in package
            for use in _inexact_uses(path.read_text())] == []
    # and the check sees each form it forbids
    probe = ("import math as m\nfrom math import gcd, log2\nx = float(m.isqrt(9)) + 0.5 + 2j\n"
             "y = m.log(x) * m.factorial(3)\n")
    assert sorted(_inexact_uses(probe)) == ["2: math.log2", "3: float", "3: literal 0.5",
                                            "3: literal 2j", "4: math.log"]
