"""Every import in the package's modules is used, and so is every public
name they define. __init__.py is left out of the first check: its imports
are the package's public names."""

import ast
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hideseek"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names a module imports but never reads, `from __future__` aside."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in read]


def test_the_check_finds_an_unused_import():
    source = "import math\nimport os\nfrom numpy import array, zeros\nprint(os.sep, zeros)\n"
    assert unused_imports(source) == ["line 3: array", "line 1: math"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


ROOT = PACKAGE.parents[1]


def _public_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """The module's public top-level functions, classes and constants, each
    with the node that defines it."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    found[target.id] = node
    return {name: node for name, node in found.items() if not name.startswith("_")}


def unused_public_names() -> list[str]:
    """The public names of the package's modules that nothing calls: none is
    read in src/ outside its own definition, written as `hs.<name>` in
    README.md, or imported from hideseek by a file under hsbench/."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    readme = set(re.findall(r"\bhs\.(\w+)", (ROOT / "README.md").read_text(encoding="utf-8")))
    bench = set()
    for path in sorted((ROOT / "hsbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "hideseek":
                bench.update(alias.name for alias in node.names)
    unused = []
    for module, tree in trees.items():
        for name, definition in _public_definitions(tree).items():
            if name in readme or name in bench:
                continue
            own = {id(node) for node in ast.walk(definition)}
            reads = (
                node
                for other in trees.values()
                for node in ast.walk(other)
                if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
            )
            if all(id(node) in own for node in reads):
                unused.append(f"{module}: {name}")
    return unused


def test_every_public_name_is_used():
    assert unused_public_names() == []
