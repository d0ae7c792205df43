"""Every import in the package's modules is used, every public name they
define is used, and so is every defaulted parameter of their public
functions. __init__.py is left out of the first check: its imports are the
package's public names. The CLI imports no scipy.optimize, and
shares scipy's HiGHS extension module with it."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import hideseek.matrixgame as mg

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


def unset_parameters(modules: dict[str, str], callers: list[str], readme: str) -> list[str]:
    """The defaulted parameters of the public functions in modules (name to
    source) that nothing sets: no call in the callers' sources passes one,
    by keyword or by position, and readme never writes `name=`. A call
    with *args or **kwargs counts as passing every parameter."""
    calls = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = []
    for module, source in modules.items():
        for name, definition in _public_definitions(ast.parse(source)).items():
            if not isinstance(definition, ast.FunctionDef):
                continue
            args = definition.args
            positional = [*args.posonlyargs, *args.args]
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            for arg in defaulted:
                at = positional.index(arg) if arg in positional else len(positional)
                passed = any(
                    any(keyword.arg in (arg.arg, None) for keyword in call.keywords)
                    or len(call.args) > at
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    for call in calls.get(name, [])
                )
                if not passed and not re.search(rf"\b{arg.arg}=", readme):
                    unset.append(f"{module}: {name}({arg.arg}=)")
    return unset


def test_the_check_finds_an_unset_parameter():
    module = "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\ndef _g(x=0):\n    pass\n"
    callers = [module, "f(0, 1)\nf(0, e=5)\nm.f(0, **{})\n"]
    assert unset_parameters({"m.py": module}, callers[:1] + ["f(0, 1)\n"], "") == [
        "m.py: f(c=)", "m.py: f(d=)", "m.py: f(e=)"
    ]
    assert unset_parameters({"m.py": module}, callers, "f(0, c=3)") == []


def test_every_public_parameter_is_set():
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    bench = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "hsbench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unset_parameters(modules, [*modules.values(), *bench], readme) == []


# The CLI reaches HiGHS without scipy.optimize, and shares scipy's one HiGHS
# extension module with it in either import order. Each check runs in a
# fresh interpreter, as the tests themselves import scipy.optimize.

CLI_RUN = """
import contextlib, io, sys
import hideseek.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert hideseek.cli.main(["sweep", "instances/three_sites.json"]) == 0
    assert hideseek.cli.main(
        ["solve", "instances/three_sites.json", "--model", "feedback", "--t-reveal", "1"]
    ) == 0
print(sorted({"scipy.optimize", "scipy.sparse", "scipy.linalg", "numpy.ma"} & set(sys.modules)))
"""

SHARED_HIGHS = """
import sys
{first}
assert "scipy.optimize._highspy._core" in sys.modules
{second}
import numpy as np
from scipy.optimize import linprog
core = sys.modules["scipy.optimize._highspy._core"]
assert core is hideseek.matrixgame._highspy
# linprog solves matching pennies, value 0, and so does the package
res = linprog([0, 0, -1], A_ub=[[-1, 1, 1], [1, -1, 1]], b_ub=[0, 0], A_eq=[[1, 1, 0]], b_eq=[1],
              bounds=[(0, None), (0, None), (None, None)], method="highs")
assert res.status == 0 and abs(res.x[-1]) < 1e-12
assert abs(hideseek.solve_zero_sum(np.array([[1.0, -1.0], [-1.0, 1.0]])).value) < 1e-12
print("shared")
"""

# hsbench's tracer rebinds matrixgame.linprog: the name imports scipy's
# linprog when asked for, and only then
LAZY_LINPROG = """
import sys
import hideseek.matrixgame as mg
assert "scipy.optimize" not in sys.modules
served = mg.linprog
from scipy.optimize import linprog
assert served is linprog
print("lazy")
"""


def _run(code):
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def test_the_cli_imports_no_scipy_optimize():
    assert _run(CLI_RUN) == "[]"


def test_matrixgame_serves_linprog_only_when_asked():
    assert _run(LAZY_LINPROG) == "lazy"
    with pytest.raises(AttributeError, match="no attribute 'simplex'"):
        mg.simplex


@pytest.mark.parametrize("scipy_first", [True, False])
def test_scipy_optimize_and_the_package_share_one_highs_module(scipy_first):
    imports = ["import scipy.optimize", "import hideseek, hideseek.matrixgame"]
    first, second = imports if scipy_first else imports[::-1]
    assert _run(SHARED_HIGHS.format(first=first, second=second)) == "shared"


def test_a_scipy_without_the_highs_module_fails_the_import_by_name(tmp_path):
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    path = os.pathsep.join([str(tmp_path), str(PACKAGE.parent)])
    out = subprocess.run(
        [sys.executable, "-c", "import hideseek"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    assert out.returncode != 0
    assert "ImportError: hideseek needs scipy's HiGHS extension module" in out.stderr
    assert "scipy/optimize/_highspy/_core" in out.stderr
