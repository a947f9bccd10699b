"""The Monte-Carlo harness checks the grid solver from outside: it reads
the model's inputs and the belief recursion only, and the model and the
solver never import it.  The package imports nothing beyond the standard
library and the dependencies that ``pyproject.toml`` declares.  The CLI
has one stdout writer, ``_emit``."""

import ast
import importlib
import re
import sys
import tomllib
from pathlib import Path

import periodet


def package_imports(name: str) -> set[str]:
    """The ``periodet`` modules that module ``name`` imports, by relative or
    absolute import."""
    tree = ast.parse(Path(importlib.import_module(f"periodet.{name}").__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "periodet":
                    continue
                module = module.removeprefix("periodet").lstrip(".")
            # ``from . import x`` and ``from periodet import x`` name modules
            found.update([module.split(".")[0]] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("periodet."))
    return found


def test_monte_carlo_imports_only_the_belief_recursion_and_the_model():
    assert package_imports("monte_carlo") <= {"belief", "ipid_model"}


def test_ipid_model_imports_no_package_module():
    assert package_imports("ipid_model") == set()


def test_detection_dp_does_not_import_monte_carlo():
    assert "monte_carlo" not in package_imports("detection_dp")


def test_package_imports_only_the_stdlib_and_declared_dependencies():
    # an undeclared import would fail where only the declared ones are
    # installed, and SciPy alone costs a few hundred ms of start-up
    package = Path(periodet.__file__).parent
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
                for spec in pyproject["project"]["dependencies"]}
    assert declared == {"numpy"}
    allowed = declared | set(sys.stdlib_module_names) | {"periodet"}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in allowed, f"{path.name}:{node.lineno} imports {name}"


def test_cli_prints_to_stdout_from_emit_only():
    # every other print of the CLI names sys.stderr as its file
    tree = ast.parse(Path(importlib.import_module("periodet.cli").__file__).read_text())
    emit = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_emit")
    in_emit = {id(node) for node in ast.walk(emit)}
    prints = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "print"]
    assert any(id(call) in in_emit for call in prints)
    for call in prints:
        files = [ast.unparse(kw.value) for kw in call.keywords if kw.arg == "file"]
        want = [] if id(call) in in_emit else ["sys.stderr"]
        assert files == want, f"cli.py:{call.lineno} prints to {files or 'stdout'}"
