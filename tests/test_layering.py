"""The Monte-Carlo harness checks the grid solver from outside: it reads
the model's inputs and the belief recursion only, and the model and the
solver never import it."""

import ast
import importlib
from pathlib import Path


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
