"""Package surface: every name a module exports exists, and the program uses it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import confinedbose

MODULES = ["confinedbose"] + [
    f"confinedbose.{info.name}" for info in pkgutil.iter_modules(confinedbose.__path__)
    if info.name != "__main__"  # runs the CLI on import
]

ROOT = Path(__file__).resolve().parents[1]

# exported names whose callers are tests and readers, each kept for its reason
KEPT_WITHOUT_CALLER = {
    "derivative_terms": "criterion 7 checks the paper's derivative decomposition with it",
    "manybody_energy": "the public per-particle energy of a many-body state; runs take it "
                       "with the symmetry residual and gamma from _energy_and_residual",
    "symmetrize": "the public way to build a symmetric many-body state from raw values",
    "read_mfl1": "the reader of the MFL1 files that every run writes",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def program_references():
    """Every identifier read as a name, an attribute or an import in src/, demos/ and
    perfbench/.  Definitions and strings, the benchmark's ``"<module>.<name>"`` call
    counters and the strings of ``__all__`` lists among them, are not reads."""
    used = set()
    for folder in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rpartition(".")[2])
    return used


def test_every_all_name_is_used_by_the_program():
    # a name only the tests call belongs in tests/conftest.py, not in the package
    used = program_references()
    unused = sorted(f"{name}.{attr}" for name in MODULES
                    for attr in getattr(importlib.import_module(name), "__all__", ())
                    if attr not in used and attr not in KEPT_WITHOUT_CALLER)
    assert unused == []
