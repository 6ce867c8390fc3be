"""The benchmark and the scripts live outside ``tests/`` and
outside the tier-1 run, so a deleted library name would only break them
when they next run. Check statically that every name they take from
``tensorltc`` still exists."""

import ast
import importlib
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def missing_names(path: Path) -> list[str]:
    """Names imported from ``tensorltc`` that the package lacks, and
    attributes read off an imported ``tensorltc`` module that it lacks."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules: dict[str, types.ModuleType] = {}
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tensorltc":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name, None)
                if value is None:  # as ``from`` does, look for a submodule next
                    try:
                        value = importlib.import_module(f"{node.module}.{alias.name}")
                    except ModuleNotFoundError:
                        missing.append(f"{node.module}.{alias.name}")
                        continue
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id)
            if module is not None and not hasattr(module, node.attr):
                missing.append(f"{module.__name__}.{node.attr}")
    return missing


@pytest.mark.parametrize(
    "script",
    ["perfbench/workloads.py", "scripts/cap_edge.py", "scripts/cli_identity.py", "scripts/layer_times.py"],
)
def test_library_names_used_outside_tests_exist(script):
    assert missing_names(ROOT / script) == []
