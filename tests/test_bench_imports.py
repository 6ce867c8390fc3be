"""The benchmark and the scripts live outside ``tests/`` and
outside the tier-1 run, so a deleted library name would only break them
when they next run. Check statically that every name they take from
``tensorltc`` still exists, and conversely that every name the library
defines is called by the library, the scripts, the benchmark or the
references the tests compare against."""

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


# argparse calls this override itself
CALLED_BY_THE_STANDARD_LIBRARY = {"_Parser.error"}


def definitions(node: ast.AST, prefix: str = ""):
    """(name, qualified name) of every function, class, method and property."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield child.name, prefix + child.name
            yield from definitions(child, f"{prefix}{child.name}.")
        else:
            yield from definitions(child, prefix)


def callers(path: Path, attributes_only: bool = False) -> set[str]:
    """Names a file reads: attributes, and unless ``attributes_only`` also
    bare names, imported names and string constants."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif attributes_only:
            continue
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_library_definition_has_a_caller_outside_tests():
    """Python calls dunder methods; any other name with no caller is API
    only tests use, and goes."""
    library = sorted((ROOT / "src" / "tensorltc").glob("*.py"))
    programs = [path for path in library if path.name != "__init__.py"]
    programs += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    called = set().union(*map(callers, programs))
    called |= callers(ROOT / "tests" / "reference.py", attributes_only=True)
    uncalled = [
        qualified
        for path in library
        for name, qualified in definitions(ast.parse(path.read_text(encoding="utf-8")))
        if name not in called and not (name.startswith("__") and name.endswith("__"))
    ]
    assert sorted(set(uncalled) - CALLED_BY_THE_STANDARD_LIBRARY) == []
