"""The package's public names, and the ones the benchmark imports."""

import ast
from pathlib import Path

import tetrafermat

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def imported_names(path):
    """Every name a ``from tetrafermat import ...`` statement in the file
    imports, read from its syntax tree without running it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "tetrafermat"
        for alias in node.names
    ]


def test_all_is_sorted_unique_and_resolves():
    names = tetrafermat.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(tetrafermat, name), name


def test_benchmark_imports_only_public_names():
    names = imported_names(WORKLOADS)
    assert names
    assert sorted(set(names) - set(tetrafermat.__all__)) == []
