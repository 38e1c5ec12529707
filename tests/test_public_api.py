"""The package's public names, the ones the benchmark imports, and the
constructors of its records."""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import tetrafermat
from tetrafermat.batch import build_report
from tetrafermat.properties import DEFAULT_TOL
from tetrafermat.sampling import random_tetrahedron
from tetrafermat.solver import classify

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


def _records():
    """One record of each class whose ``__init__`` is written by hand, as
    the pipeline builds them for seed-0 input 0 (interior)."""
    tetra = random_tetrahedron(0, 0)
    report = build_report(tetra, DEFAULT_TOL)
    prop = report.property_report
    return [classify(tetra), report.solution, prop.angles, prop, report]


RECORDS = _records()


@pytest.mark.parametrize(
    "record", RECORDS, ids=[type(r).__name__ for r in RECORDS]
)
def test_record_init_follows_its_fields(record):
    # each of these records stores its fields through a hand-written
    # __init__; it must take every field, in order, with its default, and
    # leave the dataclass's ==, hash, repr, replace and frozen error as
    # they are
    cls = type(record)
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         inspect.Parameter.empty if f.default is dataclasses.MISSING
         else f.default)
        for f in fields
    ]
    values = [getattr(record, name) for name in names]
    positional = cls(*values)
    keyword = cls(**dict(zip(names, values)))
    assert list(vars(positional)) == names
    assert positional == keyword == record
    assert hash(positional) == hash(keyword) == hash(record)
    assert repr(positional) == repr(record)
    assert dataclasses.replace(record) == record
    for name in names:
        marker = object()
        changed = dataclasses.replace(record, **{name: marker})
        assert [getattr(changed, n) is marker for n in names] == [
            n == name for n in names
        ]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(positional, name, marker)
    required = sum(f.default is dataclasses.MISSING for f in fields)
    with pytest.raises(TypeError):
        cls(*values[:required - 1])
