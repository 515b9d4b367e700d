"""The package names that the benchmark in perfbench/ reaches for.

perfbench/tracing.py wraps package functions by name and perfbench/worker.py
calls them, so a rename in the package would break `perfbench/run.py
--trace 1` without any other test failing.  These checks only read names:
Tracer.install is never called, because it rebinds package functions for the
rest of the session.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402


def package_module(name):
    return importlib.import_module(f"{tracing.PACKAGE}.{name}")


@pytest.mark.parametrize("name", tracing.MODULES)
def test_traced_module_imports(name):
    package_module(name)


@pytest.mark.parametrize("span,home,attr,where", tracing.TARGETS)
def test_trace_target_resolves(span, home, attr, where):
    original = getattr(package_module(home), attr, None)
    assert callable(original), f"{span}: arrcover.{home}.{attr} is not callable"
    # a restricted target is wrapped only where a module holds that object;
    # with no such module its span would silently read 0
    if where is not None:
        holders = [m for m in where if package_module(m).__dict__.get(attr) is original]
        assert holders, f"{span}: no module in {where} holds {attr}"


def test_lattice_cache_info_exists():
    arrangement = package_module("arrangement")
    assert callable(arrangement.intersection_lattice.cache_info)


def test_lattice_misses_count_each_new_arrangement_once():
    # the tracer's arrangement.lattice_builds is this count
    arrangement = package_module("arrangement")
    lattice = arrangement.intersection_lattice
    selberg = package_module("catalog").get("selberg").arrangement
    a = arrangement.cone(selberg)
    before = lattice.cache_info().misses
    first = lattice(a)
    assert lattice.cache_info().misses == before + 1
    assert lattice(a) is first
    assert lattice.cache_info().misses == before + 1
    # an equal arrangement is a new object, with values of its own
    b = arrangement.cone(selberg)
    assert b == a and lattice(b) == first
    assert lattice.cache_info().misses == before + 2


def worker_package_calls():
    """(module, attribute) for every `module.attribute` in worker.py whose
    module was imported with `from arrcover import ...`."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == tracing.PACKAGE
        for alias in node.names
    }
    return sorted({
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in imported
    })


def test_worker_names_resolve():
    calls = worker_package_calls()
    # the parse must see the sweep and the lattice warm-up at least
    assert ("covers", "local_betti") in calls
    assert ("arrangement", "intersection_lattice") in calls
    missing = [f"{m}.{a}" for m, a in calls if not hasattr(package_module(m), a)]
    assert not missing, missing
