"""Every definition and import in the package is reached from the package.

A function, method or class that no module of the package names is code
only tests run; it belongs in a test helper or nowhere.  The exported names
of ``arrcover._HOMES`` are the API and count as used, and so do the few
names in BENCHMARK_ONLY that only the benchmark calls.  A record class
writes an ``__init__`` only to do more than ``record``'s own, which stores the
fields, and a record instance holds its fields and nothing else: its init
stores no other name and it has no ``cached_property``.  A value derived from
an arrangement, or from its algebra, is owned by record.derived, never
by a functools cache that would keep the arrangement alive.  A derived
function is read by name in the module that defines it, unless it is
exported, so each derived value lives with the code that consumes it.  Each
module imports only the sibling modules LAYERS allows it, so the layers stay
apart: record under everything, geometry under the algebra, the algebra
under the covers, and the command line on top.
"""

import ast
from pathlib import Path

import arrcover

PACKAGE_DIR = Path(arrcover.__file__).parent
SOURCES = sorted(PACKAGE_DIR.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
WORKER = PACKAGE_DIR.parent.parent / "perfbench" / "worker.py"

# WeightSystem.uniform: perfbench/worker.py still times the nonresonance tests
# that covers.is_nonresonant replaced, at uniform weights; it goes with them
# (ROADMAP item 9).
BENCHMARK_ONLY = {"uniform"}


# module -> the sibling modules it may import.  __init__ loads its modules by
# name, on first access, and imports none.
LAYERS = {
    "__init__.py": set(),
    "__main__.py": {"cli"},
    "record.py": set(),
    "cyclofield.py": {"record"},
    "arrangement.py": {"cyclofield", "record"},
    "catalog.py": {"arrangement", "cyclofield", "record"},
    "fileformat.py": {"arrangement", "cyclofield"},
    "osalgebra.py": {"arrangement", "record"},
    "exactlin.py": {"cyclofield", "osalgebra", "record"},
    "covers.py": {"arrangement", "cyclofield", "exactlin", "osalgebra", "record"},
    "cli.py": {"arrangement", "catalog", "covers", "cyclofield", "fileformat", "osalgebra"},
}


def used_names(tree):
    """Every identifier a module reads, as a bare name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_definition_is_exported_or_used():
    assert len(TREES) > 1
    used = set(arrcover._HOMES) | BENCHMARK_ONLY
    for tree in TREES.values():
        used.update(used_names(tree))
    unused = sorted(
        f"{name}:{node.lineno} {node.name}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    )
    assert not unused, f"defined but never used in src: {unused}"


def test_benchmark_only_names_are_still_benchmark_only():
    in_src = set()
    for tree in TREES.values():
        in_src.update(used_names(tree))
    in_worker = set(used_names(ast.parse(WORKER.read_text(), filename=str(WORKER))))
    assert BENCHMARK_ONLY <= in_worker - in_src


def test_every_import_is_used():
    unused = []
    for name, tree in TREES.items():
        if name == "__init__.py":
            continue
        used = set(used_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in used:
                        unused.append(f"{name}:{node.lineno} {bound}")
    assert not unused, f"imported but never used: {unused}"


def sibling_imports(tree):
    """The sibling modules a module imports, at any depth: x for
    ``from .x import f`` and for ``from . import x``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.partition(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_every_module_imports_only_the_layers_below_it():
    assert LAYERS.keys() == TREES.keys()
    stray = sorted(
        f"{name} -> {module}"
        for name, tree in TREES.items()
        for module in set(sibling_imports(tree)) - LAYERS[name]
    )
    assert not stray, f"imports outside its layer: {stray}"


def decorator_name(node):
    """The last name of a decorator, called or not: lru_cache for
    @functools.lru_cache(maxsize=None)."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def first_parameter_type(function):
    args = function.args.posonlyargs + function.args.args
    annotation = args[0].annotation if args else None
    if isinstance(annotation, ast.Constant):
        return annotation.value
    return getattr(annotation, "id", None)


def test_no_functools_cache_is_keyed_on_an_arrangement():
    keyed = sorted(
        f"{name}:{node.lineno} {node.name}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and first_parameter_type(node) == "Arrangement"
        and any(decorator_name(dec) in {"lru_cache", "cache"} for dec in node.decorator_list)
    )
    assert not keyed, f"cached on an Arrangement, use record.derived: {keyed}"


def test_every_derived_function_is_read_in_its_own_module():
    stray = sorted(
        f"{name}:{node.name}"
        for name, tree in TREES.items()
        for read in [set(used_names(tree)) | set(arrcover._HOMES)]
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(decorator_name(dec) == "derived" for dec in node.decorator_list)
        and node.name not in read
    )
    assert not stray, f"derived but read only in another module: {stray}"


def is_self_dict(node):
    return (isinstance(node, ast.Attribute) and node.attr == "__dict__"
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def copies_parameters_only(init):
    """True when every statement of init stores one of its parameters, as
    itself, in self.__dict__: by update(name=name, ...) or by item."""
    params = {arg.arg for arg in init.args.args[1:]}

    def is_param(node):
        return isinstance(node, ast.Name) and node.id in params

    for stmt in init.body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if (isinstance(call.func, ast.Attribute) and call.func.attr == "update"
                    and is_self_dict(call.func.value) and not call.args
                    and all(is_param(kw.value) for kw in call.keywords)):
                continue
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Subscript)
                and is_self_dict(stmt.targets[0].value) and is_param(stmt.value)):
            continue
        return False
    return True


def record_classes():
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(dec, ast.Name) and dec.id == "record" for dec in node.decorator_list
            ):
                yield name, node


def test_no_record_writes_the_init_record_makes():
    redundant = sorted(
        f"{name}:{node.lineno} {node.name}"
        for name, node in record_classes()
        for init in node.body
        if isinstance(init, ast.FunctionDef) and init.name == "__init__"
        and copies_parameters_only(init)
    )
    assert not redundant, f"__init__ that record would generate: {redundant}"


def test_no_record_class_has_a_cached_property():
    cached = sorted(
        f"{name}:{method.lineno} {cls.name}.{method.name}"
        for name, cls in record_classes()
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
        and any(decorator_name(dec) == "cached_property" for dec in method.decorator_list)
    )
    assert not cached, f"cached_property on a record, use record.derived: {cached}"


def stored_names(init):
    """The names init stores in self.__dict__, by update(name=...) or by a
    constant item; "?" for a store whose name is not written out."""
    for node in ast.walk(init):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "update" and is_self_dict(node.func.value)):
            yield from (kw.arg or "?" for kw in node.keywords)
            yield from ("?" for _ in node.args)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and is_self_dict(target.value):
                    key = target.slice
                    yield key.value if isinstance(key, ast.Constant) else "?"


def test_no_record_init_stores_a_name_that_is_not_a_field():
    extra = sorted(
        f"{name}:{init.lineno} {cls.name}.{stored}"
        for name, cls in record_classes()
        for init in cls.body
        if isinstance(init, ast.FunctionDef) and init.name == "__init__"
        for stored in stored_names(init)
        if stored not in {
            field.target.id for field in cls.body
            if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        }
    )
    assert not extra, f"record __init__ stores a name that is not a field: {extra}"
