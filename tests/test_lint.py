"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import sorank

SRC = Path(sorank.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips asserts, so a runtime check must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in sorank: {found}"


def test_fields_are_built_only_by_the_fields_module():
    # One object per field: the rest of the package takes its fields from
    # the cached field_from_q and ext_field, never from the constructors.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "fields.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None))
        in ("Field", "ExtField")
    ]
    assert not found, f"fields built outside sorank.fields: {found}"


# Public names nothing in the package refers to, kept on purpose, each with
# the file outside src/ that calls it: the research API (rank distance and a
# code's words among it), and ExtField.is_self_dual_basis, with which callers
# check a basis that `sorank selfdual-basis` printed.
UNREFERENCED_API = {
    "lemma47_event_estimate": "tests/test_experiments.py",
    "lemma48_event_estimate": "tests/test_experiments.py",
    "frequency": "tests/test_experiments.py",
    "rank_distance": "perfbench/workloads.py",
    "iter_words": "perfbench/workloads.py",
    "is_self_dual_basis": "perfbench/workloads.py",
}
REPO = Path(__file__).parents[1]


def _public_names():
    """(defined, unreferenced): every public function, method or class of
    the package, as (name, is_method) -> where, and the set of those keys
    that nothing in the package refers to.

    A re-export in __init__.py is no reference: it only passes a name on.
    A method is referred to only by an attribute (``x.zero``): a local
    variable of the same name does not call it."""
    defined, names, attrs = {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.setdefault((node.name, id(node) in methods), f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias) and path.name != "__init__.py":
                names.add(node.name)
    unreferenced = {(name, method) for name, method in defined if name not in attrs and (method or name not in names)}
    return defined, unreferenced


def test_no_public_name_exists_only_for_tests():
    # A public function, method or class that nothing in the package refers
    # to is called from outside only; reference implementations that tests
    # compare against belong in tests/oracles.py.
    defined, unreferenced = _public_names()
    found = sorted(
        f"{name} ({where})"
        for (name, method), where in defined.items()
        if (name, method) in unreferenced and name not in UNREFERENCED_API
    )
    assert not found, f"public names nothing in sorank refers to: {found}"


def test_unreferenced_api_entries_are_live():
    # An entry whose name was deleted or renamed, or that the package now
    # calls, is stale; a stale entry would let a later name of that spelling
    # exist only for tests.
    defined, unreferenced = _public_names()
    stale = sorted(UNREFERENCED_API.keys() - {name for name, _ in defined})
    assert not stale, f"UNREFERENCED_API names sorank no longer defines: {stale}"
    referenced = sorted(UNREFERENCED_API.keys() - {name for name, _ in unreferenced})
    assert not referenced, f"UNREFERENCED_API names sorank now refers to: {referenced}"


def test_unreferenced_api_entries_name_a_live_caller():
    # Each exemption is kept by the caller it names; once that file stops
    # calling the name, the exemption is stale.
    stale = sorted(
        f"{name} ({caller})"
        for name, caller in UNREFERENCED_API.items()
        if not (REPO / caller).is_file() or name not in (REPO / caller).read_text()
    )
    assert not stale, f"UNREFERENCED_API callers that no longer mention the name: {stale}"


def test_every_oracle_is_called_by_a_test():
    # An oracle that no test calls checks nothing.  Oracles may call each
    # other, but each needs a caller in a test module too.
    tests = Path(__file__).parent
    oracles = ast.parse((tests / "oracles.py").read_text())
    defined = {node.name for node in oracles.body if isinstance(node, ast.FunctionDef)}
    called = set()
    for path in sorted(tests.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    uncalled = sorted(defined - called)
    assert not uncalled, f"oracles no test calls: {uncalled}"


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_private_name_is_left_unread():
    # A module-level private function, class or constant (``_NAME = ...``),
    # or a private attribute a method stores on self, that nothing in the
    # package reads is dead code: a table kept after the closures that use it
    # captured it, a limit that no routine checks any more, or a leftover
    # copy of a routine that another one replaced.
    stored, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in filter(_private, names):
                stored.setdefault(name, f"{path.name}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if isinstance(node.value, ast.Name) and node.value.id == "self" and _private(node.attr):
                    stored.setdefault(node.attr, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    unread = sorted(f"{name} ({where})" for name, where in stored.items() if name not in read)
    assert not unread, f"private names nothing in sorank reads: {unread}"


# The package's modules, lowest layer first.
LAYERS = ("errors", "linalg", "fields", "quadforms", "balls", "words", "construct", "experiments", "cli")


def test_modules_import_only_lower_layers():
    # Each module may import only modules before it in LAYERS: a ball is rows
    # over a field, so balls needs no word type.  Imports within the package
    # are relative, and a new module must take its place in LAYERS first.
    assert {path.stem for path in SRC.glob("*.py")} == {"__init__", *LAYERS}
    found = []
    for layer, name in enumerate(LAYERS):
        path = SRC / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [alias.name for alias in node.names]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
                targets = [f"{mod} (absolute)" for mod in modules if mod.split(".")[0] == "sorank"]
            else:
                continue
            found += [f"{path.name}:{node.lineno} imports {t}" for t in targets if t not in LAYERS[:layer]]
    assert not found, f"imports of a module at or above the importer's layer: {found}"


def test_no_module_reads_another_modules_private_attribute():
    # A private attribute belongs to the module that defines it: a def or
    # class, an attribute stored on an object, or a name given as a string
    # (``object.__setattr__(self, "_terms", ...)``).  A module reading
    # ``x._name`` that it does not define reaches into another's internals.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined, reads = set(), []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                defined.add(node.value)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            elif isinstance(node, ast.Attribute) and _private(node.attr):
                if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                    reads.append(node)
        found += [f"{path.name}:{node.lineno} reads {node.attr}" for node in reads if node.attr not in defined]
    assert not found, f"private attributes read outside the module that defines them: {found}"
