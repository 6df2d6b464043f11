"""Rules on the package source that the interpreter does not enforce."""

from __future__ import annotations

import ast
import functools
import importlib
import re
from pathlib import Path

import clusterkit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check in the package may rely on one
    files = sorted(Path(clusterkit.__file__).parent.glob("*.py"))
    assert len(files) >= 8
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


# The trusted constructors skip every check, so each may be called only where
# its input is canonical by construction: (file, receiver) -> allowed callers,
# None meaning any function of that file.
TRUSTED_CALL_SITES = {
    ("laurent.py", "LaurentPoly"): None,
    ("laurent.py", "RationalFn"): None,
    ("seeds.py", "ExchangeMatrix"): None,
    ("seeds.py", "Seed"): None,
}


def _trusted_calls(tree):
    """(receiver, enclosing function, line) of every call to a _from_canonical attribute."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "_from_canonical":
            out.append((ast.unparse(node.func.value), func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_trusted_constructors_stay_in_their_home_modules():
    files = sorted(Path(clusterkit.__file__).parent.glob("*.py"))
    bad, used = [], set()
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for receiver, func, lineno in _trusted_calls(tree):
            key = (path.name, receiver)
            allowed = TRUSTED_CALL_SITES.get(key, set())
            if allowed is None or func in allowed:
                used.add(key)
            else:
                bad.append(f"{path.name}:{lineno} {receiver}._from_canonical in {func}")
    assert bad == []
    assert used == set(TRUSTED_CALL_SITES)


# LaurentPoly's stored form: packed exponent keys, their coefficients and
# the names of the key layout
PACKED_NAMES = {"_keys", "_coeffs", "_LAYOUT", "_SLOT_BITS", "_SLOT_MASK", "_GUARD_BIT", "_EXP_BIAS"}


def _named(node) -> str | None:
    """The name node refers to or imports, as an attribute, a bare name, an import or a string."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.alias):
        return node.name
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def test_only_the_kernel_reads_the_packed_keys():
    # the key layout is laurent.py's own; every other module reads the terms view
    readers = set()
    for path in sorted(Path(clusterkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if _named(node) in PACKED_NAMES:
                readers.add(path.name)
    assert readers == {"laurent.py"}


def test_no_term_count_unpacks_the_terms():
    # len(p.terms) unpacks every key into the terms view only to count them;
    # outside the kernel a count is p.term_count
    calls = []
    for path in sorted(Path(clusterkit.__file__).parent.glob("*.py")):
        if path.name == "laurent.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "len"
                and any(isinstance(arg, ast.Attribute) and arg.attr == "terms" for arg in node.args)
            ):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_seeds_are_validated_only_at_the_door():
    # Seed(...) validates its matrix and mutation keeps it valid, so no other
    # package code has a reason to call validate
    callers = []

    def visit(node, fname, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "validate") or (
                isinstance(func, ast.Attribute) and func.attr == "validate"
            ):
                callers.append((fname, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, fname, scope)

    for path in sorted(Path(clusterkit.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.name, None)
    assert callers == [("seeds.py", "Seed.__init__")]


def test_no_module_imports_a_name_it_never_uses():
    # an import left behind by a deletion; __init__.py imports only to export
    unused = []
    for path in sorted(Path(clusterkit.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_readme_layout_table_names_existing_api():
    # a name deleted from a module must leave the README's library-layout table too
    section = README.read_text(encoding="utf-8").split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `clusterkit")]
    assert len(rows) == 7
    missing = []
    for row in rows:
        module_cell, contents = row.strip("|").split("|", 1)
        module = importlib.import_module(module_cell.strip().strip("`"))
        for name in re.findall(r"`([^`]+)`", contents):
            try:
                functools.reduce(getattr, name.split("."), module)
            except AttributeError:
                missing.append(f"{module.__name__}: {name}")
    assert missing == []


# names the package defines for its users without calling them itself
ENTRY_POINTS = {("cli.py", "main")}


def test_every_package_name_has_a_caller():
    # a top-level def or class that only tests use belongs in tests/
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(Path(clusterkit.__file__).parent.glob("*.py"))
    }
    exported = {
        alias.asname or alias.name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    # the names each top-level statement uses; a definition's own body does not count
    uses = {}
    for fname, tree in trees.items():
        for stmt in tree.body:
            uses[fname, id(stmt)] = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute))
            }
    orphans = []
    for fname, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            if name in exported or (fname, name) in ENTRY_POINTS:
                continue
            if not any(name in used for key, used in uses.items() if key != (fname, id(stmt))):
                orphans.append(f"{fname}: {name}")
    assert orphans == []


def _referrers(tree, name):
    """Names of the top-level functions in tree whose bodies mention name."""
    out = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Name) and node.id == name) or (
                    isinstance(node, ast.Attribute) and node.attr == name
                ):
                    out.add(stmt.name)
    return out


def test_one_gcd_path_and_one_division_per_reduction():
    # GCDHEU's quotients are the cofactors a fraction reduces by: a second
    # route to the heuristic, or a division inside the reduction, would
    # divide by the gcd a second time
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(Path(clusterkit.__file__).parent.glob("*.py"))
    }
    heu = {(fname, func) for fname, tree in trees.items() for func in _referrers(tree, "_heu_gcd")}
    assert heu == {("laurent.py", "_gcd_cofactors"), ("laurent.py", "_heu_gcd")}
    (reduce_fraction,) = [
        stmt for stmt in trees["laurent.py"].body
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "_reduce_fraction"
    ]
    called = {
        node.func.id for node in ast.walk(reduce_fraction)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert "_gcd_cofactors" in called and "exact_div" not in called
