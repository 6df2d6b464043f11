"""Rules on the package source that the interpreter does not enforce."""

from __future__ import annotations

import ast
import functools
import importlib
import re
from collections import Counter
from pathlib import Path

import clusterkit

README = Path(__file__).resolve().parents[1] / "README.md"


def _modules() -> dict[str, ast.Module]:
    """Every package module's syntax tree, by file name."""
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(Path(clusterkit.__file__).parent.glob("*.py"))
    }


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check in the package may rely on one
    modules = _modules()
    assert len(modules) >= 8
    found = [
        f"{fname}:{node.lineno}"
        for fname, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# The trusted constructors skip every check, so each may be called only in
# the module whose code makes its input canonical: (file, receiver).
TRUSTED_CALL_SITES = {
    ("laurent.py", "LaurentPoly"), ("laurent.py", "RationalFn"), ("seeds.py", "ExchangeMatrix"), ("seeds.py", "Seed"),
}


def test_trusted_constructors_stay_in_their_home_modules():
    calls = {
        (fname, ast.unparse(node.func.value))
        for fname, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "_from_canonical"
    }
    assert calls == TRUSTED_CALL_SITES


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
    for fname, tree in _modules().items():
        if any(_named(node) in PACKED_NAMES for node in ast.walk(tree)):
            readers.add(fname)
    assert readers == {"laurent.py"}


def test_no_term_count_unpacks_the_terms():
    # len(p.terms) unpacks every key into the terms view only to count them;
    # outside the kernel a count is p.term_count
    calls = []
    for fname, tree in _modules().items():
        if fname == "laurent.py":
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "len"
                and any(isinstance(arg, ast.Attribute) and arg.attr == "terms" for arg in node.args)
            ):
                calls.append(f"{fname}:{node.lineno}")
    assert calls == []


def test_seeds_are_validated_only_at_the_door():
    # Seed(...) validates its matrix and mutation keeps it valid, so the only
    # other doors are the two criteria, which take a bare matrix; all three
    # refuse through _require_valid, the one caller of validate
    def callers(name: str) -> list[tuple[str, str]]:
        found = []

        def visit(node, fname, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}" if scope else node.name
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Name) and func.id == name) or (
                    isinstance(func, ast.Attribute) and func.attr == name
                ):
                    found.append((fname, scope))
            for child in ast.iter_child_nodes(node):
                visit(child, fname, scope)

        for fname, tree in _modules().items():
            visit(tree, fname, None)
        return sorted(found)

    assert callers("validate") == [("seeds.py", "_require_valid")]
    assert callers("_require_valid") == [
        ("analysis.py", "column_criterion"), ("analysis.py", "gcd_criterion"), ("seeds.py", "Seed.__init__"),
    ]


def test_no_module_imports_a_name_it_never_uses():
    # an import left behind by a deletion; __init__.py imports only to export
    unused = []
    for fname, tree in _modules().items():
        if fname == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{fname}:{line} {name}" for name, line in imported.items() if name not in used]
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
# public methods that no package statement calls, each with the reason it stays
UNCALLED_METHODS = {
    ("laurent.py", "LaurentPoly.evaluate"): "acceptance criterion 10 checks that evaluation is a ring map",
}


def _reads(node) -> Counter:
    """How often each name is read under node, as a bare name or an attribute."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def test_every_package_name_has_a_caller():
    # a top-level def or class, or a public method, that only tests use belongs in tests/
    trees = _modules()
    exported = {
        alias.asname or alias.name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    # a definition's own body does not count as a use of its name
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    orphans = []
    for fname, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            if name not in exported and (fname, name) not in ENTRY_POINTS and reads[name] == _reads(stmt)[name]:
                orphans.append(f"{fname}: {name}")
            if not isinstance(stmt, ast.ClassDef):
                continue
            for method in stmt.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) or method.name.startswith("_"):
                    continue
                if reads[method.name] == _reads(method)[method.name]:
                    orphans.append(f"{fname}: {name}.{method.name}")
    assert sorted(orphans) == sorted(f"{fname}: {name}" for fname, name in UNCALLED_METHODS)


# a JSON form is what the CLI prints: explore's report and the factoriality verdict
JSON_FORMS = {("explore.py", "ExplorationReport"), ("analysis.py", "FactorialityVerdict")}


def test_only_cli_outputs_have_a_json_form():
    # certificates and basis-change tables have none: their golden files are
    # written by tests/oracles.py
    forms = {
        (fname, node.name)
        for fname, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(d, ast.FunctionDef) and d.name == "to_json" for d in node.body)
    }
    assert forms == JSON_FORMS


def test_only_the_kernel_imports_fractions_and_nothing_imports_random():
    # the package draws nothing at random, and only LaurentPoly.evaluate
    # works in exact rationals
    importers = {
        (module, fname)
        for fname, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for module in ([alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module])
        if module in ("fractions", "random")
    }
    assert importers == {("fractions", "laurent.py")}


def _referrers(tree, name):
    """Names of the top-level functions and methods (as Class.method) in tree whose bodies mention name."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = [(stmt.name, stmt) for stmt in tree.body if isinstance(stmt, funcs)]
    defs += [
        (f"{stmt.name}.{method.name}", method)
        for stmt in tree.body if isinstance(stmt, ast.ClassDef)
        for method in stmt.body if isinstance(method, funcs)
    ]
    return {
        qualname for qualname, func in defs
        if any(
            (isinstance(node, ast.Name) and node.id == name) or (isinstance(node, ast.Attribute) and node.attr == name)
            for node in ast.walk(func)
        )
    }


def test_one_gcd_path_and_one_division_per_reduction():
    # GCDHEU's quotients are the cofactors a fraction reduces by: a second
    # route to the heuristic, or a division inside the reduction, would
    # divide by the gcd a second time
    trees = _modules()
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


def test_one_function_adds_an_offset_to_every_key():
    # a monomial factor (products, negation, shifts, monomial division, the
    # associate test's candidate unit) goes through _times_monomial, so the
    # only other guard tests are the packing of given exponents, the product
    # loops (sparse and row-packed), the row-packed walk's decoding and the
    # heap division's quotient terms
    checks = {(fname, func) for fname, tree in _modules().items() for func in _referrers(tree, "_range_error")}
    assert checks == {
        ("laurent.py", "_pack"), ("laurent.py", "_times_monomial"), ("laurent.py", "LaurentPoly.__mul__"), ("laurent.py", "exact_div"),
        ("laurent.py", "_RowRing.mul"), ("laurent.py", "_RowRing.unpack"),
    }
