"""Every name ``import qhabiro`` serves, and every top-level function and
class of src/qhabiro, private ones included, is read outside its own
definition by src/qhabiro (bar ``__init__.py``), scripts/ or perfbench/ (by
string too)."""

import ast
import os
import pkgutil
import types

import qhabiro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.dirname(os.path.abspath(qhabiro.__file__))

# The knot registry's entry points for users, which no command calls, and
# residue_sigma, the public residue-atom constructor, whose atoms
# tests/test_residues.py sums as the oracle for residue_series.
UNCALLED = {"knot_names", "load_knots", "mirror", "residue_sigma"}


def reads(path: str, strings: bool) -> set:
    """Names read by the file's top-level statements, each outside the
    function or class of that name: bare names, attributes of qhabiro's
    modules and, with ``strings``, string constants."""
    tree = ast.parse(open(path).read(), path)
    modules = {m.name for m in pkgutil.iter_modules([PACKAGE])} | {
        a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
        for a in n.names if a.name == "qhabiro"}
    out = set()
    for stmt in tree.body:
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.add((n.id, stmt))
            elif isinstance(n, ast.Attribute) and getattr(n.value, "id", None) in modules:
                out.add((n.attr, stmt))
            elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
                out.add((n.value, stmt))
    return {name for name, stmt in out if name != getattr(stmt, "name", None)}


def program_reads() -> set:
    used = set()
    for directory in (PACKAGE, os.path.join(ROOT, "scripts"),
                      os.path.join(ROOT, "perfbench")):
        for name in os.listdir(directory):
            if name.endswith(".py") and (directory, name) != (PACKAGE, "__init__.py"):
                used |= reads(os.path.join(directory, name),
                              strings=directory.endswith("perfbench"))
    return used


def test_every_served_name_is_read_by_the_program():
    served = qhabiro._ASYMPT_NAMES | {
        name for name, value in vars(qhabiro).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert UNCALLED <= served
    unread = served - program_reads() - UNCALLED
    assert not unread, sorted(unread)


def test_every_top_level_definition_is_read_by_the_program():
    # __getattr__ is read by the import system (PEP 562)
    defined = {
        stmt.name for name in os.listdir(PACKAGE) if name.endswith(".py")
        for stmt in ast.parse(open(os.path.join(PACKAGE, name)).read()).body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    assert {"__getattr__"} | UNCALLED <= defined
    unread = defined - program_reads() - UNCALLED - {"__getattr__"}
    assert not unread, sorted(unread)
