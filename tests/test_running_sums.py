"""No loop in src/qhabiro adds series one at a time.

A name first bound to ``QSeries.zero(...)`` and reassigned inside a loop
through a ``+`` that reads the same name makes and canonicalizes a new
QSeries per term.  Such sums collect their terms and add them once through
``series.series_sum`` (or run on ``series.series_sum_bounded``)."""

import ast
import os

import qhabiro

PACKAGE = os.path.dirname(os.path.abspath(qhabiro.__file__))

LOOPS = (ast.For, ast.AsyncFor, ast.While)
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)


def is_zero_call(node) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "zero"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "QSeries")


def adds_name(node, name: str) -> bool:
    """True iff a + inside node has an operand that reads name."""
    return any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Add)
               and any(isinstance(n, ast.Name) and n.id == name
                       for side in (sub.left, sub.right)
                       for n in ast.walk(side))
               for sub in ast.walk(node))


def running_sums(tree) -> list:
    """(line of the loop, name) for every loop in a scope of tree that
    reassigns a name first bound to QSeries.zero(...) through a + reading
    that name."""
    found = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, SCOPES):
            continue
        binds = sorted((n for n in ast.walk(scope)
                        if isinstance(n, ast.Assign)),
                       key=lambda n: (n.lineno, n.col_offset))
        first = {}
        for node in binds:
            for t in node.targets:
                if isinstance(t, ast.Name):
                    first.setdefault(t.id, node.value)
        zeros = {name for name, value in first.items() if is_zero_call(value)}
        for loop in ast.walk(scope):
            if not isinstance(loop, LOOPS):
                continue
            for node in ast.walk(loop):
                if (isinstance(node, ast.AugAssign)
                        and isinstance(node.op, ast.Add)
                        and isinstance(node.target, ast.Name)
                        and node.target.id in zeros):
                    found.add((loop.lineno, node.target.id))
                if isinstance(node, ast.Assign):
                    for t in node.targets:
                        if (isinstance(t, ast.Name) and t.id in zeros
                                and adds_name(node.value, t.id)):
                            found.add((loop.lineno, t.id))
    return sorted(found)


def test_no_running_sum_in_the_package():
    hits = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                tree = ast.parse(fh.read(), name)
            hits += ["%s:%d %s" % (name, line, var)
                     for line, var in running_sums(tree)]
    assert hits == [], hits


def test_the_gate_sees_running_sums():
    src = """
def f(ts, prec):
    acc = QSeries.zero(prec)
    for t in ts:
        acc = (acc + t).truncate(prec)
    tot = QSeries.zero()
    while ts:
        tot += ts.pop()
    kept = []
    for t in ts:
        kept = kept + [t]
    return acc, tot, kept
"""
    assert running_sums(ast.parse(src)) == [(4, "acc"), (7, "tot")]
