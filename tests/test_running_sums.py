"""No loop in src/qhabiro adds series one at a time, and one loop stops
a sum of series terms.

A name first bound to ``QSeries.zero(...)`` and reassigned inside a loop
through a ``+`` that reads the same name makes and canonicalizes a new
QSeries per term.  Such sums collect their terms and add them once through
``series.series_sum``.  A sum whose terms run on until a rule stops them
(a declared degree bound or the degree trend) runs on
``series.sum_until``, the one loop that collects terms for series_sum and
breaks or returns."""

import ast

from conftest import package_trees

LOOPS = (ast.For, ast.AsyncFor, ast.While)
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def stop_loops(tree) -> list:
    """(line of the loop, function) for every loop in a function of tree
    that appends to a name the function passes to series_sum(...) and
    holds a break or a return."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, FUNCTIONS):
            continue
        summed = {arg.id for call in ast.walk(fn)
                  if isinstance(call, ast.Call)
                  and getattr(call.func, "id",
                              getattr(call.func, "attr", None)) == "series_sum"
                  for arg in call.args if isinstance(arg, ast.Name)}
        for loop in ast.walk(fn):
            if not isinstance(loop, LOOPS):
                continue
            body = list(ast.walk(loop))
            if (any(isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "append"
                    and getattr(n.func.value, "id", None) in summed
                    for n in body)
                    and any(isinstance(n, (ast.Break, ast.Return))
                            for n in body)):
                found.add((loop.lineno, fn.name))
    return sorted(found)


def test_no_running_sum_in_the_package():
    hits = ["%s:%d %s" % (name, line, var) for name, tree in package_trees()
            for line, var in running_sums(tree)]
    assert hits == [], hits


def test_one_stop_loop_in_the_package():
    hits = [(name, line, fn) for name, tree in package_trees()
            for line, fn in stop_loops(tree)]
    assert [(name, fn) for name, _, fn in hits] == \
        [("series.py", "sum_until")], hits


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


def test_the_gate_sees_stop_loops():
    src = """
def f(ts, prec):
    kept = []
    for t in ts:
        if t.delta_lb() >= prec:
            break
        kept.append(t)
    return series.series_sum(kept)

def g(ts):
    out, seen = [], []
    for t in ts:
        seen.append(t)
        if not t.coeffs:
            return series_sum(out)
        out.append(t)
    while ts:
        out.append(ts.pop())
    for t in ts:
        seen.append(t)
        break
    return series_sum(out)
"""
    assert stop_loops(ast.parse(src)) == [(4, "f"), (12, "g")]
