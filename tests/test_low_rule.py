"""The least exponent a series' term can have is read in one place.

``QSeries.low`` is the offset of a series with coefficients, the precision
of a series zero to its precision and None for the exact zero.  The stops,
cuts and degree checks of the package read it; no module but series.py
spells the rule out as ``X.offset if X.coeffs else X.prec`` or tests for
the exact zero as ``X.is_zero and X.is_exact``.  The transform cascade
puts its inputs on its grid through ``QSeries._rescaled``, with no spread
of its own."""

import ast

from conftest import package_trees


def attr_of(node, attr: str):
    """ast.dump of X when node is X.attr, else None."""
    if isinstance(node, ast.Attribute) and node.attr == attr:
        return ast.dump(node.value)
    return None


def spelled_rules(tree) -> list:
    """(line, form) for every ``X.offset if X.coeffs else X.prec`` and
    every ``X.is_zero and X.is_exact`` (in either order) in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.IfExp):
            x = attr_of(node.body, "offset")
            if x is not None and attr_of(node.test, "coeffs") == x \
                    == attr_of(node.orelse, "prec"):
                found.append((node.lineno, "low"))
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            zeros = {attr_of(v, "is_zero") for v in node.values} - {None}
            exacts = {attr_of(v, "is_exact") for v in node.values} - {None}
            if zeros & exacts:
                found.append((node.lineno, "exact zero"))
    return sorted(found)


def strided_stores(fn) -> list:
    """Lines in fn that assign to a strided slice, x[a:b:c] = ..."""
    return sorted(t.lineno for node in ast.walk(fn)
                  if isinstance(node, ast.Assign) for t in node.targets
                  if isinstance(t, ast.Subscript)
                  and isinstance(t.slice, ast.Slice)
                  and t.slice.step is not None)


def test_only_series_spells_the_rule():
    hits = ["%s:%d %s" % (name, line, form)
            for name, tree in package_trees() if name != "series.py"
            for line, form in spelled_rules(tree)]
    assert hits == [], hits


def test_the_cascade_rescales_through_the_series():
    tree = dict(package_trees())["transform.py"]
    cascade = next(n for n in tree.body
                   if isinstance(n, ast.ClassDef) and n.name == "_Cascade")
    row = next(n for n in cascade.body
               if isinstance(n, ast.FunctionDef) and n.name == "_row")
    assert any(isinstance(n, ast.Call) and attr_of(n.func, "_rescaled")
               for n in ast.walk(row))
    assert strided_stores(row) == []


def test_the_gate_sees_the_rule():
    src = """
def f(s, t):
    a = s.offset if s.coeffs else s.prec
    b = s.offset if t.coeffs else s.prec
    if s.is_zero and s.is_exact:
        return a
    if t.is_exact and x and t.is_zero:
        return b
    return s.is_zero and t.is_exact
"""
    assert spelled_rules(ast.parse(src)) == [(3, "low"), (5, "exact zero"),
                                             (7, "exact zero")]


def test_the_gate_sees_a_spread():
    src = """
def f(c, n, g):
    out = [0] * n
    out[::g] = c
    out[1:n] = c
    out[0:n:2] = c
"""
    assert strided_stores(ast.parse(src)) == [4, 6]
