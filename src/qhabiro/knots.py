"""Knot registry: built-in coefficient generators, user-defined knots
from JSON files, mirrors, and composite (coefficientwise sum) entries.

A knot is given by its inverted Habiro coefficients a_{-k-1} (the
figure-eight knot and every file knot), by its GM coefficients f_k (the
unknot, f_k = delta_{k,0}), or by both (the trefoils).  A side not given
is the transform of the other.  Every closed form is one ClosedForm, a
sign table periodic in k times q^{c2 k^2 + c1 k + c0}; a ClosedForm
side gives its knot's LBC constant exactly.  A file knot's
``f_closed_form: builtin:X`` is checked against X's f when the file
loads; it never replaces the transform.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from math import lcm
from typing import Callable, Optional

from .series import QAlgebraError, QSeries, series_sum
from .transform import CoeffSeq, LbcError, a_from_f, f_from_a, lbc_check

LBC_WINDOW = 24  # lbc_constant audits an unbounded side over 0..LBC_WINDOW


class KnotError(QAlgebraError):
    pass


class UnknownKnotError(KnotError):
    pass


class KnotFileError(KnotError):
    """Knot file does not match the schema."""


class ExponentIntegralityError(KnotError):
    """A closed form's exponent is non-integral at some index."""


class CompositeCycleError(KnotError):
    """Composite knot references form a cycle."""


class ClosedForm:
    """k -> signs[k mod P] q^{c2 k^2 + c1 k + c0}, P = len(signs), with the
    exponent as integers over one denominator.  On a nonzero class
    k = r + P j it is quadratic in j, so the constructor proves it integral
    from j = 0, 1, 2 (Newton form), else ExponentIntegralityError; a class
    of sign 0 is exact zeros."""

    def __init__(self, signs, c2, c1, c0):
        self.signs, self.c = tuple(signs), tuple(map(Fraction, (c2, c1, c0)))
        self._d = d = lcm(*(c.denominator for c in self.c))
        self._n = [c.numerator * (d // c.denominator) for c in self.c]
        self._classes = [r for r, s in enumerate(self.signs) if s]
        P = len(self.signs)
        for k in sorted(r + P * j for r in self._classes for j in (0, 1, 2)):
            if self._num(k) % d:
                raise ExponentIntegralityError(
                    "exponent %s is non-integral at k=%d"
                    % (Fraction(self._num(k), d), k))

    def _num(self, k: int) -> int:
        return (self._n[0] * k + self._n[1]) * k + self._n[2]

    def __call__(self, k: int) -> QSeries:
        s = self.signs[k % len(self.signs)]
        return QSeries.monomial(self._num(k) // self._d, s) if s else QSeries.zero()

    def mirror(self) -> "ClosedForm":
        """q -> q^{-1}: the quadratic negated."""
        return ClosedForm(self.signs, *(-c for c in self.c))

    def lbc_constant(self) -> Fraction:
        """The least margin delta(s_k) - lbc_margin(k) = A k^2 + B k + c0 - 1
        (s_k = a_{-k-1} or f_k; A = c2 + 1/2, B = c1 - 1/2) over the k >= 0
        of nonzero classes, 0 if none: on class r at k = r or at its
        integers on each side of the vertex.  LbcError if unbounded below."""
        half = Fraction(1, 2)
        A, B, c0 = self.c[0] + half, self.c[1] - half, self.c[2] - 1
        if self._classes and (A < 0 or (A == 0 and B < 0)):
            raise LbcError("no LBC constant: its margin (c2 + 1/2)k^2 + "
                           "(c1 - 1/2)k + c0 - 1 falls without bound")
        P, ks = len(self.signs), set(self._classes)
        for r in self._classes if A > 0 else ():
            below = r + P * ((-B / (2 * A) - r) // P)
            ks.update(k for k in (below, below + P) if k >= r)
        return min((A * k * k + B * k + c0 for k in ks), default=Fraction(0))


class _Composite:
    """k -> the summands' a_{-k-1} summed, names resolved on use (file first)."""

    def __init__(self, names: tuple, local: dict):
        self.specs = lambda: [local.get(s) or get_knot(s) for s in names]

    def __call__(self, k: int) -> QSeries:
        return series_sum(s.a_coeff(k) for s in self.specs())


class KnotSpec:
    """A named knot with its two lazy, memoised coefficient sequences.

    ``a_gen`` maps k >= 0 to a_{-k-1} and ``f_gen`` maps k >= 0 to f_k;
    at least one is given.  ``self.a`` and ``self.f`` hold both sides; a
    side not given is ``f_from_a``/``a_from_f`` of the other.  Two given
    sides are taken as they are (the tests pin the built-in pairs).
    ``given``, read-only, names the sides received: "a", "f" or "af".

    A knot also carries what the surgery routes share across slopes and
    spin^c labels: ``lbc_constant``, computed on first use, and
    ``residues``, the store of residues r_j that ``surgery._residue``
    fills and reads, keyed by j.
    """

    def __init__(
        self,
        name: str,
        a_gen: Optional[Callable[[int], QSeries]] = None,
        f_gen: Optional[Callable[[int], QSeries]] = None,
        max_index: Optional[int] = None,
    ):
        if a_gen is None and f_gen is None:
            raise ValueError("a knot needs a_gen or f_gen")
        self.name = name
        self._given = "a" * (a_gen is not None) + "f" * (f_gen is not None)
        if a_gen is None:
            self.f = CoeffSeq("F", f_gen, max_index)
            self.a = a_from_f(self.f)
        else:
            self.a = CoeffSeq("P", a_gen, max_index)
            self.f = (f_from_a(self.a) if f_gen is None
                      else CoeffSeq("F", f_gen, max_index))
        self.residues: dict = {}

    given = property(lambda self: self._given)

    @cached_property
    def lbc_constant(self) -> Fraction:
        """The knot's LBC constant, read on the side it was given on (a
        before f; lbc_check says why both give one C): exact for a
        ClosedForm (LbcError if it has none); for a composite the least of
        its summands', as delta(sum a_i) >= min delta(a_i); else lbc_check
        over every index of a finite side, or over 0..LBC_WINDOW."""
        side = self.a if "a" in self._given else self.f
        gen, top = side._gen, side.max_index
        if isinstance(gen, _Composite):
            return min(s.lbc_constant for s in gen.specs())
        if not isinstance(gen, ClosedForm):
            return lbc_check(side, LBC_WINDOW if top is None else top).constant
        try:
            return gen.lbc_constant()
        except LbcError as e:
            raise LbcError("knot %r has %s" % (self.name, e)) from None

    def a_coeff(self, k: int) -> QSeries:
        return self.a[k]

    def f_coeff(self, k: int) -> QSeries:
        return self.f[k]


_REGISTRY: dict = {}


def _register(spec: KnotSpec):
    # one dict.setdefault: atomic under the GIL, so two threads that
    # register one name cannot both succeed
    if _REGISTRY.setdefault(spec.name, spec) is not spec:
        raise KnotError("knot %r already registered" % spec.name)


def _install_builtins():
    # the a-sides are Habiro's cyclotomic coefficients at n = -k-1: 3_1l's
    # a_{-k-1} = (-1)^{k+1} q^{k(k-1)/2 - 1}; 3_1r's f_k = eps_{2k+1}
    # q^{k(k+1)/6 + 1}, eps_m = -(3|m) for T(2,3) (arXiv:1904.06057)
    a_left = ClosedForm((-1, 1), Fraction(1, 2), Fraction(-1, 2), -1)
    f_right = ClosedForm((-1, 0, 1, 1, 0, -1), Fraction(1, 6), Fraction(1, 6), 1)
    for spec in (KnotSpec("unknot", f_gen=lambda k: QSeries((int(k == 0),))),
                 KnotSpec("3_1l", a_left, f_right.mirror()),
                 KnotSpec("3_1r", a_left.mirror(), f_right),
                 KnotSpec("4_1", ClosedForm((1,), 0, 0, 0))):
        _register(spec)


_install_builtins()


def get_knot(knot) -> KnotSpec:
    """The registered knot of that name; a KnotSpec comes back unchanged."""
    if isinstance(knot, KnotSpec):
        return knot
    try:
        return _REGISTRY[knot]
    except KeyError:
        raise UnknownKnotError("unknown knot %r" % knot) from None


def knot_names() -> list:
    return sorted(_REGISTRY)


def mirror(knot) -> KnotSpec:
    """q -> q^{-1} on every coefficient of each side the knot was given on
    (both transforms commute with it): a ClosedForm side's mirror(), or
    each coefficient's, which must be exact."""
    knot = get_knot(knot)

    def gen(seq: CoeffSeq, k: int) -> QSeries:
        return seq[k].mirror()  # ExactnessError unless seq[k] is exact

    sides = [None if s not in knot.given
             else seq._gen.mirror() if isinstance(seq._gen, ClosedForm)
             else partial(gen, seq)
             for s, seq in (("a", knot.a), ("f", knot.f))]
    return KnotSpec(knot.name + "!", *sides, max_index=knot.a.max_index)


def _parse_fraction(v) -> Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise KnotFileError("expected integer or fraction string, got %r" % (v,))
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as e:
        raise KnotFileError("bad rational %r" % (v,)) from e


def _build_from_entry(entry: dict, local: dict) -> KnotSpec:
    if not isinstance(entry, dict):
        raise KnotFileError("knot entry must be an object")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise KnotFileError("knot entry needs a nonempty name")
    gen_spec = entry.get("generator")
    if not isinstance(gen_spec, dict) or "kind" not in gen_spec:
        raise KnotFileError("knot %r needs a generator with a kind" % name)
    convention = entry.get("convention", {})
    if not isinstance(convention, dict):
        raise KnotFileError("convention must be an object")
    if convention.get("x_half_shift", False):
        raise KnotFileError("x_half_shift convention is not supported")

    kind = gen_spec["kind"]
    max_index = None
    if kind == "monomial":
        sign = gen_spec.get("sign", {})
        exp = gen_spec.get("exponent", {})
        if not isinstance(sign, dict) or not isinstance(exp, dict):
            raise KnotFileError("monomial generator needs sign and exponent objects")
        alpha = sign.get("alpha", 0)
        beta = sign.get("beta", 0)
        if type(alpha) is not int or type(beta) is not int:  # no bools
            raise KnotFileError("sign exponents must be integers")
        gen = ClosedForm((-1 if (alpha * k + beta) % 2 else 1 for k in (0, 1)),
                         *(_parse_fraction(exp.get(c, 0))
                           for c in ("c2", "c1", "c0")))
    elif kind == "list":
        coeffs = gen_spec.get("coeffs")
        if not isinstance(coeffs, list) or not coeffs:
            raise KnotFileError("list generator needs a nonempty coeffs array")
        data = []
        for i, c in enumerate(coeffs):
            try:
                data.append(QSeries.from_json(c))
            except (AttributeError, KeyError, TypeError, ValueError) as e:
                raise KnotFileError("knot %r has a malformed coeffs[%d]: %s: %s"
                                    % (name, i, type(e).__name__, e)) from e
        max_index = len(data) - 1
        gen = data.__getitem__
    elif kind == "composite":
        summands = gen_spec.get("summands")
        if not isinstance(summands, list) or not summands:
            raise KnotFileError("composite generator needs a summands array")
        for s in summands:
            if not isinstance(s, str):
                raise KnotFileError("composite summands must be knot names")
        gen = _Composite(tuple(summands), local)
    else:
        raise KnotFileError("unknown generator kind %r" % (kind,))

    handle = entry.get("f_closed_form")
    if handle is not None and not (
            isinstance(handle, str) and handle.startswith("builtin:")):
        raise KnotFileError("f_closed_form must be a builtin: handle")
    spec = KnotSpec(name, gen, max_index=max_index)
    if kind == "monomial":
        spec.lbc_constant  # LbcError for a margin that falls without bound
    return spec


def _check_closed_form(spec: KnotSpec, handle: str):
    """The file knot's f against the named knot's on f_0..f_7, or on the
    indices both define."""
    ref = get_knot(handle[len("builtin:"):])
    top = min([8] + [seq.max_index + 1 for seq in (spec.f, ref.f)
                     if seq.max_index is not None])
    for i in range(top):
        if spec.f[i] != ref.f[i]:
            raise KnotFileError("knot %r disagrees with %s at f_%d"
                                % (spec.name, handle, i))


def _check_acyclic(entries: list, local: dict):
    # imported here: load_knots is the only reader, and the import would
    # add to every `import qhabiro`
    from graphlib import CycleError, TopologicalSorter

    graph = {entry["name"]: entry["generator"]["summands"] for entry in entries
             if entry["generator"].get("kind") == "composite"}
    for deps in graph.values():
        for dep in deps:
            if dep not in local and dep not in _REGISTRY:
                raise KnotFileError("composite references unknown knot %r" % dep)
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as e:
        raise CompositeCycleError(
            "cyclic composite reference through %r" % e.args[1][0]) from None


def load_knots(path) -> list:
    """Register knots from a JSON file; returns the new KnotSpecs.

    An entry's generator gives a_{-k-1} by its kind: ``monomial`` (the
    ClosedForm of sign (-1)^{alpha k + beta} and exponent c2 k^2 + c1 k +
    c0, whose exact LBC constant is read here: LbcError if it has none),
    ``list`` (one serialized QSeries per index) or ``composite`` (the
    coefficientwise sum of its summands' a-sides; their connected sum is
    omega_mul, ``qhabiro connect-sum``)."""
    import json  # here, as graphlib: only knot files need it
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise KnotFileError("invalid JSON: %s" % e) from e
    entries = doc if isinstance(doc, list) else [doc]
    local: dict = {}
    specs = []
    for entry in entries:
        spec = _build_from_entry(entry, local)
        if spec.name in local or spec.name in _REGISTRY:
            raise KnotFileError("duplicate knot name %r" % spec.name)
        local[spec.name] = spec
        specs.append(spec)
    _check_acyclic(entries, local)
    for entry, spec in zip(entries, specs):
        if entry.get("f_closed_form") is not None:
            _check_closed_form(spec, entry["f_closed_form"])
    for spec in specs:
        _register(spec)
    return specs
