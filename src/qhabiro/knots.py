"""Knot registry: built-in coefficient generators, user-defined knots
from JSON files, mirrors, and composite (coefficientwise sum) entries.

A knot is given by its inverted Habiro coefficients a_{-k-1} (the
figure-eight knot and every file knot), by its GM coefficients f_k (the
unknot, f_k = delta_{k,0}), or by both (the trefoils, whose f_k are
monomials).  A side not given is the transform of the other.  A file
knot's ``f_closed_form: builtin:X`` is checked against X's f when the file
loads; it never replaces the transform.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Optional

from .series import ExactnessError, QAlgebraError, QSeries, series_sum
from .transform import CoeffSeq, LbcError, a_from_f, f_from_a, lbc_check

INTEGRALITY_WINDOW = 64
LBC_WINDOW = 24  # lbc_constant audits the a-side over indices 0..LBC_WINDOW at most


class KnotError(QAlgebraError):
    pass


class UnknownKnotError(KnotError):
    pass


class KnotFileError(KnotError):
    """Knot file does not match the schema."""


class ExponentIntegralityError(KnotError):
    """A monomial generator's exponent is non-integral at some index."""


class CompositeCycleError(KnotError):
    """Composite knot references form a cycle."""


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
        """The knot's LBC constant: that of its a-side over indices
        0..LBC_WINDOW, or up to the last index a finite a-side provides."""
        top = self.a.max_index
        return lbc_check(self.a, LBC_WINDOW if top is None
                         else min(LBC_WINDOW, top)).constant

    def a_coeff(self, k: int) -> QSeries:
        return self.a[k]

    def f_coeff(self, k: int) -> QSeries:
        return self.f[k]


def _monomial_gen(alpha: int, beta: int, c2: Fraction, c1: Fraction, c0: Fraction):
    # the exponent c2 k^2 + c1 k + c0 as e/d on the common denominator d
    d = c2.denominator * c1.denominator * c0.denominator
    n2, n1, n0 = (c.numerator * (d // c.denominator) for c in (c2, c1, c0))

    def gen(k: int) -> QSeries:
        e = n2 * k * k + n1 * k + n0
        if e % d:
            raise ExponentIntegralityError(
                "monomial exponent %s is non-integral at k=%d"
                % (Fraction(e, d), k))
        sign = -1 if (alpha * k + beta) % 2 else 1
        return QSeries.monomial(e // d, sign)

    return gen


def _f_trefoil(sgn: int) -> Callable[[int], QSeries]:
    """f_k = eps_{2k+1} q^{sgn (k(k+1)/6 + 1)}; sgn = +1 for 3_1r.

    eps_m = -(3|m) is Gukov-Manolescu's sign for T(2,3) (arXiv:1904.06057):
    -1 at m = +-1, +1 at m = +-5 and 0 where 3 divides m, all mod 12."""
    eps = {1: -1, 5: 1, 7: 1, 11: -1}

    def gen(k: int) -> QSeries:
        e = eps.get((2 * k + 1) % 12)
        if e is None:
            return QSeries.zero()
        return QSeries.monomial(sgn * (Fraction(k * (k + 1), 6) + 1), e)

    return gen


_HALF = Fraction(1, 2)

_REGISTRY: dict = {}


def _register(spec: KnotSpec):
    # one dict.setdefault: atomic under the GIL, so two threads that
    # register one name cannot both succeed
    if _REGISTRY.setdefault(spec.name, spec) is not spec:
        raise KnotError("knot %r already registered" % spec.name)


def _install_builtins():
    _register(KnotSpec(
        "unknot",
        f_gen=lambda i: QSeries.one() if i == 0 else QSeries.zero(),
    ))
    _register(KnotSpec(
        "3_1l",
        _monomial_gen(1, 1, _HALF, -_HALF, Fraction(-1)),
        _f_trefoil(-1),
    ))
    _register(KnotSpec(
        "3_1r",
        _monomial_gen(1, 1, -_HALF, _HALF, Fraction(1)),
        _f_trefoil(1),
    ))
    _register(KnotSpec("4_1", lambda k: QSeries.one()))


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
    (both transforms commute with it); requires exact coefficients."""
    knot = get_knot(knot)

    def gen(seq: CoeffSeq, k: int) -> QSeries:
        if not seq[k].is_exact:
            raise ExactnessError("mirror requires exact coefficients")
        return seq[k].mirror()

    sides = [partial(gen, getattr(knot, s)) if s in knot.given else None
             for s in "af"]
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
        c2 = _parse_fraction(exp.get("c2", 0))
        c1 = _parse_fraction(exp.get("c1", 0))
        c0 = _parse_fraction(exp.get("c0", 0))
        gen = _monomial_gen(alpha, beta, c2, c1, c0)
        for k in range(INTEGRALITY_WINDOW + 1):
            gen(k)  # raises on a non-integral exponent
        # the LBC margin delta(a_{-k-1}) + (k+1)(k-2)/2 of every index is
        # (c2 + 1/2)k^2 + (c1 - 1/2)k + c0 - 1: no constant bounds it from
        # below when it falls without bound
        if c2 < -_HALF or (c2 == -_HALF and c1 < _HALF):
            raise LbcError("knot %r has no LBC constant: its margin "
                           "(c2 + 1/2)k^2 + (c1 - 1/2)k + c0 - 1 falls "
                           "without bound" % name)
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

        def gen(k: int, _names=tuple(summands)) -> QSeries:
            return series_sum((local.get(s) or get_knot(s)).a_coeff(k)
                              for s in _names)
    else:
        raise KnotFileError("unknown generator kind %r" % (kind,))

    handle = entry.get("f_closed_form")
    if handle is not None and not (
            isinstance(handle, str) and handle.startswith("builtin:")):
        raise KnotFileError("f_closed_form must be a builtin: handle")
    return KnotSpec(name, gen, max_index=max_index)


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

    An entry's generator gives a_{-k-1} by its kind: ``monomial`` (a sign
    and an exponent quadratic in k; LbcError when the LBC margin that the
    quadratic gives falls without bound), ``list`` (one serialized QSeries per
    index) or ``composite`` (the coefficientwise sum of its summands'
    a-sides; their connected sum is omega_mul, ``qhabiro connect-sum``)."""
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
