"""Dehn-surgery series: the three computation routes for the
surgered-manifold series (GM coefficient route, residue route,
inverted-coefficient route), empirical convergence detection, and the
surgery polynomials in two definitions.

Every route is one sum stopped by one rule: a route hands its term(k)
and indices, capped by _k_cap, to series.sum_until with no degree bound,
whose degree trend returns the sum once it settles the tail, None once
it diverges, and raises ConvergenceError when the indices run out.  The
GM k-sum is _fk_sum, which returns the sum and the last k it read, and
raises on divergence; the residue and inverted-coefficient routes end in
_finish, which adds the k=0 boundary term or, on divergence, evaluates
the GM k-sum instead.  park_poly_residue declares its bound.

The residue and inverted-coefficient routes run on plain integer lists:
each weight polynomial comes from its integer exponents, turns into the
monomials of (1 - q^{-j}) weight_poly(j) once (_weight_monos), and every
product with a residue or a carried 1/((q)_{k-j}(q)_{k+j}) is slice-adds
into one coefficient list (series._add_scaled), with one QSeries per
term.  The residue products go through series._products, which the
theta route (residues.residues_from_f) shares.  The bookkeeping is
integer too: precisions, degree bounds, windows and store keys are
numerators on a known grid or (num, den) pairs compared by
cross-multiplication.  Fraction is met only at the edges: SurgeryParams.prec
in, ZhatResult.delta out, and the precision r_j is computed at on a miss.

State that depends only on the knot is computed once per process and
shared across routes, slopes and spin^c labels: the LBC constant
(KnotSpec.lbc_constant), the residues r_j (_residue, which computes r_j
from the side the knot was given on, keeps the most precise r_j computed
so far in the knot's store, keyed by j, and serves lower precisions as
its truncation), and the monomials of each weight
polynomial (_weight_monos, memoised per (j, p, a)).  The residue route's
fallback reads difference k of the GM k-sum only to O(q^{prec + k^2/p}),
the precision its shifted term keeps; it asks for each r_j once, at the
most that the differences up to the stop of the GM k-sum over the knot's
f_k need of it, and raises at once when that k-sum diverges
(_residue_diffs).

All routes produce results up to an overall sign and rational power of q;
ZhatResult canonicalizes that ambiguity (extract the minimal exponent,
divide out the integer content, force a positive leading coefficient) so
routes can be compared verbatim.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count
from math import gcd, lcm

from .series import (ConvergenceError, ExpLike, QAlgebraError, QSeries,
                     RemainderError, _add_scaled, _products, series_sum,
                     sum_until)
from .qcomb import CACHE_SIZE, _div_one_minus_qm, poch, qbinom
from .transform import f_from_a
from .residues import (_inv_poch_pair, _j_window, residue_series,
                       residues_from_f)
from .knots import KnotSpec, get_knot

class FractionalExponentError(QAlgebraError):
    pass


class SurgeryParams(namedtuple("SurgeryParams", "p a prec method")):
    """A surgery case: the int coefficient ``p``, the int spin-c label
    ``a``, the precision ``prec`` (kept as a Fraction) and the route name
    ``method`` (a str, default "fk", read case-insensitively by ``zhat``).
    ValueError unless p != 0 and 0 <= a < |p|."""
    __slots__ = ()

    def __new__(cls, p: int, a: int, prec: ExpLike, method: str = "fk"):
        if p == 0:
            raise ValueError("surgery coefficient must be nonzero")
        if not 0 <= a < abs(p):
            raise ValueError("spin-c label must satisfy 0 <= a < |p|")
        return super().__new__(cls, p, a, Fraction(prec), method)


class ZhatResult(namedtuple("ZhatResult", "delta series sign_convention")):
    """Canonicalized surgery series: q^delta * (sign/content adjustments
    applied to) series, equality understood up to sign and q-power; the
    Fraction ``delta``, the QSeries ``series`` and the str
    ``sign_convention`` noting the adjustments."""
    __slots__ = ()


def _normalize(s: QSeries, p: int) -> ZhatResult:
    if not s.coeffs:
        return ZhatResult(Fraction(0), s, "zero to precision")
    delta = s.delta()
    if (2 * abs(p)) % delta.denominator:
        raise FractionalExponentError(
            "leading exponent %s is off the 1/(2p) grid" % delta)
    # q^-delta s over its content, with a positive leading coefficient
    content, flipped = gcd(*s.coeffs), s.coeffs[0] < 0
    unit = -content if flipped else content
    s = QSeries([c // unit for c in s.coeffs], 0, s.scale,
                None if s.prec is None else s.prec - s.offset)
    notes = ["equality holds up to sign and rational q-power"]
    if content > 1:
        notes.append("content %d divided out" % content)
    if flipped:
        notes.append("sign flipped")
    return ZhatResult(delta, s, "; ".join(notes))


def _in_class(k: int, p: int, a: int) -> bool:
    return (k - a) % p == 0 or (k + a) % p == 0


def _k_cap(prec: Fraction, p: int) -> int:
    n = prec.numerator * abs(p) // prec.denominator
    return max(64, 8 * (math.isqrt(max(n, 0)) + 2))


def _fk_sum(diff, p: int, a: int, prec: Fraction):
    """The GM k-sum sum_k q^{-k^2/p} diff(k) over the in-class
    k == +-a mod p with 0 <= k <= _k_cap, stopped by its degree trend, as
    (sum, K) with K the last k it read; ConvergenceError when it diverges.

    diff(k) is the difference f_{k-1} - f_k (f_{-1} = 0) to at least
    O(q^{prec + k^2/p}), the precision term k keeps after its shift, asked
    for once per in-class k in increasing order.  The routes hand
    over the difference, not f_k, because the residue route gets it for
    less than f_{k-1} and f_k apart: r_0 cancels, and each r_j is needed
    once, at one precision."""
    def term(k: int) -> QSeries:
        return diff(k)._shift(k * k if p < 0 else -k * k, abs(p))

    ks = (k for k in range(_k_cap(prec, p) + 1) if _in_class(k, p, a))
    acc, K = sum_until(term, ks, prec)
    if acc is None:
        raise ConvergenceError("divergent or undecidable for these parameters")
    return acc, K


def _f_diffs(f):
    """k -> f_{k-1} - f_k over a coefficient sequence, f_{-1} = 0."""
    return lambda k: (f[k - 1] if k else QSeries.zero()) - f[k]


def zhat_via_fk(knot, params: SurgeryParams) -> ZhatResult:
    """1/2 sum_{k == +-a mod p, k >= 0} q^{-k^2/p} (f_{k-1} - f_k), with
    f_{-1} = 0; convergence is detected empirically from the degree trend
    of the included terms."""
    knot = get_knot(knot)
    p, a, prec = params.p, params.a, params.prec
    return _normalize(_fk_sum(_f_diffs(knot.f), p, a, prec)[0], p)


def surgery_weight_poly(j: int, p: int, a: int) -> QSeries:
    """sum_{n=0}^{j-1} q^{j(np+a) - (np+a)^2/p}, the finite Laurent factor
    multiplying each residue, built from the integer exponents
    j*u*|p| - sign(p)*u^2 (u = np + a) on the 1/|p| grid, coarsened by
    their common factor with |p| so that the grid is already canonical."""
    g = abs(p)
    s = 1 if p > 0 else -1
    exps = [j * u * g - s * u * u for u in range(a, a + j * p, p)]
    if not exps:
        return QSeries.zero()
    d = gcd(g, *exps)
    lo = min(exps)
    coeffs = [0] * ((max(exps) - lo) // d + 1)
    for x in exps:
        coeffs[(x - lo) // d] += 1
    return QSeries(coeffs, lo // d, g // d)


@lru_cache(maxsize=CACHE_SIZE)
def _weight_monos(j: int, p: int, a: int) -> tuple:
    """w_j = (1 - q^{-j}) weight_poly(j) as its monomials
    (exponent * |p|, coefficient), ascending; memoised, so a tuple."""
    wp = surgery_weight_poly(j, p, a)
    f = abs(p) // wp.scale
    shift = j * abs(p)
    acc = {}
    for i in compress(count(), wp.coeffs):
        x = (wp.offset + i) * f
        c = wp.coeffs[i]
        acc[x] = acc.get(x, 0) + c
        acc[x - shift] = acc.get(x - shift, 0) - c
    return tuple(sorted((x, c) for x, c in acc.items() if c))


def _weight_label(p: int, a: int) -> int:
    """Congruence-class representative for the telescoped weight window.

    The weight polynomial arises from telescoping the k-sum over the class
    k >= 0, k == +-a (mod p).  Enumerating that class as k = np + a with
    n >= 0 is only possible for p > 0; for p < 0 the class is a + p*n with
    n <= 0, the telescoping runs in the opposite direction, and the
    remainder window is n = 1..j, i.e. the same polynomial with the
    representative a replaced by a + p (up to a global sign absorbed by
    the normalization)."""
    return a + p if p < 0 else a


def _finish(acc, knot: KnotSpec, params: SurgeryParams, fallback,
            note: str) -> ZhatResult:
    """A swapped route's result from its trend-stopped sum acc: acc plus
    the k=0 boundary term, or, when acc is None (the sum diverged), the GM
    k-sum over the differences fallback() builds, with note appended to
    the sign convention.

    The boundary term restores the k=0 summand f_{-1} - f_0 = -f_0 when
    0 is in the congruence class (a = 0): the residue expression for
    f_{k-1} - f_k vanishes at k = 0 (the symmetric extension of the
    residue formula has F(-1) = F(0) = f_0), so the telescoped sum drops
    it; f_0 = a_{-1}."""
    p, a, prec = params.p, params.a, params.prec
    if acc is not None:
        if a == 0:
            acc = acc + (knot.a[0] if p < 0 else -knot.a[0])
        return _normalize(acc.truncate(prec), p)
    out = _normalize(_fk_sum(fallback(), p, a, prec)[0], p)
    return out._replace(sign_convention=out.sign_convention + note)


def _residue(knot: KnotSpec, j: int, n: int, d: int) -> QSeries:
    """r_j of the knot to O(q^prec), prec = n/d, from the knot's store.

    r_j comes from the side the knot was given on: residues_from_f over
    knot.f for a knot given only its f-side (the a-side would be the
    cascade's dense transform of it), else residue_series over knot.a;
    both are the modules' bindings, read at call time.  The store keeps,
    per j, the most precise r_j computed so far and the precision it was
    asked at.  A request at or below that precision gets its truncation,
    which is the computation at the lower precision exactly: QSeries is
    canonical, and every term past the lower window lies at or above that
    window's precision.  A request above it computes r_j at prec and
    replaces the entry.  The store holds at most CACHE_SIZE entries and
    drops the oldest first.  Precisions are kept as (n, d) and compared by
    cross-multiplication; the computation is handed Fraction(n, d)."""
    store = knot.residues
    have = store.get(j)
    if have is None or have[0] * d < n * have[1]:
        if have is None and len(store) >= CACHE_SIZE:
            store.pop(next(iter(store)), None)
        prec, C = Fraction(n, d), knot.lbc_constant
        have = store[j] = (n, d, residues_from_f(knot.f, j, prec, C)
                           if knot.given == "f"
                           else residue_series(knot.a, j, prec, C))
    hn, hd, r = have
    return r if hn * d == n * hd else r._truncate(n, d)


def zhat_via_residues(knot, params: SurgeryParams) -> ZhatResult:
    """sum_{j>=1} r_j (1 - q^{-j}) * weight_poly(j), plus the k=0
    boundary term, summed over j while the double sum converges.

    Term j is r_j times the monomials of w_j = (1 - q^{-j}) weight_poly(j),
    one _add_scaled per monomial into one coefficient list on the 1/|p|
    grid (_products); r_j is read to O(q^{prec - delta(w_j)}), which the
    term needs to reach O(q^prec), from the knot's store (_residue).

    When the termwise j-sum diverges (the weight polynomials' degrees
    fall faster than delta(r_j) grows), the unswapped iterated sum is
    evaluated instead: the k-sum of q^{-k^2/p}(f_{k-1}-f_k) with every
    difference reconstructed from the residues (_residue_diffs)."""
    knot = get_knot(knot)
    p, a, prec = params.p, params.a, params.prec
    a_w = _weight_label(p, a)
    g = abs(p)
    pn, pd = prec.numerator, prec.denominator

    def term(j: int) -> QSeries:
        w = _weight_monos(j, p, a_w)
        rj = _residue(knot, j, pn * g - min(0, w[0][0]) * pd, pd * g)
        return _products([(rj, w)], g)

    acc, _ = sum_until(term, range(1, _k_cap(prec, p) + 1), prec)
    return _finish(acc, knot, params,
                   lambda: _residue_diffs(knot, params),
                   "; termwise j-sum diverges, evaluated as the iterated "
                   "k-sum over residue-reconstructed coefficients")


def _plan_k(knot: KnotSpec, p: int, a: int, prec: Fraction) -> int:
    """The last in-class k that the GM k-sum over knot.f reads before its
    trend stops it; ConvergenceError when that sum diverges."""
    return _fk_sum(_f_diffs(knot.f), p, a, prec)[1]


def _residue_diffs(knot: KnotSpec, params: SurgeryParams):
    """k -> f_{k-1} - f_k to O(q^{need(k)}), need(k) = prec + k^2/p, the
    precision term k of the GM k-sum keeps (_fk_sum), from the residues
    through f_k = -r_0 - sum_{j>=1}(q^{-j(k+1)} + q^{jk}) r_j and
    f_{-1} = 0.

    For k >= 1 r_0 cancels, and the difference is
    sum_{j>=1} (q^{-j(k+1)} + q^{jk} - q^{-jk} - q^{j(k-1)}) r_j, which
    needs each r_j to O(q^{need(k) + j(k+1)}) over the j-window of f_k at
    need(k) (it covers f_{k-1}'s); each r_j adds its four monomials into
    one list (_products).  Each r_j comes from the knot's store (_residue).

    The precision plan: the GM k-sum over knot.f, whose terms are the same
    differences, stops at some in-class K (_plan_k) under the same rule
    and cap.  Each r_j is asked at the largest need(k) + j(k+1) over the
    in-class k <= K whose window holds j, so the store computes it once.
    The plan only sizes the r_j; the differences and the stop come from
    the residues, and a k past K (a short plan) asks for more and
    recomputes r_j.  When the GM k-sum over knot.f diverges, so would this
    one, and _plan_k's ConvergenceError propagates before the fallback
    computes any r_j."""
    p, a, prec = params.p, params.a, params.prec
    C = knot.lbc_constant
    D = lcm(prec.denominator, abs(p))  # precisions in units of 1/D

    def need(k: int) -> int:
        return prec.numerator * D // prec.denominator + k * k * D // p

    def window(k: int):
        return range(1, _j_window(k, need(k), D, C) + 1)

    # j -> the largest need(k) + j(k+1) over the planned k (sorted, so the
    # largest of each j is set last)
    plan = dict(sorted((j, need(k) + j * (k + 1) * D)
                       for k in range(_plan_k(knot, p, a, prec) + 1)
                       if _in_class(k, p, a) for j in window(k)))

    def rj(k: int, j: int) -> QSeries:
        at = need(k) + j * (k + 1) * D
        return _residue(knot, j, max(at, plan.get(j, at)), D)

    def diff(k: int) -> QSeries:
        if k == 0:
            pairs = [(_residue(knot, 0, need(0), D), [(0, 1)])]
            pairs += [(rj(0, j), [(-j * D, 1), (0, 1)]) for j in window(0)]
        else:
            pairs = [(rj(k, j), [(-j * (k + 1) * D, 1), (-j * k * D, -1),
                                 (j * (k - 1) * D, -1), (j * k * D, 1)])
                     for j in window(k)]
        return _products(pairs, D, need(k))

    return diff


def zhat_via_ih(knot, params: SurgeryParams) -> ZhatResult:
    """sum_{k>=1} a_{-k-1} sum_{j=1}^k (-1)^{k+j+1}
    q^{binom(k+1,2)+binom(j+1,2)} (1-q^{-j}) weight_poly(j)
    / ((q)_{k+j}(q)_{k-j}), plus the k=0 boundary term.

    Each inner j-sum builds up in one coefficient list on the 1/|p| grid
    of the weight polynomials.  Per j, u = 1/((q)_{k-j}(q)_{k+j}) is
    carried from k-1 to k by dividing by (1 - q^{k-j})(1 - q^{k+j}), cut to
    the length term k needs (rebuilt only if a later k needs more), and
    w_j = (1 - q^{-j}) weight_poly(j), built once, adds into the list
    through series._add_scaled.

    Falls back like the residue route: if the k-sum of inner j-sums
    diverges, the GM k-sum is evaluated with f_k obtained from the
    inverted Habiro coefficients through the transform."""
    knot = get_knot(knot)
    p, a, prec = params.p, params.a, params.prec
    a_w = _weight_label(p, a)
    g = abs(p)
    pn, pd = prec.numerator, prec.denominator
    w = [None]  # w[j]: (exponent * g, coefficient) of w_j, ascending
    us: dict = {}  # j -> (k, u) with u = 1/((q)_{k-j}(q)_{k+j}) truncated

    def term(k: int) -> QSeries:
        ak = knot.a[k]
        x, s = ak.low, ak.scale  # delta >= x/s
        if x is None:  # the exact zero
            return ak
        tn, td = pn * s - x * pd, pd * s  # target = prec - x/s
        inner = QSeries((), 0, td, max(tn, pn * s))  # O(q^max(prec, target))
        top = -(-tn * g // td)
        while len(w) <= k:
            w.append(_weight_monos(len(w), p, a_w))
        # (j, e_{k,j} * g, number of coefficients of u below target)
        live = []
        for j in range(1, k + 1):
            e = (j * (j + 1) + k * (k + 1)) // 2 * g
            n = (top - e - w[j][0][0] + g - 1) // g
            if n > 0:
                live.append((j, e, n))
        if live:
            lo = min(e + w[j][0][0] for j, e, _ in live)
            coeffs = [0] * (top - lo)
            for j, e, n in live:
                kj, u = us.get(j, (None, None))
                u = _inv_poch_pair(
                    u if kj == k - 1 and len(u) >= n else None, k, j, n)
                us[j] = (k, u)
                _add_scaled(coeffs, lo, top, g, w[j], e, u, n,
                            1 if (k + j) % 2 else -1)
            inner = QSeries(coeffs, lo, g)._truncate(tn, td)
        return ak * inner

    acc, _ = sum_until(term, range(1, _k_cap(prec, p) + 1), prec)
    return _finish(acc, knot, params, lambda: _f_diffs(f_from_a(knot.a)),
                   "; termwise k-sum diverges, evaluated as the iterated "
                   "k-sum over transformed coefficients")


def zhat(knot, params: SurgeryParams) -> ZhatResult:
    route = {"fk": zhat_via_fk, "residues": zhat_via_residues,
             "ihcoef": zhat_via_ih}.get(
                 str(params.method).lower())
    if route is None:
        raise ValueError("method must be 'FK', 'RESIDUES' or 'IHCOEF'")
    return route(knot, params)


def park_poly_explicit(p: int, a: int, k: int) -> QSeries:
    """-q^{a(p-a)/p} (q^{k+1};q)_k sum_{j=1}^k (-1)^{k+j} (1-q^{-j})
    q^{binom(j+1,2)-binom(k,2)} / ((q)_{k+j}(q)_{k-j}) *
    sum_n q^{(np+a)^2/p - j(np+a)}; the n-sum is weight_poly(j) mirrored.
    Over the common denominator (q)_k (q)_{2k} of the j-sum, with numerator
    num, the product is num / (q)_k^2, as (q)_{2k} = (q)_k (q^{k+1};q)_k.

    At k = 0 the j-sum is empty and the polynomial is 0 for every a; the
    residue form (park_poly_residue) keeps the theta constant term there
    instead."""
    if p <= 0 or not 0 <= a < p:
        raise ValueError("need p > 0 and 0 <= a < p")
    if k < 0:
        raise ValueError("k must be nonnegative")
    num = series_sum(
        (-1) ** (k + j) * (QSeries.one() - QSeries.monomial(-j))
        * QSeries.monomial(Fraction(j * (j + 1) - k * (k - 1), 2))
        * poch(k - j + 1, j) * poch(k + j + 1, k - j)
        * surgery_weight_poly(j, p, a).mirror()
        for j in range(1, k + 1))
    # num/(q)_k^2 as a power series truncated at num's length; the quotient
    # is a polynomial exactly when nothing is left past its degree
    s, c = num.scale, list(num.coeffs)
    n = max(len(c) - k * (k + 1) * s, 0)  # the quotient's length
    for i in range(1, k + 1):
        _div_one_minus_qm(c, i * s)
        _div_one_minus_qm(c, i * s)
    if any(c[n:]):
        raise RemainderError("division leaves a remainder")
    out = -QSeries(c[:n], num.offset, s)._shift(a * (p - a), p)
    if out.scale != 1:
        raise FractionalExponentError("fractional exponent did not cancel")
    return out


def park_poly_residue(p: int, a: int, k: int) -> QSeries:
    """q^{-k^2 + a(p-a)/p} (q^{k+1};q)_k * [x^{-1}-coefficient of
    Theta(x) / prod_{i=1}^k (x + x^{-1} - q^i - q^{-i})].

    The inverse product expands as (1-x) x^k sum_j x^j [2k+j choose j],
    and the theta function pairs x^m (m >= 0, m == a mod p) against x^{-m-1}
    with weight q^{m^2/p}; equivalently Theta(x) = sum over u < 0 with
    u == -1-a (mod p) of x^u q^{(u+1)^2/p}.  Combined with the prefactor the
    exponents m^2/p + a(p-a)/p == (m-a)(m+a)/p + a are always integers, so
    the result is a genuine Laurent polynomial.  Only finitely many m land
    below the working precision 2k^2 + 3k + 2p + 24, a window comfortably
    above the polynomial's top degree.

    At k = 0 only j = 0 survives ([j choose j] - [j-1 choose j-1] = 0 for
    j >= 1), which pairs m = 0 with x^{-1}: the result is 1 when a = 0,
    where m = 0 lies in the class, and 0 otherwise.  The explicit form
    (park_poly_explicit) is 0 at k = 0 for every a.
    """
    if p <= 0 or not 0 <= a < p:
        raise ValueError("need p > 0 and 0 <= a < p")
    if k < 0:
        raise ValueError("k must be nonnegative")
    prec = 2 * k * k + 3 * k + 2 * p + 24
    pref_exp = -k * k + Fraction(a * (p - a), p)
    pref = poch(k + 1, k)
    # residue sum pairs x^{k+j} (from the inverse product) with x^{-(k+j)-1}
    # over the in-class j, k + j == a mod p

    def term(j: int) -> QSeries:
        cj = qbinom(2 * k + j, j) - (qbinom(2 * k + j - 1, j - 1) if j else QSeries.zero())
        return cj._shift((k + j) ** 2, p)

    # delta(c_j) >= -jk, so delta(term j) >= (k+j)^2/p - jk: a parabola in
    # j with its vertex k^2(4-p)/4 at j = kp/2 - k, rising from j = kp on
    def bound(j: int) -> Fraction:
        return (Fraction((k + j) ** 2 - j * k * p, p) if j >= k * p
                else Fraction(k * k * (4 - p), 4))

    ks = (j for j in count() if (k + j - a) % p == 0)
    acc, _ = sum_until(term, ks, prec - pref_exp - pref.delta(), bound)
    out = (QSeries.monomial(pref_exp) * pref * acc).truncate(prec)
    if out.scale != 1:
        raise FractionalExponentError("fractional exponent did not cancel")
    return out
