"""Dehn-surgery series: the Laplace-transform operator on monomials, the
three computation routes for the surgered-manifold series (GM coefficient
route, residue route, inverted-coefficient route), empirical convergence
detection, and the surgery polynomials in two definitions.

All routes produce results up to an overall sign and rational power of q;
ZhatResult canonicalizes that ambiguity (extract the minimal exponent,
divide out the integer content, force a positive leading coefficient) so
routes can be compared verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from .series import QAlgebraError, QSeries, exact_div
from .qcomb import poch, qbinom, qpoch
from .transform import f_from_a, lbc_check
from .residues import _binom2, residue_series, residue_sigma
from .knots import KnotSpec, get_knot

RUN_LENGTH = 3
DIV_RUN_LENGTH = 5


class ConvergenceError(QAlgebraError):
    pass


class FractionalExponentError(QAlgebraError):
    pass


@dataclass(frozen=True)
class SurgeryParams:
    p: int
    a: int
    prec: Fraction
    method: str = "fk"

    def __post_init__(self):
        if self.p == 0:
            raise ValueError("surgery coefficient must be nonzero")
        if not 0 <= self.a < abs(self.p):
            raise ValueError("spin-c label must satisfy 0 <= a < |p|")
        object.__setattr__(self, "prec", Fraction(self.prec))


@dataclass(frozen=True)
class ZhatResult:
    """Canonicalized surgery series: q^delta * (sign/content adjustments
    applied to) series, equality understood up to sign and q-power."""

    delta: Fraction
    series: QSeries
    sign_convention: str


def laplace_monomial(u: int, w, p: int, a: int) -> Optional[Fraction]:
    """Exponent of the Laplace-transformed monomial x^u q^w, or None when
    u is not in the congruence class a mod p."""
    if p == 0:
        raise ValueError("p must be nonzero")
    if (u - a) % p:
        return None
    return -Fraction(u * u, p) + Fraction(w)


def _divide_content(s: QSeries):
    g = 0
    for c in s.coeffs:
        g = gcd(g, abs(c))
    if g <= 1:
        return s, 1
    return QSeries([c // g for c in s.coeffs], s.offset, s.scale, s.prec), g


def _normalize(s: QSeries, p: int) -> ZhatResult:
    if not s.coeffs:
        return ZhatResult(Fraction(0), s, "zero to precision")
    delta = s.delta()
    if (2 * abs(p)) % delta.denominator:
        raise FractionalExponentError(
            "leading exponent %s is off the 1/(2p) grid" % delta)
    s = s.shift(-delta)
    s, content = _divide_content(s)
    flipped = s.coeffs[0] < 0
    if flipped:
        s = -s
    notes = ["equality holds up to sign and rational q-power"]
    if content > 1:
        notes.append("content %d divided out" % content)
    if flipped:
        notes.append("sign flipped")
    return ZhatResult(delta, s, "; ".join(notes))


def _resolve(knot: Union[str, KnotSpec]) -> KnotSpec:
    return get_knot(knot) if isinstance(knot, str) else knot


def _in_class(k: int, p: int, a: int) -> bool:
    return (k - a) % p == 0 or (k + a) % p == 0


def _k_cap(prec: Fraction, p: int) -> int:
    return max(64, 8 * (math.isqrt(int(prec * abs(p))) + 2))


class _Trend:
    """Empirical convergence/divergence detector over term degree bounds.

    A term sequence "converges" once RUN_LENGTH consecutive degrees sit at
    or above the precision without decreasing, and "diverges" once
    DIV_RUN_LENGTH consecutive degrees strictly decrease below zero."""

    def __init__(self, prec: Fraction):
        self.prec = prec
        self._run = 0
        self._div = 0
        self._prev = None

    def push(self, d) -> None:
        if d >= self.prec and (self._prev is None or d >= self._prev):
            self._run += 1
        else:
            self._run = 0
        if self._prev is not None and d < self._prev and d < 0:
            self._div += 1
        else:
            self._div = 0
        self._prev = d

    @property
    def converged(self) -> bool:
        return self._run >= RUN_LENGTH

    @property
    def diverging(self) -> bool:
        return self._div >= DIV_RUN_LENGTH


def _fk_style_sum(fk_get, p: int, a: int, prec: Fraction) -> QSeries:
    """sum_{k == +-a mod p, k >= 0} q^{-k^2/p}(f_{k-1} - f_k) with
    f_{-1} = 0, summed until the empirical degree trend certifies the
    tail; raises on divergence."""
    acc = QSeries.zero(prec)
    trend = _Trend(prec)
    k = 0
    cap = _k_cap(prec, p)
    while True:
        if _in_class(k, p, a):
            prev_f = fk_get(k - 1) if k > 0 else QSeries.zero()
            term = (prev_f - fk_get(k)).shift(-Fraction(k * k, p))
            acc = (acc + term).truncate(prec)
            trend.push(term.delta_lb())
            if trend.converged:
                return acc.truncate(prec)
        k += 1
        if trend.diverging or k > cap:
            raise ConvergenceError(
                "divergent or undecidable for these parameters")


def zhat_via_fk(knot, params: SurgeryParams) -> ZhatResult:
    """1/2 sum_{k == +-a mod p, k >= 0} q^{-k^2/p} (f_{k-1} - f_k), with
    f_{-1} = 0; convergence is detected empirically from the degree trend
    of the included terms."""
    knot = _resolve(knot)
    p, a, prec = params.p, params.a, params.prec
    f = knot.f
    return _normalize(_fk_style_sum(lambda k: f[k], p, a, prec), p)


def surgery_weight_poly(j: int, p: int, a: int) -> QSeries:
    """sum_{n=0}^{j-1} q^{j(np+a) - (np+a)^2/p}, the finite Laurent factor
    multiplying each residue."""
    acc = QSeries.zero()
    for n in range(j):
        u = n * p + a
        acc = acc + QSeries.monomial(j * u - Fraction(u * u, p))
    return acc


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


def _boundary_term(knot: KnotSpec, p: int, a: int) -> QSeries:
    """Correction restoring the k=0 term of the k-sum when 0 is in the
    congruence class (a = 0).

    The k=0 summand is f_{-1} - f_0 = -f_0, but the residue expression
    for f_{k-1} - f_k vanishes at k = 0 (the symmetric extension of the
    residue formula has F(-1) = F(0) = f_0), so the telescoped j-sum
    drops the boundary; f_0 = a_{-1}."""
    if a != 0:
        return QSeries.zero()
    f0 = knot.a[0]
    return f0 if p < 0 else -f0


def zhat_via_residues(knot, params: SurgeryParams, C=None) -> ZhatResult:
    """sum_{j>=1} r_j (1 - q^{-j}) * weight_poly(j), plus the k=0
    boundary term, summed over j while the double sum converges.

    When the termwise j-sum diverges (the weight polynomials' degrees
    fall faster than delta(r_j) grows), the unswapped iterated sum is
    evaluated instead: the k-sum of q^{-k^2/p}(f_{k-1}-f_k) with every
    f_k reconstructed from the residue family."""
    knot = _resolve(knot)
    p, a, prec = params.p, params.a, params.prec
    if C is None:
        C = lbc_check(knot.a, 24).constant
    a_w = _weight_label(p, a)
    acc = QSeries.zero(prec)
    trend = _Trend(prec)
    j = 1
    cap = _k_cap(prec, p)
    while True:
        poly = surgery_weight_poly(j, p, a_w)
        low = poly.delta() - j
        rj = residue_series(knot.a, j, prec - min(Fraction(0), low), C)
        term = rj * (QSeries.one() - QSeries.monomial(-j)) * poly
        acc = (acc + term).truncate(prec)
        trend.push(term.delta_lb())
        if trend.converged:
            acc = (acc + _boundary_term(knot, p, a)).truncate(prec)
            return _normalize(acc, p)
        if trend.diverging:
            out = _normalize(
                _fk_style_sum(_fk_from_residues_getter(knot, prec, C),
                              p, a, prec), p)
            return ZhatResult(out.delta, out.series, out.sign_convention
                              + "; termwise j-sum diverges, evaluated as "
                                "the iterated k-sum over residue-"
                                "reconstructed coefficients")
        j += 1
        if j > cap:
            raise ConvergenceError(
                "divergent or undecidable for these parameters")


def _fk_from_residues_getter(knot: KnotSpec, prec: Fraction, C):
    """k -> f_k to O(q^prec), each f_k rebuilt from the residue family
    via f_k = -r_0 - sum_{j>=1}(q^{-j(k+1)} + q^{jk}) r_j."""
    cache: dict = {}

    def rj(j: int, need: Fraction) -> QSeries:
        have = cache.get(j)
        if have is None or (have.prec_q is not None and have.prec_q < need):
            have = residue_series(knot.a, j, need, C)
            cache[j] = have
        return have

    def fk(k: int) -> QSeries:
        acc = -rj(0, prec)
        j = 1
        while True:
            g = _binom2(j + 1) + min(-j * (k + 1), j * k) + C
            if g >= prec and j > k + 1:
                break
            r = rj(j, prec + j * (k + 1))
            acc = acc - (r.shift(-j * (k + 1)) + r.shift(j * k))
            j += 1
        return acc.truncate(prec)

    return fk


def zhat_via_ih(knot, params: SurgeryParams) -> ZhatResult:
    """sum_{k>=1} a_{-k-1} sum_{j=1}^k (-1)^{k+j+1}
    q^{binom(k+1,2)+binom(j+1,2)} (1-q^{-j}) weight_poly(j)
    / ((q)_{k+j}(q)_{k-j}), plus the k=0 boundary term.

    Same falls back as the residue route: if the k-sum of inner j-sums
    diverges, the GM k-sum is evaluated with f_k obtained from the
    inverted Habiro coefficients through the transform."""
    knot = _resolve(knot)
    p, a, prec = params.p, params.a, params.prec
    a_w = _weight_label(p, a)
    acc = QSeries.zero(prec)
    trend = _Trend(prec)
    cap = _k_cap(prec, p)
    k = 1
    while True:
        ak = knot.a[k]
        inner = QSeries.zero(prec - min(Fraction(0), ak.delta_lb()))
        if not (ak.is_zero and ak.is_exact):
            target = prec - ak.delta_lb()
            for j in range(1, k + 1):
                poly = surgery_weight_poly(j, p, a_w)
                atom = residue_sigma(k, j)
                low = atom.exponent + poly.delta() - j
                if low >= target:
                    continue
                piece = atom.to_series(target - (poly.delta() - j))
                inner = inner + piece * (QSeries.one() - QSeries.monomial(-j)) * poly
                inner = inner.truncate(target)
        term = ak * inner
        acc = (acc + term).truncate(prec)
        trend.push(term.delta_lb())
        if trend.converged:
            acc = (acc + _boundary_term(knot, p, a)).truncate(prec)
            return _normalize(acc, p)
        if trend.diverging:
            f = f_from_a(knot.a)
            out = _normalize(
                _fk_style_sum(lambda i: f[i], p, a, prec), p)
            return ZhatResult(out.delta, out.series, out.sign_convention
                              + "; termwise k-sum diverges, evaluated as "
                                "the iterated k-sum over transformed "
                                "coefficients")
        k += 1
        if k > cap:
            raise ConvergenceError(
                "divergent or undecidable for these parameters")


def zhat(knot, params: SurgeryParams) -> ZhatResult:
    route = {"fk": zhat_via_fk, "residues": zhat_via_residues,
             "ih": zhat_via_ih, "ihcoef": zhat_via_ih}.get(
                 str(params.method).lower())
    if route is None:
        raise ValueError("method must be 'FK', 'RESIDUES' or 'IHCOEF'")
    return route(knot, params)


def park_poly_explicit(p: int, a: int, k: int) -> QSeries:
    """-q^{a(p-a)/p} (q^{k+1};q)_k sum_{j=1}^k (-1)^{k+j} (1-q^{-j})
    q^{binom(j+1,2)-binom(k,2)} / ((q)_{k+j}(q)_{k-j}) *
    sum_n q^{(np+a)^2/p - j(np+a)}, assembled exactly over the common
    denominator (q)_k (q)_{2k}."""
    if p <= 0 or not 0 <= a < p:
        raise ValueError("need p > 0 and 0 <= a < p")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return QSeries.zero()
    num = QSeries.zero()
    for j in range(1, k + 1):
        inner = QSeries.zero()
        for n in range(j):
            u = n * p + a
            inner = inner + QSeries.monomial(Fraction(u * u, p) - j * u)
        cof = poch(k - j + 1, j) * poch(k + j + 1, k - j)
        e = Fraction(j * (j + 1), 2) - Fraction(k * (k - 1), 2)
        piece = (QSeries.one() - QSeries.monomial(-j)) \
            * QSeries.monomial(e) * cof * inner
        num = num + (piece if (k + j) % 2 == 0 else -piece)
    # (q^{k+1};q)_k must join the numerator before dividing: num/den alone
    # need not be polynomial, the full product is
    den = qpoch(k) * qpoch(2 * k)
    out = -QSeries.monomial(Fraction(a * (p - a), p)) \
        * exact_div(poch(k + 1, k) * num, den)
    if out.scale != 1:
        raise FractionalExponentError("fractional exponent did not cancel")
    return out


def park_poly_residue(p: int, a: int, k: int, prec=None) -> QSeries:
    """q^{-k^2 + a(p-a)/p} (q^{k+1};q)_k * [x^{-1}-coefficient of
    Theta(x) / prod_{i=1}^k (x + x^{-1} - q^i - q^{-i})].

    The inverse product expands as (1-x) x^k sum_j x^j [2k+j choose j],
    and the theta function pairs x^m (m >= 0, m == a mod p) against x^{-m-1}
    with weight q^{m^2/p}; equivalently Theta(x) = sum over u < 0 with
    u == -1-a (mod p) of x^u q^{(u+1)^2/p}.  Combined with the prefactor the
    exponents m^2/p + a(p-a)/p == (m-a)(m+a)/p + a are always integers, so
    the result is a genuine Laurent polynomial.  Only finitely many m land
    below the working precision, which defaults to a window comfortably
    above the polynomial's top degree.
    """
    if p <= 0 or not 0 <= a < p:
        raise ValueError("need p > 0 and 0 <= a < p")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if prec is None:
        prec = 2 * k * k + 3 * k + 2 * p + 24
    prec = Fraction(prec)
    pref_exp = -k * k + Fraction(a * (p - a), p)
    pref = poch(k + 1, k)
    # residue sum pairs x^{k+j} (from the inverse product) with x^{-(k+j)-1}
    acc = QSeries.zero()
    target = prec - pref_exp - pref.delta()
    j = 0
    while True:
        m = k + j
        theta_exp = Fraction(m * m, p)
        # c_j degrees are >= -jk; stop once the exponent sum clears target
        # (past the vertex of the quadratic, so later terms clear it too)
        if theta_exp - j * k >= target and j > k * p:
            break
        if (m - a) % p == 0:
            cj = qbinom(2 * k + j, j) - (qbinom(2 * k + j - 1, j - 1) if j else QSeries.zero())
            acc = acc + QSeries.monomial(theta_exp) * cj
        j += 1
    out = (QSeries.monomial(pref_exp) * pref * acc).truncate(prec)
    if out.scale != 1:
        raise FractionalExponentError("fractional exponent did not cancel")
    return out
