"""Numerical asymptotics of the series coefficients f_n at roots of unity.

Covers: f_n at q = e^{2*pi*i/N}, evaluated from the side the knot was
given on, whatever its name (``f_at_root``); the periodicity of
f_{n-1}(zeta_n); volume growth of f_n(zeta_{2n}) with Richardson
acceleration; extraction of the perturbative series Phi^F; and the
exact-rational quotient check Phi^J / sqrt(Phi^F).

Index conventions: the periodicity sequence is f_{n-1}(zeta_n) (the
coefficient one below the order of the root, as in the colored Jones
"dimension n" labelling); for the figure-eight knot it has period 5 with
values {1, 1, 2, 2, (3 - sqrt 5)/2}.  The growth rate and Phi^F use
f_n(zeta_{2n}).

Conventions: the perturbative series are written as
Phi(h) = prefactor * sum_k c_k u^k / k! with u = h / (72*sqrt(-3)); for
h = 2*pi*i/n this makes u = pi/(36*sqrt(3)*n) real and positive, so all
coefficient arithmetic stays in Q with the radicals isolated in the
prefactor tag.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import List, Sequence, Tuple

import mpmath as mp

from .knots import get_knot
from .series import PrecisionError, QAlgebraError, QSeries

DEFAULT_BITS = 256


class AsymptoticsError(QAlgebraError):
    pass


class ExtrapolationError(AsymptoticsError):
    pass


class IntegralityError(AsymptoticsError):
    pass


# ---------------------------------------------------------------------------
# Exact coefficient polynomials and evaluation at roots of unity
# ---------------------------------------------------------------------------


def f_poly_exact(knot, n: int) -> QSeries:
    """Exact integer Laurent polynomial f_n of the knot."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    poly = get_knot(knot).f_coeff(n)
    if not poly.is_exact:
        raise AsymptoticsError("coefficient f_%d is not exact" % n)
    return poly


def _coeff_magnitude_bits(poly: QSeries) -> int:
    total = sum(abs(c) for c in poly.coeffs)
    return total.bit_length() if total else 1


def eval_root_of_unity(poly: QSeries, N: int, bits: int) -> "mp.mpc":
    """Evaluate an exact Laurent polynomial at q = e^{2*pi*i/N} by Horner.

    Exponents on the half-integer grid use the principal branch
    e^{2*pi*i*exponent/N}.  Raises PrecisionError when ``bits`` cannot
    cover the coefficient magnitude with a 64-bit guard.
    """
    if N <= 0:
        raise ValueError("N must be positive")
    if not poly.is_exact:
        raise AsymptoticsError("polynomial must be exact")
    needed = 64 + _coeff_magnitude_bits(poly)
    if bits < needed:
        raise PrecisionError(
            "need at least %d bits for this polynomial" % needed, needed
        )
    if poly.is_zero:
        return mp.mpc(0)
    with mp.workprec(bits):
        # exponent of coeffs[i] is (offset + i)/scale
        w = mp.expjpi(mp.mpf(2) / (N * poly.scale))
        acc = mp.mpc(0)
        for c in reversed(poly.coeffs):
            acc = acc * w + c
        phase = mp.expjpi(mp.mpf(2 * poly.offset) / (N * poly.scale))
        return acc * phase


# ---------------------------------------------------------------------------
# Evaluation of f_n at roots of unity, from the side the knot was given on
# ---------------------------------------------------------------------------


class _RootData:
    """Powers of zeta_N and prefix products prod_{j<=m}(1 - zeta^j), m < N."""

    def __init__(self, N: int, bits: int):
        self.N = N
        with mp.workprec(bits):
            w = mp.expjpi(mp.mpf(2) / N)
            self.powers = powers = [mp.mpc(1)]
            for _ in range(N - 1):
                powers.append(powers[-1] * w)
            self.prefix = prefix = [mp.mpc(1)]
            for m in range(1, N):
                prefix.append(prefix[-1] * (1 - powers[m]))

    def gauss_binom(self, a: int, b: int):
        """Unbalanced Gaussian binomial C[a, b] at zeta_N via q-Lucas, for
        0 <= b <= a (so the binomial of a // N over b // N is nonzero)."""
        N = self.N
        r, s = a % N, b % N
        if s > r:
            return mp.mpc(0)
        return (math.comb(a // N, b // N) * self.prefix[r]
                / (self.prefix[s] * self.prefix[r - s]))


def f_at_root(knot, n: int, N: int, bits: int = DEFAULT_BITS) -> "mp.mpc":
    """f_n of the knot at q = zeta_N, from the side the knot was given on:
    the exact f_n, or else sum_i [n+i choose 2i] a_{-i-1}, each balanced
    binomial by q-Lucas ([m choose k] = q^{-k(m-k)/2} C[m, k], k(m-k)/2 =
    i(n-i)) on a table of N powers, into which a_{-i-1} = +-q^e folds.
    The sum raises PrecisionError when ``bits`` is below 64 + log2(N sum_i
    |binomial_i| l1(a_{-i-1}) / max(1, |f_n(zeta_N)|)), the bits that its
    cancellation costs for an error below 2^-64 max(1, |f_n(zeta_N)|)."""
    if n < 0 or N <= 0:
        raise ValueError("need n >= 0 and N > 0, got n = %d, N = %d" % (n, N))
    K = get_knot(knot)
    if "f" in K.given:
        poly = f_poly_exact(K, n)
        return eval_root_of_unity(poly, N,
                                  max(bits, 64 + _coeff_magnitude_bits(poly)))
    root = _RootData(N, bits)
    with mp.workprec(bits):
        total, size = mp.mpc(0), mp.mpf(0)
        for i in range(n + 1):
            a = K.a[i]
            if not a.is_exact:
                raise AsymptoticsError("coefficient a_{-%d} is not exact" % (i + 1))
            c = root.gauss_binom(n + i, 2 * i)
            if c == 0:
                continue
            e = -i * (n - i)
            if a.scale == 1 and a.coeffs in ((1,), (-1,)):  # +-q^e folds
                term = c * root.powers[(e + a.offset) % N]
                total += term if a.coeffs[0] > 0 else -term
                size += abs(c)
            else:
                total += c * root.powers[e % N] * eval_root_of_unity(a, N, bits)
                size += abs(c) * sum(map(abs, a.coeffs))
        if size:
            needed = 64 + int(mp.ceil(mp.log(N * size / max(1, abs(total)), 2)))
            if bits < needed:
                raise PrecisionError("need at least %d bits for f_%d(zeta_%d)"
                                     % (needed, n, N), needed)
        return total


# ---------------------------------------------------------------------------
# Periodicity of f_{n-1}(zeta_n)
# ---------------------------------------------------------------------------


class PeriodicityReport(namedtuple("PeriodicityReport",
                                   "period phase values message",
                                   defaults=("",))):
    """periodicity_check's result: ``period`` and ``phase`` (ints, None when
    aperiodic on the window; the phase is the first index where the period
    locks in), ``values`` (a tuple of floats: one period, as a sorted
    multiset) and ``message`` (a str, default "")."""
    __slots__ = ()


# bound on |Im f_{n-1}(zeta_n)| and on the gap between repeated values
PERIOD_TOL = 1e-9


def periodicity_check(knot, n_max: int,
                      bits: int = DEFAULT_BITS) -> PeriodicityReport:
    """Detect the minimal period of the real sequence f_{n-1}(zeta_n),
    n = 1..n_max (f_n(zeta_n) is a different sequence; see the module
    docstring): the smallest period d, and for it the smallest phase
    s <= n_max // 2, such that the values from n = s on repeat with period
    d for at least two periods."""
    K = get_knot(knot)
    vals: List[float] = []
    for n in range(1, n_max + 1):
        v = f_at_root(K, n - 1, n, bits)
        if abs(mp.im(v)) > PERIOD_TOL:
            raise AsymptoticsError(
                "f_%d(zeta_%d) has imaginary part %s beyond tolerance"
                % (n - 1, n, mp.nstr(mp.im(v)))
            )
        vals.append(float(mp.re(v)))
    for d in range(1, n_max // 2 + 1):
        # the phase is one past the last n where the period breaks
        s = 1 + max((i + 1 for i in range(n_max - d)
                     if abs(vals[i + d] - vals[i]) > PERIOD_TOL), default=0)
        if s <= min(n_max // 2, n_max + 1 - 2 * d):
            return PeriodicityReport(d, s, tuple(sorted(vals[s - 1:s - 1 + d])))
    return PeriodicityReport(None, None, (), "aperiodic on window")


# ---------------------------------------------------------------------------
# Richardson extrapolation and volume growth
# ---------------------------------------------------------------------------


def richardson(seq: Sequence[Tuple[int, float]], order: int):
    """Order-step Richardson extrapolation of a sequence with an expansion
    in 1/n.  ``seq`` is a list of (n, value) pairs with distinct n; returns
    the corner of the Neville table (polynomial extrapolation in h = 1/n
    to h = 0)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if any(n < 1 for n, _ in seq):
        raise ValueError("the sizes n must be positive")
    ns = sorted(n for n, _ in seq)
    for n, m in zip(ns, ns[1:]):
        if n == m:
            raise ExtrapolationError("n = %d appears twice" % n)
    if len(seq) < order + 1:
        raise ExtrapolationError("need at least order+1 points")
    pts = sorted(seq, key=lambda t: t[0])[-(order + 1):]
    hs = [mp.mpf(1) / n for n, _ in pts]
    tab = [mp.mpf(v) if not isinstance(v, mp.mpc) else v for _, v in pts]
    for m in range(1, order + 1):
        tab = [
            (hs[i] * tab[i + 1] - hs[i + m] * tab[i]) / (hs[i] - hs[i + m])
            for i in range(len(tab) - 1)
        ]
    return tab[0]


def vol_41(bits: int = DEFAULT_BITS):
    """Hyperbolic volume of the figure-eight complement,
    2 * Im Li_2(e^{i*pi/3})."""
    with mp.workprec(bits):
        return 2 * mp.im(mp.polylog(2, mp.expjpi(mp.mpf(1) / 3)))


class GrowthResult(namedtuple("GrowthResult", "estimate order flagged raw",
                               defaults=((),))):
    """growth_rate's result: a float ``estimate``, its Richardson ``order``
    (an int), ``flagged`` (True when the residuals were non-monotone) and
    ``raw``, the (n, float) pairs extrapolated (default ())."""
    __slots__ = ()


# Richardson order of the growth estimate, lowered when fewer points are given
GROWTH_ORDER = 4


def growth_rate(knot, n_list: Sequence[int],
                bits: int = DEFAULT_BITS) -> GrowthResult:
    """Richardson-accelerated limit of (pi/n) log|f_n(zeta_{2n})|."""
    K = get_knot(knot)
    n_list = sorted(set(n_list))
    if not n_list:
        raise ValueError("n_list must be nonempty")
    seq = []
    with mp.workprec(bits):
        for n in n_list:
            v = f_at_root(K, n, 2 * n, bits)
            m = abs(v)
            g = mp.pi / n * mp.log(m) if m != 0 else mp.mpf(0)
            seq.append((n, g))
    order = min(GROWTH_ORDER, len(seq) - 1)
    # instability flag: successive-order corners should settle monotonically
    corners = [richardson(seq, o) for o in range(order + 1)]
    resid = [abs(corners[i + 1] - corners[i]) for i in range(len(corners) - 1)]
    flagged = any(resid[i + 1] > resid[i] * 10 for i in range(len(resid) - 1))
    return GrowthResult(float(corners[-1]), order, flagged,
                        tuple((n, float(g)) for n, g in seq))


# ---------------------------------------------------------------------------
# Perturbative series: exact data, formal operations, extraction
# ---------------------------------------------------------------------------


class PerturbSeries(namedtuple("PerturbSeries", "coeffs prefactor exact",
                                defaults=("1", True))):
    """Phi(h) = prefactor * sum_k c_k u^k / k!, u = h/(72*sqrt(-3)): the
    tuple ``coeffs`` of c_0, c_1, ... (Fractions when exact), the str
    ``prefactor`` (default "1") and the bool ``exact`` (default True)."""
    __slots__ = ()

    @property
    def depth(self) -> int:
        return len(self.coeffs) - 1

    def a_coeffs(self) -> tuple:
        """Plain power-series coefficients a_k = c_k / k!."""
        return tuple(Fraction(c) / math.factorial(k)
                     for k, c in enumerate(self.coeffs))


PHI_J = PerturbSeries(
    (Fraction(1), Fraction(11), Fraction(697), Fraction(724351, 5)),
    prefactor="3^(-1/4)",
)

PHI_F = PerturbSeries(
    (
        Fraction(1),
        Fraction(4),
        Fraction(304),
        Fraction(290912, 5),
        Fraction(107155712, 5),
        Fraction(91298182144, 7),
        Fraction(416634955237376, 35),
        Fraction(76199853915803648, 5),
    ),
    prefactor="3^(-1/2)",
)


def _require_unit(s: PerturbSeries):
    if not s.exact or s.coeffs[0] != 1:
        raise AsymptoticsError("series must be exact with c_0 = 1")


def series_mul(s: PerturbSeries, t: PerturbSeries) -> PerturbSeries:
    """Formal product in the c-convention, to the shorter depth; the
    prefactor is "1"."""
    _require_unit(s)
    _require_unit(t)
    depth = min(s.depth, t.depth)
    sa, ta = s.a_coeffs(), t.a_coeffs()
    out = []
    for k in range(depth + 1):
        out.append(sum(sa[i] * ta[k - i] for i in range(k + 1)))
    coeffs = tuple(a * math.factorial(k) for k, a in enumerate(out))
    return PerturbSeries(coeffs)


def series_sqrt_inv(s: PerturbSeries) -> PerturbSeries:
    """Formal s^{-1/2} in the c-convention (requires c_0 = 1); the
    prefactor is "1"."""
    _require_unit(s)
    sa = s.a_coeffs()
    # t = s^alpha with s_0 = 1 obeys k t_k = sum_{i=1..k} ((alpha+1)i - k)
    # s_i t_{k-i} on plain coefficients; here alpha = -1/2
    ta = [Fraction(1)]
    for k in range(1, s.depth + 1):
        ta.append(sum((i - 2 * k) * sa[i] * ta[k - i]
                      for i in range(1, k + 1)) / (2 * k))
    coeffs = tuple(a * math.factorial(k) for k, a in enumerate(ta))
    return PerturbSeries(coeffs)


def phi_quotient_check(depth: int) -> tuple:
    """Exact c-coefficients of Phi^J / sqrt(Phi^F); all must be integers."""
    if depth > PHI_J.depth:
        raise ValueError("only %d published coefficients" % (PHI_J.depth + 1))
    j = PerturbSeries(PHI_J.coeffs[: depth + 1], PHI_J.prefactor)
    f = PerturbSeries(PHI_F.coeffs[: depth + 1], PHI_F.prefactor)
    quot = series_mul(j, series_sqrt_inv(f))
    out = []
    for c in quot.coeffs:
        if c.denominator != 1:
            raise IntegralityError("non-integer quotient coefficient %s" % c)
        out.append(int(c))
    return tuple(out)


def extract_phi(knot, depth: int, n_max: int,
                bits: int = 512) -> PerturbSeries:
    """Numerical c_0..c_depth of Phi^F from the normalized sequence
    f_n(zeta_{2n}) * e^{-n*vol/pi} * sqrt(3), fitted as a polynomial in
    u = pi/(36*sqrt(3)*n) on the largest available n (Vandermonde solve
    with guard coefficients beyond ``depth``).  vol is the figure-eight
    volume, so any other knot raises AsymptoticsError."""
    K = get_knot(knot)
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    guard = 4
    m = depth + 1 + guard
    if n_max < m + 2:
        raise ValueError("n_max too small for %d nodes" % m)
    if K.name != "4_1":
        raise AsymptoticsError("Phi^F is normalized by the volume of 4_1; "
                               "no extraction for knot %r" % K.name)
    step = max(1, n_max // (4 * m))
    ns = [n_max - i * step for i in range(m)]
    with mp.workprec(bits):
        vol = vol_41(bits)
        sqrt3 = mp.sqrt(3)
        u0 = mp.pi / (36 * sqrt3)
        rows, rhs = [], []
        for n in ns:
            v = f_at_root(K, n, 2 * n, bits)
            s = mp.re(v) * mp.e ** (-n * vol / mp.pi) * sqrt3
            u = u0 / n
            rows.append([u ** k for k in range(m)])
            rhs.append(s)
        sol = mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))
        coeffs = tuple(float(sol[k] * math.factorial(k))
                       for k in range(depth + 1))
    return PerturbSeries(coeffs, prefactor="3^(-1/2)", exact=False)


# ---------------------------------------------------------------------------
# CSV emitter
# ---------------------------------------------------------------------------


def emit_csv(stream, knot, n_max: int, bits: int = DEFAULT_BITS):
    """Write rows ``n, re, im, modulus, normalized`` of f_n(zeta_{2n}), the
    sequence of ``growth_rate``, for external plotting; ``normalized``, the
    real part scaled by e^{-n*vol(4_1)/pi} * sqrt(3), is empty for other knots.
    Each value is chopped at the evaluators' 64-bit guard: a real or
    imaginary part below 2^-64 max(1, |value|) prints as 0, so a row does
    not depend on ``bits``.
    """
    import csv as _csv

    K = get_knot(knot)
    writer = _csv.writer(stream)
    writer.writerow(["n", "re", "im", "modulus", "normalized"])
    with mp.workprec(bits):
        vol = vol_41(bits)
        sqrt3 = mp.sqrt(3)
        for n in range(1, n_max + 1):
            v = mp.chop(f_at_root(K, n, 2 * n, bits), 2 ** -64)
            norm = mp.re(v) * mp.e ** (-n * vol / mp.pi) * sqrt3
            writer.writerow([n, mp.nstr(mp.re(v), 17), mp.nstr(mp.im(v), 17),
                             mp.nstr(abs(v), 17),
                             mp.nstr(norm, 17) if K.name == "4_1" else ""])
