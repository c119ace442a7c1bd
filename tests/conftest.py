import ast
import math
import os
import random
from fractions import Fraction
from math import lcm
from typing import Optional

import pytest

import qhabiro
from qhabiro import (
    CoeffSeq,
    ExactnessError,
    KnotSpec,
    LbcError,
    OmegaElement,
    QSeries,
    RemainderError,
    gamma,
    get_knot,
    lbc_margin,
    omega_mul,
    poch,
    qbinom,
    qfact,
    qint,
    series_invert_unit,
)
from qhabiro.series import ExpLike, _add_scaled

PACKAGE = os.path.dirname(os.path.abspath(qhabiro.__file__))


def package_trees():
    """(file name, ast) of every module of src/qhabiro."""
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def inv_qpoch_inf(prec):
    """1/(q)_inf to O(q^prec), by inverting the product."""
    return series_invert_unit(poch(1, math.inf, prec), prec)


def seq_from_list(side, items):
    """CoeffSeq over a finite list of QSeries (zero beyond the list)."""
    data = list(items)

    def gen(k):
        return data[k] if k < len(data) else QSeries.zero()

    return CoeffSeq(side, gen)


def fresh_knot(name: str) -> KnotSpec:
    """An unregistered copy of a registered knot, built from the generators
    it was given (a side it was not given is a new transform): its
    coefficient memos, residue store and LBC constant start empty, whatever
    earlier tests computed on the registered knot."""
    ref = get_knot(name)
    gens = [getattr(ref, side)._gen if side in ref.given else None
            for side in "af"]
    return KnotSpec(name, *gens, max_index=ref.a.max_index)


def random_laurent(rng: random.Random, span: int = 4, lo: int = -6,
                   hi: int = 6, density: float = 0.6) -> QSeries:
    terms = {}
    for _ in range(span):
        if rng.random() < density:
            terms[rng.randint(lo, hi)] = rng.randint(-5, 5)
    return QSeries.from_terms(terms)


def series_from_str_coeffs(pairs) -> QSeries:
    """Build an exact series from {exponent: coefficient} pairs."""
    return QSeries.from_terms({Fraction(e): c for e, c in pairs.items()})


def residue_plus_q_at(residue_series, bad_j: int):
    """residue_series with q added to r_{bad_j}: a wrong residue for the
    checks built on residues to catch."""
    def broken(a, j, prec, C):
        r = residue_series(a, j, prec, C)
        return r + QSeries.monomial(1) if j == bad_j else r

    return broken


def exact_div(a: QSeries, b: QSeries) -> QSeries:
    """Exact Laurent-polynomial division a/b by long division; raises
    RemainderError on a nonzero remainder."""
    if not (a.is_exact and b.is_exact):
        raise ExactnessError("exact_div requires exact inputs")
    if b.is_zero:
        raise ZeroDivisionError("division by zero series")
    if a.is_zero:
        return QSeries()
    s = lcm(a.scale, b.scale)
    ao, rem, _ = a._rescaled(s)
    rem = list(rem)  # a copy: the remainder is worked in place
    bo, bc, _ = b._rescaled(s)
    lead = bc[0]
    n = len(rem) - len(bc) + 1
    if n < 1:
        raise RemainderError("division leaves a remainder")
    quo = [0] * n
    for i in range(n):
        c = rem[i]
        if c == 0:
            continue
        if c % lead:
            raise RemainderError("division leaves a remainder")
        quo[i] = c // lead
        _add_scaled(rem, 0, len(rem), 1, [(i, quo[i])], 0, bc, len(bc), -1)
    if any(rem):
        raise RemainderError("division leaves a remainder")
    return QSeries(quo, ao - bo, s)


# Closed forms of coefficients that the library computes by the transform
# cascade, kept as oracles for it.


def f_41_closed(n: int) -> QSeries:
    """Figure-eight (a_{-k-1} = 1): f_n = sum_i [n+i choose 2i]."""
    return sum((qbinom(n + i, 2 * i) for i in range(n + 1)), QSeries.zero())


def a_unknot_closed(k: int) -> QSeries:
    """Unknot (f_k = delta_{k,0}): a_{-k-1} = (-1)^k [2k choose k]/[k+1],
    the balanced q-Catalan number."""
    return (-1) ** k * exact_div(qbinom(2 * k, k), qint(k + 1))


def a_from_f_closed(f, k: int) -> QSeries:
    """The explicit inverse of f_i = sum_k [k+i choose 2k] a_{-k-1}:
    a_{-k-1} = sum_i (-1)^{k+i} [2k choose k-i] [2i+1]/[k+i+1] f_i,
    over the common denominator [k+1][k+2]...[2k+1] and one exact
    division (exact inputs only)."""
    den = exact_div(qfact(2 * k + 1), qfact(k))
    num = QSeries.zero()
    for i in range(k + 1):
        term = (qbinom(2 * k, k - i) * qint(2 * i + 1)
                * exact_div(den, qint(k + i + 1)) * f[i])
        num = num + (term if (k + i) % 2 == 0 else -term)
    return exact_div(num, den)


# Oracles for omega_mul: the multiplication formula on x-expansions at
# x = 0, and the product's LBC bound.


def sigma0_partial_sums(k: int, x_order: int) -> list:
    """Entry m is the x^{k+1+m}-coefficient of the expansion of
    sigma_{-k-1} at x = 0, i.e. sum_{j<=m} [2k+j choose j]."""
    out = []
    acc = QSeries.zero()
    for j in range(x_order + 1):
        acc = acc + qbinom(2 * k + j, j)
        out.append(acc)
    return out


def sigma0_x_expansion(t: int, x_order: int) -> dict:
    """x-expansion of sigma_t at x = 0 as a map u -> coefficient of x^u,
    covering all u <= x_order.  For t >= 0 this is the full Laurent
    polynomial prod_{i=1..t} (x + x^{-1} - q^i - q^{-i})."""
    if t >= 0:
        poly = {0: QSeries.one()}
        for i in range(1, t + 1):
            factor = {
                1: QSeries.one(),
                -1: QSeries.one(),
                0: -(QSeries.monomial(i) + QSeries.monomial(-i)),
            }
            new = {}
            for u, cu in poly.items():
                for v, cv in factor.items():
                    w = u + v
                    new[w] = new.get(w, QSeries.zero()) + cu * cv
            poly = new
        return {u: c for u, c in poly.items() if u <= x_order}
    k = -t - 1
    if x_order < k + 1:
        return {}
    sums = sigma0_partial_sums(k, x_order - k - 1)
    return {k + 1 + m: s for m, s in enumerate(sums)}


def verify_sigma_product(m: int, n: int, x_order: int, prec: ExpLike) -> bool:
    """Instance check of sigma_m^0 sigma_n^0 = sum_i gamma^i_{m,n}
    sigma^0_{m+n-i}, comparing x-coefficients up to x^{x_order}, each
    truncated at O(q^prec)."""
    # each factor needs extra window to cover the other's negative x-powers
    left_m = sigma0_x_expansion(m, x_order + max(0, n))
    left_n = sigma0_x_expansion(n, x_order + max(0, m))
    lo_m = min(left_m) if left_m else 0
    lo_n = min(left_n) if left_n else 0
    lhs = {}
    for u, cu in left_m.items():
        for v, cv in left_n.items():
            w = u + v
            if w > x_order:
                continue
            lhs[w] = lhs.get(w, QSeries.zero()) + cu * cv
    complete_from = lo_m + lo_n

    rhs = {}
    i_max = max(0, m + n + x_order)
    for i in range(i_max + 1):
        g = gamma(m, n, i)
        if g.is_zero:
            continue
        for u, c in sigma0_x_expansion(m + n - i, x_order).items():
            rhs[u] = rhs.get(u, QSeries.zero()) + g * c

    for u in range(complete_from, x_order + 1):
        l = lhs.get(u, QSeries.zero()).truncate(prec)
        r = rhs.get(u, QSeries.zero()).truncate(prec)
        if l != r:
            return False
    return True


def lbc_product_bound(
    a: OmegaElement,
    b: OmegaElement,
    L: int,
    product: Optional[OmegaElement] = None,
    prec: Optional[ExpLike] = None,
) -> bool:
    """True iff every computed product coefficient c_l obeys
    delta(c_l) >= -l(l+3)/2 + C_a + C_b (the bound the product theorem
    proves, stated in q-units)."""
    if a.lbc is None or b.lbc is None:
        raise LbcError("LBC required")
    if product is None:
        product = omega_mul(a, b, L, prec)
    C = a.lbc.constant + b.lbc.constant
    if not product.sigma0.is_zero and product.sigma0.delta_lb() < C:
        return False
    for k in range(L):
        c = product.a[k]
        if c.is_zero:
            continue
        if c.delta_lb() < lbc_margin(k) + C:
            return False
    return True


@pytest.fixture
def rng():
    return random.Random(20240817)
