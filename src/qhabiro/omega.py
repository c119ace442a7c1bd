"""The ring of inverted Habiro series: structure constants gamma, the
product formula, x-expansions of the basis elements sigma_n, and instance
verification of the multiplication identity.

Elements are finite Z[q^{+-1}]-combinations of symbols sigma_n with
n <= 0.  The sigma_0 component is kept separate from the negative-index
coefficients because the knot-facing machinery (transforms, residues)
consumes only the latter.

The multiplication identity makes the x = 0 expansion
E(el) = sigma0 + x/(1-x) F(x), F = sum_i f_i x^i with f = f_from_a(el.a),
a ring map, unit-triangular in the sigma basis; omega_mul computes
E^{-1}(E(a) E(b)) through the transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, lcm
from typing import Optional

from .series import ExpLike, QSeries, series_dot
from .qcomb import CACHE_SIZE, curly_poch, qbinom
from .transform import (CoeffSeq, LbcError, LbcReport, a_from_f, f_from_a,
                        lbc_check, lbc_margin)


@lru_cache(maxsize=CACHE_SIZE)
def gamma(m: int, n: int, i: int) -> QSeries:
    """Structure constant gamma^i_{m,n} = {m}_i {n}_i [m+n+1 choose i]."""
    if i < 0:
        raise ValueError("i must be nonnegative")
    if i == 0:
        return QSeries.one()
    return curly_poch(m, i) * curly_poch(n, i) * qbinom(m + n + 1, i)


@dataclass(frozen=True)
class OmegaElement:
    """sigma0 * sigma_0 + sum_{k>=0} a[k] * sigma_{-k-1}.

    ``lbc`` certifies the lower bound condition for the negative-index
    part; products demand it unless forced.
    """

    a: CoeffSeq
    sigma0: QSeries = QSeries.zero()
    lbc: Optional[LbcReport] = None

    def __post_init__(self):
        if self.a.side != "P":
            raise ValueError("OmegaElement coefficients must be P-side")


def omega_unit() -> OmegaElement:
    """The multiplicative unit 1 * sigma_0."""
    zero = CoeffSeq("P", lambda k: QSeries.zero())
    return OmegaElement(zero, QSeries.one(), LbcReport(0, Fraction(0)))


def omega_from_a(a: CoeffSeq, K: int) -> OmegaElement:
    """Wrap a P-side sequence (a knot's coefficients) with its LBC audit."""
    return OmegaElement(a, QSeries.zero(), lbc_check(a, K))


def _gamma_valuation2(m: int, n: int, i: int) -> Optional[int]:
    """Twice the valuation of gamma^i_{m,n} for m, n <= 0, None where it
    vanishes: {m}_i gives im - i(i-1)/2, [m+n+1 choose i] i(m+n+2)."""
    if i and not (m and n):
        return None
    return i * (2 * (m + n) + 3 - i)


def omega_mul(
    a: OmegaElement,
    b: OmegaElement,
    L: int,
    prec: Optional[ExpLike] = None,
    force: bool = False,
) -> OmegaElement:
    """Product in the sigma basis, coefficients computed for indices
    -L <= l <= 0:

        c_l = sum_{m+n >= l, m,n <= 0} gamma^{m+n-l}_{m,n} a_m b_n.

    Inputs must carry an LBC certificate unless ``force`` is set.
    ``prec`` may be a single precision for every coefficient or a
    callable mapping the coefficient index k (for sigma_{-k-1}) to a
    precision p_l, l = -k-1; consumers that weight a_{-k-1} by
    q^{binom(k+1,2)}-scale prefactors can pass a decaying profile.

    Values come from the ring map E (module docstring): E(c) = E(a) E(b)
    reads f^c_i = s_a f^b_i + s_b f^a_i + sum_{j<i} sum_{i1+i2=j}
    f^a_{i1} f^b_{i2} (s the sigma0 parts), run through both transforms
    on the inputs' known terms as exact polynomials.  The exact c_l is
    then cut where the sum above certifies it: at min(p_l, prec(a_m b_n)
    + v) over the pairs (m, n) whose a_m and b_n have terms, whose gamma
    (valuation v) is nonzero and whose lowest term v + delta(a_m) +
    delta(b_n) lies below p_l; prec(a_m b_n) is as QSeries multiplication
    gives it.  With no such pair c_l is exact zero; a coefficient that is
    zero only to its precision has no terms.
    """
    if not force and (a.lbc is None or b.lbc is None):
        raise LbcError("LBC required")

    def known(s: QSeries) -> QSeries:
        return QSeries(s.coeffs, s.offset, s.scale)

    fa, fb = (f_from_a(CoeffSeq("P", lambda k, el=el: known(el.a[k]), L - 1))
              for el in (a, b))
    sa, sb = known(a.sigma0), known(b.sigma0)
    conv = [QSeries.zero()]  # conv[i]: the double sum over j < i

    def f_product(i: int) -> QSeries:
        while len(conv) <= i:
            j = len(conv) - 1
            conv.append(conv[j] + series_dot((fa[t], fb[j - t])
                                             for t in range(j + 1)))
        return sa * fb[i] + sb * fa[i] + conv[i]

    exact = a_from_f(CoeffSeq("F", f_product, L - 1))

    # the precision scan runs on integers, in units of 1/unit
    rows = [[el.sigma0] + el.a.prefix(L - 1) for el in (a, b)]
    unit = 2 * lcm(*(s.scale for row in rows for s in row))

    def units(s: QSeries):
        """(delta, prec) of s in units of 1/unit, None if s has no terms."""
        if not s.is_zero:
            u = unit // s.scale
            return s.offset * u, None if s.prec is None else s.prec * u

    ta, tb = ([units(s) for s in row] for row in rows)

    def gen(kk: int) -> QSeries:
        l = -kk - 1
        p_k = prec(kk) if callable(prec) else prec
        P = cap = None if p_k is None else ceil(Fraction(p_k) * unit)
        hit = False
        for m in range(l, 1):
            am = ta[-m]
            if am is None:
                continue
            for n in range(l - m, 1):
                bn, v = tb[-n], _gamma_valuation2(m, n, m + n - l)
                if bn is None or v is None:
                    continue
                v *= unit // 2
                if cap is not None and v + am[0] + bn[0] >= cap:
                    continue
                hit = True
                for p, d in ((am[1], bn[0]), (bn[1], am[0])):
                    if p is not None and (P is None or p + d + v < P):
                        P = p + d + v
        if not hit:
            return QSeries.zero()
        out = exact[kk] if P is None else exact[kk].truncate(Fraction(P, unit))
        return out if p_k is None else out.truncate(p_k)

    # computed here, so that the exact intermediates die with this call
    c = CoeffSeq("P", [gen(kk) for kk in range(L)].__getitem__, L - 1)
    s0 = a.sigma0 * b.sigma0
    if prec is not None:
        s0 = s0.truncate(prec(0) if callable(prec) else prec)
    return OmegaElement(c, s0, lbc_check(c, L - 1))


def omega_mirror(el: OmegaElement, K: Optional[int] = None) -> OmegaElement:
    """Coefficientwise q -> q^{-1}; coefficients must be exact."""
    seq = CoeffSeq("P", lambda k: el.a[k].mirror(), el.a.max_index)
    report = None
    if K is not None:
        report = lbc_check(seq, K)
    return OmegaElement(seq, el.sigma0.mirror(), report)


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


def x_expansion(el: OmegaElement, x_order: int, prec: Optional[ExpLike] = None) -> list:
    """Coefficients of x^0..x^{x_order} of sum_m (coeff of sigma_m) * sigma_m^0."""
    out = [QSeries.zero()] * (x_order + 1)
    out[0] = el.sigma0
    for k in range(x_order):
        ak = el.a[k]
        if ak.is_zero:
            continue
        for u, c in sigma0_x_expansion(-k - 1, x_order).items():
            out[u] = out[u] + ak * c
    if prec is not None:
        out = [c.truncate(prec) for c in out]
    return out


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
