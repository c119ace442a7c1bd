"""The ring of inverted Habiro series: structure constants gamma and the
product formula.

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

from collections import namedtuple
from functools import lru_cache
from math import inf as INF, lcm
from typing import Optional

from .series import ExpLike, QSeries, _as_ratio, _dot
from .qcomb import CACHE_SIZE, curly_poch, qbinom
from .transform import (CoeffSeq, LbcError, LbcReport, a_from_f, f_from_a,
                        lbc_check)


@lru_cache(maxsize=CACHE_SIZE)
def gamma(m: int, n: int, i: int) -> QSeries:
    """Structure constant gamma^i_{m,n} = {m}_i {n}_i [m+n+1 choose i]."""
    if i < 0:
        raise ValueError("i must be nonnegative")
    if i == 0:
        return QSeries.one()
    return curly_poch(m, i) * curly_poch(n, i) * qbinom(m + n + 1, i)


class OmegaElement(namedtuple("OmegaElement", "a sigma0 lbc")):
    """sigma0 * sigma_0 + sum_{k>=0} a[k] * sigma_{-k-1}, for a P-side
    CoeffSeq ``a`` and a QSeries ``sigma0`` (default the exact zero);
    ``lbc``, an LbcReport or None (the default), certifies the lower bound
    condition for the negative-index part, and products demand it."""
    __slots__ = ()

    def __new__(cls, a: CoeffSeq, sigma0: QSeries = QSeries.zero(),
                lbc: Optional[LbcReport] = None):
        if a.side != "P":
            raise ValueError("OmegaElement coefficients must be P-side")
        return super().__new__(cls, a, sigma0, lbc)


def omega_from_a(a: CoeffSeq, K: int) -> OmegaElement:
    """Wrap a P-side sequence (a knot's coefficients) with its LBC audit."""
    return OmegaElement(a, QSeries.zero(), lbc_check(a, K))


def _cut_plan(ta: list, tb: list, prec, unit: int) -> list:
    """omega_mul's cuts, (P, p_k) or None where c_l is exact zero, for
    l = -k-1, k < L; P is inf where c_l is exact.  ta[j], tb[j] are a's
    and b's coefficients of sigma_{-j}, j <= L, as (delta, prec) in units
    of 1/unit (prec inf where exact), None where they have no terms.

    For m, n < 0, gamma^i_{m,n} has valuation i(2s + 3 - i)/2, s = m + n,
    which is W(-s) - W(-l) at l = s - i, W(S) = binom(S-1, 2).  So one
    pass over the pairs gives D[S] and E[S], the least delta(a_m) +
    delta(b_n) and prec(a_m) + delta(b_n) or prec(b_n) + delta(a_m) over
    m + n = -S, and c_l reads the running minima of W(S) + D[S] and W(S)
    + E[S] over S <= -l, less W(-l), and its sigma0 pairs (0, l) and
    (l, 0), gamma = 1: it is a hit where a D lies below p_l, and P is the
    least of p_l and the E's.  A pair that is no hit has prec + delta + v
    >= p_l too, as prec >= delta, so the E's need no hit filter."""
    L = len(ta) - 1
    D, E = [INF] * (L + 1), [INF] * (L + 1)
    for j, x in enumerate(ta[1:L], 1):
        if x:
            da, pa = x
            for S, y in enumerate(tb[1:L + 1 - j], j + 1):
                if y:
                    db, pb = y
                    if da + db < D[S]:
                        D[S] = da + db
                    if pa + db < E[S] or pb + da < E[S]:
                        E[S] = min(pa + db, pb + da)
    cuts, d, e = [], INF, INF
    for kk in range(L):
        p_k = prec(kk) if callable(prec) else prec
        cap = INF
        if p_k is not None:
            num, den = _as_ratio(p_k)
            cap = -(-num * unit // den)
        w = unit * (kk * (kk - 1) // 2)  # W(-l) = W(kk + 1)
        d, e = min(d, D[kk + 1] + w), min(e, E[kk + 1] + w)
        hit, P = d - w < cap, min(cap, e - w)
        for x, y in ((ta[0], tb[kk + 1]), (tb[0], ta[kk + 1])):
            if x and y:
                hit = hit or x[0] + y[0] < cap
                P = min(P, x[1] + y[0], y[1] + x[0])
        cuts.append((P, p_k) if hit else None)
    return cuts


def omega_mul(
    a: OmegaElement,
    b: OmegaElement,
    L: int,
    prec: Optional[ExpLike] = None,
) -> OmegaElement:
    """Product in the sigma basis, coefficients computed for indices
    -L <= l <= 0:

        c_l = sum_{m+n >= l, m,n <= 0} gamma^{m+n-l}_{m,n} a_m b_n.

    Inputs must carry an LBC certificate.
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

    Those cuts P_k are known before any row is computed (_cut_plan, one
    O(L^2) pass over the pairs), so every stage computes only below what
    they need, each transform's precision rule inverted (see
    transform._Cascade): f^c_i is needed below pi_i = max_{read k>=i} P_k
    + binom(k,2), minus binom(i,2); f^a_t below pi_t - delta(s_b) and
    below pi_{j+1} - lb(f^b_{j-t}) for j >= t, the dot j being cut at
    pi_{j+1}, where lb(f_n) = min_k delta(b_k) - k(n-k) is the valuation
    the partner's own terms allow; and the known a_k is fed in truncated
    at max_{t>=k} of f^a_t's need + k(t-k).  The
    cascades then cut their states, the dots multiply only below their
    precision (series._dot), and c_l comes out exactly as the exact
    computation cut at P_k.  All of it runs on integers in units of
    1/unit.
    """
    if a.lbc is None or b.lbc is None:
        raise LbcError("LBC required")

    def known(s: QSeries) -> QSeries:
        return QSeries(s.coeffs, s.offset, s.scale)

    # the precision scan runs on integers, in units of 1/unit
    rows = [[el.sigma0] + el.a.prefix(L - 1) for el in (a, b)]
    unit = 2 * lcm(*(s.scale for row in rows for s in row))

    def units(s: QSeries):
        """(delta, prec) of s in units of 1/unit, prec inf where exact; None
        if s has no terms."""
        # unlike QSeries.low, a truncated zero is absent, else products change
        if not s.is_zero:
            u = unit // s.scale
            return s.offset * u, INF if s.prec is None else s.prec * u

    ta, tb = ([units(s) for s in row] for row in rows)
    cuts = _cut_plan(ta, tb, prec, unit)
    hits = [kk for kk, ct in enumerate(cuts) if ct]
    top = hits[-1] if hits else -1
    # what each stage needs (docstring), in units of 1/unit, inf when
    # exact; pi falls with i, so conv[i], which sums the dots j < i, is
    # known below pi_i when dot j is cut at pi_{j+1}
    pi = [0] * (top + 1)
    most = -INF
    for i in range(top, -1, -1):
        b2 = unit * (i * (i - 1) // 2)
        if cuts[i]:
            most = max(most, cuts[i][0] + b2)
        pi[i] = most - b2

    def over(p, d):  # what a factor of valuation d needs for p; -inf: none
        return -INF if d == INF else p - d

    def levels(t_other: list) -> list:
        """The precision each known input a_k needs, so that its f-side
        row t is known where s_other f_t and the dots read it.  The
        partner's f_n has valuation at least lb_n = min_k delta(b_k) -
        k(n-k), from the partner's own terms t_other; f_from_a's row t is
        known below min_k prec(a_k) - k(t-k)."""
        lb = [min([d[0] - unit * k * (n - k)
                   for k, d in enumerate(t_other[1:n + 2]) if d],
                  default=INF) for n in range(top + 1)]
        ds = INF if t_other[0] is None else t_other[0][0]
        need = [max([over(pi[t], ds)] + [over(pi[j + 1], lb[j - t])
                                         for j in range(t, top)])
                for t in range(top + 1)]
        return [max([need[t] + unit * k * (t - k) for t in range(k, top + 1)])
                for k in range(top + 1)]

    def feed(el: OmegaElement, lv: list) -> CoeffSeq:
        def gen(k: int) -> QSeries:
            s = known(el.a[k])
            if not s.coeffs or abs(lv[k]) == INF:  # exact, or read nowhere
                return s
            f = unit // s.scale  # the level, rounded up onto s's own grid
            return s._truncate(-(-lv[k] // f), s.scale)
        return f_from_a(CoeffSeq("P", gen, top))

    fa, fb = feed(a, levels(tb)), feed(b, levels(ta))
    sa, sb = known(a.sigma0), known(b.sigma0)
    conv = [QSeries.zero()]  # conv[i]: the double sum over j < i

    def f_product(i: int) -> QSeries:
        fa[i], fb[i]  # each cascade's rows up to i in one batch
        while len(conv) <= i:
            j = len(conv) - 1
            n = pi[j + 1]
            conv.append(conv[j] + _dot([(fa[t], fb[j - t])
                                        for t in range(j + 1)],
                                       None if n == INF else n, unit))
        return sa * fb[i] + sb * fa[i] + conv[i]

    prod = a_from_f(CoeffSeq("F", f_product, top))

    def gen(kk: int, ct) -> QSeries:
        if ct is None:
            return QSeries.zero()
        P, p_k = ct
        out = prod[kk] if P == INF else prod[kk]._truncate(P, unit)
        return out if p_k is None else out.truncate(p_k)

    if hits:
        prod[top]  # every row that gen reads, in one batch
    # computed here, so that the intermediates die with this call
    c = CoeffSeq("P", list(map(gen, range(L), cuts)).__getitem__, L - 1)
    s0 = a.sigma0 * b.sigma0
    if prec is not None:
        s0 = s0.truncate(prec(0) if callable(prec) else prec)
    return OmegaElement(c, s0, lbc_check(c, L - 1))
