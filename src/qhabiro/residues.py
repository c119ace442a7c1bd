"""Residues of inverted Habiro series: basis-function residue atoms,
residue families of coefficient sequences, the residue theorem defect,
the theta-function route from GM coefficients to residues, and the worked
q-series identities (trefoil recurrences, figure-eight tails, descendants,
nonabelian branches).

All series are truncated at a caller-chosen precision; summation windows
are derived from the LBC constant so reported coefficients are certified.

Inverse q-Pochhammer symbols come from qcomb's in-place kernel, division
by (1 - q^m) as strided prefix sums.  residue_series runs on plain integer
lists: it carries 1/((q)_{k-j}(q)_{k+j}) from term to term with that
kernel and adds each term into one coefficient list by slice-adds
(series._add_scaled, the schoolbook product's kernel, which surgery's
residue and ih routes share too), with the checks of the certified
summation (stop rule, per-term degree bound, result precision) and no
QSeries per term.  Its stop, degree bounds and cut, like _j_window's
test, are integer floor and ceiling divisions on the numerators and
denominators of prec and C: no Fraction.  It computes afresh on every
call: residue_family calls it directly, and the surgery routes share its
results across slopes and spin^c labels through the knot's residue store
(surgery._residue).  The
theta route (residues_from_f) adds each f_k times the monomials of its
theta term into one list too (series._products), known to the least of
prec and prec(f_k) + delta(q^{binom(k+1,2)} theta_k) over the truncated f_k,
and divides by (q)_inf^3 through Jacobi's sparse series for it.
Both routes bound a term's degree below by QSeries.low (a truncated
zero's precision) and skip the exact zero, whose low is None.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from math import lcm
from typing import Union

from .series import (
    INF,
    DegreeBoundError,
    ExpLike,
    QSeries,
    _add_scaled,
    _as_ratio,
    _products,
    series_invert_unit,
    series_sum,
    series_sum_bounded,
)
from .qcomb import _div_one_minus_qm
from .transform import CoeffSeq, LbcError, LbcReport, lbc_check
from .knots import get_knot


def _binom2(n: int) -> Fraction:
    return Fraction(n * (n - 1), 2)


def _inv_poch_list(indices: tuple, n: int) -> list:
    """1/prod_m (q)_m as its first n >= 1 coefficients; each m a
    nonnegative integer or math.inf.  Factors (1 - q^i) with i >= n do not
    matter."""
    c = [1] + [0] * (n - 1)
    for m in indices:
        for i in range(1, n if m == INF else min(m, n - 1) + 1):
            _div_one_minus_qm(c, i)
    return c


def _inv_poch_product(indices: tuple, prec: ExpLike) -> QSeries:
    """1/prod_m (q)_m to O(q^prec)."""
    prec = Fraction(prec)
    if prec <= 0:
        return QSeries.zero(prec)
    n = math.ceil(prec)
    return QSeries(_inv_poch_list(indices, n), 0, 1, n).truncate(prec)


def _inv_poch_pair(u, k: int, j: int, n: int) -> list:
    """1/((q)_{k-j}(q)_{k+j}) as its first n coefficients.  u is the same
    at k - 1, at least n long, and is advanced in place by dividing by
    (1 - q^{k-j})(1 - q^{k+j}); None builds it anew."""
    if u is None:
        return _inv_poch_list((k - j, k + j), n)
    del u[n:]
    _div_one_minus_qm(u, k - j)
    _div_one_minus_qm(u, k + j)
    return u


def _j_window(k: int, n: int, d: int, C) -> int:
    """The largest j >= 1 with binom(j+1,2) - jk + C + 1 < prec = n/d
    (d >= 1), or 0: the residues r_j that f_k needs to O(q^prec).  r_j's
    degree bound binom(j+1,2) + j + 1 + C (the first term of
    residue_series' sum) puts q^{-j(k+1)} r_j, the lowest of its shifts in
    f_k, at binom(j+1,2) - jk + C + 1 or above.  That bound falls until the
    vertex at j = k - 1/2 and rises after it, so the scan runs to j = k and
    stops at the first j from there on that clears prec.  The test is on
    integers: j(j+1-2k) < t = ceil(2(prec - C - 1))."""
    cn, cd = C.numerator, C.denominator
    t = -(2 * ((cn + cd) * d - n * cd) // (d * cd))
    last = 0
    j = 1
    while True:
        if j * (j + 1 - 2 * k) < t:
            last = j
        elif j >= k:
            return last
        j += 1


class ResidueAtom(namedtuple("ResidueAtom", "k j sign exponent denom")):
    """A residue term sign * q^exponent / prod_d (q)_d, kept symbolic: the
    residue of the basis function with k+1 inverted factors at x=q^j (or
    at x=infinity, j = math.inf), or a term of a closed residue sum.  The
    ints k, j and sign (0 for a vanishing residue), the Fraction exponent
    and the tuple denom of the ints d."""
    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def to_series(self, prec: ExpLike) -> QSeries:
        if self.sign == 0:
            return QSeries.zero(prec)
        inv = _inv_poch_product(self.denom, Fraction(prec) - self.exponent)
        return (self.sign * QSeries.monomial(self.exponent) * inv).truncate(prec)


def residue_sigma(k: int, j: Union[int, float]) -> ResidueAtom:
    """Residue atom at x=q^j (j integer) or x=infinity (j=math.inf)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if j == INF:
        if k == 0:
            return ResidueAtom(k, INF, 1, Fraction(0), ())
        return ResidueAtom(k, INF, 0, Fraction(0), ())
    if abs(j) > k:
        return ResidueAtom(k, j, 0, Fraction(0), ())
    sign = 1 if (k + j + 1) % 2 == 0 else -1
    exponent = _binom2(j + 1) + _binom2(k + 1)
    return ResidueAtom(k, j, sign, exponent, (k - j, k + j))


def _lbc_constant(C) -> Fraction:
    if C is None:
        raise LbcError("LBC required")
    if isinstance(C, LbcReport):
        return C.constant
    return C if isinstance(C, Fraction) else Fraction(C)


class ResidueFamily(namedtuple("ResidueFamily", "J rmap r_inf prec lbc_constant")):
    """Residues r_j for |j| <= J (an int), a dict ``rmap`` from j to QSeries,
    plus the QSeries r_infinity ``r_inf``, all at the Fraction ``prec``
    and summed under the Fraction LBC constant ``lbc_constant``."""
    __slots__ = ()

    def r(self, j: int) -> QSeries:
        if abs(j) > self.J:
            raise KeyError("residue index %d outside window J=%d" % (j, self.J))
        return self.rmap[j]

    def symmetry_defect(self, j: int) -> QSeries:
        """r_{-j} - q^{-j} r_j, zero-to-prec when the family is consistent."""
        p = self.prec - max(0, -j)
        return (self.r(-j) - self.r(j).shift(-j)).truncate(p)


def residue_series(a: CoeffSeq, j: int, prec: ExpLike, C) -> QSeries:
    """r_j = -sum_{k>=|j|} a_{-k-1} (-1)^{k+j}
    q^{binom(k+1,2)+binom(j+1,2)} / ((q)_{k+j}(q)_{k-j}), to O(q^prec).

    The sum builds up in one integer coefficient list.  Term k's state
    u_k = 1/((q)_{k-j}(q)_{k+j}) = u_{k-1}/((1 - q^{k-j})(1 - q^{k+j})) is
    carried from term to term at the length ceil(prec - bound(k)) that the
    LBC certifies: delta(a_{-k-1}) >= -(k+1)(k-2)/2 + C and the term's
    q^{e_k} give bound(k) = binom(j+1,2) + k + 1 + C.  Each coefficient
    c q^x of a_{-k-1} adds c (-1)^{k+j+1} q^{x+e_k} u_k, with
    e_k = binom(k+1,2) + binom(j+1,2), as one slice-add into the list, on
    the finest exponent grid of the a_{-k-1} summed.

    The checks are those of series.sum_until's certified stop: the sum
    stops at the first k with bound(k) >= prec (the bound rises by one per
    term, so it is monotone); DegreeBoundError when delta(a_{-k-1}) + e_k
    < bound(k); and the result is known to the least precision of its
    terms, which falls below prec only where some a_{-k-1} is truncated."""
    C = _lbc_constant(C)
    tn, td = _as_ratio(prec)
    ej = j * (j + 1) // 2
    bn, bd = (ej + 1) * C.denominator + C.numerator, C.denominator
    # bound(k) = bn/bd + k; stop is the first k with bound(k) >= prec
    stop = max(-((bn * td - tn * bd) // (td * bd)), 0)
    terms = a.prefix(stop - 1)
    # acc[i] is the coefficient of q^((lo + i)/g), on the finest grid of the
    # terms; bound(k) and prec are bound_g + k*g and top in units of 1/g
    g = lcm(*(ak.scale for ak in terms[abs(j):]))
    lo, bound_g = bn * g // bd, -(-bn * g // bd)
    top = -(-tn * g // td)
    acc = [0] * max(top - lo, 0)
    cut = top  # least term precision in units of 1/g; top stands for prec
    u = None
    for k in range(abs(j), stop):
        ak = terms[k]
        n = stop - k  # >= 1
        u = _inv_poch_pair(u, k, j, n)
        low = ak.low
        if low is None:  # the exact zero
            continue
        f = g // ak.scale
        e = (ej + k * (k + 1) // 2) * g
        low = low * f + e
        if low < bound_g + k * g:
            raise DegreeBoundError("degree bound violated at k=%d" % k)
        if low >= top:
            continue
        # u's n coefficients reach prec, as low >= bound(k)
        if ak.prec is not None:
            cut = min(cut, ak.prec * f + e)
        monos = (((ak.offset + i) * f, c)
                 for i, c in enumerate(ak.coeffs) if c)
        _add_scaled(acc, lo, top, g, monos, e, u, n, 1 if (k + j) % 2 else -1)
    return QSeries(acc, lo, g, cut)._truncate(tn, td)


def residue_family(a: CoeffSeq, J: int, prec: ExpLike, C=None) -> ResidueFamily:
    """All residues with |j| <= J; requires an LBC constant (or report)."""
    C = _lbc_constant(C)
    target = Fraction(prec)
    rmap = {j: residue_series(a, j, target, C) for j in range(-J, J + 1)}
    return ResidueFamily(J, rmap, a[0].truncate(target), target, C)


def residue_theorem_window(prec: ExpLike, C) -> int:
    """Smallest J with binom(J+1,2) + C >= prec, so residues outside
    [-J, J] cannot contribute below the precision."""
    target = Fraction(prec)
    C = _lbc_constant(C)
    J = 0
    while _binom2(J + 1) + C < target:
        J += 1
    return J


def residue_theorem_check(a: CoeffSeq, prec: ExpLike, C=None) -> QSeries:
    """The defect sum_j r_j + r_inf; zero-to-prec when the residue
    theorem holds."""
    C = _lbc_constant(C)
    target = Fraction(prec)
    J = residue_theorem_window(target, C)
    fam = residue_family(a, J, target, C)
    return series_sum([fam.r_inf, *fam.rmap.values()]).truncate(target)


def residues_from_f(f: CoeffSeq, j: int, prec: ExpLike, C) -> QSeries:
    """The theta-function route:

        r_j = -(q^{binom(j+1,2)}/(q)_inf^3) sum_k f_k (-1)^{k+j}
              q^{binom(k+1,2)} (1 + sum_{n>=1} (-1)^n
              q^{binom(n+1,2)+nk}(q^{nj} + q^{-nj})).

    Requires delta(f_k) >= lbc_margin(k) + C on the f_k the window reads
    (lbc_check on the f-side), which a prefix with no terms meets for any C.

    The k-sum runs on series._products: each f_k but an exact zero pairs
    with the merged monomials of (-1)^{k+j} q^{binom(k+1,2)} theta_k,
    whose n-sum stops once its terms clear prec over f_k.low, a bound on
    delta(f_k) (a truncated zero's precision).  The sum is known to the
    least of prec and prec(f_k) + delta(q^{binom(k+1,2)} theta_k) over
    the truncated f_k, zero-to-precision ones included.
    """
    C = _lbc_constant(C)
    target = Fraction(prec)
    tn, td = target.numerator, target.denominator
    K_max = max(abs(j), int(math.ceil(target - C - 1)))
    fs = f.prefix(K_max)  # one batch before the audit reads f
    pairs = []
    for k, fk in enumerate(fs):
        # delta(f_k) >= low/g; QSeries.low is None for the exact zero
        g, low = fk.scale, fk.low
        if low is None:
            continue
        b = k * (k + 1) // 2
        sign = 1 if (k + j) % 2 == 0 else -1
        monos = {b: sign}
        n = 1
        while True:
            e = n * (n + 1) // 2 + n * k
            if ((e - n * abs(j) + b) * g + low) * td >= tn * g \
                    and n > abs(j) - k:
                break
            s = -sign if n % 2 else sign
            for x in (b + e + n * j, b + e - n * j):
                monos[x] = monos.get(x, 0) + s
            n += 1
        # nonzero: the top monomial of the last n (or q^b) is unique
        pairs.append((fk, sorted((x * td, c) for x, c in monos.items() if c)))
    if pairs and lbc_check(f, K_max).constant < C:  # no pairs: no terms
        raise LbcError("theta route requires LBC-grade input")
    acc = _products(pairs, td, tn)._shift(j * (j + 1) // 2, 1)
    # acc is truncated; 1/(q)_inf^3 to n >= 1 terms and to prec - delta(acc)
    # keeps the product known as far as acc is
    low = acc.low
    n = max(-((low * td - tn * acc.scale) // (td * acc.scale)), 1)
    cube = [0] * n  # Jacobi: (q)_inf^3 = sum_m (-1)^m (2m+1) q^binom(m+1,2)
    for m in range(math.isqrt(2 * n) + 1):
        if m * (m + 1) // 2 < n:
            cube[m * (m + 1) // 2] = (-1) ** m * (2 * m + 1)
    inv3 = series_invert_unit(QSeries(cube, 0, 1, n), n)
    return (-(acc * inv3))._truncate(tn, td)


def trefoil_recurrence_check(kind: str, J: int, prec: ExpLike) -> bool:
    """Check the residue q-recurrences of the trefoils on 0 <= j < J.

    Left-handed: r_{j+1} = -q^{3j+2} r_j.  Right-handed:
    r_{j+1} = -q^{-3j-1} r_j + (-1)^j q^{binom(j+1,2)} (q^{-2j}-q)/(q)_inf^2
    (sign of the inhomogeneous term fixed against the tabulated residues),
    plus stabilization of (-1)^j q^{-binom(j+2,2)} r_j to (q)_inf^{-2}.
    """
    target = Fraction(prec)
    if kind not in ("L", "R"):
        raise ValueError("kind must be 'L' or 'R'")
    knot = get_knot("3_1l" if kind == "L" else "3_1r")
    r = [residue_series(knot.a, j, target, knot.lbc_constant)
         for j in range(J + 1)]
    if kind == "L":
        for j in range(J):
            lhs = r[j + 1]
            rhs = -r[j].shift(3 * j + 2)
            if lhs.truncate(target) != rhs.truncate(target):
                return False
        return True

    inv2 = _inv_poch_product((INF, INF), target)
    for j in range(J):
        p = target - (3 * j + 2)
        lhs = r[j + 1]
        sign = -1 if j % 2 else 1
        extra = QSeries.monomial(-2 * j) - QSeries.monomial(1)
        rhs = -r[j].shift(-3 * j - 1) \
            + sign * QSeries.monomial(_binom2(j + 1)) * extra * inv2
        if lhs.truncate(p) != rhs.truncate(p):
            return False
    prev = None
    for j in range(J + 1):
        p = target - _binom2(j + 2)
        if prev is not None and p <= prev:
            # remaining windows are shallower than the agreement already
            # certified, so they cannot witness further stabilization
            break
        sign = -1 if j % 2 else 1
        norm = sign * r[j].shift(-_binom2(j + 2))
        d = (norm - inv2).truncate(p).delta_lb()
        if prev is not None and d < prev:
            return False
        prev = d
    return True


def descendant(a: CoeffSeq, m: int) -> CoeffSeq:
    """a_{-k-1} -> a_{-k-1} q^{km}."""
    return CoeffSeq("P", lambda k: a[k].shift(k * m), a.max_index)


def branch_residue_41(branch: str, j: int, prec: ExpLike) -> QSeries:
    """Residues of the nonabelian-branch series of 4_1 at x=q^j, by
    their closed single sums."""
    target = Fraction(prec)
    if branch == "+1/2":
        e = lambda k: Fraction(3 * k * k + k - j * j + j, 2)
        sign = lambda k: 1 if (k + j) % 2 else -1
    elif branch == "-1/2":
        e = lambda k: k + Fraction(j * (3 * j + 1), 2)
        sign = lambda k: 1 if j % 2 else -1
    else:
        raise ValueError("branch must be '+1/2' or '-1/2'")
    return series_sum_bounded(
        lambda k: ResidueAtom(k, j, sign(k) if k >= abs(j) else 0, e(k),
                              (k + j, k - j, k)).to_series(target),
        e, target)


def tail_check(parity: str, n: int, prec: ExpLike):
    """Normalized figure-eight coefficient q^{-delta(f_k)} f_k against its
    stabilized theta-quotient target; returns (normalized, target,
    agree_to) with agree_to the first disagreement exponent (or prec)."""
    target_prec = Fraction(prec)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if parity == "even":
        k = 2 * n
        expo = lambda m: m * m
    elif parity == "odd":
        k = 2 * n + 1
        expo = lambda m: m * m + m
    else:
        raise ValueError("parity must be 'even' or 'odd'")
    fk = get_knot("4_1").f[k]
    normalized = fk.shift(-fk.delta()).truncate(target_prec)
    m_max = int(math.isqrt(int(target_prec))) + 2
    theta = series_sum(QSeries.monomial(expo(m))
                       for m in range(-m_max, m_max + 1)
                       if expo(m) < target_prec)
    inv1 = _inv_poch_product((INF,), target_prec)
    tail_target = (theta * inv1).truncate(target_prec)
    diff = (normalized - tail_target).truncate(target_prec)
    return normalized, tail_target, min(diff.delta_lb(), target_prec)
