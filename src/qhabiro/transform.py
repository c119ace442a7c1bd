"""Coefficient dictionary between GM-series coefficients f_i and inverted
Habiro coefficients a_{-k-1}, plus lower-bound-condition bookkeeping.

The dictionary is f_i = sum_{k<=i} [k+i choose 2k] a_{-k-1}.  By the
q-binomial theorem in balanced form, sum_j [2k+j choose j] x^j =
1/prod_{l=-k}^{k} (1 - q^l x), so in generating functions

    sum_i f_i x^i = sum_k a_{-k-1} x^k / prod_{l=-k}^{k} (1 - q^l x).

Both directions are computed from this identity without Gaussian
binomials or products: f_from_a divides through the factors
(1 - q^{+-(k+1)} x) by the recurrence H_j += q^c H_{j-1}, and a_from_f
multiplies by them (H_j -= q^c H_{j-1}), each step a shift and an add on
packed integers; each row is read back once, a byte column at a time
(``series._unpack``).  Truncated inputs are followed state by state: each
filter state knows the precision QSeries arithmetic would give it, every
row takes its output state's, and the states drop their slots at or past
it, so a truncated cascade stops at its precision (``_Cascade``).  They
are the only routes between the two sides: the explicit inverse
a_{-k-1} = sum_i (-1)^{k+i} [2k choose k-i] [2i+1]/[k+i+1] f_i and the
knots' closed forms serve the tests as oracles.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import inf as INF, lcm
from typing import Callable, Optional

from .series import (PrecisionError, QAlgebraError, QSeries, _pack, _repack,
                     _unpack)


class LbcError(QAlgebraError):
    """An operation required a verified lower bound condition."""


class CoeffSeq:
    """Lazy, memoized family of QSeries coefficients.

    side 'F': index k holds f_k.  side 'P': index k holds a_{-k-1}.
    ``max_index`` of None means the generator is defined for every k >= 0;
    a read past a finite ``max_index`` raises PrecisionError, naming the
    last index provided.  Each memo write is one dict.setdefault, atomic
    under the GIL, so concurrent readers of an index all get the value
    stored first; generation is pure.
    """

    def __init__(
        self,
        side: str,
        gen: Callable[[int], QSeries],
        max_index: Optional[int] = None,
    ):
        if side not in ("F", "P"):
            raise ValueError("side must be 'F' or 'P'")
        self.side = side
        self._gen = gen
        self.max_index = max_index
        self._memo: dict = {}

    def __getitem__(self, k: int) -> QSeries:
        if k < 0:
            raise IndexError("coefficient indices start at 0")
        if self.max_index is not None and k > self.max_index:
            raise PrecisionError("coefficients provided up to index %d only; "
                                 "index %d was read" % (self.max_index, k))
        try:
            return self._memo[k]
        except KeyError:
            pass
        return self._memo.setdefault(k, self._gen(k))

    def prefix(self, K: int) -> list:
        """Indices 0..K; the top one (K, or a lower ``max_index``) is read
        first, so that a batching generator (a cascade) is called once."""
        if K >= 0:
            self[K if self.max_index is None else min(K, self.max_index)]
        return [self[k] for k in range(K + 1)]


class LbcReport(namedtuple("LbcReport", "checked_range constant indeterminate",
                           defaults=((),))):
    """Result of checking delta(s_k) >= lbc_margin(k) + C, s_k = a_{-k-1}
    or f_k, on indices 0..``checked_range`` (an int): ``constant`` is the
    largest C (a Fraction) for which it holds on all of them, 0 if none has
    a term; ``indeterminate`` (a tuple, default ()) lists indices whose
    coefficient vanishes up to its precision, where only a lower bound on
    delta is known (the reported constant is then only a lower bound)."""
    __slots__ = ()


def lbc_margin(k: int) -> Fraction:
    """-n(n+3)/2 at n = -k-1, that is 1 - binom(k,2): the LBC reference
    degree of a_{-k-1} and of f_k alike (see ``lbc_check``)."""
    return Fraction(-(k + 1) * (k - 2), 2)


def lbc_check(s: CoeffSeq, K: int) -> LbcReport:
    """Best lower-bound-condition constant over indices 0..K of a P-side
    (a_{-k-1}) or an F-side (f_k) sequence: the LBC and Gukov-Manolescu's
    f-side bound delta(f_i) >= 1 - binom(i,2) + C are one inequality, as
    lbc_margin(k) = -(k+1)(k-2)/2 = 1 - binom(k,2).  With f_i = sum_k
    [k+i choose 2k] a_{-k-1}, delta([k+i choose 2k]) = -k(i-k) and
    lbc_margin(k) - k(i-k) - lbc_margin(i) = binom(i-k, 2) >= 0, so the
    bound with C on a_{-1}..a_{-K-1} gives it on f_0..f_K, and
    back-substitution the converse: a sequence and its transform have one
    best constant over 0..K."""
    # delta - lbc_margin(k) is m/(2 s) for delta = d/s: the least margin
    # is found by cross-multiplying, and made a Fraction once
    best = None
    indeterminate = []
    for k, x in enumerate(s.prefix(K)):
        d = x.low
        if d is None:
            continue
        if not x.coeffs:
            indeterminate.append(k)
        m = 2 * d + (k + 1) * (k - 2) * x.scale
        if best is None or m * best[1] < best[0] * x.scale:
            best = m, x.scale, d, k
    C = Fraction(0) if best is None else (Fraction(best[2], best[1])
                                          - lbc_margin(best[3]))
    return LbcReport(K, C, tuple(indeterminate))


_HEADROOM = 32  # spare slot bits on a one-row call, as more rows follow


def _strip(z: int, base: int, width: int, mask: int) -> tuple:
    """(z, base) without its zero low slots.  As |c_i| < 2^(width-1), slot
    0 is zero iff z = 0 mod 2^width; abs spares & the two's complement."""
    a = abs(z)
    if a & mask or not z:
        return z, base
    low = a & ((1 << 16 * width) - 1) or a  # most strips end in 16 slots
    n = ((low & -low).bit_length() - 1) // width
    return z >> n * width, base + n


class _Cascade:
    """Row-by-row transform through the factors (1 - q^l x), |l| <= k.

    The x-expansion of the basis function with k+1 inverted factors is
    sum_j [2k+j choose j] x^j = 1/prod_{l=-k}^{k} (1 - q^l x) (the
    q-binomial theorem in balanced form), so with F(x) = sum_i f_i x^i

        F = 1/(1-x) (a_{-1} + x/((1-q^-1 x)(1-q x)) (a_{-2} + x/(...) (...))).

    Stage m holds the factors (1 - q^{-m} x)(1 - q^m x) (stage 0 just
    1 - x), each a one-step filter along x: dividing by (1 - q^c x) is
    y_j = x_j + q^c y_{j-1}, multiplying is y_j = x_j - q^c x_{j-1}.
    f_from_a runs the dividing cascade inward-out (stage i down to 0 on
    row i, fed a_{-i-1} at stage i); a_from_f runs the multiplying one
    outward-in (stage 0 up to i, fed f_i, stage i giving a_{-i-1}).  Row i
    reads input i only, so both stay lazy; each step is one shift and one
    add.

    The filters lie flat: filter t = 0, 1, 2, ... carries c_t = 0, -1, +1,
    -2, +2, ... (times the scale), so stage m is filters 2m-1 and 2m and
    row i adds filters 2i-1 and 2i.  Their states are two lists, packed z
    and base, next to a list of the c_t.  The two factors of a stage
    commute (both are filters along x), so row i runs t = 2i down to 0
    when dividing, 0 up to 2i when multiplying.

    Laurent polynomials on the grid (1/scale)Z are packed as (z, base):
    z = sum c_i 2^(width*i), base the exponent of slot 0.  An input comes
    onto the grid through QSeries._rescaled.  Multiplying by q^c moves
    base; adding aligns by one left shift.  A nonzero state keeps a
    nonzero slot 0, so base is the low of its QSeries: inputs are canonical
    QSeries, a repack keeps slot 0, and a shifted add keeps the
    unshifted operand's, so only the aligned add (equal bases) can cancel
    it, and only it strips zero low slots.  z is exact whatever its slots
    hold, but reading slots back needs |c_i| < 2^(width-1).  A scalar
    shadow of the cascade on sup norms (the same filters with every sign +,
    on the same layout) bounds every |c_i| of every state, as
    ||u +- q^c v|| <= ||u|| + ||v||.  A call computes the rows up to k not
    yet computed as one batch: it reads their inputs top index first (so a
    cascade feeding this one gets one call too), and runs the shadow over
    them all before sizing the slots to the largest bound and the grids'
    lcm, repacking at most once.

    Precision follows the states as QSeries arithmetic would: once an
    input is truncated, every filter state carries the exponent below
    which it is known (inf if exact), on the shadow's layout; multiplying
    by q^c moves it by c and a sum keeps the least of its parts, and a
    row's precision is its output state's.  That is the defining sums'
    rule over the inputs' precisions p_k: min_k p_k - k(i-k) for f_from_a,
    as every path from input k to row i adds and the least shift along
    them is delta([k+i choose 2k]) = -k(i-k); min_k p_k + binom(k,2) -
    binom(i,2) for a_from_f, which solves the back-substitution's
    P_i = min(p_i, min_{k<i} P_k - k(i-k)).  The row pass cuts each state
    to its slots below its precision (_cut) as it sets both, and carries
    the cut state on, as no later state's precision is higher: a truncated
    cascade adds and keeps only the slots its rows can still be known at.
    A cascade whose inputs are all exact keeps no precisions and cuts
    nothing.
    """

    def __init__(self, source: CoeffSeq, divide: bool):
        self._source = source
        self._divide = divide
        self._scale = 1
        self._width = 8
        self._z: list = []  # filter t -> packed state
        self._base: list = []  # filter t -> exponent of its slot 0
        self._cs: list = []  # filter t -> its shift c_t, in units of 1/scale
        self._shadow: list = []  # filter t -> sup bound of its state
        self._prec = None  # filter t -> precision of its state, once truncated
        self._rows: list = []
        # a batch updates _rows, _z, _base, _cs, _shadow and _prec over many
        # bytecodes, which the GIL does not make atomic: threads that read
        # one cascade take turns (TestConcurrentAccess)
        self._lock = threading.Lock()

    def __call__(self, k: int) -> QSeries:
        if k < len(self._rows):  # rows only grow: a held row needs no lock
            return self._rows[k]
        with self._lock:
            start = len(self._rows)
            xs = [self._source[i] for i in range(k, start - 1, -1)][::-1]
            self._plan(xs, _HEADROOM if k == start else 0)
            for x in xs:
                self._rows.append(self._row(len(self._rows), x))
            return self._rows[k]

    def _plan(self, xs: list, headroom: int) -> None:
        # a row's bound only grows along it, so its last one is its largest
        bound = 0
        sh = self._shadow
        for x in xs:
            sh += (0, 0) if sh else (0,)
            b = max(map(abs, x.coeffs), default=0)
            if self._divide:  # t = 2i..0, each state the running sum
                acc = list(accumulate(reversed(sh), initial=b))
                sh[:] = acc[:0:-1]
            else:  # t = 0..2i, each state its input
                acc = list(accumulate(sh, initial=b))
                sh[:] = acc[:-1]
            bound = max(bound, acc[-1])
        scale = lcm(self._scale, *(x.scale for x in xs))
        width = self._width
        if bound.bit_length() >= width:
            width = 8 * -(-(bound.bit_length() + 1 + headroom) // 8)
        if scale != self._scale or width != self._width:
            stride = scale // self._scale
            self._z = [_repack(z, self._width, width, stride) for z in self._z]
            self._base = [b * stride for b in self._base]
            self._cs = [c * stride for c in self._cs]
            if self._prec is not None:
                self._prec = [p * stride for p in self._prec]
            self._scale, self._width = scale, width

    def _row(self, i: int, x: QSeries) -> QSeries:
        zs, bs, cs = self._z, self._base, self._cs
        zs += (0, 0) if i else (0,)
        bs += (0, 0) if i else (0,)
        scale, width = self._scale, self._width
        cs += (-i * scale, i * scale) if i else (0,)
        mask = (1 << width) - 1
        bu, coeffs, prec = x._rescaled(scale)
        # a single coefficient is its own packing (every built-in knot's
        # a-side); each factor is u +- q^c v, aligned by one left shift
        zu = coeffs[0] if len(coeffs) == 1 else _pack(coeffs, width)
        if prec is not None and self._prec is None:  # the first truncation
            self._prec = []
        ps = self._prec
        if ps is not None:  # p: the precision of u, inf while exact
            ps += [INF] * (len(zs) - len(ps))  # every state exact until now
            p = INF if prec is None else prec
        if self._divide:  # state t becomes u + q^c_t v, the row's output
            for t in range(2 * i, -1, -1):
                zv = zs[t]
                if zv:
                    bv = bs[t] + cs[t]
                    if not zu:
                        zu, bu = zv, bv
                    elif bu < bv:
                        zu += zv << (bv - bu) * width
                    elif bu == bv:
                        zu, bu = _strip(zu + zv, bu, width, mask)
                    else:
                        zu = (zu << (bu - bv) * width) + zv
                        bu = bv
                if ps is not None:
                    q = ps[t] + cs[t]
                    p = ps[t] = q if q < p else p
                    if zu and zu.bit_length() >= (p - bu) * width:
                        zu = _cut(zu, p - bu, width)
                zs[t], bs[t] = zu, bu
        else:  # state t becomes u, and u - q^c_t v runs on
            for t in range(2 * i + 1):
                zv, bv = zs[t], bs[t]
                if ps is not None:
                    if zu and zu.bit_length() >= (p - bu) * width:
                        zu = _cut(zu, p - bu, width)
                    q = ps[t] + cs[t]
                    ps[t], p = p, (q if q < p else p)
                zs[t], bs[t] = zu, bu
                if zv:
                    bv += cs[t]
                    if not zu:
                        zu, bu = -zv, bv
                    elif bu < bv:
                        zu -= zv << (bv - bu) * width
                    elif bu == bv:
                        zu, bu = _strip(zu - zv, bu, width, mask)
                    else:
                        zu = (zu << (bu - bv) * width) - zv
                        bu = bv
        if ps is not None:  # a dividing row's output, state 0, is cut
            zu = zu if self._divide else _cut(zu, p - bu, width)
            prec = None if p == INF else p
        # zu is normalised (see above): bu is the row's offset, and the
        # constructor drops the top slots' zeros (a zero z unpacks to [0])
        return QSeries(_unpack(zu, width), bu, scale, prec)


def _cut(z: int, n, width: int) -> int:
    """z without its slots from n on (n an int or inf): the balanced
    residue ((z + h) & (M - 1)) - h, M = 2^(n*width), h = M/2, is the
    low slots' value, as their sum lies in [-h, h)."""
    if n <= 0:
        return 0
    if z.bit_length() < n * width:  # |z| < M/2: no slot from n on is set
        return z
    h = 1 << (n * width - 1)
    return ((z + h) & ((h << 1) - 1)) - h


def f_from_a(a: CoeffSeq) -> CoeffSeq:
    """GM coefficients from inverted Habiro coefficients:
    f_i = sum_{k=0}^{i} [k+i choose 2k] a_{-k-1}.

    Equivalently sum_i f_i x^i = sum_k a_{-k-1} x^k / prod_{l=-k}^{k}
    (1 - q^l x) (q-binomial theorem), evaluated as a nested division by
    the factors (1 - q^{+-(k+1)} x): each division is the recurrence
    H_j += q^c H_{j-1}, a shift and an add (see ``_Cascade``).  f_i reads
    a_{-1}..a_{-i-1} only; rows are computed in index order.
    """
    if a.side != "P":
        raise ValueError("f_from_a expects a P-side sequence")
    return CoeffSeq("F", _Cascade(a, divide=True), a.max_index)


def a_from_f(f: CoeffSeq) -> CoeffSeq:
    """Inverted Habiro coefficients from GM coefficients.

    Inverts f_i = sum_k [k+i choose 2k] a_{-k-1} by multiplying
    sum_i f_i x^i back through the factors of ``f_from_a``'s identity:
    a_{-k-1} is the constant term after multiplying by (1 - x) and, for
    m = 1..k, stripping the constant term, dividing by x and multiplying
    by (1 - q^{-m} x)(1 - q^m x).  Exact and division-free; a_{-k-1}
    reads f_0..f_k only.
    """
    if f.side != "F":
        raise ValueError("a_from_f expects an F-side sequence")
    return CoeffSeq("P", _Cascade(f, divide=False), f.max_index)

