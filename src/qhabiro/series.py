"""Exact and truncated Laurent series in q with a rational exponent grid.

A :class:`QSeries` stores integer coefficients on the grid (1/scale)*Z.
Exponents are kept as integers in units of 1/scale; ``prec`` is an
exclusive bound in the same units (the series is known for exponents
< prec/scale), or ``None`` for an exact Laurent polynomial.

All values are immutable; every operation returns a fresh series.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from itertools import count
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Callable, Iterator, Optional, Union

try:
    from gmpy2 import mpz as _mpz
except ImportError:  # pragma: no cover - gmpy2 is an optional speedup
    _mpz = None

INF = math.inf

ExpLike = Union[int, Fraction]


class QAlgebraError(Exception):
    """Base class for algebra-level failures."""


class NotInvertibleError(QAlgebraError):
    """Leading coefficient is not a unit over the integers."""


class DegreeBoundError(QAlgebraError):
    """A summand violated its declared degree lower bound."""


class ExactnessError(QAlgebraError):
    """Operation requires an exact Laurent polynomial."""


class RemainderError(QAlgebraError):
    """Exact division left a nonzero remainder."""


class ConvergenceError(QAlgebraError):
    """A term-by-term sum diverged, or ran out of terms before its stop
    rule decided."""


class PrecisionError(QAlgebraError):
    """Requested precision cannot be certified.

    ``suggested_bits`` is the working precision that would suffice, where
    the raiser knows one (numerical evaluation), else None.
    """

    def __init__(self, message: str, suggested_bits: Optional[int] = None):
        super().__init__(message)
        self.suggested_bits = suggested_bits


# ---------------------------------------------------------------------------
# multiplication kernel
#
# Small products are one scaled slice-add per nonzero coefficient of the
# shorter factor (_add_scaled, also the residue and surgery sums' kernel
# and series_invert_unit's convolution); a +-1 is one map(add | sub).
# _products adds r_i P_i, each P_i given by its monomials, into one list
# by one _add_scaled per pair (surgery's residue route and the theta
# route); _dot adds _polymul products into one list, exact or only
# below a precision (series_dot is its exact case, omega_mul's
# convolution the cut one).
# Series add through one list adder, _sum_lists: QSeries.__add__ is its
# two-term case, _dot's products go through it, and series_sum is every
# running sum in the package, each term added once.
# Kernels read operands' own coefficient tuples (_rescaled copies only onto
# a finer grid), write only lists they made, and QSeries keeps a given tuple.
# Large products are folded into one big-integer multiplication (Kronecker
# substitution on _pack/_unpack); with gmpy2 that one multiplication runs
# on GMP's mpz.  Swap `_polymul` to change the kernel.
# ---------------------------------------------------------------------------

_KRONECKER_CUTOFF = 4096  # len(a)*len(b) above which packing pays off


def _add_scaled(acc: list, lo: int, top: int, g: int, monos, e: int,
                u: list, n: int, sign: int) -> None:
    """acc += sign * q^(e/g) * P * U below q^(top/g), one slice-add per
    monomial of P, where acc[i] is the coefficient of q^((lo + i)/g).

    monos lists P's monomials as (exponent * g, coefficient), ascending;
    U is the integer-exponent series whose first n coefficients are u."""
    for x, c in monos:
        x += e
        count = min(n, (top - x + g - 1) // g)  # entries of u below top
        if count <= 0:
            break
        s = slice(x - lo, x - lo + (count - 1) * g + 1, g)
        k = sign * c
        acc[s] = (map(add if k == 1 else sub, acc[s], u) if k in (1, -1)
                  else [y + k * z for y, z in zip(acc[s], u)])


def _products(pairs, g: int, prec=None) -> QSeries:
    """sum_i r_i P_i to O(q^(prec/g)), or to its own precision when prec
    is None (then some r_i is truncated): each P_i a nonzero Laurent
    polynomial given as its monomials (exponent * g, coefficient),
    ascending, and prec an integer in the same units.

    The sum is known to the least of prec and prec(r_i) + delta(P_i) over
    the truncated r_i, as the QSeries sum of the products would be.  It
    builds up in one coefficient list on the finest grid G of the r_i and
    g, one _add_scaled per pair with r_i's grid step as stride."""
    G = lcm(g, *(r.scale for r, _ in pairs))
    cuts = [r.prec * (G // r.scale) + P[0][0] * (G // g) for r, P in pairs
            if r.prec is not None]
    top = min(cuts + ([] if prec is None else [prec * (G // g)]))
    lo = min([r.offset * (G // r.scale) + P[0][0] * (G // g)
              for r, P in pairs if r.coeffs], default=top)
    acc = [0] * max(top - lo, 0)
    for r, P in pairs:
        if r.coeffs:
            f = G // r.scale
            _add_scaled(acc, lo, top, f, [(x * (G // g), c) for x, c in P],
                        r.offset * f, r.coeffs, len(r.coeffs), 1)
    return QSeries(acc, min(lo, top), G, top)


# Signed packing, shared by the Kronecker product and the transforms in
# transform.py: a coefficient list is the int sum c_i 2^(width*i), read back
# through an offset of 2^(width-1) per slot.  Slot i's offset bytes are the
# two's-complement bytes of c_i with the top byte's high bit flipped, so
# the codec moves whole byte columns (one strided slice each, the flip one
# bytes.translate) between width-bit slots and the 8-byte cells of one
# struct call.  Only lists with a value outside int64 take a per-slot path;
# an empty list packs to 0 and a one-slot z unpacks to [z] without either.

_FLIP = bytes(b ^ 0x80 for b in range(256))  # offset <-> two's complement
_SIGN = bytes(255 if b & 0x80 else 0 for b in range(256))  # sign extension


def _slot_fill(c: int, n: int, nb: int, stride: int = 1) -> int:
    """c in each of slots 0, stride, .., (n-1)*stride of nb bytes each."""
    cell = c.to_bytes(nb, "little") + bytes(nb * (stride - 1))
    return int.from_bytes(cell * n, "little")


def _columns(src, sb: int, db: int, n: int) -> bytearray:
    """n two's-complement slots of sb bytes resized to db bytes: the low
    byte columns are copied, the columns past sb are the sign extension,
    and struct.error is raised when a column past db is not (a slot does
    not fit db bytes)."""
    k = min(sb, db)
    sign = src[k - 1 :: sb].translate(_SIGN)
    if any(src[b::sb] != sign for b in range(db, sb)):
        raise struct.error("a slot does not fit %d bytes" % db)
    out = bytearray(n * db)
    for b in range(k):
        out[b::db] = src[b::sb]
    for b in range(sb, db):
        out[b::db] = sign
    return out


def _pack(coeffs: list, width: int) -> int:
    """sum c_i 2^(width*i), width a multiple of 8; OverflowError unless
    every -2^(width-1) <= c_i < 2^(width-1)."""
    nb = width // 8
    n = len(coeffs)
    if not n:
        return 0
    half = 1 << (width - 1)
    try:
        data = _columns(struct.pack("<%dq" % n, *coeffs), 8, nb, n)
        data[nb - 1 :: nb] = data[nb - 1 :: nb].translate(_FLIP)
    except struct.error:  # past int64, or past the slot (to_bytes raises)
        data = b"".join((c + half).to_bytes(nb, "little") for c in coeffs)
    return int.from_bytes(data, "little") - _slot_fill(half, n, nb)


def _slots(z: int, width: int) -> tuple:
    """(n, bytes of z + 2^(width-1) in each of n slots): the offset form of
    enough slots to hold z; trailing zero slots may remain."""
    nb = width // 8
    n = abs(z).bit_length() // width + 1
    v = z + _slot_fill(1 << (width - 1), n, nb)
    if v.bit_length() > n * width:  # top slot 1 over negative slots
        n += 1
        v = z + _slot_fill(1 << (width - 1), n, nb)
    return n, v.to_bytes(n * nb, "little")


def _unpack(z: int, width: int) -> list:
    """Inverse of _pack; trailing zero slots may remain."""
    if -(1 << (width - 1)) <= z < 1 << (width - 1):
        return [z]
    nb = width // 8
    n, data = _slots(z, width)
    data = bytearray(data)
    data[nb - 1 :: nb] = data[nb - 1 :: nb].translate(_FLIP)
    try:
        return list(struct.unpack("<%dq" % n, _columns(data, nb, 8, n)))
    except struct.error:  # a slot past int64
        return [int.from_bytes(data[i : i + nb], "little", signed=True)
                for i in range(0, n * nb, nb)]


def _repack(z: int, old: int, new: int, stride: int) -> int:
    """Move slot i of width ``old`` to slot i*stride of width ``new``
    without unpacking (strided byte copies); |c_i| < 2^(old-1)."""
    if not z:
        return 0
    ob, nb = old // 8, new // 8
    n, data = _slots(z, old)
    out = bytearray(((n - 1) * stride + 1) * nb)
    for b in range(ob):
        out[b :: nb * stride] = data[b :: ob]
    return int.from_bytes(out, "little") - _slot_fill(1 << (old - 1), n,
                                                      nb, stride)


def _polymul_kronecker(a: list, b: list) -> list:
    # bits(|c_a * c_b| * overlap) <= bits(a) + bits(b) + bits(overlap)
    ba = max(map(int.bit_length, a))
    bb = max(map(int.bit_length, b))
    bound_bits = ba + bb + min(len(a), len(b)).bit_length()
    bits = 8 * ((bound_bits + 9) // 8)  # bits >= bound_bits+2
    x, y = _pack(a, bits), _pack(b, bits)
    return _unpack(x * y if _mpz is None else int(_mpz(x) * y), bits)


def _polymul(a: list, b: list, n: Optional[int] = None) -> list:
    """The coefficients of a * b, or only its first n (n >= 1)."""
    if n is not None:
        a, b = a[:n], b[:n]
    if not a or not b:
        return []
    if len(a) * len(b) > _KRONECKER_CUTOFF:
        return _polymul_kronecker(a, b)[:n]
    if len(a) > len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    if n is not None:
        del out[n:]
    _add_scaled(out, 0, len(out), 1, [(i, c) for i, c in enumerate(a) if c],
                0, b, len(b), 1)
    return out


# ---------------------------------------------------------------------------
# QSeries
# ---------------------------------------------------------------------------


class DeltaAtLeast(namedtuple("DeltaAtLeast", "bound")):
    """Marker: the series vanishes up to its precision, so only a lower
    bound (a Fraction) on the valuation is known."""
    __slots__ = ()


class QSeries:
    __slots__ = ("scale", "offset", "coeffs", "prec")

    def __init__(self, coeffs=(), offset: int = 0, scale: int = 1, prec: Optional[int] = None):
        """Build a series from raw data in units of 1/scale, canonicalizing.

        ``coeffs[i]`` is the coefficient of q^((offset+i)/scale); ``prec``
        is exclusive, in units of 1/scale, or None for an exact polynomial.
        """
        if scale < 1:
            raise ValueError("scale must be a positive integer")
        coeffs = tuple(coeffs)  # a tuple is kept as it is: it is shared
        hi = len(coeffs)
        if prec is not None and prec - offset < hi:
            hi = max(prec - offset, 0)  # drop the terms at/above prec
        lo = 0
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        coeffs = coeffs[lo:hi] if lo or hi < len(coeffs) else coeffs
        offset = offset + lo if coeffs else 0
        if scale > 1:  # normalize the exponent grid
            g = scale
            for i, c in enumerate(coeffs):
                if c:
                    g = gcd(g, offset + i)
                    if g == 1:
                        break
            if prec is not None:
                g = gcd(g, prec)
            if g > 1:  # offset and every nonzero exponent are multiples of g
                coeffs, offset, scale = coeffs[::g], offset // g, scale // g
                if prec is not None:
                    prec //= g
        self_set = super().__setattr__
        self_set("scale", scale)
        self_set("offset", offset)
        self_set("coeffs", coeffs)
        self_set("prec", prec)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("QSeries is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(prec: Optional[ExpLike] = None) -> "QSeries":
        if prec is None:
            return QSeries()
        num, den = _as_ratio(prec)
        return QSeries((), 0, den, num)

    @staticmethod
    def one() -> "QSeries":
        return QSeries((1,))

    @staticmethod
    def monomial(exp: ExpLike = 1, coeff: int = 1) -> "QSeries":
        num, den = _as_ratio(exp)
        return QSeries((coeff,), num, den)

    @staticmethod
    def from_terms(terms, prec: Optional[ExpLike] = None) -> "QSeries":
        """terms: mapping or iterable of (exponent, coefficient) pairs,
        added by series_sum as monomials; cut to O(q^prec) when given."""
        items = terms.items() if hasattr(terms, "items") else terms
        out = series_sum(QSeries.monomial(e, c) for e, c in items)
        return out if prec is None else out.truncate(prec)

    # -- basic queries -----------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.prec is None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def low(self) -> Optional[int]:
        """The least exponent a term can have, in units of 1/scale: offset
        if there are coefficients, else prec (None for the exact zero)."""
        return self.offset if self.coeffs else self.prec

    @property
    def prec_q(self) -> Optional[Fraction]:
        """Precision as a q-exponent, or None when exact."""
        if self.prec is None:
            return None
        return Fraction(self.prec, self.scale)

    def delta(self):
        """Minimal q-exponent of a nonzero coefficient.

        Returns a Fraction for a nonzero series, ``math.inf`` for the exact
        zero series, and a :class:`DeltaAtLeast` marker for a truncated
        series that vanishes up to its precision.
        """
        if self.coeffs:
            return Fraction(self.offset, self.scale)
        if self.prec is None:
            return INF
        return DeltaAtLeast(Fraction(self.prec, self.scale))

    def delta_lb(self) -> Union[Fraction, float]:
        """Certified lower bound on the valuation (inf for exact zero)."""
        low = self.low
        return INF if low is None else Fraction(low, self.scale)

    def coeff(self, exp: ExpLike) -> int:
        """Coefficient of q^exp. Raises PrecisionError beyond prec."""
        n, d = _as_ratio(exp)
        if self.prec is not None and Fraction(n, d) >= self.prec_q:
            raise PrecisionError(f"coefficient of q^{Fraction(n,d)} is beyond precision")
        num = self.scale * n
        if num % d:
            return 0
        i = num // d - self.offset
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def terms(self) -> Iterator[tuple]:
        """Yield (exponent: Fraction, coefficient) for nonzero terms."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield Fraction(self.offset + i, self.scale), c

    # -- arithmetic --------------------------------------------------------

    def _rescaled(self, scale: int) -> tuple:
        """(offset, coeffs, prec) on the finer grid `scale`; coeffs is the
        series' own tuple on its own grid (a writer copies it), else a list."""
        f = scale // self.scale
        if f == 1:
            return self.offset, self.coeffs, self.prec
        coeffs = [0] * (len(self.coeffs) * f - (f - 1)) if self.coeffs else []
        coeffs[::f] = self.coeffs
        prec = None if self.prec is None else self.prec * f
        return self.offset * f, coeffs, prec

    def __add__(self, other) -> "QSeries":
        if isinstance(other, int):
            other = QSeries((other,))
        if not isinstance(other, QSeries):
            return NotImplemented
        if other.low is None:  # the exact zero; immutable: share self
            return self
        if self.low is None:
            return other
        s = lcm(self.scale, other.scale)
        return _sum_lists((self._rescaled(s), other._rescaled(s)), s)

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries([-c for c in self.coeffs], self.offset, self.scale, self.prec)

    def __sub__(self, other) -> "QSeries":
        if isinstance(other, int):
            other = QSeries((other,))
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QSeries":
        return (-self) + other

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, int):
            return QSeries(
                [other * c for c in self.coeffs], self.offset, self.scale, self.prec
            )
        if not isinstance(other, QSeries):
            return NotImplemented
        da, db = self.low, other.low
        if da is None or db is None:  # an exact zero times anything
            return QSeries()
        s = lcm(self.scale, other.scale)
        ao, ac, ap = self._rescaled(s)
        bo, bc, bp = other._rescaled(s)
        # pessimistic truncation: prec_a + delta(b) against prec_b + delta(a)
        pa = None if ap is None else ap + db * (s // other.scale)
        pb = None if bp is None else bp + da * (s // self.scale)
        prec = pb if pa is None else pa if pb is None else min(pa, pb)
        if not ac or not bc:
            return QSeries((), 0, s, prec)
        return QSeries(_polymul(ac, bc), ao + bo, s, prec)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QSeries":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = QSeries.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def shift(self, exp: ExpLike) -> "QSeries":
        """Multiply by the monomial q^exp."""
        return self._shift(*_as_ratio(exp))

    def _shift(self, n: int, d: int) -> "QSeries":  # q^(n/d) self, d >= 1
        s = lcm(self.scale, d)
        o, c, p = self._rescaled(s)
        k = n * (s // d)
        return QSeries(c, o + k, s, None if p is None else p + k)

    def truncate(self, prec: ExpLike) -> "QSeries":
        """Restrict knowledge to exponents < prec (a q-exponent)."""
        return self._truncate(*_as_ratio(prec))

    def _truncate(self, n: int, d: int) -> "QSeries":  # to O(q^(n/d)), d >= 1
        s = lcm(self.scale, d)
        o, c, p = self._rescaled(s)
        newp = n * (s // d)
        if p is not None:
            newp = min(newp, p)
        return QSeries(c, o, s, newp)

    def mirror(self) -> "QSeries":
        """q -> q^{-1}; defined only for exact Laurent polynomials."""
        if self.prec is not None:
            raise ExactnessError("mirror requires exact polynomial")
        return QSeries(
            self.coeffs[::-1],
            -(self.offset + len(self.coeffs) - 1) if self.coeffs else 0,
            self.scale,
        )

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.scale == other.scale
            and self.offset == other.offset
            and self.coeffs == other.coeffs
            and self.prec == other.prec
        )

    def __hash__(self) -> int:
        return hash((self.scale, self.offset, self.coeffs, self.prec))

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for e, c in self.terms():
            parts.append(_fmt_term(e, c, first=not parts))
        if self.prec is not None:
            parts.append(("+ " if parts else "") + f"O(q^{_fmt_exp(self.prec_q)})")
        if not parts:
            return "0"
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QSeries({self})"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "scale": self.scale,
            "offset": self.offset,
            "coeffs": [str(c) for c in self.coeffs],
            "prec": "exact" if self.prec is None else self.prec,
        }

    @staticmethod
    def from_json(obj) -> "QSeries":
        if isinstance(obj, str):
            import json  # here: `import qhabiro` does without it
            obj = json.loads(obj)
        prec = obj.get("prec", "exact")
        return QSeries(
            [int(c) for c in obj["coeffs"]],
            int(obj["offset"]),
            int(obj["scale"]),
            None if prec == "exact" else int(prec),
        )


def _as_ratio(x: ExpLike) -> tuple:
    f = x if isinstance(x, (int, Fraction)) else Fraction(x)
    return f.numerator, f.denominator


def _fmt_exp(e: Fraction) -> str:
    return str(e.numerator) if e.denominator == 1 else f"({e})"


def _fmt_term(e: Fraction, c: int, first: bool) -> str:
    sign = "-" if c < 0 else "+"
    mag = abs(c)
    if e == 0:
        body = str(mag)
    else:
        q = "q" if e == 1 else f"q^{_fmt_exp(e)}"
        body = q if mag == 1 else f"{mag}*{q}"
    if first:
        return body if c > 0 else f"-{body}"
    return f"{sign} {body}"


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------


def _sum_lists(datas, s: int) -> QSeries:
    """The sum of the coefficient lists c at offsets o, each known below
    p (None: exact), (o, c, p) in the sequence datas, on the grid 1/s and
    known to the least p: a lone nonempty list as it is, else the first
    list copied into one accumulator and the others added to it."""
    precs = [p for _, _, p in datas if p is not None]
    prec = min(precs) if precs else None
    datas = [(o, c) for o, c, _ in datas if c]
    if len(datas) < 2:
        o, c = datas[0] if datas else (0, ())
        return QSeries(c, o, s, prec)
    lo = min([o for o, _ in datas])
    out = [0] * (max([o + len(c) for o, c in datas]) - lo)
    o, c = datas[0]
    out[o - lo : o - lo + len(c)] = c
    for o, c in datas[1:]:
        i = slice(o - lo, o - lo + len(c))
        out[i] = map(add, out[i], c)
    return QSeries(out, lo, s, prec)


def series_sum(terms) -> QSeries:
    """The sum of the series in terms (an iterable; empty gives the exact
    zero), known to the least precision among them: every term on the
    finest grid, added into one list by _sum_lists, with one
    canonicalization for the whole sum.  The package's running sums add
    their collected terms here once, rather than term by term with +."""
    terms = list(terms)
    s = lcm(1, *(t.scale for t in terms))
    return _sum_lists([t._rescaled(s) for t in terms], s)


def series_dot(pairs) -> QSeries:
    """sum(x * y for x, y in pairs) over exact x, y (ExactnessError
    otherwise), by _dot."""
    pairs = list(pairs)
    if not all(x.is_exact and y.is_exact for x, y in pairs):
        raise ExactnessError("series_dot requires exact inputs")
    return _dot(pairs)


def _dot(pairs: list, n: Optional[int] = None, d: int = 1) -> QSeries:
    """sum(x * y for x, y in pairs), each product one _polymul on the
    pairs' common grid, added into one list; exact, or with n to
    O(q^(n/d)), where only the coefficients below it are multiplied.

    With n the caller vouches that the known terms of x and y fix every
    product below q^(n/d), as they do when prec(x) + delta(y) and prec(y)
    + delta(x) reach it for the true valuations, which may lie above what
    a truncated zero's prec says."""
    s = lcm(1, *(t.scale for xy in pairs for t in xy))
    rows = [(x._rescaled(s), y._rescaled(s)) for x, y in pairs]
    if n is None:
        return _sum_lists([(xo + yo, _polymul(xc, yc), None)
                           for (xo, xc, _), (yo, yc, _) in rows], s)
    top = -(-n * s // d)  # the first exponent on the grid 1/s at or past n/d
    return _sum_lists([(xo + yo, _polymul(xc, yc, top - xo - yo), top)
                       for (xo, xc, _), (yo, yc, _) in rows
                       if top > xo + yo] or [(0, (), top)], s)


def series_invert_unit(a: QSeries, prec: ExpLike) -> QSeries:
    """Inverse of a series with unit (+-1) leading coefficient, to O(q^prec).

    The leading monomial is factored out, so any nonzero exact or
    truncated series with lowest coefficient +-1 is accepted.
    """
    if a.is_zero:
        raise NotInvertibleError("cannot invert zero series")
    lead = a.coeffs[0]
    if lead not in (1, -1):
        raise NotInvertibleError("not invertible over integers")
    n, d = _as_ratio(prec)
    s = lcm(a.scale, d)
    ao, ac, ap = a._rescaled(s)
    want = n * (s // d)  # target prec in units 1/s
    # a = q^ao u, 1/a = q^-ao w with u w = 1: w is needed below want + ao
    m = want + ao
    if ap is not None:
        m = min(m, ap - ao)
    u = ac[1:m]
    w = [0] * m  # w[i] gathers sum_{j>=1} u_j w_{i-j} until w_i is due
    for i in range(m):
        w[i] = lead if i == 0 else -lead * w[i]  # 1/lead == lead for +-1
        if w[i]:  # w_i q^i u[1:] into the later sums
            _add_scaled(w, 0, m, 1, [(i, w[i])], 1, u, len(u), 1)
    return QSeries(w, -ao, s, m - ao)


RUN_LENGTH = 3
DIV_RUN_LENGTH = 5


def sum_until(term: Callable[[int], QSeries], ks, prec: ExpLike,
              bound: Optional[Callable[[int], ExpLike]] = None) -> tuple:
    """(the sum of term(k) over k in ks to O(q^prec), the last k read).

    With bound, a callable k -> lower bound on delta(term(k)) that does
    not decrease, the stop is certified: the sum stops at the first k with
    bound(k) >= prec, before reading term(k), and raises DegreeBoundError
    when bound falls or term(k) lies below bound(k).  Without it the stop
    is the degree trend: the sum is returned once RUN_LENGTH consecutive
    terms have degree at or above prec without falling, None in its place
    once DIV_RUN_LENGTH consecutive degrees fall below zero.  ks running
    out raises ConvergenceError.  The terms read are added once.

    Degrees x/s are compared as integers by cross-multiplication; the
    exact zero's +inf is (1, 0), above every x/s with s >= 1."""
    pn, pd = _as_ratio(prec)
    kept = []
    last = None
    run = div = 0
    x0 = s0 = None  # the last bound read, or without bound the last degree
    for k in ks:
        if bound is not None:
            bn, bd = _as_ratio(bound(k))
            if x0 is not None and bn * s0 < x0 * bd:
                raise DegreeBoundError(f"declared bound is not monotone at k={k}")
            x0, s0 = bn, bd
            if bn * pd >= pn * bd:
                break
        t = term(k)
        last = k
        kept.append(t)
        x = t.low
        x, s = (1, 0) if x is None else (x, t.scale)
        if bound is not None:
            if x * bd < bn * s:
                raise DegreeBoundError(f"degree bound violated at k={k}")
            continue
        up = x0 is None or x * s0 >= x0 * s
        run = run + 1 if x * pd >= pn * s and up else 0
        div = div + 1 if not up and x < 0 else 0
        x0, s0 = x, s
        if run >= RUN_LENGTH:
            break
        if div >= DIV_RUN_LENGTH:
            return None, last
    else:
        raise ConvergenceError("divergent or undecidable for these parameters")
    return series_sum(kept)._truncate(pn, pd), last


def series_sum_bounded(terms: Callable[[int], QSeries],
                       bound: Callable[[int], ExpLike], prec: ExpLike) -> QSeries:
    """sum_until(terms, count(), prec, bound)'s sum: terms(0) + terms(1)
    + ... to O(q^prec), stopped at the first k with bound(k) >= prec."""
    return sum_until(terms, count(), prec, bound)[0]
