"""Core truncated Laurent series arithmetic."""

import math
import random
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhabiro import (
    DegreeBoundError,
    DeltaAtLeast,
    ExactnessError,
    NotInvertibleError,
    QSeries,
    RemainderError,
    series_invert_unit,
    series_sum_bounded,
)
from qhabiro import series

from conftest import exact_div

exps = st.integers(min_value=-8, max_value=8)
coeffs = st.integers(min_value=-9, max_value=9)
terms = st.dictionaries(exps, coeffs, max_size=6)


def mk(d, prec=None):
    return QSeries.from_terms(d, prec)


@st.composite
def operands(draw):
    """A series on the grid 1/1, 1/2 or 1/3: exact, truncated (perhaps zero
    to its precision), the exact zero or a truncated zero."""
    scale = draw(st.sampled_from((1, 2, 3)))
    kind = draw(st.sampled_from(("exact", "truncated", "exact zero",
                                 "truncated zero")))
    if kind == "exact zero":
        return QSeries.zero()
    prec = Fraction(draw(st.integers(-6, 12)), draw(st.sampled_from((1, 2, 3))))
    if kind == "truncated zero":
        return QSeries.zero(prec)
    t = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=6))
    return mk({Fraction(e, scale): c for e, c in t.items()},
              None if kind == "exact" else prec)


def naive_convolution(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def signed_with_zero_runs(rng, n: int) -> list:
    """n signed coefficients of up to 80 bits, nonzero at both ends, with
    runs of zeros inside."""
    c = [rng.choice((-1, 1)) * rng.getrandbits(rng.choice((1, 8, 80)))
         for _ in range(n)]
    for _ in range(n // 10):
        i, r = rng.randrange(n), rng.randrange(1, 8)
        c[i : i + r] = [0] * len(c[i : i + r])
    c[0], c[-1] = c[0] or 1, c[-1] or -1
    return c


# Per-coefficient reference codec for the packed kernels, in plain integer
# arithmetic: slot i of width w holds c_i with -2^(w-1) <= c_i < 2^(w-1).


def ref_pack(coeffs: list, width: int) -> int:
    half = 1 << (width - 1)
    for c in coeffs:
        if not -half <= c < half:
            raise OverflowError(f"{c} does not fit a {width}-bit slot")
    return sum(c << (width * i) for i, c in enumerate(coeffs))


def ref_unpack(z: int, width: int) -> list:
    """The slots of z, without trailing zero slots."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    out = []
    while z:
        c = ((z + half) & mask) - half  # the low slot, signed
        out.append(c)
        z = (z - c) >> width
    return out


def trimmed(coeffs: list) -> list:
    """coeffs without trailing zeros (_unpack may leave some)."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return coeffs[:n]


def strided(coeffs: list, stride: int) -> list:
    out = [0] * ((len(coeffs) - 1) * stride + 1)
    out[::stride] = coeffs
    return out


def edge_values(width: int) -> list:
    """In-range values of a width-bit slot: its ends, 0, the int64 ends
    when they fit, and values past int64 when the slot is wider."""
    half = 1 << (width - 1)
    vals = [half - 1, -(half - 1), -half, 0, 1, -1]
    if width >= 64:
        vals += [(1 << 63) - 1, -(1 << 63) + 1, -(1 << 63)]
    if width > 64:
        vals += [1 << 63, -(1 << 63) - 1, half // 3, -half // 5]
    return vals


class TestConstruction:
    def test_zero_one_monomial(self):
        assert QSeries.zero().is_zero
        assert QSeries.one().coeff(0) == 1
        m = QSeries.monomial(Fraction(3, 2), -4)
        assert m.coeff(Fraction(3, 2)) == -4
        assert m.scale == 2

    def test_exactness(self):
        assert mk({0: 1}).is_exact
        assert not mk({0: 1}, prec=5).is_exact
        assert mk({0: 1}, prec=5).prec_q == 5

    def test_json_roundtrip(self):
        s = mk({-2: 3, 0: -1, 5: 7}, prec=9)
        assert QSeries.from_json(s.to_json()) == s
        t = QSeries.monomial(Fraction(1, 2))
        assert QSeries.from_json(t.to_json()) == t

    def test_immutability(self):
        s = QSeries.one()
        with pytest.raises(AttributeError):
            s.offset = 3

    def test_a_canonical_tuple_is_shared(self):
        t = (1, 0, -2)
        for offset, scale, prec in ((3, 1, None), (3, 2, None), (-1, 1, 2),
                                    (1, 3, 9)):
            s = QSeries(t, offset, scale, prec)
            assert s.coeffs is t, (offset, scale, prec)
            assert s._rescaled(s.scale)[1] is s.coeffs
            assert type(s._rescaled(2 * s.scale)[1]) is list
        # a list or a generator is stored as a tuple, trimmed
        assert QSeries([0, 1, 0, -2, 0], 3).coeffs == (1, 0, -2)
        assert type(QSeries([1, 2]).coeffs) is tuple
        g = QSeries((c for c in (0, 5, 7)), 0, 1, 2)
        assert type(g.coeffs) is tuple and g.coeffs == (5,)
        # a trimmed or coarsened tuple is a new one
        assert QSeries((0,) + t, 2).coeffs == t
        assert QSeries((1, 0, 1), 0, 2).coeffs == (1, 1)


class TestArithmetic:
    @given(terms, terms)
    @settings(max_examples=80, deadline=None)
    def test_add_commutes(self, a, b):
        assert mk(a) + mk(b) == mk(b) + mk(a)

    @given(terms, terms)
    @settings(max_examples=80, deadline=None)
    def test_mul_commutes(self, a, b):
        assert mk(a) * mk(b) == mk(b) * mk(a)

    @given(terms, terms, terms)
    @settings(max_examples=60, deadline=None)
    def test_mul_distributes(self, a, b, c):
        x, y, z = mk(a), mk(b), mk(c)
        assert x * (y + z) == x * y + x * z

    @given(terms, terms, terms)
    @settings(max_examples=40, deadline=None)
    def test_mul_associative(self, a, b, c):
        x, y, z = mk(a), mk(b), mk(c)
        assert (x * y) * z == x * (y * z)

    def test_oracle_product(self):
        # (1 - q)(1 + q + q^2) = 1 - q^3
        a = mk({0: 1, 1: -1})
        b = mk({0: 1, 1: 1, 2: 1})
        assert a * b == mk({0: 1, 3: -1})

    def test_large_product_kronecker_path(self):
        # forces the big-integer packing branch; compare against identity
        # (sum q^i)^2 has coefficients 1..n..1
        n = 90
        s = QSeries([1] * n, 0, 1)
        sq = s * s
        assert sq.coeff(0) == 1
        assert sq.coeff(n - 1) == n
        assert sq.coeff(2 * n - 2) == 1

    def test_polymul_against_naive_convolution(self):
        rng = random.Random(7)
        # both sides of the cutoff: 64*64 = 4096 is schoolbook, 65*64 packs
        for la, lb in ((1, 1), (1, 90), (5, 40), (64, 64), (65, 64),
                       (40, 300), (300, 300)):
            a, b = signed_with_zero_runs(rng, la), signed_with_zero_runs(rng, lb)
            assert series._polymul(a, b) == naive_convolution(a, b), (la, lb)

    def test_kronecker_mpz_line(self, monkeypatch):
        # the gmpy2 line, with int standing in for mpz
        monkeypatch.setattr(series, "_mpz", int)
        rng = random.Random(11)
        a, b = signed_with_zero_runs(rng, 120), signed_with_zero_runs(rng, 90)
        assert len(a) * len(b) > series._KRONECKER_CUTOFF
        assert series._polymul(a, b) == naive_convolution(a, b)

    @pytest.mark.parametrize("mpz", [False, True])
    def test_kronecker_products_past_int64(self, monkeypatch, mpz):
        # +-2^40-sized factors on the packed path: the product's slots
        # exceed int64, so its read-back takes the per-slot path
        if mpz:
            monkeypatch.setattr(series, "_mpz", int)
        rng = random.Random(13)
        a = [rng.choice((-1, 1)) * ((1 << 40) - rng.randrange(1 << 20))
             for _ in range(65)]
        b = [rng.choice((-1, 1)) * ((1 << 40) - rng.randrange(1 << 20))
             for _ in range(64)]
        assert len(a) * len(b) > series._KRONECKER_CUTOFF
        want = naive_convolution(a, b)
        assert max(map(abs, want)) >= 1 << 63
        assert series._polymul(a, b) == want

    def test_mixed_scale(self):
        h = QSeries.monomial(Fraction(1, 2))
        assert h * h == QSeries.monomial(1)
        assert (h + h) == 2 * h

    def test_truncation_propagates(self):
        a = mk({0: 1, 1: 1}, prec=3)
        b = mk({2: 1})
        assert (a * b).prec_q == 5

    @given(terms)
    @settings(max_examples=60, deadline=None)
    def test_mirror_involution(self, a):
        s = mk(a)
        assert s.mirror().mirror() == s


class TestSlotCodec:
    """_pack/_unpack/_repack against the reference codec, for every slot
    width the kernels can pick up to 160 bits: the int64 fast path, the
    per-slot path past int64 and the OverflowError for values that do not
    fit."""

    WIDTHS = range(8, 161, 8)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_edge_values_round_trip(self, width):
        rng = random.Random(width)
        vals = edge_values(width)
        lists = [vals, vals[::-1]] + [[v] for v in vals]
        lists += [[0, v, 0] for v in vals]
        lists += [[rng.choice(vals) for _ in range(rng.randrange(1, 40))]
                  for _ in range(20)]
        for cs in lists:
            z = series._pack(cs, width)
            assert z == ref_pack(cs, width), cs
            back = trimmed(series._unpack(z, width))
            assert back == ref_unpack(z, width) == trimmed(cs), cs

    @pytest.mark.parametrize("width", WIDTHS)
    def test_out_of_range_raises(self, width):
        half = 1 << (width - 1)
        for bad in (half, -half - 1, 3 * half, -(1 << (width + 70))):
            for cs in ([bad], [0, 1, bad], [bad, -1] + [5] * 30):
                with pytest.raises(OverflowError):
                    ref_pack(cs, width)
                with pytest.raises(OverflowError):
                    series._pack(cs, width)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_unpack_of_any_packed_int(self, width):
        # sums of in-range slots with every sign pattern, read back whole
        rng = random.Random(1000 + width)
        for _ in range(30):
            n = rng.randrange(1, 60)
            cs = [rng.randrange(-(1 << (width - 1)), 1 << (width - 1))
                  >> rng.randrange(width) for _ in range(n)]
            z = ref_pack(cs, width)
            assert trimmed(series._unpack(z, width)) == ref_unpack(z, width)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_top_slot_one_over_negative_slots(self, width):
        # z is positive and one bit short of its top slot's index, so the
        # slot count read off its bit length is one short
        half = 1 << (width - 1)
        for cs in ([-half, -half, 1], [-1, -half, 1],
                   [-half + 1, -half, -half, 1]):
            z = series._pack(cs, width)
            assert abs(z).bit_length() == width * (len(cs) - 1) - 1
            assert series._unpack(z, width) == cs
            assert series._repack(z, width, width + 8, 2) == \
                ref_pack(strided(cs, 2), width + 8)

    def test_empty_and_zero(self):
        assert series._pack([], 64) == 0
        assert series._unpack(0, 72) == [0]

    @pytest.mark.parametrize("width", WIDTHS)
    def test_one_slot_boundaries(self, width):
        # z in [-2^(w-1), 2^(w-1)) is one slot and unpacks to [z]; one
        # past either end takes two slots
        half = 1 << (width - 1)
        assert series._pack([], width) == 0
        for z in (-half, -half + 1, -1, 0, 1, half - 1):
            assert series._unpack(z, width) == [z] == series._unpack(
                series._pack([z], width), width)
        for z, cs in ((half, [-half, 1]), (-half - 1, [half - 1, -1])):
            assert trimmed(series._unpack(z, width)) == cs
            assert ref_unpack(z, width) == cs
            assert series._pack(cs, width) == z
            with pytest.raises(OverflowError):
                series._pack([z], width)

    @pytest.mark.parametrize("old,new", [(8, 8), (8, 48), (48, 72), (56, 64),
                                         (64, 64), (64, 136), (72, 160),
                                         (128, 128)])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_repack_is_pack_of_strided_unpack(self, old, new, stride):
        rng = random.Random(old * 1000 + new * 10 + stride)
        for _ in range(20):
            vals = edge_values(old)
            cs = [rng.choice(vals) >> rng.randrange(old)
                  for _ in range(rng.randrange(1, 30))]
            z = series._pack(cs, old)
            want = series._pack(strided(series._unpack(z, old), stride), new)
            assert series._repack(z, old, new, stride) == want
            assert want == ref_pack(strided(cs, stride), new)


class TestDelta:
    def test_exact_delta(self):
        assert mk({2: 1, 5: -1}).delta() == 2
        assert mk({-3: 4}).delta() == -3

    def test_zero_truncated_delta_is_bound(self):
        d = QSeries.zero(7).delta()
        assert isinstance(d, DeltaAtLeast)
        assert d.bound == 7

    def test_exact_zero_delta_inf(self):
        assert QSeries.zero().delta() == math.inf


class TestLow:
    """QSeries.low: the least exponent a term can have, in units of
    1/scale; None only for the exact zero."""

    def test_exact_zero_truncated_zero_and_nonzero(self):
        assert QSeries.zero().low is None
        assert QSeries.zero(7).low == 7
        assert mk({2: 1, 5: -1}).low == 2
        assert mk({2: 1, 5: -1}, prec=4).low == 2
        assert mk({5: 1}, prec=4).low == 4  # zero to its precision

    def test_negative_precision(self):
        assert QSeries.zero(-3).low == -3
        assert mk({-5: 1, 0: 2}, prec=-2).low == -5
        assert mk({-1: 1}, prec=-2).low == -2

    def test_half_integer_grid(self):
        s = mk({Fraction(3, 2): 1, 4: -1})
        assert (s.scale, s.low) == (2, 3)
        z = QSeries.zero(Fraction(-5, 2))
        assert (z.scale, z.low) == (2, -5)

    @given(operands())
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_low_is_the_certified_valuation_bound(self, s):
        want = s.delta_lb()
        assert (math.inf if s.low is None else Fraction(s.low, s.scale)) \
            == want


class TestInversion:
    def test_invert_unit_oracle(self):
        inv = series_invert_unit(mk({0: 1, 1: -1}), 6)
        assert inv == mk({i: 1 for i in range(6)}, prec=6)

    def test_invert_requires_unit(self):
        # leading coefficient must be +-1 over the integers
        with pytest.raises(NotInvertibleError):
            series_invert_unit(mk({0: 2, 1: 1}), 5)
        # any unit leading coefficient works, including shifted ones
        assert series_invert_unit(mk({1: 1}), 5).coeff(-1) == 1

    @given(terms, st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_invert_roundtrip(self, t, prec):
        t = dict(t)
        t[0] = 1
        t = {e: c for e, c in t.items() if e >= 0}
        u = mk(t)
        inv = series_invert_unit(u, prec)
        assert (u * inv).truncate(prec) == QSeries.one().truncate(prec)

    def test_shifted_unit_keeps_the_asked_precision(self):
        # 1/(q + q^2) = q^-1 - 1 + q - q^2 + ... to O(q^3) as asked, not to
        # O(q^(3 - 2 delta)); 1/q to O(q^0) keeps its term q^-1
        assert series_invert_unit(mk({1: 1, 2: 1}), 3) == \
            mk({-1: 1, 0: -1, 1: 1, 2: -1}, prec=3)
        assert series_invert_unit(mk({1: 1}), 0) == mk({-1: 1}, prec=0)
        assert series_invert_unit(mk({2: -1}), -3) == QSeries.zero(-3)

    @given(operands(), st.integers(-6, 12), st.sampled_from((1, 2, 3)))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_precision_of_the_inverse(self, a, n, d):
        """1/a is known to O(q^prec), or to prec(a) - 2 delta(a) where
        that is lower, and a * (1/a) is 1 as far as the product is known."""
        if a.is_zero or a.coeffs[0] not in (1, -1):
            return
        prec = Fraction(n, d)
        inv = series_invert_unit(a, prec)
        delta = a.delta_lb()
        want = prec if a.is_exact else min(prec, a.prec_q - 2 * delta)
        assert inv.prec_q == want
        assert a * inv == QSeries.one().truncate(want + delta)

    def test_exact_div(self):
        num = mk({0: 1, 3: -1})
        den = mk({0: 1, 1: -1})
        assert exact_div(num, den) == mk({0: 1, 1: 1, 2: 1})

    def test_exact_div_remainder(self):
        with pytest.raises(RemainderError):
            exact_div(mk({0: 1, 2: 1}), mk({0: 1, 1: -1}))


def sum_bounded_by_fractions(terms, bound, prec):
    """series_sum_bounded on Fraction bounds and delta_lb(), as it ran
    before it became a name for series.sum_until's certified stop: the
    reference for that stop."""
    target = Fraction(prec)
    kept = []
    k = 0
    prev = None
    while True:
        bk = Fraction(bound(k))
        if prev is not None and bk < prev:
            raise DegreeBoundError(f"declared bound is not monotone at k={k}")
        prev = bk
        if bk >= target:
            break
        t = terms(k)
        if t.delta_lb() < bk:
            raise DegreeBoundError(f"degree bound violated at k={k}")
        kept.append(t)
        k += 1
    return series.series_sum(kept).truncate(target)


@st.composite
def bounded_sums(draw):
    """(terms, bounds, prec): declared bounds that mostly rise, sometimes
    fall, in steps on the grids 1/1, 1/2 and 1/3, each an int or a
    Fraction; and per bound a term at, above or just below it: monomials,
    truncated monomials, truncated zeros (degree bound: their precision)
    and exact zeros (degree bound: +inf)."""
    prec = Fraction(draw(st.integers(-6, 24)), draw(st.sampled_from((1, 2, 3))))
    if prec.denominator == 1 and draw(st.booleans()):
        prec = int(prec)
    b = Fraction(math.floor(prec) - draw(st.integers(-2, 12)))
    bounds, terms = [], []
    for _ in range(draw(st.integers(0, 10))):
        scale = draw(st.sampled_from((1, 2, 3)))
        b += Fraction(draw(st.sampled_from((-1,) + (0, 1, 2, 3) * 2)), scale)
        bounds.append(int(b) if b.denominator == 1 and draw(st.booleans())
                      else b)
        d = b + Fraction(draw(st.sampled_from((-1,) + (0, 1, 2) * 3)), scale)
        kind = draw(st.sampled_from(("monomial", "cut", "zero", "exact")))
        if kind == "monomial":
            terms.append(QSeries.monomial(d, draw(st.sampled_from((-2, 1)))))
        elif kind == "cut":  # a cut at d itself leaves a truncated zero
            cut = d + Fraction(draw(st.integers(0, 4)), scale)
            terms.append(QSeries.monomial(d).truncate(cut))
        else:
            terms.append(QSeries.zero(d if kind == "zero" else None))
    return terms, bounds, prec


class TestBoundedSum:
    def test_geometric_tail(self):
        # term_k = q^k, degree bound k: sum to prec 10 is 1/(1-q)
        out = series_sum_bounded(
            lambda k: QSeries.monomial(k), lambda k: Fraction(k), 10
        )
        assert out == mk({i: 1 for i in range(10)}, prec=10)

    def test_last_index_read(self):
        # the stop reads bound(10) but not term 10
        out, last = series.sum_until(QSeries.monomial, count(), 10, lambda k: k)
        assert (out, last) == (mk({i: 1 for i in range(10)}, prec=10), 9)
        assert series.sum_until(QSeries.monomial, count(), 0,
                                lambda k: k) == (QSeries.zero(0), None)

    def test_bound_violation_detected(self):
        with pytest.raises(DegreeBoundError, match="violated at k=1"):
            series_sum_bounded(
                lambda k: QSeries.monomial(-k),
                lambda k: Fraction(k),
                5,
            )

    def test_falling_bound_detected(self):
        with pytest.raises(DegreeBoundError, match="not monotone at k=2"):
            series_sum_bounded(lambda k: QSeries.zero(), (0, 2, 1).__getitem__,
                               5)

    def test_exhausted_indices_raise(self):
        with pytest.raises(series.ConvergenceError):
            series.sum_until(QSeries.monomial, range(5), 10, lambda k: k)

    @given(bounded_sums())
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_against_the_fraction_rule(self, case):
        # the same sum or DegreeBoundError message after asking for the
        # same terms
        terms, bounds, prec = case
        tail = max(bounds + [prec])  # stops the sum past the drawn bounds

        def run(rule):
            asked = []

            def term(k):
                asked.append(k)
                return terms[k]

            try:
                out = rule(term, lambda k: bounds[k] if k < len(bounds)
                           else tail, prec).to_json()
            except DegreeBoundError as exc:
                out = str(exc)
            return out, asked

        assert run(lambda t, b, p: series.sum_until(t, count(), p, b)[0]) \
            == run(sum_bounded_by_fractions)


def grid_series(rng, scale, prec=None, n=6):
    """A random series on the grid (1/scale)Z, exact unless prec is set."""
    return mk({Fraction(rng.randrange(-9, 10), scale): rng.randrange(-9, 10)
               for _ in range(n)}, prec)


def merged(a, b):
    """a + b by a two-list merge on the finer grid, independent of
    series._sum_lists: the reference for QSeries.__add__."""
    s = math.lcm(a.scale, b.scale)
    ao, ac, ap = a._rescaled(s)
    bo, bc, bp = b._rescaled(s)
    prec = bp if ap is None else ap if bp is None else min(ap, bp)
    if not ac:
        return QSeries(bc, bo, s, prec)
    if not bc:
        return QSeries(ac, ao, s, prec)
    lo = min(ao, bo)
    hi = max(ao + len(ac), bo + len(bc))
    out = [0] * (hi - lo)
    out[ao - lo : ao - lo + len(ac)] = ac
    for i, c in enumerate(bc):
        out[bo - lo + i] += c
    return QSeries(out, lo, s, prec)


def random_operand(rng):
    """A series on the grid 1/1, 1/2 or 1/3: exact, truncated (perhaps zero
    to its precision), the exact zero or a truncated zero."""
    scale = rng.choice((1, 2, 3))
    kind = rng.randrange(6)
    if kind == 0:
        return QSeries()
    if kind == 1:
        return QSeries.zero(Fraction(rng.randrange(-6, 12), scale))
    prec = (None if kind < 4
            else Fraction(rng.randrange(-6, 12), rng.choice((1, 2, 3))))
    return grid_series(rng, scale, prec, n=rng.randrange(1, 8))


class TestAdd:
    """QSeries.__add__, the two-term case of series._sum_lists, against
    the reference merge, byte for byte."""

    def test_against_reference_merge(self, rng):
        for _ in range(400):
            a, b = random_operand(rng), random_operand(rng)
            for x, y in ((a, b), (b, a), (a, -a), (a, a)):
                assert (x + y).to_json() == merged(x, y).to_json(), (x, y)

    def test_exact_zero_operand_gives_the_other_operand(self, rng):
        for _ in range(100):
            a = random_operand(rng)
            for x, y in ((a, QSeries.zero()), (QSeries.zero(), a)):
                assert (x + y).to_json() == merged(x, y).to_json()
                assert x + y is a or a == QSeries.zero()
            assert a + 0 is a and 0 + a is a

    def test_integer_operand(self, rng):
        for _ in range(50):
            a = random_operand(rng)
            n = rng.randrange(-3, 4)
            want = merged(a, QSeries((n,))).to_json()
            assert (a + n).to_json() == want
            assert (n + a).to_json() == want


class TestProductRule:
    """QSeries.__mul__ against the rule it keeps: an exact-zero operand
    gives the exact zero; otherwise the product is known to
    min(prec(a) + delta_lb(b), prec(b) + delta_lb(a)) over the truncated
    operands, and its coefficients are the termwise product's below that."""

    @given(operands(), operands())
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_precision_and_coefficients(self, a, b):
        got = a * b
        if a == QSeries.zero() or b == QSeries.zero():
            assert got.to_json() == QSeries.zero().to_json()
            return
        cuts = [x.prec_q + y.delta_lb() for x, y in ((a, b), (b, a))
                if x.prec is not None]
        prec = min(cuts) if cuts else None
        assert got.prec_q == prec
        prod = {}
        for ea, ca in a.terms():
            for eb, cb in b.terms():
                prod[ea + eb] = prod.get(ea + eb, 0) + ca * cb
        assert got.to_json() == mk(prod, prec).to_json()


class TestSeriesSum:
    """series.series_sum against a fold of the reference merge."""

    def test_mixed_grids_exact_and_truncated_terms(self, rng):
        for _ in range(150):
            terms = [random_operand(rng) for _ in range(rng.randrange(1, 7))]
            want = terms[0]
            for t in terms[1:]:
                want = merged(want, t)
            got = series.series_sum(terms)
            assert got.to_json() == want.to_json()
            precs = [t.prec_q for t in terms if not t.is_exact]
            assert got.prec_q == (min(precs) if precs else None)

    def test_empty_input_is_exact_zero(self):
        out = series.series_sum([])
        assert out == QSeries() and out.is_exact and out.is_zero
        assert series.series_sum(iter(())) == QSeries()

    def test_generator_input(self):
        want = mk({Fraction(i, 2): 1 for i in range(8)})
        got = series.series_sum(QSeries.monomial(Fraction(i, 2))
                                for i in range(8))
        assert got.to_json() == want.to_json()

    def test_lone_term_and_cancellation(self):
        x = mk({Fraction(1, 3): 2, 4: -1}, prec=9)
        assert series.series_sum([x]).to_json() == x.to_json()
        assert series.series_sum([QSeries(), x, QSeries.zero(10)]) == x
        assert series.series_sum([x, -x]) == QSeries.zero(9)


class TestSeriesDot:
    """series_dot against the sum of the QSeries products."""

    def test_mixed_grids(self, rng):
        for _ in range(20):
            pairs = [(grid_series(rng, rng.choice((1, 2, 3))),
                      grid_series(rng, rng.choice((1, 2, 3))))
                     for _ in range(rng.randrange(1, 6))]
            want = QSeries()
            for x, y in pairs:
                want = want + x * y
            assert series.series_dot(iter(pairs)) == want

    def test_kronecker_sized_products(self, rng):
        long = [(mk({i: rng.randrange(-9, 10) for i in range(90)}),
                 mk({Fraction(i, 2): rng.randrange(-9, 10) for i in range(80)}))
                for _ in range(3)]
        want = QSeries()
        for x, y in long:
            want = want + x * y
        assert series.series_dot(long) == want

    def test_empty_and_zero_operands(self):
        x = mk({Fraction(1, 3): 2, 4: -1})
        assert series.series_dot([]) == QSeries()
        assert series.series_dot([(QSeries(), x), (x, QSeries())]) == QSeries()
        assert series.series_dot([(QSeries(), x), (x, x)]) == x * x
        # products that cancel leave the exact zero
        assert series.series_dot([(x, x), (-x, x)]) == QSeries()

    @pytest.mark.parametrize("cut", [mk({0: 1, 1: 2}, prec=5), QSeries.zero(3)],
                             ids=["truncated", "zero_to_precision"])
    def test_truncated_operand_raises(self, cut):
        x = mk({0: 1, 2: -1})
        for pairs in ([(x, x), (x, cut)], [(cut, x)]):
            with pytest.raises(ExactnessError):
                series.series_dot(pairs)


BIG = st.integers(1 << 64, 1 << 70)
KERNEL_COEFF = st.one_of(st.sampled_from((1, -1)), st.integers(-9, 9), BIG,
                         BIG.map(lambda c: -c))


class TestAddScaled:
    """series._add_scaled against a naive double loop."""

    @staticmethod
    def naive(acc, lo, top, g, monos, e, u, n, sign):
        for x, c in monos:
            for i in range(n):
                if x + e + i * g < top:
                    acc[x + e + i * g - lo] += sign * c * u[i]

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(g=st.sampled_from((1, 2, 3)), sign=st.sampled_from((1, -1)),
           lo=st.integers(-6, 6), e=st.integers(0, 4),
           xs=st.lists(st.integers(0, 15), min_size=1, max_size=6,
                       unique=True),
           cs=st.lists(KERNEL_COEFF, min_size=6, max_size=6),
           u=st.lists(KERNEL_COEFF, min_size=1, max_size=10),
           spare=st.integers(0, 3), size=st.integers(0, 40),
           acc=st.lists(KERNEL_COEFF, min_size=40, max_size=40))
    def test_against_a_double_loop(self, g, sign, lo, e, xs, cs, u, spare,
                                   size, acc):
        # monomials ascending at or above lo - e; top cuts the counts
        monos = [(lo + x, c) for x, c in zip(sorted(xs), cs)]
        n = max(len(u) - spare, 0)  # u may hold more than n coefficients
        top = lo + size
        got, want = acc[:size], acc[:size]
        series._add_scaled(got, lo, top, g, monos, e, u, n, sign)
        self.naive(want, lo, top, g, monos, e, u, n, sign)
        assert got == want

    def test_unit_coefficients_add_and_subtract(self):
        acc = [10, 20, 30, 40, 50]
        series._add_scaled(acc, 0, 5, 2, [(0, 1), (1, -1)], 0, [1, 2, 3], 3,
                           -1)
        assert acc == [9, 21, 28, 42, 47]


class TestProducts:
    """_products against the QSeries sum of r_i P_i."""

    @staticmethod
    def reference(pairs, g, prec):
        acc = QSeries.zero(prec) if prec is not None else QSeries()
        for r, P in pairs:
            acc = acc + r * mk({Fraction(x, g): c for x, c in P})
        return acc if prec is None else acc.truncate(prec)

    def test_exact_and_truncated_residues(self, rng):
        for g in (1, 2, 3):
            for _ in range(10):
                pairs = []
                for _ in range(rng.randrange(1, 5)):
                    prec = rng.choice((None, None, rng.randrange(-3, 12)))
                    r = grid_series(rng, rng.choice((1, 2)), prec)
                    P = sorted(mk({Fraction(rng.randrange(-8, 9), g): 1
                                   for _ in range(3)}).terms())
                    pairs.append((r, [(int(e * g), c) for e, c in P]))
                for prec in (Fraction(17, 2), 5, None):
                    if prec is None and all(r.is_exact for r, _ in pairs):
                        continue
                    # _products reads prec in units of 1/g: put the
                    # monomials on the grid of g and prec
                    m = 1 if prec is None else Fraction(prec).denominator
                    got = series._products(
                        [(r, [(x * m, c) for x, c in P]) for r, P in pairs],
                        g * m, None if prec is None else int(prec * g * m))
                    assert got == self.reference(pairs, g, prec), (g, prec)

    def test_exact_residue_cuts_nothing(self):
        exact = mk({0: 1, 3: -2})
        P = [(-2, 1), (4, 3)]  # q^-1 + 3 q^2 on the half grid
        assert series._products([(exact, P)], 2, 20) == (
            exact * mk({-1: 1, 2: 3})).truncate(10)
        # next to a truncated r, only the truncated one sets the precision
        cut = mk({1: 1}, prec=4)
        got = series._products([(exact, P), (cut, [(0, 1)])], 2)
        assert got.prec_q == 4
        assert got == (exact * mk({-1: 1, 2: 3}) + cut)
