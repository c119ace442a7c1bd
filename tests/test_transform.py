"""Coefficient transforms between the two series expansions."""

import hashlib
import json
import random
import sys
import threading
from fractions import Fraction
from math import comb, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhabiro import (
    CoeffSeq,
    DeltaAtLeast,
    LbcReport,
    PrecisionError,
    QSeries,
    a_from_f,
    f_from_a,
    get_knot,
    lbc_check,
    lbc_margin,
    omega_from_a,
    residue_family,
    residue_series,
    series,
    transform,
)

from conftest import a_from_f_closed, f_41_closed, random_laurent, seq_from_list


class TestLbc:
    def test_margin(self):
        assert lbc_margin(0) == 1
        assert lbc_margin(1) == 1
        assert lbc_margin(2) == 0
        assert lbc_margin(3) == -2

    def test_builtin_constants(self):
        assert lbc_check(get_knot("3_1r").a, 30).constant == 0
        assert lbc_check(get_knot("3_1l").a, 30).constant == -2
        assert lbc_check(get_knot("4_1").a, 30).constant == -1
        assert lbc_check(get_knot("unknot").a, 30).constant == -1


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["unknot", "3_1l", "3_1r", "4_1"])
    def test_builtin_a_f_a(self, name):
        a = get_knot(name).a
        back = a_from_f(f_from_a(a))
        for k in range(21):
            assert back[k] == a[k], (name, k)

    def test_random_f_a_f(self, rng):
        for _ in range(20):
            f = seq_from_list(
                "F", [random_laurent(rng) for _ in range(12)])
            there = a_from_f(f)
            back = f_from_a(there)
            for k in range(12):
                assert back[k] == f[k]

    def test_closed_route_matches_solve(self, rng):
        f = seq_from_list("F", [random_laurent(rng) for _ in range(8)])
        solve = a_from_f(f)
        for k in range(8):
            assert solve[k] == a_from_f_closed(f, k)

    def test_transform_is_surjective_unit_triangular(self):
        # the system is unit-triangular, so every exact sequence has an
        # exact preimage; the closed inverse's divisions always clear
        f = seq_from_list("F", [QSeries.monomial(1)] + [QSeries.zero()] * 5)
        solve = a_from_f(f)
        for k in range(6):
            closed = a_from_f_closed(f, k)
            assert closed == solve[k]
            assert closed.is_exact


class TestKnownTransforms:
    def test_41_f_from_a(self):
        # a = 1 gives f_n = sum_i [n+i choose 2i]
        f = f_from_a(get_knot("4_1").a)
        for n in range(21):
            assert f[n] == f_41_closed(n)

    def test_unknot_f_is_delta(self):
        f = f_from_a(get_knot("unknot").a)
        assert f[0] == QSeries.one()
        for k in range(1, 10):
            assert f[k].is_zero


def _binomial_sum(a, i):
    """f_i = sum_{k<=i} [k+i choose 2k] a_{-k-1}, product by product."""
    from qhabiro import qbinom

    return sum((qbinom(k + i, 2 * k) * a[k] for k in range(i + 1)),
               QSeries.zero())


def _back_substitution(f, K):
    """a_{-k-1} = f_k - sum_{j<k} [j+k choose 2j] a_{-j-1}, k <= K."""
    from qhabiro import qbinom

    a = []
    for k in range(K + 1):
        a.append(sum((-(qbinom(j + k, 2 * j) * a[j]) for j in range(k)),
                     f[k]))
    return a


def _random_grid_series(rng, scale, prec_prob=0.0, big=False):
    bound = 2 ** 90 if big else 5
    terms = {Fraction(rng.randint(-9, 9), scale): rng.randint(-bound, bound)
             for _ in range(rng.randint(0, 4))}
    prec = None
    if rng.random() < prec_prob:
        prec = Fraction(rng.randint(-6, 12), rng.choice((1, scale)))
        terms = {e: c for e, c in terms.items() if e < prec}
    return QSeries.from_terms(terms, prec)


class TestShiftAddRoute:
    """The shift-add cascade against the defining binomial sums."""

    @pytest.mark.parametrize("scale", [2, 3])
    def test_exact_fractional_grid(self, rng, scale):
        for big in (False, True):
            # an integer-grid head, so that the grid refines mid-cascade
            data = [QSeries.from_terms({-1: 2, 3: -1})]
            data += [_random_grid_series(rng, scale, big=big)
                     for _ in range(15)]
            f = f_from_a(seq_from_list("P", data))
            for i in range(20):
                assert f[i] == _binomial_sum(data + [QSeries.zero()] * 4, i), i
            back = a_from_f(f)
            for k in range(20):
                want = data[k] if k < len(data) else QSeries.zero()
                assert back[k] == want, k

    def test_truncated_inputs(self, rng):
        for scale in (1, 2, 3):
            data = [_random_grid_series(rng, scale, prec_prob=0.5)
                    for _ in range(14)]
            assert any(not d.is_exact for d in data)
            # QSeries equality compares the coefficients and the prec
            f = f_from_a(seq_from_list("P", data))
            for i in range(14):
                assert f[i] == _binomial_sum(data, i), i
            a = a_from_f(seq_from_list("F", data))
            for k, want in enumerate(_back_substitution(data, 13)):
                assert a[k] == want, k

    def test_slot_width_tracks_growth(self):
        # a = C gives C times the figure-eight's f_i, whose coefficients
        # grow far past the slot headroom; the closed form is independent.
        # Read index by index (one row per call) and by prefix (one batch)
        C = 2 ** 70 + 1
        for batched in (False, True):
            a = CoeffSeq("P", lambda k: QSeries.monomial(0, C))
            f = f_from_a(a)
            got = f.prefix(40) if batched else [f[i] for i in range(41)]
            for i in range(41):
                assert got[i] == C * f_41_closed(i), (batched, i)
            back = a_from_f(f)
            got = back.prefix(40) if batched else [back[k] for k in range(41)]
            for k in range(41):
                assert got[k] == QSeries.monomial(0, C), (batched, k)

    def test_out_of_order_access_is_lazy(self, rng):
        data = [_random_grid_series(rng, 2) for _ in range(12)]
        read = []

        def gen(k):
            read.append(k)
            return data[k]

        f = f_from_a(CoeffSeq("P", gen))
        top = 0
        for i in (7, 3, 11, 0, 9):
            top = max(top, i)
            assert f[i] == _binomial_sum(data, i), i
            assert max(read) == top, i
        assert sorted(read) == list(range(top + 1))
        a = a_from_f(CoeffSeq("F", gen))
        read.clear()
        assert a[5] == _back_substitution(data, 5)[5]
        assert max(read) == 5


def _sup(s):
    return max(map(abs, s.coeffs), default=0)


def _mixed_grid_data(rng, n, prec_prob):
    # an integer-grid head, then scales 1, 2 and 3 mixed
    return ([_random_grid_series(rng, 1, prec_prob) for _ in range(4)]
            + [_random_grid_series(rng, rng.choice((1, 2, 3)), prec_prob)
               for _ in range(n - 4)])


class TestBatchedRows:
    """A read of row k computes every missing row up to k in one batch."""

    @pytest.fixture
    def repacks(self, monkeypatch):
        """(old width, new width, stride) of each repack of a nonzero state."""
        calls = []
        repack = transform._repack

        def spy(z, old, new, stride):
            if z:
                calls.append((old, new, stride))
            return repack(z, old, new, stride)

        monkeypatch.setattr(transform, "_repack", spy)
        return calls

    @pytest.mark.parametrize("side", ["P", "F"])
    @pytest.mark.parametrize("prec_prob", [0.0, 0.5], ids=["exact", "truncated"])
    def test_batch_matches_index_order(self, rng, repacks, side, prec_prob):
        K = 16
        data = _mixed_grid_data(rng, K + 1, prec_prob)
        run = f_from_a if side == "P" else a_from_f

        def fresh():
            return run(seq_from_list(side, data))

        one = fresh()
        want = [one[k].to_json() for k in range(K + 1)]
        assert [s.to_json() for s in fresh().prefix(K)] == want
        # rows 0..3 on the integer grid first: the batch 4..K then refines
        # the grid of the states already held, by one stride-6 repack
        split = fresh()
        split[3]
        del repacks[:]
        assert [s.to_json() for s in split.prefix(K)] == want
        assert len(set(repacks)) == 1 and repacks[0][2] == 6  # one pass

    @pytest.mark.parametrize("side", ["P", "F"])
    def test_held_row_is_returned_without_planning(self, rng, monkeypatch,
                                                   side):
        data = _mixed_grid_data(rng, 13, 0.5)
        run = f_from_a if side == "P" else a_from_f
        want = [s.to_json() for s in run(seq_from_list(side, data)).prefix(12)]
        plans = []
        plan = transform._Cascade._plan

        def spy(self, xs, headroom):
            plans.append(len(xs))
            return plan(self, xs, headroom)

        monkeypatch.setattr(transform._Cascade, "_plan", spy)
        seq = run(seq_from_list(side, data))
        seq[12]
        assert plans == [13]
        # rows 0..11 are held by the cascade, not by the sequence's memo
        assert [seq[k].to_json() for k in range(12, -1, -1)] == want[::-1]
        assert plans == [13]

    def test_prefix_never_repacks(self, rng, repacks):
        K = 24
        data = _mixed_grid_data(rng, K + 1, 0.0)
        for a in (get_knot("3_1r").a, seq_from_list("P", data)):
            f_from_a(a).prefix(K)
            back = a_from_f(f_from_a(a)).prefix(K)
            assert back == a.prefix(K)
        assert repacks == []

    @pytest.mark.parametrize("K", [0, 5, 20, 51])
    def test_width_fits_the_batch_bound(self, rng, K):
        # the sup shadow of the dividing cascade is f_i at q = 1 with every
        # a_{-k-1} replaced by its sup norm; of the multiplying one, the
        # closed inverse at q = 1 with every sign + (ballot numbers)
        a = get_knot("3_1r").a
        f = f_from_a(a)
        f.prefix(K)
        b = max(sum(comb(k + i, 2 * k) * _sup(a[k]) for k in range(i + 1))
                for i in range(K + 1))
        assert f._gen._width == 8 * -(-(b.bit_length() + 1) // 8)
        data = seq_from_list("F", [random_laurent(rng) for _ in range(K + 1)])
        back = a_from_f(data)
        back.prefix(K)
        b = max(sum(comb(2 * k, k - i) * (2 * i + 1) // (k + i + 1)
                    * _sup(data[i]) for i in range(k + 1))
                for k in range(K + 1))
        assert back._gen._width == 8 * -(-(b.bit_length() + 1) // 8)


def _assert_live(seq):
    """Every nonzero state of the sequence's cascade holds a nonzero
    coefficient in slot 0: no cancelled low slots are carried along."""
    g = seq._gen
    mask = (1 << g._width) - 1
    for t, z in enumerate(g._z):
        assert not z or abs(z) & mask, t


class TestLiveSlots:
    """The cascades keep their states normalised (see transform._Cascade),
    read by prefix and index by index, on both sides."""

    @staticmethod
    def check(source, K=24):
        run = f_from_a if source.side == "P" else a_from_f
        by_prefix = run(source)
        rows = by_prefix.prefix(K)
        _assert_live(by_prefix)
        one = run(source)
        for k in range(K + 1):
            assert one[k] == rows[k], k
            _assert_live(one)

    @pytest.mark.parametrize("name", ["unknot", "3_1l", "3_1r", "4_1"])
    def test_builtin_knots(self, name):
        knot = get_knot(name)
        self.check(knot.a, 51)
        self.check(knot.f)

    @pytest.mark.parametrize("side", ["P", "F"])
    @pytest.mark.parametrize("scale", [1, 2, 3])
    @pytest.mark.parametrize("prec_prob", [0.0, 0.5], ids=["exact", "truncated"])
    def test_random_grids(self, rng, side, scale, prec_prob):
        for _ in range(3):
            self.check(seq_from_list(side, [
                _random_grid_series(rng, scale, prec_prob) for _ in range(25)]))
        self.check(seq_from_list(side, _mixed_grid_data(rng, 25, prec_prob)))

    @pytest.mark.parametrize("side", ["P", "F"])
    def test_state_cancelling_to_zero(self, side):
        # row 1's aligned add at filter 0 cancels exactly, a_{-1} + a_{-2}
        # on the dividing side and f_1 - f_0 on the multiplying one, and
        # the zero state runs on to row 1's output
        one, q = QSeries.one(), QSeries.monomial(1)
        data = [one, -one if side == "P" else one, q, 2 * q, -q]
        run = f_from_a if side == "P" else a_from_f
        assert run(seq_from_list(side, data))[1].is_zero
        self.check(seq_from_list(side, data))


def _known(s):
    """s's known terms as an exact polynomial."""
    return QSeries(s.coeffs, s.offset, s.scale)


def _closed_prec(data, i, divide):
    """Row i's precision by the defining sums: min_k p_k - k(i-k) for
    f_from_a, min_k p_k + binom(k,2) - binom(i,2) for a_from_f, over the
    truncated inputs k <= i; None if there is none."""
    return min((d.prec_q - (k * (i - k) if divide
                            else comb(i, 2) - comb(k, 2))
                for k, d in enumerate(data[:i + 1]) if d.prec is not None),
               default=None)


@st.composite
def cascade_inputs(draw):
    """(side, inputs, the indices read one after another): inputs on the
    grids 1/1-1/3, exact, truncated or zero to their precision, some with
    coefficients past the slots' headroom."""
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        scale = draw(st.sampled_from((1, 2, 3)))
        size = draw(st.sampled_from((5, 5, 2 ** 70)))
        terms = draw(st.dictionaries(st.integers(-9, 9),
                                     st.integers(-size, size), max_size=4))
        s = QSeries.from_terms({Fraction(e, scale): c
                                for e, c in terms.items()})
        kind = draw(st.sampled_from(("exact", "cut", "cut", "zero")))
        if kind != "exact":
            prec = Fraction(draw(st.integers(-6, 12)), scale)
            s = s.truncate(prec) if kind == "cut" else QSeries.zero(prec)
        rows.append(s)
    top = len(rows) + 1
    reads = sorted(draw(st.lists(st.integers(0, top), max_size=3))) + [top]
    return draw(st.sampled_from("PF")), rows, reads


class TestPrecisionRule:
    """A cascade's row precision, followed state by state, is the defining
    sums' rule, and its cut states give the rows of an uncut cascade (the
    same inputs' known terms, exact) truncated there."""

    @given(cascade_inputs())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_rows_against_the_rule_and_the_uncut_cascade(self, case):
        side, data, reads = case
        run = f_from_a if side == "P" else a_from_f
        seq = run(seq_from_list(side, data))
        for k in reads:  # one batch, or several
            seq[k]
        uncut = run(seq_from_list(side, [_known(d) for d in data]))
        for i in range(reads[-1] + 1):
            p = _closed_prec(data, i, side == "P")
            assert seq[i].prec_q == p, i
            want = uncut[i] if p is None else uncut[i].truncate(p)
            assert seq[i] == want, i
        g = seq._gen
        if all(d.is_exact for d in data):
            assert g._prec is None  # an exact cascade follows no precision
        else:
            for z, b, p in zip(g._z, g._base, g._prec):
                assert z == transform._cut(z, p - b, g._width)

    def test_exact_knots_follow_no_precision(self):
        for name in ("3_1l", "3_1r", "4_1", "unknot"):
            for seq in (f_from_a(get_knot(name).a), a_from_f(get_knot(name).f)):
                seq.prefix(20)
                assert seq._gen._prec is None, name


class TestStrip:
    """transform._strip drops a packed state's zero low slots, within the
    low 16 slots and past them."""

    @given(st.sampled_from((8, 16, 64)), st.data())
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_against_the_slots(self, width, data):
        half = 2 ** (width - 1) - 1
        zeros = data.draw(st.sampled_from((0, 1, 15, 16, 17, 40)))
        coeffs = [0] * zeros + data.draw(st.lists(
            st.integers(-half, half), max_size=6))
        z = series._pack(coeffs, width) if coeffs else 0
        base = data.draw(st.integers(-5, 5))
        k = next((i for i, c in enumerate(coeffs) if c), None)
        want = (0, base) if k is None else (
            series._pack(coeffs[k:], width), base + k)
        assert transform._strip(z, base, width, (1 << width) - 1) == want


class TestCut:
    """transform._cut keeps a packed state's slots below n."""

    @given(st.sampled_from((8, 16)), st.data())
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_against_the_slots(self, width, data):
        half = 2 ** (width - 1) - 1  # |c_i| < 2^(width-1), as in a cascade
        coeffs = data.draw(st.lists(st.one_of(st.integers(-half, half),
                                              st.sampled_from((-half, half))),
                                    max_size=8))
        z = series._pack(coeffs, width) if coeffs else 0
        n = data.draw(st.integers(-2, len(coeffs) + 2))
        want = series._pack(coeffs[:n], width) if n > 0 and coeffs else 0
        assert transform._cut(z, n, width) == want
        assert transform._cut(z, inf, width) == z

    def test_edges(self):
        w = 8
        top = 127  # the largest slot a cascade holds
        for c in (-top, -1, 1, top):
            z = series._pack([c, -c, c], w)
            assert transform._cut(z, 0, w) == 0
            assert transform._cut(z, -3, w) == 0
            assert transform._cut(z, 3, w) == z  # exactly the slots held
            assert transform._cut(z, 2, w) == series._pack([c, -c], w)
            assert transform._cut(z, 1, w) == c
        # a low part at the edge of [-h, h), under a high slot of 1
        low = series._pack([-top, -top], w)
        assert transform._cut(low + (1 << 2 * w), 2, w) == low
        assert transform._cut(-low - (1 << 2 * w), 2, w) == -low


class TestMirror:
    """q -> 1/q commutes with both transforms, as the factors (1 - q^l x)
    come in pairs l, -l; an oracle that does not read the packing."""

    @staticmethod
    def mirrored(seq, K):
        return [s.mirror().to_json() for s in seq.prefix(K)]

    @pytest.mark.parametrize("side", ["P", "F"])
    def test_random_exact_data(self, rng, side):
        run = f_from_a if side == "P" else a_from_f
        K = 24
        for _ in range(4):
            data = _mixed_grid_data(rng, K + 1, 0.0)
            flip = [s.mirror() for s in data]
            got = [s.to_json()
                   for s in run(seq_from_list(side, flip)).prefix(K)]
            assert got == self.mirrored(run(seq_from_list(side, data)), K)

    def test_trefoil_pair(self):
        K = 51
        left, right = get_knot("3_1l"), get_knot("3_1r")
        for run, side in ((f_from_a, "a"), (a_from_f, "f")):
            got = [s.to_json()
                   for s in run(getattr(right, side)).prefix(K)]
            assert got == self.mirrored(run(getattr(left, side)), K), side
        # the chiral pair costs the cascade about the same work
        bits = []
        for knot in (left, right):
            f = f_from_a(knot.a)
            f.prefix(K)
            bits.append(sum(z.bit_length() for z in f._gen._z))
        assert bits[1] <= 1.25 * bits[0], bits


class TestFrozenRows:
    """Both cascades and the LBC audit pinned byte for byte on truncated
    inputs on the grids 1/1, 1/2 and 1/3: sha256 of the canonical JSON,
    computed with Fraction precisions in the cascade and Fraction margins
    in lbc_check."""

    K = 24

    def datasets(self):
        out = [_mixed_grid_data(random.Random(seed), self.K + 1, 0.5)
               for seed in (1, 2, 3)]
        # wide coefficients too, so that the slots widen mid-cascade
        rng = random.Random(4)
        out.append([_random_grid_series(rng, rng.choice((1, 2, 3)), 0.5,
                                        big=k % 5 == 2)
                    for k in range(self.K + 1)])
        # rows a step off the grid from their LBC margin, so that C is
        # fractional: monomials, truncated ones and truncated zeros
        rows = []
        for k in range(self.K + 1):
            scale = rng.choice((2, 3))
            d = lbc_margin(k) + Fraction(rng.choice(
                [n for n in range(-7, 8) if n % scale]), scale)
            s = QSeries.from_terms({d: rng.choice((-1, 2)), d + 2: 1})
            rows.append((s, s.truncate(d + 1), QSeries.zero(d))[k % 3])
        return out + [rows]

    def test_rows(self):
        records = []
        for data in self.datasets():
            for side, run in (("P", f_from_a), ("F", a_from_f)):
                by_prefix = run(seq_from_list(side, data)).prefix(self.K)
                one = run(seq_from_list(side, data))
                by_index = [one[k] for k in range(self.K + 1)]
                assert by_prefix == by_index, side
                records.append([s.to_json() for s in by_prefix])
        blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == \
            "d711b9b965c9fda46200393142eced60ae6c409515346071338033610a2caa9b"

    def test_lbc_reports(self):
        records = []
        for data in self.datasets():
            for a in (seq_from_list("P", data),
                      a_from_f(seq_from_list("F", data))):
                for K in range(self.K + 1):
                    r = lbc_check(a, K)
                    records.append([r.checked_range, str(r.constant),
                                    list(r.indeterminate)])
        blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == \
            "66958a222374cdd14fc99d82abdc86ef2577a9451831e78c717d2a3b55596971"


def lbc_check_by_fractions(a: CoeffSeq, K: int) -> LbcReport:
    """lbc_check as it ran on Fraction margins: the reference for it."""
    best = inf
    indeterminate = []
    for k, s in enumerate(a.prefix(K)):
        d = s.delta()
        if isinstance(d, DeltaAtLeast):
            indeterminate.append(k)
            d = d.bound
        if d == inf:
            continue
        margin = d - lbc_margin(k)
        if margin < best:
            best = margin
    if best == inf:
        best = Fraction(0)
    return LbcReport(K, Fraction(best), tuple(indeterminate))


def f_bound_by_fractions(f: CoeffSeq, C, K: int) -> bool:
    """Gukov-Manolescu's f-side bound delta(f_i) >= lbc_margin(i) + C for
    all i <= K, on Fraction bounds: the reference for lbc_check on an
    F-side."""
    for i in range(K + 1):
        if f[i].delta_lb() < lbc_margin(i) + C:
            return False
    return True


@st.composite
def rows_near_the_bounds(draw, kinds=("poly", "cut", "zero", "exact")):
    """Coefficients whose degrees sit within a few steps of -binom(k,2),
    near both the LBC margin and the f-side bound, on the grids 1/1, 1/2
    and 1/3: polynomials, truncated ones, truncated zeros and exact zeros
    (``kinds`` picks among them)."""
    rows = []
    for k in range(draw(st.integers(0, 10))):
        scale = draw(st.sampled_from((1, 2, 3)))
        d = Fraction(-k * (k - 1), 2) + Fraction(draw(st.integers(-8, 8)),
                                                  scale)
        kind = draw(st.sampled_from(kinds))
        if kind == "exact":
            rows.append(QSeries.zero())
        elif kind == "zero":
            rows.append(QSeries.zero(d))
        else:
            s = QSeries.from_terms({d: draw(st.sampled_from((-2, 1))),
                                    d + Fraction(1, scale): 3})
            if kind == "cut":
                s = s.truncate(d + Fraction(draw(st.integers(1, 3)), scale))
            rows.append(s)
    return rows


class TestFractionRules:
    """lbc_check on both sides against its Fraction references."""

    @given(rows_near_the_bounds(),
           st.one_of(st.integers(-6, 4),
                     st.builds(Fraction, st.integers(-12, 8),
                               st.sampled_from((2, 3)))))
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_equal_reports_and_booleans(self, rows, C):
        a = seq_from_list("P", rows)
        for K in range(len(rows) + 1):
            got, want = lbc_check(a, K), lbc_check_by_fractions(a, K)
            assert repr(got) == repr(want), K
        f = seq_from_list("F", rows)
        # C given, and C read off an LbcReport of the same rows; a prefix
        # with no terms meets every C
        for c in (C, want.constant):
            for K in range(len(rows) + 1):
                meets = lbc_check(f, K).constant >= c or \
                    all(x.low is None for x in f.prefix(K))
                assert meets == f_bound_by_fractions(f, c, K), (c, K)


class TestConcurrentAccess:
    def test_threads_share_one_cascade(self, rng):
        data = [random_laurent(rng) for _ in range(30)]
        want = f_from_a(seq_from_list("P", data)).prefix(29)
        f = f_from_a(seq_from_list("P", data))
        orders = [rng.sample(range(30), 30) for _ in range(6)]
        got = [dict() for _ in orders]

        def work(order, out):
            for i in order:
                out[i] = f[i]

        threads = [threading.Thread(target=work, args=job)
                   for job in zip(orders, got)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for out in got:
            assert [out.get(i) for i in range(30)] == want


class TestDegreeBound:
    """Gukov-Manolescu's f-side bound delta(f_i) >= 1 - binom(i,2) + C is
    the LBC on the f-side: lbc_check of an F-side sequence."""

    def test_bound_values(self):
        assert lbc_margin(0) + 0 == 1
        assert lbc_margin(2) - 1 == -1
        assert all(lbc_margin(i) == 1 - comb(i, 2) for i in range(200))

    def test_builtin_degree_checks(self):
        assert lbc_check(get_knot("3_1r").f, 15).constant >= 0
        assert lbc_check(get_knot("4_1").f, 15).constant >= -1
        assert lbc_check(get_knot("3_1l").f, 15).constant >= -2

    def test_violation_detected(self):
        bad = seq_from_list("F", [QSeries.monomial(-50)])
        assert lbc_check(bad, 3).constant < 0

    @pytest.mark.parametrize("name", ["unknot", "3_1l", "3_1r", "4_1"])
    def test_builtin_sides_agree(self, name):
        knot = get_knot(name)
        for K in range(61):
            assert lbc_check(knot.a, K) == lbc_check(knot.f, K), K

    @given(rows_near_the_bounds(kinds=("poly", "exact")),
           st.sampled_from(("P", "F")))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_a_sequence_and_its_transform_agree(self, rows, side):
        s = seq_from_list(side, rows)
        t = (f_from_a if side == "P" else a_from_f)(s)
        for K in range(len(rows) + 1):
            assert lbc_check(s, K).constant == lbc_check(t, K).constant, K


class TestCoeffSeq:
    def test_index_beyond_data(self):
        s = CoeffSeq("F", lambda k: QSeries.one(), max_index=4)
        s[4]
        with pytest.raises(PrecisionError,
                           match="up to index 4 only; index 5 was read"):
            s[5]
        with pytest.raises(IndexError):
            s[-1]

    @pytest.mark.parametrize("read", [
        lambda a: residue_series(a, 0, 40, -2),
        lambda a: residue_family(a, 2, 40, -2),
        lambda a: lbc_check(a, 10),
        lambda a: omega_from_a(a, 10),
        lambda a: f_from_a(a)[7],
    ], ids=["residue_series", "residue_family", "lbc_check", "omega_from_a",
            "f_from_a"])
    def test_reads_past_finite_data_name_the_last_index(self, read):
        a = CoeffSeq("P", get_knot("3_1l").a.__getitem__, max_index=6)
        with pytest.raises(PrecisionError, match="up to index 6 only"):
            read(a)

    def test_memoized(self):
        calls = []

        def gen(k):
            calls.append(k)
            return QSeries.one()

        s = CoeffSeq("F", gen)
        s[3]
        s[3]
        assert calls.count(3) == 1
