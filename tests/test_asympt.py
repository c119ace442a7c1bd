"""Numerical evaluation at roots of unity and perturbative extraction."""

import io
import json
import math
from fractions import Fraction

import mpmath as raw_mp
import pytest

import qhabiro
from qhabiro import (
    PHI_F,
    KnotSpec,
    PerturbSeries,
    QSeries,
    emit_csv,
    eval_root_of_unity,
    extract_phi,
    f_at_root,
    f_poly_exact,
    get_knot,
    growth_rate,
    load_knots,
    mirror,
    periodicity_check,
    phi_quotient_check,
    richardson,
    series_mul,
    series_sqrt_inv,
    tail_check,
    vol_41,
)
from qhabiro.asympt import (AsymptoticsError, ExtrapolationError,
                            PrecisionError as EvalPrecisionError)

QUOTIENT_TABLE_PREFIX = (1, 9, 513, 109593)


class TestExactPolys:
    def test_f2_oracle(self):
        # f_2 = [2 0] + [3 2] + [4 4] = 1 + (q^{-1}+1+q) + 1
        assert f_poly_exact("4_1", 2) == QSeries.from_terms(
            {-1: 1, 0: 3, 1: 1})

    def test_palindromic(self):
        for n in range(1, 8):
            p = f_poly_exact("4_1", n)
            assert p == p.mirror(), n


class TestRootEvaluation:
    def test_one_minus_q_at_minus_one(self):
        v = eval_root_of_unity(QSeries.from_terms({0: 1, 1: -1}), 2, 128)
        assert abs(v - 2) < 1e-30

    def test_f3_at_zeta3(self):
        v = eval_root_of_unity(f_poly_exact("4_1", 3), 3, 192)
        assert abs(v - 1) < 1e-20

    def test_insufficient_bits_reported(self):
        poly = QSeries.from_terms({i: 10 ** 9 for i in range(50)})
        with pytest.raises(EvalPrecisionError) as exc:
            eval_root_of_unity(poly, 7, 8)
        assert exc.value.suggested_bits > 8

    def test_bit_shortage_is_the_package_precision_error(self):
        # one PrecisionError for every layer: a QAlgebraError, and no longer
        # an AsymptoticsError
        poly = QSeries.from_terms({i: 10 ** 9 for i in range(50)})
        try:
            eval_root_of_unity(poly, 7, 8)
        except qhabiro.PrecisionError as exc:
            assert exc.suggested_bits > 8
            assert isinstance(exc, qhabiro.QAlgebraError)
            assert not isinstance(exc, qhabiro.AsymptoticsError)
        else:
            pytest.fail("no PrecisionError for 8 bits")

    def test_palindromic_values_are_real(self):
        for n in (2, 3, 5, 8):
            v = eval_root_of_unity(f_poly_exact("4_1", n), n, 256)
            assert abs(raw_mp.mp.im(v)) < 1e-40, n

    def test_fast_evaluator_matches_direct(self):
        for n in (1, 2, 3, 5, 9):
            for N in (n, 2 * n, 2 * n + 1):
                fast = f_at_root("4_1", n, N, 256)
                direct = eval_root_of_unity(f_poly_exact("4_1", n), N, 256)
                assert abs(fast - direct) < 1e-40, (n, N)


def figure_eight_copy() -> KnotSpec:
    """4_1's a-side under another name."""
    return KnotSpec("4_1copy", lambda k: QSeries.one())


@pytest.fixture(scope="module")
def file_knots(tmp_path_factory):
    """A monomial file knot with 3_1l's a-side, and a list file knot whose
    a_{-k-1}, k <= 12, lie on the half-integer grid."""
    half_grid = [QSeries.from_terms({Fraction(k, 2): 1, Fraction(-2 * k - 1, 2):
                                     -2, 1: k % 3}) for k in range(13)]
    path = tmp_path_factory.mktemp("knots") / "knots.json"
    path.write_text(json.dumps([
        {"name": "asympt_3_1l_a",
         "generator": {"kind": "monomial", "sign": {"alpha": 1, "beta": 1},
                       "exponent": {"c2": "1/2", "c1": "-1/2", "c0": -1}}},
        {"name": "asympt_half_grid",
         "generator": {"kind": "list",
                       "coeffs": [c.to_json() for c in half_grid]}},
    ]))
    return {spec.name: spec for spec in load_knots(path)}


class TestRootEvaluator:
    """f_at_root takes its path from the side a knot was given on, never
    from its name."""

    @pytest.mark.parametrize("name", [
        "unknot", "3_1l", "3_1r", "4_1", "unknot!", "3_1l!", "3_1r!", "4_1!",
        "asympt_3_1l_a", "asympt_half_grid", "4_1copy"])
    def test_matches_the_dense_polynomial(self, name, file_knots):
        if name == "4_1copy":
            knot = figure_eight_copy()
        elif name.endswith("!"):
            knot = mirror(name[:-1])
        else:
            knot = file_knots.get(name) or get_knot(name)
        for n in range(1, 13):
            for N in (n, 2 * n, 2 * n + 1):
                want = eval_root_of_unity(f_poly_exact(knot, n), N, 1024)
                got = f_at_root(knot, n, N)
                assert abs(got - want) <= 2.0 ** -64 * max(1, abs(want)), (n, N)

    def test_renamed_copy_equals_the_figure_eight(self):
        copy = figure_eight_copy()
        assert periodicity_check(copy, 40) == periodicity_check("4_1", 40)
        ns = [20, 30, 40, 50]
        assert growth_rate(copy, ns) == growth_rate("4_1", ns)
        assert copy.f._memo == {}  # the f-side cascade is never read

    def test_vanishing_values_pass_the_absolute_guard(self, file_knots):
        # 3_1l's f_n is 0 at n = 1 mod 3: the a-side sum cancels to noise
        # at the working precision, which the guard bounds by 2^-64
        knot = file_knots["asympt_3_1l_a"]
        for n in range(1, 41, 3):
            for N in (n, 2 * n, 2 * n + 1):
                assert abs(f_at_root(knot, n, N)) < 2.0 ** -64, (n, N)

    def test_inexact_a_side_rejected(self):
        knot = KnotSpec("t", lambda k: QSeries.one().truncate(3))
        with pytest.raises(AsymptoticsError, match="a_{-1}"):
            f_at_root(knot, 2, 5)


class TestRichardson:
    def test_harmonic_limit(self):
        seq = [(n, 1.0 + 1.0 / n) for n in range(10, 26)]
        assert abs(richardson(seq, 3) - 1.0) < 1e-9

    def test_order_zero_is_last_value(self):
        seq = [(5, 2.0), (9, 3.0)]
        assert richardson(seq, 0) == 3.0

    def test_too_few_points(self):
        with pytest.raises(ExtrapolationError):
            richardson([(3, 1.0)], 2)


@pytest.mark.parametrize("call,error,message", [
    (lambda: growth_rate("4_1", [0]), ValueError, "N > 0"),
    (lambda: f_at_root("4_1", 3, 0), ValueError, "N > 0"),
    (lambda: f_at_root("4_1", -1, 5), ValueError, "n >= 0"),
    (lambda: richardson([(5, 1.0), (5, 2.0)], 1), ExtrapolationError,
     "n = 5 appears twice"),
    (lambda: richardson([(0, 1.0), (5, 2.0)], 1), ValueError, "positive"),
    (lambda: tail_check("even", -1, 10), ValueError, "nonnegative"),
], ids=["growth-n0", "f41-N0", "f41-n-1", "richardson-repeat",
        "richardson-n0", "tail-n-1"])
def test_bad_sizes_rejected(call, error, message):
    # sizes the CLI never passes, rejected before any division by them
    with pytest.raises(error, match=message):
        call()


class TestPeriodicity:
    def test_period_five(self):
        rep = periodicity_check("4_1", 30)
        assert (rep.period, rep.phase) == (5, 1)
        # multiset over one period of f_{n-1}(zeta_n): the published target
        # {1, 1, 2, 2, (3-sqrt5)/2} that test_acceptance.py's test_13 pins
        expected = sorted([1.0, 1.0, 2.0, 2.0, (3 - math.sqrt(5)) / 2])
        assert len(rep.values) == 5
        for got, want in zip(rep.values, expected):
            assert abs(got - want) < 1e-9

    def test_stable_under_window_doubling(self):
        a = periodicity_check("4_1", 20)
        b = periodicity_check("4_1", 40)
        assert a.period == b.period == 5
        for x, y in zip(a.values, b.values):
            assert abs(x - y) < 1e-9

    def test_aperiodic_on_a_short_window(self):
        # period 5 from n = 1 needs n_max >= 10
        assert periodicity_check("4_1", 8) == (None, None, (), "aperiodic on window")

    @pytest.mark.parametrize("n_max", [12, 100])
    def test_unknot_locks_in_after_the_first_value(self, n_max):
        # f_{n-1}(zeta_n) = 1, 0, 0, ...: period 1 from n = 2 on
        rep = periodicity_check("unknot", n_max)
        assert (rep.period, rep.phase, rep.values) == (1, 2, (0.0,))


class TestGrowth:
    def test_volume_constant(self):
        v = float(vol_41(256))
        assert abs(v - 2.029883212819) < 1e-11

    def test_figure_eight_growth(self):
        res = growth_rate("4_1", list(range(40, 101, 10)), bits=320)
        assert abs(res.estimate - float(vol_41(256))) < 1e-3
        assert not res.flagged

    def test_unknot_growth_zero(self):
        res = growth_rate("unknot", [10, 20, 30, 40, 50], bits=192)
        assert abs(res.estimate) < 1e-9

    def test_figure_eight_bit_shortage_is_reported(self):
        # 16 bits cannot carry the cancellation in f_n(zeta_{2n}); the
        # fast evaluator says so instead of returning a wrong rate
        with pytest.raises(EvalPrecisionError) as exc:
            growth_rate("4_1", list(range(60, 101, 10)), bits=16)
        assert exc.value.suggested_bits > 16


class TestPerturbative:
    def test_quotient_prefix(self):
        assert phi_quotient_check(3) == QUOTIENT_TABLE_PREFIX

    def test_quotient_mod8(self):
        for c in phi_quotient_check(3):
            assert c % 8 == 1

    def test_sqrt_inv_first_order(self):
        # (1 + 4u + ...)^{-1/2} = 1 - 2u + ...
        t = series_sqrt_inv(PerturbSeries((Fraction(1), Fraction(4))))
        assert t.coeffs[1] == -2

    def test_mul_inverse_roundtrip(self):
        s = PerturbSeries(tuple(PHI_F.coeffs[:5]))
        inv2 = series_sqrt_inv(s)
        prod = series_mul(series_mul(inv2, inv2), s)
        assert prod.coeffs[0] == 1
        for c in prod.coeffs[1:]:
            assert c == 0

    def test_requires_unit_constant(self):
        with pytest.raises(AsymptoticsError):
            series_sqrt_inv(PerturbSeries((Fraction(2), Fraction(1))))

    def test_quotient_depth_guard(self):
        with pytest.raises(ValueError):
            phi_quotient_check(10)

    @pytest.mark.parametrize("knot", ["3_1l", "unknot"])
    def test_extraction_refuses_other_knots(self, knot):
        # the normalization is the figure-eight volume
        with pytest.raises(AsymptoticsError, match=knot):
            extract_phi(knot, 2, 60)


class TestCsv:
    def test_header_and_rows(self):
        buf = io.StringIO()
        emit_csv(buf, "4_1", 5, bits=192)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "n,re,im,modulus,normalized"
        assert len(lines) == 6
        assert lines[1].startswith("1,")

    def test_normalized_only_for_the_figure_eight(self):
        # the normalization is 4_1's volume: 4_1's rows are as before, and
        # every other knot keeps the header with an empty last cell
        buf = io.StringIO()
        emit_csv(buf, "4_1", 4, bits=192)
        assert buf.getvalue().splitlines() == [
            "n,re,im,modulus,normalized",
            "1,2.0,0.0,2.0,1.8154283229021224",
            "2,3.0,0.0,3.0,1.4271146007350098",
            "3,5.0,0.0,5.0,1.2465109062620378",
            "4,8.8284271247461901,0.0,8.8284271247461901,"
            "1.1534476762674718",
        ]
        buf = io.StringIO()
        emit_csv(buf, "3_1l", 4, bits=192)
        assert buf.getvalue().splitlines() == [
            "n,re,im,modulus,normalized",
            "1,0.0,0.0,0.0,", "2,-1.0,0.0,1.0,", "3,-1.0,0.0,1.0,",
            "4,0.0,0.0,0.0,",
        ]

    @pytest.mark.parametrize("knot", ["4_1", "3_1l", "3_1r", "unknot"])
    def test_rows_do_not_depend_on_bits(self, knot):
        # working-precision noise below the 64-bit guard prints as 0
        rows = set()
        for bits in (128, 192, 256, 512):
            buf = io.StringIO()
            emit_csv(buf, knot, 40, bits=bits)
            rows.add(buf.getvalue())
        assert len(rows) == 1
