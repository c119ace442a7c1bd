"""End-to-end acceptance suite.

Each test pins one headline guarantee of the library — table-level
regressions against published residue data, exact identity checks, route
equivalences, and numerical asymptotics — together with a wall-clock
budget.  Oracles are frozen literals; nothing here is derived from the
code under test.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from qhabiro import (
    QSeries,
    SurgeryParams,
    a_from_f,
    branch_residue_41,
    extract_phi,
    f_from_a,
    get_knot,
    growth_rate,
    lbc_check,
    lbc_margin,
    omega_from_a,
    omega_mul,
    park_poly_explicit,
    park_poly_residue,
    periodicity_check,
    phi_quotient_check,
    residue_family,
    residue_theorem_check,
    residues_from_f,
    tail_check,
    trefoil_recurrence_check,
    zhat_via_fk,
    zhat_via_ih,
    zhat_via_residues,
)
from qhabiro.transform import CoeffSeq

from conftest import inv_qpoch_inf, lbc_product_bound, verify_sigma_product

# Certified lower-bound-condition constants of the builtin knots.
LBC = {"3_1l": Fraction(-2), "3_1r": Fraction(0), "4_1": Fraction(-1)}


@contextmanager
def budget(seconds):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, "budget exceeded: %.1fs > %ds" % (elapsed, seconds)


# -- frozen residue tables (right-handed trefoil and figure-eight) ----------

TABLE_31R = {
    0: ({1: 1, 2: 1, 3: 3, 4: 6, 5: 12, 6: 21, 7: 38, 8: 63, 9: 106,
         10: 170}, 11),
    1: ({3: -1, 4: -2, 5: -5, 6: -9, 7: -18, 8: -31, 9: -55, 10: -91,
         11: -151, 12: -240}, 13),
    2: ({6: 1, 7: 2, 8: 5, 9: 10, 10: 20, 11: 35, 12: 63, 13: 105,
         14: 175, 15: 280}, 16),
    3: ({10: -1, 11: -2, 12: -5, 13: -10, 14: -20, 15: -36, 16: -65,
         17: -109, 18: -183, 19: -295}, 20),
    4: ({15: 1, 16: 2, 17: 5, 18: 10, 19: 20, 20: 36, 21: 65, 22: 110,
         23: 185, 24: 299}, 25),
}

TABLE_41 = {
    0: ({0: -1, 1: 1, 2: 2, 3: 2, 4: 2, 6: -1, 7: -5, 8: -7, 9: -11}, 10),
    1: ({2: -1, 3: -1, 4: -1, 6: 1, 7: 3, 8: 5, 9: 7, 10: 9, 11: 10}, 12),
    2: ({6: -1, 7: -1, 8: -2, 9: -2, 10: -3, 11: -2, 12: -2, 14: 2,
         15: 6}, 16),
    3: ({12: -1, 13: -1, 14: -2, 15: -3, 16: -4, 17: -5, 18: -7, 19: -7,
         20: -8, 21: -8}, 22),
    4: ({20: -1, 21: -1, 22: -2, 23: -3, 24: -5, 25: -6, 26: -9, 27: -11,
         28: -15, 29: -17}, 30),
}

TAIL_EVEN = {0: 1, 1: 3, 2: 4, 3: 7, 4: 13, 5: 19, 6: 29, 7: 43}
TAIL_ODD = {0: 2, 1: 2, 2: 6, 3: 8, 4: 14, 5: 20, 6: 34, 7: 46}


def test_01_table_regression():
    with budget(10):
        fam = residue_family(get_knot("3_1r").a, 4, 25, LBC["3_1r"])
        for j, (terms, cut) in TABLE_31R.items():
            assert fam.r(j).truncate(cut) == QSeries.from_terms(
                terms, prec=cut), ("3_1r", j)
        fam = residue_family(get_knot("4_1").a, 4, 30, LBC["4_1"])
        for j, (terms, cut) in TABLE_41.items():
            assert fam.r(j).truncate(cut) == QSeries.from_terms(
                terms, prec=cut), ("4_1", j)


def test_02_residue_theorem_classical_identities():
    # the vanishing defect encodes, per knot, the pentagonal-number
    # identity, a Hecke-Rogers identity, and a 1/(q)_inf summation
    with budget(30):
        for name, C in LBC.items():
            defect = residue_theorem_check(get_knot(name).a, 50, C)
            assert defect.is_zero, name


def _connected_sum_l_r():
    # q-degrees of everything that consumes a_{-k-1} grow like binom(k+1,2),
    # so the per-index precision may decay at that rate without losing any
    # order below 50
    profile = lambda k: 55 + k - k * (k - 1) // 2
    left = omega_from_a(get_knot("3_1l").a, 52)
    right = omega_from_a(get_knot("3_1r").a, 52)
    return omega_mul(left, right, 52, prec=profile)


def test_03_theta_route_equivalence():
    with budget(60):
        prec = 50
        for name, C in LBC.items():
            spec = get_knot(name)
            fam = residue_family(spec.a, 2, prec, C)
            for j in (0, 1, 2):
                via_theta = residues_from_f(spec.f, j, prec - C, C)
                assert via_theta.truncate(prec) == fam.r(j).truncate(prec), \
                    (name, j)
        el = _connected_sum_l_r()
        C = el.lbc.constant
        assert C == Fraction(-1)
        fam = residue_family(el.a, 2, prec, el.lbc)
        f = f_from_a(el.a)
        for j in (0, 1, 2):
            via_theta = residues_from_f(f, j, prec - C, C)
            assert via_theta.truncate(prec) == fam.r(j).truncate(prec), j


def test_04_transform_round_trip():
    with budget(60):
        K = 50
        for name in LBC:
            spec = get_knot(name)
            back_a = a_from_f(f_from_a(spec.a))
            back_f = f_from_a(a_from_f(spec.f))
            for k in range(K + 1):
                assert back_a[k] == spec.a[k], (name, k)
                assert back_f[k] == spec.f_coeff(k), (name, k)
        rng = random.Random(20240817)

        def rand_poly():
            return QSeries.from_terms(
                {rng.randint(-4, 4): rng.randint(-5, 5)
                 for _ in range(rng.randint(1, 3))})

        # converse-direction preimages of dense inputs grow quadratically,
        # so most of the random budget goes to the forward composition
        for trial in range(200):
            support = rng.randint(0, K)
            data = [rand_poly() for _ in range(support + 1)]
            side = "P" if trial % 8 != 7 else "F"
            seq = CoeffSeq(side, lambda k, d=data:
                           d[k] if k < len(d) else QSeries.zero())
            if side == "P":
                back = a_from_f(f_from_a(seq))
            else:
                back = f_from_a(a_from_f(seq))
            for k in range(K + 1):
                want = data[k] if k <= support else QSeries.zero()
                assert back[k] == want, (trial, k)


def test_05_multiplication_theorem_instances():
    with budget(120):
        for m in range(-6, 1):
            for n in range(-6, 1):
                assert verify_sigma_product(m, n, 10, 40), (m, n)


def _random_lbc_element(rng, depth=8):
    data = []
    for k in range(depth):
        poly = {lbc_margin(k) + j: rng.randint(-3, 3) for j in range(3)}
        data.append(QSeries.from_terms(poly))
    seq = CoeffSeq("P", lambda k, d=data: d[k] if k < len(d) else QSeries.zero())
    return omega_from_a(seq, depth + 2)


def test_06_omega_ring_laws():
    with budget(60):
        rng = random.Random(6)
        L, prec = 8, 30
        for _ in range(4):
            x = _random_lbc_element(rng)
            y = _random_lbc_element(rng)
            xy = omega_mul(x, y, L, prec)
            yx = omega_mul(y, x, L, prec)
            for k in range(L):
                assert xy.a[k].truncate(prec) == yx.a[k].truncate(prec), k
        for _ in range(3):
            x = _random_lbc_element(rng)
            y = _random_lbc_element(rng)
            z = _random_lbc_element(rng)
            # inner products carry extra precision so the outer ones stay
            # certified through O(q^30) despite negative valuations
            left = omega_mul(omega_mul(x, y, L, prec + 20), z, L, prec)
            right = omega_mul(x, omega_mul(y, z, L, prec + 20), L, prec)
            for k in range(L):
                assert left.a[k].truncate(prec) == right.a[k].truncate(prec), k
        for name, C2 in (("3_1l", Fraction(-4)), ("3_1r", Fraction(0))):
            el = omega_from_a(get_knot(name).a, 12)
            assert el.lbc.constant + el.lbc.constant == C2
            sq = omega_mul(el, el, 10, 40)
            assert lbc_product_bound(el, el, 10, product=sq, prec=40), name


def test_07_surgery_route_agreement():
    with budget(60):
        prec = 40
        for name in ("3_1l", "3_1r", "4_1"):
            for p in (-1, -2, -3):
                for a in range(abs(p)):
                    params = SurgeryParams(p, a, prec)
                    routes = [zhat_via_fk(name, params),
                              zhat_via_residues(name, params),
                              zhat_via_ih(name, params)]
                    base = routes[0].series.truncate(prec)
                    for other in routes[1:]:
                        assert other.series.truncate(prec) == base, (name, p, a)


def test_08_park_polynomials():
    with budget(120):
        for p in (1, 2, 3):
            for a in range(p):
                for k in range(1, 11):
                    exp = park_poly_explicit(p, a, k)
                    res = park_poly_residue(p, a, k)
                    assert exp.is_exact and exp.scale == 1, (p, a, k)
                    assert res.scale == 1, (p, a, k)
                    cut = res.prec_q
                    assert exp.truncate(cut) == res.truncate(cut), (p, a, k)
                # k = 0 boundary: the explicit j-sum is empty, while the
                # residue form keeps the theta constant term, which lies
                # in the class exactly when a = 0
                assert park_poly_explicit(p, a, 0) == QSeries.zero(), (p, a)
                res = park_poly_residue(p, a, 0)
                want = QSeries.one() if a == 0 else QSeries.zero()
                assert res == want.truncate(res.prec_q), (p, a)


def test_09_lbc_constants():
    assert lbc_check(get_knot("3_1r").a, 30).constant == 0
    assert lbc_check(get_knot("3_1l").a, 30).constant == -2


def test_10_trefoil_residue_recurrences():
    with budget(10):
        assert trefoil_recurrence_check("L", 6, 40)
        assert trefoil_recurrence_check("R", 6, 40)


def test_11_figure_eight_tails():
    with budget(30):
        for parity, oracle in (("even", TAIL_EVEN), ("odd", TAIL_ODD)):
            normalized, target, agree_to = tail_check(parity, 10, 12)
            want = QSeries.from_terms(oracle, prec=8)
            assert target.truncate(8) == want, parity
            assert normalized.truncate(8) == want, parity
            assert agree_to >= 8, parity


def test_12_nonabelian_branch_residues():
    with budget(30):
        prec = 40
        inv = inv_qpoch_inf(prec + 10)
        fam = residue_family(get_knot("4_1").a, 3, prec + 10, LBC["4_1"])
        for j in range(-3, 4):
            lhs = branch_residue_41("+1/2", j, prec)
            rhs = (fam.r(j) * inv).truncate(prec)
            assert lhs.truncate(prec) == rhs, j


def test_13_periodicity_at_roots_of_unity():
    with budget(120):
        report = periodicity_check("4_1", 100, bits=256)
        assert report.period == 5
        # published target multiset {1, 1, 2, 2, (3 - sqrt 5)/2}
        expected = sorted([1.0, 1.0, 2.0, 2.0, (3 - math.sqrt(5)) / 2])
        got = sorted(report.values)
        assert len(got) == 5
        for g, e in zip(got, expected):
            assert abs(g - e) <= 1e-9, (got, expected)


def test_14_volume_growth():
    with budget(600):
        result = growth_rate("4_1", list(range(60, 201, 20)))
        assert result.order == 4
        assert abs(result.estimate - 2.0298832) < 1e-3


@pytest.mark.slow
def test_15_perturbative_extraction():
    with budget(1800):
        phi = extract_phi("4_1", 2, 400, bits=512)
        c0, c1, c2 = (float(c) for c in phi.coeffs[:3])
        assert abs(c0 - 1) < 0.01
        assert abs(c1 - 4) / 4 < 0.01
        assert abs(c2 - 304) / 304 < 0.02


def test_16_perturbative_quotient_integrality():
    assert phi_quotient_check(3) == (1, 9, 513, 109593)
