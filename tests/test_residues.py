"""Residue families, the residue theorem, and derived identities."""

import hashlib
import json
import math
from fractions import Fraction

import pytest

from qhabiro import (
    CoeffSeq,
    DegreeBoundError,
    LbcError,
    QSeries,
    branch_residue_41,
    descendant,
    f_from_a,
    get_knot,
    omega_from_a,
    omega_mul,
    poch,
    residue_family,
    residue_series,
    residue_sigma,
    residue_theorem_check,
    residue_theorem_window,
    residues_from_f,
    series_invert_unit,
    series_sum_bounded,
    tail_check,
    trefoil_recurrence_check,
)

from qhabiro import residues
from qhabiro.residues import (ResidueFamily, _binom2, _inv_poch_product,
                              _j_window)
from qhabiro.series import ExpLike, PrecisionError

from conftest import inv_qpoch_inf, residue_plus_q_at, seq_from_list


def f_from_residues(rf: ResidueFamily, k: int, prec: ExpLike) -> QSeries:
    """f_k = -r_0 - sum_{j>=1} (q^{-j(k+1)} + q^{jk}) r_j."""
    target = Fraction(prec)
    j_need = _j_window(k, target.numerator, target.denominator,
                       rf.lbc_constant)
    if j_need > rf.J:
        raise PrecisionError("enlarge J")
    acc = -rf.r(0)
    for j in range(1, j_need + 1):
        acc = acc - (rf.r(j).shift(-j * (k + 1)) + rf.r(j).shift(j * k))
    if not acc.is_exact and acc.prec_q < target:
        raise PrecisionError("enlarge J")
    return acc.truncate(target)


def theta_route_termwise(f, j, prec, C):
    """The theta route one QSeries term per k: theta_k by monomial
    additions, then (acc + f_k q^{binom(k+1,2)} theta_k).truncate(prec),
    skipping only the exact-zero f_k."""
    target, C = Fraction(prec), Fraction(C)
    acc = QSeries.zero(target)
    for k in range(max(abs(j), math.ceil(target - C - 1)) + 1):
        fk = f[k]
        if fk.is_zero and fk.is_exact:
            continue
        base_delta = fk.delta_lb() + Fraction(k * (k + 1), 2)
        theta = QSeries.one()
        n = 1
        while True:
            e = Fraction(n * (n + 1), 2) + n * k
            if e - n * abs(j) + base_delta >= target and n > abs(j) - k:
                break
            s = -1 if n % 2 else 1
            theta = (theta + QSeries.monomial(e + n * j, s)
                     + QSeries.monomial(e - n * j, s))
            n += 1
        sign = 1 if (k + j) % 2 == 0 else -1
        term = fk * QSeries.monomial(Fraction(k * (k + 1), 2), sign) * theta
        acc = (acc + term).truncate(target)
    # 1/(q)_inf^3 to prec - delta(q^binom(j+1,2) acc), and at least to its
    # leading 1, so that the product is known as far as acc is
    head = QSeries.monomial(Fraction(j * (j + 1), 2)) * acc
    inv3 = _inv_poch_product((math.inf,) * 3, max(target - head.delta_lb(), 1))
    return (-(head * inv3)).truncate(target)


def branch_coeffs_41(branch: str, prec: ExpLike) -> CoeffSeq:
    """Inverted Habiro coefficients of the two nonabelian branches of 4_1:
    q^{k^2}/(q)_k for +1/2 and (-1)^k q^{-binom(k,2)}/(q)_k for -1/2,
    truncated at prec."""
    target = Fraction(prec)
    if branch == "+1/2":
        def gen(k: int) -> QSeries:
            return (QSeries.monomial(k * k)
                    * _inv_poch_product((k,), target - k * k)).truncate(target)
    else:
        def gen(k: int) -> QSeries:
            sign = -1 if k % 2 else 1
            e = -_binom2(k)
            return (QSeries.monomial(e, sign)
                    * _inv_poch_product((k,), target - e)).truncate(target)
    return CoeffSeq("P", gen)


def branch_residue_by_family(branch: str, j: int, prec: ExpLike) -> QSeries:
    """branch_residue_41's reference: residue_series on the branch
    coefficients (LBC constant -1), times the q^{-+j^2} evaluation of the
    branch prefactor."""
    target = Fraction(prec)
    shift = -j * j if branch == "+1/2" else j * j
    rj = residue_series(branch_coeffs_41(branch, target + j * j), j,
                        target - shift, Fraction(-1))
    return rj.shift(shift).truncate(target)


def atom_sum(a, j, prec, C):
    """The atom-by-atom reference for r_j: sum over the LBC window of
    a_{-k-1} * residue_sigma(k, j) to O(q^(prec - delta(a_{-k-1})))."""
    target = Fraction(prec)
    acc = QSeries.zero(target)
    k = 0
    while Fraction(j * (j + 1), 2) + k + C < target:
        ak = a[k]
        atom = residue_sigma(k, j)
        if not atom.is_zero and not (ak.is_zero and ak.is_exact):
            acc = acc + ak * atom.to_series(target - ak.delta_lb())
        k += 1
    return acc.truncate(target)


class TestAtoms:
    def test_k0_j0(self):
        atom = residue_sigma(0, 0)
        assert atom.sign == -1
        assert atom.exponent == 0
        assert atom.denom == (0, 0)
        assert atom.to_series(10) == -QSeries.one().truncate(10)

    def test_k1_j1(self):
        atom = residue_sigma(1, 1)
        # -q^2 / ((q)_0 (q)_2)
        assert atom.sign == -1
        assert atom.exponent == 2
        assert atom.denom == (0, 2)

    def test_outside_window_vanishes(self):
        assert residue_sigma(1, 2).is_zero
        assert residue_sigma(0, -1).is_zero

    def test_infinity(self):
        assert residue_sigma(0, math.inf).sign == 1
        assert residue_sigma(3, math.inf).is_zero


class TestTabulatedResidues:
    def test_31r_r0_r1(self):
        fam = residue_family(get_knot("3_1r").a, 1, 11, Fraction(0))
        assert fam.r(0).truncate(11) == QSeries.from_terms(
            {1: 1, 2: 1, 3: 3, 4: 6, 5: 12, 6: 21, 7: 38, 8: 63, 9: 106,
             10: 170}, prec=11)
        assert fam.r(1).truncate(11) == QSeries.from_terms(
            {3: -1, 4: -2, 5: -5, 6: -9, 7: -18, 8: -31, 9: -55, 10: -91},
            prec=11)

    def test_41_r0(self):
        r0 = residue_series(get_knot("4_1").a, 0, 10, Fraction(-1))
        assert r0 == QSeries.from_terms(
            {0: -1, 1: 1, 2: 2, 3: 2, 4: 2, 6: -1, 7: -5, 8: -7, 9: -11},
            prec=10)

    def test_31l_closed_formula(self):
        # r_j = (-1)^j q^{j(3j+1)/2 - 1} / (q)_inf
        prec = 25
        inv = inv_qpoch_inf(prec + 2)
        fam = residue_family(get_knot("3_1l").a, 3, prec, Fraction(-2))
        for j in range(4):
            e = Fraction(j * (3 * j + 1), 2) - 1
            expected = (QSeries.monomial(e, (-1) ** j) * inv).truncate(prec)
            assert fam.r(j).truncate(prec) == expected, j


class TestFamilyStructure:
    @pytest.mark.parametrize("name,C", [("3_1l", -2), ("3_1r", 0),
                                        ("4_1", -1), ("unknot", -1)])
    def test_symmetry(self, name, C):
        fam = residue_family(get_knot(name).a, 4, 25, Fraction(C))
        for j in range(1, 5):
            assert fam.symmetry_defect(j).is_zero, (name, j)

    def test_window(self):
        assert residue_theorem_window(10, Fraction(0)) == 4
        assert residue_theorem_window(1, Fraction(0)) == 1

    @pytest.mark.parametrize("name,C", [("3_1l", -2), ("3_1r", 0),
                                        ("4_1", -1), ("unknot", -1)])
    def test_residue_theorem(self, name, C):
        defect = residue_theorem_check(get_knot(name).a, 25, Fraction(C))
        assert defect.is_zero, name


class TestRoundTrips:
    @pytest.mark.parametrize("name,C", [("3_1r", 0), ("4_1", -1)])
    def test_f_from_residues(self, name, C):
        spec = get_knot(name)
        prec, kmax = 15, 6
        # largest j whose shifted contribution can reach below prec
        J = max(j for j in range(100)
                if j == 0
                or Fraction(j * (j + 1), 2) - j * (kmax + 1) + C < prec)
        fam = residue_family(spec.a, J, prec + J * (kmax + 1), Fraction(C))
        for k in range(kmax + 1):
            got = f_from_residues(fam, k, prec)
            assert got == spec.f_coeff(k).truncate(prec), k

    def test_j_window_against_brute_force(self):
        # C >= prec + k puts j = 1 outside while a later j is inside
        for C in (-3, 0, Fraction(5, 2), 20):
            for prec in (1, Fraction(15, 2), 10):
                for k in range(9):
                    want = max([j for j in range(1, 100)
                                if Fraction(j * (j + 1), 2) - j * k
                                + C + 1 < prec], default=0)
                    n, d = Fraction(prec).numerator, Fraction(prec).denominator
                    assert _j_window(k, n, d, C) == want, (C, prec, k)

    @pytest.mark.parametrize("name,C", [("3_1l", -2), ("3_1r", 0),
                                        ("4_1", -1), ("unknot", -1)])
    def test_j_window_leaves_out_nothing_below_prec(self, name, C):
        # the first r_j past the window, at its lowest shift in f_k, has
        # no term below prec
        a = get_knot(name).a
        for prec in (5, Fraction(23, 2), 20):
            for k in range(8):
                n, d = Fraction(prec).numerator, Fraction(prec).denominator
                j = _j_window(k, n, d, C) + 1
                r = residue_series(a, j, prec + j * (k + 1), C)
                assert r.shift(-j * (k + 1)).delta_lb() >= prec, (prec, k)

    def test_f_from_residues_window_too_small(self):
        spec = get_knot("3_1r")
        fam = residue_family(spec.a, 2, 40, Fraction(0))
        with pytest.raises(Exception) as exc:
            f_from_residues(fam, 6, 25)
        assert "enlarge J" in str(exc.value)

    @pytest.mark.parametrize("name,C", [("3_1r", 0), ("4_1", -1)])
    def test_theta_route_agrees(self, name, C):
        spec = get_knot(name)
        for j in (0, 1, 2):
            via_theta = residues_from_f(spec.f, j, 20, Fraction(C))
            direct = residue_series(spec.a, j, 20, Fraction(C))
            assert via_theta == direct.truncate(20), j

    @pytest.mark.parametrize("name", ["3_1l", "3_1r", "4_1", "unknot"])
    def test_theta_route_matches_termwise_reference(self, name):
        spec = get_knot(name)
        for j in range(-3, 4):
            for prec in (5, 12, 20, Fraction(41, 2)):
                got = residues_from_f(spec.f, j, prec, spec.lbc_constant)
                want = theta_route_termwise(spec.f, j, prec, spec.lbc_constant)
                assert got.to_json() == want.to_json(), (j, prec)

    def test_theta_route_keeps_the_asked_precision(self):
        # the theta route gives r_j to the precision residue_series gives,
        # at negative, fractional and nonpositive precisions too
        for name in ("unknot", "3_1l", "3_1r", "4_1"):
            spec = get_knot(name)
            for j in range(-4, 8):
                for prec in (-6, -3, Fraction(-1, 2), 0, 1, 5, 12,
                             Fraction(41, 2)):
                    got = residues_from_f(spec.f, j, prec, spec.lbc_constant)
                    want = residue_series(spec.a, j, prec, spec.lbc_constant)
                    assert got.to_json() == want.to_json(), (name, j, prec)

    def test_theta_route_on_the_connected_sum(self):
        # the benchmark's product: depth 32, the decaying profile at 35;
        # its f has zero-to-precision rows at k = 13..30
        product = omega_mul(omega_from_a(get_knot("3_1l").a, 32),
                            omega_from_a(get_knot("3_1r").a, 32), 32,
                            prec=lambda k: 35 + k - k * (k - 1) // 2)
        C = product.lbc.constant
        f = f_from_a(product.a)
        assert any(fk.is_zero and not fk.is_exact for fk in f.prefix(31))
        for j in (0, 1, 2):
            got = residues_from_f(f, j, 31, C)
            assert got.to_json() == theta_route_termwise(f, j, 31, C).to_json()

    def test_theta_route_keeps_a_zero_to_precision_fk(self):
        # f_1 = O(q^0) is known nowhere, so r_0 is known only below q^1;
        # an exact f_1 = 0 gives a series to O(q^8), f_1 = 1 another
        f = [QSeries.one(), QSeries.zero(0)]
        got = residues_from_f(seq_from_list("F", f), 0, 8, -1)
        assert got == QSeries.from_terms({0: -1}, prec=1)
        assert got == theta_route_termwise(seq_from_list("F", f), 0, 8, -1)
        for f1 in (QSeries(), QSeries.one()):
            full = residues_from_f(seq_from_list("F", [f[0], f1]), 0, 8, -1)
            assert full.prec_q == 8 and full.truncate(1) == got

    def test_theta_route_rejects_unbounded(self):
        bad = seq_from_list("F", [QSeries.monomial(-40)])
        with pytest.raises(LbcError):
            residues_from_f(bad, 0, 10, Fraction(0))

    def test_theta_route_on_a_prefix_with_no_terms(self):
        # an f-prefix of exact zeros meets every C, so C = 3 passes the
        # audit, whose constant for it is 0; one term brings the audit back
        for j in (0, 2):
            got = residues_from_f(seq_from_list("F", []), j, 8, Fraction(3))
            assert got == QSeries.zero(8), j
        with pytest.raises(LbcError):
            residues_from_f(seq_from_list("F", [QSeries.one()]), 0, 8, 3)

    def test_missing_constant_rejected(self):
        with pytest.raises(LbcError):
            residue_series(get_knot("4_1").a, 0, 10, None)


class TestRecurrences:
    def test_left(self):
        assert trefoil_recurrence_check("L", 6, 40)

    def test_right(self):
        assert trefoil_recurrence_check("R", 6, 40)

    @pytest.mark.parametrize("kind", ["L", "R"])
    def test_a_broken_residue_fails_the_check(self, monkeypatch, kind):
        monkeypatch.setattr(residues, "residue_series",
                            residue_plus_q_at(residues.residue_series, 2))
        assert not trefoil_recurrence_check(kind, 6, 12)


class TestDescendants:
    def test_zero_is_identity(self):
        a = get_knot("4_1").a
        d = descendant(a, 0)
        for k in range(8):
            assert d[k] == a[k]

    def test_shift_composes(self):
        a = get_knot("3_1r").a
        d = descendant(descendant(a, 2), -2)
        for k in range(8):
            assert d[k] == a[k]

    def test_descendant_residue_theorem(self):
        # the shifted family still satisfies the vanishing sum
        d = descendant(get_knot("4_1").a, 1)
        defect = residue_theorem_check(d, 18, Fraction(-1))
        assert defect.is_zero


class TestBranches:
    def test_routes_agree(self):
        # the closed sums' placeholder terms below k = |j| sit at prec;
        # the stop rule must still see the bound from k = 0
        for branch in ("+1/2", "-1/2"):
            for j in range(-5, 6):
                for prec in (-2, 0, 1, Fraction(7, 2), 12, 25):
                    closed = branch_residue_41(branch, j, prec)
                    family = branch_residue_by_family(branch, j, prec)
                    assert closed == family, (branch, j, prec)

    def test_plus_branch_matches_knot_residues(self):
        # r_j^{+1/2} = q^{-j^2} * (family residue of the branch coeffs)
        # and relates to the 4_1 residues through a (q)_inf factor
        prec = 18
        inv = inv_qpoch_inf(prec + 4)
        fam = residue_family(get_knot("4_1").a, 2, prec + 4, Fraction(-1))
        for j in range(3):
            lhs = branch_residue_41("+1/2", j, prec)
            rhs = (fam.r(j) * inv).truncate(prec)
            assert lhs.truncate(prec) == rhs, j

    def test_sign_constancy_observed(self):
        for j in (0, 1, 2):
            s = branch_residue_41("-1/2", j, 25)
            # one sign among the nonzero coefficients
            assert len({c > 0 for c in s.coeffs if c}) <= 1, j


class TestTails:
    def test_even_prefix(self):
        normalized, target, agree_to = tail_check("even", 10, 12)
        assert agree_to >= 8
        assert target.truncate(8) == QSeries.from_terms(
            {0: 1, 1: 3, 2: 4, 3: 7, 4: 13, 5: 19, 6: 29, 7: 43}, prec=8)

    def test_odd_prefix(self):
        normalized, target, agree_to = tail_check("odd", 10, 12)
        assert agree_to >= 8
        assert target.truncate(8) == QSeries.from_terms(
            {0: 2, 1: 2, 2: 6, 3: 8, 4: 14, 5: 20, 6: 34, 7: 46}, prec=8)

    def test_agreement_improves_with_n(self):
        _, _, small = tail_check("even", 3, 20)
        _, _, large = tail_check("even", 9, 20)
        assert large >= small


class TestRunningResidueSum:
    """residue_series carries 1/((q)_{k-j}(q)_{k+j}) from term to term;
    it must equal the atom-by-atom sum in coefficients and precision."""

    @pytest.mark.parametrize("name,C", [("3_1l", -2), ("3_1r", 0),
                                        ("4_1", -1), ("unknot", -1)])
    @pytest.mark.parametrize("prec", [-3, 0, 1, Fraction(23, 2), 30])
    def test_knots_all_j(self, name, C, prec):
        a = get_knot(name).a
        for j in range(-5, 6):
            assert residue_series(a, j, prec, C) == \
                atom_sum(a, j, prec, Fraction(C)), j

    @pytest.mark.parametrize("name,C", [("3_1l", -2), ("3_1r", 0),
                                        ("4_1", -1), ("unknot", -1)])
    def test_tight_constant(self, name, C):
        # with the knot's own constant some terms sit exactly at the
        # residue bound, so the carried list is exactly as long as they need
        a = get_knot(name).a
        for j in range(-4, 5):
            for prec in (9, Fraction(47, 3)):
                got = residue_series(a, j, prec, C)
                assert got == atom_sum(a, j, prec, C), (j, prec)
                assert got == residue_series(a, j, prec, C - 1), (j, prec)

    @pytest.mark.parametrize("name", ["unknot", "3_1l", "3_1r", "4_1"])
    def test_constant_above_the_lbc_is_refused(self, name):
        # the LBC bound of term k is binom(j+1,2) + k + 1 + C; one above the
        # knot's constant, a_{-1} already sits below it
        knot = get_knot(name)
        with pytest.raises(DegreeBoundError, match="k=0"):
            residue_series(knot.a, 0, 9, knot.lbc_constant + 1)

    def test_fractional_constant(self):
        # a weaker, fractional LBC constant widens the window and
        # lengthens the carried list; the sum is unchanged
        a = get_knot("3_1l").a
        C = Fraction(-5, 2)
        for j in (-3, 0, 2):
            got = residue_series(a, j, Fraction(35, 3), C)
            assert got == atom_sum(a, j, Fraction(35, 3), C), j
            assert got == residue_series(a, j, Fraction(35, 3), -2), j

    @pytest.mark.parametrize("cut", [4, Fraction(13, 2), 16])
    def test_truncated_long_coefficients(self, cut):
        # connected-sum coefficients: long, and truncated at O(q^cut)
        el = omega_mul(omega_from_a(get_knot("3_1l").a, 12),
                       omega_from_a(get_knot("3_1r").a, 12), 12, prec=cut)
        assert any(len(el.a[k].coeffs) > 30 for k in range(12))
        assert not el.a[3].is_exact
        for j in range(-3, 4):
            for prec in (6, Fraction(19, 2)):
                assert residue_series(el.a, j, prec, -1) == \
                    atom_sum(el.a, j, prec, -1), (j, prec)

    def test_half_integer_grid_and_exact_zeros(self):
        def gen(k):
            if k % 3 == 0:
                return QSeries.zero()
            return (QSeries.monomial(Fraction(2 * k * k - 3 * k + 1, 2), (-1) ** k)
                    + QSeries.monomial(Fraction(2 * k * k - k + 6, 2), 2))
        a = CoeffSeq("P", gen)
        assert a[1].scale == 2 and a[3].is_zero and a[3].is_exact
        for j in range(-4, 5):
            for prec in (Fraction(3, 2), Fraction(31, 2), 30):
                got = residue_series(a, j, prec, Fraction(-3, 2))
                assert got == atom_sum(a, j, prec, Fraction(-3, 2)), (j, prec)

    def test_mixed_grids(self):
        # integer a_{-k-1} at even k, half-integer at odd k: the list takes
        # the finer grid, and the integer terms add at stride 2
        def gen(k):
            e = Fraction(-(k + 1) * (k - 2), 2) + Fraction(k % 2, 2)
            return QSeries.monomial(e, (-1) ** k) + QSeries.monomial(e + 3, 2)
        a = CoeffSeq("P", gen)
        assert a[0].scale == 1 and a[1].scale == 2
        for j in range(-3, 4):
            for prec in (7, Fraction(29, 3)):
                assert residue_series(a, j, prec, 0) == \
                    atom_sum(a, j, prec, 0), (j, prec)

    def test_truncated_zero_coefficients(self):
        def gen(k):
            if k % 2:
                return QSeries.zero(k * k)
            return QSeries.monomial(k * (k - 1) // 2 - 1).truncate(k * k + 4)
        a = CoeffSeq("P", gen)
        for j in range(-3, 4):
            for prec in (9, Fraction(31, 2)):
                assert residue_series(a, j, prec, -5) == \
                    atom_sum(a, j, prec, -5), (j, prec)

    def test_bound_violation_still_raises(self):
        # a_{-4} = q^{-10} sits far below the declared constant C = -1,
        # which a_{-1} = 1 meets exactly
        a = CoeffSeq("P", lambda k: QSeries.monomial(-10 if k == 3 else k * k))
        for j in (-2, 0, 3):
            with pytest.raises(DegreeBoundError, match="k=3"):
                residue_series(a, j, 12, -1)

    def test_frozen_digest(self):
        # sha256 of the canonical JSON of the to_json() list over the four
        # knots, j and prec in this order, as computed with Fraction
        # bookkeeping for the window, the stop and the final cut
        records = []
        for name in ("unknot", "3_1l", "3_1r", "4_1"):
            knot = get_knot(name)
            for j in range(-4, 8):
                for prec in (-3, Fraction(-1, 2), 0, Fraction(5, 2),
                             Fraction(31, 3), Fraction(41, 2)):
                    records.append(residue_series(knot.a, j, prec,
                                                  knot.lbc_constant).to_json())
        blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == \
            "e8a02169418febae23c02b44246b3835d7189f302a09087787dd544985cc47c7"

    def test_engine_requests_terms_in_order(self):
        asked = []

        def term(k):
            asked.append(k)
            return QSeries.zero(10)

        series_sum_bounded(term, lambda k: k, 10)
        assert asked == list(range(10))


class TestInversePochhammer:
    """_inv_poch_product against series_invert_unit of the product."""

    @pytest.mark.parametrize("indices", [(0,), (1,), (3,), (7,), (5, 2, 0),
                                         (12, 12), (40,)])
    @pytest.mark.parametrize("prec", [1, Fraction(1, 3), Fraction(23, 2),
                                      12, 13, 65])
    def test_finite(self, indices, prec):
        den = QSeries.one()
        for m in indices:
            den = den * poch(1, m)
        assert _inv_poch_product(indices, prec) == \
            series_invert_unit(den, prec)

    @pytest.mark.parametrize("power", [1, 2, 3])
    @pytest.mark.parametrize("prec", [1, Fraction(7, 2), 40, 90])
    def test_infinite(self, power, prec):
        expected = series_invert_unit(poch(1, math.inf, prec) ** power, prec)
        assert _inv_poch_product((math.inf,) * power, prec) == expected

    def test_mixed(self):
        prec = Fraction(45, 2)
        den = poch(1, 4) * poch(1, math.inf, prec)
        assert _inv_poch_product((4, math.inf), prec) == \
            series_invert_unit(den, prec)

    @pytest.mark.parametrize("prec", [0, -4, Fraction(-1, 2)])
    def test_nonpositive_precision(self, prec):
        for indices in ((), (3,), (math.inf,), (math.inf,) * 3):
            assert _inv_poch_product(indices, prec) == QSeries.zero(prec)
