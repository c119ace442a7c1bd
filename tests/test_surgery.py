"""Dehn-surgery series: three evaluation routes and the surgery polynomials."""

import hashlib
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhabiro import (
    ConvergenceError,
    FractionalExponentError,
    KnotSpec,
    get_knot,
    lbc_check,
    load_knots,
    PrecisionError,
    QSeries,
    RemainderError,
    SurgeryParams,
    f_from_a,
    park_poly_explicit,
    park_poly_residue,
    residue_sigma,
    surgery_weight_poly,
    zhat,
    zhat_via_fk,
    zhat_via_ih,
    zhat_via_residues,
)
from qhabiro import surgery
from qhabiro.residues import _j_window
from qhabiro.series import DIV_RUN_LENGTH, RUN_LENGTH, series_sum, sum_until
from qhabiro.surgery import _f_diffs, _fk_sum, _in_class, _k_cap, _normalize

from conftest import fresh_knot

PREC = 25


def weight_poly_by_additions(j, p, a):
    """sum_{n<j} q^{j(np+a) - (np+a)^2/p} by j successive additions."""
    acc = QSeries.zero()
    for n in range(j):
        u = n * p + a
        acc = acc + QSeries.monomial(j * u - Fraction(u * u, p))
    return acc


def weight_poly_from_terms(j, p, a):
    """The weight polynomial from its Fraction exponents j*u - u^2/p."""
    return QSeries.from_terms(
        (j * u - Fraction(u * u, p), 1) for u in range(a, a + j * p, p))


class TestWeightPoly:
    def test_empty(self):
        assert surgery_weight_poly(0, -1, 0).is_zero

    def test_single_term(self):
        # j=1, n=0: exponent a - a^2/p
        s = surgery_weight_poly(1, 3, 2)
        assert s == QSeries.monomial(Fraction(2) - Fraction(4, 3))

    @pytest.mark.parametrize("p", [1, -1, 2, -2, 3, -3])
    def test_matches_successive_additions(self, p):
        # a + p is the label the routes use for p < 0
        for a in sorted({*range(abs(p)), *(b + p for b in range(abs(p)))}):
            for j in range(13):
                assert surgery_weight_poly(j, p, a) == \
                    weight_poly_by_additions(j, p, a), (p, a, j)

    @pytest.mark.parametrize("p", [1, -1, 2, -2, 3, -3, 4, -4, 5, -5])
    def test_matches_fraction_exponents(self, p):
        # the integer-exponent build on the 1/|p| grid gives the same
        # canonical series, field by field
        def fields(s):
            return s.coeffs, s.offset, s.scale, s.prec

        for a in sorted({*range(abs(p)), *(b + p for b in range(abs(p)))}):
            for j in range(31):
                assert fields(surgery_weight_poly(j, p, a)) == \
                    fields(weight_poly_from_terms(j, p, a)), (p, a, j)


class TestParams:
    def test_zero_surgery_rejected(self):
        with pytest.raises(ValueError):
            SurgeryParams(0, 0, 10)

    def test_label_range(self):
        with pytest.raises(ValueError):
            SurgeryParams(-3, 3, 10)

    def test_method_dispatch_case_insensitive(self):
        r1 = zhat("unknot", SurgeryParams(-1, 0, 10, method="FK"))
        r2 = zhat("unknot", SurgeryParams(-1, 0, 10, method="fk"))
        assert r1.series == r2.series

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            zhat("unknot", SurgeryParams(-1, 0, 10, method="saddle"))


class TestUnknot:
    def test_minus_one_surgery(self):
        # -1 surgery on the unknot: normalized series 1 - q
        res = zhat_via_fk("unknot", SurgeryParams(-1, 0, 12))
        assert res.series == QSeries.from_terms({0: 1, 1: -1}, prec=12)


class TestRouteAgreement:
    CASES = [
        ("unknot", -1, 0), ("unknot", -3, 1),
        ("3_1l", -1, 0), ("3_1l", -2, 1),
        ("4_1", -1, 0), ("4_1", -3, 2),
    ]

    @pytest.mark.parametrize("name,p,a", CASES)
    def test_three_routes_match(self, name, p, a):
        params = SurgeryParams(p, a, PREC)
        results = [zhat_via_fk(name, params),
                   zhat_via_residues(name, params),
                   zhat_via_ih(name, params)]
        base = results[0]
        for other in results[1:]:
            assert other.series.truncate(PREC) == base.series.truncate(PREC), \
                (name, p, a)

    @pytest.mark.parametrize("p", [-1, -2, -3])
    def test_three_routes_match_over_an_exact_zero_coefficient(self, p):
        # 4_1's a-side with a_{-2} = 0 (C = -1): the ih route returns the
        # exact zero as term k = 1
        knot = KnotSpec("gap", lambda k: QSeries.zero() if k == 1
                        else QSeries.one())
        for a in range(abs(p)):
            params = SurgeryParams(p, a, 12)
            out = {(str(r.delta), str(r.series))
                   for r in (zhat_via_fk(knot, params),
                             zhat_via_residues(knot, params),
                             zhat_via_ih(knot, params))}
            assert len(out) == 1, (p, a, out)

    @pytest.mark.parametrize("name,p,labels", [
        ("3_1r", -4, range(4)), ("3_1r", -5, range(5)),
        ("3_1l", -4, range(4)), ("3_1l", -5, (0, 1, 4))])
    def test_three_routes_match_past_p_minus_three(self, name, p, labels):
        # 3_1r's residue and ih routes take the iterated k-sum here,
        # 3_1l's sum termwise
        knot = fresh_knot(name)
        for a in labels:
            params = SurgeryParams(p, a, 30)
            fk, *swapped = [route(knot, params) for route in
                            (zhat_via_fk, zhat_via_residues, zhat_via_ih)]
            for other in swapped:
                assert (other.delta, other.series) == (fk.delta, fk.series), \
                    (name, p, a)
                assert ("diverges" in other.sign_convention) == \
                    (name == "3_1r"), (name, p, a)

    @pytest.mark.xfail(strict=True, raises=ConvergenceError,
                       reason="the GM k-sum's term degrees converge but "
                              "alternate, so sum_until's run of "
                              "non-decreasing bounds keeps resetting; "
                              "ROADMAP Direction 3 (a certified stop)")
    @pytest.mark.parametrize("a", [2, 3])
    def test_fk_returns_where_its_sum_converges(self, a):
        # 3_1l at p = -5 is a lens space: the residue and ih routes give
        # 1 + O(...) for a = 2 and 3
        params = SurgeryParams(-5, a, 12)
        fk = zhat_via_fk("3_1l", params)
        res = zhat_via_residues("3_1l", params)
        assert (fk.delta, fk.series) == (res.delta, res.series)

    @pytest.mark.xfail(strict=True,
                       reason="at p > 0 route equivalence needs a hypothesis "
                              "beyond the LBC, or a route is wrong; ROADMAP "
                              "Direction 11")
    def test_routes_agree_on_the_unknot_at_a_positive_slope(self):
        # fk gives 1 + O(q^12) (f_k is an exact zero past k = 0); the
        # residue and ih routes give 1 + q + q^2 + 2q^3 + ...
        params = SurgeryParams(2, 0, 12)
        out = {(r.delta, r.series) for r in
               (route(fresh_knot("unknot"), params)
                for route in (zhat_via_fk, zhat_via_residues, zhat_via_ih))}
        assert len(out) == 1, out

    @pytest.mark.parametrize("name,p", [("3_1r", 3), ("4_1", 5)])
    def test_positive_surgery_divergence_detected(self, name, p):
        with pytest.raises(ConvergenceError):
            zhat_via_fk(name, SurgeryParams(p, 0, 15))

    @pytest.mark.parametrize("name", ["unknot", "3_1l", "3_1r", "4_1"])
    def test_routes_match_at_nonpositive_precision(self, name):
        # _k_cap reads sqrt(prec * |p|), clamped at 0 below zero
        for p in (-1, -2, -3):
            for prec in (Fraction(-3), Fraction(-1, 2), Fraction(0)):
                params = SurgeryParams(p, 0, prec)
                out = {(str(r.delta), str(r.series))
                       for r in (zhat_via_fk(name, params),
                                 zhat_via_residues(name, params),
                                 zhat_via_ih(name, params))}
                assert len(out) == 1, (name, p, prec, out)

    def test_spinc_conjugation(self):
        # a and |p|-a label conjugate structures with equal series
        for name, p in (("4_1", -3), ("3_1l", -5)):
            for a in range(1, (abs(p) + 1) // 2):
                try:
                    lhs = zhat_via_fk(name, SurgeryParams(p, a, 20))
                except ConvergenceError:
                    # conjugate labels must diverge together
                    with pytest.raises(ConvergenceError):
                        zhat_via_fk(name, SurgeryParams(p, abs(p) - a, 20))
                    continue
                rhs = zhat_via_fk(name, SurgeryParams(p, abs(p) - a, 20))
                assert lhs.series == rhs.series, (name, p, a)


def zhat_via_ih_by_atoms(knot, params):
    """The ih route atom by atom: every 1/((q)_{k+j}(q)_{k-j}) from
    ResidueAtom.to_series and every weight polynomial rebuilt per (k, j).
    Oracle for zhat_via_ih's running per-j state, with its own spin^c
    label, k=0 boundary term and fallback."""
    knot = get_knot(knot)
    p, a, prec = params.p, params.a, params.prec
    # for p < 0 the class a + p*n runs over n <= 0, so the telescoped
    # weight window takes the representative a + p
    a_w = a + p if p < 0 else a

    def term(k):
        ak = knot.a[k]
        inner = QSeries.zero(prec - min(Fraction(0), ak.delta_lb()))
        if not (ak.is_zero and ak.is_exact):
            target = prec - ak.delta_lb()
            for j in range(1, k + 1):
                poly = weight_poly_by_additions(j, p, a_w)
                atom = residue_sigma(k, j)
                low = atom.exponent + poly.delta() - j
                if low >= target:
                    continue
                piece = atom.to_series(target - (poly.delta() - j))
                inner = inner + piece * (QSeries.one() - QSeries.monomial(-j)) * poly
                inner = inner.truncate(target)
        return ak * inner

    acc, _ = sum_until(term, range(1, _k_cap(prec, p) + 1), prec)
    if acc is not None:
        if a == 0:  # the k=0 summand -f_0 = -a_{-1}, up to the sign of p
            acc = acc + (knot.a[0] if p < 0 else -knot.a[0])
        return _normalize(acc.truncate(prec), p)
    # the GM k-sum of q^{-k^2/p} (f_{k-1} - f_k) over the transformed f_k
    f = f_from_a(knot.a)
    diffs = (((f[k - 1] if k else QSeries.zero()) - f[k])
             * QSeries.monomial(Fraction(-k * k, p))
             for k in range(_k_cap(prec, p) + 1)
             if (k - a) % p == 0 or (k + a) % p == 0)
    total = trend_sum_by_fractions(diffs, prec)
    if total is None:
        raise ConvergenceError("the fallback's GM k-sum diverges")
    out = _normalize(total, p)
    return out._replace(sign_convention=out.sign_convention
                        + "; termwise k-sum diverges, evaluated as the "
                        "iterated k-sum over transformed coefficients")


def trend_sum_by_fractions(terms, prec):
    """The trend stop on delta_lb() Fractions, as the surgery sums ran it
    before they compared degree bounds as integers: the reference for
    sum_until without a bound."""
    kept = []
    run = div = 0
    prev = None
    for term in terms:
        d = term.delta_lb()
        kept.append(term)
        run = run + 1 if d >= prec and (prev is None or d >= prev) else 0
        div = div + 1 if prev is not None and d < prev and d < 0 else 0
        prev = d
        if run >= RUN_LENGTH:
            return series_sum(kept).truncate(prec)
        if div >= DIV_RUN_LENGTH:
            return None
    raise ConvergenceError("divergent or undecidable for these parameters")


@st.composite
def walking_terms(draw):
    """Terms whose degrees walk down, level or up in steps on the grids
    1/1, 1/2 and 1/3: monomials, truncated monomials, truncated zeros
    (degree bound: their precision) and exact zeros (degree bound: +inf)."""
    d = Fraction(draw(st.integers(-8, 16)))
    drift = draw(st.sampled_from((-3, 0, 3)))
    terms = []
    for _ in range(draw(st.integers(0, 14))):
        scale = draw(st.sampled_from((1, 2, 3)))
        d += Fraction(drift + draw(st.integers(-3, 3)), scale)
        kind = draw(st.sampled_from(("monomial", "cut", "zero", "exact")))
        if kind == "monomial":
            terms.append(QSeries.monomial(d, draw(st.sampled_from((-2, 1)))))
        elif kind == "cut":  # a cut at d itself leaves a truncated zero
            cut = d + Fraction(draw(st.integers(0, 4)), scale)
            terms.append(QSeries.monomial(d).truncate(cut))
        else:
            terms.append(QSeries.zero(d if kind == "zero" else None))
    return terms


class TestTrendSum:
    """The stopping rule of every surgery sum, sum_until without a bound,
    on terms with set degrees."""

    PREC = Fraction(10)

    def run(self, degrees):
        """sum_until over monomials q^d; (its sum, terms it took)."""
        terms = iter([QSeries.monomial(d) for d in degrees])
        out, _ = sum_until(lambda t: t, terms, self.PREC)
        return out, len(degrees) - len(list(terms))

    def test_converges_after_run_length_terms_at_prec(self):
        out, taken = self.run([0, 3] + [10 + i for i in range(RUN_LENGTH)]
                              + [-1])
        assert taken == 2 + RUN_LENGTH
        assert out == QSeries.from_terms({0: 1, 3: 1}, prec=self.PREC)

    def test_dip_below_prec_resets_the_run(self):
        head = [10] * (RUN_LENGTH - 1) + [4]
        out, taken = self.run(head + [10] * (RUN_LENGTH + 2))
        assert taken == len(head) + RUN_LENGTH
        assert out == QSeries.from_terms({4: 1}, prec=self.PREC)

    def test_decrease_above_prec_resets_the_run(self):
        head = [12] * (RUN_LENGTH - 1) + [11]
        _, taken = self.run(head + [11] * (RUN_LENGTH + 2))
        assert taken == len(head) + RUN_LENGTH

    def test_diverges_after_div_run_length_falling_negative_terms(self):
        out, taken = self.run([0] + [-i for i in range(1, DIV_RUN_LENGTH + 1)]
                              + [50] * 9)
        assert out is None
        assert taken == 1 + DIV_RUN_LENGTH

    def test_shorter_falling_run_does_not_diverge(self):
        # degree 0 is not below zero, so the run counts from -1
        out, _ = self.run([1, 0] + [-i for i in range(1, DIV_RUN_LENGTH)]
                          + [10] * RUN_LENGTH)
        assert out is not None

    def test_exhausted_terms_raise(self):
        with pytest.raises(ConvergenceError):
            self.run([0, 1, 10, 11])
        with pytest.raises(ConvergenceError):
            self.run([])

    @given(walking_terms(), st.builds(Fraction, st.integers(-12, 30),
                                      st.sampled_from((1, 2, 3))))
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_mixed_grids_against_the_fraction_rule(self, terms, prec):
        # the same result (sum, None or ConvergenceError) after the same
        # number of terms read
        def run(rule):
            it = iter(terms)
            try:
                out = rule(it, prec)
            except ConvergenceError:
                out = "exhausted"
            if isinstance(out, QSeries):
                out = out.to_json()
            return out, len(list(it))

        assert run(lambda it, prec: sum_until(lambda t: t, it, prec)[0]) \
            == run(trend_sum_by_fractions)


SURGERY_CASES = [(name, p, a) for name in ("3_1l", "3_1r", "4_1")
                 for p in (-1, -2, -3) for a in range(abs(p))]
ROUTES = (("fk", zhat_via_fk), ("residues", zhat_via_residues),
          ("ih", zhat_via_ih))

# sha256 of the canonical JSON (sorted keys, no spaces) of the list of
# {"knot", "p", "a", "route", "delta": str, "series": to_json(),
# "sign_convention"} over SURGERY_CASES x ROUTES in that order, as the
# atom-by-atom routes computed them
ROUTE_DIGESTS = {
    12: "04e763674163fecdcd404d8dc1381993d63e1eb9dac30a1f8ab1e6591fb7fa94",
    40: "4faeaf533f006dd5dff5c569c50b28b547f04998a5be77b085ea58756228a08c",
}

# the readable part at O(q^12): every route gives the same delta and series
ROUTE_SERIES_12 = {
    ("3_1l", -1, 0): ("-1", "1 - q - q^3 - q^7 + q^8 + O(q^13)"),
    ("3_1l", -2, 0): ("-1", "1 - q + q^6 + q^11 + O(q^13)"),
    ("3_1l", -2, 1): ("-1/2", "1 + q^2 - q^3 - q^7 + O(q^(25/2))"),
    ("3_1l", -3, 0): ("-1", "1 - q + q^2 + q^5 - q^7 - q^12 + O(q^13)"),
    ("3_1l", -3, 1): ("-2/3", "1 - q^3 + q^9 + O(q^(38/3))"),
    ("3_1l", -3, 2): ("-2/3", "1 - q^3 + q^9 + O(q^(38/3))"),
    ("3_1r", -1, 0): ("1", "1 - q - q^5 + q^10 + O(q^11)"),
    ("3_1r", -2, 0): ("1", "1 - q^3 + q^10 + O(q^11)"),
    ("3_1r", -2, 1): ("3/2", "1 - q^5 + q^6 + O(q^(21/2))"),
    ("3_1r", -3, 0): ("1", "1 + q^4 - q^5 + O(q^11)"),
    ("3_1r", -3, 1): ("4/3", "1 + q^2 - q^7 + O(q^(32/3))"),
    ("3_1r", -3, 2): ("4/3", "1 + q^2 - q^7 + O(q^(32/3))"),
    ("4_1", -1, 0): ("0", "1 + q + q^3 + q^4 + q^5 + 2*q^7 + q^8 + 2*q^9"
                          " + q^10 + 2*q^11 + O(q^12)"),
    ("4_1", -2, 0): ("0", "1 + q + q^2 + q^3 + q^4 + 3*q^5 + 2*q^6 + 3*q^7"
                          " + 3*q^8 + 4*q^9 + 5*q^10 + 7*q^11 + O(q^12)"),
    ("4_1", -2, 1): ("1/2", "1 + 2*q^2 + q^3 + 2*q^4 + q^5 + 4*q^6 + 2*q^7"
                            " + 5*q^8 + 4*q^9 + 6*q^10 + 5*q^11"
                            " + O(q^(23/2))"),
    ("4_1", -3, 0): ("0", "1 + 2*q + q^2 + 3*q^3 + 4*q^4 + 6*q^5 + 5*q^6"
                          " + 11*q^7 + 11*q^8 + 17*q^9 + 19*q^10 + 26*q^11"
                          " + O(q^12)"),
    ("4_1", -3, 1): ("1/3", "1 + q + 3*q^2 + 2*q^3 + 5*q^4 + 5*q^5 + 9*q^6"
                            " + 9*q^7 + 14*q^8 + 16*q^9 + 23*q^10 + 25*q^11"
                            " + O(q^(35/3))"),
    ("4_1", -3, 2): ("1/3", "1 + q + 3*q^2 + 2*q^3 + 5*q^4 + 5*q^5 + 9*q^6"
                            " + 9*q^7 + 14*q^8 + 16*q^9 + 23*q^10 + 25*q^11"
                            " + O(q^(35/3))"),
}

# (knot, p) whose residue and ih routes take the iterated k-sum
FALLBACKS = {("3_1r", -3)}


def route_digest(cases, prec, routes=ROUTES):
    """sha256 of the ROUTE_DIGESTS records of routes over cases, given as
    (name, knot, p, a), at O(q^prec)."""
    records = []
    for name, knot, p, a in cases:
        params = SurgeryParams(p, a, prec)
        for route, fn in routes:
            res = fn(knot, params)
            records.append({"knot": name, "p": p, "a": a, "route": route,
                            "delta": str(res.delta),
                            "series": res.series.to_json(),
                            "sign_convention": res.sign_convention})
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def bump_gen(k):
    """delta(a_{-4}) = 9 cuts the ih route's carried lists short, and
    a_{-5}, with delta 0 on the half-integer grid, needs them longer again."""
    if k == 3:
        return QSeries.monomial(9)
    return QSeries.one() - QSeries.monomial(Fraction(1, 2) if k == 4 else 2)


# route_digest at precisions off the integers, on a knot whose a-side is
# on the half-integer grid, and at positive slopes, as the routes computed
# them with Fraction bookkeeping
PREC_DIGESTS = {
    Fraction(25, 2):
        "7a5113bfd7c5cbe55ba57451f1d6d67ec84f7d05700233fab81636b6f0912206",
    Fraction(41, 3):
        "c1ca08ad62163d4a5cf0c1ff02815c6c0859636ccc8fc148e12e95dbc292105e",
    Fraction(-1, 2):
        "5a88de6299bcaa823a387527bbbb0d80a8d73a49c0bdefe8ecd82b6d13c8899f",
}
BUMP_DIGEST_15 = \
    "c430085290eced38a9400553ee9fd1982762af5131186514e582bf2036b349cd"
POSITIVE_DIGEST_12 = \
    "a3a46a34fadddc50d9042c2caa31ebecef86fb8b84becece2914fd6771192c77"


class TestFrozenDigests:
    @pytest.mark.parametrize("prec", sorted(PREC_DIGESTS))
    def test_fractional_and_negative_precisions(self, prec):
        cases = [(name, name, p, a) for name, p, a in SURGERY_CASES]
        assert route_digest(cases, prec) == PREC_DIGESTS[prec]

    def test_half_integer_grid_knot(self):
        knot = KnotSpec("bump", bump_gen)
        cases = [("bump", knot, p, a) for p in (-1, -2, -3)
                 for a in range(abs(p))]
        assert route_digest(cases, 15) == BUMP_DIGEST_15

    def test_positive_slopes(self):
        cases = [(name, name, p, a) for name in ("3_1l", "3_1r", "4_1")
                 for p in (1, 2) for a in range(p)]
        assert route_digest(cases, 12, ROUTES[1:]) == POSITIVE_DIGEST_12


class TestFractionCount:
    def test_one_pass_builds_few_fractions(self):
        # The route bookkeeping is integer: one pass of the 18 cases by the
        # three routes at O(q^12), on knots whose a- and f-sides and LBC
        # constant are already computed, builds a Fraction only at the
        # edges (each SurgeryParams.prec and ZhatResult.delta, and the
        # precision residue_series gets on a store miss).  The Fraction
        # bookkeeping built 8,396 on Python 3.11.7; newer Pythons build
        # fewer Fractions inside fractions.py, so there the bound only
        # loosens.
        knots = {name: fresh_knot(name) for name in ("3_1l", "3_1r", "4_1")}
        for knot in knots.values():
            knot.a.prefix(40)
            knot.f.prefix(40)
            knot.lbc_constant
        made = 0
        saved = vars(Fraction)["__new__"]
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            nonlocal made
            made += 1
            return new(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting)
        try:
            for name, p, a in SURGERY_CASES:
                for _, route in ROUTES:
                    route(knots[name], SurgeryParams(p, a, 12))
        finally:
            Fraction.__new__ = saved
        assert 0 < made <= 1000


class TestFrozenRoutes:
    """All 18 cases by all three routes, pinned to the atom-by-atom
    routes' outputs: delta, series and sign convention, byte for byte."""

    @pytest.mark.parametrize("prec", sorted(ROUTE_DIGESTS))
    def test_route_outputs(self, prec):
        records = []
        for name, p, a in SURGERY_CASES:
            params = SurgeryParams(p, a, prec)
            for route, fn in ROUTES:
                res = fn(name, params)
                records.append({"knot": name, "p": p, "a": a, "route": route,
                                "delta": str(res.delta),
                                "series": res.series.to_json(),
                                "sign_convention": res.sign_convention})
                fallback = "diverges" in res.sign_convention
                assert fallback == ((name, p) in FALLBACKS
                                    and route != "fk"), (name, p, a, route)
                if prec == 12:
                    assert (str(res.delta), str(res.series)) == \
                        ROUTE_SERIES_12[name, p, a], (name, p, a, route)
        blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == ROUTE_DIGESTS[prec]

    @pytest.mark.parametrize("name,p", [(n, p) for n in ("3_1l", "3_1r", "4_1")
                                        for p in (-1, -2, -3)])
    def test_ih_matches_atom_by_atom(self, name, p):
        for a in range(abs(p)):
            params = SurgeryParams(p, a, 20)
            assert zhat_via_ih(name, params) == \
                zhat_via_ih_by_atoms(name, params), (name, p, a)

    def test_ih_state_rebuilt_when_a_later_k_needs_more(self):
        knot = KnotSpec("bump", bump_gen)
        for p in (-1, -2, -3):
            for a in range(abs(p)):
                params = SurgeryParams(p, a, 15)
                assert zhat_via_ih(knot, params) == \
                    zhat_via_ih_by_atoms(knot, params), (p, a)


class TestResidueFallback:
    """The residue route's iterated k-sum (3_1r at p = -3, -4, -5) reads
    difference k to O(q^{prec + k^2/p}), computes each r_j once, at the
    most the differences up to the GM k-sum's stop K need of it, and
    raises before computing any when that GM k-sum diverges (3_1l at
    p = -7).  Each run takes a fresh knot, so that no residue an earlier
    run stored on the knot hides a computation."""

    @staticmethod
    def record(monkeypatch):
        """Wrap residue_series and _plan_k: the list gets each r_j's j,
        with "plan" where the fallback starts."""
        calls = []
        series, plan = surgery.residue_series, surgery._plan_k

        def traced_series(a, j, prec, C):
            calls.append(j)
            return series(a, j, prec, C)

        def traced_plan(*args):
            calls.append("plan")
            return plan(*args)

        monkeypatch.setattr(surgery, "residue_series", traced_series)
        monkeypatch.setattr(surgery, "_plan_k", traced_plan)
        return calls

    @pytest.mark.parametrize("a", [0, 1, 2, 3, 4])
    def test_each_residue_computed_once_after_the_j_sum(self, monkeypatch, a):
        for p in [p for p in (-3, -4, -5) if a < -p]:
            calls = self.record(monkeypatch)
            res = zhat_via_residues(fresh_knot("3_1r"), SurgeryParams(p, a, 40))
            assert "diverges" in res.sign_convention
            fallback = calls[calls.index("plan") + 1:]
            assert len(fallback) == len(set(fallback)), (p, fallback)

    @pytest.mark.parametrize("p,a,prec", [(-3, 0, 40), (-3, 1, 40),
                                          (-4, 2, 20), (-5, 0, 20),
                                          (-5, 3, 40)])
    def test_residues_asked_only_to_the_planned_precision(
            self, monkeypatch, p, a, prec):
        knot = fresh_knot("3_1r")
        prec = Fraction(prec)
        K = surgery._plan_k(knot, p, a, prec)
        # j -> need(k) + j(k + 1) at its largest over the in-class k <= K
        # and the j in f_k's window at need(k) = prec + k^2/p; r_0 at prec
        plan = {0: prec}
        for k in range(K + 1):
            if _in_class(k, p, a):
                need = prec + Fraction(k * k, p)
                for j in range(1, _j_window(k, need.numerator, need.denominator,
                                              knot.lbc_constant) + 1):
                    plan[j] = max(plan.get(j, need), need + j * (k + 1))
        calls = []
        series, plan_k = surgery.residue_series, surgery._plan_k

        def traced(a_, j, at, C):
            calls.append((j, at))
            return series(a_, j, at, C)

        def traced_plan(*args):
            calls.clear()
            return plan_k(*args)

        monkeypatch.setattr(surgery, "residue_series", traced)
        monkeypatch.setattr(surgery, "_plan_k", traced_plan)
        res = zhat_via_residues(knot, SurgeryParams(p, a, prec))
        assert "diverges" in res.sign_convention and calls
        assert all(at <= plan[j] for j, at in calls), (calls, plan)
        # below the O(q^{prec + j(K+1)}) that every k <= K would ask for
        # with each difference to O(q^prec)
        assert any(at < prec + j * (K + 1) for j, at in calls)

    @pytest.mark.parametrize("p", [-3, -4, -5])
    @pytest.mark.parametrize("prec", [6, 12, 20, 40])
    def test_fallback_stops_where_the_plan_does(self, monkeypatch, p, prec):
        # each difference is cut at prec + k^2/p, so a zero one has its
        # degree bound there: the stop may only come earlier, and does not
        fk_sum = surgery._fk_sum
        last = []

        def traced(*args):
            out = fk_sum(*args)
            last.append(out[1])
            return out

        monkeypatch.setattr(surgery, "_fk_sum", traced)
        for a in range(abs(p)):
            knot = fresh_knot("3_1r")
            res = zhat_via_residues(knot, SurgeryParams(p, a, prec))
            assert "diverges" in res.sign_convention
            assert last[-1] == fk_sum(_f_diffs(knot.f), p, a,
                                      Fraction(prec))[1], (p, prec, a)

    @pytest.mark.parametrize("name,p,a", [("3_1r", -3, 0), ("3_1r", -4, 1),
                                          ("3_1r", -5, 2), ("3_1l", -3, 0),
                                          ("unknot", 2, 0), ("unknot", 3, 1)])
    def test_difference_k_is_read_to_prec_plus_k2_over_p(self, name, p, a):
        knot = fresh_knot(name)
        prec = Fraction(12)
        diff = surgery._residue_diffs(knot, SurgeryParams(p, a, prec))
        exact = _f_diffs(knot.f)
        for k in range(surgery._plan_k(knot, p, a, prec) + 1):
            if _in_class(k, p, a):
                need = prec + Fraction(k * k, p)
                d = diff(k)
                assert d.prec_q == need, (k, d.prec_q)
                assert d == exact(k).truncate(need), k

    @pytest.mark.parametrize("a", [0, 1, 2])
    def test_short_plan_gives_the_same_output(self, monkeypatch, a):
        params = SurgeryParams(-3, a, 20)
        planned = zhat_via_residues(fresh_knot("3_1r"), params)
        K = surgery._plan_k(get_knot("3_1r"), -3, a, params.prec)
        assert K > 2
        series = surgery.residue_series
        calls = []

        def traced(a_, j, prec, C):
            calls.append(j)
            return series(a_, j, prec, C)

        monkeypatch.setattr(surgery, "_plan_k", lambda *args: 2)
        monkeypatch.setattr(surgery, "residue_series", traced)
        assert zhat_via_residues(fresh_knot("3_1r"), params) == planned
        # past the plan, r_j is recomputed as later k need more of it
        assert len(calls) > len(set(calls))

    def test_divergent_plan_raises_at_once(self, monkeypatch):
        # the j-sum diverges, and so does the GM k-sum over knot.f that
        # plans the fallback: no r_j is computed after the plan
        calls = self.record(monkeypatch)
        with pytest.raises(ConvergenceError):
            zhat_via_residues(fresh_knot("3_1l"), SurgeryParams(-7, 0, 6))
        assert calls[calls.index("plan") + 1:] == []

    @pytest.mark.parametrize("name,p,a", SURGERY_CASES)
    def test_plan_is_the_last_k_the_sum_reads(self, name, p, a):
        fd = _f_diffs(get_knot(name).f)
        seen = []

        def diff(k):
            seen.append(k)
            return fd(k)

        K = _fk_sum(diff, p, a, Fraction(12))[1]
        assert K == seen[-1] and _in_class(K, p, a)
        assert K == surgery._plan_k(get_knot(name), p, a, Fraction(12))


class TestResidueStore:
    """surgery._residue serves each r_j from the knot's store: the most
    precise r_j so far, truncated to the precision asked."""

    PRECS = [Fraction(-3), Fraction(0), Fraction(5, 2), Fraction(7),
             Fraction(31, 3), Fraction(16)]

    @pytest.mark.parametrize("name", ["unknot", "3_1l", "3_1r", "4_1"])
    @pytest.mark.parametrize("order", ["increasing", "decreasing", "shuffled"])
    def test_every_answer_equals_a_fresh_computation(self, name, order):
        precs = {"increasing": self.PRECS, "decreasing": self.PRECS[::-1],
                 "shuffled": [self.PRECS[i] for i in (3, 0, 5, 2, 4, 1)]}[order]
        knot = fresh_knot(name)
        C = knot.lbc_constant
        for j in range(-4, 7):
            for prec in precs:
                got = surgery._residue(knot, j, prec.numerator,
                                       prec.denominator)
                want = surgery.residue_series(knot.a, j, prec, C)
                assert got.to_json() == want.to_json(), (j, prec)

    def test_second_pass_computes_no_residue(self, monkeypatch):
        knots = {name: fresh_knot(name) for name in ("3_1l", "3_1r", "4_1")}
        cases = [(name, p, a) for name in knots for p in (-1, -2, -3)
                 for a in range(abs(p))]
        routes = (zhat_via_fk, zhat_via_residues, zhat_via_ih)

        def run():
            return [route(knots[name], SurgeryParams(p, a, 12))
                    for name, p, a in cases for route in routes]

        first = run()
        calls = []
        series = surgery.residue_series

        def traced(*args):
            calls.append(args[1])
            return series(*args)

        monkeypatch.setattr(surgery, "residue_series", traced)
        assert run() == first
        assert calls == []

    def test_store_holds_at_most_cache_size_entries(self, monkeypatch):
        monkeypatch.setattr(surgery, "CACHE_SIZE", 4)
        knot = fresh_knot("3_1r")
        C = knot.lbc_constant
        for j in range(10):
            got = surgery._residue(knot, j, 12, 1)
            assert got == surgery.residue_series(knot.a, j, 12, C), j
            assert len(knot.residues) <= 4
        assert sorted(knot.residues) == list(range(6, 10))

    def test_lbc_constant_once_per_knot(self):
        knot = fresh_knot("3_1r")
        zhat_via_residues(knot, SurgeryParams(-2, 1, 12))
        assert vars(knot)["lbc_constant"] == lbc_check(knot.a, 24).constant

    def test_lbc_constant_of_finite_data(self):
        # the audit stops where the a-side does
        knot = KnotSpec("t", lambda k: get_knot("3_1l").a[k], max_index=6)
        assert knot.lbc_constant == lbc_check(knot.a, 6).constant == -2

    def test_weight_monomials_are_a_shared_tuple(self):
        w = surgery._weight_monos(3, -2, 1)
        assert isinstance(w, tuple)
        assert surgery._weight_monos(3, -2, 1) is w


class TestResidueStoreFromF:
    """TestResidueStore's twins for a knot given only its f-side (the
    unknot): _residue computes r_j by residues_from_f over knot.f, and
    residue_series, which would read the cascade's dense a-side, never
    runs on it."""

    @staticmethod
    def theta_only(monkeypatch):
        """Wrap residues_from_f, and make residue_series fail: the list
        gets each computed r_j's j."""
        calls = []
        theta = surgery.residues_from_f

        def traced(f, j, prec, C):
            calls.append(j)
            return theta(f, j, prec, C)

        def a_side(*args):
            raise AssertionError("residue_series ran on an f-given knot")

        monkeypatch.setattr(surgery, "residues_from_f", traced)
        monkeypatch.setattr(surgery, "residue_series", a_side)
        return calls

    @pytest.mark.parametrize("order", ["increasing", "decreasing", "shuffled"])
    def test_every_answer_equals_a_fresh_computation(self, monkeypatch, order):
        precs = TestResidueStore.PRECS
        precs = {"increasing": precs, "decreasing": precs[::-1],
                 "shuffled": [precs[i] for i in (3, 0, 5, 2, 4, 1)]}[order]
        theta = surgery.residues_from_f
        calls = self.theta_only(monkeypatch)
        knot = fresh_knot("unknot")
        C = knot.lbc_constant
        for j in range(-4, 7):
            for prec in precs:
                got = surgery._residue(knot, j, prec.numerator,
                                       prec.denominator)
                want = theta(knot.f, j, prec, C)
                assert got.to_json() == want.to_json(), (j, prec)
        assert calls

    def test_second_pass_computes_no_residue(self, monkeypatch):
        knot = fresh_knot("unknot")
        cases = [(p, a) for p in (-1, -2, -3, -4, -8) for a in range(abs(p))]
        routes = (zhat_via_fk, zhat_via_residues, zhat_via_ih)

        def run():
            return [route(knot, SurgeryParams(p, a, 6))
                    for p, a in cases for route in routes]

        calls = self.theta_only(monkeypatch)
        first = run()
        assert calls
        del calls[:]
        assert run() == first
        assert calls == []

    def test_store_holds_at_most_cache_size_entries(self, monkeypatch):
        monkeypatch.setattr(surgery, "CACHE_SIZE", 4)
        theta = surgery.residues_from_f
        self.theta_only(monkeypatch)
        knot = fresh_knot("unknot")
        C = knot.lbc_constant
        for j in range(10):
            got = surgery._residue(knot, j, 12, 1)
            assert got == theta(knot.f, j, 12, C), j
            assert len(knot.residues) <= 4
        assert sorted(knot.residues) == list(range(6, 10))

    def test_residue_route_at_p_minus_eight(self):
        # its fallback asks for r_j up to j = 20 at O(q^506): from the dense
        # a-side that took about 35 s and over 1 GB
        start = time.perf_counter()
        res = zhat_via_residues(fresh_knot("unknot"), SurgeryParams(-8, 0, 6))
        assert time.perf_counter() - start < 5
        assert "diverges" in res.sign_convention
        assert res.series == QSeries.one().truncate(6)

    def test_r20_at_o_q506(self):
        # the p = -8 fallback's deepest read: from the dense a-side it took
        # 53 s and about 2 GB
        knot = fresh_knot("unknot")
        start = time.perf_counter()
        r = surgery._residue(knot, 20, 506, 1)
        assert time.perf_counter() - start < 1
        assert (r.delta(), r.prec_q) == (230, 506)


class TestFiniteData:
    @pytest.mark.parametrize("route", [zhat_via_fk, zhat_via_residues,
                                       zhat_via_ih])
    def test_read_past_the_data_is_a_precision_error(self, route):
        # the a-side stops at a_{-7} (index 6); O(q^20) needs more of it
        knot = KnotSpec("t", lambda k: get_knot("3_1l").a[k], max_index=6)
        with pytest.raises(PrecisionError, match="up to index 6 only"):
            route(knot, SurgeryParams(-2, 0, 20))


class TestShortListKnot:
    def test_residue_route_runs_on_seven_coefficients(self, tmp_path):
        # a list knot file with 3_1l's a_{-1}..a_{-7}: its LBC audit stops
        # at index 6, and O(q^3) reads no further
        ref = get_knot("3_1l")
        path = tmp_path / "short.json"
        path.write_text(json.dumps([{
            "name": "test_short_3_1l",
            "generator": {"kind": "list",
                          "coeffs": [ref.a[k].to_json() for k in range(7)]},
        }]))
        (knot,) = load_knots(path)
        params = SurgeryParams(-2, 0, 3)
        got = zhat_via_residues(knot, params)
        assert got.series == (QSeries.one() - QSeries.monomial(1)).truncate(4)
        assert got == zhat_via_ih(knot, params) == zhat_via_residues(ref, params)


PARK_RESIDUE_DIGEST = \
    "331a0a5bf89bc26fbf1048d68293520204fdcbe833bfd16431d5b86b31e6d0b9"
PARK_EXPLICIT_DIGEST = \
    "496c0dc27b23f05a67e2da017dc8df74099f1563d03a9aa5b186802e343f49f9"


class TestParkPolynomials:
    def test_k0(self):
        # the explicit sum is empty at k=0; the residue form picks up the
        # theta constant term exactly when a = 0 (known boundary mismatch,
        # recorded rather than reconciled)
        assert park_poly_explicit(2, 0, 0).is_zero
        assert park_poly_residue(2, 0, 0).truncate(5) == \
            QSeries.one().truncate(5)
        assert park_poly_residue(2, 1, 0).truncate(5).is_zero

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_routes_agree(self, p):
        for a in range(p):
            for k in range(1, 7):
                exp = park_poly_explicit(p, a, k)
                res = park_poly_residue(p, a, k)
                cut = res.prec_q
                assert exp.truncate(cut) == res.truncate(cut), (p, a, k)

    def test_integer_exponents(self):
        for p in (2, 3):
            for a in range(p):
                assert park_poly_explicit(p, a, 3).scale == 1
                assert park_poly_residue(p, a, 3).scale == 1

    def test_residue_form_frozen(self):
        # sha256 of the canonical JSON of park_poly_residue(p, a, k).to_json()
        # over 1 <= p <= 6, 0 <= a < p, 0 <= k <= 6, as the residue form
        # computed it with its own stop loop
        records = [park_poly_residue(p, a, k).to_json()
                   for p in range(1, 7) for a in range(p) for k in range(7)]
        blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == \
            PARK_RESIDUE_DIGEST

    def test_explicit_form_frozen(self):
        # sha256 of the canonical JSON of park_poly_explicit(p, a, k).to_json()
        # over 1 <= p <= 6, 0 <= a < p, 0 <= k <= 10 (231 polynomials), as
        # the explicit form computed them by one long division over
        # (q)_k (q)_{2k}
        records = [park_poly_explicit(p, a, k).to_json()
                   for p in range(1, 7) for a in range(p) for k in range(11)]
        blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == \
            PARK_EXPLICIT_DIGEST

    def test_explicit_form_checks_exactness(self, monkeypatch):
        # with every weight polynomial replaced by 1 the numerator is no
        # longer divisible by the denominator, and at k = 1 the prefactor's
        # fractional exponent no longer cancels
        monkeypatch.setattr(surgery, "surgery_weight_poly",
                            lambda j, p, a: QSeries.one())
        for k in (2, 3):
            with pytest.raises(RemainderError):
                park_poly_explicit(2, 1, k)
        with pytest.raises(FractionalExponentError):
            park_poly_explicit(2, 1, 1)

    def test_explicit_oracle_p1_k1(self):
        # p=1, a=0, k=1 reduces to the constant polynomial 1
        assert park_poly_explicit(1, 0, 1) == QSeries.one()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            park_poly_explicit(0, 0, 1)
        with pytest.raises(ValueError):
            park_poly_residue(2, 2, 1)
        with pytest.raises(ValueError):
            park_poly_explicit(2, 0, -1)
