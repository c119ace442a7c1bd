"""Each surgery route's term against the QSeries composition it stands for.

The residue route's term j is r_j, truncated to the precision the term
needs, times the monomials of w_j = (1 - q^{-j}) weight_poly(j); the ih
route's term k is a_{-k-1} times its inner j-sum, summed here piece by
piece from 1/((q)_{k-j}(q)_{k+j}) and truncated where that sum is known;
the GM k-sum's term k is f_{k-1} - f_k shifted by q^{-k^2/p}.  The routes
build each term as one coefficient list; these compositions build it from
QSeries products, sums, negation and truncation, and must agree with it
byte for byte: coefficients, offset, grid and precision.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhabiro import (KnotSpec, QSeries, SurgeryParams, get_knot, zhat_via_fk,
                     zhat_via_ih, zhat_via_residues)
from qhabiro import surgery
from qhabiro.residues import _inv_poch_product
from qhabiro.series import series_sum

from conftest import fresh_knot


def bump_gen(k):
    """a-side on the half-integer grid: delta(a_{-5}) = 0 at q^{1/2}."""
    if k == 3:
        return QSeries.monomial(9)
    return QSeries.one() - QSeries.monomial(Fraction(1, 2) if k == 4 else 2)


def cut_gen(k):
    """a_{-k-1} with several terms on the grid 1/2, known only to
    O(q^{k/2 + 3})."""
    terms = {0: 1, Fraction(1, 2): -2, 2: 3, k: -1, Fraction(k, 2) + 1: 1}
    return QSeries.from_terms(terms, Fraction(k, 2) + 3)


KNOTS = {"unknot": lambda: get_knot("unknot"),
         "3_1l": lambda: get_knot("3_1l"),
         "3_1r": lambda: get_knot("3_1r"),
         "4_1": lambda: get_knot("4_1"),
         "bump": lambda: KnotSpec("bump", bump_gen),
         "cut": lambda: KnotSpec("cut", cut_gen)}


@contextmanager
def patched(obj, name, value):
    saved = vars(obj)[name]
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, saved)


def swapped_term(route, knot, params):
    """The term(n) that a swapped route hands to surgery._swapped."""
    got = []

    def capture(knot, params, term, fallback, note):
        got.append(term)

    with patched(surgery, "_swapped", capture):
        route(knot, params)
    return got[0]


def fk_term(knot, params):
    """The term(k) that zhat_via_fk's GM k-sum hands to sum_until."""
    got = []

    def capture(term, ks, prec):
        got.append(term)
        return QSeries.zero(prec), 0

    with patched(surgery, "sum_until", capture):
        zhat_via_fk(knot, params)
    return got[0]


def weight(j, p, a):
    """w_j = (1 - q^{-j}) weight_poly(j) as an exact QSeries."""
    return QSeries.from_terms({Fraction(x, abs(p)): c
                               for x, c in surgery._weight_monos(j, p, a)})


def residue_term(knot, p, a, prec, j):
    """r_j to O(q^{prec - delta(w_j)}), a truncated copy, times w_j."""
    w = weight(j, p, a)
    at = prec - min(Fraction(0), w.delta())
    return surgery._residue(knot, j, at.numerator, at.denominator) * w


def ih_term(knot, p, a, prec, k):
    """a_{-k-1} times its inner j-sum: the pieces
    (-1)^{k+j+1} q^{e_{k,j}} w_j / ((q)_{k-j}(q)_{k+j}) that start below
    target = prec - delta(a_{-k-1}), summed and truncated at target, or
    the zero known to O(q^{max(prec, target)}) when none does."""
    ak = knot.a[k]
    if ak.low is None:
        return ak
    target = prec - Fraction(ak.low, ak.scale)
    pieces = []
    for j in range(1, k + 1):
        w = weight(j, p, a)
        e = Fraction(j * (j + 1) + k * (k + 1), 2)
        if e + w.delta() < target:
            u = _inv_poch_product((k - j, k + j), target - e - w.delta())
            pieces.append((-1) ** (k + j + 1) * QSeries.monomial(e) * w * u)
    inner = (series_sum(pieces).truncate(target) if pieces
             else QSeries.zero(max(prec, target)))
    return ak * inner


def gm_term(knot, p, k):
    """(f_{k-1} - f_k) q^{-k^2/p} by negation, addition and a product."""
    f = knot.f
    diff = (f[k - 1] if k else QSeries.zero()) + (-f[k])
    return diff * QSeries.monomial(Fraction(-k * k, p))


cases = st.builds(
    lambda name, p, a, n, d: (name, p, a % abs(p), Fraction(n, d)),
    st.sampled_from(sorted(KNOTS)),
    st.sampled_from([-3, -2, -1, 1, 2, 3, 4, 5]),
    st.integers(0, 4), st.integers(-4, 40), st.sampled_from([1, 2, 3]))


class TestTermOracle:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(cases)
    def test_residue_route_terms(self, case):
        name, p, a, prec = case
        knot = KNOTS[name]()
        term = swapped_term(zhat_via_residues, knot, SurgeryParams(p, a, prec))
        for j in range(1, 7):
            want = residue_term(knot, p, a, prec, j)
            assert term(j).to_json() == want.to_json(), j

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(cases)
    def test_ih_route_terms(self, case):
        name, p, a, prec = case
        knot = KNOTS[name]()
        term = swapped_term(zhat_via_ih, knot, SurgeryParams(p, a, prec))
        for k in range(1, 9):
            want = ih_term(knot, p, a, prec, k)
            assert term(k).to_json() == want.to_json(), k

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(cases)
    def test_gm_k_sum_terms(self, case):
        name, p, a, prec = case
        knot = KNOTS[name]()
        term = fk_term(knot, SurgeryParams(p, a, prec))
        for k in range(0, 9):
            assert term(k).to_json() == gm_term(knot, p, k).to_json(), k


def boom(*args, **kwargs):
    raise AssertionError("a surgery term built an intermediate series")


class TestOneSeriesPerTerm:
    """A term builds its one coefficient list: the ih term multiplies no
    QSeries, and the residue term and the fallback's differences read the
    stored r_j, not _residue's truncated copy."""

    @pytest.mark.parametrize("name", ["3_1l", "4_1", "bump", "cut"])
    @pytest.mark.parametrize("p", [-2, 3])
    def test_ih_term_multiplies_no_series(self, name, p):
        knot = KNOTS[name]()
        knot.a.prefix(12)
        term = swapped_term(zhat_via_ih, knot,
                            SurgeryParams(p, 1, Fraction(25, 2)))
        with patched(QSeries, "__mul__", boom):
            for k in range(1, 12):
                term(k)

    @pytest.mark.parametrize("name", ["3_1l", "3_1r", "bump", "cut"])
    def test_residue_term_reads_the_stored_residue(self, name):
        knot = fresh_knot(name) if name in ("3_1l", "3_1r") else KNOTS[name]()
        params = SurgeryParams(-3, 0, Fraction(25, 2))
        term = swapped_term(zhat_via_residues, knot, params)
        want = [term(j) for j in range(1, 8)]  # fills the store
        with patched(surgery, "_residue", boom), \
                patched(QSeries, "_truncate", boom):
            assert [term(j) for j in range(1, 8)] == want

    def test_fallback_differences_read_the_stored_residue(self):
        knot = fresh_knot("3_1r")
        params = SurgeryParams(-3, 0, 12)
        res = zhat_via_residues(knot, params)  # fills the store
        assert "diverges" in res.sign_convention
        with patched(surgery, "_residue", boom):
            assert zhat_via_residues(knot, params) == res
