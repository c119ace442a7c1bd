"""Balanced q-combinatorics."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhabiro import (
    DivergentPochhammerError,
    QSeries,
    curly_fact,
    curly_poch,
    poch,
    qbinom,
    qfact,
    qint,
)

small = st.integers(min_value=0, max_value=12)


def curly(n: int) -> QSeries:
    """{n} = v^n - v^{-n}."""
    if n == 0:
        return QSeries.zero()
    return QSeries.from_terms({Fraction(n, 2): 1, Fraction(-n, 2): -1})


def gauss_triangle(n_max: int) -> list:
    """Rows 0..n_max of the unbalanced Gaussian-binomial triangle as
    coefficient tuples, by the Pascal recurrence
    C(n,k) = C(n-1,k-1) + q^k C(n-1,k); the reference for qbinom."""
    rows = [((1,),)]
    for m in range(1, n_max + 1):
        prev = rows[-1]
        row = [(1,)]
        for k in range(1, m):
            a = prev[k]      # shifted by q^k
            b = prev[k - 1]
            out = [0] * (k * (m - k) + 1)
            out[: len(b)] = b
            for i, c in enumerate(a):
                out[k + i] += c
            row.append(tuple(out))
        row.append((1,))
        rows.append(tuple(row))
    return rows


def reference_qbinom(rows: list, n: int, k: int) -> QSeries:
    if k == 0:
        return QSeries.one()
    if n < 0:
        return (-1) ** k * reference_qbinom(rows, k - n - 1, k)
    if n < k:
        return QSeries.zero()
    return QSeries(rows[n][k]).shift(-Fraction(k * (n - k), 2))


def reference_poch(a, n, prec) -> QSeries:
    """(q^a; q)_n multiplied out factor by factor, then truncated."""
    if n == 0:
        return QSeries.one()
    if n == math.inf:
        n = max(0, math.ceil(prec - a))
    out = QSeries.one()
    for j in range(n):
        out = out * (QSeries.one() - QSeries.monomial(a + j))
    return out if prec is None else out.truncate(prec)


class TestQInt:
    def test_values(self):
        assert qint(0).is_zero
        assert qint(1) == QSeries.one()
        # [2] = v + v^{-1}
        assert qint(2) == QSeries.from_terms({Fraction(1, 2): 1,
                                              Fraction(-1, 2): 1})
        assert qint(-3) == -qint(3)

    @given(st.integers(min_value=-12, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_palindromic(self, n):
        s = qint(n)
        assert s == s.mirror()


class TestQBinom:
    def test_pascal(self):
        # balanced Pascal rule: [n k] = v^k [n-1 k] + v^{k-n} [n-1 k-1]
        for n in range(1, 9):
            for k in range(1, n + 1):
                lhs = qbinom(n, k)
                rhs = (QSeries.monomial(Fraction(k, 2)) * qbinom(n - 1, k)
                       + QSeries.monomial(Fraction(k - n, 2))
                       * qbinom(n - 1, k - 1))
                assert lhs == rhs, (n, k)

    def test_specializes_to_binomial(self):
        # sum of coefficients = classical binomial
        for n in range(0, 10):
            for k in range(0, n + 1):
                assert sum(qbinom(n, k).coeffs) == math.comb(n, k)

    def test_symmetry(self):
        for n in range(0, 9):
            for k in range(0, n + 1):
                assert qbinom(n, k) == qbinom(n, n - k)

    def test_negative_upper_index(self):
        # [-n k] = (-1)^k [k+n-1 k]
        assert qbinom(-2, 3) == -qbinom(4, 3)

    def test_palindromic(self):
        for n in range(0, 9):
            for k in range(0, n + 1):
                s = qbinom(n, k)
                assert s == s.mirror()

    def test_out_of_range(self):
        assert qbinom(3, 5).is_zero

    def test_against_pascal_triangle(self):
        rows = gauss_triangle(66)
        for n in range(-6, 61):
            for k in range(0, max(n, 6) + 3):
                assert qbinom(n, k) == reference_qbinom(rows, n, k), (n, k)

    def test_large_entry(self):
        # uncached, so the kernel runs
        start = time.perf_counter()
        s = qbinom.__wrapped__(200, 100)
        assert time.perf_counter() - start < 1.0
        assert sum(s.coeffs) == math.comb(200, 100)
        assert s == s.mirror()


def qfact_oracle(k: int) -> QSeries:
    """[k]! factor by factor: [1][2]...[k]."""
    out = QSeries.one()
    for i in range(1, k + 1):
        out = out * qint(i)
    return out


def curly_fact_oracle(k: int) -> QSeries:
    """{k}! factor by factor: {1}{2}...{k}."""
    out = QSeries.one()
    for i in range(1, k + 1):
        out = out * curly(i)
    return out


def curly_poch_oracle(n: int, k: int) -> QSeries:
    """{n}_k factor by factor: {n}{n-1}...{n-k+1}."""
    out = QSeries.one()
    for i in range(k):
        out = out * curly(n - i)
        if out.is_zero:
            return QSeries.zero()
    return out


def raw(s: QSeries) -> tuple:
    return s.coeffs, s.offset, s.scale, s.prec


class TestFactorials:
    def test_kernels_match_factor_by_factor_oracles(self):
        for k in range(40):
            assert raw(qfact(k)) == raw(qfact_oracle(k)), k
            assert raw(curly_fact(k)) == raw(curly_fact_oracle(k)), k
        for n in range(-15, 25):
            for k in range(20):
                assert raw(curly_poch(n, k)) == raw(curly_poch_oracle(n, k)), (n, k)

    def test_gamma_matches_oracle(self):
        from qhabiro import gamma

        for m in range(-6, 1):
            for n in range(-6, 1):
                for i in range(8):
                    want = (curly_poch_oracle(m, i) * curly_poch_oracle(n, i)
                            * qbinom(m + n + 1, i))
                    assert raw(gamma(m, n, i)) == raw(want), (m, n, i)

    def test_negative_index_rejected(self):
        for fn in (qfact, curly_fact):
            with pytest.raises(ValueError):
                fn(-1)
        with pytest.raises(ValueError):
            curly_poch(3, -1)

    def test_qfact(self):
        assert qfact(3) == qint(1) * qint(2) * qint(3)

    def test_curly(self):
        # {n} = v^n - v^{-n} = {1} * [n]
        for n in range(1, 8):
            assert curly(n) == curly(1) * qint(n)
        assert curly_fact(4) == curly(1) * curly(2) * curly(3) * curly(4)

    def test_curly_poch(self):
        assert curly_poch(3, 2) == curly(3) * curly(2)
        assert curly_poch(2, 4).is_zero  # hits {0}


class TestCaches:
    def test_every_cache_has_the_one_bound(self):
        from qhabiro import gamma
        from qhabiro.qcomb import CACHE_SIZE

        for fn in (qint, qfact, qbinom, curly_fact, curly_poch, poch, gamma):
            assert fn.cache_info().maxsize == CACHE_SIZE, fn.__name__

    def test_currsize_stays_within_the_bound(self):
        from qhabiro.qcomb import CACHE_SIZE

        for n in range(CACHE_SIZE + 100):
            assert curly_poch(n, 0) == QSeries.one()
        assert curly_poch.cache_info().currsize <= CACHE_SIZE


class TestPochhammer:
    def test_finite(self):
        assert poch(1, 0) == QSeries.one()
        assert poch(1, 2) == QSeries.from_terms({0: 1, 1: -1}) * \
            QSeries.from_terms({0: 1, 2: -1})

    def test_infinite_pentagonal(self):
        # Euler: (q)_inf = sum (-1)^n q^{n(3n-1)/2} over all n
        s = poch(1, math.inf, 30)
        expected = {}
        n = 0
        while True:
            done = True
            for e in (n * (3 * n - 1) // 2, n * (3 * n + 1) // 2):
                if e < 30:
                    expected[e] = (-1) ** n
                    done = False
            if done:
                break
            n += 1
        assert s == QSeries.from_terms(expected, prec=30)

    def test_divergent(self):
        with pytest.raises(DivergentPochhammerError):
            poch(0, math.inf, 10)

    def test_shifted(self):
        assert poch(3, 2) == QSeries.from_terms({0: 1, 3: -1}) * \
            QSeries.from_terms({0: 1, 4: -1})

    def test_factor_one_minus_q0_is_zero(self):
        assert poch(0, 1) == QSeries.zero()
        assert poch(-1, 3) == QSeries.zero()
        assert poch(-2, 4, 5) == QSeries.zero(5)

    def test_negative_exponents(self):
        # 1 - q^e = -q^e (1 - q^-e) for e < 0
        assert poch(-2, 2) == QSeries.from_terms(
            {-3: 1, -2: -1, -1: -1, 0: 1})
        assert poch(Fraction(-1, 2), 1, 1) == QSeries.from_terms(
            {Fraction(-1, 2): -1, 0: 1}, prec=1)
        # known to the full precision, not to prec + e
        assert poch(-2, 2, 5) == poch(-2, 2).truncate(5)

    def test_empty_product_is_exact(self):
        assert poch(Fraction(2, 3), 0, 5) == QSeries.one()
        assert poch(-4, 0) == QSeries.one()

    def test_against_factor_by_factor(self):
        for a in (1, 2, 3, 5, Fraction(1, 2), Fraction(3, 2), Fraction(2, 3),
                  Fraction(7, 3), 0, -1, -3, Fraction(-3, 2),
                  Fraction(-1, 3)):
            for n in list(range(0, 9)) + [math.inf]:
                for prec in (None, 0, 1, Fraction(5, 2), 7, Fraction(23, 3),
                             30):
                    if n == math.inf and (prec is None or a <= 0):
                        continue
                    assert poch(a, n, prec) == reference_poch(a, n, prec), \
                        (a, n, prec)
