"""Balanced q-combinatorics: q-integers, q-binomials, curly brackets,
Pochhammer symbols, truncated theta functions, Jacobi symbol.

Balanced quantities live on the half-integer exponent grid (v = q^{1/2});
results that happen to lie in Z[q^{+-1}] come back scale-normalized.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .series import ExpLike, QAlgebraError, QSeries

HALF = Fraction(1, 2)


class DivergentPochhammerError(QAlgebraError):
    pass


@lru_cache(maxsize=None)
def qint(n: int) -> QSeries:
    """Balanced q-integer [n] = (v^n - v^{-n})/(v - v^{-1})."""
    if n == 0:
        return QSeries.zero()
    if n < 0:
        return -qint(-n)
    # v^{-(n-1)} + v^{-(n-3)} + ... + v^{n-1}
    coeffs = [1 if i % 2 == 0 else 0 for i in range(2 * n - 1)]
    return QSeries(coeffs, -(n - 1), 2)


@lru_cache(maxsize=None)
def qfact(k: int) -> QSeries:
    """[k]! = [k][k-1]...[1]."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return QSeries.one()
    return qfact(k - 1) * qint(k)


_GAUSS_ROWS = [((1,),)]  # row n holds unbalanced [n choose k] for k = 0..n


def _gauss_row(n: int) -> tuple:
    """Row n of the Gaussian-binomial triangle as raw coefficient tuples,
    built by the Pascal recurrence C(n,k) = C(n-1,k-1) + q^k C(n-1,k)
    (shared across the whole row, far cheaper than per-entry products)."""
    while len(_GAUSS_ROWS) <= n:
        m = len(_GAUSS_ROWS)
        prev = _GAUSS_ROWS[-1]
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
        _GAUSS_ROWS.append(tuple(row))
    return _GAUSS_ROWS[n]


@lru_cache(maxsize=None)
def qbinom(n: int, k: int) -> QSeries:
    """Balanced q-binomial [n choose k]; n any integer, k >= 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return QSeries.one()
    if n < 0:
        sign = 1 if k % 2 == 0 else -1
        return sign * qbinom(k - n - 1, k)
    if n < k:
        return QSeries.zero()
    num = _gauss_row(n)[k]
    return QSeries(num).shift(-Fraction(k * (n - k), 2))


def curly(n: int) -> QSeries:
    """{n} = v^n - v^{-n}."""
    if n == 0:
        return QSeries.zero()
    return QSeries.from_terms({Fraction(n, 2): 1, Fraction(-n, 2): -1})


@lru_cache(maxsize=None)
def curly_fact(k: int) -> QSeries:
    """{k}! = {k}{k-1}...{1}."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return QSeries.one()
    return curly_fact(k - 1) * curly(k)


@lru_cache(maxsize=None)
def curly_poch(n: int, k: int) -> QSeries:
    """{n}_k = {n}{n-1}...{n-k+1}."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = QSeries.one()
    for i in range(k):
        out = out * curly(n - i)
        if out.is_zero:
            return QSeries.zero()
    return out


@lru_cache(maxsize=None)
def poch(
    a_exp: ExpLike,
    n: Union[int, float],
    prec: Optional[ExpLike] = None,
) -> QSeries:
    """q-Pochhammer (q^{a_exp}; q)_n, exact for finite n.

    For n = math.inf the product is truncated at O(q^prec); it diverges
    (as a q-series) unless a_exp > 0.
    """
    a_exp = Fraction(a_exp)
    if n == math.inf:
        if prec is None:
            raise ValueError("infinite Pochhammer needs a precision")
        if a_exp <= 0:
            raise DivergentPochhammerError("divergent Pochhammer")
        out = QSeries.one()
        j = 0
        while a_exp + j < prec:
            out = (out * QSeries.from_terms({0: 1, a_exp + j: -1})).truncate(prec)
            j += 1
        return out.truncate(prec)
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer or math.inf")
    out = QSeries.one()
    for j in range(n):
        out = out * QSeries.from_terms({0: 1, a_exp + j: -1})
        if prec is not None:
            out = out.truncate(prec)
    return out


def qpoch(n: Union[int, float], prec: Optional[ExpLike] = None) -> QSeries:
    """(q)_n = (q; q)_n shortcut."""
    return poch(1, n, prec)


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be an odd positive integer")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def theta_trunc(i: int, x_window: int, prec: ExpLike) -> dict:
    """Coefficients of x^u in the truncated theta function

        theta_i(x,q) = (-1)^i q^{binom(i+1,2)}
                       (1 + sum_{n>=1} (-1)^n q^{binom(n+1,2)+n i} (x^n + x^{-n})),

    for u in [-x_window, x_window], each truncated at O(q^prec).
    """
    if i < 0:
        raise ValueError("i must be nonnegative")
    sign_i = -1 if i % 2 else 1
    base = Fraction((i + 1) * i, 2)
    out = {}
    for u in range(-x_window, x_window + 1):
        n = abs(u)
        sign = sign_i * (-1 if n % 2 else 1)
        exp = base + Fraction((n + 1) * n, 2) + n * i
        out[u] = QSeries.monomial(exp, sign).truncate(prec)
    return out


def jacobi_theta_coeff(n: int) -> tuple:
    """Coefficient of x^n in theta(x,q) = sum (-1)^n x^n q^{n(n-1)/2},
    as (sign, q-exponent)."""
    return (-1 if n % 2 else 1, Fraction(n * (n - 1), 2))
