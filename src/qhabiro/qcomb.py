"""Balanced q-combinatorics: q-integers, q-binomials, curly brackets,
Pochhammer symbols.

Balanced quantities live on the half-integer exponent grid (v = q^{1/2});
results that happen to lie in Z[q^{+-1}] come back scale-normalized.

Every q-Pochhammer quotient is computed by one in-place kernel on a
coefficient list c_0 + c_1 q + ..., truncated at its length: multiplying
by (1 - q^m) is one shifted subtraction, dividing by it is a prefix sum
along each residue class mod m.  Gaussian binomials, [k]!, poch (and
through it the curly brackets {n}_k and {k}!), the inverse Pochhammer
products of residues.py, the rows of its shared table (each row
1/((q)_{k-j}(q)_{k+j}) two divisions of the row at k - 1) and the Park
quotient num / (q)_k^2 of surgery.py are chains of these two steps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import add, sub
from typing import Optional, Union

from .series import ExpLike, QAlgebraError, QSeries

# Entries kept by each memoised function here and by omega.gamma.  Left
# unbounded, the fullest cache held 3,828 entries (qbinom) after the whole
# test suite and 1,378 after a benchmark workload.
CACHE_SIZE = 4096


def _mul_one_minus_qm(c: list, m: int) -> None:
    """c <- c (1 - q^m) in place, truncated at len(c) (m >= 1)."""
    c[m:] = map(sub, c[m:], c[:-m])


def _div_one_minus_qm(c: list, m: int) -> None:
    """c <- c / (1 - q^m) in place, truncated at len(c) (m >= 1).

    The quotient's coefficients are prefix sums along each residue class
    mod m: per class when the classes are few, else block by block."""
    n = len(c)
    if m * m <= n:
        for r in range(m):
            c[r::m] = accumulate(c[r::m])
    else:
        for b in range(m, n, m):
            c[b : b + m] = map(add, c[b : b + m], c[b - m : b])


class DivergentPochhammerError(QAlgebraError):
    pass


@lru_cache(maxsize=CACHE_SIZE)
def qint(n: int) -> QSeries:
    """Balanced q-integer [n] = (v^n - v^{-n})/(v - v^{-1})."""
    if n == 0:
        return QSeries.zero()
    if n < 0:
        return -qint(-n)
    # v^{-(n-1)} + v^{-(n-3)} + ... + v^{n-1}
    coeffs = [1 if i % 2 == 0 else 0 for i in range(2 * n - 1)]
    return QSeries(coeffs, -(n - 1), 2)


@lru_cache(maxsize=CACHE_SIZE)
def qfact(k: int) -> QSeries:
    """[k]! = [k][k-1]...[1] = q^{-k(k-1)/4} prod_{i<=k} (1 - q^i)/(1 - q).

    The partial product after factor i is a polynomial of degree
    binom(i,2), so every division is exact."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    c = [1]
    for i in range(2, k + 1):
        c += [0] * (i - 1)
        _mul_one_minus_qm(c, i)
        _div_one_minus_qm(c, 1)
    return QSeries(c).shift(-Fraction(k * (k - 1), 4))


@lru_cache(maxsize=CACHE_SIZE)
def qbinom(n: int, k: int) -> QSeries:
    """Balanced q-binomial [n choose k]; n any integer, k >= 0.

    With k' = min(k, n-k), the unbalanced [n choose k] is the product of
    (1 - q^{n-k'+i})/(1 - q^i) over i = 1..k'; the partial product after
    factor i is [n-k'+i choose i], so every division is exact."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return QSeries.one()
    if n < 0:
        sign = 1 if k % 2 == 0 else -1
        return sign * qbinom(k - n - 1, k)
    if n < k:
        return QSeries.zero()
    kk = min(k, n - k)
    deg = kk * (n - kk)
    half = deg // 2 + 1  # the coefficients past the middle mirror these
    c = [1]
    for i in range(1, kk + 1):
        c += [0] * (min(i * (n - kk) + 1, half) - len(c))
        _mul_one_minus_qm(c, n - kk + i)
        _div_one_minus_qm(c, i)
    return QSeries(c + c[: deg + 1 - half][::-1]).shift(-Fraction(deg, 2))


@lru_cache(maxsize=CACHE_SIZE)
def curly_fact(k: int) -> QSeries:
    """{k}! = {k}{k-1}...{1}."""
    return curly_poch(k, k)


@lru_cache(maxsize=CACHE_SIZE)
def curly_poch(n: int, k: int) -> QSeries:
    """{n}_k = {n}{n-1}...{n-k+1} = (-1)^k q^{-k(2n-k+1)/4}
    (q^{n-k+1}; q)_k, as {m} = -q^{-m/2} (1 - q^m)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = poch(n - k + 1, k).shift(-Fraction(k * (2 * n - k + 1), 4))
    return -out if k % 2 else out


@lru_cache(maxsize=CACHE_SIZE)
def poch(
    a_exp: ExpLike,
    n: Union[int, float],
    prec: Optional[ExpLike] = None,
) -> QSeries:
    """q-Pochhammer (q^{a_exp}; q)_n, exact for finite n.

    For n = math.inf the product is truncated at O(q^prec); it diverges
    (as a q-series) unless a_exp > 0.  A factor 1 - q^0 makes the product
    0; a factor 1 - q^e with e < 0 is taken as -q^e (1 - q^{-e}).
    """
    a_exp = Fraction(a_exp)
    if n == math.inf:
        if prec is None:
            raise ValueError("infinite Pochhammer needs a precision")
        if a_exp <= 0:
            raise DivergentPochhammerError("divergent Pochhammer")
        n = max(0, math.ceil(prec - a_exp))  # the factors below O(q^prec)
    elif not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer or math.inf")
    elif n == 0:
        return QSeries.one()
    # exponents in units of 1/den on the grid of a_exp and prec
    den = a_exp.denominator if prec is None else math.lcm(
        a_exp.denominator, Fraction(prec).denominator)
    exps = [int((a_exp + j) * den) for j in range(n)]
    shift = sum(e for e in exps if e < 0)
    size = sum(map(abs, exps)) + 1
    if prec is not None:
        size = min(size, int(prec * den) - shift)
    if 0 in exps:
        c = []
    else:
        c = [(-1) ** sum(e < 0 for e in exps)] + [0] * (size - 1)
        for e in exps:
            _mul_one_minus_qm(c, abs(e))
    out = QSeries(c, shift, den)
    return out if prec is None else out.truncate(prec)
