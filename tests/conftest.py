import random
from fractions import Fraction

import pytest

from qhabiro import (
    CoeffSeq,
    KnotSpec,
    QSeries,
    exact_div,
    get_knot,
    qbinom,
    qfact,
    qint,
)


def seq_from_list(side, items):
    """CoeffSeq over a finite list of QSeries (zero beyond the list)."""
    data = list(items)

    def gen(k):
        return data[k] if k < len(data) else QSeries.zero()

    return CoeffSeq(side, gen)


def fresh_knot(name: str) -> KnotSpec:
    """An unregistered copy of a registered knot, built from its
    generators: its coefficient memos, residue store and LBC constant start
    empty, whatever earlier tests computed on the registered knot."""
    ref = get_knot(name)
    return KnotSpec(name, ref.a._gen, ref.f._gen, max_index=ref.a.max_index)


def random_laurent(rng: random.Random, span: int = 4, lo: int = -6,
                   hi: int = 6, density: float = 0.6) -> QSeries:
    terms = {}
    for _ in range(span):
        if rng.random() < density:
            terms[rng.randint(lo, hi)] = rng.randint(-5, 5)
    return QSeries.from_terms(terms)


def series_from_str_coeffs(pairs) -> QSeries:
    """Build an exact series from {exponent: coefficient} pairs."""
    return QSeries.from_terms({Fraction(e): c for e, c in pairs.items()})


# Closed forms of coefficients that the library computes by the transform
# cascade, kept as oracles for it.


def f_41_closed(n: int) -> QSeries:
    """Figure-eight (a_{-k-1} = 1): f_n = sum_i [n+i choose 2i]."""
    return sum((qbinom(n + i, 2 * i) for i in range(n + 1)), QSeries.zero())


def a_unknot_closed(k: int) -> QSeries:
    """Unknot (f_k = delta_{k,0}): a_{-k-1} = (-1)^k [2k choose k]/[k+1],
    the balanced q-Catalan number."""
    return (-1) ** k * exact_div(qbinom(2 * k, k), qint(k + 1))


def a_from_f_closed(f, k: int) -> QSeries:
    """The explicit inverse of f_i = sum_k [k+i choose 2k] a_{-k-1}:
    a_{-k-1} = sum_i (-1)^{k+i} [2k choose k-i] [2i+1]/[k+i+1] f_i,
    over the common denominator [k+1][k+2]...[2k+1] and one exact
    division (exact inputs only)."""
    den = exact_div(qfact(2 * k + 1), qfact(k))
    num = QSeries.zero()
    for i in range(k + 1):
        term = (qbinom(2 * k, k - i) * qint(2 * i + 1)
                * exact_div(den, qint(k + i + 1)) * f[i])
        num = num + (term if (k + i) % 2 == 0 else -term)
    return exact_div(num, den)


@pytest.fixture
def rng():
    return random.Random(20240817)
