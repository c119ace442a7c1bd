"""Input checks and small API paths, one call each: the exception type and a
fragment of its message, or the value the call returns."""

import math
from fractions import Fraction

import pytest

from qhabiro import (
    CoeffSeq,
    KnotSpec,
    NotInvertibleError,
    PrecisionError,
    QSeries,
    a_from_f,
    branch_residue_41,
    f_from_a,
    gamma,
    park_poly_residue,
    poch,
    qbinom,
    residue_sigma,
    series_invert_unit,
    tail_check,
    trefoil_recurrence_check,
)
from qhabiro.asympt import (
    AsymptoticsError,
    eval_root_of_unity,
    extract_phi,
    f_poly_exact,
    growth_rate,
    periodicity_check,
    richardson,
)

q = QSeries.monomial(1)
P_SIDE = CoeffSeq("P", lambda k: QSeries.one())
F_SIDE = CoeffSeq("F", lambda k: QSeries.one())

# (id, call, (exception type, message fragment) or the value returned)
CASES = [
    ("coeff past prec", lambda: q.truncate(3).coeff(3),
     (PrecisionError, "beyond precision")),
    ("coeff off the grid", lambda: q.coeff(Fraction(1, 2)), 0),
    ("coeff above the stored range", lambda: q.coeff(7), 0),
    ("coeff below the stored range", lambda: q.truncate(9).coeff(-2), 0),
    ("int - series", lambda: 1 - q, QSeries.from_terms({0: 1, 1: -1})),
    ("series - int", lambda: q - 1, QSeries.from_terms({0: -1, 1: 1})),
    ("negative power", lambda: q ** -1,
     (ValueError, "only nonnegative integer powers")),
    ("invert zero", lambda: series_invert_unit(QSeries.zero(), 5),
     (NotInvertibleError, "cannot invert zero series")),
    ("CoeffSeq side", lambda: CoeffSeq("X", lambda k: q),
     (ValueError, "side must be 'F' or 'P'")),
    ("f_from_a of an F-side", lambda: f_from_a(F_SIDE),
     (ValueError, "f_from_a expects a P-side sequence")),
    ("a_from_f of a P-side", lambda: a_from_f(P_SIDE),
     (ValueError, "a_from_f expects an F-side sequence")),
    ("qbinom k < 0", lambda: qbinom(3, -1),
     (ValueError, "k must be nonnegative")),
    ("poch inf without prec", lambda: poch(1, math.inf),
     (ValueError, "infinite Pochhammer needs a precision")),
    ("poch non-integer n", lambda: poch(1, 1.5),
     (ValueError, "n must be a nonnegative integer or math.inf")),
    ("gamma i < 0", lambda: gamma(1, 1, -1),
     (ValueError, "i must be nonnegative")),
    ("residue_sigma k < 0", lambda: residue_sigma(-1, 0),
     (ValueError, "k must be nonnegative")),
    ("trefoil kind", lambda: trefoil_recurrence_check("X", 2, 5),
     (ValueError, "kind must be 'L' or 'R'")),
    ("4_1 branch", lambda: branch_residue_41("+1", 0, 5),
     (ValueError, "branch must be '+1/2' or '-1/2'")),
    ("tail_check n < 0", lambda: tail_check("even", -1, 5),
     (ValueError, "n must be nonnegative")),
    ("tail_check parity", lambda: tail_check("both", 1, 5),
     (ValueError, "parity must be 'even' or 'odd'")),
    ("f_poly_exact n < 0", lambda: f_poly_exact("4_1", -1),
     (ValueError, "n must be nonnegative")),
    ("f_poly_exact inexact",
     lambda: f_poly_exact(KnotSpec("cut", f_gen=lambda k: q.truncate(5)), 0),
     (AsymptoticsError, "coefficient f_0 is not exact")),
    ("eval_root_of_unity N <= 0", lambda: eval_root_of_unity(q, 0, 128),
     (ValueError, "N must be positive")),
    ("eval_root_of_unity inexact",
     lambda: eval_root_of_unity(q.truncate(5), 3, 128),
     (AsymptoticsError, "polynomial must be exact")),
    ("richardson order < 0", lambda: richardson([(1, 1.0)], -1),
     (ValueError, "order must be nonnegative")),
    ("growth_rate empty", lambda: growth_rate("4_1", []),
     (ValueError, "n_list must be nonempty")),
    ("extract_phi depth < 0", lambda: extract_phi("4_1", -1, 60),
     (ValueError, "depth must be nonnegative")),
    # f_{n-1}(zeta_n) = zeta_n is real for n = 1, 2 and not for n = 3
    ("periodicity imaginary part",
     lambda: periodicity_check(KnotSpec("q", f_gen=lambda k: q), 4),
     (AsymptoticsError, "f_2(zeta_3) has imaginary part")),
    ("park_poly_residue k < 0", lambda: park_poly_residue(2, 1, -1),
     (ValueError, "k must be nonnegative")),
]


@pytest.mark.parametrize("call,want", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_call(call, want):
    if isinstance(want, tuple):
        kind, fragment = want
        with pytest.raises(kind) as info:
            call()
        assert type(info.value) is kind
        assert fragment in str(info.value)
    else:
        assert call() == want
