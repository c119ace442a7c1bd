"""qhabiro: exact q-series algebra for inverted Habiro series of knots.

Truncated Laurent q-series arithmetic, balanced q-combinatorics, the
coefficient transforms between the two series expansions of a knot, the
Omega-ring product, residue families with classical-identity checks,
Dehn-surgery q-series invariants by three routes, Park polynomials, and
high-precision numerical asymptotics at roots of unity.
"""

from .series import (
    INF,
    DegreeBoundError,
    DeltaAtLeast,
    ExactnessError,
    NotInvertibleError,
    PrecisionError,
    QAlgebraError,
    QSeries,
    RemainderError,
    series_invert_unit,
    series_sum_bounded,
)
from .qcomb import (
    DivergentPochhammerError,
    curly_fact,
    curly_poch,
    poch,
    qbinom,
    qfact,
    qint,
)
from .transform import (
    CoeffSeq,
    LbcError,
    LbcReport,
    a_from_f,
    f_from_a,
    lbc_check,
    lbc_margin,
)
from .omega import (
    OmegaElement,
    gamma,
    omega_from_a,
    omega_mul,
)
from .knots import (
    ClosedForm,
    CompositeCycleError,
    ExponentIntegralityError,
    KnotError,
    KnotFileError,
    KnotSpec,
    UnknownKnotError,
    get_knot,
    knot_names,
    load_knots,
    mirror,
)
from .residues import (
    ResidueAtom,
    ResidueFamily,
    branch_residue_41,
    descendant,
    residue_family,
    residue_series,
    residue_sigma,
    residue_theorem_check,
    residue_theorem_window,
    residues_from_f,
    tail_check,
    trefoil_recurrence_check,
)
from .surgery import (
    ConvergenceError,
    FractionalExponentError,
    SurgeryParams,
    ZhatResult,
    park_poly_explicit,
    park_poly_residue,
    surgery_weight_poly,
    zhat,
    zhat_via_fk,
    zhat_via_ih,
    zhat_via_residues,
)

__version__ = "1.0.0"

# asympt's names are served on first use (PEP 562), so that importing
# qhabiro, and every CLI command but asympt, does without mpmath
_ASYMPT_NAMES = frozenset("""
    PHI_F PHI_J AsymptoticsError GrowthResult IntegralityError
    PerturbSeries PeriodicityReport emit_csv eval_root_of_unity
    extract_phi f_at_root f_poly_exact growth_rate periodicity_check
    phi_quotient_check richardson series_mul series_sqrt_inv vol_41
""".split())


def __getattr__(name):
    if name in _ASYMPT_NAMES:
        from . import asympt
        return getattr(asympt, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
