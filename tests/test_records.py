"""The package's records: immutable, validated where they take outside
input, with keyword reprs and the defaults their callers rely on."""

from fractions import Fraction

import pytest

import qhabiro
from qhabiro import (
    DeltaAtLeast,
    LbcReport,
    OmegaElement,
    QSeries,
    ResidueFamily,
    SurgeryParams,
    ZhatResult,
    get_knot,
    residue_family,
    residue_sigma,
    zhat_via_residues,
)
from qhabiro.cli import main


def records():
    knot = get_knot("3_1l")
    return [
        DeltaAtLeast(Fraction(1)),
        LbcReport(0, Fraction(0)),
        OmegaElement(knot.a),
        residue_sigma(2, 1),
        residue_family(knot.a, 1, 4, knot.lbc_constant),
        SurgeryParams(-1, 0, 6),
        ZhatResult(Fraction(0), QSeries.zero(6), "zero to precision"),
        qhabiro.PeriodicityReport(None, None, ()),
        qhabiro.GrowthResult(0.0, 0, False),
        qhabiro.PHI_J,
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    name = repr(record).partition("(")[2].partition("=")[0]  # first field
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


class TestSurgeryParams:
    @pytest.mark.parametrize("p, a, message", [
        (0, 0, "surgery coefficient must be nonzero"),
        (2, 5, "spin-c label must satisfy 0 <= a < |p|"),
    ], ids=["zero_p", "a_out_of_range"])
    def test_bad_params_rejected(self, capsys, p, a, message):
        with pytest.raises(ValueError) as info:
            SurgeryParams(p, a, 6)
        assert str(info.value) == message
        code = main(["surgery", "--knot", "3_1l", "-p", str(p), "-a", str(a)])
        assert code == 1
        assert capsys.readouterr().err == "usage error: %s\n" % message

    def test_prec_is_a_fraction(self):
        params = SurgeryParams(-1, 0, 6)
        assert params.prec == Fraction(6) and type(params.prec) is Fraction
        assert params.method == "fk"


class TestOmegaElement:
    def test_f_side_rejected(self):
        with pytest.raises(ValueError) as info:
            OmegaElement(get_knot("3_1l").f)
        assert str(info.value) == "OmegaElement coefficients must be P-side"

    def test_defaults(self):
        el = OmegaElement(get_knot("3_1l").a)
        assert el.sigma0 == QSeries.zero() and el.sigma0.prec is None
        assert el.lbc is None


def test_lbc_report_default():
    assert LbcReport(0, Fraction(0)).indeterminate == ()


@pytest.mark.parametrize("record, text", [
    (SurgeryParams(-1, 0, 6),
     "SurgeryParams(p=-1, a=0, prec=Fraction(6, 1), method='fk')"),
    (LbcReport(3, Fraction(1, 2), (1,)),
     "LbcReport(checked_range=3, constant=Fraction(1, 2), indeterminate=(1,))"),
    (residue_sigma(2, 1),
     "ResidueAtom(k=2, j=1, sign=1, exponent=Fraction(4, 1), denom=(1, 3))"),
], ids=["SurgeryParams", "LbcReport", "ResidueAtom"])
def test_repr(record, text):
    assert repr(record) == text


def test_residue_family_window():
    knot = get_knot("3_1l")
    fam = residue_family(knot.a, 1, 4, knot.lbc_constant)
    assert isinstance(fam, ResidueFamily) and fam.prec == Fraction(4)
    with pytest.raises(KeyError):
        fam.r(2)


def test_fallback_note_is_appended():
    # the residue route's divergent j-sum: its result is the k-sum's,
    # with the note added to the sign convention
    res = zhat_via_residues("3_1r", SurgeryParams(-3, 0, 12))
    assert res.sign_convention.endswith(
        "; termwise j-sum diverges, evaluated as the iterated "
        "k-sum over residue-reconstructed coefficients")
    assert res.sign_convention.startswith(
        "equality holds up to sign and rational q-power")
