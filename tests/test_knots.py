"""Knot registry, mirrors, and JSON-defined knots."""

import json
import random
import sys
import threading
import time
from fractions import Fraction

import pytest

from qhabiro import (
    ClosedForm,
    CoeffSeq,
    CompositeCycleError,
    ExactnessError,
    ExponentIntegralityError,
    KnotError,
    KnotFileError,
    KnotSpec,
    LbcError,
    PrecisionError,
    QSeries,
    SurgeryParams,
    UnknownKnotError,
    get_knot,
    knot_names,
    lbc_check,
    lbc_margin,
    load_knots,
    mirror,
    residue_series,
    zhat_via_ih,
    zhat_via_residues,
)

from qhabiro import knots
from conftest import a_unknot_closed, f_41_closed


class TestRegistry:
    def test_builtin_names(self):
        for name in ("unknot", "3_1l", "3_1r", "4_1"):
            assert name in knot_names()

    def test_unknown(self):
        with pytest.raises(UnknownKnotError):
            get_knot("5_2")

    def test_given_names_the_sides_received(self):
        assert [get_knot(name).given
                for name in ("unknot", "3_1l", "3_1r", "4_1")] == [
            "f", "af", "af", "a"]
        with pytest.raises(AttributeError):
            get_knot("4_1").given = "f"

    def test_unknot_coefficients(self):
        u = get_knot("unknot")
        assert u.f_coeff(0) == QSeries.one()
        assert u.f_coeff(3).is_zero

    def test_spec_resolves_to_itself(self):
        spec = KnotSpec("test_unregistered", lambda k: QSeries.one())
        assert get_knot(spec) is spec
        assert get_knot(get_knot("4_1")) is get_knot("4_1")

    def test_sides_are_memoised_attributes(self):
        spec = get_knot("4_1")
        assert spec.f is spec.f and spec.a is spec.a

    def test_a_side_is_required(self):
        with pytest.raises(ValueError):
            KnotSpec("test_no_side")

    def test_given_sides_are_kept(self):
        one = lambda k: QSeries.one()
        spec = KnotSpec("test_both_sides", one, one)
        assert spec.a[5] == spec.f[5] == QSeries.one()

    def test_racing_registrations_of_one_name(self):
        class YieldingName(str):
            # hashing lets the other threads run, so a registry that looked
            # the name up and then inserted it would let two of them in
            def __hash__(self):
                time.sleep(0.001)
                return str.__hash__(self)

        name = YieldingName("test_registry_race")
        specs = [KnotSpec(name, lambda k: QSeries.one()) for _ in range(8)]
        won, lost = [], []
        start = threading.Barrier(len(specs), timeout=60)

        def work(spec):
            start.wait()
            try:
                knots._register(spec)
            except KnotError:
                lost.append(spec)
            else:
                won.append(spec)

        threads = [threading.Thread(target=work, args=(spec,)) for spec in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len(won) == 1 and len(lost) == len(specs) - 1
            assert knots._REGISTRY[name] is won[0]
        finally:
            sys.setswitchinterval(interval)
            knots._REGISTRY.pop(name, None)


class TestMirror:
    def test_trefoil_mirror_pair(self):
        m = mirror("3_1l")
        r = get_knot("3_1r")
        assert m.given == "af"
        for k in range(11):
            assert m.a_coeff(k) == r.a_coeff(k), k
            assert m.f_coeff(k) == r.f_coeff(k), k

    def test_unknot_amphichiral_on_its_given_side(self):
        m = mirror("unknot")
        orig = get_knot("unknot")
        assert m.given == "f"
        for k in range(11):
            assert m.f_coeff(k) == orig.f_coeff(k), k
            assert m.a_coeff(k) == orig.a_coeff(k), k

    @pytest.mark.parametrize("side", ["a", "f"])
    def test_inexact_coefficient_raises(self, side):
        inexact = lambda k: QSeries.one().truncate(3)
        knot = KnotSpec("t", **{side + "_gen": inexact})
        with pytest.raises(ExactnessError):
            getattr(mirror(knot), side)[0]

    def test_involution(self):
        m2 = mirror(mirror("3_1l"))
        orig = get_knot("3_1l")
        for k in range(11):
            assert m2.a_coeff(k) == orig.a_coeff(k)

    def test_figure_eight_amphichiral(self):
        m = mirror("4_1")
        orig = get_knot("4_1")
        for k in range(11):
            assert m.a_coeff(k) == orig.a_coeff(k)


class TestClosedForms:
    """The built-in knots' f and a against the transform and closed forms.

    The unknot's f and the trefoils' f are closed forms in the library; the
    figure-eight knot's f and the unknot's a are the transform's, and the
    closed forms here are their oracles."""

    def test_closed_forms_match_transform(self):
        from qhabiro import f_from_a

        closed = {"4_1": f_41_closed}
        for name in ("unknot", "3_1l", "3_1r", "4_1"):
            spec = get_knot(name)
            via_transform = f_from_a(spec.a)
            for k in range(61):
                assert spec.f[k] == via_transform[k], (name, k)
                if name in closed:
                    assert spec.f[k] == closed[name](k), (name, k)

    def test_unknot_a_is_balanced_q_catalan(self):
        a = get_knot("unknot").a
        for k in range(41):
            assert a[k] == a_unknot_closed(k), k


class TestClosedForm:
    def test_builtin_sides(self):
        forms = {name: [getattr(get_knot(name), s)._gen.c
                        for s in get_knot(name).given]
                 for name in ("3_1l", "3_1r", "4_1")}
        half, sixth = Fraction(1, 2), Fraction(1, 6)
        assert forms == {"3_1l": [(half, -half, -1), (-sixth, -sixth, -1)],
                         "3_1r": [(-half, half, 1), (sixth, sixth, 1)],
                         "4_1": [(0, 0, 0)]}

    def test_mirror_negates_the_quadratic(self):
        form = ClosedForm((1, -2, 0), 2, -1, 3)
        m = form.mirror()
        assert (m.signs, m.c) == ((1, -2, 0), (-2, 1, -3))
        for k in range(9):
            assert m(k) == form(k).mirror(), k
        assert m(2).is_zero

    def test_integrality_on_the_nonzero_classes(self):
        # the trefoil's f-side: k(k+1)/6 is non-integral exactly where
        # eps_{2k+1} = 0, at k = 1 and 4 mod 6
        form = ClosedForm((-1, 0, 1, 1, 0, -1), Fraction(1, 6),
                          Fraction(1, 6), 1)
        assert [form(k) for k in range(7)] == [
            QSeries.monomial(e, s) if s else QSeries.zero()
            for e, s in ((1, -1), (0, 0), (2, 1), (3, 1), (0, 0), (6, -1),
                         (8, -1))]
        assert ClosedForm((1, 0), 0, Fraction(1, 2), 0)(2) == \
            QSeries.monomial(1)
        with pytest.raises(ExponentIntegralityError, match="at k=1"):
            ClosedForm((1,), Fraction(1, 6), Fraction(1, 6), 1)
        # (k^2 - k)/3 is integral at k = 0 and 1: the third point decides
        with pytest.raises(ExponentIntegralityError, match="at k=2"):
            ClosedForm((1,), Fraction(1, 3), Fraction(-1, 3), 0)

    def test_mirror_without_lbc_constant(self, tmp_path):
        # a_{-k-1} = (-1)^{k+1} q^{k^2} has margin 3k^2/2 - k/2 - 1; its
        # mirror's, -k^2/2 - k/2 - 1, falls without bound (the audit over
        # k <= 24 gave C = -301)
        doc = [{"name": "test_mirror_no_lbc",
                "generator": monomial_generator({"alpha": 1, "beta": 1},
                                                {"c2": 1})}]
        (knot,) = load_knots(write_doc(tmp_path, doc))
        assert knot.lbc_constant == -1
        m = mirror(knot)
        with pytest.raises(LbcError, match="'test_mirror_no_lbc!' has no LBC"):
            m.lbc_constant
        assert m.a[3] == QSeries.monomial(-9)

    def test_builtin_mirrors_keep_their_lbc_constants(self):
        want = {"unknot": -1, "3_1l": 0, "3_1r": -2, "4_1": -1}
        assert {name: mirror(name).lbc_constant for name in want} == want

    def test_exact_constant_against_the_audit(self):
        # random period <= 4 tables with exponents integral by construction
        # (c2 = n/2, c1 = m + n/2); the exact C is the audit's over 400
        # indices, and LbcError comes exactly when that audit still falls
        # between 200 and 400 indices
        rng = random.Random(20250926)
        raised = 0
        for _ in range(400):
            signs = [rng.choice((-2, -1, 0, 0, 1, 1, 3))
                     for _ in range(rng.randint(1, 4))]
            half = Fraction(rng.randint(-3, 3), 2)
            form = ClosedForm(signs, half, rng.randint(-40, 40) + half,
                              rng.randint(-20, 20))
            a = CoeffSeq("P", form)
            audit = lbc_check(a, 400).constant
            try:
                exact = form.lbc_constant()
            except LbcError:
                raised += 1
                assert audit < lbc_check(a, 200).constant, (signs, form.c)
            else:
                assert exact == audit, (signs, form.c)
        assert 100 < raised < 300  # both branches run


def write_doc(tmp_path, doc, fname="knots.json"):
    p = tmp_path / fname
    p.write_text(json.dumps(doc))
    return p


def monomial_generator(sign=None, exponent=None):
    return {"kind": "monomial",
            "sign": {"alpha": 0, "beta": 0} if sign is None else sign,
            "exponent": {} if exponent is None else exponent}


class TestLoadKnots:
    def test_monomial_roundtrip(self, tmp_path):
        doc = [{
            "name": "test_trefoil_left_copy",
            "generator": {
                "kind": "monomial",
                "sign": {"alpha": 1, "beta": 1},
                "exponent": {"c2": "1/2", "c1": "-1/2", "c0": -1},
            },
        }]
        (spec,) = load_knots(write_doc(tmp_path, doc))
        ref = get_knot("3_1l")
        for k in range(12):
            assert spec.a_coeff(k) == ref.a_coeff(k)

    def test_list_generator_bounded(self, tmp_path):
        doc = [{
            "name": "test_list_knot",
            "generator": {
                "kind": "list",
                "coeffs": [QSeries.one().to_json(),
                           QSeries.monomial(2, -1).to_json()],
            },
        }]
        (spec,) = load_knots(write_doc(tmp_path, doc))
        assert spec.a_coeff(1) == QSeries.monomial(2, -1)
        with pytest.raises(PrecisionError, match="up to index 1 only"):
            spec.a_coeff(2)

    def test_composite_sum(self, tmp_path):
        doc = [{
            "name": "test_composite_sum",
            "generator": {"kind": "composite", "summands": ["3_1l", "4_1"]},
        }]
        (spec,) = load_knots(write_doc(tmp_path, doc))
        for k in range(6):
            expected = get_knot("3_1l").a_coeff(k) + get_knot("4_1").a_coeff(k)
            assert spec.a_coeff(k) == expected

    def test_nonintegral_exponent_rejected(self, tmp_path):
        # k^2/5 is first non-integral at k = 1, (k^2 - k)/3 at k = 2
        for exponent, k in (({"c2": "1/5", "c1": 0, "c0": 0}, 1),
                            ({"c2": "1/3", "c1": "-1/3", "c0": 0}, 2)):
            doc = [{
                "name": "test_bad_exponent",
                "generator": {
                    "kind": "monomial",
                    "sign": {"alpha": 0, "beta": 0},
                    "exponent": exponent,
                },
            }]
            with pytest.raises(ExponentIntegralityError, match="at k=%d" % k):
                load_knots(write_doc(tmp_path, doc))
            assert "test_bad_exponent" not in knot_names()

    @pytest.mark.parametrize("exponent", [
        # a_{-k-1} = (-1)^(k+1) q^(-k^2 + 30k): over k <= 24 the audit gave
        # C = -1, over k <= 100 -2051; its margin is -k^2/2 + 29.5k - 1
        {"c2": -1, "c1": 30, "c0": 0},
        # margin -k + 2, falling linearly
        {"c2": "-1/2", "c1": "-1/2", "c0": 3},
    ], ids=["quadratic", "linear"])
    def test_unbounded_lbc_margin_rejected(self, tmp_path, exponent):
        doc = [{"name": "test_no_lbc",
                "generator": monomial_generator({"alpha": 1, "beta": 1},
                                                exponent)}]
        with pytest.raises(LbcError, match="'test_no_lbc' has no LBC"):
            load_knots(write_doc(tmp_path, doc))
        assert "test_no_lbc" not in knot_names()

    def test_trefoils_load_through_the_file_format(self, tmp_path):
        # 3_1r's margin is constant, c0 - 1 = 0: the bounded edge
        exponents = {"3_1l": {"c2": "1/2", "c1": "-1/2", "c0": -1},
                     "3_1r": {"c2": "-1/2", "c1": "1/2", "c0": 1}}
        doc = [{"name": "test_file_" + name,
                "generator": monomial_generator({"alpha": 1, "beta": 1}, e)}
               for name, e in exponents.items()]
        specs = load_knots(write_doc(tmp_path, doc))
        for spec, name in zip(specs, exponents):
            ref = get_knot(name)
            assert spec.a.prefix(30) == ref.a.prefix(30), name
            assert spec.lbc_constant == ref.lbc_constant, name

    def test_lbc_constant_past_the_window(self, tmp_path):
        # margin k^2/2 - 30.5k - 1, least at k = 30 and 31: the audit over
        # k <= 24 gave C = -445, and residue_series then raised
        # DegreeBoundError at k = 25
        doc = [{"name": "test_late_minimum",
                "generator": monomial_generator(exponent={"c1": -30})}]
        (knot,) = load_knots(write_doc(tmp_path, doc))
        assert knot.lbc_constant == lbc_check(knot.a, 100).constant == -466
        assert residue_series(knot.a, 0, 10, knot.lbc_constant) == \
            QSeries.zero(10)

    def test_composite_lbc_constant_past_the_window(self, tmp_path):
        # every summand's C is exact, so the composite's is the least of
        # them: the audit over k <= 24 gave -445
        doc = [{"name": "test_late_summand",
                "generator": monomial_generator(exponent={"c1": -30})},
               {"name": "test_late_composite",
                "generator": {"kind": "composite",
                              "summands": ["test_late_summand", "4_1"]}},
               {"name": "test_late_nested",
                "generator": {"kind": "composite",
                              "summands": ["3_1l", "test_late_composite"]}}]
        summand, composite, nested = load_knots(write_doc(tmp_path, doc))
        assert composite.lbc_constant == summand.lbc_constant == -466
        assert lbc_check(composite.a, 100).constant == -466
        assert nested.lbc_constant == lbc_check(nested.a, 100).constant \
            == -466

    def test_list_knot_audited_over_every_entry(self, tmp_path):
        # margin floor((k-30)^2/8) - 20, least at k = 30: the audit over
        # k <= 24 gave C = -16, and residue_series then raised
        # DegreeBoundError at k = 25
        coeffs = [QSeries.monomial(lbc_margin(k) + (k - 30) ** 2 // 8 - 20)
                  for k in range(45)]
        doc = [{"name": "test_late_list",
                "generator": {"kind": "list",
                              "coeffs": [c.to_json() for c in coeffs]}}]
        (knot,) = load_knots(write_doc(tmp_path, doc))
        assert knot.lbc_constant == lbc_check(knot.a, 44).constant == -20
        want = QSeries.from_terms(
            {9: -1, 11: -3, 12: -2, 13: -8, 14: -10, 15: -21, 16: -28,
             17: -55, 18: -76, 19: -129}, prec=20)
        assert residue_series(knot.a, 0, 20, knot.lbc_constant) == want
        # a lower C widens the window, and the sum does not change
        assert residue_series(knot.a, 0, 20, -24) == want
        params = SurgeryParams(-1, 0, 12)
        got = zhat_via_residues(knot, params)
        assert got == zhat_via_ih(knot, params)
        assert got.series == QSeries.zero(12)

    def test_windowed_composite_lbc_constant(self, tmp_path):
        # the unknot's a-side is a cascade: the composite takes the least of
        # its summands' constants, the unknot's read on its f-side
        doc = [{"name": "test_windowed_composite",
                "generator": {"kind": "composite",
                              "summands": ["unknot", "4_1"]}}]
        (knot,) = load_knots(write_doc(tmp_path, doc))
        assert knot.lbc_constant == lbc_check(knot.a, 24).constant

    def test_builtin_lbc_constants(self):
        want = {"unknot": -1, "3_1l": -2, "3_1r": 0, "4_1": -1}
        assert {name: get_knot(name).lbc_constant for name in want} == want

    def test_trefoil_f_side_closed_forms_give_their_constants(self):
        for name, C in (("3_1l", -2), ("3_1r", 0)):
            f = get_knot(name).f._gen
            assert isinstance(f, ClosedForm)
            assert f.lbc_constant() == C == lbc_check(get_knot(name).f,
                                                       60).constant, name

    @pytest.mark.parametrize("name,C", [("unknot", -1), ("3_1r", 0)])
    def test_f_only_knot_builds_no_a_side_row(self, name, C):
        # the unknot's f is audited, the trefoil's f-side ClosedForm is
        # read; neither reads the a-side cascade
        knot = KnotSpec("test_f_only_" + name, f_gen=get_knot(name).f._gen)
        assert knot.lbc_constant == C
        assert knot.a._gen._rows == []

    def test_composite_cycle_rejected(self, tmp_path):
        doc = [
            {"name": "test_cyc_a",
             "generator": {"kind": "composite", "summands": ["test_cyc_b"]}},
            {"name": "test_cyc_b",
             "generator": {"kind": "composite", "summands": ["test_cyc_a"]}},
            {"name": "test_cyc_c",
             "generator": {"kind": "composite", "summands": ["test_cyc_a",
                                                             "4_1"]}},
        ]
        with pytest.raises(CompositeCycleError,
                           match="through 'test_cyc_[ab]'"):
            load_knots(write_doc(tmp_path, doc))
        assert "test_cyc_c" not in knot_names()

    def test_composite_unknown_reference_rejected(self, tmp_path):
        doc = [
            {"name": "test_ref_a",
             "generator": {"kind": "composite", "summands": ["test_ref_b"]}},
            {"name": "test_ref_b",
             "generator": {"kind": "composite",
                           "summands": ["test_ref_a", "test_ref_missing"]}},
        ]
        with pytest.raises(KnotFileError, match="unknown knot 'test_ref_missing'"):
            load_knots(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("bad", [
        {"scale": 1},
        5,
        {"coeffs": ["x"], "offset": 0, "scale": 1},
        {"coeffs": ["1"], "offset": 0, "scale": 0},
        {"coeffs": ["1"], "offset": 0, "scale": 1, "prec": "abc"},
        "{bad",
    ], ids=["no-coeffs", "number", "bad-coeff", "zero-scale", "bad-prec",
            "bad-json"])
    def test_malformed_list_coefficient_rejected(self, tmp_path, bad):
        doc = [{
            "name": "test_bad_coefficient",
            "generator": {"kind": "list",
                          "coeffs": [QSeries.one().to_json(), bad]},
        }]
        with pytest.raises(KnotFileError,
                           match=r"'test_bad_coefficient' .*coeffs\[1\]"):
            load_knots(write_doc(tmp_path, doc))
        assert "test_bad_coefficient" not in knot_names()

    def test_duplicate_name_rejected(self, tmp_path):
        doc = [{
            "name": "4_1",
            "generator": {"kind": "monomial", "sign": {}, "exponent": {}},
        }]
        with pytest.raises(KnotFileError):
            load_knots(write_doc(tmp_path, doc))

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(KnotFileError):
            load_knots(p)

    def test_f_closed_form_loads_when_it_matches(self, tmp_path):
        doc = [{
            "name": "test_closed_form_41",
            "generator": {"kind": "list",
                          "coeffs": [QSeries.one().to_json()] * 12},
            "f_closed_form": "builtin:4_1",
        }]
        (spec,) = load_knots(write_doc(tmp_path, doc))
        for k in range(12):
            assert spec.f_coeff(k) == get_knot("4_1").f_coeff(k), k

    def test_f_closed_form_against_a_shorter_knot(self, tmp_path):
        ones = lambda n: {"kind": "list",
                          "coeffs": [QSeries.one().to_json()] * n}
        load_knots(write_doc(tmp_path, [
            {"name": "test_closed_form_short", "generator": ones(2)}]))
        (spec,) = load_knots(write_doc(tmp_path, [{
            "name": "test_closed_form_long", "generator": ones(12),
            "f_closed_form": "builtin:test_closed_form_short",
        }]))
        assert spec.f_coeff(11) == get_knot("4_1").f_coeff(11)

    def test_f_closed_form_mismatch_rejected(self, tmp_path):
        doc = [{
            "name": "test_closed_form_wrong",
            "generator": {
                "kind": "monomial",
                "sign": {"alpha": 1, "beta": 1},
                "exponent": {"c2": "1/2", "c1": "-1/2", "c0": -1},
            },
            "f_closed_form": "builtin:4_1",
        }]
        with pytest.raises(KnotFileError):
            load_knots(write_doc(tmp_path, doc))
        assert "test_closed_form_wrong" not in knot_names()

    def test_f_closed_form_needs_builtin_handle(self, tmp_path):
        doc = [{
            "name": "test_closed_form_bare",
            "generator": {"kind": "composite", "summands": ["4_1"]},
            "f_closed_form": "4_1",
        }]
        with pytest.raises(KnotFileError):
            load_knots(write_doc(tmp_path, doc))

    def test_unknown_kind_rejected(self, tmp_path):
        doc = [{"name": "test_unknown_kind", "generator": {"kind": "spline"}}]
        with pytest.raises(KnotFileError):
            load_knots(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("entry,message", [
        (5, "must be an object"),
        ({"generator": {"kind": "list"}}, "nonempty name"),
        ({"name": "", "generator": {"kind": "list"}}, "nonempty name"),
        ({"name": "test_schema", "generator": {}}, "generator with a kind"),
        ({"name": "test_schema", "generator": monomial_generator(),
          "convention": []}, "convention must be an object"),
        ({"name": "test_schema", "generator": monomial_generator(),
          "convention": {"x_half_shift": True}}, "x_half_shift"),
        ({"name": "test_schema", "generator": monomial_generator(sign=[])},
         "sign and exponent objects"),
        ({"name": "test_schema", "generator": monomial_generator(exponent=2)},
         "sign and exponent objects"),
        ({"name": "test_schema",
          "generator": monomial_generator(sign={"alpha": 1.5})},
         "sign exponents must be integers"),
        ({"name": "test_schema",
          "generator": monomial_generator(sign={"alpha": True})},
         "sign exponents must be integers"),
        ({"name": "test_schema",
          "generator": monomial_generator(sign={"beta": False})},
         "sign exponents must be integers"),
        ({"name": "test_schema",
          "generator": monomial_generator(exponent={"c1": 1.5})},
         "integer or fraction string"),
        ({"name": "test_schema",
          "generator": monomial_generator(exponent={"c2": "1/0"})},
         "bad rational '1/0'"),
        ({"name": "test_schema", "generator": {"kind": "list"}},
         "nonempty coeffs array"),
        ({"name": "test_schema", "generator": {"kind": "composite"}},
         "summands array"),
        ({"name": "test_schema",
          "generator": {"kind": "composite", "summands": ["4_1", 5]}},
         "summands must be knot names"),
    ], ids=["not-object", "no-name", "empty-name", "no-kind",
            "convention-list", "x-half-shift", "sign-list", "exponent-number",
            "alpha-float", "alpha-true", "beta-false", "exponent-float",
            "one-over-zero", "list-no-coeffs", "composite-no-summands",
            "summand-number"])
    def test_schema_error_registers_nothing(self, tmp_path, entry, message):
        # the valid entry before the bad one is not registered either
        good = {"name": "test_schema_good", "generator": monomial_generator()}
        names = knot_names()
        with pytest.raises(KnotFileError, match=message):
            load_knots(write_doc(tmp_path, [good, entry]))
        assert knot_names() == names
