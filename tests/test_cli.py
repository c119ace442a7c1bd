"""Command-line interface: exit codes, JSON output, environment defaults."""

import ast
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import qhabiro
from qhabiro import QSeries, a_from_f, f_from_a, get_knot, load_knots, residues
from qhabiro.cli import VERIFY_SUITES, main

from conftest import fresh_knot, residue_plus_q_at


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run(capsys, "knot", "--name", "4_1", "--index", "2")
        assert code == 0
        assert "a_-1" in out

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "knot", "--name")
        assert code == 1
        assert "usage error" in err

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_no_command_prints_usage(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_domain_error(self, capsys):
        # positive surgery on 4_1 diverges
        code, _, err = run(capsys, "surgery", "--knot", "4_1", "-p", "5",
                           "--prec", "15")
        assert code == 2
        assert "divergent" in err

    def test_domain_error_json(self, capsys):
        code, out, _ = run(capsys, "surgery", "--knot", "4_1", "-p", "5",
                           "--prec", "15", "--json")
        assert code == 2
        obj = json.loads(out)
        assert obj["error"] == "ConvergenceError"

    def test_divergent_residue_route_is_domain_error_json(self, capsys):
        # the j-sum diverges, and so does the GM k-sum that would stand in
        code, out, _ = run(capsys, "surgery", "--knot", "3_1l", "-p", "-7",
                           "--prec", "6", "--method", "residues", "--json")
        assert code == 2
        assert json.loads(out)["error"] == "ConvergenceError"

    def test_error_format_ignores_host_argv(self, capsys, monkeypatch):
        # main(argv) reads its own arguments, not the host process's
        monkeypatch.setattr(sys, "argv", ["host", "--json"])
        code, out, err = run(capsys, "surgery", "--knot", "4_1", "-p", "5",
                             "--prec", "15")
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_unknown_knot_is_domain_error(self, capsys):
        code, _, err = run(capsys, "knot", "--name", "9_42")
        assert code == 2

    @pytest.mark.parametrize("knot", ["3_1l", "unknot"])
    def test_phi_of_another_knot_is_domain_error(self, capsys, knot):
        # Phi^F is normalized by the figure-eight volume
        code, out, err = run(capsys, "asympt", "--mode", "phi", "--knot", knot)
        assert (code, out) == (2, "") and err.startswith("error: ")
        assert repr(knot) in err

    @pytest.mark.parametrize("argv", [
        ("surgery", "--knot", "3_1l", "-p", "-3", "-a", "5"),
        ("surgery", "--knot", "3_1l", "-p", "0"),
        ("park-poly", "-p", "-2", "-k", "2"),
        ("park-poly", "-p", "2", "-k", "-1"),
        ("transform", "--knot", "4_1", "--method", "closed"),
        ("asympt", "--mode", "phi", "--n-max", "3"),
        ("asympt", "--mode", "growth", "--n-max", "0"),
        ("asympt", "--mode", "quotient", "--depth", "9"),
        ("asympt", "--mode", "phi", "--bits", "0"),
        ("asympt", "--mode", "period", "--bits", "0"),
        ("asympt", "--mode", "phi", "--bits", "1"),
        ("asympt", "--mode", "phi", "--bits", "8"),
        ("asympt", "--mode", "period", "--bits", "1"),
        ("asympt", "--mode", "growth", "--bits", "16"),
        ("asympt", "--mode", "growth", "--bits", "32"),
    ])
    def test_bad_parameters_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("usage error: ")
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("n_max", ["0", "5", "9"])
    def test_growth_window_error_names_the_flag(self, capsys, n_max):
        code, out, err = run(capsys, "asympt", "--mode", "growth",
                             "--n-max", n_max)
        assert code == 1 and out == ""
        assert err == "usage error: --n-max must be at least 10 for --mode growth\n"

    @pytest.mark.parametrize("argv", [
        ("knot", "--name", "4_1", "--index", "-2"),
        ("knot", "--name", "4_1", "--prec", "-1"),
        ("transform", "--knot", "4_1", "--index", "-1"),
        ("residues", "--knot", "4_1", "--prec", "-5"),
        ("residues", "--knot", "4_1", "--window", "-1"),
        ("verify", "pentagonal", "--prec", "-3"),
        ("surgery", "--knot", "4_1", "-p", "-2", "--prec", "-4"),
        ("connect-sum", "--knots", "3_1l", "3_1r", "--depth", "-1"),
        ("connect-sum", "--knots", "3_1l", "--prec", "-2"),
        ("asympt", "--mode", "quotient", "--depth", "-1"),
        ("asympt", "--mode", "period", "--n-max", "-3"),
        ("asympt", "--mode", "growth", "--bits", "-5"),
    ])
    def test_negative_sizes_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("usage error: ") and "nonnegative" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("verify", "pentagonal", "--jobs", "2"),
        ("asympt", "--mode", "period", "--jobs", "2"),
        ("residues", "--knot", "4_1", "--jobs", "2"),
    ])
    def test_jobs_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("usage error: ") and "--jobs" in err
        assert out == ""

    def test_knot_after_another_option_is_a_usage_error(self, capsys):
        # --knots is an option's list: it ends at the next option
        code, out, err = run(capsys, "connect-sum", "--knots", "3_1l",
                             "--depth", "8", "3_1r")
        assert (code, out) == (1, "")
        assert err == "usage error: unrecognized arguments: 3_1r\n"


VERIFY_ALL_DIGESTS = {
    6: "15318ff77be1109a776784bcf7e971b61b1f9d92e691e23ae34623969e9950f6",
    12: "651698d327dd7c8a58060551f3be6bbf1ab3654eca6f2be796332b95e155039a",
    20: "94a0c6e26f4deef651ef667c8609097bd82c3d1d6cbc3c5c062476e703401d07",
}


class TestVerify:
    def test_pentagonal(self, capsys):
        code, out, _ = run(capsys, "verify", "pentagonal", "--prec", "25")
        assert code == 0
        assert out.startswith("OK")

    def test_json_structure(self, capsys):
        code, out, _ = run(capsys, "verify", "fig8-sum", "--prec", "20",
                           "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["fig8-sum"]["ok"] is True

    @pytest.mark.parametrize("prec", sorted(VERIFY_ALL_DIGESTS))
    def test_all_suites_frozen(self, capsys, prec):
        # sha256 of `verify all --json` as the suites' sums computed it
        code, out, _ = run(capsys, "verify", "all", "--prec", str(prec),
                           "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            VERIFY_ALL_DIGESTS[prec]

    def test_bad_suite_name(self, capsys):
        code, _, _ = run(capsys, "verify", "fermat")
        assert code == 1

    def test_several_suites_in_order(self, capsys):
        code, out, _ = run(capsys, "verify", "pentagonal", "theta-route",
                           "--prec", "8")
        assert code == 0
        assert out.splitlines() == [
            "OK: defect 0 to O(q^8)",
            "OK: theta route matches direct residues to O(q^8)",
        ]

    @pytest.mark.parametrize("argv", [
        ("pentagonal", "--prec", "8", "theta-route"),
        ("--prec", "8", "pentagonal", "theta-route"),
        ("pentagonal", "--json", "theta-route", "--prec", "8"),
    ])
    def test_suite_names_on_both_sides_of_an_option(self, capsys, argv):
        suites = [a for a in argv if a in VERIFY_SUITES]
        options = [a for a in argv if a not in VERIFY_SUITES]
        mixed = run(capsys, "verify", *argv)
        assert mixed[0] == 0 and suites == ["pentagonal", "theta-route"]
        assert mixed == run(capsys, "verify", *suites, *options)

    def test_several_suites_json_is_one_object(self, capsys):
        code, out, _ = run(capsys, "verify", "pentagonal", "theta-route",
                           "--prec", "8", "--json")
        assert code == 0
        obj = json.loads(out)
        assert sorted(obj) == ["pentagonal", "theta-route"]
        assert all(v["ok"] for v in obj.values())

    def test_all_among_names_runs_every_suite_once(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "pentagonal", "--prec",
                           "6", "--json")
        assert code == 0
        assert sorted(json.loads(out)) == sorted(VERIFY_SUITES)

    def test_repeated_suite_runs_once(self, capsys):
        code, out, _ = run(capsys, "verify", "pentagonal", "pentagonal",
                           "--prec", "6")
        assert (code, out) == (0, "OK: defect 0 to O(q^6)\n")

    def test_theta_route_mismatch_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(residues, "residues_from_f",
                            lambda f, j, prec, C: QSeries.zero(prec))
        code, out, _ = run(capsys, "verify", "theta-route", "--prec", "8")
        assert (code, out) == (2, "FAIL: mismatch at 3_1l, j=0\n")

    def test_a_broken_residue_fails_its_suites(self, capsys, monkeypatch):
        monkeypatch.setattr(residues, "residue_series",
                            residue_plus_q_at(residues.residue_series, 2))
        code, out, _ = run(capsys, "verify", "residue-symmetry",
                           "trefoil-recurrence-l", "branch-half", "--prec", "8")
        assert code == 2
        assert out.splitlines() == [
            "FAIL: r_{-2} != q^{-2} r_2 for 3_1l",
            "FAIL: recurrence fails",
            "FAIL: branch relation fails at j=2",
        ]

    @pytest.mark.parametrize("suite", ["tails-even", "tails-odd"])
    @pytest.mark.parametrize("prec", [0, 5, 8, 40])
    def test_tails_at_any_precision(self, capsys, suite, prec):
        # the tail can agree no further than the precision asked for, so
        # below O(q^8) agreement to that precision passes
        code, out, _ = run(capsys, "verify", suite, "--prec", str(prec))
        assert code == 0, out
        agree_to = int(out.split("O(q^")[1].rstrip(")\n"))
        assert out.startswith("OK") and agree_to >= min(8, prec), out


class TestResidues:
    def test_tabulated_row_json(self, capsys):
        code, out, _ = run(capsys, "residues", "--knot", "3_1r", "-j", "0",
                           "--prec", "11", "--json")
        assert code == 0
        obj = json.loads(out)
        r0 = QSeries.from_json(obj["residues"]["0"])
        assert r0 == QSeries.from_terms(
            {1: 1, 2: 1, 3: 3, 4: 6, 5: 12, 6: 21, 7: 38, 8: 63, 9: 106,
             10: 170}, prec=11)

    def test_window_with_jobs(self, capsys):
        code, out, _ = run(capsys, "residues", "--knot", "4_1",
                           "--window", "1", "--prec", "10")
        assert code == 0
        assert "r_-1" in out and "r_0" in out and "r_1" in out

    def test_json_is_the_a_side_sum(self, capsys):
        # r_j is read as the surgery routes read it: for the f-given
        # unknot by the theta route, yet byte for byte the a-side's sum
        code, out, _ = run(capsys, "residues", "--knot", "unknot",
                           "--window", "3", "--prec", "12", "--json")
        assert code == 0
        spec = get_knot("unknot")
        want = {str(j): residues.residue_series(spec.a, j, 12,
                                                spec.lbc_constant).to_json()
                for j in range(-3, 4)}
        assert json.loads(out)["residues"] == want

    def test_unknot_at_o_q200(self, capsys, monkeypatch):
        # the a-side sum took about 6.5 s and 450 MB; from an empty store
        monkeypatch.setattr(get_knot("unknot"), "residues", {})
        start = time.perf_counter()
        code, out, _ = run(capsys, "residues", "--knot", "unknot",
                           "--prec", "200")
        assert time.perf_counter() - start < 1
        assert code == 0 and len(out.splitlines()) == 5


class TestOtherCommands:
    def test_park_poly_both_agree(self, capsys):
        code, out, _ = run(capsys, "park-poly", "-p", "2", "-a", "1",
                           "-k", "3", "--json")
        assert code == 0
        obj = json.loads(out)
        exp = QSeries.from_json(obj["explicit"])
        res = QSeries.from_json(obj["residue"])
        cut = res.prec_q
        assert exp.truncate(cut) == res.truncate(cut)

    def test_connect_sum(self, capsys):
        code, out, _ = run(capsys, "connect-sum", "--knots", "3_1l", "3_1r",
                           "--depth", "4", "--prec", "20")
        assert code == 0
        assert "a_-1" in out

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="omega_from_a embeds a knot as sigma0 + "
                              "x/(1-x) F, so the product's f-side is "
                              "x/(1-x) F1 F2 and the unknot is not the "
                              "unit of the connected sum; ROADMAP "
                              "Direction 6")
    def test_connect_sum_with_the_unknot(self, capsys):
        # unknot # 3_1r gives a_-1 = O(q^5), a_-2 = -q + O(q^5), ...;
        # 3_1r alone gives -q, q, -1, ...
        outs = [run(capsys, "connect-sum", "--knots", *names, "--depth", "5",
                    "--prec", "5", "--json")[1]
                for names in (("unknot", "3_1r"), ("3_1r",))]
        got, want = (json.loads(out)["coeffs"] for out in outs)
        assert got == want

    def test_transform(self, capsys):
        code, out, _ = run(capsys, "transform", "--knot", "4_1",
                           "--direction", "a-from-f", "--index", "3")
        assert code == 0
        assert "a_-1: 1" in out

    def test_asympt_quotient(self, capsys):
        code, out, _ = run(capsys, "asympt", "--mode", "quotient",
                           "--depth", "3", "--json")
        assert code == 0
        assert json.loads(out) == [1, 9, 513, 109593]

    def test_asympt_period(self, capsys):
        code, out, _ = run(capsys, "asympt", "--mode", "period",
                           "--n-max", "20", "--bits", "192")
        assert code == 0
        assert "period 5" in out

    def test_asympt_period_with_a_phase(self, capsys):
        argv = ("asympt", "--mode", "period", "--knot", "unknot", "--n-max", "12")
        assert run(capsys, *argv)[:2] == (0, "period 1, values [0.0] from n = 2\n")
        assert json.loads(run(capsys, *argv, "--json")[1])["phase"] == 2

    def test_asympt_aperiodic_window(self, capsys):
        # 4_1's period 5 needs two periods past the phase: n_max = 8 is short
        code, out, _ = run(capsys, "asympt", "--mode", "period", "--n-max", "8")
        assert (code, out) == (2, "aperiodic on window\n")

    def test_asympt_csv_header(self, capsys):
        code, out, _ = run(capsys, "asympt", "--mode", "csv",
                           "--n-max", "3", "--bits", "128")
        assert code == 0
        assert out.splitlines()[0] == "n,re,im,modulus,normalized"


class TestJsonContract:
    """Every command prints its result as one JSON value with sorted keys
    under --json, and nothing for an empty text result."""

    @pytest.mark.parametrize("argv", [
        ("knot", "--name", "4_1", "--index", "2"),
        ("knot", "--name", "3_1l", "--side", "f", "--index", "3",
         "--prec", "5"),
        ("transform", "--knot", "4_1", "--index", "3"),
        ("transform", "--knot", "3_1r", "--direction", "a-from-f",
         "--index", "2"),
        ("residues", "--knot", "4_1", "--window", "1", "--prec", "8"),
        ("verify", "pentagonal", "--prec", "10"),
        ("verify", "all", "--prec", "6"),
        ("surgery", "--knot", "3_1l", "-p", "-2", "--prec", "8"),
        ("park-poly", "-p", "2", "-a", "1", "-k", "3"),
        ("connect-sum", "--knots", "3_1l", "3_1r", "--depth", "3",
         "--prec", "10"),
        ("connect-sum", "--knots", "3_1l", "3_1r", "--depth", "0"),
        ("asympt", "--mode", "period", "--n-max", "20", "--bits", "192"),
        ("asympt", "--mode", "growth", "--n-max", "40"),
        ("asympt", "--mode", "phi", "--n-max", "60"),
        ("asympt", "--mode", "quotient", "--depth", "3"),
    ])
    def test_one_sorted_json_value(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 0 and err == ""
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"

    def test_empty_text_result_prints_nothing(self, capsys):
        code, out, err = run(capsys, "connect-sum", "--knots", "3_1l",
                             "3_1r", "--depth", "0")
        assert code == 0 and out == "" and err == ""


class TestBatchedRows:
    """knot and transform read their rows in one batch (CoeffSeq.prefix);
    the output is what reading one index at a time gives."""

    @pytest.mark.parametrize("name", ["unknot", "3_1l", "3_1r", "4_1"])
    def test_json_matches_reads_one_index_at_a_time(self, capsys, name):
        knot = fresh_knot(name)
        cases = [(("knot", "--name", name, "--side", "a"), knot.a, None),
                 (("knot", "--name", name, "--side", "f"), knot.f, None),
                 (("knot", "--name", name, "--prec", "20"), knot.a, 20),
                 (("transform", "--knot", name), f_from_a(knot.a), None),
                 (("transform", "--knot", name, "--direction", "a-from-f"),
                  a_from_f(knot.f), None)]
        for argv, seq, prec in cases:
            code, out, _ = run(capsys, *argv, "--index", "30", "--json")
            want = [seq[k] if prec is None else seq[k].truncate(prec)
                    for k in range(31)]
            assert code == 0, argv
            assert json.loads(out)["coeffs"] == [s.to_json() for s in want], \
                argv

    def test_list_knot_read_past_its_end(self, capsys, tmp_path):
        path = tmp_path / "knots.json"
        path.write_text(json.dumps([{
            "name": "test_cli_list_knot",
            "generator": {"kind": "list",
                          "coeffs": [QSeries.one().to_json(),
                                     QSeries.monomial(2, -1).to_json()]}}]))
        load_knots(path)
        message = "coefficients provided up to index 1 only; index 2 was read"
        for argv in (("knot", "--name", "test_cli_list_knot"),
                     ("knot", "--name", "test_cli_list_knot", "--side", "f"),
                     ("transform", "--knot", "test_cli_list_knot"),
                     ("transform", "--knot", "test_cli_list_knot",
                      "--direction", "a-from-f")):
            code, out, _ = run(capsys, *argv, "--index", "5", "--json")
            assert code == 2, argv
            assert json.loads(out) == {"error": "PrecisionError",
                                       "message": message}, argv
            code, _, err = run(capsys, *argv, "--index", "5")
            assert (code, err) == (2, "error: %s\n" % message), argv


class TestEnvironment:
    def test_prec_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("QHABIRO_PREC", "7")
        code, out, _ = run(capsys, "residues", "--knot", "4_1", "-j", "0")
        assert code == 0
        assert "O(q^7)" in out

    def test_negative_env_falls_back(self, capsys, monkeypatch):
        monkeypatch.setenv("QHABIRO_PREC", "-5")
        code, out, _ = run(capsys, "residues", "--knot", "4_1", "-j", "0")
        assert code == 0
        assert "O(q^40)" in out

    def test_bad_env_falls_back(self, capsys, monkeypatch):
        monkeypatch.setenv("QHABIRO_PREC", "many")
        code, out, _ = run(capsys, "residues", "--knot", "4_1", "-j", "0")
        assert code == 0
        assert "O(q^40)" in out


class TestLazyMpmath:
    """Only asympt needs mpmath: importing qhabiro and running any other
    command leave it unloaded, and asympt's names still resolve.  Only the
    CLI and knot files need json, and nothing needs dataclasses (nor the
    inspect chain it imports)."""

    SCRIPT = """
import sys
import qhabiro
qhabiro.get_knot("3_1l")
assert "json" not in sys.modules
from qhabiro.cli import VERIFY_SUITES, main
assert main(["surgery", "--knot", "3_1l", "-p", "-2", "--prec", "6"]) == 0
assert "mpmath" not in sys.modules
assert qhabiro.PHI_J.coeffs[1] == 11
assert "mpmath" in sys.modules
assert "dataclasses" not in sys.modules
"""

    def test_import_and_other_commands_leave_mpmath_unloaded(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(qhabiro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_no_module_imports_dataclasses(self):
        package = os.path.dirname(os.path.abspath(qhabiro.__file__))
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                with open(os.path.join(package, name)) as fh:
                    tree = ast.parse(fh.read(), name)
                imported = {n.module for n in ast.walk(tree)
                            if isinstance(n, ast.ImportFrom)} | {
                    a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                    for a in n.names}
                assert "dataclasses" not in imported, name

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            qhabiro.no_such_name
