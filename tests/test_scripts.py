"""The scripts under scripts/ run end to end, and bad input ends in
one-line errors, not tracebacks."""

import json
import os
import subprocess
import sys

import pytest

import qhabiro
from qhabiro.cli import VERIFY_SUITES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(qhabiro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *argv],
        env=env, capture_output=True, text=True, timeout=120)


def test_verify_identities():
    proc = run_script("verify_identities.py", "--prec", "8", "pentagonal",
                      "theta-route")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "OK: defect 0 to O(q^8)",
        "OK: theta route matches direct residues to O(q^8)",
    ]


def test_verify_identities_runs_every_suite_by_default():
    proc = run_script("verify_identities.py", "--prec", "4", "--json")
    assert proc.returncode == 0, proc.stderr
    assert sorted(json.loads(proc.stdout)) == sorted(VERIFY_SUITES)


def test_verify_identities_bad_suite():
    proc = run_script("verify_identities.py", "fermat")
    assert proc.returncode == 1 and proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("usage error: ") and "'fermat'" in line


def test_run_asymptotics():
    proc = run_script("run_asymptotics.py", "--n-max", "30")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("period 5, values ")
    assert lines[1].startswith("growth 2.029")
    assert lines[2] == "volume 2.0298832128"
    assert lines[4] == "quotient coefficients: [1, 9, 513, 109593]"


@pytest.mark.parametrize("argv", [
    ("--bits", "1", "--n-max", "20"),
    ("--n-max", "3"),
    ("--knot", "3_1r", "--n-max", "20"),
])
def test_run_asymptotics_bad_input(argv):
    proc = run_script("run_asymptotics.py", *argv)
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    errors = proc.stderr.splitlines()
    assert errors and all(line.startswith(("usage error: ", "error: "))
                          for line in errors), proc.stderr
