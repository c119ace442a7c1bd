"""The benchmark's tracer against the library it traces.

perfbench/tracing.py rebinds qhabiro's layer functions by name.  A name
that leaves src/, or a route that stops calling a layer through its module
binding, would break ``perfbench/run.py --trace 1`` without failing any
other test; this module catches it.  The tracer is loaded from its file
and never modified.  ``perfbench/selftest.py``, the tracer's own check
across fresh interpreters, runs here too.
"""

import importlib.util
import os
import subprocess
import sys

from qhabiro import SurgeryParams, residues, surgery

from conftest import fresh_knot

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_rebinds_existing_names_and_restores_them():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        # install() looks every name up, and fails on one that is gone
        tracer.install()
        assert tracer._rebound
        for ns, attr, original in tracer._rebound:
            assert getattr(ns, attr) is not original, (ns, attr)
        rebound = {(getattr(ns, "__name__", None), attr)
                   for ns, attr, _ in tracer._rebound}
        for attr in ("zhat_via_fk", "zhat_via_residues", "zhat_via_ih",
                     "surgery_weight_poly", "residue_series", "f_from_a"):
            assert ("qhabiro.surgery", attr) in rebound, attr
        for name, mod, attr in tracing.CACHES:
            assert hasattr(sys.modules[mod], attr), name
        # the routes reach their layers through the rebound names, on a
        # knot and weight monomials that no earlier test has memoised
        knot = fresh_knot("3_1l")
        surgery._weight_monos.cache_clear()
        for method in ("fk", "residues", "ihcoef"):
            surgery.zhat(knot, SurgeryParams(-2, 1, 8, method=method))
        seen = {span[0] for span in tracer.spans}
        assert {"surgery.route_fk", "surgery.route_residues",
                "surgery.route_ih", "surgery.weight_poly",
                "residues.residue_series", "series.sum"} <= seen, seen
    finally:
        tracer.uninstall()
    assert tracer.restored()


def test_kernel_names_the_benchmark_reads():
    # perfbench/sample.py records `series._mpz is not None` in every
    # sample; the tracer splits products at `series._KRONECKER_CUTOFF`
    from qhabiro import series

    assert hasattr(series, "_mpz")
    assert isinstance(series._KRONECKER_CUTOFF, int)


def test_tracer_counts_surgery_fallbacks():
    # the tracer counts a fallback when "diverges" is in the result's
    # sign_convention; 3_1r at p = -3 falls back on the residue and
    # inverted-coefficient routes, never on the GM route
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        knot = fresh_knot("3_1r")
        for method in ("fk", "residues", "ihcoef"):
            surgery.zhat(knot, SurgeryParams(-3, 0, 12, method=method))
        assert tracer.counts["surgery.fallbacks"] == 2
    finally:
        tracer.uninstall()
    assert tracer.restored()


def test_tracer_sees_the_certified_sums():
    # the tracer counts the terms of every certified sum through the name
    # series_sum_bounded, which the closed-form branch residues call
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        residues.branch_residue_41("+1/2", 0, 8)
        assert "series.sum_bounded" in {span[0] for span in tracer.spans}
        assert tracer.counts["series.sum_bounded.terms"] > 0
    finally:
        tracer.uninstall()
    assert tracer.restored()


def test_selftest_passes():
    # traced and untraced samples of every workload at the small size
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
