"""Self-test of the benchmark's tracing, on the small workload sizes.

    python3 perfbench/selftest.py

For every workload it checks that

* two traced samples of the same code and seed, each in a fresh
  interpreter, report exactly the same call, term and coefficient counters
  and the same ``cache_info()`` snapshots;
* the traced run's outputs equal the untraced run's outputs;
* after tracing, every name in the ``qhabiro`` modules, and every method the
  tracer wraps, is bound to its original object again.

Prints one line per check and exits with 1 if any fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7
SIZE = "small"


def traced_sample(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "sample.py"), "--workload", workload,
         "--seed", str(SEED), "--trace", "1", "--size", SIZE],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True, text=True, timeout=120)
    if proc.returncode:
        sys.exit("sample.py failed:\n" + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bindings() -> dict:
    """Every attribute of the qhabiro modules, plus the wrapped methods."""
    from qhabiro import residues, series

    out = {(mod.__name__, key): value
           for mod in tracing.qhabiro_modules() for key, value in vars(mod).items()}
    for cls, attrs in ((series.QSeries, ("__mul__", "__rmul__")),
                       (residues.ResidueAtom, ("to_series",))):
        out.update({(cls.__name__, a): vars(cls)[a] for a in attrs})
    return out


def main() -> int:
    failures = 0

    def report(name: str, ok: bool):
        nonlocal failures
        failures += not ok
        print("%s %s" % ("ok  " if ok else "FAIL", name))

    for name in sorted(workloads.WORKLOADS):
        first, second = traced_sample(name), traced_sample(name)
        report("%s: traced samples pass their checks" % name,
               first["failed"] == 0 and second["failed"] == 0)
        report("%s: counters repeat across traced runs" % name,
               first["counters"] == second["counters"])
        report("%s: cache_info() repeats across traced runs" % name,
               first["caches"] == second["caches"])
        report("%s: traced sample restores its names" % name,
               first["restored"] and second["restored"])

        wl = workloads.WORKLOADS[name](SEED, SIZE)
        untraced = wl.run()
        before = bindings()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = wl.run()
        except Exception as e:  # reported as a failed check
            traced = e
        finally:
            tracer.uninstall()
        after = bindings()
        report("%s: tracer recorded spans" % name, bool(tracer.spans))
        report("%s: traced outputs equal untraced outputs" % name, traced == untraced)
        report("%s: every name bound to its original again" % name,
               before.keys() == after.keys()
               and all(after[k] is v for k, v in before.items()))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
