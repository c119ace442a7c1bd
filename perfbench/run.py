"""qhabiro benchmark: cold-process timings of three workloads.

    python3 perfbench/run.py --workload transform --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; it measures the ``qhabiro`` under
``src/``.  Every sample is a fresh interpreter (``perfbench/sample.py``),
because the library memoises coefficients and Gaussian binomials for the
life of the process: a warm second iteration would time cache reads, not
the work a CLI or script user pays on every run.

A run first times the set-up (import plus the first knot lookup) in
SETUP_PROBES fresh interpreters, then runs samples of the workload, all with
the same seed, one after another for as long as another sample still fits in
``--seconds``.  Only samples whose outputs passed the workload's checks
enter a metric.

Times are reported at the reference host speed: each sample rescales its
intervals by a probe loop timed every 10 ms alongside the work
(``sample.SpeedProbe``), because neighbours on a shared host slow a process
by up to 2x for seconds to minutes.  The raw wall and CPU times are printed
too, outside the metrics.

``--trace 0`` reports the end-to-end metrics (see ``end_to_end``):
``ref_wall_s``, ``ref_cpu_s``, ``peak_rss_mb`` and ``setup_s``.
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of ``tracing.py`` plus ``trace.overhead_s`` (see
``per_layer``).  Both print the environment, every sample's times, every
metric by name with its unit, and the error rate (failed checks, samples
that raised counting all their checks as failed, over checks attempted),
and end with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "qhabiro")
SAMPLE = os.path.join(HERE, "sample.py")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
RUN_LIMIT_S = 170  # a run must end within 180 s, so no sample may outlast this

def _git_sha() -> str:
    """HEAD's commit from .git at the root, or "unknown" outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    """SHA-256 over the package's sources, naming the measured program
    where there is no git metadata."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(SRC, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment() -> dict:
    try:
        mpmath = importlib.metadata.version("mpmath")
    except importlib.metadata.PackageNotFoundError:
        mpmath = None
    return {
        # with gmpy2, series_dot takes a fused path and the Kronecker
        # kernel packs differently: a different program is measured
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "python": platform.python_version(),
        "mpmath": mpmath,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.perf_counter()
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        # set-up is timed as an installed package pays it: bytecode cached
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def sample(self, *args) -> dict:
        """Run sample.py in a fresh interpreter and return its JSON line;
        a crash, a timeout or unreadable output is one failed sample."""
        cmd = [sys.executable, SAMPLE, *args]
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode == 0 and lines:
                return json.loads(lines[-1])
            error = "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:])
        except subprocess.TimeoutExpired:
            error = "timed out after %.0f s" % timeout
        except json.JSONDecodeError as e:
            error = "unreadable output: %s" % e
        return {"attempted": 1, "failed": 1, "error": error}

    def setup_probes(self) -> list:
        self.sample("--setup-only")  # unmeasured: compiles the bytecode caches
        return [self.sample("--setup-only") for _ in range(SETUP_PROBES)]

    def samples(self, traces: tuple) -> list:
        """Rounds of samples (one per entry of ``traces``) while another
        round, as long as the longest so far, still ends within the run."""
        out = []
        longest = 0.0
        while not out or self.elapsed() + longest <= self.seconds:
            t0 = time.perf_counter()
            out.extend((trace, self.sample("--workload", self.workload, "--seed",
                                           str(self.seed), "--trace", str(trace)))
                       for trace in traces)
            longest = max(longest, time.perf_counter() - t0)
        return out


def _median(samples: list, key: str) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(untraced: list, setups: list) -> dict:
    """Medians over the run's samples, times at the reference speed."""
    return {
        "ref_wall_s": {"value": _median(untraced, "ref_wall_s"), "unit": "s"},
        "ref_cpu_s": {"value": _median(untraced, "ref_cpu_s"), "unit": "s"},
        "peak_rss_mb": {"value": _median(untraced, "peak_rss_mb"), "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def per_layer(untraced: list, traced: list) -> dict:
    """The per-layer metrics of the median traced sample, so that its self
    times add up to its wall time, plus the tracing overhead: the median
    traced minus the median untraced ``ref_wall_s``.  Self times are raw
    seconds; a probe counts towards the span it interrupts (about 1%)."""
    traced = sorted(traced, key=lambda s: s["ref_wall_s"])
    mid = traced[(len(traced) - 1) // 2]
    metrics = {name: {"value": mid["layers"][name], "unit": unit}
               for name, unit in tracing.LAYER_METRICS}
    overhead = _median(traced, "ref_wall_s") - _median(untraced, "ref_wall_s")
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print("perfbench: no qhabiro sources under %s; run from a source checkout"
              % os.path.dirname(SRC), file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.seconds)
    print("env " + json.dumps(environment(), sort_keys=True))
    probes = runner.setup_probes()
    traces = (0, 1) if args.trace else (0,)
    done = runner.samples(traces)
    # every sample is a fresh interpreter too, so its set-up time counts
    started = [s for s in probes + [s for _, s in done] if "ref_setup_s" in s]
    setups = [s["ref_setup_s"] for s in started]
    if started:
        print("set-up: %d interpreters, raw setup_s median %.4f" % (
            len(started), _median(started, "setup_s")))

    attempted = sum(s["attempted"] for _, s in done)
    failed = sum(s["failed"] for _, s in done)
    for _, s in done:
        if s.get("error"):
            print("sample error: " + s["error"], file=sys.stderr)
    good = {t: [s for trace, s in done if trace == t and not s["failed"]] for t in traces}
    for t, samples in good.items():
        print("%s samples: %d passed" % ("traced" if t else "untraced", len(samples)))
        for key in ("wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s"):
            values = sorted(s[key] for s in samples)
            print("  %s %s" % (key, " ".join("%.4f" % v for v in values)))
    print("error_rate %.6g (%d failed of %d checks)" % (failed / attempted, failed, attempted))

    metrics = {}
    if args.trace and good[0] and good[1]:
        metrics = per_layer(good[0], good[1])
        traced = good[1]
        counters = [(s["counters"], s["caches"]) for s in traced]
        print("trace counters repeat across samples: %s"
              % all(c == counters[0] for c in counters))
        print("trace names restored: %s" % all(s["restored"] for s in traced))
        print("trace caches " + json.dumps(traced[0]["caches"], sort_keys=True))
    elif not args.trace and good[0] and setups:
        metrics = end_to_end(good[0], setups)
    for name, m in metrics.items():
        print("metric %s %.6g %s" % (name, m["value"], m["unit"]))

    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
