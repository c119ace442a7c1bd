"""One benchmark sample in a fresh interpreter.

    python3 perfbench/sample.py --workload NAME --seed N [--trace 0|1]
    python3 perfbench/sample.py --setup-only

Times the set-up (importing ``qhabiro`` and the first ``get_knot`` lookup),
builds the workload's inputs, then times the workload itself: wall and
process CPU time from its first call until its last result is in hand, and
the process's peak resident memory at that point.  The correctness check
runs after that interval.  With ``--trace 1`` the layers are traced during
the timed interval only.  Prints one JSON object as its last line.

Every timed interval is also given at the reference host speed (the
``ref_*`` fields), see :class:`SpeedProbe`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402  (perfbench/ is on sys.path as the script's dir)
import workloads  # noqa: E402

PROBE_PERIOD_S = 0.01
# the probe loop's time on the reference host (2 vCPU Xeon, Python 3.11)
# when no neighbour contends for its core
REF_PROBE_S = 7.0e-5


def probe_loop():
    """A fixed piece of interpreter work, about 70 us long."""
    d = {}
    x = 1
    for i in range(400):
        x = (x * 3 + i) % 1000003
        d[x & 63] = d.get(x & 63, 0) + i
    return x


class SpeedProbe:
    """Rescales a timed interval to the reference host's speed.

    On a shared host, neighbours slow this process by up to 2x, in stretches
    of a second to minutes, so raw times spread more between runs than a
    regression worth catching.  While started, a timer runs ``probe_loop``
    every PROBE_PERIOD_S; each segment of the interval, up to a probe, counts
    its wall and CPU time scaled by REF_PROBE_S over that probe's time.  The
    probes' own time is left out of every figure.
    """

    def __init__(self):
        self.raw_wall = self.raw_cpu = self.ref_wall = self.ref_cpu = 0.0
        self.probes = 0
        self._active = False

    def _probe(self, *_):
        if not self._active:
            return
        w0, c0 = time.perf_counter(), time.process_time()
        probe_loop()
        w1, c1 = time.perf_counter(), time.process_time()
        scale = REF_PROBE_S / (w1 - w0)
        self.raw_wall += w0 - self._wall
        self.raw_cpu += c0 - self._cpu
        self.ref_wall += (w0 - self._wall) * scale
        self.ref_cpu += (c0 - self._cpu) * scale
        self.probes += 1
        self._wall, self._cpu = w1, c1

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        self._active = True
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        """Ends the interval with a last probe, which scales its last segment."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._probe()
        self._active = False
        signal.signal(signal.SIGALRM, signal.SIG_IGN)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if not args.setup_only and args.workload is None:
        ap.error("--workload is required")

    setup = SpeedProbe()
    setup.start()
    import qhabiro

    qhabiro.get_knot("3_1l")
    setup.stop()
    if not os.path.abspath(qhabiro.__file__).startswith(os.path.join(ROOT, "src", "")):
        sys.exit("perfbench: qhabiro was imported from %s, not from src/" % qhabiro.__file__)
    out = {"setup_s": setup.raw_wall, "ref_setup_s": setup.ref_wall,
           "gmpy2": qhabiro.series._mpz is not None}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    out.update(attempted=wl.items, failed=wl.items, error=None)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        timed = SpeedProbe()
        timed.start()
        try:
            results = wl.run()
        finally:
            timed.stop()
            if tracer:
                tracer.uninstall()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out.update(wall_s=timed.raw_wall, cpu_s=timed.raw_cpu,
                   ref_wall_s=timed.ref_wall, ref_cpu_s=timed.ref_cpu,
                   probes=timed.probes, peak_rss_mb=rss_mb,
                   failed=wl.check(results))
    except Exception:  # reported as failed checks, never as a timing
        out["error"] = traceback.format_exc(limit=-3)
    if tracer:
        out["layers"] = tracer.metrics()
        out["caches"] = tracing.cache_snapshot()
        out["counters"] = {k: v for k, v in sorted(tracer.counts.items())}
        out["counters"].update(
            {k + ".calls": c for k, (c, _) in sorted(tracer.self_times().items())})
        out["restored"] = tracer.restored()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
