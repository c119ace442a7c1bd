#!/usr/bin/env python3
"""Numerical asymptotics at roots of unity, end to end, through
``qhabiro asympt``:

  1. periodicity of f_{n-1}(zeta_n) (``--mode period``, n <= 100),
  2. Richardson-accelerated exponential growth rate of f_n(zeta_{2n})
     (``--mode growth``), followed for the figure-eight knot by its
     hyperbolic volume,
  3. perturbative coefficients c_0..c_depth extracted from the normalized
     growth sequence f_n(zeta_{2n}) (``--mode phi``, at least 512 bits),
  4. integrality of the formal quotient series (``--mode quotient``),

optionally followed by a CSV dump of the raw evaluations f_n(zeta_{2n})
for plotting (``--mode csv``).  Every step runs; the exit code is the
worst of theirs.

Usage:
    python scripts/run_asymptotics.py [--knot K] [--n-max N] [--bits B]
                                      [--depth D] [--csv FILE]
"""

import argparse
import contextlib
import sys

from qhabiro import vol_41
from qhabiro.cli import main as cli_main


def run() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--knot", default="4_1")
    ap.add_argument("--n-max", type=int, default=200)
    ap.add_argument("--bits", type=int, default=256)
    ap.add_argument("--depth", type=int, default=2)
    ap.add_argument("--csv", default=None, help="write raw evaluations here")
    args = ap.parse_args()

    def asympt(mode, n_max=args.n_max, bits=args.bits):
        return cli_main(["asympt", "--mode", mode, "--knot", args.knot,
                         "--n-max", str(n_max), "--bits", str(bits),
                         "--depth", str(args.depth)])

    worst = asympt("period", n_max=min(args.n_max, 100))
    worst = max(worst, asympt("growth"))
    if args.knot == "4_1":
        print("volume %.10f" % float(vol_41()))
    worst = max(worst, asympt("phi", bits=max(args.bits, 512)))
    worst = max(worst, cli_main(["asympt", "--mode", "quotient",
                                 "--depth", "3"]))
    if args.csv:
        with open(args.csv, "w") as fh, contextlib.redirect_stdout(fh):
            code = asympt("csv")
        print("wrote", args.csv)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(run())
