#!/usr/bin/env python3
"""Run the built-in identity suites (residue theorem instances, theta-route
equivalence, trefoil recurrences, tail targets, ...) through
``qhabiro verify``; the exit code is nonzero if any suite fails.

Usage:
    python scripts/verify_identities.py [--prec N] [--json] [suite ...]

With no suite named all suites run.  Suite names are the ones accepted by
``qhabiro verify``, and the arguments pass through to it unchanged.
"""

import sys

from qhabiro.cli import VERIFY_SUITES, main

if __name__ == "__main__":
    argv = sys.argv[1:]
    if not {"all", *VERIFY_SUITES} & set(argv):
        argv.insert(0, "all")
    sys.exit(main(["verify", *argv]))
