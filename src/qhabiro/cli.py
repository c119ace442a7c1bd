"""Command-line front end: knot data, transforms, residues, identity
verification, surgery invariants, Park polynomials, connected sums, and
numerical asymptotics.

Exit codes: 0 success, 1 usage errors, 2 domain errors (divergence, LBC
failure, ...).  Every command prints its result through ``_emit``: with
``--json`` one JSON value with sorted keys, else text lines (nothing for
an empty result).  With ``--json`` domain errors are emitted as
machine-readable JSON on stdout too.  The environment variable
``QHABIRO_PREC`` sets the default series precision; flags override it.
Progress/diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import knots, omega, residues, surgery, transform
from .series import PrecisionError, QAlgebraError, series_sum_bounded

VERIFY_SUITES = (
    "pentagonal",
    "hecke-rogers",
    "fig8-sum",
    "residue-symmetry",
    "theta-route",
    "trefoil-recurrence-l",
    "trefoil-recurrence-r",
    "tails-even",
    "tails-odd",
    "branch-half",
    "descendant-g0",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        raise UsageError(message)


def _size(text: str) -> int:
    """argparse type for sizes: a nonnegative integer."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be nonnegative, got %d" % n)
    return n


def _checked(fn, *args, **kwargs):
    """fn(*args, **kwargs) with the ValueError of its parameter checks
    reported as a usage error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _bits_checked(bits: int, fn, *args):
    """_checked(fn, *args) for an mpmath evaluation at ``bits`` of working
    precision, with a bit shortage reported as a usage error too: the
    PrecisionError of an evaluator that knows the bits it needs, or the
    ZeroDivisionError that mpmath raises in a solve or a division."""
    try:
        return _checked(fn, *args)
    except (PrecisionError, ZeroDivisionError) as exc:
        if getattr(exc, "suggested_bits", bits) is None:
            raise  # a data limit, not a bit shortage
        raise UsageError("--bits %d is too low for this evaluation (%s)"
                         % (bits, str(exc) or "division by zero")) from exc


def _default_prec() -> int:
    env = os.environ.get("QHABIRO_PREC")
    if env:
        try:
            return _size(env)
        except argparse.ArgumentTypeError:
            pass
    return 40


def _emit(args, obj, lines, code: int = 0) -> int:
    """Print one result and return ``code``: ``obj`` as JSON with sorted
    keys under ``--json``, else the text ``lines`` (nothing when empty)."""
    if args.json:
        print(json.dumps(obj, sort_keys=True))
    elif lines:
        print("\n".join(lines))
    return code


def _emit_coeffs(args, label: str, seq, **obj) -> int:
    """_emit a coefficient list: JSON ``obj`` plus its "coeffs", text
    lines f<k> for label "f" and a_-<k+1> for label "a"."""
    obj["coeffs"] = [s.to_json() for s in seq]
    return _emit(args, obj, ["f%d: %s" % (k, s) if label == "f" else
                             "a_-%d: %s" % (k + 1, s)
                             for k, s in enumerate(seq)])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_knot(args) -> int:
    spec = knots.get_knot(args.name)
    out = (spec.f if args.side == "f" else spec.a).prefix(args.index)
    if args.prec is not None:
        out = [s.truncate(args.prec) for s in out]
    return _emit_coeffs(args, args.side, out, knot=spec.name, side=args.side)


def _cmd_transform(args) -> int:
    spec = knots.get_knot(args.knot)
    if args.direction == "f-from-a":
        seq, label = transform.f_from_a(spec.a), "f"
    else:
        seq, label = transform.a_from_f(spec.f), "a"
    return _emit_coeffs(args, label, seq.prefix(args.index),
                        knot=spec.name, direction=args.direction)


def _cmd_residues(args) -> int:
    spec = knots.get_knot(args.knot)
    w = args.window
    js = [args.j] if args.j is not None else range(-w, w + 1)
    results = {j: surgery._residue(spec, j, args.prec, 1) for j in sorted(js)}
    return _emit(args, {"knot": spec.name, "prec": args.prec,
                        "residues": {str(j): r.to_json()
                                     for j, r in results.items()}},
                 ["r_%d: %s" % (j, r) for j, r in results.items()])


def _run_suite(name: str, prec) -> tuple:
    """Returns (ok: bool, detail: str)."""
    if name in ("pentagonal", "hecke-rogers", "fig8-sum"):
        kname = {"pentagonal": "3_1l", "hecke-rogers": "3_1r",
                 "fig8-sum": "4_1"}[name]
        spec = knots.get_knot(kname)
        defect = residues.residue_theorem_check(spec.a, prec,
                                                spec.lbc_constant)
        return defect.is_zero, ("defect 0 to O(q^%s)" % prec
                                if defect.is_zero else "defect %s" % defect)
    if name == "residue-symmetry":
        for kname in ("3_1l", "3_1r", "4_1"):
            spec = knots.get_knot(kname)
            fam = residues.residue_family(spec.a, 4, prec,
                                          spec.lbc_constant)
            for j in range(1, fam.J + 1):
                if not fam.symmetry_defect(j).is_zero:
                    return False, "r_{-%d} != q^{-%d} r_%d for %s" % (j, j, j, kname)
        return True, "r_{-j} = q^{-j} r_j on all computed families"
    if name == "theta-route":
        for kname in ("3_1l", "3_1r", "4_1"):
            spec = knots.get_knot(kname)
            C = spec.lbc_constant
            for j in (0, 1, 2):
                direct = residues.residue_series(spec.a, j, prec, C)
                theta = residues.residues_from_f(spec.f, j, prec, C)
                if not (direct - theta).truncate(prec).is_zero:
                    return False, "mismatch at %s, j=%d" % (kname, j)
        return True, "theta route matches direct residues to O(q^%s)" % prec
    if name.startswith("trefoil-recurrence-"):
        ok = residues.trefoil_recurrence_check(name[-1].upper(), 6, prec)
        return ok, "recurrence holds for j=0..5" if ok else "recurrence fails"
    if name in ("tails-even", "tails-odd"):
        agree_to = residues.tail_check(name[len("tails-"):], 10, prec)[2]
        return agree_to >= min(8, prec), "tail agrees to O(q^%s)" % agree_to
    if name == "branch-half":
        spec = knots.get_knot("4_1")
        C = spec.lbc_constant
        inv = residues._inv_poch_product((residues.INF,), Fraction(prec))
        for j in (-2, -1, 0, 1, 2):
            br = residues.branch_residue_41("+1/2", j, prec)
            rj = residues.residue_series(spec.a, j, prec, C)
            if not (br - rj * inv).truncate(prec).is_zero:
                return False, "branch relation fails at j=%d" % j
        return True, "res of +1/2 branch = (q)_inf^{-1} r_j for |j| <= 2"
    if name == "descendant-g0":
        spec = knots.get_knot("4_1")
        shifted = residues.descendant(spec.a, 1)
        r0 = residues.residue_series(shifted, 0, prec, Fraction(-1))
        # direct sum: -r_0 = sum_k (-1)^k q^{binom(k+1,2)+k}/(q)_k^2
        e = lambda k: k * (k + 1) // 2 + k
        acc = series_sum_bounded(
            lambda k: residues.ResidueAtom(k, 0, -1 if k % 2 else 1, e(k),
                                           (k, k)).to_series(prec), e, prec)
        ok = (r0 + acc).truncate(prec).is_zero
        return ok, ("descendant m=1 residue matches the G series"
                    if ok else "descendant residue mismatch")
    raise UsageError("unknown verify suite %r" % name)


def _cmd_verify(args) -> int:
    names = VERIFY_SUITES if "all" in args.suite else dict.fromkeys(args.suite)
    results = {name: _run_suite(name, args.prec) for name in names}
    return _emit(args, {name: {"ok": ok, "detail": detail}
                        for name, (ok, detail) in results.items()},
                 ["%s: %s" % ("OK" if ok else "FAIL", detail)
                  for ok, detail in results.values()],
                 0 if all(ok for ok, _ in results.values()) else 2)


def _cmd_surgery(args) -> int:
    spec = knots.get_knot(args.knot)
    params = _checked(surgery.SurgeryParams, p=args.p, a=args.a,
                      prec=args.prec, method=args.method)
    result = surgery.zhat(spec, params)
    extra = {"delta": str(result.delta), "note": result.sign_convention}
    return _emit(args, dict(extra, series=result.series.to_json()),
                 [str(result.series)] + ["%s: %s" % kv
                                         for kv in extra.items()])


def _cmd_park_poly(args) -> int:
    out = {}
    if args.method in ("explicit", "both"):
        out["explicit"] = _checked(surgery.park_poly_explicit,
                                   args.p, args.a, args.k)
    if args.method in ("residue", "both"):
        out["residue"] = _checked(surgery.park_poly_residue,
                                  args.p, args.a, args.k)
    return _emit(args, {name: s.to_json() for name, s in out.items()},
                 ["%s: %s" % kv for kv in out.items()])


def _cmd_connect_sum(args) -> int:
    el = None
    for name in args.knots:
        spec = knots.get_knot(name)
        cur = omega.omega_from_a(spec.a, args.depth)
        el = cur if el is None else omega.omega_mul(el, cur, args.depth,
                                                    prec=args.prec)
    # omega_mul fills indices k = 0..depth-1 (basis indices -1..-depth)
    return _emit_coeffs(args, "a", [el.a[k].truncate(args.prec)
                                    for k in range(args.depth)],
                        knots=args.knots)


def _cmd_asympt(args) -> int:
    from . import asympt  # loads mpmath, which no other command needs

    if args.bits < 1:
        raise UsageError("--bits must be positive")
    if args.mode == "period":
        rep = _bits_checked(args.bits, asympt.periodicity_check, args.knot,
                            args.n_max, args.bits)
        return _emit(args, {"period": rep.period, "phase": rep.phase,
                            "values": list(rep.values), "message": rep.message},
                     [rep.message if rep.period is None else
                      "period %d, values %s%s" % (
                          rep.period, list(rep.values),
                          " from n = %d" % rep.phase if rep.phase > 1 else "")],
                     0 if rep.period is not None else 2)
    if args.mode == "growth":
        if args.n_max < 10:
            raise UsageError("--n-max must be at least 10 for --mode growth")
        n_list = list(range(max(10, args.n_max // 4), args.n_max + 1,
                            max(1, args.n_max // 20)))
        g = _bits_checked(args.bits, asympt.growth_rate, args.knot, n_list,
                          args.bits)
        return _emit(args, {"growth": g.estimate, "order": g.order,
                            "flagged": g.flagged},
                     ["growth %.10f%s" % (g.estimate,
                                          " (flagged)" if g.flagged else "")])
    if args.mode == "phi":
        ps = _bits_checked(args.bits, asympt.extract_phi, args.knot,
                           args.depth, args.n_max, args.bits)
        return _emit(args, {"coeffs": list(ps.coeffs),
                            "prefactor": ps.prefactor},
                     ["c = %s (prefactor %s)" % (list(ps.coeffs),
                                                 ps.prefactor)])
    if args.mode == "quotient":
        vals = list(_checked(asympt.phi_quotient_check, args.depth))
        return _emit(args, vals, ["quotient coefficients: %s" % (vals,)])
    # csv: rows stream to stdout as they are computed
    _bits_checked(args.bits, asympt.emit_csv, sys.stdout, args.knot,
                  args.n_max, args.bits)
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> tuple:
    prec_default = _default_prec()
    top = _Parser(prog="qhabiro", description=__doc__)
    sub = top.add_subparsers(dest="command")

    def add(name, func, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true")
        return p

    p = add("knot", _cmd_knot, help="print stored coefficient sequences")
    p.add_argument("--name", required=True)
    p.add_argument("--side", choices=("f", "a"), default="a")
    p.add_argument("--index", type=_size, default=5)
    p.add_argument("--prec", type=_size, default=None)

    p = add("transform", _cmd_transform, help="run the coefficient transforms")
    p.add_argument("--knot", required=True)
    p.add_argument("--direction", choices=("f-from-a", "a-from-f"),
                   default="f-from-a")
    p.add_argument("--index", type=_size, default=5)

    p = add("residues", _cmd_residues, help="residues r_j of a knot")
    p.add_argument("--knot", required=True)
    p.add_argument("-j", type=int, default=None)
    p.add_argument("--window", type=_size, default=2)
    p.add_argument("--prec", type=_size, default=prec_default)

    p = add("verify", _cmd_verify, help="run named identity suites")
    p.add_argument("suite", nargs="+", choices=VERIFY_SUITES + ("all",))
    p.add_argument("--prec", type=_size, default=prec_default)

    p = add("surgery", _cmd_surgery, help="surgery q-series invariant")
    p.add_argument("--knot", required=True)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-a", type=int, default=0)
    p.add_argument("--method", choices=("fk", "residues", "ihcoef"),
                   default="fk")
    p.add_argument("--prec", type=_size, default=prec_default)

    p = add("park-poly", _cmd_park_poly, help="Park polynomials")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-a", type=int, default=0)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--method", choices=("explicit", "residue", "both"),
                   default="both")

    p = add("connect-sum", _cmd_connect_sum,
            help="connected-sum coefficients via the ring product")
    p.add_argument("--knots", nargs="+", required=True)
    p.add_argument("--depth", type=_size, default=8)
    p.add_argument("--prec", type=_size, default=prec_default)

    p = add("asympt", _cmd_asympt, help="numerical asymptotics")
    p.add_argument("--knot", default="4_1")
    p.add_argument("--mode", choices=("period", "growth", "phi",
                                      "quotient", "csv"), required=True)
    p.add_argument("--n-max", type=_size, default=100)
    p.add_argument("--bits", type=_size, default=256)
    p.add_argument("--depth", type=_size, default=2)

    return top, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        # verify's suite names may stand on both sides of an option: only
        # an intermixed parse gathers them, and the top parser refuses one
        args = (commands["verify"].parse_intermixed_args(argv[1:])
                if argv[:1] == ["verify"] else parser.parse_args(argv))
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except BrokenPipeError:
        return 0
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except QAlgebraError as exc:
        if args.json:
            print(json.dumps({"error": type(exc).__name__,
                              "message": str(exc)}))
        else:
            print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
