"""The benchmark's workloads: inputs built from a seed, the timed work, and
the correctness gate on its outputs.

Each builder returns a :class:`Workload` whose ``run`` is the timed part and
whose ``check`` counts failed output checks.  ``qhabiro`` is imported inside
the builders, never at module level, so that a sample can time the import as
set-up.  Library functions are looked up on the ``qhabiro`` package at call
time, so that the tracer's rebinding reaches them.

Sizes are scaled down from the acceptance tests so that one cold sample
takes a few seconds; each workload keeps the property it was chosen for:

* ``transform``: Kronecker products of long exact operands inside
  ``series_dot`` and the Gaussian-binomial triangle (built past row 100).
  No residue, Omega or surgery code runs.
* ``connected_sum``: truncated medium-length products inside the Omega
  product's ``gamma_below`` (the ``curly_poch`` and ``qbinom`` caches);
  ``series_dot`` barely runs.
* ``surgery``: short truncated schoolbook products inside the ``1/(q)_m``
  products of residue atoms, and the residue route's k-sum fallback
  (3_1r at p = -3); the Gaussian triangle and ``series_dot`` do not matter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Per-size parameters.  "full" is what the benchmark measures; "small" keeps
# every code path and runs in well under a second, for the self-test.
SIZES = {
    "full": {
        # transform: f_from_a to K_F pulls triangle rows up to 2*K_F
        "K_F": 51, "K_RT": 32, "P_TRIALS": 2, "F_TRIALS": 1,
        # connected_sum: depth L must exceed the residue window, prec + 1
        "L": 32, "CS_PREC": 30,
        "SURGERY_PREC": 12,
    },
    "small": {
        "K_F": 12, "K_RT": 8, "P_TRIALS": 2, "F_TRIALS": 1,
        "L": 12, "CS_PREC": 10,
        "SURGERY_PREC": 6,
    },
}

KNOTS = ("3_1l", "3_1r", "4_1")
TERMS_PER_COEFF = 2  # nonzero q-powers in each random coefficient
EXPONENTS = range(-4, 5)
VALUES = [v for v in range(-5, 6) if v]


@dataclass
class Workload:
    items: int  # number of output checks one run makes
    run: Callable[[], object]  # the timed work; returns its results
    check: Callable[[object], int]  # number of failed checks on the results


def _random_coeff(rng: random.Random):
    from qhabiro import QSeries

    exps = rng.sample(EXPONENTS, TERMS_PER_COEFF)
    return QSeries.from_terms({e: rng.choice(VALUES) for e in exps})


def transform(seed: int, size: str) -> Workload:
    """f_from_a of the built-in knots to K_F, then dense round trips
    a_from_f(f_from_a(P)) and f_from_a(a_from_f(F)) at K_RT.

    The seed varies only coefficient values and their q-exponents: the
    number of trials on each side and their support (every index up to
    K_RT) are fixed, because an F-side trial costs several P-side ones and
    a seed that changed the split would move the timings on its own.
    """
    import qhabiro as qh

    cfg = SIZES[size]
    K_F, K_RT = cfg["K_F"], cfg["K_RT"]
    rng = random.Random(seed)
    sides = ["P"] * cfg["P_TRIALS"] + ["F"] * cfg["F_TRIALS"]
    trials = [(side, [_random_coeff(rng) for _ in range(K_RT + 1)])
              for side in sides]
    zero = qh.QSeries.zero()

    def run():
        knot_f = [qh.f_from_a(qh.get_knot(name).a).prefix(K_F)
                  for name in KNOTS]
        backs = []
        for side, data in trials:
            seq = qh.CoeffSeq(side, lambda k, d=data: d[k] if k < len(d) else zero)
            if side == "P":
                back = qh.a_from_f(qh.f_from_a(seq))
            else:
                back = qh.f_from_a(qh.a_from_f(seq))
            backs.append(back.prefix(K_RT))
        return knot_f, backs

    def check(results) -> int:
        knot_f, backs = results
        failed = 0
        for name, got in zip(KNOTS, knot_f):
            spec = qh.get_knot(name)
            failed += got != [spec.f_coeff(k) for k in range(K_F + 1)]
        for (_, data), got in zip(trials, backs):
            failed += got != data
        return failed

    return Workload(len(KNOTS) + len(trials), run, check)


def connected_sum(seed: int, size: str) -> Workload:
    """3_1l # 3_1r through omega_mul with a decaying precision profile,
    then the product's residues r_0..r_2 by the residue family and by the
    theta route.  The seed picks the operand order; the product is
    commutative, so the outputs and the checks are the same."""
    import qhabiro as qh

    cfg = SIZES[size]
    L, prec = cfg["L"], cfg["CS_PREC"]
    # consumers weight a_{-k-1} by q^{binom(k+1,2)}, so the per-index
    # precision may decay at that rate without losing an order below prec
    profile = lambda k: prec + 5 + k - k * (k - 1) // 2
    names = ("3_1l", "3_1r") if random.Random(seed).random() < 0.5 else ("3_1r", "3_1l")
    js = (0, 1, 2)

    def run():
        left, right = (qh.omega_from_a(qh.get_knot(n).a, L) for n in names)
        product = qh.omega_mul(left, right, L, prec=profile)
        C = product.lbc.constant
        fam = qh.residue_family(product.a, 2, prec, product.lbc)
        f = qh.f_from_a(product.a)
        theta = [qh.residues_from_f(f, j, prec - C, C) for j in js]
        return C, [fam.r(j) for j in js], theta

    def check(results) -> int:
        C, fam, theta = results
        failed = int(C != Fraction(-1))
        for r, t in zip(fam, theta):
            failed += t.truncate(prec) != r.truncate(prec)
        return failed

    return Workload(1 + len(js), run, check)


def surgery(seed: int, size: str) -> Workload:
    """Every (knot, p, a) case of the route-agreement acceptance test, each
    by the three routes fk, residues and ih.  The seed shuffles the order of
    the cases, and with it which case fills the shared caches; the work
    counted by the tracer is the same for every order."""
    import qhabiro as qh

    prec = SIZES[size]["SURGERY_PREC"]
    cases = [(name, p, a) for name in KNOTS for p in (-1, -2, -3)
             for a in range(abs(p))]
    random.Random(seed).shuffle(cases)

    def run():
        out = []
        for name, p, a in cases:
            params = qh.SurgeryParams(p, a, prec)
            out.append([route(name, params) for route in
                        (qh.zhat_via_fk, qh.zhat_via_residues, qh.zhat_via_ih)])
        return out

    def check(results) -> int:
        failed = 0
        for routes in results:
            base = routes[0].series.truncate(prec)
            failed += any(r.series.truncate(prec) != base for r in routes[1:])
        return failed

    return Workload(len(cases), run, check)


WORKLOADS = {
    "transform": transform,
    "connected_sum": connected_sum,
    "surgery": surgery,
}
