#!/usr/bin/env python3
"""Self-check of the benchmark's own reference code and negative controls.

    python3 bench/selfcheck.py

Runs small instances only and exits 0 when
  - every reference in bench/reference.py agrees with the program for small n,
  - every reference also rejects a wrong input, so a check built on it can fail,
  - the program rejects every negative control of the three workloads, on
    several seeds.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile
from fractions import Fraction
from itertools import product

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from cgrm import bd, closed_form, cyb, dunkl, frobenius  # noqa: E402
from cgrm.tensorops import SparseOp2  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def entries(op):
    return ref.entries_from_json(op.to_json_obj())


def perturbed(op, rng):
    out = dict(entries(op))
    key = rng.choice(sorted(out))
    out[key] += workloads.rational(rng)
    return out


def check_displays():
    expect(all(ref.m1_display(n) == entries(closed_form.cg_closed_form(1, n))
               == entries(closed_form.cg_m1_display(n)) for n in range(2, 10)),
           "m = 1 display equals cg_closed_form(1, n) and cg_m1_display, n <= 9")
    expect(all(ref.m2_display(n) == entries(closed_form.cg_closed_form(2, n))
               for n in range(3, 10, 2)),
           "m = 2 display equals cg_closed_form(2, n), odd n <= 9")
    expect(ref.m1_display(5) != entries(closed_form.cg_closed_form(2, 5)),
           "m = 1 display differs from the m = 2 solution at n = 5")


def check_beta():
    pairs = workloads.coprime_pairs(2, 9)
    expect(all(bd.beta_part(m, n).terms == {
        ((j, j), (l, l)): ref.beta_coefficient(m, n, j, l)
        for j in range(1, n + 1) for l in range(j + 1, n + 1)
        if ref.beta_coefficient(m, n, j, l)} for m, n in pairs),
        "beta coefficients equal bd.beta_part for n <= 9")
    for m, n in workloads.coprime_pairs(2, 7):
        solved = bd.solve_beta_variety(bd.cg_triple(m, n))
        if not workloads._beta_solution_check(m, n)(solved):
            expect(False, "beta coefficients equal solve_beta_variety at (%d, %d)" % (m, n))
            return
    expect(True, "beta coefficients equal solve_beta_variety for n <= 7")
    expect(not workloads._beta_solution_check(1, 7)(
        bd.solve_beta_variety(bd.cg_triple(2, 7))),
        "beta check rejects the solution of another pair")


def check_cyb_column(rng):
    r = closed_form.cg_closed_form(3, 4)
    bad = perturbed(r, rng)
    bad_op = SparseOp2.from_entries(4, [(out, inp, v) for (out, inp), v in bad.items()])
    cases = (("r(3, 4), lambda = 1/4", r, Fraction(1, 4)),
             ("perturbed r(3, 4), lambda = 1/4", bad_op, Fraction(1, 4)),
             ("b_cg(5, 2, -1/3), lambda = 0", dunkl.b_cg(5, 2, Fraction(-1, 3)), 0),
             ("jordanian(4), lambda = 0", frobenius.jordanian(4), 0))
    for label, op, lam in cases:
        cols = ref.columns(entries(op))
        mine = {}
        for triple in product(range(1, op.n + 1), repeat=3):
            column = ref.cyb_column(cols, lam, triple)
            if column:
                mine[triple] = column
        program = {inp: dict(col) for inp, col in cyb.cyb_lambda(op, lam).cols.items()}
        expect(mine == program, "CYB column reference equals cyb_lambda on every column: "
               + label)
    expect(not ref.cyb_holds(ref.columns(bad), 4, Fraction(1, 4), random.Random(0), 64),
           "sampled CYB check rejects a perturbed r(3, 4)")
    expect(not ref.is_antisymmetric(bad) and ref.is_antisymmetric(entries(r)),
           "antisymmetry reference tells r(3, 4) from its perturbation")


def check_carrier():
    n = 5
    block = ref.outside_parabolic(n, n - 2)
    car = frobenius.carrier(dunkl.b_cg(n, 3, Fraction(1, 2)))
    expect(car.dimension == ref.carrier_dimension(n)
           and all(ref.vanishes_on(m.entries, block) for m in car.basis)
           and car.same_span(frobenius.parabolic(n - 2, n)),
           "carrier reference accepts the carrier of b_cg(5, 3, 1/2)")
    jcar = frobenius.carrier(frobenius.jordanian(n))
    expect(not (jcar.dimension == ref.carrier_dimension(n)
                and all(ref.vanishes_on(m.entries, block) for m in jcar.basis)),
           "carrier reference rejects the Jordanian carrier p(1, 5)")
    expect(frobenius.parabolic(n - 2, n).dimension == ref.carrier_dimension(n),
           "dim p(n - 2, n) = n^2 - 1 - 2(n - 2) at n = 5")


def negatives_rejected(workload, seed, keep):
    """Run a workload's negative controls with the operations they read from;
    True when every one of them passes its check."""
    with tempfile.TemporaryDirectory() as tmp:
        ops = [op for op in workloads.build(workload, seed, tmp) if keep(op.name)]
        for op in ops:
            if op.prepare is not None:
                op.prepare()
            if not op.check(op.run()):
                return False
        return any(op.name.startswith("negative.") for op in ops)


def check_negatives():
    selections = {
        "rmatrix": lambda name: (name.startswith("negative.") or name == "gen.closed.2.7"
                                 or name.startswith("beta.solve.") and name.endswith(".12")),
        "boundary": lambda name: name.endswith(".n5") and not name.startswith(
            ("orbit", "same_span", "cocycle", "functional", "jordanian", "elements_v")),
        "poly": lambda name: name.startswith("negative."),
    }
    for workload, keep in selections.items():
        for seed in range(4):
            expect(negatives_rejected(workload, seed, keep),
                   "program rejects the %s negative controls, seed %d" % (workload, seed))


def main():
    rng = random.Random(0)
    check_displays()
    check_beta()
    check_cyb_column(rng)
    check_carrier()
    check_negatives()
    print("%d failures" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
