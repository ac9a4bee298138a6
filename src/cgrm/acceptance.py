"""End-to-end acceptance checks; every identity is exact, tolerance zero.

Each criterion is a function returning a CheckResult so the CLI and the test
suite share one implementation.  Randomized criteria draw from a seeded
generator over small rationals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import bd, closed_form, cyb, dunkl, frobenius, wheels
from .linalg import rank
from .scalars import format_scalar, random_rational
from .tensorops import wedge_to_op

DEFAULT_SEED = 0


@dataclass
class CheckResult:
    cid: int
    name: str
    passed: bool
    detail: str


def coprime_pairs(n_max, n_min=2):
    return [(m, n) for n in range(n_min, n_max + 1)
            for m in range(1, n) if gcd(m, n) == 1]


def _cross_pair(pair):
    m, n = pair
    return wedge_to_op(bd.bd_r_matrix(n - m, n)) == closed_form.cg_closed_form(m, n)


def criterion_1(seed=DEFAULT_SEED):
    """Cross-construction equality of the root-data and closed-form routes."""
    pairs = coprime_pairs(12)
    oks = [_cross_pair(pair) for pair in pairs]
    big = wedge_to_op(bd.bd_r_matrix(19, 31))
    sampled = [(j, l) for j in (1, 2, 10, 15, 16, 17, 30, 31) for l in (1, 2, 10, 17, 22, 31)]
    big_ok = all(big.column(j, l) == closed_form.cg_column(12, 31, j, l) for j, l in sampled)
    passed = all(oks) and big_ok
    return CheckResult(1, "cross-construction equality (n <= 12, sampled n = 31)", passed,
                       "%d pairs, %d sampled columns at (12, 31)" % (len(pairs), len(sampled)))


def _wheels_pair(pair):
    m, n = pair
    w = wheels.wheel(m, n)
    for jp in range(1, n + 1):
        for lp in range(1, n + 1):
            if wheels.sbar_closed(w, jp, lp) != wheels.sbar_bruteforce(m, n, jp, lp):
                return False
    return True


PAPER_STRINGS_12_31 = [
    [1, 13, 25], [6, 18, 30], [11, 23], [4, 16, 28], [9, 21], [2, 14, 26],
    [7, 19, 31], [12, 24], [5, 17, 29], [10, 22], [3, 15, 27], [8, 20],
]


def criterion_2(seed=DEFAULT_SEED):
    """Closed-form index sets agree with the partial-order brute force."""
    pairs = coprime_pairs(20) + [(12, 31)]
    oks = [_wheels_pair(pair) for pair in pairs]
    w = wheels.wheel(12, 31)
    frozen = (
        wheels.sbar_closed(w, 15, 22) == {16, 17, 19, 22}
        and wheels.sbar_closed(wheels.wheel(5, 12), 3, 5) == {4, 5, 7}
        and w.strings == PAPER_STRINGS_12_31
        and w.minimal_elements == [1, 6, 11, 4, 9, 2, 7, 12, 5, 10, 3, 8]
        and w.seq == [31, 12, 5, 3, 1]
    )
    return CheckResult(2, "wheels oracle equivalence (n <= 20 and (12, 31))",
                       all(oks) and frozen, "%d coprime pairs, all positions" % len(pairs))


def _lambda_pair(pair):
    m, n = pair
    report = cyb.find_lambda(closed_form.cg_closed_form(m, n))
    return m, n, report


def criterion_3(seed=DEFAULT_SEED):
    """Every closed-form solution certifies as quasitriangular; lambda = 1/4 at m = 2."""
    pairs = coprime_pairs(9, n_min=3)
    reports = [_lambda_pair(pair) for pair in pairs]
    passed = True
    lambdas = set()
    for m, n, report in reports:
        if report.classification != cyb.QUASITRIANGULAR or report.residual_nonzero_count:
            passed = False
        if m == 2 and report.lambda_ != Fraction(1, 4):
            passed = False
        if report.lambda_ is not None:
            lambdas.add(report.lambda_)
    detail = "%d pairs, lambda values {%s}" % (
        len(pairs), ", ".join(sorted(format_scalar(v) for v in lambdas)))
    return CheckResult(3, "CYB certification for 3 <= n <= 9", passed, detail)


def criterion_4(seed=DEFAULT_SEED):
    """Both Dunkl realizations reproduce the closed form exactly."""
    rng = random.Random(seed)
    ok = all(dunkl.r_via_dunkl_m1(n) == closed_form.cg_closed_form(1, n)
             for n in range(2, 13))
    trials = 0
    for n in (3, 5, 7, 9):
        target = closed_form.cg_closed_form(2, n)
        for _ in range(5):
            params = dunkl.CherednikParams(
                kappa=random_rational(rng), c0=random_rational(rng),
                c1=random_rational(rng), m=2)
            trials += 1
            if dunkl.r_via_dunkl_m2(n, params) != target:
                ok = False
    return CheckResult(4, "Dunkl realizations (m = 1 for n <= 12; m = 2, 5 random params)",
                       ok, "%d randomized m = 2 trials" % trials)


def criterion_5(seed=DEFAULT_SEED):
    """Operator algebra relations and graded CYB identities on polynomials."""
    from .polyops import check_poly_cyb, polynomial_monomials
    rng = random.Random(seed)
    ok = True
    for m in (1, 2):
        params = dunkl.CherednikParams(kappa=random_rational(rng), c0=random_rational(rng),
                                       c1=random_rational(rng), m=m)
        ok = ok and dunkl.verify_relations(params, degree_bound=8)
    deg10 = polynomial_monomials(3, 10)
    for _ in range(3):
        params = dunkl.CherednikParams(kappa=random_rational(rng), c0=random_rational(rng),
                                       c1=random_rational(rng), m=2)
        ok = ok and check_poly_cyb(dunkl.element_e(params), 4 * params.c0 ** 2, deg10)
    lemma_pairs = [(Fraction(1), Fraction(2, 5)), (Fraction(0), Fraction(0))]
    lemma_pairs += [(random_rational(rng), random_rational(rng)) for _ in range(5)]
    for a1, a2 in lemma_pairs:
        ok = ok and dunkl.lemma_cyb4(a1, a2, bound=5)
    return CheckResult(5, "operator relations and graded CYB identities", ok,
                       "relations to degree 8, CYB to degree 10, %d lemma pairs" % len(lemma_pairs))


def criterion_6(seed=DEFAULT_SEED):
    """Module structure over the Heisenberg pair and triangularity of combinations."""
    rng = random.Random(seed)
    ok = all(dunkl.module_structure_check(n) for n in (5, 7, 9))
    for n in (5, 7, 9):
        r = closed_form.cg_closed_form(2, n)
        vs = dunkl.elements_v(n)
        ok = ok and rank([_op_vector(op) for op in (r,) + vs]) == 5
    for n in (5, 7):
        vs = dunkl.elements_v(n)
        for _ in range(10):
            combo = None
            for v in vs:
                term = random_rational(rng) * v
                combo = term if combo is None else combo + term
            ok = ok and cyb.double_bracket(combo, combo).is_zero()
    return CheckResult(6, "module structure, rank 5, triangular combinations", ok,
                       "n in {5, 7, 9}; 10 random combinations at n in {5, 7}")


def _op_vector(op):
    return {(inp, out): v for out, inp, v in op.entries()}


def criterion_7(seed=DEFAULT_SEED):
    """Boundary family: orbit identity, carrier, Frobenius structure, Jordanian."""
    ok = True
    details = []
    for n in (5, 7, 9):
        r = closed_form.cg_closed_form(2, n)
        e1m, e2m = dunkl.e1_matrix(n), dunkl.e2_matrix(n)
        par = frobenius.parabolic(n - 2, n)
        for (u, t) in ((1, 1), (2, 3), (1, -2)):
            # the module relations pair u with the degree-(-2) generator and t
            # with the degree-1 generator
            moved = frobenius.nilpotent_exp_action(
                e2m, t, frobenius.nilpotent_exp_action(e1m, u, r))
            b = dunkl.b_cg(n, u, t)
            ok = ok and moved == r + b
            car = frobenius.carrier(b)
            ok = ok and car.bracket_closed and car.same_span(par)
            ok = ok and car.dimension == n * n - 1 - 2 * (n - 2)
            fd = frobenius.r_check(b, car)
            ok = ok and fd.invertible and fd.skew
            ok = ok and frobenius.cocycle_check(fd)
            eta = frobenius.cg_boundary_functional(n, u, t)
            ok = ok and frobenius.frobenius_functional_check(fd, eta)
    for n in range(2, 8):
        j = frobenius.jordanian(n)
        ok = ok and cyb.double_bracket(j, j).is_zero()
        ok = ok and frobenius.carrier(j).same_span(frobenius.parabolic(1, n))
    details.append("n in {5, 7, 9} x 3 parameter pairs; Jordanian n <= 7")
    return CheckResult(7, "boundary family and Jordanian instances", ok, "; ".join(details))


def criterion_8(seed=DEFAULT_SEED):
    """The diagonal variety is the advertised singleton for every coprime pair."""
    ok = True
    pairs = coprime_pairs(12)
    for m, n in pairs:
        t = bd.cg_triple(m, n)
        target = bd.beta_part(m, n)
        if not bd.verify_beta_variety(t, target):
            ok = False
            continue
        solved = bd.solve_beta_variety(t)
        if solved is None:
            ok = False
            continue
        solution, nullity = solved
        ok = ok and nullity == 0 and solution == target
    return CheckResult(8, "beta variety is a singleton (n <= 12)", ok,
                       "%d coprime pairs, affine dimension 0" % len(pairs))


ALL_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8)


def run_all(seed=DEFAULT_SEED):
    return [c(seed=seed) for c in ALL_CRITERIA]
