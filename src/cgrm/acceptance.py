"""End-to-end acceptance checks; every identity is exact, tolerance zero.

Each criterion is a function returning a CheckResult so the CLI and the test
suite share one implementation.  A claim whose two sides are polynomials of
total degree <= d in k parameters holds for all of them once it holds at the
C(k + d, d) points polynomial_monomials(k, d), the a in N^k with |a| <= d: no
nonzero polynomial of that degree vanishes on all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import bd, closed_form, cyb, dunkl, frobenius, wheels
from .linalg import rank
from .polyops import check_poly_cyb, laurent_window, polynomial_monomials
from .scalars import format_scalar
from .tensorops import wedge_to_op


@dataclass
class CheckResult:
    cid: int
    name: str
    passed: bool
    detail: str


def coprime_pairs(n_max, n_min=2):
    return [(m, n) for n in range(n_min, n_max + 1)
            for m in range(1, n) if gcd(m, n) == 1]


def criterion_1():
    """Cross-construction equality of the root-data and closed-form routes."""
    pairs = coprime_pairs(12)
    oks = [wedge_to_op(bd.bd_r_matrix(n - m, n)) == closed_form.cg_closed_form(m, n)
           for m, n in pairs]
    big = wedge_to_op(bd.bd_r_matrix(19, 31))
    sampled = [(j, l) for j in (1, 2, 10, 15, 16, 17, 30, 31) for l in (1, 2, 10, 17, 22, 31)]
    big_ok = all(big.column(j, l) == closed_form.cg_column(12, 31, j, l) for j, l in sampled)
    passed = all(oks) and big_ok
    return CheckResult(1, "cross-construction equality (n <= 12, sampled n = 31)", passed,
                       "%d pairs, %d sampled columns at (12, 31)" % (len(pairs), len(sampled)))


PAPER_STRINGS_12_31 = [
    [1, 13, 25], [6, 18, 30], [11, 23], [4, 16, 28], [9, 21], [2, 14, 26],
    [7, 19, 31], [12, 24], [5, 17, 29], [10, 22], [3, 15, 27], [8, 20],
]


def criterion_2():
    """Closed-form index sets agree with the partial-order brute force."""
    pairs = coprime_pairs(20) + [(12, 31)]
    ok = True
    for m, n in pairs:
        w = wheels.wheel(m, n)
        ok = ok and all(wheels.sbar_closed(w, jp, lp) == wheels.sbar_bruteforce(m, n, jp, lp)
                        for jp in range(1, n + 1) for lp in range(1, n + 1))
    w = wheels.wheel(12, 31)
    frozen = (
        wheels.sbar_closed(w, 15, 22) == {16, 17, 19, 22}
        and wheels.sbar_closed(wheels.wheel(5, 12), 3, 5) == {4, 5, 7}
        and w.strings == PAPER_STRINGS_12_31
        and w.minimal_elements == [1, 6, 11, 4, 9, 2, 7, 12, 5, 10, 3, 8]
        and w.seq == [31, 12, 5, 3, 1]
    )
    return CheckResult(2, "wheels oracle equivalence (n <= 20 and (12, 31))",
                       ok and frozen, "%d coprime pairs, all positions" % len(pairs))


def criterion_3():
    """Every closed-form solution certifies as quasitriangular; lambda = 1/4 at m = 2."""
    pairs = coprime_pairs(9, n_min=3)
    passed = True
    lambdas = set()
    for m, n in pairs:
        report = cyb.find_lambda(closed_form.cg_closed_form(m, n))
        if report.classification != cyb.QUASITRIANGULAR or report.residual_nonzero_count:
            passed = False
        if m == 2 and report.lambda_ != Fraction(1, 4):
            passed = False
        if report.lambda_ is not None:
            lambdas.add(report.lambda_)
    detail = "%d pairs, lambda values {%s}" % (
        len(pairs), ", ".join(sorted(format_scalar(v) for v in lambdas)))
    return CheckResult(3, "CYB certification for 3 <= n <= 9", passed, detail)


def dunkl_m2_failure(n, target):
    """The first basis point (kappa, c0, c1) at which r_via_dunkl_m2 differs from
    target.  c0 (window - target) is linear and homogeneous in the parameters,
    so None proves window = target for every c0 != 0."""
    return next((p for p in ((0, 1, 0), (1, 1, 0), (0, 1, 1))
                 if dunkl.r_via_dunkl_m2(n, dunkl.CherednikParams(*p)) != target), None)


def params_failure(m, holds):
    """The first point of the degree-2 grid in (kappa, c0, c1), or in (kappa, c0)
    at m = 1 where c1 does not enter, at which holds(params) is false."""
    grid = polynomial_monomials(2 if m == 1 else 3, 2)
    return next((p for p in grid if not holds(dunkl.CherednikParams(*p, m=m))), None)


def lemma_failure(lam):
    """The first point of the degree-2 grid in (a1, a2) at which CYB_lam of the
    lemma expression, which is affine in them, is nonzero on the window of bound 5."""
    window = laurent_window(3, 5)
    return next((a for a in polynomial_monomials(2, 2)
                 if not check_poly_cyb(dunkl.lemma_expression(*a), lam, window)), None)


def criterion_4():
    """Both Dunkl realizations reproduce the closed form exactly, m = 2 for every c0 != 0."""
    ok = all(dunkl.r_via_dunkl_m1(n) == closed_form.cg_closed_form(1, n)
             for n in range(2, 13))
    ok = ok and all(dunkl_m2_failure(n, closed_form.cg_closed_form(2, n)) is None
                    for n in (3, 5, 7, 9))
    return CheckResult(4, "Dunkl realizations (m = 1 for n <= 12; m = 2 for all c0 != 0)",
                       ok, "m = 2 linear in (kappa, c0, c1): 3 basis points at n in {3, 5, 7, 9}")


def criterion_5():
    """Operator relations and graded CYB identities for all parameters, each of degree 2
    in them: the y's and element_e are linear, and a relation multiplies at most two y's."""
    ok = (params_failure(1, lambda p: dunkl.verify_relations(p, 8)) is None
          and params_failure(2, lambda p: dunkl.verify_relations(p, 8)) is None
          and params_failure(2, lambda p: check_poly_cyb(
              dunkl.element_e(p), 4 * p.c0 ** 2, polynomial_monomials(3, 10))) is None
          and lemma_failure(4) is None)
    return CheckResult(5, "operator relations and graded CYB identities for all parameters", ok,
                       "degree-2 grids: relations to degree 8 at 6 + 10 points, element_e CYB "
                       "to degree 10 at 10 points, lemma CYB at 6 points")


def nonvanishing_piece(ops):
    """The first (i, j), i <= j, at which the double bracket of the span of ops
    has a nonzero piece; None when every combination of ops is triangular.

    The double bracket DB(r) is the diagonal of the bilinear form
    B(a, b) = [a12, b13] + [a12, b23] + [a13, b23], so DB(sum c_i v_i) equals
    sum_i c_i^2 DB(v_i) + sum_{i<j} c_i c_j (B(v_i, v_j) + B(v_j, v_i)),
    and it vanishes for all coefficients exactly when each piece does.  Each
    cross piece is found by polarization, DB(v_i + v_j) - DB(v_i) - DB(v_j).
    """
    diagonal = [cyb.double_bracket(v) for v in ops]
    for i, vi in enumerate(ops):
        for j in range(i, len(ops)):
            if j == i:
                piece = diagonal[i]
            else:
                piece = cyb.double_bracket(vi + ops[j]) - diagonal[i] - diagonal[j]
            if not piece.is_zero():
                return i, j
    return None


def criterion_6():
    """Module structure over the Heisenberg pair and triangularity of combinations;
    the operator form of each generator equals its wedge form (checked in
    module_structure_check) and its monomial form."""
    ok = all(dunkl.module_structure_check(n) for n in (5, 7, 9))
    vs = {n: dunkl.elements_v(n) for n in (5, 7, 9)}
    ok = ok and all(vs[n][k - 1] == dunkl.v_matrix_from_monomials(k, n)
                    for n in (5, 7, 9) for k in range(1, 5))
    for n in (5, 7, 9):
        r = closed_form.cg_closed_form(2, n)
        ok = ok and rank([_op_vector(op) for op in (r,) + vs[n]]) == 5
    for n in (5, 7):
        ok = ok and nonvanishing_piece(vs[n]) is None
    return CheckResult(6, "module structure, rank 5, triangular combinations", ok,
                       "n in {5, 7, 9}; all combinations of v1..v4 by bilinearity, "
                       "their 10 symmetric pieces zero at n in {5, 7}")


def _op_vector(op):
    return {(inp, out): v for out, inp, v in op.entries()}


def criterion_7():
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
            ok = ok and cyb.double_bracket(b).is_zero()
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
        ok = ok and cyb.double_bracket(j).is_zero()
        ok = ok and frobenius.carrier(j).same_span(frobenius.parabolic(1, n))
    details.append("n in {5, 7, 9} x 3 parameter pairs, each boundary solution triangular; "
                   "Jordanian n <= 7")
    return CheckResult(7, "boundary family and Jordanian instances", ok, "; ".join(details))


def criterion_8():
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


def run_all():
    return [c() for c in ALL_CRITERIA]
