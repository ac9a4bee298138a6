"""Acceptance suite: one test per criterion, all identities exact (zero tolerance).

Each test prints its own PASS/FAIL line so the module doubles as a report when
run with `pytest -s tests/test_acceptance.py` (or via `cgrm acceptance`).
"""

from fractions import Fraction
from math import comb, prod

import pytest

from cgrm import acceptance, bd, closed_form, cyb, dunkl, frobenius, wheels
from cgrm.linalg import rank
from cgrm.polyops import Partial, check_poly_cyb, polynomial_monomials
from cgrm.tensorops import SparseOp

from conftest import double_bracket_over_fractions


# The name and detail of each criterion, as `cgrm acceptance` prints them.
CRITERION_LINES = {
    1: ("cross-construction equality (n <= 12, sampled n = 31)",
        "45 pairs, 48 sampled columns at (12, 31)"),
    2: ("wheels oracle equivalence (n <= 20 and (12, 31))",
        "128 coprime pairs, all positions"),
    3: ("CYB certification for 3 <= n <= 9", "26 pairs, lambda values {1/4}"),
    4: ("Dunkl realizations (m = 1 for n <= 12; m = 2 for all c0 != 0)",
        "m = 2 linear in (kappa, c0, c1): 3 basis points at n in {3, 5, 7, 9}"),
    5: ("operator relations and graded CYB identities for all parameters",
        "degree-2 grids: relations to degree 8 at 6 + 10 points, element_e CYB to degree 10 "
        "at 10 points, lemma CYB at 6 points"),
    6: ("module structure, rank 5, triangular combinations",
        "n in {5, 7, 9}; all combinations of v1..v4 by bilinearity, their 10 symmetric pieces "
        "zero at n in {5, 7}"),
    7: ("boundary family and Jordanian instances",
        "n in {5, 7, 9} x 3 parameter pairs, each boundary solution triangular; "
        "Jordanian n <= 7"),
    8: ("beta variety is a singleton (n <= 12)", "45 coprime pairs, affine dimension 0"),
}


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=lambda c: c.__name__)
def test_criterion(criterion):
    result = criterion()
    print("%s  criterion %d: %s  [%s]"
          % ("PASS" if result.passed else "FAIL", result.cid, result.name, result.detail))
    assert result.passed, "criterion %d failed: %s (%s)" % (result.cid, result.name, result.detail)
    assert (result.name, result.detail) == CRITERION_LINES[result.cid]


def _shifted(op):
    """op with its first stored entry moved by 1/3."""
    cols = {inp: dict(col) for inp, col in op.cols.items()}
    col = next(iter(cols.values()))
    col[next(iter(col))] += Fraction(1, 3)
    return SparseOp(op.n, cols)


@pytest.mark.parametrize("bend, lambdas", [
    (lambda m, r: 2 * r, "{1}"),
    (lambda m, r: _shifted(r), "{}"),
    (lambda m, r: _shifted(r) if m == 1 else r, "{1/4}"),
], ids=["doubled", "shifted", "shifted at m = 1"])
def test_criterion_3_fails_on_a_changed_solution(monkeypatch, bend, lambdas):
    """2 r is quasitriangular with lambda 1 instead of 1/4; an entry moved by
    1/3 leaves no r-matrix at all, so no lambda is found, and at m = 1 alone it
    fails the classification while every m = 2 lambda is still 1/4."""
    cg_closed_form = closed_form.cg_closed_form
    monkeypatch.setattr(closed_form, "cg_closed_form",
                        lambda m, n: bend(m, cg_closed_form(m, n)))
    result = acceptance.criterion_3()
    assert not result.passed
    assert result.detail == "26 pairs, lambda values %s" % lambdas


@pytest.mark.parametrize("where, witness", [
    ((12, 31, 15, 22), "(12, 31, 15, 22): closed [16, 17, 19], bruteforce [16, 17, 19, 22]"),
    (None, "(1, 2, 1, 2): closed [], bruteforce [2]"),
], ids=["one position", "every position"])
def test_criterion_2_names_the_first_mismatch(monkeypatch, where, witness):
    """A closed form that drops its largest index, at one position of (12, 31)
    or at every position, fails with that position and both sets."""
    sbar_closed = wheels.sbar_closed

    def dropped(w, jp, lp):
        out = sbar_closed(w, jp, lp)
        if out and where in (None, (w.m, w.n, jp, lp)):
            out.discard(max(out))
        return out
    monkeypatch.setattr(wheels, "sbar_closed", dropped)
    result = acceptance.criterion_2()
    assert not result.passed
    assert result.detail == ("128 coprime pairs, all positions; first mismatch at "
                             "(m, n, jp, lp) = " + witness)


@pytest.mark.parametrize("bent", ["target doubled", "no solution", "other solution"])
def test_criterion_8_fails_when_the_variety_misses_the_target(monkeypatch, bent):
    """A doubled target fails the row check; with the row check forced to pass it
    differs from the solution; a solver that finds nothing fails as well."""
    if bent == "no solution":
        monkeypatch.setattr(bd, "solve_beta_variety", lambda t: None)
    else:
        beta_part = bd.beta_part
        monkeypatch.setattr(bd, "beta_part", lambda m, n: Fraction(2) * beta_part(m, n))
    if bent == "other solution":
        monkeypatch.setattr(bd, "verify_beta_variety", lambda t, target: True)
    assert not acceptance.criterion_8().passed


@pytest.mark.parametrize("k, d", [(2, 2), (3, 2)])
def test_parameter_grid_is_unisolvent(k, d):
    """The C(k + d, d) grid points are the exponents of the monomials of degree
    <= d, and those monomials evaluated at them are linearly independent, so
    only the zero polynomial of that degree vanishes on the grid."""
    points = polynomial_monomials(k, d)
    assert len(points) == comb(k + d, d) and all(min(a) >= 0 and sum(a) <= d for a in points)
    rows = [{e: prod(a ** x for a, x in zip(point, e)) for e in points} for point in points]
    assert rank(rows) == comb(k + d, d)


def test_dunkl_m2_certificate_rejects_a_changed_entry():
    n = 5
    target = closed_form.cg_closed_form(2, n)
    assert acceptance.dunkl_m2_failure(n, target) is None
    cols = {inp: dict(col) for inp, col in target.cols.items()}
    col = next(iter(cols.values()))
    col[next(iter(col))] *= 2
    assert acceptance.dunkl_m2_failure(n, SparseOp(n, cols)) == (0, 1, 0)


def test_element_e_certificate_rejects_a_c0_c1_term_in_lambda():
    """lambda = 4 c0^2 + c0 c1 is right at every grid point but (0, 1, 1)."""
    monos = polynomial_monomials(3, 3)
    assert acceptance.params_failure(2, lambda p: check_poly_cyb(
        dunkl.element_e(p), 4 * p.c0 ** 2 + p.c0 * p.c1, monos)) == (0, 1, 1)


def test_m1_operator_solves_cyb_for_all_parameters():
    """The m = 1 operator -(1/n)(x1 y1 - x2 y2) at n = 7 has CYB_(c0^2/49) zero to
    degree 10; the residual is quadratic in (kappa, c0), so the six grid points
    certify every parameter.  A constant or a kappa^2 in lambda is seen."""
    monos = polynomial_monomials(3, 10)

    def failure(lam):
        return acceptance.params_failure(1, lambda p: check_poly_cyb(
            dunkl.dunkl_m1_combo(7, p), lam(p), monos))

    assert failure(lambda p: p.c0 ** 2 / 49) is None
    assert failure(lambda p: (p.c0 ** 2 + 1) / 49) == (0, 0)
    assert failure(lambda p: p.kappa ** 2 / 49) == (0, 1)


def test_lemma_certificate_rejects_a_doubled_expression_and_an_a1_a2_term(monkeypatch):
    """Twice the expression has double bracket 16 Z, so its CYB_4 fails at the
    first grid point; an a1 a2 multiple of Delta vanishes at every grid point
    but (1, 1)."""
    lemma_expression = dunkl.lemma_expression
    monkeypatch.setattr(dunkl, "lemma_expression", lambda a1, a2: 2 * lemma_expression(a1, a2))
    assert acceptance.lemma_failure() == (0, 0)
    monkeypatch.setattr(dunkl, "lemma_expression", lambda a1, a2: lemma_expression(a1, a2)
                        + (a1 * a2) * dunkl.delta)
    assert acceptance.lemma_failure() == (1, 1)


def test_relations_certificate_sees_a_c0_c1_term(monkeypatch):
    """c0 c1 d/dx1 added to y1 vanishes at every grid point but (0, 1, 1),
    where it adds c0 c1 to [y1, x1]."""
    dunkl_y = dunkl.dunkl_y

    def bent(params, i):
        y = dunkl_y(params, i)
        return y + (params.c0 * params.c1) * Partial(0) if i == 1 else y

    monkeypatch.setattr(dunkl, "dunkl_y", bent)
    assert acceptance.params_failure(2, lambda p: dunkl.verify_relations(p, 3)) == (0, 1, 1)


@pytest.mark.parametrize("form", ["v_wedge", "v_monomial_action"])
def test_criterion_6_fails_without_raising_when_one_realization_differs(monkeypatch, form):
    """One coefficient of v3 doubled, in its wedge form or in its image of x y,
    makes the three realizations disagree: criterion 6 fails and raises nothing."""
    original = getattr(dunkl, form)

    def bent(k, n, *monomial):
        out = original(k, n, *monomial)
        if k == 3 and monomial in ((), (1, 1)):
            terms = out.terms if form == "v_wedge" else out
            key = next(iter(terms))
            terms[key] *= 2
        return out

    monkeypatch.setattr(dunkl, form, bent)
    assert not acceptance.criterion_6().passed


def test_v_span_certificate_fails_when_one_generator_is_perturbed():
    """Every combination of v1..v4 is triangular; moving one generator off the
    module makes one of the pieces that involve it nonzero."""
    vs = dunkl.elements_v(5)
    assert acceptance.nonvanishing_piece(vs) is None
    bump = Fraction(1, 3) * closed_form.cg_closed_form(2, 5)
    for k in range(4):
        bent = vs[:k] + (vs[k] + bump,) + vs[k + 1:]
        piece = acceptance.nonvanishing_piece(bent)
        assert piece is not None and k in piece


def test_v_span_certificate_checks_the_cross_pieces():
    """A triangular operator in place of one generator keeps every diagonal
    piece zero; only a cross piece B(vi, vj) + B(vj, vi) shows the failure."""
    vs = dunkl.elements_v(5)
    j = frobenius.jordanian(5)
    assert cyb.double_bracket(j).is_zero()
    for k in range(4):
        piece = acceptance.nonvanishing_piece(vs[:k] + (j,) + vs[k + 1:])
        assert piece is not None and k in piece and piece[0] != piece[1]


def _first_piece_by_definition(ops):
    """nonvanishing_piece with each cross piece taken as B(vi, vj) + B(vj, vi),
    for the bilinear form B whose diagonal is the double bracket."""
    for i, vi in enumerate(ops):
        for j in range(i, len(ops)):
            piece = double_bracket_over_fractions(vi, ops[j])
            if j > i:
                piece = piece + double_bracket_over_fractions(ops[j], vi)
            if not piece.is_zero():
                return i, j
    return None


def test_polarized_pieces_match_the_definition():
    """Polarization finds the same first nonzero piece; with the zero operator
    first, the cross piece vanishes and the failure is the second diagonal."""
    vs = dunkl.elements_v(5)
    r = closed_form.cg_closed_form(2, 5)
    zero = SparseOp(5)
    cases = [(zero, r), (r,), vs, (vs[0], r, vs[1]), vs[:2] + (frobenius.jordanian(5),)]
    found = [acceptance.nonvanishing_piece(ops) for ops in cases]
    assert found == [_first_piece_by_definition(ops) for ops in cases]
    assert found[:3] == [(1, 1), (0, 0), None]
