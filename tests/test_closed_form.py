"""The closed-form action, its specializations, and the diagram involution."""

from fractions import Fraction

import pytest

from cgrm import bd, closed_form, wheels
from cgrm.acceptance import coprime_pairs
from cgrm.scalars import sgn
from cgrm.tensorops import MatrixN, SparseOp, wedge_to_op

from conftest import permutation_op


def test_psi_examples():
    assert [closed_form.psi(2, 5, j) for j in range(1, 6)] == [3, 1, 4, 2, 5]
    for n in (3, 5, 8):
        assert closed_form.psi(1, n, n) == n
        assert [closed_form.psi(1, n, j) for j in range(1, n + 1)] == list(range(1, n + 1))
    assert closed_form.psi_values(12, 31)[-1] == 31


def test_r23_column():
    col = closed_form.cg_column(1, 3, 2, 1)
    assert col == {(2, 1): Fraction(1, 6), (1, 2): Fraction(1, 2)}


def test_diagonal_columns_vanish_for_m1():
    op = closed_form.cg_closed_form(1, 5)
    for j in range(1, 6):
        assert op.column(j, j) == {}


def test_closed_form_rejects_non_coprime():
    with pytest.raises(ValueError):
        closed_form.cg_closed_form(2, 4)


def test_m1_display_matches_closed_form():
    for n in range(2, 13):
        assert closed_form.cg_m1_display(n) == closed_form.cg_closed_form(1, n)


def test_m2_display_matches_closed_form():
    for n in (3, 5, 7, 9, 11):
        assert closed_form.cg_m2_display(n) == closed_form.cg_closed_form(2, n)


def test_m2_display_diagonal_scalar_cancels():
    op = closed_form.cg_m2_display(5)
    for j in range(1, 6):
        assert op.column(j, j).get((j, j), Fraction(0)) == 0


def test_cross_construction_small():
    for (m, n) in coprime_pairs(9):
        assert wedge_to_op(bd.bd_r_matrix(n - m, n)) == closed_form.cg_closed_form(m, n)


def test_cross_construction_sampled_31():
    big = wedge_to_op(bd.bd_r_matrix(19, 31))
    for (j, l) in ((1, 1), (17, 10), (15, 22), (31, 1), (2, 29), (16, 16)):
        assert big.column(j, l) == closed_form.cg_column(12, 31, j, l)


def test_antisymmetry():
    for (m, n) in ((1, 4), (2, 5), (3, 8)):
        op = closed_form.cg_closed_form(m, n)
        p = permutation_op(n)
        assert p @ op @ p == Fraction(-1) * op


def test_output_in_sl_wedge_sl():
    """Both leg slices of the solution must be traceless."""
    op = closed_form.cg_closed_form(2, 5)
    first, second = {}, {}
    for (i, j), (k, l), v in op.entries():
        first.setdefault((i, k), {}).setdefault((j, l), Fraction(0))
        first[(i, k)][(j, l)] += v
        second.setdefault((j, l), {}).setdefault((i, k), Fraction(0))
        second[(j, l)][(i, k)] += v
    for slices in (first, second):
        for entries in slices.values():
            assert sum(v for (i, j), v in entries.items() if i == j) == 0


def test_alpha_recovery():
    """Removing the diagonal and swap parts leaves exactly the ordered-pair sums:
    alpha = sgn(l - j) e_l (x) e_j + closed double sums on every column."""
    for (m, n) in ((1, 4), (2, 5), (3, 7)):
        op = closed_form.cg_closed_form(m, n)
        beta_gamma = wedge_to_op(bd.beta_part(n - m, n) + bd.gamma_part(n))
        alpha_op = op - beta_gamma
        w = wheels.wheel(m, n)
        for j in range(1, n + 1):
            for l in range(1, n + 1):
                expected = {}

                def add(i, k, v):
                    key = (i, k)
                    expected[key] = expected.get(key, Fraction(0)) + v
                    if expected[key] == 0:
                        del expected[key]

                if j != l:
                    add(l, j, Fraction(sgn(l - j)))
                for s in wheels.sbar_closed(w, n + 1 - j, n + 1 - l):
                    add(n + 1 - s, j + l - (n + 1 - s), Fraction(1))
                for s in wheels.sbar_closed(w, n + 1 - l, n + 1 - j):
                    add(j + l - (n + 1 - s), n + 1 - s, Fraction(-1))
                assert alpha_op.column(j, l) == expected, (m, n, j, l)


def test_phi_twist_involution_on_matrices():
    for n in (2, 3, 5):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                e = MatrixN.unit(n, i, j)
                assert closed_form.phi_twist(closed_form.phi_twist(e)) == e


def test_phi_twist_takes_a_wedge_through_its_operator():
    with pytest.raises(TypeError):
        closed_form.phi_twist(bd.gamma_part(3))


@pytest.mark.parametrize("x", [
    closed_form.cg_closed_form(2, 5) + SparseOp.from_entries(5, [((1, 1), (1, 2), 3)]),
    SparseOp.from_entries(3, [((1, 2, 3), (3, 3, 1), Fraction(-7, 2)), ((2, 2, 1), (1, 3, 2), 4)]),
], ids=["two legs", "three legs"])
def test_phi_twist_is_an_involution_on_operators(x):
    assert closed_form.phi_twist(x) != x
    assert closed_form.phi_twist(closed_form.phi_twist(x)) == x


def test_phi_twist_mirrors_every_closed_form():
    """theta maps the (m, n) solution to the (n - m, n) one, at all 57 coprime
    pairs with n <= 13."""
    pairs = coprime_pairs(13)
    assert len(pairs) == 57
    for m, n in pairs:
        assert closed_form.phi_twist(closed_form.cg_closed_form(m, n)) == \
            closed_form.cg_closed_form(n - m, n), (m, n)


def _principal_degrees(op):
    """The set of i + j - k - l over the entries at out (i, j), in (k, l)."""
    return {sum(out) - sum(inp) for out, inp, _ in op.entries()}


def test_closed_forms_have_principal_degree_zero():
    """Every entry of each closed form keeps i + j = k + l, so the principal
    torus fixes it; one entry moved off degree 0 is seen."""
    for m, n in coprime_pairs(13):
        op = closed_form.cg_closed_form(m, n)
        assert _principal_degrees(op) == {0}, (m, n)
    moved = closed_form.cg_closed_form(2, 5) + SparseOp.from_entries(5, [((1, 1), (1, 2), 1)])
    assert _principal_degrees(moved) == {0, -1}


def test_bd_13_is_twist_of_closed_form():
    lhs = wedge_to_op(bd.bd_r_matrix(1, 3))
    assert lhs == closed_form.phi_twist(closed_form.cg_closed_form(1, 3))
