"""Yang-Baxter machinery: embeddings, the invariant Z, double brackets, lambda solving."""

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from cgrm import bd, closed_form, cyb
from cgrm.frobenius import jordanian, jordanian_x, nilpotent_exp_action
from cgrm.scalars import random_rational
from cgrm.tensorops import (MatrixN, SparseOp2, WedgeElement, kron,
                            permutation_op, wedge_to_op)

scalars = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def wedge_elements(n=2, max_terms=4):
    idx = st.integers(min_value=1, max_value=n)
    term = st.tuples(idx, idx, idx, idx, scalars)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: WedgeElement.from_terms(n, (((a, b), (c, d), v) for a, b, c, d, v in ts)))


def test_embed_identity():
    ident = SparseOp2.identity(2)
    emb = cyb.embed(ident, 12)
    for col, out in emb.cols.items():
        assert out == {col: Fraction(1)}
    assert emb.count_nonzero() == 8


def test_embed_swap_on_13():
    p = permutation_op(3)
    emb = cyb.embed(p, 13)
    assert emb.cols[(1, 2, 3)] == {(3, 2, 1): Fraction(1)}


def test_embeds_sharing_a_leg_do_not_commute():
    p = permutation_op(2)
    a = cyb.embed(p, 12)
    b = cyb.embed(p, 23)
    assert not a.bracket(b).is_zero()


def test_z_op_examples():
    assert cyb.z_op(1).is_zero()
    z = cyb.z_op(2)
    assert z.cols[(1, 1, 2)] == {(2, 1, 1): Fraction(1), (1, 2, 1): Fraction(-1)}


def test_z_is_invariant_under_diagonal_action():
    rng = random.Random(3)
    n = 3
    z = cyb.z_op(n)
    for _ in range(5):
        entries = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j and rng.random() < 0.6:
                    entries[(i, j)] = random_rational(rng)
        diag = [random_rational(rng) for _ in range(n - 1)]
        for i, v in enumerate(diag, start=1):
            entries[(i, i)] = entries.get((i, i), Fraction(0)) + v
            entries[(n, n)] = entries.get((n, n), Fraction(0)) - v
        x = MatrixN(n, entries)
        assert x.trace() == 0
        ident = MatrixN.identity(n)
        d3 = None
        for legs in ((x, ident, ident), (ident, x, ident), (ident, ident, x)):
            term = kron(*legs)
            d3 = term if d3 is None else d3 + term
        assert (d3 @ z - z @ d3).is_zero()


@settings(max_examples=25, deadline=None)
@given(wedge_elements(), wedge_elements())
def test_double_bracket_bilinear(w1, w2):
    a = wedge_to_op(w1)
    b = wedge_to_op(w2)
    two_a = Fraction(2) * a
    assert cyb.double_bracket(two_a, b) == Fraction(2) * cyb.double_bracket(a, b)
    assert cyb.double_bracket(b, two_a) == Fraction(2) * cyb.double_bracket(b, a)


def test_double_bracket_zero():
    z2 = SparseOp2.zero(2)
    r = wedge_to_op(bd.bd_r_matrix(1, 2))
    assert cyb.double_bracket(z2, r).is_zero()
    assert cyb.double_bracket(r, z2).is_zero()


def test_double_bracket_is_cyb0():
    r = closed_form.cg_closed_form(1, 3)
    assert cyb.cyb_lambda(r, 0) == cyb.double_bracket(r, r)


def test_quarter_lambda_for_m2():
    for n in (3, 5, 7):
        r = closed_form.cg_closed_form(2, n)
        assert cyb.cyb_lambda(r, Fraction(1, 4)).is_zero()


def test_cyb0_of_zero():
    assert cyb.cyb_lambda(SparseOp2.zero(3), 0).is_zero()


def test_find_lambda_bd_route():
    for (m, n) in ((1, 3), (2, 3), (1, 4), (2, 5), (4, 5)):
        rep = cyb.find_lambda(wedge_to_op(bd.bd_r_matrix(m, n)))
        assert rep.classification == cyb.QUASITRIANGULAR
        assert rep.residual_nonzero_count == 0
        # the closed form of the mirrored pair certifies with the same lambda
        rep2 = cyb.find_lambda(closed_form.cg_closed_form(n - m, n))
        assert rep2.lambda_ == rep.lambda_


def test_find_lambda_triangular():
    rep = cyb.find_lambda(jordanian(3))
    assert rep.classification == cyb.TRIANGULAR
    assert rep.lambda_ == 0


def test_find_lambda_rejects_random_wedge():
    rng = random.Random(11)
    hits = 0
    for _ in range(8):
        w = WedgeElement.from_terms(3, (
            ((rng.randint(1, 3), rng.randint(1, 3)),
             (rng.randint(1, 3), rng.randint(1, 3)),
             random_rational(rng)) for _ in range(4)))
        rep = cyb.find_lambda(wedge_to_op(w))
        if rep.classification == cyb.NOT_R_MATRIX:
            assert rep.residual_nonzero_count > 0
            hits += 1
    assert hits >= 5  # generic wedges are not solutions


def _find_lambda_by_search(r):
    """The general rule: lambda from the first nonzero entry of Z in sorted order."""
    bb = cyb.double_bracket(r, r)
    if bb.is_zero():
        return cyb.CybReport(Fraction(0), 0, cyb.TRIANGULAR)
    z = cyb.z_op(r.n)
    inp = min(z.cols)
    out = min(z.cols[inp])
    lam = bb.cols.get(inp, {}).get(out, Fraction(0)) / z.cols[inp][out]
    count = (bb - lam * z).count_nonzero()
    if count == 0 and lam != 0:
        return cyb.CybReport(lam, 0, cyb.QUASITRIANGULAR)
    return cyb.CybReport(None, count, cyb.NOT_R_MATRIX)


def test_find_lambda_agrees_with_general_search():
    for n in range(2, 16):
        z = cyb.z_op(n)
        assert min(z.cols) == (1, 1, 2)
        assert min(z.cols[(1, 1, 2)]) == (1, 2, 1)
        assert z.cols[(1, 1, 2)][(1, 2, 1)] == -1
    ops = [closed_form.cg_closed_form(m, n)
           for n in range(3, 8) for m in range(1, n) if gcd(m, n) == 1]
    ops += [Fraction(1, 2) * closed_form.cg_closed_form(2, 5), jordanian(3),
            SparseOp2.zero(1)]
    rng = random.Random(5)
    for _ in range(4):
        ops.append(wedge_to_op(WedgeElement.from_terms(3, (
            ((rng.randint(1, 3), rng.randint(1, 3)),
             (rng.randint(1, 3), rng.randint(1, 3)),
             random_rational(rng)) for _ in range(4)))))
    kinds = set()
    for r in ops:
        report = cyb.find_lambda(r)
        assert report.to_json_obj() == _find_lambda_by_search(r).to_json_obj()
        kinds.add(report.classification)
    assert kinds == {cyb.TRIANGULAR, cyb.QUASITRIANGULAR, cyb.NOT_R_MATRIX}


def test_orbit_equivariance():
    n = 4
    r = closed_form.cg_closed_form(1, n)
    x = jordanian_x(n)
    t = Fraction(2, 3)
    moved = nilpotent_exp_action(x, t, r)
    g, g_inv = x.exp_nilpotent(t), x.exp_nilpotent(-t)
    g3 = kron(g, g, g)
    g3_inv = kron(g_inv, g_inv, g_inv)
    lhs = cyb.double_bracket(moved, moved)
    rhs = g3 @ cyb.double_bracket(r, r) @ g3_inv
    assert lhs == rhs
    assert cyb.find_lambda(moved).lambda_ == cyb.find_lambda(r).lambda_


def test_boundary_top_coefficient_is_triangular():
    """A polynomial family with constant double bracket has a triangular top term."""
    n = 4
    r = wedge_to_op(bd.bd_r_matrix(1, n))  # the solution the weighted shift is adapted to
    x = jordanian_x(n)
    for t in (Fraction(1), Fraction(-2)):
        rt = nilpotent_exp_action(x, t, r)
        assert cyb.double_bracket(rt, rt) == cyb.double_bracket(r, r)
        # degree-one family: top coefficient is (r_t - r)/t
        top = Fraction(1, t) * (rt - r)
        assert cyb.double_bracket(top, top).is_zero()


def test_boundary_top_coefficient_quadratic_family():
    """With u frozen, the two-parameter orbit family is quadratic in t; its
    t^2 coefficient is a triangular solution."""
    from cgrm import dunkl
    from cgrm.frobenius import nilpotent_exp_action as act
    n, u = 5, Fraction(1)
    r = closed_form.cg_closed_form(2, n)
    e1m, e2m = dunkl.e1_matrix(n), dunkl.e2_matrix(n)

    def family(t):
        return act(e2m, t, act(e1m, u, r))

    r0, r1, rm1 = family(Fraction(0)), family(Fraction(1)), family(Fraction(-1))
    assert cyb.double_bracket(r1, r1) == cyb.double_bracket(r, r)
    top = Fraction(1, 2) * (r1 + rm1 - Fraction(2) * r0)
    assert top == Fraction(1, 2) * u * dunkl.elements_v(n)[3]
    assert cyb.double_bracket(top, top).is_zero()
