"""Yang-Baxter machinery: embeddings, the invariant Z, double brackets, lambda solving."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgrm import bd, closed_form, cyb
from cgrm.frobenius import jordanian, jordanian_x, nilpotent_exp_action
from cgrm.tensorops import MatrixN, SparseOp, WedgeElement, wedge_to_op

from conftest import (double_bracket_over_fractions, exp_nilpotent, identity, identity_op, kron,
                      permutation_op, random_rational)

scalars = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def wedge_elements(n=2, max_terms=4):
    idx = st.integers(min_value=1, max_value=n)
    term = st.tuples(idx, idx, idx, idx, scalars)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: WedgeElement.from_terms(n, (((a, b), (c, d), v) for a, b, c, d, v in ts)))


def test_embed_identity():
    ident = identity_op(2)
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
        assert sum(v for (i, j), v in x.entries.items() if i == j) == 0
        ident = identity(n)
        d3 = None
        for legs in ((x, ident, ident), (ident, x, ident), (ident, ident, x)):
            term = kron(*legs)
            d3 = term if d3 is None else d3 + term
        assert (d3 @ z - z @ d3).is_zero()


def two_leg_ops(n, max_terms=6):
    idx = st.integers(min_value=1, max_value=n)
    term = st.tuples(idx, idx, idx, idx, st.fractions(min_value=-9, max_value=9,
                                                      max_denominator=12))
    return st.lists(term, max_size=max_terms).map(lambda ts: SparseOp.from_entries(
        n, (((i, j), (k, l), v) for i, j, k, l, v in ts)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(two_leg_ops))
@example(SparseOp.from_entries(2, [((1, 2), (2, 1), Fraction(1, 2)), ((2, 1), (1, 2), 3)]))
@example(SparseOp.from_entries(2, [((1, 1), (1, 2), Fraction(-2, 3)),
                                   ((2, 1), (2, 2), Fraction(5, 9))]))
@example(SparseOp(3))
@example(SparseOp.from_entries(3, [((1, 3), (2, 1), Fraction(7, 5))]))
@example(SparseOp.from_entries(3, [((2, 3), (3, 1), Fraction(-1, 4))]))
@example(SparseOp.from_entries(3, [((3, 1), (2, 3), Fraction(2, 7))]))
def test_double_bracket_matches_fraction_oracle(r):
    db = cyb.double_bracket(r)
    assert db == double_bracket_over_fractions(r, r)
    assert all(type(v) is Fraction for _, _, v in db.entries())


# The six permutations of three tensor legs, each as the positions p with
# e_u -> e_(u[p0], u[p1], u[p2]), and its sign.
LEG_PERMUTATIONS = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                    ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1))


def _conjugate_by_leg_permutation(op, p):
    """sigma op sigma^-1 for sigma e_u = e_(u[p0], u[p1], u[p2]), with sigma and
    sigma^-1 built as operators."""
    rng = range(1, op.n + 1)
    triples = [(x, y, z) for x in rng for y in rng for z in rng]
    sigma = SparseOp(op.n, {u: {tuple(u[i] for i in p): Fraction(1)} for u in triples})
    sigma_inv = SparseOp(op.n, {tuple(u[i] for i in p): {u: Fraction(1)} for u in triples})
    return sigma @ op @ sigma_inv


def _conjugate_by_cyclic_shift(op):
    """s op s^-1 for the leg shift s with s r12 s^-1 = r23:
    s sends e_x (x) e_y (x) e_z to e_z (x) e_x (x) e_y."""
    return _conjugate_by_leg_permutation(op, (2, 0, 1))


def _is_alternating(op):
    """sigma op sigma^-1 = sgn(sigma) op for all six leg permutations sigma."""
    return all(_conjugate_by_leg_permutation(op, p) == sign * op
               for p, sign in LEG_PERMUTATIONS)


def _cyclic_sum_of_one_bracket(r):
    """(1 + s + s^2)[r12, r13], by explicit conjugation."""
    b = cyb.embed(r, 12).bracket(cyb.embed(r, 13))
    sb = _conjugate_by_cyclic_shift(b)
    return b + sb + _conjugate_by_cyclic_shift(sb)


def _assert_skew_path_exact(r):
    db = cyb.double_bracket(r)
    assert db == double_bracket_over_fractions(r, r)
    assert all(type(v) is Fraction for _, _, v in db.entries())


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: wedge_elements(n, max_terms=6)))
@example(WedgeElement(3, {((1, 2), (2, 3)): Fraction(3, 4)}))
@example(WedgeElement.from_terms(2, [((1, 2), (2, 1), Fraction(1, 2)),
                                     ((1, 1), (2, 2), Fraction(-2, 3))]))
def test_skew_double_bracket_matches_fraction_oracle(w):
    """A wedge is skew, so double_bracket(r) takes the cyclic path; it equals
    the Fraction oracle, which forms the three brackets."""
    r = wedge_to_op(w)
    assert r.is_antisymmetric()
    _assert_skew_path_exact(r)


def test_skew_double_bracket_examples():
    from cgrm import dunkl
    for r in (closed_form.cg_closed_form(2, 7), dunkl.b_cg(7, 2, 3), jordanian(4)):
        assert r.is_antisymmetric()
        _assert_skew_path_exact(r)
        assert cyb.double_bracket(r) == _cyclic_sum_of_one_bracket(r)
        assert _is_alternating(cyb.double_bracket(r))


def _bent(r):
    """r with 1/3 added at one entry of column (2, 3), which breaks skewness."""
    col = dict(r.column(2, 3))
    col[(3, 2)] = col.get((3, 2), Fraction(0)) + Fraction(1, 3)
    return SparseOp(r.n, {**r.cols, (2, 3): col})


def test_skew_path_runs_no_operator_bracket(monkeypatch):
    calls = []
    bracket = SparseOp.bracket
    monkeypatch.setattr(SparseOp, "bracket", lambda x, y: calls.append(1) or bracket(x, y))
    r = closed_form.cg_closed_form(2, 5)
    cyb.double_bracket(r)
    assert len(calls) == 0
    cyb.double_bracket(_bent(r))
    assert len(calls) == 2  # [r12, r13 + r23] and [r13, r23]


# Its double bracket has nonzero columns at (x, x, y) and (x, x, x) orbits.
REPEATED_INDEX_WEDGE = WedgeElement.from_terms(3, [((1, 2), (3, 3), -3), ((2, 2), (3, 2), -2)])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: wedge_elements(n, max_terms=6)))
@example(REPEATED_INDEX_WEDGE)
def test_skew_double_bracket_is_alternating(w):
    """For a skew r, [[r, r]] lies in the third exterior power: conjugating by
    a leg permutation multiplies it by the permutation's sign.  The skew path
    fills five of the six columns of each orbit from this."""
    r = wedge_to_op(w)
    assert _is_alternating(double_bracket_over_fractions(r, r))
    assert _is_alternating(cyb.double_bracket(r))


def test_repeated_index_orbits_are_covered():
    r = wedge_to_op(REPEATED_INDEX_WEDGE)
    assert {len(set(t)) for t in cyb.double_bracket(r).cols} == {1, 2}


def test_non_skew_operator_takes_the_general_path():
    """One perturbed entry breaks skewness; the result still matches the oracle,
    while the cyclic sum of [r12, r13] no longer equals the double bracket."""
    bent = _bent(closed_form.cg_closed_form(2, 5))
    assert not bent.is_antisymmetric()
    db = cyb.double_bracket(bent)
    assert db == double_bracket_over_fractions(bent, bent)
    assert db != _cyclic_sum_of_one_bracket(bent)
    assert not _is_alternating(db)
    assert cyb.find_lambda(bent).classification == cyb.NOT_R_MATRIX


@settings(max_examples=25, deadline=None)
@given(wedge_elements().map(wedge_to_op),
       two_leg_ops(2).filter(lambda r: not r.is_antisymmetric()), scalars)
def test_double_bracket_bilinear(skew, other, c):
    """The double bracket is a bilinear form on the diagonal, so DB(c r) = c^2 DB(r),
    on the skew path and on the general two-bracket path."""
    assert skew.is_antisymmetric()
    for r in (skew, other):
        assert cyb.double_bracket(c * r) == c * c * cyb.double_bracket(r)


def test_double_bracket_zero():
    assert cyb.double_bracket(SparseOp(2)).is_zero()


def test_double_bracket_is_cyb0():
    r = closed_form.cg_closed_form(1, 3)
    assert cyb.cyb_lambda(r, 0) == cyb.double_bracket(r)


def test_quarter_lambda_for_m2():
    for n in (3, 5, 7):
        r = closed_form.cg_closed_form(2, n)
        assert cyb.cyb_lambda(r, Fraction(1, 4)).is_zero()


def test_cyb0_of_zero():
    assert cyb.cyb_lambda(SparseOp(3), 0).is_zero()


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
    bb = cyb.double_bracket(r)
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
            SparseOp(1)]
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


def closed_form_multiples():
    pairs = [(m, n) for n in range(2, 8) for m in range(1, n) if gcd(m, n) == 1]
    return st.tuples(st.sampled_from(pairs), scalars).map(
        lambda t: t[1] * closed_form.cg_closed_form(*t[0]))


def perturbed_closed_forms():
    """A closed-form multiple plus a few arbitrary entries: mostly not a
    solution, with many residual entries that still cancel."""
    return closed_form_multiples().flatmap(
        lambda r: two_leg_ops(r.n, max_terms=2).map(lambda e: r + e))


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.integers(min_value=1, max_value=4).flatmap(lambda n: wedge_elements(n, max_terms=6)).map(
        wedge_to_op),
    st.integers(min_value=1, max_value=4).flatmap(two_leg_ops),
    closed_form_multiples(),
    perturbed_closed_forms()))
@example(Fraction(-3, 2) * closed_form.cg_closed_form(2, 5))
@example(closed_form.cg_closed_form(3, 5) + SparseOp.from_entries(5, [((1, 2), (2, 1), 1)]))
@example(wedge_to_op(WedgeElement(3, {((1, 2), (2, 3)): Fraction(3, 4)})))
def test_find_lambda_matches_search_with_z(r):
    """The inline residual count equals (bb - lambda Z).count_nonzero() with Z
    built as an operator, for solutions, non-solutions and lambda = 0."""
    assert cyb.find_lambda(r).to_json_obj() == _find_lambda_by_search(r).to_json_obj()


@pytest.mark.parametrize("m", [2, 16])
def test_find_lambda_at_the_cli_cap(m):
    report = cyb.find_lambda(closed_form.cg_closed_form(m, 31))
    assert report.to_json_obj() == {"classification": cyb.QUASITRIANGULAR,
                                    "lambda": "1/4", "residual_nonzero_count": 0}


def test_orbit_equivariance():
    n = 4
    r = closed_form.cg_closed_form(1, n)
    x = jordanian_x(n)
    t = Fraction(2, 3)
    moved = nilpotent_exp_action(x, t, r)
    g, g_inv = exp_nilpotent(x, t), exp_nilpotent(x, -t)
    g3 = kron(g, g, g)
    g3_inv = kron(g_inv, g_inv, g_inv)
    lhs = cyb.double_bracket(moved)
    rhs = g3 @ cyb.double_bracket(r) @ g3_inv
    assert lhs == rhs
    assert cyb.find_lambda(moved).lambda_ == cyb.find_lambda(r).lambda_


def test_boundary_top_coefficient_is_triangular():
    """A polynomial family with constant double bracket has a triangular top term."""
    n = 4
    r = wedge_to_op(bd.bd_r_matrix(1, n))  # the solution the weighted shift is adapted to
    x = jordanian_x(n)
    for t in (Fraction(1), Fraction(-2)):
        rt = nilpotent_exp_action(x, t, r)
        assert cyb.double_bracket(rt) == cyb.double_bracket(r)
        # degree-one family: top coefficient is (r_t - r)/t
        top = Fraction(1, t) * (rt - r)
        assert cyb.double_bracket(top).is_zero()


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
    assert cyb.double_bracket(r1) == cyb.double_bracket(r)
    top = Fraction(1, 2) * (r1 + rm1 - Fraction(2) * r0)
    assert top == Fraction(1, 2) * u * dunkl.elements_v(n)[3]
    assert cyb.double_bracket(top).is_zero()
