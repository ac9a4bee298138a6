"""Core sparse-operator and wedge-element behaviour."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgrm import bd
from cgrm.tensorops import (MatrixN, SparseOp2, WedgeElement, canonical_json,
                            kron, kron_sum2, op_commutator, op_compose, op_scale,
                            op_to_wedge, permutation_op, span_basis,
                            swap_conjugate, wedge_of_matrices, wedge_to_op)

scalars = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def wedge_elements(n=3, max_terms=5):
    idx = st.integers(min_value=1, max_value=n)
    term = st.tuples(idx, idx, idx, idx, scalars)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: WedgeElement.from_terms(n, (((a, b), (c, d), v) for a, b, c, d, v in ts)))


def test_wedge_to_op_elementary():
    w = WedgeElement.single(2, 1, 2, 2, 1)
    op = wedge_to_op(w)
    # (e12 ^ e21)(e2 (x) e1) = 1/2 e1 (x) e2 ; swapped column is negated
    assert op.column(2, 1) == {(1, 2): Fraction(1, 2)}
    assert op.column(1, 2) == {(2, 1): Fraction(-1, 2)}


def test_wedge_zero_and_square():
    assert wedge_to_op(WedgeElement.zero(2)).is_zero()
    assert WedgeElement.single(2, 1, 1, 1, 1).is_zero()


def test_reversed_wedge_is_negated():
    w1 = WedgeElement.single(3, 1, 2, 2, 3)
    w2 = WedgeElement.single(3, 2, 3, 1, 2)
    assert w1 == Fraction(-1) * w2


@settings(max_examples=60)
@given(wedge_elements())
def test_swap_conjugate_negates_wedge_ops(w):
    op = wedge_to_op(w)
    assert swap_conjugate(op) == Fraction(-1) * op


@settings(max_examples=40)
@given(wedge_elements(), wedge_elements(), scalars)
def test_wedge_to_op_linear(w1, w2, lam):
    lhs = wedge_to_op(w1 + lam * w2)
    rhs = wedge_to_op(w1) + lam * wedge_to_op(w2)
    assert lhs == rhs


@settings(max_examples=40)
@given(wedge_elements())
def test_op_to_wedge_round_trip(w):
    assert op_to_wedge(wedge_to_op(w)) == w


def test_op_to_wedge_rejects_symmetric():
    with pytest.raises(ValueError):
        op_to_wedge(SparseOp2.identity(2))


def test_swap_conjugate_examples():
    assert swap_conjugate(SparseOp2.identity(3)) == SparseOp2.identity(3)
    p = permutation_op(3)
    assert swap_conjugate(p) == p


@settings(max_examples=40)
@given(wedge_elements())
def test_commutator_with_self_vanishes(w):
    op = wedge_to_op(w)
    assert op_commutator(op, op).is_zero()


def test_compose_identity_and_scale():
    w = WedgeElement.single(3, 1, 2, 2, 3, 5)
    op = wedge_to_op(w)
    assert op_compose(SparseOp2.identity(3), op) == op
    assert op_compose(op, SparseOp2.identity(3)) == op
    assert op_scale(2, op_scale(Fraction(1, 2), op)) == op


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        op_compose(SparseOp2.identity(2), SparseOp2.identity(3))


def test_span_basis_examples():
    e12 = MatrixN.unit(3, 1, 2)
    e21 = MatrixN.unit(3, 2, 1)
    assert len(span_basis([e12, 2 * e12])) == 1
    assert len(span_basis([e12, e21])) == 2
    basis = span_basis([e12, e21])
    assert span_basis(basis) == basis  # idempotent


def test_span_of_first_leg_slices():
    """Brute-force row reduction of all n^2 first-leg contractions.

    The quasitriangular (1, 3) solution has nondegenerate slices (all of sl_3,
    dimension 8); the boundary element it degenerates to has slices spanning
    the parabolic of dimension 6.
    """
    from cgrm.frobenius import jordanian

    def slice_span(r, n):
        slices = {}
        for (i, j), (k, l), v in r.entries():
            slices.setdefault((i, k), {}).setdefault((j, l), Fraction(0))
            slices[(i, k)][(j, l)] += v
        return span_basis([MatrixN(n, entries) for entries in slices.values()])

    assert len(slice_span(wedge_to_op(bd.bd_r_matrix(1, 3)), 3)) == 8
    assert len(slice_span(jordanian(3), 3)) == 6


def test_wedge_of_matrices_bilinear():
    a = MatrixN.unit(3, 1, 2) + 2 * MatrixN.unit(3, 2, 3)
    b = MatrixN.unit(3, 3, 1)
    w = wedge_of_matrices(a, b)
    expected = (WedgeElement.single(3, 1, 2, 3, 1)
                + Fraction(2) * WedgeElement.single(3, 2, 3, 3, 1))
    assert w == expected


def test_out_of_range_indices_rejected():
    with pytest.raises(ValueError):
        SparseOp2.from_entries(2, [(((1, 3)), (1, 1), 1)])
    with pytest.raises(ValueError):
        WedgeElement.single(2, 1, 2, 3, 1)
    with pytest.raises(ValueError):
        MatrixN.unit(2, 0, 1)


def test_json_round_trip_bit_exact():
    r = wedge_to_op(bd.bd_r_matrix(2, 5))
    text = canonical_json(r.to_json_obj())
    again = SparseOp2.from_json_obj(json.loads(text))
    assert again == r
    assert canonical_json(again.to_json_obj()) == text


def test_sparse_op3_json_round_trip():
    from cgrm import cyb
    from cgrm.tensorops import SparseOp3
    z = cyb.z_op(3)
    text = canonical_json(z.to_json_obj())
    again = SparseOp3.from_json_obj(json.loads(text))
    assert again == z
    assert canonical_json(again.to_json_obj()) == text


def matrices(n=2):
    idx = st.integers(min_value=1, max_value=n)
    return st.dictionaries(st.tuples(idx, idx), scalars, max_size=n * n).map(
        lambda entries: MatrixN(n, entries))


@settings(max_examples=25, deadline=None)
@given(matrices(), matrices(), matrices())
def test_kron_entries_are_products(a, b, c):
    rng = range(1, 3)
    op = kron(a, b, c)
    for p in rng:
        for q in rng:
            for r in rng:
                col = op.column(p, q, r)
                for i in rng:
                    for j in rng:
                        for k in rng:
                            expected = (a.entries.get((i, p), 0) * b.entries.get((j, q), 0)
                                        * c.entries.get((k, r), 0))
                            assert col.get((i, j, k), 0) == expected


@settings(max_examples=25, deadline=None)
@given(matrices(3), matrices(3), matrices(3), matrices(3))
def test_kron_mixed_product(a, b, c, d):
    assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)
    assert kron(a, MatrixN.identity(3)) + kron(MatrixN.identity(3), a) == kron_sum2(a)


def test_one_operator_class_for_every_leg_count():
    from cgrm.tensorops import SparseOp, SparseOp3
    assert SparseOp2 is SparseOp and SparseOp3 is SparseOp
    assert kron(MatrixN.identity(2), MatrixN.identity(2)) == SparseOp2.identity(2)
    with pytest.raises(ValueError):
        SparseOp.from_entries(2, [((1, 1), (1, 1), 1), ((1, 1, 1), (1, 1, 1), 1)])
    with pytest.raises(ValueError):
        SparseOp.from_json_obj({"n": 2, "entries": [[[1, 1], [1, 1, 2], "1"]]})


def test_kron_sum_is_derivation_shape():
    x = MatrixN.unit(3, 1, 2)
    d = kron_sum2(x)
    assert d.column(2, 2) == {(1, 2): Fraction(1), (2, 1): Fraction(1)}


def test_matrix_exp_nilpotent():
    x = MatrixN.unit(3, 1, 2) + MatrixN.unit(3, 2, 3)
    g = x.exp_nilpotent(1)
    expected = (MatrixN.identity(3) + x
                + Fraction(1, 2) * MatrixN.unit(3, 1, 3))
    assert g == expected
    with pytest.raises(ValueError):
        MatrixN.unit(2, 1, 1).exp_nilpotent(1)
