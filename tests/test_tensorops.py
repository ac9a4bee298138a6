"""Core sparse-operator and wedge-element behaviour."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgrm import bd
from cgrm.frobenius import LieSubalgebra
from cgrm import cyb
from cgrm.tensorops import (MatrixN, SparseOp, WedgeElement, canonical_json,
                            kron_sum2, wedge_of_matrices, wedge_to_op)

from conftest import (exp_nilpotent, identity, identity_op, kron, op_to_wedge, permutation_op,
                      scalars, swap_conjugate, wedge_elements)


def test_wedge_to_op_elementary():
    w = WedgeElement(2, {((1, 2), (2, 1)): 1})
    op = wedge_to_op(w)
    # (e12 ^ e21)(e2 (x) e1) = 1/2 e1 (x) e2 ; swapped column is negated
    assert op.column(2, 1) == {(1, 2): Fraction(1, 2)}
    assert op.column(1, 2) == {(2, 1): Fraction(-1, 2)}


def test_wedge_zero_and_square():
    assert wedge_to_op(WedgeElement(2)).is_zero()
    assert WedgeElement(2, {((1, 1), (1, 1)): 1}).is_zero()


def test_reversed_wedge_is_negated():
    w1 = WedgeElement(3, {((1, 2), (2, 3)): 1})
    w2 = WedgeElement(3, {((2, 3), (1, 2)): 1})
    assert w1 == Fraction(-1) * w2
    assert (w1 + w2).terms == {}


@settings(max_examples=60)
@given(wedge_elements(3, 5))
def test_swap_conjugate_negates_wedge_ops(w):
    op = wedge_to_op(w)
    assert swap_conjugate(op) == Fraction(-1) * op


@settings(max_examples=40)
@given(wedge_elements(3, 5), wedge_elements(3, 5), scalars)
def test_wedge_to_op_linear(w1, w2, lam):
    lhs = wedge_to_op(w1 + lam * w2)
    rhs = wedge_to_op(w1) + lam * wedge_to_op(w2)
    assert lhs == rhs


@settings(max_examples=40)
@given(wedge_elements(3, 5))
def test_op_to_wedge_round_trip(w):
    assert op_to_wedge(wedge_to_op(w)) == w


def test_op_to_wedge_rejects_symmetric():
    with pytest.raises(ValueError):
        op_to_wedge(identity_op(2))
    e12 = MatrixN.unit(2, 1, 2)
    with pytest.raises(ValueError):
        op_to_wedge(kron(e12, e12))


def test_swap_conjugate_examples():
    assert swap_conjugate(identity_op(3)) == identity_op(3)
    p = permutation_op(3)
    assert swap_conjugate(p) == p


@settings(max_examples=40)
@given(wedge_elements(3, 5))
def test_commutator_with_self_vanishes(w):
    op = wedge_to_op(w)
    assert op.bracket(op).is_zero()


def test_compose_identity_and_scale():
    w = WedgeElement(3, {((1, 2), (2, 3)): 5})
    op = wedge_to_op(w)
    assert identity_op(3) @ op == op
    assert op @ identity_op(3) == op
    assert 2 * (Fraction(1, 2) * op) == op


def test_dimension_mismatch_raises():
    """Sums and products of operands on different V = k^n raise, in either order."""
    pairs = [(identity_op(2), identity_op(3)),
             (MatrixN.unit(3, 1, 2), MatrixN.unit(2, 1, 1)),
             (WedgeElement(3, {((1, 2), (2, 1)): 1}), WedgeElement(2, {((1, 2), (2, 1)): 1}))]
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            combines = [lambda: x + y, lambda: x - y]
            if isinstance(x, MatrixN):
                combines += [lambda: x @ y, lambda: wedge_of_matrices(x, y)]
            elif isinstance(x, SparseOp):
                combines.append(lambda: x @ y)
            for combine in combines:
                with pytest.raises(ValueError, match="dimension mismatch"):
                    combine()


def span_basis(n, mats):
    return LieSubalgebra.from_rows(n, [m.entries for m in mats]).basis


def test_span_basis_examples():
    e12 = MatrixN.unit(3, 1, 2)
    e21 = MatrixN.unit(3, 2, 1)
    assert len(span_basis(3, [e12, 2 * e12])) == 1
    assert len(span_basis(3, [e12, e21])) == 2
    basis = span_basis(3, [e12, e21])
    assert span_basis(3, basis) == basis  # idempotent


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
        return span_basis(n, [MatrixN(n, entries) for entries in slices.values()])

    assert len(slice_span(wedge_to_op(bd.bd_r_matrix(1, 3)), 3)) == 8
    assert len(slice_span(jordanian(3), 3)) == 6


def test_wedge_of_matrices_bilinear():
    a = MatrixN.unit(3, 1, 2) + 2 * MatrixN.unit(3, 2, 3)
    b = MatrixN.unit(3, 3, 1)
    w = wedge_of_matrices(a, b)
    expected = (WedgeElement(3, {((1, 2), (3, 1)): 1})
                + Fraction(2) * WedgeElement(3, {((2, 3), (3, 1)): 1}))
    assert w == expected


def test_out_of_range_indices_rejected():
    with pytest.raises(ValueError):
        SparseOp.from_entries(2, [(((1, 3)), (1, 1), 1)])
    with pytest.raises(ValueError):
        WedgeElement(2, {((1, 2), (3, 1)): 1})
    with pytest.raises(ValueError):
        MatrixN.unit(2, 0, 1)


def test_json_round_trip_bit_exact():
    r = wedge_to_op(bd.bd_r_matrix(2, 5))
    text = canonical_json(r.to_json_obj())
    again = SparseOp.from_json_obj(json.loads(text))
    assert again == r
    assert canonical_json(again.to_json_obj()) == text


def test_sparse_op3_json_round_trip():
    z = cyb.z_op(3)
    text = canonical_json(z.to_json_obj())
    again = SparseOp.from_json_obj(json.loads(text))
    assert again == z
    assert canonical_json(again.to_json_obj()) == text


def matrices(n=2, values=scalars):
    idx = st.integers(min_value=1, max_value=n)
    return st.dictionaries(st.tuples(idx, idx), values, max_size=n * n).map(
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
    assert kron(a, identity(3)) + kron(identity(3), a) == kron_sum2(a)


def sparse_ops(legs, n=2, values=scalars):
    idx = st.tuples(*[st.integers(min_value=1, max_value=n)] * legs)
    col = st.dictionaries(idx, values, max_size=3)
    return st.dictionaries(idx, col, max_size=4).map(lambda cols: SparseOp(n, cols))


@st.composite
def near_skew_ops(draw, n=3):
    """Two-leg operators on which skewness is in doubt: a drawn operator, a
    wedge operator, or a wedge operator with one entry removed, sign-flipped or
    doubled, or with a nonzero entry at out (i, i), in (k, k), which is its own
    mirror; with Fraction entries, or scaled to int ones."""
    kind = draw(st.sampled_from(["drawn", "wedge", "removed", "flipped", "doubled", "own_mirror"]))
    if kind == "drawn":
        op = draw(sparse_ops(2, n))
    else:
        op = wedge_to_op(draw(wedge_elements(n, 5)))
        cols = {inp: dict(col) for inp, col in op.cols.items()}
        if kind == "own_mirror":
            i, k = draw(st.integers(1, n)), draw(st.integers(1, n))
            cols.setdefault((k, k), {})[(i, i)] = draw(scalars.filter(bool))
        elif kind != "wedge" and cols:
            out, inp, v = draw(st.sampled_from(sorted(op.entries())))
            if kind == "removed":
                del cols[inp][out]
            else:
                cols[inp][out] = -v if kind == "flipped" else 2 * v
        op = SparseOp(n, cols)
    if draw(st.booleans()):
        op = cyb._integral(op)[1]
    return op


@settings(max_examples=150, deadline=None)
@given(near_skew_ops())
def test_is_antisymmetric_matches_swap_conjugate(op):
    assert op.is_antisymmetric() == (swap_conjugate(op) == -op)


def test_is_antisymmetric_examples(monkeypatch):
    """A wedge is skew, also scaled to ints; one entry changed, or a nonzero
    entry that is its own mirror, is not.  The check builds no operator."""
    r = wedge_to_op(bd.bd_r_matrix(2, 5))
    skew = [r, cyb._integral(r)[1], SparseOp(5)]
    not_skew = [identity_op(5), SparseOp(5, {**r.cols, (1, 1): {(2, 2): Fraction(1)}})]
    built = []
    init = SparseOp.__init__
    monkeypatch.setattr(SparseOp, "__init__", lambda op, *a: built.append(a) or init(op, *a))
    assert [op.is_antisymmetric() for op in skew + not_skew] == [True] * 3 + [False] * 2
    assert built == []


def assert_clean(op):
    """No empty column and no zero entry: what __init__ leaves, and what __eq__ relies on."""
    assert all(col and all(col.values()) for col in op.cols.values())


def entrywise_product(a, b):
    """a @ b by its definition, (ab)[out, inp] = sum over mid of a[out, mid] b[mid, inp]:
    a double loop over the entries, independent of the column kernel behind @."""
    cols = {}
    for out, mid, v in a.entries():
        for right_out, inp, w in b.entries():
            if right_out == mid:
                col = cols.setdefault(inp, {})
                col[out] = col.get(out, 0) + v * w
    return SparseOp(a.n, cols)


@pytest.mark.parametrize("legs", [2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_op_subtraction(legs, data):
    a = data.draw(sparse_ops(legs))
    b = data.draw(sparse_ops(legs))
    if data.draw(st.booleans()):
        b = a + b  # most entries of a - b then cancel
    diff = a - b
    assert_clean(diff)
    assert_clean(a + b)
    assert diff == a + (-1) * b
    assert diff + b == a
    assert (a - a).cols == {}
    for zero in (0, Fraction(0)):
        scaled = zero * a
        assert scaled.n == a.n and scaled.is_zero()


@pytest.mark.parametrize("legs", [2, 3])
@pytest.mark.parametrize("values, kind", [(st.integers(-9, 9), int), (scalars, Fraction)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_arithmetic_keeps_the_entry_type(legs, values, kind, data):
    """Operators scaled to integer numerators stay int-valued under @, + and -;
    Fraction-valued ones stay Fraction-valued."""
    a = data.draw(sparse_ops(legs, values=values))
    b = data.draw(sparse_ops(legs, values=values))
    for result in (a @ b, b @ a, a + b, a - b, b - a, a.bracket(b)):
        assert all(type(v) is kind for _, _, v in result.entries())


@pytest.mark.parametrize("legs", [2, 3])
@pytest.mark.parametrize("values, kind", [(st.integers(-9, 9), int), (scalars, Fraction)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bracket_is_the_commutator(legs, values, kind, data):
    """The one-pass bracket subtracts other @ self into self @ other; it must
    equal the two products' difference, store no zeros and keep the entry type.
    @ and bracket share one column kernel, so both are also checked against
    the entrywise product."""
    a = data.draw(sparse_ops(legs, values=values))
    b = data.draw(sparse_ops(legs, values=values))
    if data.draw(st.booleans()):
        b = a + a @ a  # commutes with a, so every entry cancels
    result = a.bracket(b)
    assert a @ b == entrywise_product(a, b)
    assert result == entrywise_product(a, b) - entrywise_product(b, a)
    assert result == a @ b - b @ a
    assert result == -b.bracket(a)
    assert_clean(result)
    assert all(type(v) is kind for _, _, v in result.entries())


@pytest.mark.parametrize("values", [st.integers(-9, 9), scalars], ids=["int", "Fraction"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_matrix_bracket_is_the_commutator(values, data):
    """MatrixN.bracket accumulates both products into one map; it must equal
    their difference and store no zeros."""
    a = data.draw(matrices(3, values=values))
    b = data.draw(matrices(3, values=values))
    if data.draw(st.booleans()):
        b = a + a @ a  # commutes with a, so every entry cancels
    result = a.bracket(b)
    assert result == a @ b - b @ a
    assert result == -b.bracket(a)
    assert all(result.entries.values())


def test_leg_count_mismatch_raises():
    """A two-leg and a three-leg operator do not combine, in either order; an
    empty operator combines with both."""
    two = identity_op(2)
    three = SparseOp(2, {(1, 2, 1): {(2, 1, 1): Fraction(1, 3)}})
    for x, y in ((two, three), (three, two)):
        for combine in (lambda: x + y, lambda: x - y, lambda: x @ y, lambda: x.bracket(y)):
            with pytest.raises(ValueError, match="leg count mismatch"):
                combine()
    empty = SparseOp(2)
    for op in (two, three):
        assert op + empty == op and empty + op == op and op - empty == op
        assert (op @ empty).is_zero() and (empty @ op).is_zero()
        assert op.bracket(empty).is_zero() and empty.bracket(op).is_zero()


def _stored(x):
    return x.terms if isinstance(x, WedgeElement) else x.entries


@pytest.mark.parametrize("elements", [matrices(3), wedge_elements(3, 5)],
                         ids=["MatrixN", "WedgeElement"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_matrix_subtraction(elements, data):
    """Sums and differences of the sparse types merge without a cleaning pass;
    they must still store no zeros, and agree with adding the negative."""
    a = data.draw(elements)
    b = data.draw(elements)
    if data.draw(st.booleans()):
        b = a + b  # most entries of a - b then cancel
    assert a - b == a + (-1) * b
    assert (a - b) + b == a
    assert _stored(a - a) == {}
    assert all(_stored(a - b).values()) and all(_stored(a + b).values())


def test_one_operator_class_for_every_leg_count():
    from cgrm.tensorops import SparseOp2, SparseOp3
    assert SparseOp2 is SparseOp and SparseOp3 is SparseOp
    assert kron(identity(2), identity(2)) == identity_op(2)
    with pytest.raises(ValueError):
        SparseOp.from_entries(2, [((1, 1), (1, 1), 1), ((1, 1, 1), (1, 1, 1), 1)])
    with pytest.raises(ValueError):
        SparseOp.from_json_obj({"n": 2, "entries": [[[1, 1], [1, 1, 2], "1"]]})


def test_kron_sum_is_derivation_shape():
    x = MatrixN.unit(3, 1, 2)
    d = kron_sum2(x)
    assert d.column(2, 2) == {(1, 2): Fraction(1), (2, 1): Fraction(1)}
    # x_11 + x_22 cancels at (1, 2) in column (1, 2); x_11 + x_33 does not
    h = MatrixN(3, {(1, 1): 1, (2, 2): -1})
    d = kron_sum2(h)
    assert d.column(1, 2) == {} and d.column(1, 3) == {(1, 3): Fraction(1)}
    assert d == kron(h, identity(3)) + kron(identity(3), h)


def test_matrix_exp_nilpotent():
    x = MatrixN.unit(3, 1, 2) + MatrixN.unit(3, 2, 3)
    g = exp_nilpotent(x, 1)
    expected = (identity(3) + x
                + Fraction(1, 2) * MatrixN.unit(3, 1, 3))
    assert g == expected
    with pytest.raises(ValueError):
        exp_nilpotent(MatrixN.unit(2, 1, 1), 1)
