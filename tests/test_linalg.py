"""Sparse exact elimination against a dense Gauss-Jordan oracle, and the
span queries built on it (the closure check, structure constants, the
Frobenius functional check, the carrier's trace check)."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgrm import dunkl, frobenius
from cgrm.linalg import add_scaled, expand_in_rref, invert, rank, rref, solve_affine
from cgrm.tensorops import MatrixN, WedgeElement, wedge_to_op

from conftest import with_dense_form

ZERO = Fraction(0)

# Half of the drawn entries are zero, so singular and rank-deficient inputs are common.
entries = st.one_of(st.just(ZERO),
                    st.fractions(min_value=-5, max_value=5, max_denominator=4))


def matrices(min_rows=0, max_rows=6, min_cols=1, max_cols=6):
    """Dense rational matrices: tall, wide, square, with no rows, or all zero."""
    shape = st.tuples(st.integers(min_rows, max_rows), st.integers(min_cols, max_cols))
    return shape.flatmap(lambda rc: st.one_of(
        st.lists(st.lists(entries, min_size=rc[1], max_size=rc[1]),
                 min_size=rc[0], max_size=rc[0]),
        st.just([[ZERO] * rc[1] for _ in range(rc[0])])))


def oracle_rref(rows, ncols):
    """Textbook dense Gauss-Jordan elimination; returns (nonzero reduced rows, pivots)."""
    rows = [list(r) for r in rows]
    pivots = []
    top = 0
    for col in range(ncols):
        src = next((r for r in range(top, len(rows)) if rows[r][col] != 0), None)
        if src is None:
            continue
        rows[top], rows[src] = rows[src], rows[top]
        inv = 1 / rows[top][col]
        rows[top] = [v * inv for v in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[top])]
        pivots.append(col)
        top += 1
    return rows[:top], pivots


def sparse(row):
    return {j: v for j, v in enumerate(row) if v}


def dense(vec, ncols):
    return [vec.get(j, ZERO) for j in range(ncols)]


@pytest.mark.parametrize("values, kind", [
    (st.integers(-4, 4), int),
    (st.fractions(min_value=-5, max_value=5, max_denominator=4), Fraction),
], ids=["int", "Fraction"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_add_scaled_matches_dense(values, kind, data):
    """target + c * row, merged in place: the dense sum, no stored zeros, row
    untouched, and int entries kept int for an int c."""
    maps = st.dictionaries(st.integers(0, 5), values.filter(bool), max_size=6)
    target, row, c = data.draw(maps), data.draw(maps), data.draw(values)
    cancel = data.draw(st.lists(st.booleans(), min_size=len(row), max_size=len(row)))
    for k, flag in zip(row, cancel):
        if flag and c:
            target[k] = -c * row[k]  # this entry cancels
    before_target, before_row = dict(target), dict(row)
    result = add_scaled(target, c, row)
    assert result is target
    assert ([target.get(j, 0) for j in range(6)]
            == [before_target.get(j, 0) + c * row.get(j, 0) for j in range(6)])
    assert all(target.values())
    assert row == before_row
    assert all(type(v) is kind for v in target.values())


def test_add_scaled_unit_coefficient_stores_the_entry_itself():
    """c == 1 takes no product: a new key holds the row's own value object."""
    row = {0: Fraction(2, 3), 1: Fraction(-5, 7), 2: Fraction(1, 4)}
    target = add_scaled({1: Fraction(5, 7), 2: Fraction(1, 4)}, 1, row)
    assert target == {0: Fraction(2, 3), 2: Fraction(1, 2)}
    assert target[0] is row[0]


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_and_rank_match_oracle(a):
    ncols = len(a[0]) if a else 1
    reduced, pivots = rref([sparse(r) for r in a])
    expected_rows, expected_pivots = oracle_rref(a, ncols)
    assert pivots == expected_pivots
    assert [dense(r, ncols) for r in reduced] == expected_rows
    assert all(v != 0 for r in reduced for v in r.values())
    assert rank([sparse(r) for r in a]) == len(expected_pivots)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_expand_in_rref_matches_oracle(a, data):
    ncols = len(a[0]) if a else 1
    reduced, pivots = rref([sparse(r) for r in a])
    combo = data.draw(st.lists(entries, min_size=len(a), max_size=len(a)))
    inside = [sum((c * r[j] for c, r in zip(combo, a)), ZERO) for j in range(ncols)]
    anywhere = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    for vec in (inside, anywhere):
        in_span = len(oracle_rref(a + [vec], ncols)[1]) == len(pivots)
        coeffs = expand_in_rref(reduced, pivots, sparse(vec))
        if not in_span:
            assert coeffs is None
            continue
        assert coeffs == {i: vec[p] for i, p in enumerate(pivots) if vec[p]}
        rebuilt = [sum((c * reduced[i].get(j, ZERO) for i, c in coeffs.items()), ZERO)
                   for j in range(ncols)]
        assert rebuilt == vec


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_solve_affine_matches_oracle(a, data):
    ncols = len(a[0]) if a else 1
    b = data.draw(st.lists(entries, min_size=len(a), max_size=len(a)))
    solved = solve_affine([sparse(r) for r in a], b, ncols)
    expected_rows, expected_pivots = oracle_rref([r + [v] for r, v in zip(a, b)], ncols + 1)
    if ncols in expected_pivots:
        assert solved is None
        return
    particular, null_basis = solved
    x = dense(particular, ncols)
    assert x == [next((r[-1] for r, p in zip(expected_rows, expected_pivots) if p == j), ZERO)
                 for j in range(ncols)]
    assert [sum((r[j] * x[j] for j in range(ncols)), ZERO) for r in a] == b
    free = [j for j in range(ncols) if j not in expected_pivots]
    assert len(null_basis) == len(free)
    for f, v in zip(free, null_basis):
        y = dense(v, ncols)
        assert y[f] == 1 and all(y[g] == 0 for g in free if g != f)
        assert all(sum((r[j] * y[j] for j in range(ncols)), ZERO) == 0 for r in a)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_invert_matches_oracle(a):
    """invert takes the drawn matrix's zero-free rows and returns sparse rows."""
    n = len(a)
    inverse = invert([sparse(r) for r in a])
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    reduced, pivots = oracle_rref([r + e for r, e in zip(a, identity)], 2 * n)
    if pivots[:n] != list(range(n)):
        assert inverse is None
        return
    assert inverse == [sparse(r[n:]) for r in reduced]
    inverse = [dense(row, n) for row in inverse]
    product = [[sum((a[i][k] * inverse[k][j] for k in range(n)), ZERO) for j in range(n)]
               for i in range(n)]
    assert product == identity


def test_rref_leaves_inputs_alone():
    rows = [{0: Fraction(2), 1: Fraction(4)}, {0: Fraction(1), 1: Fraction(2)}]
    before = copy.deepcopy(rows)
    assert rref(rows) == ([{0: 1, 1: 2}], [0])
    assert rows == before


def _direct_structure_constants(f):
    """Expansions of [x_i, x_j] over every ordered pair i != j of basis elements,
    or None when one of them leaves the span."""
    consts = {}
    for i, a in enumerate(f.basis):
        for j, b in enumerate(f.basis):
            if i != j:
                coeffs = f.coordinates(a.bracket(b).entries)
                if coeffs is None:
                    return None
                assert all(coeffs.values())
                if coeffs:
                    consts[(i, j)] = coeffs
    return consts


def _assert_closure_matches_all_pairs(f):
    """bracket_closed, and the kept expansions in (i, j) order, as every pair gives them."""
    consts = _direct_structure_constants(f)
    assert f.bracket_closed == (consts is not None)
    if consts is not None:
        assert list(f._brackets.items()) == [(key, c) for key, c in consts.items()
                                             if key[0] < key[1]]


def _lie_closure(n, mats):
    """A reduced basis of the Lie subalgebra that mats generate."""
    while True:
        basis = [MatrixN(n, row) for row in rref([m.entries for m in mats])[0]]
        mats = basis + [a.bracket(b) for i, a in enumerate(basis) for b in basis[i + 1:]]
        if rank([m.entries for m in mats]) == len(basis):
            return basis


@st.composite
def sparse_spans(draw, close):
    """Up to five sparse n x n matrices, n <= 4, or the Lie subalgebra they generate."""
    n = draw(st.integers(1, 4))
    pos = st.tuples(st.integers(1, n), st.integers(1, n))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    mats = [MatrixN(n, m) for m in draw(st.lists(st.dictionaries(pos, value, max_size=3),
                                                 max_size=5))]
    return n, _lie_closure(n, mats) if close else mats


@pytest.mark.parametrize("close", [True, False], ids=["closed", "drawn"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_closure_matches_all_pairs_on_drawn_spans(close, data):
    n, mats = data.draw(sparse_spans(close))
    f = frobenius.LieSubalgebra.from_rows(n, [m.entries for m in mats])
    assert f.bracket_closed or not close
    _assert_closure_matches_all_pairs(f)


@pytest.mark.parametrize("m,n", [(m, n) for n in range(2, 7) for m in range(1, n)])
def test_closure_matches_all_pairs_on_parabolics(m, n):
    f = frobenius.parabolic(m, n)
    assert f.bracket_closed
    _assert_closure_matches_all_pairs(f)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_closure_matches_all_pairs_on_boundary_carriers(n):
    f = frobenius.carrier(dunkl.b_cg(n, 2, Fraction(-1, 3)))
    assert f.bracket_closed
    _assert_closure_matches_all_pairs(f)


@pytest.mark.parametrize("make", [
    lambda: frobenius.parabolic(2, 5),
    lambda: frobenius.carrier(dunkl.b_cg(5, 2, 3)),
], ids=["parabolic_2_5", "boundary_carrier_5"])
def test_structure_constants_match_direct_expansion(make):
    f = make()
    assert f.bracket_closed
    consts = frobenius.structure_constants(f)
    direct = _direct_structure_constants(f)
    assert consts == {(i, j): c for (i, j), c in direct.items() if i < j}
    # [x_j, x_i] = -[x_i, x_j], so the table leaves out the pairs i > j
    assert all(direct[(j, i)] == {s: -v for s, v in c.items()} for (i, j), c in consts.items())
    assert len(direct) == 2 * len(consts)


def test_structure_constants_are_the_closure_table_read_only():
    """The closure's own i < j table, behind a view that takes no assignment
    (an open span has none: test_structure_constants_require_closed_span)."""
    f = frobenius.carrier(dunkl.b_cg(5, 2, 3))
    consts = frobenius.structure_constants(f)
    assert consts == f._brackets and all(i < j for i, j in consts)
    with pytest.raises(TypeError):
        consts[(0, 1)] = {0: Fraction(1)}
    with pytest.raises(TypeError):
        del consts[next(iter(consts))]
    assert consts == f._brackets


def test_structure_constants_require_closed_span():
    mats = [MatrixN.unit(2, 1, 2), MatrixN.unit(2, 2, 1)]
    f = frobenius.LieSubalgebra.from_rows(2, [m.entries for m in mats])
    assert not f.bracket_closed  # [e_12, e_21] = e_11 - e_22
    _assert_closure_matches_all_pairs(f)
    with pytest.raises(ValueError, match="closed"):
        frobenius.structure_constants(f)


def test_cocycle_check_fails_on_a_span_that_is_not_closed():
    """An invertible skew form on a span that is not bracket closed has no
    structure constants to test, so the check fails instead of raising."""
    f = frobenius.LieSubalgebra.from_rows(2, [{(1, 2): 1}, {(2, 1): 1}])
    fd = frobenius.FrobeniusData(subalgebra=f, form_rows=[{1: Fraction(1)}, {0: Fraction(-1)}])
    assert not f.bracket_closed and fd.invertible and fd.skew
    assert frobenius.cocycle_check(fd) is False


def test_subalgebra_is_frozen_and_closure_is_one_field():
    """bracket_closed is read from the closure's expansions, and neither can be
    assigned after construction."""
    closed = frobenius.parabolic(1, 3)
    assert closed.bracket_closed and closed._brackets is not None
    for name in ("basis", "_rows", "_brackets", "bracket_closed"):
        with pytest.raises(AttributeError):
            setattr(closed, name, None)


def _boundary_frobenius_data():
    n, u, t = 5, Fraction(2), Fraction(-1, 3)
    b = dunkl.b_cg(n, u, t)
    fd = frobenius.r_check(b, frobenius.carrier(b))
    return fd, frobenius.cg_boundary_functional(n, u, t)


def test_functional_check_rejects_nonzero_diagonal():
    fd, eta = _boundary_frobenius_data()
    assert frobenius.frobenius_functional_check(fd, eta)
    form = fd.form
    form[2][2] = Fraction(1)
    assert not frobenius.frobenius_functional_check(with_dense_form(fd, form), eta)


def test_functional_check_rejects_non_skew_form():
    fd, eta = _boundary_frobenius_data()
    form = fd.form
    i, j = next((i, j) for i in range(len(form)) for j in range(i + 1, len(form))
                if form[i][j] != 0)
    form[j][i] = -2 * form[j][i]  # the upper entry still matches eta
    assert not frobenius.frobenius_functional_check(with_dense_form(fd, form), eta)


def test_carrier_rejects_slice_with_nonzero_trace():
    # e_11 ^ e_12 = e_11 (x) e_12 - e_12 (x) e_11; the first-leg slice at (1, 2) is -e_11.
    r = wedge_to_op(WedgeElement(3, {((1, 1), (1, 2)): 1}))
    assert r.is_antisymmetric()
    with pytest.raises(ValueError, match="trace"):
        frobenius.carrier(r)


def _cocycle_bruteforce(fd):
    """The cocycle identity on every increasing triple, from direct bracket expansions."""
    consts = _direct_structure_constants(fd.subalgebra)
    form = fd.form
    k = len(form)

    def f(i, j, l):
        return sum((c * form[s][l] for s, c in consts.get((i, j), {}).items()), ZERO)

    return all(f(i, j, l) + f(l, i, j) + f(j, l, i) == 0
               for i in range(k) for j in range(i + 1, k) for l in range(j + 1, k))


PARABOLIC_1_3 = frobenius.parabolic(1, 3)
small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(1, 3), st.integers(1, 3)), small, max_size=4),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), small), max_size=3))
def test_cocycle_check_matches_bruteforce(eta, perturbations):
    """Coboundaries eta([x, y]) are cocycles; skew perturbations of them mostly are not."""
    f = PARABOLIC_1_3
    form = [[frobenius.eval_functional(eta, x.bracket(y)) for y in f.basis] for x in f.basis]
    for i, j, v in perturbations:
        if i != j:
            form[i][j] += v
            form[j][i] -= v
    fd = frobenius.FrobeniusData(subalgebra=f, form_rows=[sparse(r) for r in form])
    assert frobenius.cocycle_check(fd) == _cocycle_bruteforce(fd)
    if not perturbations:
        assert frobenius.cocycle_check(fd)


def test_cocycle_check_of_boundary_form_matches_bruteforce():
    fd, _ = _boundary_frobenius_data()
    assert frobenius.cocycle_check(fd) and _cocycle_bruteforce(fd)
    form = fd.form
    form[0][1] += 1
    form[1][0] -= 1
    fd = with_dense_form(fd, form)
    assert not frobenius.cocycle_check(fd) and not _cocycle_bruteforce(fd)
