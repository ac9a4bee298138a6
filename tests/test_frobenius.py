"""Carriers, parabolic subalgebras, the quasi-Frobenius structure, and the
Jordanian boundary family."""

from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgrm import bd, closed_form, cyb, dunkl, frobenius
from cgrm.linalg import invert
from cgrm.tensorops import MatrixN, SparseOp, WedgeElement, wedge_to_op

from conftest import (apply_r_check, dual_functional, exp_nilpotent, identity, identity_op,
                      kron, sparse_rows, with_dense_form)
from test_linalg import oracle_rref

scalars = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def test_parabolic_dimensions():
    assert frobenius.parabolic(1, 2).dimension == 2
    assert frobenius.parabolic(3, 5).dimension == 18
    for (m, n) in ((1, 4), (2, 5), (3, 7)):
        assert frobenius.parabolic(m, n).dimension == n * n - 1 - m * (n - m)
        assert frobenius.parabolic(m, n).bracket_closed


def test_carrier_of_zero():
    assert frobenius.carrier(SparseOp(3)).dimension == 0


def test_carrier_requires_antisymmetry():
    with pytest.raises(ValueError):
        frobenius.carrier(identity_op(2))


def test_carrier_of_boundary_family():
    for n in (5, 7):
        b = dunkl.b_cg(n, 1, 1)
        car = frobenius.carrier(b)
        assert car.bracket_closed
        assert car.same_span(frobenius.parabolic(n - 2, n))
        assert car.dimension == n * n - 1 - 2 * (n - 2)


def test_degenerate_parameters_shrink_carrier():
    n = 5
    full = frobenius.carrier(dunkl.b_cg(n, 1, 1)).dimension
    assert frobenius.carrier(dunkl.b_cg(n, 0, 1)).dimension < full
    assert frobenius.carrier(dunkl.b_cg(n, 1, 0)).dimension < full


def test_r_check_structure():
    n, u, t = 5, 1, 1
    b = dunkl.b_cg(n, u, t)
    car = frobenius.carrier(b)
    fd = frobenius.r_check(b, car)
    assert fd.invertible
    assert fd.skew
    assert frobenius.cocycle_check(fd)


@pytest.mark.parametrize("n,dimension", [(5, 24), (7, 48), (9, 80)])
def test_quasitriangular_carrier_form_is_no_cocycle(n, dimension):
    """The quasitriangular cg_closed_form(2, n) has a closed carrier and an
    invertible skew form, but the form is no 2-cocycle: only a triangular
    solution carries a nondegenerate one (Stolin's criterion)."""
    r = closed_form.cg_closed_form(2, n)
    car = frobenius.carrier(r)
    assert car.bracket_closed and car.dimension == dimension
    fd = frobenius.r_check(r, car)
    assert fd.invertible and fd.skew
    assert frobenius.cocycle_check(fd) is False


def test_form_rows_follow_the_form():
    """form and r_check_inverse are dense views of form_rows, built anew on each
    access; the data is frozen, so assigning raises FrozenInstanceError and a
    changed form is a new instance with its own rows."""
    fd, _ = _boundary_frobenius(5)
    dense, inverse = fd.form, fd.r_check_inverse
    assert fd.form_rows == [{j: v for j, v in enumerate(row) if v} for row in dense]
    assert inverse == [list(col) for col in zip(*dense)]
    assert fd.form is not dense and fd.form == dense
    for name in ("form", "form_rows", "r_check_inverse"):
        with pytest.raises(FrozenInstanceError):
            setattr(fd, name, None)
    form = [list(row) for row in dense]
    form[0][1] += 1
    changed = with_dense_form(fd, form)
    assert changed.form_rows[0][1] == dense[0][1] + 1
    assert changed.form == form and fd.form == dense
    singular = frobenius.FrobeniusData(None)
    assert singular.form_rows is None and singular.form is None
    assert singular.r_check_inverse is None and not singular.invertible


def test_skew_rejects_a_diagonal_entry_or_an_asymmetric_pair():
    def skew(form):
        return with_dense_form(frobenius.FrobeniusData(None), form).skew
    h = Fraction(1, 2)
    assert skew([[0, h, 0], [-h, 0, Fraction(-3)], [0, 3, 0]])
    assert skew([])
    assert not skew(None)
    assert not skew([[0, h, 0], [-h, Fraction(1, 5), 0], [0, 0, 0]])
    assert not skew([[0, h, 0], [-h, 0, Fraction(-3)], [0, Fraction(3, 2), 0]])
    assert not skew([[0, h], [h, 0]])
    assert not skew([[0, h], [0, 0]])
    assert not skew([[0, 0, 0], [0, 0, 0], [h, 0, 0]])


def test_r_check_reconstructs_solution():
    """r = sum (F^{-1})_{ij} b_i (x) b_j over the carrier basis."""
    n, u, t = 5, 2, 3
    b = dunkl.b_cg(n, u, t)
    car = frobenius.carrier(b)
    fd = frobenius.r_check(b, car)
    finv = invert(fd.form_rows)
    cols = {}
    for i, row in enumerate(finv):
        for j, c in row.items():
            for (a, bb), x in car.basis[i].entries.items():
                for (cc, d), y in car.basis[j].entries.items():
                    col = cols.setdefault((bb, d), {})
                    key = (a, cc)
                    col[key] = col.get(key, Fraction(0)) + c * x * y
    assert SparseOp(n, cols) == b


def dense_form(r, car):
    """The contraction matrix M built densely, column i the coordinates of the
    slice at pivot i, inverted by dense Gauss-Jordan and transposed: the oracle
    for r_check, which inverts the coordinate rows (the rows of M^T) directly.
    M must be invertible: a singular M leaves fewer than k reduced rows."""
    slices = frobenius._first_leg_slices(r)
    k = car.dimension
    columns = [car.coordinates(slices.get(p, {})) for p in car._pivots]
    matrix = [[columns[i].get(j, Fraction(0)) for i in range(k)] for j in range(k)]
    eye = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    reduced, _ = oracle_rref([row + e for row, e in zip(matrix, eye)], 2 * k)
    inverse = [row[k:] for row in reduced]
    return [[inverse[j][i] for j in range(k)] for i in range(k)]


@pytest.mark.parametrize("n", [5, 7, 9])
@pytest.mark.parametrize("u,t", [(2, 3), (1, -2), (Fraction(-1, 2), 3)])
def test_r_check_form_matches_dense_oracle_on_boundary_family(n, u, t):
    b = dunkl.b_cg(n, u, t)
    car = frobenius.carrier(b)
    assert frobenius.r_check(b, car).form == dense_form(b, car)


@pytest.mark.parametrize("n", range(2, 8))
def test_r_check_form_matches_dense_oracle_on_jordanian(n):
    j = frobenius.jordanian(n)
    car = frobenius.carrier(j)
    assert frobenius.r_check(j, car).form == dense_form(j, car)


def test_r_check_table_spot_checks():
    """Entries of the contraction map and its inverse against the known tables."""
    n, u, t = 5, 1, 1
    b = dunkl.b_cg(n, u, t)
    car = frobenius.carrier(b)
    fd = frobenius.r_check(b, car)

    # rcheck(e*_{j,j+2}) = u h_j
    for j in (1, 2, 3):
        got = apply_r_check(b, {(j, j + 2): Fraction(1)})
        assert got == dunkl.h_matrix(j, n)

    # rcheck(h*_{n-1}) = -t E^- - 2 t u E^+ in the off-diagonal + h basis
    basis_list = []
    for j in range(1, n + 1):
        for l in range(1, n + 1):
            if j != l and (j <= n - 2 or l > n - 2):
                basis_list.append(MatrixN.unit(n, j, l))
    basis_list += [dunkl.h_matrix(j, n) for j in range(1, n)]
    hdual = dual_functional(car, basis_list, len(basis_list) - 1)
    got = apply_r_check(b, hdual)
    want = (Fraction(-t) * dunkl.e2_matrix(n)
            + Fraction(-2 * t * u) * dunkl.eplus_matrix(n))
    assert got == want

    # rcheck^{-1}(h_j) = u^{-1} e*_{j,j+2} for j != n-1: compare as functionals on
    # the carrier by evaluating both sides on every basis element
    inverse = fd.r_check_inverse
    for j in (1, 2, 3):
        coords = car.coordinates(dunkl.h_matrix(j, n).entries)
        image = [sum((inverse[s][i] * c for i, c in coords.items()),
                     Fraction(0)) for s in range(car.dimension)]
        for k, mat in enumerate(car.basis):
            lhs = image[k]
            rhs = Fraction(1, u) * mat.entries.get((j, j + 2), Fraction(0))
            assert lhs == rhs


def _table_basis(n):
    offdiag = [(j, l) for j in range(1, n + 1) for l in range(1, n + 1)
               if j != l and (j <= n - 2 or l > n - 2)]
    mats = [MatrixN.unit(n, j, l) for (j, l) in offdiag]
    mats += [dunkl.h_matrix(j, n) for j in range(1, n)]
    return offdiag, mats


def _descending(n, l, j):
    out = MatrixN(n)
    a, b = l - 2, j
    while a >= 1 and b >= 1:
        out = out + MatrixN.unit(n, a, b)
        a -= 2
        b -= 2
    return out


def _ascending(n, l, j):
    out = MatrixN(n)
    a, b = l, j + 2
    while a <= n and b <= n:
        out = out + MatrixN.unit(n, a, b)
        a += 2
        b += 2
    return out


@pytest.mark.parametrize("n,u,t", [(5, Fraction(2), Fraction(3)),
                                   (7, Fraction(1), Fraction(-2))])
def test_contraction_table_all_cases(n, u, t):
    """Every piecewise case of the contraction map on the dual of the
    off-diagonal + partial-diagonal basis of the parabolic."""
    b = dunkl.b_cg(n, u, t)
    car = frobenius.carrier(b)
    offdiag, basis_list = _table_basis(n)
    eminus, eplus = dunkl.e2_matrix(n), dunkl.eplus_matrix(n)
    hm1 = dunkl.h_matrix(n - 1, n)
    for (j, l) in offdiag:
        got = apply_r_check(b, {(j, l): Fraction(1)})
        jeven = j % 2 == 0
        if l > j + 2 or (jeven and l == j + 1):
            want = u * _descending(n, l, j)
        elif l < j - 1 or (jeven and l == j - 1):
            want = Fraction(-1) * u * _ascending(n, l, j)
        elif (not jeven) and l == j + 1:
            want = (Fraction(-1) * u * _ascending(n, l, j)
                    + 2 * t * u * hm1 + t * t * u * eminus)
        elif (not jeven) and l == j - 1:
            want = (Fraction(-1) * u * _ascending(n, l, j)
                    + t * hm1 - t * t * u * eplus)
        else:
            assert l == j + 2
            want = u * dunkl.h_matrix(j, n)
        assert got == want, (j, l)
    for j in range(1, n):
        eta = dual_functional(car, basis_list, len(offdiag) + j - 1)
        got = apply_r_check(b, eta)
        if j != n - 1:
            want = Fraction(-1) * u * MatrixN.unit(n, j, j + 2)
        else:
            want = Fraction(-1) * t * eminus - 2 * t * u * eplus
        assert got == want, j


@pytest.mark.parametrize("n,u,t", [(5, Fraction(2), Fraction(3))])
def test_inverse_contraction_table_all_cases(n, u, t):
    """Every piecewise case of the inverse contraction, as functionals on the
    carrier; dual terms naming out-of-range positions drop."""
    b = dunkl.b_cg(n, u, t)
    car = frobenius.carrier(b)
    fd = frobenius.r_check(b, car)
    k = car.dimension
    offdiag, basis_list = _table_basis(n)
    duals = {('e', j, l): {(j, l): Fraction(1)} for (j, l) in offdiag}
    for j in range(1, n):
        duals[('h', j)] = dual_functional(car, basis_list,
                                                    len(offdiag) + j - 1)

    inverse = fd.r_check_inverse

    def inverse_values(x):
        coords = car.coordinates(x.entries)
        return [sum((inverse[s][i] * c for i, c in coords.items()),
                    Fraction(0)) for s in range(k)]

    def combo_values(terms):
        out = [Fraction(0)] * k
        for coeff, key in terms:
            eta = duals.get(key)
            if eta is None:
                continue
            for s, mat in enumerate(car.basis):
                out[s] += coeff * frobenius.eval_functional(eta, mat)
        return out

    for (j, l) in offdiag:
        got = inverse_values(MatrixN.unit(n, j, l))
        if (j, l) == (n, n - 1):
            terms = [(Fraction(-2), ('e', n - 1, n)), (Fraction(-1) / t, ('h', n - 1)),
                     (Fraction(-1) / u, ('e', n - 3, n))]
        elif l == j + 2:
            terms = [(Fraction(-1) / u, ('h', j))]
        elif (j, l) == (1, 2):
            terms = [(Fraction(1) / u, ('e', 2, 3))]
        elif (j, l) == (n - 1, n):
            terms = [(Fraction(2), ('e', n, n - 1)), (-t, ('h', n - 1)),
                     (Fraction(-1) / u, ('e', n - 2, n - 1))]
        else:
            terms = []
            if l - 2 >= 1:
                terms.append((Fraction(-1) / u, ('e', l - 2, j)))
            if j + 2 <= n:
                terms.append((Fraction(1) / u, ('e', l, j + 2)))
        assert got == combo_values(terms), (j, l)
    for j in range(1, n):
        got = inverse_values(dunkl.h_matrix(j, n))
        if j != n - 1:
            want = combo_values([(Fraction(1) / u, ('e', j, j + 2))])
        else:
            want = combo_values([(Fraction(1) / t, ('e', n, n - 1)),
                                 (t, ('e', n - 1, n))])
        assert got == want, j


def test_frobenius_functional():
    for (n, u, t) in ((5, 1, 1), (5, 2, 3), (7, 1, -2)):
        b = dunkl.b_cg(n, u, t)
        car = frobenius.carrier(b)
        fd = frobenius.r_check(b, car)
        eta = frobenius.cg_boundary_functional(n, u, t)
        assert frobenius.frobenius_functional_check(fd, eta)
        assert not frobenius.frobenius_functional_check(fd, {})


def test_frobenius_functional_perturbation_fails():
    n, u, t = 5, 1, 1
    b = dunkl.b_cg(n, u, t)
    fd = frobenius.r_check(b, frobenius.carrier(b))
    eta = frobenius.cg_boundary_functional(n, u, t)
    eta[(1, 3)] += Fraction(1, 7)
    assert not frobenius.frobenius_functional_check(fd, eta)


def test_displayed_functional_regression():
    """The commonly displayed functional does not reproduce the inverse
    contraction: it writes -t for -1/t and omits the t e*_{n-1,n} term."""
    n, u, t = 5, 2, 3
    b = dunkl.b_cg(n, u, t)
    fd = frobenius.r_check(b, frobenius.carrier(b))
    displayed = frobenius.cg_boundary_functional_displayed(n, u, t)
    assert not frobenius.frobenius_functional_check(fd, displayed)


def dense_functional_check(fd, eta):
    """eta([x_i, x_j]) against the form over every basis pair i <= j, then the
    form's inverse for nondegeneracy: the oracle for the check on G's nonzeros."""
    f = fd.subalgebra
    if not fd.invertible or not f.bracket_closed:
        return False
    values = [frobenius.eval_functional(eta, x) for x in f.basis]
    form = fd.form
    for i in range(len(values)):
        if form[i][i] != 0:
            return False
        for j in range(i + 1, len(values)):
            value = sum((c * values[s] for s, c in f._brackets.get((i, j), {}).items()),
                        Fraction(0))
            if value != form[i][j] or -value != form[j][i]:
                return False
    return invert(sparse_rows(form)) is not None


def _boundary_frobenius(n, u=Fraction(2), t=Fraction(3)):
    b = dunkl.b_cg(n, u, t)
    return frobenius.r_check(b, frobenius.carrier(b)), frobenius.cg_boundary_functional(n, u, t)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_functional_check_matches_dense_oracle(n):
    u, t = Fraction(2), Fraction(3)
    fd, eta = _boundary_frobenius(n, u, t)
    doubled = {pos: 2 * v for pos, v in eta.items()}
    displayed = frobenius.cg_boundary_functional_displayed(n, u, t)
    for functional, holds in ((eta, True), (doubled, False), (displayed, False)):
        assert frobenius.frobenius_functional_check(fd, functional) is holds
        assert dense_functional_check(fd, functional) is holds


def _mutations(form):
    """Single-entry changes of a skew form, each paired with its name."""
    k = len(form)
    zero = next((i, j) for i in range(k) for j in range(k) if i != j and not form[i][j])
    i, j = next((i, j) for i in range(k) for j in range(i + 1, k) if form[i][j])
    return [("zero set off the support", zero, Fraction(1)),
            ("nonzero entry changed", (i, j), 2 * form[i][j]),
            ("nonzero entry set to zero", (i, j), Fraction(0)),
            ("diagonal entry", (i, i), Fraction(1)),
            ("transposed entry only", (j, i), -2 * form[j][i])]


@pytest.mark.parametrize("n", [5, 7, 9])
def test_functional_check_rejects_single_entry_mutations(n):
    fd, eta = _boundary_frobenius(n)
    dense = fd.form
    for name, (i, j), value in _mutations(dense):
        form = [list(row) for row in dense]
        form[i][j] = value
        mutated = with_dense_form(fd, form)
        assert not frobenius.frobenius_functional_check(mutated, eta), name
        assert not dense_functional_check(mutated, eta), name


def test_functional_check_fails_on_rank_alone(monkeypatch):
    """eta = 0 against a zero form: every entry matches G, and only the rank fails."""
    fd, _ = _boundary_frobenius(5)
    k = len(fd.form)
    fd = with_dense_form(fd, [[Fraction(0)] * k for _ in range(k)])
    assert not frobenius.frobenius_functional_check(fd, {})
    assert not dense_functional_check(fd, {})
    monkeypatch.setattr(frobenius, "rank", len)
    assert frobenius.frobenius_functional_check(fd, {})


def test_boundary_chain_at_n_21():
    """Carrier, parabolic, invertible skew form, cocycle and functional at n = 21."""
    n, u, t = 21, Fraction(-1, 2), Fraction(3)
    b = dunkl.b_cg(n, u, t)
    car = frobenius.carrier(b)
    assert car.bracket_closed and car.dimension == 402
    assert car.same_span(frobenius.parabolic(n - 2, n))
    fd = frobenius.r_check(b, car)
    assert fd.invertible and fd.skew
    assert frobenius.cocycle_check(fd)
    assert frobenius.frobenius_functional_check(fd, frobenius.cg_boundary_functional(n, u, t))


def test_nilpotent_exp_action():
    n = 4
    r = closed_form.cg_closed_form(1, n)
    x = frobenius.jordanian_x(n)
    assert frobenius.nilpotent_exp_action(x, 0, r) == r
    with pytest.raises(ValueError):
        frobenius.nilpotent_exp_action(identity(n), 1, r)


def conjugated_by_kron(x, s, r):
    """kron(g, g) @ r @ kron(g^-1, g^-1) with g = exp(sX): the oracle for
    nilpotent_exp_action, which sums the adjoint series of X (x) 1 + 1 (x) X."""
    g, g_inv = exp_nilpotent(x, s), exp_nilpotent(x, -Fraction(s))
    return kron(g, g) @ r @ kron(g_inv, g_inv)


@st.composite
def exp_action_inputs(draw):
    """A strictly upper-triangular X, a rational s and a two-leg r at n = 1..5."""
    n = draw(st.integers(min_value=1, max_value=5))
    upper = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    x = MatrixN(n, draw(st.dictionaries(st.sampled_from(upper), scalars)) if upper else {})
    idx = st.tuples(st.integers(1, n), st.integers(1, n))
    cols = draw(st.dictionaries(idx, st.dictionaries(idx, scalars, max_size=4), max_size=6))
    return x, draw(scalars), SparseOp(n, cols)


@settings(max_examples=80, deadline=None)
@given(exp_action_inputs())
def test_exp_action_matches_kron_conjugation(inputs):
    x, s, r = inputs
    assert frobenius.nilpotent_exp_action(x, s, r) == conjugated_by_kron(x, s, r)


def test_exp_action_requires_nilpotent():
    """A diagonal X is not nilpotent, and its adjoint series would never end:
    the guard raises before the first term."""
    r = wedge_to_op(WedgeElement(2, {((1, 2), (1, 1)): 1}))  # weight -1 under diag(1, 2)
    with pytest.raises(ValueError, match="not nilpotent"):
        frobenius.nilpotent_exp_action(MatrixN(2, {(1, 1): 1, (2, 2): 2}), 1, r)


def test_exp_action_rejects_three_legs():
    r = closed_form.cg_closed_form(1, 3)
    with pytest.raises(ValueError, match="leg count mismatch"):
        frobenius.nilpotent_exp_action(frobenius.jordanian_x(3), 1, cyb.embed(r, 12))


def test_exp_action_orbit_identity_at_the_cli_cap():
    """The orbit identity at n = 31, the largest odd n the CLI accepts."""
    n, u, t = 31, Fraction(2), Fraction(-1, 3)
    r = closed_form.cg_closed_form(2, n)
    moved = frobenius.nilpotent_exp_action(
        dunkl.e2_matrix(n), t, frobenius.nilpotent_exp_action(dunkl.e1_matrix(n), u, r))
    assert moved == r + dunkl.b_cg(n, u, t)


def test_exp_action_is_linear_in_t():
    """exp(tX) moves the (1, n) solution along a straight line."""
    for n in (3, 5):
        r = wedge_to_op(bd.bd_r_matrix(1, n))
        x = frobenius.jordanian_x(n)
        j = frobenius.jordanian(n)
        for t in (Fraction(1), Fraction(-1, 2), Fraction(3)):
            assert frobenius.nilpotent_exp_action(x, t, r) == r + t * j


def test_exp_action_orbit_identity_boundary_family():
    """exp(t E2) exp(u E1) moves the solution by exactly b_cg(u, t); the module
    relations force this pairing of the parameters with the generators."""
    for n in (5, 7):
        r = closed_form.cg_closed_form(2, n)
        e1m, e2m = dunkl.e1_matrix(n), dunkl.e2_matrix(n)
        for (u, t) in ((1, 1), (2, 3), (1, -2)):
            moved = frobenius.nilpotent_exp_action(
                e2m, t, frobenius.nilpotent_exp_action(e1m, u, r))
            assert moved == r + dunkl.b_cg(n, u, t)


def test_jordanian():
    for n in range(2, 7):
        j = frobenius.jordanian(n)
        assert cyb.double_bracket(j).is_zero()
        car = frobenius.carrier(j)
        assert car.same_span(frobenius.parabolic(1, n))
        assert car.dimension == n * n - 1 - (n - 1)


def test_jordanian_sl2_is_borel():
    car = frobenius.carrier(frobenius.jordanian(2))
    assert car.dimension == 2
    assert car.same_span(frobenius.parabolic(1, 2))


def test_jordanian_quasi_frobenius_structure():
    """Nondegenerate triangular solutions induce an invertible skew cocycle on
    their carrier; the Jordanian family realizes this on the first parabolic."""
    for n in (3, 5):
        j = frobenius.jordanian(n)
        car = frobenius.carrier(j)
        fd = frobenius.r_check(j, car)
        assert fd.invertible
        assert fd.skew
        assert frobenius.cocycle_check(fd)
