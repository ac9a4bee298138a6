"""Laurent arithmetic, division kernels, operator atoms, and window restriction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgrm.polyops import (Const, DivDiff, DivSum, ExactDivisionError,
                          ExponentSign, LaurentPoly, Mono, OpSum, Partial,
                          Sigma, Xi, WindowStabilityError, divide_linear,
                          laurent_window, polynomial_monomials, window_matrix)

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
exps = st.integers(min_value=-4, max_value=4)


def polys(nvars=2, max_terms=4):
    key = st.tuples(*([exps] * nvars))
    return st.dictionaries(key, coeffs, max_size=max_terms).map(
        lambda d: LaurentPoly(nvars, d))


def mono(a, b, c=1):
    return LaurentPoly.monomial((a, b), c)


def test_variable_count_mismatch_raises():
    a, b = LaurentPoly.monomial((1, 0)), LaurentPoly.monomial((1, 0, 2))
    for x, y in ((a, b), (b, a)):
        for combine in (lambda: x + y, lambda: x - y, lambda: x * y):
            with pytest.raises(ValueError, match="variable count mismatch"):
                combine()


def test_poly_arithmetic():
    p = mono(1, 0) + mono(0, 1)
    q = mono(1, 0) - mono(0, 1)
    assert p * q == mono(2, 0) - mono(0, 2)
    assert (p - p).is_zero()
    assert 2 * mono(1, 1, Fraction(1, 2)) == mono(1, 1)


@settings(max_examples=50)
@given(polys(), polys())
def test_division_inverts_multiplication(p, q):
    diff = mono(1, 0) - mono(0, 1)
    total = mono(1, 0) + mono(0, 1)
    assert LaurentPoly(2, divide_linear((p * diff).terms, -1)) == p
    assert LaurentPoly(2, divide_linear((q * total).terms, 1)) == q


def test_division_remainder_raises():
    with pytest.raises(ExactDivisionError):
        divide_linear(mono(1, 0).terms, -1)
    with pytest.raises(ExactDivisionError):
        divide_linear(mono(0, 3).terms, 1)


def test_divdiff_on_symmetric_difference():
    one_minus_sigma = Const(1) - Sigma()
    f = mono(3, 1)
    num = one_minus_sigma.apply(f)
    quotient = DivDiff().apply(num)
    # (x^3 y - x y^3)/(x - y) = x^2 y + x y^2
    assert quotient == mono(2, 1) + mono(1, 2)


def test_atoms():
    f = mono(2, 3)
    assert Mono(1, -1).apply(f) == mono(3, 2)
    assert Partial(0).apply(f) == mono(1, 3, 2)
    assert Partial(1).apply(mono(2, 0)).is_zero()
    assert Sigma().apply(f) == mono(3, 2)
    assert Xi(0, -1).apply(f) == mono(2, 3)
    assert Xi(0, -1).apply(mono(1, 2)) == mono(1, 2, -1)
    assert Xi(1, 1).apply(f) == f
    assert ExponentSign().apply(mono(1, 1)).is_zero()
    assert ExponentSign().apply(mono(2, 1)) == mono(2, 1)
    assert ExponentSign().apply(mono(0, 1)) == mono(0, 1, -1)
    assert DivSum().apply(mono(1, 0) + mono(0, 1)) == LaurentPoly.one()


def test_operator_algebra():
    f = mono(1, 0)
    op = 2 * Mono(1, 0) - Mono(0, 1) * Sigma()
    # sigma sends x to y, then multiply by y: y^2 ; first term 2x^2
    assert op.apply(f) == mono(2, 0, 2) - mono(0, 2)


atoms = st.one_of(
    st.builds(Mono, exps, exps),
    st.builds(Partial, st.sampled_from([0, 1])),
    st.just(Sigma()),
    st.builds(Xi, st.sampled_from([0, 1]), st.sampled_from([1, -1])),
    st.just(ExponentSign()),
)


@settings(max_examples=60, deadline=None)
@given(coeffs, coeffs, coeffs, atoms, atoms, atoms,
       st.lists(st.tuples(exps, exps), min_size=1, max_size=4))
def test_combination_node_is_linear(a, b, c, x, y, z, samples):
    """a X + b (Y - c Z) acts as the same combination of the atoms' images."""
    combo = a * x + b * (y - c * z)
    assert all(isinstance(op, (Mono, Partial, Sigma, Xi, ExponentSign))
               for _, op in combo.summands)
    for exps_ in samples:
        f = LaurentPoly.monomial(exps_)
        want = a * x.apply(f) + b * (y.apply(f) - c * z.apply(f))
        assert combo.apply(f) == want


def test_combination_node_flattens_and_drops_zeros():
    x, y = Mono(1, 0), Sigma()
    combo = Fraction(2, 3) * (x - 3 * y) + Fraction(1, 3) * (-x)
    assert combo.summands == [(Fraction(2, 3), x), (Fraction(-2), y), (Fraction(-1, 3), x)]
    # a zero term is dropped, so the division is never tried on x
    assert (x + 0 * DivDiff()).summands == [(1, x)]
    assert (x + 0 * DivDiff()).apply(mono(1, 0)) == mono(2, 0)
    assert isinstance(-x, OpSum) and (-x).apply(mono(1, 0)) == mono(2, 0, -1)


def test_apply_rejects_other_variable_counts():
    for exps in ((1, 2, 3), (1,)):
        with pytest.raises(ValueError, match="two-variable"):
            Const(1).apply(LaurentPoly.monomial(exps))


@pytest.mark.parametrize("n", [3, 5])
def test_lift_matches_window_cyb(n):
    """The three-leg lift agrees with CYB_lambda of the window matrix, which
    embeds the operator on tensor legs by an independent path."""
    from cgrm.cyb import cyb_lambda
    from cgrm.dunkl import alpha_poly_op
    from cgrm.polyops import poly_cyb_residual
    lam = Fraction(1, 3)
    op = alpha_poly_op(n)
    window = cyb_lambda(window_matrix(op, n), lam)
    nonzero = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                residual = poly_cyb_residual(op, lam, (a, b, c)).terms
                expected = {tuple(e - 1 for e in k): v
                            for k, v in window.column(a + 1, b + 1, c + 1).items()}
                assert residual == expected
                nonzero += bool(residual)
    assert nonzero > 0


def test_window_matrix_and_stability():
    n = 3
    euler = Mono(1, 0) * Partial(0)
    m = window_matrix(euler, n)
    for j in range(1, n + 1):
        for l in range(1, n + 1):
            expected = {(j, l): Fraction(j - 1)} if j > 1 else {}
            assert m.column(j, l) == expected
    with pytest.raises(WindowStabilityError):
        window_matrix(Mono(1, 0), n)
    assert issubclass(WindowStabilityError, ValueError)


def test_monomial_enumerators():
    assert len(polynomial_monomials(2, 3)) == 10
    assert len(laurent_window(2, 1)) == 9
    assert all(len(e) == 3 for e in laurent_window(3, 1))


def test_poly_cyb_detects_non_solutions():
    """The three-leg checker is not vacuous: the bare divided difference fails."""
    from cgrm.dunkl import divided_difference, lemma_expression
    from cgrm.polyops import check_poly_cyb, poly_cyb_residual
    delta = divided_difference()
    assert not poly_cyb_residual(delta, 4, (1, 0, 0)).is_zero()
    assert not check_poly_cyb(delta, 4, laurent_window(3, 1))
    assert poly_cyb_residual(lemma_expression(1, 0), 4, (1, 0, 0)).is_zero()
