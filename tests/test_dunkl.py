"""Dunkl operators, the deformed-algebra elements, and the operator realizations."""

import itertools
import random
from fractions import Fraction

import pytest

from cgrm import bd, closed_form, cyb, dunkl
from cgrm.polyops import (ExponentSign, check_poly_cyb, op_equal_on,
                          polynomial_monomials, window_matrix)
from cgrm.tensorops import MatrixN, kron_sum2, wedge_to_op

from conftest import op_to_wedge, random_rational

PARAMS_M1 = dunkl.CherednikParams(kappa=Fraction(1, 2), c0=Fraction(3, 4), m=1)
PARAMS_M2 = dunkl.CherednikParams(kappa=Fraction(2, 3), c0=Fraction(5, 7),
                                  c1=Fraction(-3, 2), m=2)
ONE = Fraction(1)


def test_dunkl_on_x1():
    y1 = dunkl.dunkl_y(PARAMS_M1, 1)
    got = y1.apply({(1, 0): ONE})
    # kappa d/dx kills to the constant, the kernel contributes -c0
    assert got == {(0, 0): PARAMS_M1.kappa - PARAMS_M1.c0}


def test_dunkl_kills_constants():
    for params in (PARAMS_M1, PARAMS_M2):
        for i in (1, 2):
            assert dunkl.dunkl_y(params, i).apply({(0, 0): ONE}) == {}


@pytest.mark.parametrize("params", [PARAMS_M1, PARAMS_M2])
@pytest.mark.parametrize("i", [1, 2])
def test_dunkl_matches_monomial_formula(params, i):
    y = dunkl.dunkl_y(params, i)
    for j in range(0, 9):
        for l in range(0, 9):
            got = y.apply({(j, l): ONE})
            assert got == dunkl.dunkl_monomial_formula(params, i, j, l), (i, j, l)


def test_monomial_formula_drops_cancelled_terms():
    """The displayed formula's terms can cancel: at m = 1, kappa = c0 = 1, y_1
    sends x to (kappa - c0) 1 = 0.  On a grid of parameters and monomials the
    formula stores no zero and equals dunkl_y's image."""
    assert dunkl.dunkl_monomial_formula(dunkl.CherednikParams(1, 1, m=1), 1, 1, 0) == {}
    for kappa, c0, c1, m in itertools.product((0, 1, 2), (0, 1, 2), (0, 1), (1, 2)):
        params = dunkl.CherednikParams(kappa, c0, c1, m=m)
        for i, j, l in itertools.product((1, 2), range(4), range(4)):
            image = dunkl.dunkl_monomial_formula(params, i, j, l)
            assert all(image.values()), (params, i, j, l)
            assert image == dunkl.dunkl_y(params, i).apply({(j, l): ONE})


def test_verify_relations():
    rng = random.Random(5)
    for m in (1, 2):
        params = dunkl.CherednikParams(kappa=random_rational(rng), c0=random_rational(rng),
                                       c1=random_rational(rng), m=m)
        assert dunkl.verify_relations(params, degree_bound=6)


def test_group_involutions_m2():
    from cgrm.polyops import Const, Sigma, Xi
    monos = polynomial_monomials(2, 5)
    assert op_equal_on(Sigma() * Sigma(), Const(1), monos)
    assert op_equal_on(Xi(0, -1) * Xi(0, -1), Const(1), monos)
    assert op_equal_on(Xi(1, -1) * Xi(1, -1), Const(1), monos)


def test_divided_difference_examples():
    delta = dunkl.divided_difference()
    assert delta.apply({(1, 0): ONE}) == {(1, 0): ONE, (0, 1): ONE}
    assert delta.apply({(1, 1): ONE}) == {}
    # (x + y)^2
    assert delta.apply({(2, 0): ONE}) == {(2, 0): ONE, (1, 1): Fraction(2), (0, 2): ONE}


def test_r_via_dunkl_m1():
    for n in range(2, 13):
        assert dunkl.r_via_dunkl_m1(n) == closed_form.cg_closed_form(1, n)


def test_r_m1_equals_display_combination():
    """-(1/n)(x1 y1 - x2 y2) collapses to -(1/n) Euler difference + Delta/2."""
    from cgrm.polyops import Mono, Partial
    n = 6
    euler = Mono(1, 0) * Partial(0) - Mono(0, 1) * Partial(1)
    display = Fraction(-1, n) * euler + Fraction(1, 2) * dunkl.divided_difference()
    assert window_matrix(display, n) == dunkl.r_via_dunkl_m1(n)


def test_element_e_wedge_constants():
    n = 6
    op = window_matrix(dunkl.element_e(PARAMS_M2), n)
    assert op_to_wedge(op) == dunkl.element_e_wedge(PARAMS_M2, n)


def test_element_e_traceless_only_at_special_params():
    n = 5
    special = dunkl.CherednikParams(kappa=1, c0=Fraction(n, 4), c1=0, m=2)
    op = window_matrix(dunkl.element_e(special), n)
    first = {}
    for (i, j), (k, l), v in op.entries():
        first.setdefault((i, k), {}).setdefault((j, l), Fraction(0))
        first[(i, k)][(j, l)] += v
    for entries in first.values():
        assert sum(v for (i, j), v in entries.items() if i == j) == 0


def test_element_e_cyb_small():
    params = dunkl.CherednikParams(kappa=Fraction(1, 2), c0=Fraction(2, 3),
                                   c1=Fraction(1, 5), m=2)
    monos = polynomial_monomials(3, 6)
    assert check_poly_cyb(dunkl.element_e(params), 4 * params.c0 ** 2, monos)


def test_r_via_dunkl_m2_and_parameter_independence():
    rng = random.Random(9)
    for n in (3, 5):
        target = closed_form.cg_closed_form(2, n)
        seen = []
        for _ in range(3):
            params = dunkl.CherednikParams(kappa=random_rational(rng),
                                           c0=random_rational(rng),
                                           c1=random_rational(rng), m=2)
            m = dunkl.r_via_dunkl_m2(n, params)
            assert m == target
            seen.append(m)
        assert seen[0] == seen[1] == seen[2]


def test_r_via_dunkl_m2_rejects_bad_input():
    for n in (4, 1, -1):
        with pytest.raises(ValueError, match="n must be odd and >= 3"):
            dunkl.r_via_dunkl_m2(n, PARAMS_M2)
    for build in (dunkl.e2_matrix, dunkl.eplus_matrix, dunkl.elements_v,
                  dunkl.module_structure_check):
        for n in (1, 4):
            with pytest.raises(ValueError, match="n must be odd and >= 3"):
                build(n)
    with pytest.raises(ValueError):
        dunkl.dunkl_m2_combo(5, dunkl.CherednikParams(kappa=1, c0=0, m=2))


def test_g3_term_projects_on_even_window_pairs():
    """The skew-monomial term only moves window monomials with both exponents odd,
    matching the parity factor of the m = 2 display."""
    from cgrm.polyops import Mono, Xi, Const
    g3 = Fraction(1, 4) * ((Const(1) - Xi(0, -1)) * (Const(1) - Xi(1, -1)))
    term = (Mono(-1, 1) - Mono(1, -1)) * g3
    for a in range(0, 5):
        for b in range(0, 5):
            img = term.apply({(a, b): ONE})
            assert bool(img) == (a % 2 == 1 and b % 2 == 1)


def test_lemma_cyb4_small_bound():
    assert dunkl.lemma_cyb4(Fraction(1), Fraction(2, 5), bound=2)
    assert dunkl.lemma_cyb4(Fraction(0), Fraction(0), bound=2)
    assert dunkl.lemma_cyb4(Fraction(-3, 2), Fraction(1, 7), bound=2)


def test_lemma_expression_matches_scaled_solution():
    """(a1, a2) = (4, -2/n) reproduces four times the solution on the window."""
    n = 5
    lhs = window_matrix(dunkl.lemma_expression(Fraction(4), Fraction(-2, n)), n)
    assert lhs == Fraction(4) * closed_form.cg_closed_form(2, n)


def test_r_m2_poly_op_display():
    for n in (5, 7):
        assert window_matrix(dunkl.r_m2_poly_op(n), n) == closed_form.cg_closed_form(2, n)


def test_alpha_beta_gamma_operator_displays():
    """The three parts of the mirrored root-data construction act on the window
    through the displayed diagonal/reflection operators."""
    for n in (5, 7):
        alpha = wedge_to_op(bd.alpha_part(n - 2, n))
        beta = wedge_to_op(bd.beta_part(n - 2, n))
        gamma = wedge_to_op(bd.gamma_part(n))
        assert window_matrix(dunkl.alpha_poly_op(n), n) == alpha
        assert window_matrix(dunkl.beta_poly_op(n), n) == beta
        assert window_matrix(dunkl.gamma_poly_op(), n) == gamma


def test_m_operator():
    m = ExponentSign()
    assert m.apply({(1, 1): ONE}) == {}
    assert m.apply({(2, 1): ONE}) == {(2, 1): ONE}


def test_e1_e2_window_matrices():
    e1op, e2op = dunkl.elements_e1_e2()
    for n in (5, 7):
        assert window_matrix(e1op, n) == kron_sum2(dunkl.e1_matrix(n))
        assert window_matrix(e2op, n) == kron_sum2(dunkl.e2_matrix(n))


def test_e1_e2_matrices_n5():
    assert dunkl.e1_matrix(5) == MatrixN(5, {(1, 3): 1, (2, 4): 1, (3, 5): 2})
    assert dunkl.e2_matrix(5) == MatrixN(5, {(5, 4): 1, (3, 2): 1})


def test_heisenberg():
    for n in (5, 7):
        e1, e2 = dunkl.e1_matrix(n), dunkl.e2_matrix(n)
        com = e1.bracket(e2)
        assert not com.is_zero()
        assert com.bracket(e1).is_zero()
        assert com.bracket(e2).is_zero()


def test_elements_v_triple_agreement():
    """The operator window, the displayed monomial action and the displayed
    wedge form give the same v1..v4 at every odd n up to the CLI cap."""
    for n in range(3, 32, 2):
        vs = dunkl.elements_v(n)
        for k in range(1, 5):
            assert (vs[k - 1] == dunkl.v_matrix_from_monomials(k, n)
                    == wedge_to_op(dunkl.v_wedge(k, n))), (k, n)


def test_v4_wedge_is_4_eplus_eminus():
    n = 5
    from cgrm.tensorops import wedge_of_matrices
    expected = Fraction(4) * wedge_of_matrices(dunkl.eplus_matrix(n), dunkl.e2_matrix(n))
    assert dunkl.v_wedge(4, n) == expected
    # and the monomial action matches it on the window
    assert wedge_to_op(expected) == dunkl.v_matrix_from_monomials(4, n)


def operator_degree(op, samples):
    """The common total-degree shift of op on the sample monomials, or None if
    the images vanish; raises ValueError if the shifts are mixed."""
    shifts = set()
    for exps in samples:
        image = op.apply({exps: ONE})
        base = sum(exps)
        for key in image:
            shifts.add(sum(key) - base)
    if not shifts:
        return None
    if len(shifts) > 1:
        raise ValueError("operator is not homogeneous on the samples: %r" % sorted(shifts))
    return shifts.pop()


def test_v_degrees():
    samples = [(a, b) for a in range(2, 6) for b in range(2, 6)]
    degs = {1: -2, 2: 1, 3: -1, 4: 0}
    for k, want in degs.items():
        assert operator_degree(dunkl.v_operator(k, 5), samples) == want
    assert operator_degree(dunkl.r_m2_poly_op(5), samples) == 0
    e1op, e2op = dunkl.elements_e1_e2()
    assert operator_degree(e1op, samples) == -2
    assert operator_degree(e2op, samples) == 1
    assert operator_degree(dunkl.element_e(PARAMS_M2), samples) == 0


def test_module_structure():
    assert dunkl.module_structure_check(5)
    assert dunkl.module_structure_check(7)


@pytest.mark.parametrize("name,pos", [("e1_matrix", (1, 3)), ("e2_matrix", (3, 2))])
def test_module_structure_fails_on_a_doubled_generator_entry(monkeypatch, name, pos):
    """One entry of a Heisenberg generator doubled breaks the adjoint relations.
    v_wedge is pinned to its true forms, since v2 and v4 are built from e2: so
    the wedge comparison passes, and only the relations can fail."""
    n = 5
    wedges = {k: dunkl.v_wedge(k, n) for k in range(1, 5)}
    monkeypatch.setattr(dunkl, "v_wedge", lambda k, n: wedges[k])
    assert dunkl.module_structure_check(n)
    make = getattr(dunkl, name)

    def doubled(n):
        x = make(n)
        return MatrixN(n, {**x.entries, pos: 2 * x.entries[pos]})

    monkeypatch.setattr(dunkl, name, doubled)
    assert not dunkl.module_structure_check(n)


def test_module_rank_five():
    from cgrm.linalg import rank
    n = 5
    r = closed_form.cg_closed_form(2, n)
    vs = dunkl.elements_v(n)
    rows = [{(inp, out): v for out, inp, v in op.entries()} for op in (r,) + vs]
    assert rank(rows) == 5


def test_b_cg_zero_and_triangularity():
    assert dunkl.b_cg(5, 0, 0).is_zero()
    rng = random.Random(13)
    for _ in range(3):
        b = dunkl.b_cg(5, random_rational(rng), random_rational(rng))
        assert cyb.double_bracket(b).is_zero()


def test_random_v_combinations_triangular():
    rng = random.Random(17)
    vs = dunkl.elements_v(5)
    for _ in range(4):
        combo = None
        for v in vs:
            term = random_rational(rng) * v
            combo = term if combo is None else combo + term
        assert cyb.double_bracket(combo).is_zero()
