"""Triple data, the root partial order, and the alpha/beta/gamma construction."""

from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgrm import bd, closed_form, dunkl, wheels
from cgrm.acceptance import coprime_pairs
from cgrm.closed_form import phi_twist
from cgrm.linalg import solve_affine
from cgrm.tensorops import MatrixN, WedgeElement, wedge_of_matrices, wedge_to_op


def test_cg_triple_small():
    t = bd.cg_triple(1, 3)
    assert t.s0 == {1} and t.s1 == {2} and t.zeta == {1: 2}


def test_cg_triple_large():
    t = bd.cg_triple(12, 31)
    assert t.s0 == set(range(1, 31)) - {19}
    assert t.s1 == set(range(1, 31)) - {12}
    for s in t.s0:
        assert t.zeta[s] == (s + 12) % 31


def test_cg_triple_rejects_non_coprime():
    with pytest.raises(ValueError):
        bd.cg_triple(2, 4)


@pytest.mark.parametrize("i, j", [(2, 1), (0, 1), (3, 3)])
def test_pos_root_rejects_non_positive_pairs(i, j):
    with pytest.raises(ValueError, match=r"^not a positive root: \(%d, %d\)$" % (i, j)):
        bd.PosRoot(i, j)


def test_pos_root_is_an_immutable_pair():
    r = bd.PosRoot(3, 5)
    assert (r.i, r.j) == tuple(r) == (3, 5)
    assert list(r.simples()) == [3, 4]
    assert repr(r) == "PosRoot(i=3, j=5)"
    assert bd.PosRoot(j=5, i=3) == r and hash(r) == hash((3, 5))
    with pytest.raises(AttributeError):
        r.i = 1


def test_pos_root_order_is_the_pair_order():
    roots = bd.all_pos_roots(7)[::-1]
    assert [(r.i, r.j) for r in sorted(roots)] == sorted((r.i, r.j) for r in roots)


def test_orbit_and_precedes_match_iterated_zeta_hat():
    for (m, n) in coprime_pairs(9):
        t = bd.cg_triple(m, n)
        roots = bd.all_pos_roots(n)
        for rho in roots:
            chain = []
            cur = bd.zeta_hat(t, rho)
            while cur is not None:
                chain.append(cur)
                cur = bd.zeta_hat(t, cur)
            assert bd.orbit(t, rho) == tuple(chain), (m, n, rho)
            for mu in roots:
                assert bd.precedes(t, rho, mu) == (mu == rho or mu in chain), (m, n, rho, mu)


def test_zeta_hat_examples():
    t = bd.cg_triple(12, 31)
    assert bd.zeta_hat(t, bd.PosRoot(15, 19)) == bd.PosRoot(27, 31)
    t13 = bd.cg_triple(1, 3)
    assert bd.zeta_hat(t13, bd.PosRoot(1, 2)) == bd.PosRoot(2, 3)
    # any root with a component outside S0 has no image
    assert bd.zeta_hat(t13, bd.PosRoot(2, 3)) is None
    assert bd.zeta_hat(t13, bd.PosRoot(1, 3)) is None


def test_precedes_worked_example():
    t = bd.cg_triple(12, 31)
    assert bd.precedes(t, bd.PosRoot(15, 19), bd.PosRoot(18, 22))
    assert bd.PosRoot(18, 22) in bd.orbit(t, bd.PosRoot(15, 19))
    assert not bd.precedes(t, bd.PosRoot(15, 19), bd.PosRoot(11, 15))
    rho = bd.PosRoot(3, 4)
    assert bd.precedes(t, rho, rho)
    assert rho not in bd.orbit(t, rho)


def test_precedes_strict_partial_order():
    for (m, n) in coprime_pairs(12):
        t = bd.cg_triple(m, n)
        for rho in bd.all_pos_roots(n):
            chain = bd.orbit(t, rho)
            assert rho not in chain  # irreflexive
            seen = set(chain)
            for mu in chain:
                assert set(bd.orbit(t, mu)) <= seen  # transitive


def test_alpha_part_examples():
    assert bd.alpha_part(1, 2).is_zero()
    assert bd.alpha_part(1, 3) == Fraction(2) * WedgeElement(3, {((1, 2), (3, 2)): 1})


def test_beta_part_examples():
    assert bd.beta_part(1, 2).is_zero()
    b13 = bd.beta_part(1, 3)
    assert b13.terms[((1, 1), (2, 2))] == Fraction(1, 3)


def test_gamma_part_examples():
    g2 = bd.gamma_part(2)
    assert g2 == WedgeElement(2, {((1, 2), (2, 1)): 1})
    assert len(bd.gamma_part(3).terms) == 3


def test_gamma_operator_action():
    for n in (2, 3, 4):
        op = wedge_to_op(bd.gamma_part(n))
        for j in range(1, n + 1):
            for l in range(1, n + 1):
                col = op.column(j, l)
                if j == l:
                    assert col == {}
                else:
                    s = 1 if j > l else -1
                    assert col == {(l, j): Fraction(s, 2)}


def test_bd_r_matrix_n2_is_gamma():
    assert bd.bd_r_matrix(1, 2) == bd.gamma_part(2)


def test_verify_beta_variety():
    for (m, n) in coprime_pairs(8):
        t = bd.cg_triple(m, n)
        assert bd.verify_beta_variety(t, bd.beta_part(m, n)), (m, n)
        if t.s0:
            assert not bd.verify_beta_variety(t, WedgeElement(n))


def test_verify_beta_variety_rejects_non_diagonal():
    t = bd.cg_triple(1, 3)
    with pytest.raises(ValueError):
        bd.verify_beta_variety(t, WedgeElement(3, {((1, 2), (2, 1)): 1}))


def test_verify_beta_variety_rejects_outside_hwedgeh():
    t = bd.cg_triple(1, 3)
    with pytest.raises(ValueError, match="h \\^ h"):
        bd.verify_beta_variety(t, WedgeElement(3, {((1, 1), (2, 2)): 1}))


def test_verify_beta_variety_rejects_other_points_of_hwedgeh():
    """The variety is the single solved point, so a shift inside h ^ h leaves it."""
    for (m, n) in ((1, 4), (3, 5), (2, 7)):
        t = bd.cg_triple(m, n)
        e = {(a, c): WedgeElement(n, {((a, a), (c, c)): 1}) for a in (1, 2) for c in (3, 4)}
        # (e_11 - e_22) ^ (e_33 - e_44): both legs diagonal and traceless
        shift = e[(1, 3)] - e[(1, 4)] - e[(2, 3)] + e[(2, 4)]
        solution, _ = bd.solve_beta_variety(t)
        assert bd.verify_beta_variety(t, solution)
        assert not bd.verify_beta_variety(t, solution + shift)


def test_beta_variety_is_singleton():
    for (m, n) in coprime_pairs(8):
        t = bd.cg_triple(m, n)
        sol, nullity = bd.solve_beta_variety(t)
        assert nullity == 0
        assert sol == bd.beta_part(m, n)


@pytest.mark.parametrize("b", [bd.beta_part(1, 5), bd.beta_part(1, 3), WedgeElement(5)],
                         ids=["beta_part(1,5)", "beta_part(1,3)", "zero(5)"])
def test_verify_beta_variety_rejects_another_n(b):
    with pytest.raises(ValueError, match="element is for n = %d, triple for n = 4" % b.n):
        bd.verify_beta_variety(bd.cg_triple(1, 4), b)


def test_beta_variety_at_the_cli_cap():
    """c8 at n = 31 and 32, the largest sizes the CLI accepts."""
    for n in (31, 32):
        for m in range(1, n):
            if gcd(m, n) == 1:
                t = bd.cg_triple(m, n)
                assert bd.solve_beta_variety(t) == (bd.beta_part(m, n), 0), (m, n)
                assert bd.verify_beta_variety(t, bd.beta_part(m, n)), (m, n)


def _beta_system(t):
    """The beta-variety equations as sparse rows over the unknowns e_jj ^ e_ll (j < l):
    the oracle for solve_beta_variety, which solves the same equations as C F = V.

    Returns (index, rows, rhs), index mapping each pair (j, l) to its column in
    the order of the unknowns.  The first n rows say that every row sum of the
    antisymmetric coefficient matrix C vanishes (h ^ h membership).  Then, for
    each a_s in S0, the contraction (1 (x) f) of sum C_{jl}/2 e_jj (x) e_ll, with
    f = a_{zeta(s)} - a_s, must equal half the sum of the trace-form duals of a_s
    and its image, one row per diagonal entry.  The dual of a_s is the diagonal
    matrix e_ss - e_{s+1,s+1}, so f and the right-hand side share its +-1 pattern.
    """
    n = t.n
    pairs = [(j, l) for j in range(1, n + 1) for l in range(j + 1, n + 1)]
    index = {p: k for k, p in enumerate(pairs)}
    rows, rhs = [], []
    for j in range(1, n + 1):
        row = {index[(j, l)]: Fraction(1) for l in range(j + 1, n + 1)}
        row.update((index[(l, j)], Fraction(-1)) for l in range(1, j))
        rows.append(row)
        rhs.append(Fraction(0))
    for s in sorted(t.s0):
        z = t.zeta[s]
        h_image, h_source = [Fraction(0)] * n, [Fraction(0)] * n
        h_image[z - 1], h_image[z] = Fraction(1), Fraction(-1)
        h_source[s - 1], h_source[s] = Fraction(1), Fraction(-1)
        fvals = [a - b for a, b in zip(h_image, h_source)]
        for d in range(1, n + 1):
            row = {}
            for l in range(d + 1, n + 1):
                if fvals[l - 1]:
                    row[index[(d, l)]] = fvals[l - 1] / 2
            for j in range(1, d):
                if fvals[j - 1]:
                    row[index[(j, d)]] = -fvals[j - 1] / 2
            rows.append(row)
            rhs.append((h_image[d - 1] + h_source[d - 1]) / 2)
    return index, rows, rhs


def _first_failing_row(index, rows, rhs, b):
    """The index of the first oracle row that the diagonal element b fails, or None."""
    x = {index[(a, c)]: v for ((a, _), (c, _)), v in b.terms.items()}
    return next((k for k, (row, value) in enumerate(zip(rows, rhs))
                 if sum((v * x.get(col, 0) for col, v in row.items()), Fraction(0)) != value), None)


def _verify_over_rows(t, b):
    """verify_beta_variety over the oracle's rows."""
    k = _first_failing_row(*_beta_system(t), b)
    if k is not None and k < t.n:
        raise ValueError("element does not lie in h ^ h (nonzero trace leg)")
    return k is None


def _closes_cycle(zeta, a, z):
    """Whether setting zeta(a) = z closes a cycle of zeta, given that it has none."""
    cur = z
    while cur != a and cur in zeta:
        cur = zeta[cur]
    return cur == a


def _h(n, a):
    return MatrixN(n, {(a, a): 1, (a + 1, a + 1): -1})


@st.composite
def beta_cases(draw, max_n=8):
    """A valid BDTriple at n = 1..max_n and a nonzero traceless h ^ h element
    (None for n < 3).  The triple is a maximal cg_triple, or is built one node
    at a time: each drawn node of S0 gets an image that keeps the Cartan pairing
    with the nodes already placed and closes no cycle, and stays out of S0 when
    no image does."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    if n >= 2 and draw(st.booleans()):
        t = bd.cg_triple(draw(st.sampled_from([m for m in range(1, n) if gcd(m, n) == 1])), n)
    else:
        zeta = {}
        for a in range(1, n):
            if draw(st.booleans()):
                images = [z for z in range(1, n) if z not in zeta.values()
                          and not _closes_cycle(zeta, a, z)
                          and all(bd.cartan_pairing(z, zeta[b]) == bd.cartan_pairing(a, b)
                                  for b in zeta)]
                if images:
                    zeta[a] = draw(st.sampled_from(images))
        t = bd.BDTriple(n, zeta)
    if n < 3:
        return t, None
    a = draw(st.integers(min_value=1, max_value=n - 2))
    b = draw(st.integers(min_value=a + 1, max_value=n - 1))
    c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool))
    return t, c * wedge_of_matrices(_h(n, a), _h(n, b))


@settings(max_examples=100, deadline=None)
@given(beta_cases())
@example((bd.BDTriple(5, {}), wedge_of_matrices(_h(5, 1), _h(5, 3))))
@example((bd.BDTriple(6, {1: 5, 2: 4}), wedge_of_matrices(_h(6, 2), _h(6, 3))))
@example((bd.BDTriple(7, {1: 3, 4: 6}), wedge_of_matrices(_h(7, 1), _h(7, 6))))
@example((bd.cg_triple(3, 7), wedge_of_matrices(_h(7, 2), _h(7, 4))))
@example((bd.BDTriple(1, {}), None))
def test_beta_variety_matches_the_row_oracle(case):
    """The C F = V solve against the n^2-row system on any valid triple: the same
    affine dimension, a point satisfying every row, and verify_beta_variety
    agreeing with the rows on that point and on a shift inside h ^ h."""
    t, shift = case
    index, rows, rhs = _beta_system(t)
    oracle = solve_affine(rows, rhs, len(index))
    solved = bd.solve_beta_variety(t)
    assert (solved is None) == (oracle is None)
    if solved is None:
        return
    point, dimension = solved
    assert dimension == len(oracle[1])
    assert _first_failing_row(index, rows, rhs, point) is None
    if dimension == 0:
        assert point.terms == {((j, j), (l, l)): oracle[0][k]
                               for (j, l), k in index.items() if k in oracle[0]}
    if not t.s0:
        assert dimension == (t.n - 1) * (t.n - 2) // 2  # all of h ^ h
    assert bd.verify_beta_variety(t, point) and _verify_over_rows(t, point)
    if shift is not None:
        assert bd.verify_beta_variety(t, point + shift) == _verify_over_rows(t, point + shift)


@pytest.mark.parametrize("zeta", [{1: 1}, {1: 2, 2: 1}, {1: 3, 2: 1}],
                         ids=["fixed point", "cycle", "not orthogonal"])
def test_beta_variety_of_an_invalid_zeta_is_inconsistent(zeta):
    """BDTriple refuses these maps; read without that check, their equations
    have no solution, and both solves say so."""
    t = SimpleNamespace(n=4, s0=frozenset(zeta), zeta=zeta)
    index, rows, rhs = _beta_system(t)
    assert solve_affine(rows, rhs, len(index)) is None
    assert bd.solve_beta_variety(t) is None


def test_phi_flips_bd_matrix():
    for (m, n) in coprime_pairs(8):
        assert phi_twist(wedge_to_op(bd.bd_r_matrix(m, n))) == \
            wedge_to_op(bd.bd_r_matrix(n - m, n))


def test_phi_on_parts():
    for (m, n) in ((1, 3), (2, 5), (3, 7)):
        gamma = wedge_to_op(bd.gamma_part(n))
        assert phi_twist(gamma) == gamma
        beta = bd.beta_part(m, n)
        assert phi_twist(wedge_to_op(beta)) == wedge_to_op(Fraction(-1) * beta)
        assert Fraction(-1) * beta == bd.beta_part(n - m, n)


@pytest.mark.parametrize("zeta", [{4: 1}, {1: 0}], ids=["node 4 in S0", "node 0 in S1"])
def test_range_validation(zeta):
    # sl_4 has the simple roots a_1, a_2, a_3 only
    with pytest.raises(ValueError, match="simple-root indices"):
        bd.BDTriple(4, zeta)


def test_injectivity_validation():
    # nodes 1 and 4 both sent to node 3
    with pytest.raises(ValueError, match="not injective"):
        bd.BDTriple(5, {1: 3, 4: 3})


def test_orthogonality_validation():
    # adjacent nodes 1, 2 sent to the non-adjacent pair 1, 3
    with pytest.raises(ValueError, match="orthogonality"):
        bd.BDTriple(4, {1: 1, 2: 3})


def test_nilpotency_validation():
    # the identity on a single node never escapes S0
    with pytest.raises(ValueError, match="nilpotency"):
        bd.BDTriple(3, {1: 1})


# Every entry point that takes a construction pair, as a function of (m, n).
PAIR_ENTRY_POINTS = {
    "cg_triple": bd.cg_triple,
    "beta_part": bd.beta_part,
    "bd_r_matrix": bd.bd_r_matrix,
    "euclid_sequence": wheels.euclid_sequence,
    "strings": wheels.strings,
    "wheel": wheels.wheel,
    "psi_values": closed_form.psi_values,
    "cg_closed_form": closed_form.cg_closed_form,
}
INVALID_PAIRS = {(1, 0): "need 1 <= m < n", (1, -3): "need 1 <= m < n",
                 (2, 1): "need 1 <= m < n", (0, 3): "need 1 <= m < n",
                 (2, 4): "m and n must be coprime"}


INVALID_PAIR_CASES = ([(name, pair) for name in PAIR_ENTRY_POINTS for pair in INVALID_PAIRS]
                      + [("r_via_dunkl_m1", (1, n)) for n in (1, 0, -1, -3)])


@pytest.mark.parametrize("name, pair", [pytest.param(name, pair, id="%s-%d,%d" % (name, *pair))
                                        for name, pair in INVALID_PAIR_CASES])
def test_invalid_pair_is_rejected(name, pair):
    entry = PAIR_ENTRY_POINTS.get(name, lambda m, n: dunkl.r_via_dunkl_m1(n))
    message = INVALID_PAIRS.get(pair, "need 1 <= m < n")
    with pytest.raises(ValueError) as info:
        entry(*pair)
    assert str(info.value) == message

