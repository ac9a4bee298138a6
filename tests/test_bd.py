"""Triple data, the root partial order, and the alpha/beta/gamma construction."""

from fractions import Fraction
from math import gcd

import pytest

from cgrm import bd, closed_form, dunkl, wheels
from cgrm.closed_form import phi_twist
from cgrm.tensorops import WedgeElement, wedge_to_op


def coprime_pairs(n_max):
    return [(m, n) for n in range(2, n_max + 1) for m in range(1, n) if gcd(m, n) == 1]


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


def test_zeta_hat_examples():
    t = bd.cg_triple(12, 31)
    assert bd.zeta_hat(t, bd.PosRoot(15, 19)) == bd.PosRoot(27, 31)
    t13 = bd.cg_triple(1, 3)
    assert bd.zeta_hat(t13, bd.PosRoot(1, 2)) == bd.PosRoot(2, 3)
    # any root with a component outside S0 has no image
    assert bd.zeta_hat(t13, bd.PosRoot(2, 3)) is None
    assert bd.zeta_hat(t13, bd.PosRoot(1, 3)) is None


def test_zeta_hat_fast_path_matches_generic():
    for (m, n) in ((2, 5), (3, 7), (5, 8)):
        fast = bd.cg_triple(m, n)
        generic = bd.BDTriple(n, fast.s0, fast.s1, fast.zeta)  # no shift marker
        for rho in bd.all_pos_roots(n):
            assert bd.zeta_hat(fast, rho) == bd.zeta_hat(generic, rho), (m, n, rho)


def test_precedes_worked_example():
    t = bd.cg_triple(12, 31)
    assert bd.precedes(t, bd.PosRoot(15, 19), bd.PosRoot(18, 22), allow_equal=True)
    assert not bd.precedes(t, bd.PosRoot(15, 19), bd.PosRoot(11, 15), allow_equal=True)
    rho = bd.PosRoot(3, 4)
    assert bd.precedes(t, rho, rho, allow_equal=True)
    assert not bd.precedes(t, rho, rho, allow_equal=False)


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
    assert bd.alpha_part(1, 3) == Fraction(2) * WedgeElement.single(3, 1, 2, 3, 2)


def test_beta_part_examples():
    assert bd.beta_part(1, 2).is_zero()
    b13 = bd.beta_part(1, 3)
    assert b13.terms[((1, 1), (2, 2))] == Fraction(1, 3)


def test_gamma_part_examples():
    g2 = bd.gamma_part(2)
    assert g2 == WedgeElement.single(2, 1, 2, 2, 1)
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
            assert not bd.verify_beta_variety(t, WedgeElement.zero(n))


def test_verify_beta_variety_rejects_non_diagonal():
    t = bd.cg_triple(1, 3)
    with pytest.raises(ValueError):
        bd.verify_beta_variety(t, WedgeElement.single(3, 1, 2, 2, 1))


def test_verify_beta_variety_rejects_outside_hwedgeh():
    t = bd.cg_triple(1, 3)
    with pytest.raises(ValueError, match="h \\^ h"):
        bd.verify_beta_variety(t, WedgeElement.single(3, 1, 1, 2, 2))


def test_verify_beta_variety_rejects_other_points_of_hwedgeh():
    """The variety is the single solved point, so a shift inside h ^ h leaves it."""
    for (m, n) in ((1, 4), (3, 5), (2, 7)):
        t = bd.cg_triple(m, n)
        e = {(a, c): WedgeElement.single(n, a, a, c, c) for a in (1, 2) for c in (3, 4)}
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


def test_phi_flips_bd_matrix():
    for (m, n) in coprime_pairs(8):
        assert phi_twist(bd.bd_r_matrix(m, n)) == bd.bd_r_matrix(n - m, n)


def test_phi_on_parts():
    for (m, n) in ((1, 3), (2, 5), (3, 7)):
        assert phi_twist(bd.gamma_part(n)) == bd.gamma_part(n)
        beta = bd.beta_part(m, n)
        assert phi_twist(beta) == Fraction(-1) * beta
        assert Fraction(-1) * beta == bd.beta_part(n - m, n)


def test_orthogonality_validation():
    # adjacent nodes 1, 2 sent to the non-adjacent pair 1, 3
    with pytest.raises(ValueError):
        bd.BDTriple(4, {1, 2}, {1, 3}, {1: 1, 2: 3})


def test_nilpotency_validation():
    # the identity on a single node never escapes S0
    with pytest.raises(ValueError):
        bd.BDTriple(3, {1}, {1}, {1: 1})


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
