"""Wheel combinatorics against the brute-force partial-order oracle."""

import pytest

from cgrm import bd, wheels
from cgrm.acceptance import coprime_pairs

from conftest import sbar_by_precedes, strict_pair_count


def test_euclid_sequence():
    assert wheels.euclid_sequence(12, 31) == [31, 12, 5, 3, 1]
    assert wheels.euclid_sequence(1, 7) == [7, 1]
    assert wheels.euclid_sequence(2, 5) == [5, 2, 1]
    with pytest.raises(ValueError):
        wheels.euclid_sequence(2, 4)


def test_strings_worked_example():
    assert wheels.strings(12, 31) == [
        [1, 13, 25], [6, 18, 30], [11, 23], [4, 16, 28], [9, 21], [2, 14, 26],
        [7, 19, 31], [12, 24], [5, 17, 29], [10, 22], [3, 15, 27], [8, 20]]
    w = wheels.wheel(12, 31)
    assert w.minimal_elements == [1, 6, 11, 4, 9, 2, 7, 12, 5, 10, 3, 8]


def test_strings_m1_single_string():
    assert wheels.strings(1, 6) == [[1, 2, 3, 4, 5, 6]]


def test_func_a_b():
    assert wheels.func_a(15, 12, 31) == 8
    assert wheels.func_b(22, 12) == 10
    assert wheels.func_b(1, 12) == 1
    assert wheels.func_b(1, 5) == 1


def test_func_c_d():
    w = wheels.wheel(12, 31)
    # level 0 reduces to the identity window
    for l in range(1, 32):
        assert wheels.func_c(0, l, w) == l
        assert wheels.func_d(0, l, w) == l
    assert wheels.func_c(1, 22, w) == 3
    assert wheels.func_d(1, 15, w) == 5
    # level-1 values agree with the minimal-element alignment functions
    for l in range(1, 32):
        assert wheels.func_c(1, l, w) == 12 + 1 - wheels.func_b(l, 12)
        assert wheels.func_d(1, l, w) == 12 + 1 - wheels.func_a(l, 12, 31)


@pytest.mark.parametrize("func", [wheels.func_c, wheels.func_d], ids=lambda f: f.__name__)
def test_alignment_offsets_reject_levels_outside_the_wheel(func):
    w = wheels.wheel(12, 31)
    for t in (w.L, -1):
        with pytest.raises(ValueError, match="^t out of range$"):
            func(t, 1, w)


def test_func_j_examples():
    w = wheels.wheel(12, 31)
    assert wheels.func_j(1, 17, 10, w) == wheels.func_d(1, 15, w) - wheels.func_c(1, 22, w) == 2
    # level 0 collapses to the plain difference
    for j in range(1, 32):
        for l in range(1, 32):
            assert wheels.func_j(0, j, l, w) == j - l


def test_func_j_two_displays_agree():
    """The alternating C/D description equals the nested-mod description."""
    for (m, n) in coprime_pairs(20) + [(12, 31)]:
        w = wheels.wheel(m, n)
        for t in range(w.L):
            for jp in range(1, n + 1):
                for lp in range(1, n + 1):
                    j, l = n + 1 - jp, n + 1 - lp
                    if t % 2 == 0:
                        other = wheels.func_d(t, lp, w) - wheels.func_c(t, jp, w)
                    else:
                        other = wheels.func_d(t, jp, w) - wheels.func_c(t, lp, w)
                    assert wheels.func_j(t, j, l, w) == other, (m, n, t, jp, lp)


def test_sbar_closed_worked_examples():
    assert wheels.sbar_closed(wheels.wheel(12, 31), 15, 22) == {16, 17, 19, 22}
    assert wheels.sbar_closed(wheels.wheel(5, 12), 3, 5) == {4, 5, 7}


def test_sbar_bruteforce_worked_examples():
    assert wheels.sbar_bruteforce(12, 31, 15, 22) == {16, 17, 19, 22}
    assert wheels.sbar_bruteforce(5, 12, 3, 5) == {4, 5, 7}


def test_sbar_diagonal_corner():
    # (1, 1) admits no valid candidate: s = 1 would name the degenerate pair
    # e_{1,1}, which is not a positive root vector
    for (m, n) in ((2, 5), (12, 31)):
        assert wheels.sbar_closed(wheels.wheel(m, n), 1, 1) == set()
        assert wheels.sbar_bruteforce(m, n, 1, 1) == set()


def test_sbar_no_valid_candidates():
    # j1 = n leaves no s with j1 < s
    assert wheels.sbar_bruteforce(2, 5, 5, 3) == set()
    assert wheels.sbar_closed(wheels.wheel(2, 5), 5, 3) == set()


OUT_OF_RANGE = [(0, 3), (-1, 1), (0, 1), (3, 0), (1, -4), (6, 3), (3, 6), (6, 6), (0, 6),
                (-1, 2)]


@pytest.mark.parametrize("j1, j2", OUT_OF_RANGE)
def test_sbar_bruteforce_rejects_positions_out_of_range(j1, j2):
    with pytest.raises(ValueError, match=r"^position \(%d, %d\) out of range 1\.\.5$" % (j1, j2)):
        wheels.sbar_bruteforce(2, 5, j1, j2)


@pytest.mark.parametrize("jp, lp", OUT_OF_RANGE)
def test_sbar_closed_rejects_positions_out_of_range(jp, lp):
    """A position outside 1..n raises, where the nested-mod table would wrap on a
    negative index ((3, 0) read {5}) or overrun it."""
    with pytest.raises(ValueError, match=r"^position \(%d, %d\) out of range 1\.\.5$" % (jp, lp)):
        wheels.sbar_closed(wheels.wheel(2, 5), jp, lp)


def test_sbar_bruteforce_accepts_the_corners_of_the_range():
    t = bd.cg_triple(2, 5)
    for j1, j2 in ((1, 1), (1, 5), (5, 1), (5, 5)):
        assert wheels.sbar_bruteforce(2, 5, j1, j2) == sbar_by_precedes(t, j1, j2), (j1, j2)
        assert wheels.sbar_closed(wheels.wheel(2, 5), j1, j2) == sbar_by_precedes(t, j1, j2)
    assert wheels.sbar_bruteforce(2, 5, 1, 5) == {3, 5}


def precedes_loop_mismatch(oracle, pairs):
    """The first (m, n, j1, j2) at which oracle(m, n, j1, j2) differs from the
    per-candidate precedes loop; None when it never does."""
    for (m, n) in pairs:
        t = bd.cg_triple(m, n)
        for j1 in range(1, n + 1):
            for j2 in range(1, n + 1):
                if oracle(m, n, j1, j2) != sbar_by_precedes(t, j1, j2):
                    return m, n, j1, j2
    return None


def test_sbar_bruteforce_matches_the_precedes_loop():
    assert precedes_loop_mismatch(wheels.sbar_bruteforce, coprime_pairs(13) + [(12, 31)]) is None


def _strict_walk(m, n, j1, j2):
    """The one-walk table at (j1, j2) with rho itself left out of its walk."""
    t = bd.cg_triple(m, n)
    return {rho.j for rho in bd.all_pos_roots(n) for mu in bd.orbit(t, rho)
            if rho.i == j1 and mu.j == j2 and mu.i + rho.j == rho.i + mu.j}


def test_a_walk_of_the_strict_order_fails_the_precedes_loop():
    """Negative control: the comparison catches a walk that drops rho = mu."""
    assert _strict_walk(12, 31, 15, 22) == {16, 17, 19}
    assert sbar_by_precedes(bd.cg_triple(12, 31), 15, 22) == {16, 17, 19, 22}
    assert precedes_loop_mismatch(_strict_walk, [(12, 31)]) == (12, 31, 1, 2)


def assert_oracle_equivalence(pairs):
    """sbar_closed equals sbar_bruteforce at every position (jp, lp) of each pair."""
    for (m, n) in pairs:
        w = wheels.wheel(m, n)
        for jp in range(1, n + 1):
            for lp in range(1, n + 1):
                assert (wheels.sbar_closed(w, jp, lp)
                        == wheels.sbar_bruteforce(m, n, jp, lp)), (m, n, jp, lp)


def test_oracle_equivalence_small():
    assert_oracle_equivalence(coprime_pairs(12))


def test_oracle_equivalence_at_the_cli_cap():
    """Every coprime pair at n = 31 and n = 32, the two largest n the CLI accepts."""
    pairs = [(m, n) for (m, n) in coprime_pairs(32) if n >= 31]
    assert sum(n * n for _, n in pairs) == 45214
    assert_oracle_equivalence(pairs)


def test_strict_pair_count_matches_strict_sets():
    """Strictly ordered root pairs biject with the strict aligned sets."""
    for (m, n) in ((2, 5), (3, 7), (12, 31)):
        total = 0
        w = wheels.wheel(m, n)
        for jp in range(1, n + 1):
            for lp in range(1, n + 1):
                sbar = wheels.sbar_closed(w, jp, lp)
                total += len(sbar) - (1 if jp < lp else 0)
        assert total == strict_pair_count(m, n)


def test_wheel_invariants_raise_without_assert():
    w = wheels.wheel(5, 12)
    broken = wheels.WheelData(m=w.m, n=w.n, seq=w.seq, strings=w.strings[1:],
                              minimal_elements=w.minimal_elements[1:])
    with pytest.raises(ValueError, match="partition"):
        broken._validate()
