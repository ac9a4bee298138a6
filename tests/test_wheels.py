"""Wheel combinatorics against the brute-force partial-order oracle."""

import pytest

from cgrm import wheels
from cgrm.acceptance import coprime_pairs

from conftest import strict_pair_count


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
    assert wheels.func_b(22, 12, 31) == 10
    assert wheels.func_b(1, 12, 31) == 1
    assert wheels.func_b(1, 5, 12) == 1


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
        assert wheels.func_c(1, l, w) == 12 + 1 - wheels.func_b(l, 12, 31)
        assert wheels.func_d(1, l, w) == 12 + 1 - wheels.func_a(l, 12, 31)
    with pytest.raises(ValueError):
        wheels.func_c(w.L, 1, w)


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
