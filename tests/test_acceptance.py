"""Acceptance suite: one test per criterion, all identities exact (zero tolerance).

Each test prints its own PASS/FAIL line so the module doubles as a report when
run with `pytest -s tests/test_acceptance.py` (or via `cgrm acceptance`).
"""

from fractions import Fraction

import pytest

from cgrm import acceptance, closed_form, cyb, dunkl, frobenius
from cgrm.tensorops import SparseOp


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=lambda c: c.__name__)
def test_criterion(criterion):
    result = criterion(seed=acceptance.DEFAULT_SEED)
    print("%s  criterion %d: %s  [%s]"
          % ("PASS" if result.passed else "FAIL", result.cid, result.name, result.detail))
    assert result.passed, "criterion %d failed: %s (%s)" % (result.cid, result.name, result.detail)


def test_v_span_certificate_fails_when_one_generator_is_perturbed():
    """Every combination of v1..v4 is triangular; moving one generator off the
    module makes one of the pieces that involve it nonzero."""
    vs = dunkl.elements_v(5)
    assert acceptance.nonvanishing_piece(vs) is None
    bump = Fraction(1, 3) * closed_form.cg_closed_form(2, 5)
    for k in range(4):
        bent = vs[:k] + (vs[k] + bump,) + vs[k + 1:]
        piece = acceptance.nonvanishing_piece(bent)
        assert piece is not None and k in piece


def test_v_span_certificate_checks_the_cross_pieces():
    """A triangular operator in place of one generator keeps every diagonal
    piece zero; only a cross piece DB(vi, vj) + DB(vj, vi) shows the failure."""
    vs = dunkl.elements_v(5)
    j = frobenius.jordanian(5)
    assert cyb.double_bracket(j, j).is_zero()
    for k in range(4):
        piece = acceptance.nonvanishing_piece(vs[:k] + (j,) + vs[k + 1:])
        assert piece is not None and k in piece and piece[0] != piece[1]


def _first_piece_by_definition(ops):
    """nonvanishing_piece with each cross piece taken as DB(vi, vj) + DB(vj, vi)."""
    for i, vi in enumerate(ops):
        for j in range(i, len(ops)):
            piece = cyb.double_bracket(vi, ops[j])
            if j > i:
                piece = piece + cyb.double_bracket(ops[j], vi)
            if not piece.is_zero():
                return i, j
    return None


def test_polarized_pieces_match_the_definition():
    """Polarization finds the same first nonzero piece; with the zero operator
    first, the cross piece vanishes and the failure is the second diagonal."""
    vs = dunkl.elements_v(5)
    r = closed_form.cg_closed_form(2, 5)
    zero = SparseOp.zero(5)
    cases = [(zero, r), (r,), vs, (vs[0], r, vs[1]), vs[:2] + (frobenius.jordanian(5),)]
    found = [acceptance.nonvanishing_piece(ops) for ops in cases]
    assert found == [_first_piece_by_definition(ops) for ops in cases]
    assert found[:3] == [(1, 1), (0, 0), None]
