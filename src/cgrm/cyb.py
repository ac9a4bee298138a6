"""Classical Yang-Baxter machinery on exact sparse operators: leg embeddings,
the cyclic-difference invariant Z, double brackets, CYB_lambda, and the solver
that certifies a candidate and extracts its lambda."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import format_scalar
from .tensorops import SparseOp

ZERO = Fraction(0)

TRIANGULAR = "triangular"
QUASITRIANGULAR = "quasitriangular"
NOT_R_MATRIX = "not_r_matrix"


def embed(r: SparseOp, legs: int) -> SparseOp:
    """Act with r on the named pair of tensor legs (12, 13 or 23), identity elsewhere."""
    n = r.n
    cols3 = {}
    rng = range(1, n + 1)
    if legs == 12:
        for (k, l), col in r.cols.items():
            for c in rng:
                cols3[(k, l, c)] = {(i, j, c): v for (i, j), v in col.items()}
    elif legs == 23:
        for (k, l), col in r.cols.items():
            for a in rng:
                cols3[(a, k, l)] = {(a, i, j): v for (i, j), v in col.items()}
    elif legs == 13:
        for (k, l), col in r.cols.items():
            for b in rng:
                cols3[(k, b, l)] = {(i, b, j): v for (i, j), v in col.items()}
    else:
        raise ValueError("legs must be one of 12, 13, 23")
    return SparseOp(n, cols3)


def z_op(n: int) -> SparseOp:
    """u (x) v (x) w -> w (x) u (x) v - v (x) w (x) u."""
    cols = {}
    rng = range(1, n + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                col = {}
                col[(c, a, b)] = col.get((c, a, b), ZERO) + 1
                col[(b, c, a)] = col.get((b, c, a), ZERO) - 1
                col = {k: v for k, v in col.items() if v != 0}
                if col:
                    cols[(a, b, c)] = col
    return SparseOp(n, cols)


def double_bracket(a: SparseOp, b: SparseOp) -> SparseOp:
    """[a12, b13] + [a12, b23] + [a13, b23]."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    a12, a13 = embed(a, 12), embed(a, 13)
    b13, b23 = embed(b, 13), embed(b, 23)
    return a12.bracket(b13) + a12.bracket(b23) + a13.bracket(b23)


def cyb_lambda(r: SparseOp, lam) -> SparseOp:
    """[r12, r13] + [r12, r23] + [r13, r23] - lambda Z."""
    return double_bracket(r, r) - Fraction(lam) * z_op(r.n)


@dataclass
class CybReport:
    lambda_: object  # Fraction or None
    residual_nonzero_count: int
    classification: str

    def to_json_obj(self):
        return {
            "classification": self.classification,
            "lambda": None if self.lambda_ is None else format_scalar(self.lambda_),
            "residual_nonzero_count": self.residual_nonzero_count,
        }


def find_lambda(r: SparseOp) -> CybReport:
    """Classify r: solve lambda from the first nonzero entry of Z against the
    double bracket, then verify proportionality globally.

    For n >= 2 the first column of Z in sorted order is (1, 1, 2), and its
    smallest nonzero entry is -1 at (1, 2, 1); for n = 1 the double bracket
    is always zero.
    """
    bb = double_bracket(r, r)
    if bb.is_zero():
        return CybReport(Fraction(0), 0, TRIANGULAR)
    lam = -bb.cols.get((1, 1, 2), {}).get((1, 2, 1), ZERO)
    residual = bb - lam * z_op(r.n)
    count = residual.count_nonzero()
    if count == 0 and lam != 0:
        return CybReport(lam, 0, QUASITRIANGULAR)
    return CybReport(None, count, NOT_R_MATRIX)
