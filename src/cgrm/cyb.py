"""Classical Yang-Baxter machinery on exact sparse operators: leg embeddings,
the cyclic-difference invariant Z, double brackets, CYB_lambda, and the solver
that certifies a candidate and extracts its lambda."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import add_scaled
from .scalars import common_denominator, format_scalar, scaled_to_int
from .tensorops import SparseOp

ZERO = Fraction(0)
ONE = Fraction(1)

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
    """u (x) v (x) w -> w (x) u (x) v - v (x) w (x) u.

    The two images coincide, and cancel, exactly when a = b = c.
    """
    rng = range(1, n + 1)
    return SparseOp(n, {(a, b, c): {(c, a, b): ONE, (b, c, a): -ONE}
                        for a in rng for b in rng for c in rng if not a == b == c})


def _integral(op: SparseOp):
    """(D, D op) with D the lcm of op's entry denominators; D op has int entries."""
    d = common_denominator(v for col in op.cols.values() for v in col.values())
    scaled = SparseOp(op.n)
    scaled.cols = {inp: scaled_to_int(col, d) for inp, col in op.cols.items()}
    return d, scaled


def _cyclic_sum_over(b: SparseOp, d: int) -> SparseOp:
    """(b + s b s^-1 + s^2 b s^-2) / d for the cyclic leg shift s, which sends
    r12 to r23 and r13 to r21.

    Conjugating by s relabels both indices by rot(x, y, z) = (y, z, x): column
    t of s b s^-1 is column rot(t) of b, each output o moved to rot^-1(o).  The
    sum is s-invariant, so each orbit {t, rot(t), rot^2(t)} is summed once, at
    its least member, and its other columns are the same entries relabelled.
    """
    src = b.cols
    cols = {}
    for rep in {min(t, (t[1], t[2], t[0]), (t[2], t[0], t[1])) for t in src}:
        r1 = (rep[1], rep[2], rep[0])
        r2 = (rep[2], rep[0], rep[1])
        acc = dict(src.get(rep, {}))
        add_scaled(acc, 1, {(o[2], o[0], o[1]): v for o, v in src.get(r1, {}).items()})
        add_scaled(acc, 1, {(o[1], o[2], o[0]): v for o, v in src.get(r2, {}).items()})
        if not acc:
            continue
        col = cols[rep] = {o: Fraction(v, d) for o, v in acc.items()}
        if r1 != rep:
            cols[r1] = {(o[1], o[2], o[0]): v for o, v in col.items()}
            cols[r2] = {(o[2], o[0], o[1]): v for o, v in col.items()}
    result = SparseOp(b.n)
    result.cols = cols
    return result


def double_bracket(a: SparseOp, b: SparseOp) -> SparseOp:
    """[a12, b13] + [a12, b23] + [a13, b23].

    Bilinear, so it is computed on the integer operators D_a a and D_b b and
    divided by D_a D_b once at the end.  For a skew r (P r P = -r) the cyclic
    leg shift s sends r12 to r23 and r13 to -r12, so [r12, r23] and
    [r13, r23] are the s- and s^2-conjugates of [r12, r13], and
    double_bracket(r, r) is (1 + s + s^2)[r12, r13]: one bracket, not three.
    """
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    same = a is b
    d, a = _integral(a)
    db, b = (d, a) if same else _integral(b)
    if same and a.is_antisymmetric():
        return _cyclic_sum_over(embed(a, 12).bracket(embed(a, 13)), d * d)
    a12, a13 = embed(a, 12), embed(a, 13)
    b13, b23 = embed(b, 13), embed(b, 23)
    ints = a12.bracket(b13) + a12.bracket(b23) + a13.bracket(b23)
    d *= db
    result = SparseOp(a.n)
    result.cols = {inp: {out: Fraction(v, d) for out, v in col.items()}
                   for inp, col in ints.cols.items()}
    return result


def cyb_lambda(r: SparseOp, lam) -> SparseOp:
    """[r12, r13] + [r12, r23] + [r13, r23] - lambda Z, in one merge."""
    return double_bracket(r, r).__add__(z_op(r.n), -Fraction(lam))


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
    residual = bb.__add__(z_op(r.n), -lam)
    count = residual.count_nonzero()
    if count == 0 and lam != 0:
        return CybReport(lam, 0, QUASITRIANGULAR)
    return CybReport(None, count, NOT_R_MATRIX)
