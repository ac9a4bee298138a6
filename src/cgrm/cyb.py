"""Classical Yang-Baxter machinery on exact sparse operators: leg embeddings,
the cyclic-difference invariant Z, double brackets, CYB_lambda, and the solver
that certifies a candidate and extracts its lambda."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .scalars import common_denominator, format_scalar, scaled_to_int
from .tensorops import SparseOp, add_column_product

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
    result = SparseOp(n)
    result.cols = cols3  # r stores no zeros, so its relabelled columns need no cleaning
    return result


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


# The leg permutations other than the identity, each with whether it is odd;
# f(t) permutes the positions of an index tuple t.
_OTHER_PERMS = tuple((itemgetter(*p), odd) for p, odd in (
    ((1, 2, 0), False), ((2, 0, 1), False),
    ((0, 2, 1), True), ((2, 1, 0), True), ((1, 0, 2), True)))

# The cyclic shift rot(x, y, z) = (y, z, x) and its square: column rot(t) of B
# is relabelled on output by rot^2 = rot^-1, and column rot^2(t) by rot.
_ROT, _ROT2 = _OTHER_PERMS[0][0], _OTHER_PERMS[1][0]
_SHIFTS = ((_ROT, _ROT2), (_ROT2, _ROT))


def _skew_double_bracket(a: SparseOp, d: int) -> SparseOp:
    """(1 + s + s^2)B / d for B = [a12, a13] and a skew int operator a, one S3
    orbit of input columns at a time; B itself is never stored.

    The cyclic leg shift s relabels both indices by rot(x, y, z) = (y, z, x):
    column t of s B s^-1 is column rot(t) of B, each output o moved to
    rot^-1(o).  So column t of the sum needs columns t, rot(t) and rot^2(t)
    of B, and nothing else; it is formed at the sorted member t of
    each orbit and divided by d there.  For a skew a the sum lies in the
    third exterior power: P23 swaps a12 and a13 and negates a23, so every
    leg permutation f gives column f(t) as column t relabelled by f and
    multiplied by sgn(f).  That fills the other (at most five) columns.
    """
    c12, c13 = embed(a, 12).cols, embed(a, 13).cols
    cols = {}
    for t in {tuple(sorted(u)) for u in c12}:
        # Column u of B is a12 (a13 e_u) - a13 (a12 e_u); cancelled entries stay as 0.
        acc = add_column_product({}, c12, c13.get(t, {}))
        add_column_product(acc, c13, c12.get(t, {}), negate=True)
        for read, relabel in _SHIFTS:
            u = read(t)
            part = add_column_product({}, c12, c13.get(u, {}))
            for out, v in add_column_product(part, c13, c12.get(u, {}), negate=True).items():
                key = relabel(out)
                acc[key] = acc.get(key, 0) + v
        col = {out: Fraction(v, d) for out, v in acc.items() if v}
        if not col:
            continue
        cols[t] = col
        even = col.items()
        odd = [(out, -v) for out, v in even]
        for f, is_odd in _OTHER_PERMS:
            u = f(t)
            if u not in cols:
                cols[u] = {f(out): v for out, v in (odd if is_odd else even)}
    result = SparseOp(a.n)
    result.cols = cols
    return result


def double_bracket(r: SparseOp) -> SparseOp:
    """[r12, r13] + [r12, r23] + [r13, r23].

    Quadratic in r, so it is computed on the integer operator D r and divided
    by D^2 once at the end.  For a skew r (P r P = -r) the cyclic leg shift s
    sends r12 to r23 and r13 to -r12, so [r12, r23] and [r13, r23] are the s-
    and s^2-conjugates of [r12, r13], and the sum is (1 + s + s^2)[r12, r13],
    summed one S3 orbit of columns at a time with no operator bracket.  Any
    other r takes two brackets, [r12, r13 + r23] + [r13, r23], by bilinearity.
    """
    d, r = _integral(r)
    d *= d
    if r.is_antisymmetric():
        return _skew_double_bracket(r, d)
    r12, r13, r23 = embed(r, 12), embed(r, 13), embed(r, 23)
    ints = r12.bracket(r13 + r23) + r13.bracket(r23)
    result = SparseOp(r.n)
    result.cols = {inp: {out: Fraction(v, d) for out, v in col.items()}
                   for inp, col in ints.cols.items()}
    return result


def cyb_lambda(r: SparseOp, lam) -> SparseOp:
    """[r12, r13] + [r12, r23] + [r13, r23] - lambda Z, in one merge."""
    return double_bracket(r).__add__(z_op(r.n), -Fraction(lam))


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
    """Classify r by the residual bb - lambda Z, bb the double bracket.

    For n >= 2 the first column of Z in sorted order is (1, 1, 2), and its
    smallest nonzero entry is -1 at (1, 2, 1), so lambda is read there; for
    n = 1 the double bracket is always zero.  Z e_abc = e_cab - e_bca has two
    entries in each of the n^3 - n columns whose indices are not all equal,
    and none in the others.  So at lambda != 0 the residual has nnz(bb) +
    2(n^3 - n) entries, less one for each of those positions that bb holds
    and one more where bb's entry there is the +-lambda it cancels: one pass
    over bb's columns, and Z is never built.  A count of 0 is a solution,
    triangular at lambda = 0 and quasitriangular otherwise.
    """
    bb = double_bracket(r)
    lam = -bb.cols.get((1, 1, 2), {}).get((1, 2, 1), ZERO)
    count = bb.count_nonzero()
    if lam:
        count += 2 * (r.n ** 3 - r.n)
        for (a, b, c), col in bb.cols.items():
            if a == b == c:
                continue
            for out, z in (((c, a, b), lam), ((b, c, a), -lam)):
                v = col.get(out)
                if v is not None:
                    count -= 2 if v == z else 1
    if count:
        return CybReport(None, count, NOT_R_MATRIX)
    return CybReport(lam, 0, QUASITRIANGULAR if lam else TRIANGULAR)
