"""Sparse exact linear algebra over the rationals: row reduction, span queries,
affine solves, inversion.

A row or vector is a dict {column: value} that stores no zeros.  Columns are
any mutually comparable keys (integers, or the (i, j) positions of a matrix);
pivots are taken in increasing column order, so the reduced rows are those of
the dense matrix with its columns sorted the same way.

add_scaled owns that rule: the rows here, and the sums of matrices, operator
columns, wedge elements and polynomial-operator images elsewhere, all merge
through it.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

ONE = Fraction(1)


def add_scaled(target, c, row):
    """target += c * row in place for sparse maps that store no zeros; returns target.

    An entry that cancels is deleted, and a key absent from target gets v * c
    itself, so int entries stay int for an int c.  A unit c adds v with no
    product.
    """
    if not c:
        return target
    unit = c == 1
    for col, v in row.items():
        if not unit:
            v *= c
        x = target.get(col)
        if x is None:
            target[col] = v
            continue
        x += v
        if x:
            target[col] = x
        else:
            del target[col]
    return target


def rref(rows):
    """Reduced row echelon form of a list of sparse rows (inputs are not modified).

    Returns (reduced_rows, pivot_columns) ordered by pivot; zero rows are dropped.
    Each row is reduced against the pivots found so far, and a new pivot is then
    cleared from the earlier rows, so the rows stay fully reduced throughout.
    """
    basis = {}
    for row in rows:
        row = {col: v for col, v in row.items() if v}
        for p in [col for col in row if col in basis]:
            add_scaled(row, -row[p], basis[p])
        if not row:
            continue
        p = min(row)
        inv = ONE / row[p]
        row = {col: v * inv for col, v in row.items()}
        for other in basis.values():
            f = other.get(p)
            if f:
                add_scaled(other, -f, row)
        basis[p] = row
    pivots = sorted(basis)
    return [basis[p] for p in pivots], pivots


def rank(rows) -> int:
    return len(rref(rows)[0])


def expand_in_rref(reduced, pivots, vec):
    """Coefficients {row index: coefficient} of the sparse vector vec in the span
    of an RREF basis, or None if it lies outside the span.

    The coefficients are vec's entries at the pivots, found by bisecting the
    sorted pivots; only the rows with a nonzero coefficient are subtracted, and
    vec lies in the span exactly when nothing is left.
    """
    coeffs = {}
    residual = dict(vec)
    for col, c in vec.items():
        i = bisect_left(pivots, col)
        if i < len(pivots) and pivots[i] == col:
            coeffs[i] = c
            add_scaled(residual, -c, reduced[i])
    if residual:
        return None
    return coeffs


def solve_affine(a_rows, b_col, ncols):
    """Solve A x = b exactly for sparse rows of A over the columns 0..ncols-1.

    Returns (particular_solution, nullspace_basis) as sparse vectors, or None
    when inconsistent.
    """
    reduced, pivots = rref([{**row, ncols: b} for row, b in zip(a_rows, b_col)])
    if pivots and pivots[-1] == ncols:
        return None
    particular = {p: row[ncols] for row, p in zip(reduced, pivots) if ncols in row}
    pivot_set = set(pivots)
    null_basis = []
    for f in range(ncols):
        if f not in pivot_set:
            v = {f: ONE}
            for row, p in zip(reduced, pivots):
                if f in row:
                    v[p] = -row[f]
            null_basis.append(v)
    return particular, null_basis


def invert(a_rows):
    """Exact inverse of a square matrix given as sparse rows over the columns
    0..n-1, as sparse rows, or None when singular."""
    n = len(a_rows)
    reduced, pivots = rref([{**row, n + i: ONE} for i, row in enumerate(a_rows)])
    if pivots != list(range(n)):
        return None
    return [{j - n: v for j, v in row.items() if j >= n} for row in reduced]
