"""Sparse exact linear algebra over the rationals: row reduction, span queries,
affine solves, inversion.

A row or vector is a dict {column: value} that stores no zeros.  Columns are
any mutually comparable keys (integers, or the (i, j) positions of a matrix);
pivots are taken in increasing column order, so the reduced rows are those of
the dense matrix with its columns sorted the same way.

add_scaled owns that rule: the rows here, and the sums of matrices, operator
columns, wedge elements and polynomial-operator images elsewhere, all merge
through it.

Values are ints where they are integral and Fractions otherwise.  rref
eliminates on integer numerators and divides each row by its pivot value once,
at the end, so an integral basis, and every span query and solve against it,
stays on ints.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm


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


def _primitive(row, p):
    """A nonempty int row divided by the gcd of its entries, signed so that its
    entry at p is positive."""
    g = gcd(*row.values())
    if row[p] < 0:
        g = -g
    if g == 1:
        return row
    return {col: v // g for col, v in row.items()}


def _divided(row, d):
    """row / d, entry by entry: an int where d divides it, a Fraction otherwise."""
    if d == 1:
        return row
    return {col: Fraction(v, d) if v % d else v // d for col, v in row.items()}


def rref(rows):
    """Reduced row echelon form of a list of sparse rows (inputs are not modified).

    Returns (reduced_rows, pivot_columns) ordered by pivot; zero rows are dropped.
    Each row is reduced against the pivots found so far, and a new pivot is then
    cleared from the earlier rows, so the rows stay fully reduced throughout.

    The elimination runs on integer numerators.  Each input row is scaled by the
    lcm of its denominators, and every row is kept primitive, with the gcd of its
    entries divided out and a positive entry, its pivot value, at its pivot.  To
    clear an entry a at a pivot of value d, a row is multiplied by d / gcd(a, d)
    (by the lcm of these over the pivots it meets) before the pivot row's
    multiple is subtracted.  Each row is divided by its pivot value once, at the
    end, so an entry is an int where it is integral and a Fraction otherwise.
    """
    basis = {}
    for row in rows:
        den = lcm(*(v.denominator for v in row.values()))
        row = {col: v.numerator * (den // v.denominator) for col, v in row.items() if v}
        hits = [(p, basis[p]) for p in row if p in basis]
        if hits:
            scale = lcm(*(prow[p] // gcd(row[p], prow[p]) for p, prow in hits))
            if scale != 1:
                row = {col: v * scale for col, v in row.items()}
            for p, prow in hits:
                add_scaled(row, -row[p] // prow[p], prow)
        if not row:
            continue
        p = min(row)
        row = _primitive(row, p)
        d = row[p]
        for q, other in basis.items():
            a = other.get(p)
            if a:
                g = gcd(a, d)
                if d != g:
                    other = {col: v * (d // g) for col, v in other.items()}
                basis[q] = _primitive(add_scaled(other, -a // g, row), q)
        basis[p] = row
    pivots = sorted(basis)
    return [_divided(basis[p], basis[p][p]) for p in pivots], pivots


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
    return particular, null_vectors(reduced, pivots, ncols)


def null_vectors(reduced, pivots, ncols):
    """The null space basis of an RREF system over the columns 0..ncols-1: for
    each free column f, 1 at f and -row[f] at the pivot of each row holding f."""
    pivot_set = set(pivots)
    return [{f: 1, **{p: -row[f] for row, p in zip(reduced, pivots) if f in row}}
            for f in range(ncols) if f not in pivot_set]


def invert(a_rows):
    """Exact inverse of a square matrix given as sparse rows over the columns
    0..n-1, as sparse rows, or None when singular."""
    n = len(a_rows)
    reduced, pivots = rref([{**row, n + i: 1} for i, row in enumerate(a_rows)])
    if pivots != list(range(n)):
        return None
    return [{j - n: v for j, v in row.items() if j >= n} for row in reduced]
