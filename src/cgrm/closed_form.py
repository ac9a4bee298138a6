"""Closed-form action of the generalized Cremmer-Gervais solutions on basis
columns of V (x) V, the psi permutation, the diagram involution, and the
specialized m = 1 and m = 2 displays."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import wheels
from .bd import require_coprime
from .scalars import sgn
from .tensorops import MatrixN, SparseOp

ZERO = Fraction(0)
HALF = Fraction(1, 2)


def psi(m: int, n: int, j: int) -> int:
    """The unique value in 1..n with m * psi_j = j modulo n."""
    if not 1 <= j <= n:
        raise ValueError("j out of range")
    v = (j * pow(m, -1, n)) % n
    return v if v else n


@lru_cache(maxsize=None)
def psi_values(m: int, n: int) -> tuple:
    """(psi_1, ..., psi_n), checked to be a permutation of 1..n fixing n."""
    require_coprime(m, n)
    values = tuple(psi(m, n, j) for j in range(1, n + 1))
    if sorted(values) != list(range(1, n + 1)):
        raise ValueError("psi must be a permutation")
    if values[-1] != n:
        raise ValueError("psi must fix n")
    for j, pj in enumerate(values, start=1):
        if (m * pj - j) % n:
            raise ValueError("m * psi_%d must equal %d modulo n" % (j, j))
    return values


@lru_cache(maxsize=None)
def cg_column(m: int, n: int, j: int, l: int):
    """Image of e_j (x) e_l under the (m, n) closed form, as a sparse column.

    Each s in the aligned index set sbar_closed(w, n+1-j, n+1-l) contributes
    e_{n+1-s} (x) e_{j+l-n-1+s}, and each s in sbar_closed(w, n+1-l, n+1-j)
    subtracts the swapped term; a produced subscript out of range raises
    ValueError rather than being clamped.
    """
    w = wheels.wheel(m, n)
    col = {}

    def add(i, k, v):
        if not (1 <= i <= n and 1 <= k <= n):
            raise ValueError("closed form produced an out-of-range index")
        key = (i, k)
        col[key] = col.get(key, ZERO) + v
        if col[key] == 0:
            del col[key]

    for s in wheels.sbar_closed(w, n + 1 - j, n + 1 - l):
        add(n + 1 - s, j + l - n - 1 + s, Fraction(1))
    for s in wheels.sbar_closed(w, n + 1 - l, n + 1 - j):
        add(j + l - n - 1 + s, n + 1 - s, Fraction(-1))

    pv = psi_values(m, n)
    dpsi = pv[j - 1] - pv[l - 1]
    add(j, l, Fraction(sgn(dpsi), 2) - Fraction(dpsi, n))
    add(l, j, -Fraction(sgn(j - l), 2))
    return col


def cg_closed_form(m: int, n: int) -> SparseOp:
    """The full operator; note the construction pair (m, n) yields the solution
    attached to the mirrored pair (n - m, n)."""
    require_coprime(m, n)
    cols = {}
    for j in range(1, n + 1):
        for l in range(1, n + 1):
            col = cg_column(m, n, j, l)
            if col:
                cols[(j, l)] = col
    return SparseOp(n, cols)


def cg_m1_display(n: int) -> SparseOp:
    """Direct implementation of the m = 1 specialization."""
    if n < 2:
        raise ValueError("need n >= 2")
    cols = {}
    for j in range(1, n + 1):
        for l in range(1, n + 1):
            col = {}
            s = sgn(j - l)
            if s:
                col[(j, l)] = HALF * s - Fraction(j - l, n)
                col[(l, j)] = HALF * s
                for mid in range(min(j, l) + 1, max(j, l)):
                    col[(mid, j + l - mid)] = col.get((mid, j + l - mid), ZERO) + s
            if col:
                cols[(j, l)] = {k: v for k, v in col.items() if v != 0}
    return SparseOp(n, cols)


def cg_m2_display(n: int) -> SparseOp:
    """Direct implementation of the m = 2 specialization (n odd)."""
    if n < 3 or n % 2 == 0:
        raise ValueError("need odd n >= 3")
    cols = {}
    for j in range(1, n + 1):
        for l in range(1, n + 1):
            col = {}

            def add(i, k, v):
                col[(i, k)] = col.get((i, k), ZERO) + v

            for big_n in range((j - l - 1) // 2 + 1):
                add(l + 2 * big_n, j - 2 * big_n, Fraction(1))
            for big_n in range((l - j - 1) // 2 + 1):
                add(l - 2 * big_n, j + 2 * big_n, Fraction(-1))
            if j % 2 == 0 and l % 2 == 0:
                add(j - 1, l + 1, Fraction(1))
                add(j + 1, l - 1, Fraction(-1))
            scalar = HALF - Fraction(((j - l) * (n + 1) // 2) % n, n)
            if j == l:
                scalar -= HALF
            add(j, l, scalar)
            add(l, j, -HALF * sgn(j - l))
            col = {k: v for k, v in col.items() if v != 0}
            if col:
                cols[(j, l)] = col
    return SparseOp(n, cols)


def phi_twist(x):
    """Apply the involutive diagram automorphism e_{jl} -> -e_{n+1-l, n+1-j}
    leg-wise, to a matrix or to an operator with any number of legs: the entry
    at out o, in i moves to out n+1-i, in n+1-o, index by index, times
    (-1)^legs.  The move is a bijection of entries, so nothing is summed."""
    if isinstance(x, MatrixN):
        n = x.n
        return MatrixN(n, {(n + 1 - j, n + 1 - i): -v for (i, j), v in x.entries.items()})
    if isinstance(x, SparseOp):
        n = x.n
        cols = {}
        for out, inp, v in x.entries():
            col = cols.setdefault(tuple(n + 1 - a for a in out), {})
            col[tuple(n + 1 - a for a in inp)] = (-1) ** len(out) * v
        return SparseOp(n, cols)
    raise TypeError("unsupported type for phi_twist: %r" % type(x))
