"""Helpers shared by the test modules: random draws, and the oracles and
constructions that only tests use, so src/cgrm keeps production paths."""

from dataclasses import replace
from fractions import Fraction

from hypothesis import strategies as st

from cgrm import cyb, dunkl
from cgrm.bd import all_pos_roots, cg_triple, orbit
from cgrm.frobenius import (LieSubalgebra, _first_leg_slices, carrier,
                            cg_boundary_functional, r_check)
from cgrm.linalg import add_scaled, solve_affine
from cgrm.polyops import PolyOp, _Images, _poly_cyb_residual
from cgrm.tensorops import MatrixN, SparseOp, WedgeElement, _flat

ZERO = Fraction(0)
ONE = Fraction(1)

scalars = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def wedge_elements(n, max_terms):
    """Wedge elements on V = Q^n with at most max_terms drawn terms."""
    idx = st.integers(min_value=1, max_value=n)
    term = st.tuples(idx, idx, idx, idx, scalars)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: WedgeElement.from_terms(n, (((a, b), (c, d), v) for a, b, c, d, v in ts)))


def random_rational(rng) -> Fraction:
    """Random nonzero rational with numerator and denominator drawn from [-9, 9] \\ {0}."""
    nonzero = [k for k in range(-9, 10) if k != 0]
    return Fraction(rng.choice(nonzero), rng.choice(nonzero))


def identity(n) -> MatrixN:
    """The identity of V."""
    return MatrixN(n, {(i, i): ONE for i in range(1, n + 1)})


def identity_op(n) -> SparseOp:
    """The identity of V (x) V."""
    return SparseOp(n, {(k, l): {(k, l): ONE} for k in range(1, n + 1) for l in range(1, n + 1)})


def kron(*factors: MatrixN) -> SparseOp:
    """factors[0] (x) factors[1] (x) ... as an operator on the matching tensor power of V."""
    cols = {(): {(): Fraction(1)}}
    for g in factors:
        bycol = {}
        for (i, k), v in g.entries.items():
            bycol.setdefault(k, []).append((i, v))
        cols = {inp + (k,): {out + (i,): x * y for out, x in col.items() for i, y in images}
                for inp, col in cols.items() for k, images in sorted(bycol.items())}
    return SparseOp(factors[0].n, cols)


def permutation_op(n) -> SparseOp:
    """P(u (x) v) = v (x) u."""
    return SparseOp(n, {(k, l): {(l, k): Fraction(1)}
                        for k in range(1, n + 1) for l in range(1, n + 1)})


def swap_conjugate(op: SparseOp) -> SparseOp:
    """P o op o P with P(u (x) v) = v (x) u, on two legs: the oracle for
    SparseOp.is_antisymmetric, which reads skewness in place."""
    cols = {}
    for (k, l), col in op.cols.items():
        cols[(l, k)] = {(j, i): v for (i, j), v in col.items()}
    return SparseOp(op.n, cols)


def exp_nilpotent(x: MatrixN, s=1) -> MatrixN:
    """exp(s X) as a finite sum; requires X nilpotent."""
    if not x.is_nilpotent():
        raise ValueError("matrix is not nilpotent")
    s = Fraction(s)
    total = identity(x.n)
    term = identity(x.n)
    k = 1
    while True:
        term = Fraction(s, k) * (term @ x)
        if term.is_zero():
            break
        total = total + term
        k += 1
    return total


def op_to_wedge(op: SparseOp) -> WedgeElement:
    """Inverse of wedge_to_op on antisymmetric operators; raises on anything else.

    The entry of e_i (x) e_j in column (k, l) is the coefficient of
    e_{ik} (x) e_{jl}; antisymmetry pairs it with the negated entry of
    e_{jl} (x) e_{ik}, so the earlier pair of each two carries the wedge term.
    """
    if not op.is_antisymmetric():
        raise ValueError("operator is not antisymmetric; no wedge form exists")
    n = op.n
    out = WedgeElement(n)
    for (i, j), (k, l), v in op.entries():
        if _flat(n, i, k) < _flat(n, j, l):
            out._accumulate((i, k), (j, l), 2 * v)
    return out


def poly_cyb_residual(op: PolyOp, lam, exps):
    """CYB_lambda of a two-variable operator evaluated on one three-variable
    monomial, as a zero-free dict {(a, b, c): Fraction}."""
    total, scale = _poly_cyb_residual(_Images(op), lam, exps)
    return {k: Fraction(v, scale) for k, v in total.items()}


def double_bracket_over_fractions(a: SparseOp, b: SparseOp) -> SparseOp:
    """The bilinear form [a12, b13] + [a12, b23] + [a13, b23] in Fraction
    throughout: the oracle for cyb.double_bracket(r), which is its value at
    a = b = r on integer numerators."""
    a12, a13 = cyb.embed(a, 12), cyb.embed(a, 13)
    b13, b23 = cyb.embed(b, 13), cyb.embed(b, 23)
    return a12.bracket(b13) + a12.bracket(b23) + a13.bracket(b23)


def dual_functional(f: LieSubalgebra, basis_list, index):
    """Elementary-dual coordinates of the functional dual to basis_list[index],
    where basis_list spans f; off-diagonal duals are coordinate functionals and
    the diagonal block is solved exactly."""
    n = f.n
    rows = [{(a - 1) * n + b - 1: v for (a, b), v in mat.entries.items()}
            for mat in basis_list]
    rhs = [ONE if k == index else ZERO for k in range(len(basis_list))]
    solved = solve_affine(rows, rhs, n * n)
    if solved is None:
        raise ValueError("dual functional system is inconsistent")
    particular, _ = solved
    return {(c // n + 1, c % n + 1): v for c, v in sorted(particular.items())}


def apply_r_check(r: SparseOp, eta) -> MatrixN:
    """(eta (x) 1) r for a functional in elementary-dual coordinates."""
    out = {}
    for pos, entries in _first_leg_slices(r).items():
        add_scaled(out, eta.get(pos, ZERO), entries)
    return MatrixN(r.n, out)


def sparse_rows(dense):
    """Rows {j: v} of a dense matrix, without its zeros; None stays None."""
    if dense is None:
        return None
    return [{j: v for j, v in enumerate(row) if v} for row in dense]


def with_dense_form(fd, form):
    """fd with its form replaced by a dense k x k form (or None)."""
    return replace(fd, form_rows=sparse_rows(form))


def dense_eval(eta, mat):
    """eta(mat) summed over all n^2 positions: the oracle for
    frobenius.eval_functional, which reads only the positions both hold."""
    n = mat.n
    return sum((eta.get((a, b), 0) * mat.entries.get((a, b), 0)
                for a in range(1, n + 1) for b in range(1, n + 1)), ZERO)


def boundary_frobenius(n, u, t):
    """The Frobenius data of the boundary solution b_cg(n, u, t) on its carrier,
    with the functional the contraction induces."""
    b = dunkl.b_cg(n, u, t)
    return r_check(b, carrier(b)), cg_boundary_functional(n, u, t)


def strict_pair_count(m: int, n: int) -> int:
    t = cg_triple(m, n)
    return sum(len(orbit(t, rho)) for rho in all_pos_roots(n))


def oracle_rref(rows, ncols):
    """Textbook dense Gauss-Jordan elimination over Fractions (int entries are
    converted first); returns (nonzero reduced rows, pivots)."""
    rows = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    top = 0
    for col in range(ncols):
        src = next((r for r in range(top, len(rows)) if rows[r][col] != 0), None)
        if src is None:
            continue
        rows[top], rows[src] = rows[src], rows[top]
        inv = 1 / rows[top][col]
        rows[top] = [v * inv for v in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[top])]
        pivots.append(col)
        top += 1
    return rows[:top], pivots
