"""Carriers of triangular solutions, maximal parabolic subalgebras, the induced
quasi-Frobenius structure, nilpotent orbit actions, and the Jordanian family."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import expand_in_rref, invert, rref, solve_affine
from .tensorops import MatrixN, SparseOp, kron, kron_sum2, wedge_to_op

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class LieSubalgebra:
    """Subspace of gl_n with a reduced basis; bracket_closed records whether it
    is actually a Lie subalgebra.

    The reduced rows are the basis matrices' entries, keyed by (i, j) position.
    When the span is closed, the expansions of the brackets [x_i, x_j] (i < j)
    found while checking closure are kept for structure_constants.
    """

    n: int
    basis: list
    bracket_closed: bool = True
    _rows: list = field(default_factory=list, repr=False)
    _pivots: list = field(default_factory=list, repr=False)
    _brackets: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_matrices(cls, n, mats):
        rows, pivots = rref([m.entries for m in mats])
        basis = [MatrixN(n, row) for row in rows]
        sub = cls(n=n, basis=basis, _rows=[m.entries for m in basis], _pivots=pivots)
        sub.bracket_closed = sub._check_closure()
        return sub

    @property
    def dimension(self):
        return len(self.basis)

    def contains(self, mat: MatrixN) -> bool:
        return self.coordinates(mat) is not None

    def coordinates(self, mat: MatrixN):
        """Coefficients of mat in the reduced basis, or None when outside the span."""
        return expand_in_rref(self._rows, self._pivots, mat.entries)

    def same_span(self, other) -> bool:
        return self.n == other.n and self._rows == other._rows

    def _check_closure(self) -> bool:
        brackets = {}
        for i, a in enumerate(self.basis):
            for j in range(i + 1, len(self.basis)):
                coords = self.coordinates(a.bracket(self.basis[j]))
                if coords is None:
                    return False
                sparse = [(s, c) for s, c in enumerate(coords) if c]
                if sparse:
                    brackets[(i, j)] = sparse
        self._brackets = brackets
        return True


def _first_leg_slices(r: SparseOp):
    """{(i, k): entries of the matrix sum_{j, l} r_{(i, j), (k, l)} e_{jl}}."""
    slices = {}
    for (i, j), (k, l), v in r.entries():
        sl = slices.setdefault((i, k), {})
        sl[(j, l)] = sl.get((j, l), ZERO) + v
    return slices


def carrier(r: SparseOp) -> LieSubalgebra:
    """Span of the first-leg contractions of an antisymmetric operator.

    Slices of a traceless wedge element are traceless; a slice with nonzero
    trace raises ValueError.  The result records whether the span closes under
    the bracket instead of raising, so callers can report failures.
    """
    if not r.is_antisymmetric():
        raise ValueError("carrier is only defined for antisymmetric operators")
    mats = [MatrixN(r.n, entries) for entries in _first_leg_slices(r).values()]
    if any(m.trace() != 0 for m in mats):
        raise ValueError("carrier slice has nonzero trace")
    return LieSubalgebra.from_matrices(r.n, mats)


def parabolic(m: int, n: int) -> LieSubalgebra:
    """Maximal parabolic subalgebra: off-diagonal e_{jl} with j <= m or l > m,
    together with the traceless diagonal."""
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    mats = []
    for j in range(1, n + 1):
        for l in range(1, n + 1):
            if j != l and (j <= m or l > m):
                mats.append(MatrixN.unit(n, j, l))
    for j in range(1, n):
        mats.append(MatrixN.unit(n, j, j) - MatrixN.unit(n, j + 1, j + 1))
    return LieSubalgebra.from_matrices(n, mats)


@dataclass
class FrobeniusData:
    """Matrix of the contraction isomorphism in the reduced dual basis, together
    with its inverse and the induced two-form."""

    subalgebra: LieSubalgebra
    r_check_matrix: list
    r_check_inverse: list = None
    form: list = None

    @property
    def invertible(self):
        return self.r_check_inverse is not None

    @property
    def skew(self):
        if self.form is None:
            return False
        k = len(self.form)
        return all(self.form[i][j] == -self.form[j][i] for i in range(k) for j in range(k))


def r_check(r: SparseOp, f: LieSubalgebra) -> FrobeniusData:
    """Matrix of xi -> (xi (x) 1) r on the dual of the reduced carrier basis.

    Because the basis is row reduced, the dual basis extends to coordinate
    functionals at the pivot positions, and the contraction against a pivot
    functional is exactly the corresponding first-leg slice.
    """
    n = r.n
    k = f.dimension
    slices = _first_leg_slices(r)
    columns = []
    for pivot in f._pivots:
        image = MatrixN(n, slices.get(pivot, {}))
        coords = f.coordinates(image)
        if coords is None:
            raise ValueError("contraction image leaves the carrier")
        columns.append(coords)
    matrix = [[columns[i][j] for i in range(k)] for j in range(k)]
    inverse = invert(matrix)
    if inverse is None:
        return FrobeniusData(subalgebra=f, r_check_matrix=matrix)
    form = [[inverse[j][i] for j in range(k)] for i in range(k)]
    return FrobeniusData(subalgebra=f, r_check_matrix=matrix,
                         r_check_inverse=inverse, form=form)


def structure_constants(f: LieSubalgebra):
    """Sparse expansion coefficients of all pairwise brackets of basis elements.

    They are the expansions recorded by the closure check; (j, i) is (i, j)
    negated, since [b, a] = -[a, b] exactly.
    """
    if not f.bracket_closed:
        raise ValueError("subalgebra is not bracket closed")
    consts = {}
    for (i, j), coeffs in f._brackets.items():
        consts[(i, j)] = coeffs
        consts[(j, i)] = [(s, -c) for s, c in coeffs]
    return consts


def cocycle_check(fd: FrobeniusData) -> bool:
    """The two-form built from the inverse contraction satisfies the cocycle
    identity on every basis triple.

    Repeated indices and permutations follow formally from skewness, so only
    strictly increasing triples i < j < l are checked, after skewness.  With
    w_ab = F([x_a, x_b], .) for a < b, the identity there reads
    w_ij(l) - w_il(j) + w_jl(i) = 0, so each nonzero w_ab(c) is added, negated
    when a < c < b, to the sum of its triple, and all other sums are zero.
    """
    if not fd.invertible or not fd.skew:
        return False
    form_rows = [{l: v for l, v in enumerate(row) if v} for row in fd.form]
    totals = {}
    for (a, b), coeffs in structure_constants(fd.subalgebra).items():
        if a > b:
            continue
        w = {}
        for s, c in coeffs:
            for l, v in form_rows[s].items():
                w[l] = w.get(l, ZERO) + c * v
        for l, v in w.items():
            if l == a or l == b:
                continue
            if l < a:
                key = (l, a, b)
            elif l < b:
                key, v = (a, l, b), -v
            else:
                key = (a, b, l)
            totals[key] = totals.get(key, ZERO) + v
    return not any(totals.values())


def eval_functional(eta, mat: MatrixN):
    """Apply a functional given by elementary-dual coefficients {(a, b): c}."""
    return sum((c * mat.entries.get(pos, ZERO) for pos, c in eta.items()), ZERO)


def frobenius_functional_check(fd: FrobeniusData, eta) -> bool:
    """eta([X, Y]) must reproduce the inverse-contraction form F(X, Y) =
    <r_check^{-1} X, Y> on all basis pairs, and the induced two-form must be
    nondegenerate.  (The two orders of the pairing differ by the skew sign;
    this orientation is the one the computed map satisfies.)

    eta([X, X]) = 0 and eta([Y, X]) = -eta([X, Y]) exactly, so the brackets are
    evaluated for i < j only, against a zero diagonal and the skew entry; the
    form then equals the Gram matrix of eta([., .]), whose inverse is tested.
    eta([x_i, x_j]) is sum_s c_s eta(x_s) over the bracket expansions kept by
    the closure check, so a span that is not bracket closed fails.
    """
    f = fd.subalgebra
    if not fd.invertible or not f.bracket_closed:
        return False
    values = [eval_functional(eta, x) for x in f.basis]
    form = fd.form
    for i in range(len(values)):
        if form[i][i] != 0:
            return False
        for j in range(i + 1, len(values)):
            value = sum((c * values[s] for s, c in f._brackets.get((i, j), ())), ZERO)
            if value != form[i][j] or -value != form[j][i]:
                return False
    return invert(form) is not None


def cg_boundary_functional(n: int, u, t):
    """Frobenius functional of the two-parameter boundary family.

    This is the functional the inverse contraction actually induces (verified
    exactly; the well-known displayed form writes -t for -1/t at position
    (n, n-1), omits the t e_{n-1,n}* term, and carries an extra -2 e_{nn}*
    that does not annihilate the derived subalgebra).
    """
    u, t = Fraction(u), Fraction(t)
    eta = {(j, j + 2): 1 / u for j in range(1, n - 1)}
    eta[(n, n - 1)] = -1 / t
    eta[(n - 1, n)] = t
    eta[(n - 1, n - 1)] = Fraction(2)
    return eta


def cg_boundary_functional_displayed(n: int, u, t):
    """Literal transcription of the commonly displayed functional; kept for the
    regression test that documents its failure against the inverse contraction."""
    u, t = Fraction(u), Fraction(t)
    eta = {(j, j + 2): 1 / u for j in range(1, n - 1)}
    eta[(n, n - 1)] = -t
    eta[(n - 1, n - 1)] = Fraction(2)
    eta[(n, n)] = Fraction(-2)
    return eta


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
    n = r.n
    out = {}
    for (i, j), (k, l), v in r.entries():
        c = eta.get((i, k), ZERO)
        if c:
            key = (j, l)
            out[key] = out.get(key, ZERO) + c * v
    return MatrixN(n, out)


def nilpotent_exp_action(x: MatrixN, s, r: SparseOp) -> SparseOp:
    """Conjugate r by exp(sX) (x) exp(sX); X must be nilpotent."""
    if not x.is_nilpotent():
        raise ValueError("X must be nilpotent")
    g = x.exp_nilpotent(s)
    ginv = x.exp_nilpotent(-Fraction(s))
    big = kron(g, g)
    big_inv = kron(ginv, ginv)
    return big @ r @ big_inv


def jordanian_x(n: int) -> MatrixN:
    """(1/2) sum of (n - k) e_{k,k+1}."""
    return MatrixN(n, {(k, k + 1): Fraction(n - k, 2) for k in range(1, n)})


def jordanian(n: int) -> SparseOp:
    """Leg-wise bracket of the weighted super-diagonal against the (1, n) solution."""
    from .bd import bd_r_matrix
    r = wedge_to_op(bd_r_matrix(1, n))
    d = kron_sum2(jordanian_x(n))
    return d @ r - r @ d
