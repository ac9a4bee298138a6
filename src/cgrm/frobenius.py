"""Carriers of triangular solutions, maximal parabolic subalgebras, the induced
quasi-Frobenius structure, nilpotent orbit actions, and the Jordanian family."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from types import MappingProxyType

from .bd import bd_r_matrix
from .linalg import add_scaled, expand_in_rref, invert, rank, rref
from .tensorops import MatrixN, SparseOp, kron_sum2, wedge_to_op

ZERO = Fraction(0)


def _closure(basis, rows, pivots):
    """Sparse expansions {(i, j): {s: c}} of the nonzero brackets [x_i, x_j],
    i < j, or None as soon as one leaves the span.

    Only the pairs that interact are expanded: a column index of one is a row
    index of the other.  Otherwise both products in x_i x_j - x_j x_i are zero,
    so the bracket is exactly zero and in the span.  Pairs run in (i, j) order,
    as over all pairs.
    """
    by_row, by_col = {}, {}
    for i, x in enumerate(basis):
        for (a, b) in x.entries:
            by_row.setdefault(a, set()).add(i)
            by_col.setdefault(b, set()).add(i)
    brackets = {}
    for i, x in enumerate(basis):
        partners = set()
        for (a, b) in x.entries:
            partners.update(by_row.get(b, ()))
            partners.update(by_col.get(a, ()))
        for j in sorted(j for j in partners if j > i):
            coords = expand_in_rref(rows, pivots, x.bracket(basis[j]).entries)
            if coords is None:
                return None
            if coords:
                brackets[(i, j)] = coords
    return brackets


@dataclass(frozen=True)
class LieSubalgebra:
    """Span of sparse rows in gl_n, keyed by (i, j) position, with its reduced
    basis; bracket_closed says whether it is a Lie subalgebra.

    _rows are the basis matrices' entries and _pivots their pivot positions.
    _brackets holds the closure's expansions, which structure_constants views,
    or None when a bracket leaves the span.
    """

    n: int
    basis: list
    _rows: list = field(repr=False)
    _pivots: list = field(repr=False)
    _brackets: dict = field(repr=False)

    @classmethod
    def from_rows(cls, n, rows):
        reduced, pivots = rref(rows)
        basis = [MatrixN(n, row) for row in reduced]
        # Span queries walk these compact copies: rref's own rows lost entries
        # during elimination, and a dict keeps the slots of deleted keys.
        rows = [x.entries for x in basis]
        return cls(n, basis, rows, pivots, _closure(basis, rows, pivots))

    @property
    def bracket_closed(self):
        return self._brackets is not None

    @property
    def dimension(self):
        return len(self.basis)

    def coordinates(self, entries):
        """Sparse coefficients {basis index: c} of the sparse row entries in the
        reduced basis, or None when outside the span."""
        return expand_in_rref(self._rows, self._pivots, entries)

    def same_span(self, other) -> bool:
        return self.n == other.n and self._rows == other._rows


def _first_leg_slices(r: SparseOp):
    """{(i, k): entries of the matrix sum_{j, l} r_{(i, j), (k, l)} e_{jl}}; each
    entry of r fills its own position, so no slice stores a zero."""
    slices = {}
    for (i, j), (k, l), v in r.entries():
        slices.setdefault((i, k), {})[(j, l)] = v
    return slices


def carrier(r: SparseOp) -> LieSubalgebra:
    """Span of the first-leg contractions of an antisymmetric operator.

    Slices of a traceless wedge element are traceless; a slice with nonzero
    trace raises ValueError.  The result records whether the span closes under
    the bracket instead of raising, so callers can report failures.
    """
    if not r.is_antisymmetric():
        raise ValueError("operator is not antisymmetric")
    slices = list(_first_leg_slices(r).values())
    if any(sum((v for (i, j), v in sl.items() if i == j), ZERO) for sl in slices):
        raise ValueError("carrier slice has nonzero trace")
    return LieSubalgebra.from_rows(r.n, slices)


def parabolic(m: int, n: int) -> LieSubalgebra:
    """Maximal parabolic subalgebra: off-diagonal e_{jl} with j <= m or l > m,
    together with the traceless diagonal, spanned by e_{jj} - e_{nn}, j < n,
    which is already its reduced form."""
    if not 1 <= m < n:
        raise ValueError("the parabolic block size m must satisfy 1 <= m < n")
    rows = [{(j, l): 1} for j in range(1, n + 1) for l in range(1, n + 1)
            if j != l and (j <= m or l > m)]
    rows += [{(j, j): 1, (n, n): -1} for j in range(1, n)]
    return LieSubalgebra.from_rows(n, rows)


@dataclass(frozen=True)
class FrobeniusData:
    """The two-form induced by the contraction on the reduced carrier basis,
    stored once as sparse rows {j: F[i][j]}, or None when the contraction is
    singular.  The data is frozen: a changed form is a new instance
    (dataclasses.replace).  form and r_check_inverse are dense k x k views,
    built anew on each access."""

    subalgebra: LieSubalgebra
    form_rows: list = None

    @property
    def invertible(self):
        return self.form_rows is not None

    @property
    def form(self):
        rows = self.form_rows
        if rows is None:
            return None
        return [[row.get(j, ZERO) for j in range(len(rows))] for row in rows]

    @property
    def r_check_inverse(self):
        """The inverse contraction matrix: the form's transpose."""
        rows = self.form_rows
        if rows is None:
            return None
        return [[row.get(i, ZERO) for row in rows] for i in range(len(rows))]

    @property
    def skew(self):
        """form[j][i] = -form[i][j] at every nonzero form[i][j], compared by
        numerator and denominator so that no entry is negated; at i = j this
        rejects every nonzero diagonal entry."""
        rows = self.form_rows
        if rows is None:
            return False
        for i, row in enumerate(rows):
            for j, a in row.items():
                b = rows[j].get(i)
                if b is None or a.numerator != -b.numerator or a.denominator != b.denominator:
                    return False
        return True


def r_check(r: SparseOp, f: LieSubalgebra) -> FrobeniusData:
    """The contraction xi -> (xi (x) 1) r on the dual of the reduced carrier
    basis, and the form it induces.

    Because the basis is row reduced, the dual basis extends to coordinate
    functionals at the pivot positions, and the contraction against a pivot
    functional is exactly the corresponding first-leg slice.  The slice's
    coordinates are column i of the contraction matrix M, so row i of M^T, and
    the form (M^-1)^T = (M^T)^-1 is the inverse of those rows.
    """
    slices = _first_leg_slices(r)
    rows = []
    for pivot in f._pivots:
        coords = f.coordinates(slices.get(pivot, {}))
        if coords is None:
            raise ValueError("contraction image leaves the carrier")
        rows.append(coords)
    return FrobeniusData(subalgebra=f, form_rows=invert(rows))


def structure_constants(f: LieSubalgebra):
    """Sparse expansions {(i, j): {s: c}} of the nonzero brackets [x_i, x_j],
    i < j, of basis elements: a read-only view of the table the closure check
    recorded.  [x_j, x_i] is the negation, since [b, a] = -[a, b] exactly.
    """
    if not f.bracket_closed:
        raise ValueError("subalgebra is not bracket closed")
    return MappingProxyType(f._brackets)


def cocycle_check(fd: FrobeniusData) -> bool:
    """The two-form built from the inverse contraction satisfies the cocycle
    identity on every basis triple.

    Repeated indices and permutations follow formally from skewness, so only
    strictly increasing triples i < j < l are checked, after skewness.  With
    w_ab = F([x_a, x_b], .) for the pairs a < b that structure_constants holds,
    the identity there reads w_ij(l) - w_il(j) + w_jl(i) = 0, so each nonzero
    w_ab(c) is added, negated when a < c < b, to the sum of its triple, and all
    other sums are zero.  A span that is not bracket closed fails, as in
    frobenius_functional_check.
    """
    if not fd.invertible or not fd.skew:
        return False
    if not fd.subalgebra.bracket_closed:
        return False
    form_rows = fd.form_rows
    totals = {}
    for (a, b), coeffs in structure_constants(fd.subalgebra).items():
        w = {}
        for s, c in coeffs.items():
            add_scaled(w, c, form_rows[s])
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

    eta([x_i, x_j]) is sum_s c_s eta(x_s) over the bracket expansions kept by
    the closure check, so a span that is not bracket closed fails.  Those are
    all the nonzero brackets, so the Gram matrix G of eta([., .]) is built on
    its nonzeros, G_ij for i < j and G_ji = -G_ij, and its diagonal is zero.
    The form equals G when the two have equally many nonzero entries and each
    nonzero entry of the form equals G's entry at the same position.  It is
    then nondegenerate when its sparse rows have full rank.
    """
    f = fd.subalgebra
    if not fd.invertible or not f.bracket_closed:
        return False
    values = [eval_functional(eta, x) for x in f.basis]
    gram = {}
    for (i, j), coeffs in structure_constants(f).items():
        value = sum((c * values[s] for s, c in coeffs.items() if values[s]), ZERO)
        if value:
            gram[(i, j)], gram[(j, i)] = value, -value
    rows = fd.form_rows
    return (sum(map(len, rows)) == len(gram)
            and all(v == gram.get((i, j)) for i, row in enumerate(rows) for j, v in row.items())
            and rank(rows) == len(rows))


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


def nilpotent_exp_action(x: MatrixN, s, r: SparseOp) -> SparseOp:
    """Conjugate r by exp(sX) (x) exp(sX); X must be nilpotent.

    With Y = X (x) 1 + 1 (x) X, exp(sX) (x) exp(sX) = exp(sY), and conjugating
    by it is exp(s ad Y) r = sum_k s^k/k! (ad Y)^k r.  ad Y is nilpotent with X,
    so the series ends at its first zero term; each term is one bracket.
    """
    if not x.is_nilpotent():
        raise ValueError("matrix is not nilpotent")
    y = kron_sum2(x)
    s = Fraction(s)
    total = term = r
    for k in count(1):
        term = s / k * y.bracket(term)
        if term.is_zero():
            return total
        total = total + term


def jordanian_x(n: int) -> MatrixN:
    """(1/2) sum of (n - k) e_{k,k+1}."""
    return MatrixN(n, {(k, k + 1): Fraction(n - k, 2) for k in range(1, n)})


def jordanian(n: int) -> SparseOp:
    """Leg-wise bracket of the weighted super-diagonal against the (1, n) solution."""
    return kron_sum2(jordanian_x(n)).bracket(wedge_to_op(bd_r_matrix(1, n)))
