"""Root-system data for sl_n: BD-triples, the induced partial order on positive
roots, and the alpha/beta/gamma pieces of the quasitriangular construction."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .linalg import add_scaled, null_vectors, rref, solve_affine
from .tensorops import WedgeElement


class PosRoot(namedtuple("PosRoot", "i j")):
    """The positive root e_i - e_j (i < j), with root vector e_{ij}.

    An (i, j) tuple, so hashing, equality and order are the tuple's.
    """

    __slots__ = ()

    def __new__(cls, i, j):
        if not 1 <= i < j:
            raise ValueError("not a positive root: (%d, %d)" % (i, j))
        return tuple.__new__(cls, (i, j))

    def simples(self):
        """Indices of the simple roots in the decomposition e_i - e_j = a_i + ... + a_{j-1}."""
        return range(self.i, self.j)


def cartan_pairing(i: int, j: int) -> int:
    """<a_i, a_j> for the A-series Cartan matrix (trace-form normalization)."""
    if i == j:
        return 2
    if abs(i - j) == 1:
        return -1
    return 0


class BDTriple:
    """A Belavin-Drinfeld triple of sl_n, built from its map zeta alone.

    zeta sends simple-root indices to simple-root indices; S0 is its domain
    and S1 its image.  zeta must be injective, preserve the Cartan pairing and
    satisfy the nilpotency condition (every index escapes S0 under iteration).
    The order on positive roots comes from zeta_hat, the Z-linear extension of
    zeta, for every triple.
    """

    __slots__ = ("n", "s0", "s1", "zeta", "_orbits")

    def __init__(self, n, zeta):
        self.n = n
        self.zeta = dict(zeta)
        self.s0 = frozenset(self.zeta)
        self.s1 = frozenset(self.zeta.values())
        self._orbits = {}
        self._validate()

    def _validate(self):
        simple = set(range(1, self.n))
        if not (self.s0 <= simple and self.s1 <= simple):
            raise ValueError("S0/S1 must consist of simple-root indices 1..n-1")
        if len(self.s1) != len(self.zeta):
            raise ValueError("zeta is not injective")
        for a in self.s0:
            for b in self.s0:
                if cartan_pairing(self.zeta[a], self.zeta[b]) != cartan_pairing(a, b):
                    raise ValueError("zeta violates the orthogonality condition")
        for a in self.s0:
            seen = set()
            cur = a
            while cur in self.s0:
                if cur in seen:
                    raise ValueError("zeta violates the nilpotency condition")
                seen.add(cur)
                cur = self.zeta[cur]

    def __repr__(self):
        return "BDTriple(n=%d, s0=%r, s1=%r)" % (self.n, sorted(self.s0), sorted(self.s1))


def require_coprime(m: int, n: int) -> None:
    """Raise ValueError unless (m, n) is a construction pair: 1 <= m < n, coprime."""
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    if gcd(m, n) != 1:
        raise ValueError("m and n must be coprime")


def cg_triple(m: int, n: int) -> BDTriple:
    """The maximal triple for coprime m < n: drop a_{n-m} from S0, a_m from S1,
    and shift indices by m modulo n."""
    require_coprime(m, n)
    return BDTriple(n, {s: (s + m) % n for s in range(1, n) if s != n - m})


def zeta_hat(t: BDTriple, r: PosRoot):
    """Z-linear extension of zeta applied to a positive root, or None when some
    simple component falls outside S0."""
    images = []
    for s in r.simples():
        if s not in t.s0:
            return None
        images.append(t.zeta[s])
    images.sort()
    lo, hi = images[0], images[-1]
    if images != list(range(lo, hi + 1)):
        raise ValueError("zeta image of a root is not a root")
    return PosRoot(lo, hi + 1)


def orbit(t: BDTriple, rho: PosRoot):
    """Strict forward iterates zeta_hat(rho), zeta_hat^2(rho), ... as a tuple.

    Memoized through the successor: orbit(rho) = (zeta_hat(rho),) +
    orbit(zeta_hat(rho)).  The walk from rho stops at the first root whose
    orbit is known, and fills in every root on its path, so zeta_hat runs
    once per root of a triple.
    """
    orbits = t._orbits
    cached = orbits.get(rho)
    if cached is not None:
        return cached
    path = [rho]
    tail = ()
    limit = t.n * t.n + 1
    while True:
        nxt = zeta_hat(t, path[-1])
        if nxt is None:
            break
        known = orbits.get(nxt)
        if known is not None:
            tail = (nxt,) + known
            break
        path.append(nxt)
        if len(path) > limit:
            raise RuntimeError("zeta iteration failed to terminate")
    for root in reversed(path):
        orbits[root] = tail
        tail = (root,) + tail
    return orbits[rho]


def all_pos_roots(n):
    return [PosRoot(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def alpha_part(m: int, n: int) -> WedgeElement:
    """2 * sum of e_rho ^ e_{-mu} over all strictly ordered pairs rho < mu."""
    t = cg_triple(m, n)
    return WedgeElement.from_terms(n, (((rho.i, rho.j), (mu.j, mu.i), 2)
                                       for rho in all_pos_roots(n) for mu in orbit(t, rho)))


def beta_part(m: int, n: int) -> WedgeElement:
    """The diagonal part: sum over j < l of (-1 + (2/n)[(j-l) m^{-1} mod n]) e_jj ^ e_ll."""
    require_coprime(m, n)
    m_inv = pow(m, -1, n)
    return WedgeElement.from_terms(
        n, (((j, j), (l, l), Fraction(-1) + Fraction(2, n) * (((j - l) * m_inv) % n))
            for j in range(1, n + 1) for l in range(j + 1, n + 1)))


def gamma_part(n: int) -> WedgeElement:
    """sum over j < l of e_{jl} ^ e_{lj}."""
    if n < 2:
        raise ValueError("need n >= 2")
    return WedgeElement.from_terms(
        n, (((j, l), (l, j), 1) for j in range(1, n + 1) for l in range(j + 1, n + 1)))


def bd_r_matrix(m: int, n: int) -> WedgeElement:
    """Quasitriangular solution alpha + beta + gamma attached to the (m, n) triple."""
    return alpha_part(m, n) + beta_part(m, n) + gamma_part(n)


def _beta_columns(t: BDTriple):
    """The columns (f, v) of F and V in the beta-variety equation C F = V.

    C is the antisymmetric matrix of coefficients of e_jj ^ e_ll (C_jl for j < l).
    Its row sums vanish (h ^ h membership): f = 1, v = 0.  For each a_s in S0
    the contraction (1 (x) f) of sum C_jl/2 e_jj (x) e_ll with f = a_zeta(s) - a_s
    is half the sum of the trace-form duals of a_s and its image:
    C f = h_zeta(s) + h_s, where h_a = e_aa - e_{a+1,a+1} is the dual of a_a.
    Columns are sparse maps over the diagonal positions 0..n-1.  The dense
    column of ones comes last: eliminated first, it would fill every other row.
    """
    def h(a):
        return {a - 1: 1, a: -1}
    columns = []
    for s in sorted(t.s0):
        z = t.zeta[s]
        columns.append((add_scaled(h(z), -1, h(s)), add_scaled(h(z), 1, h(s))))
    return columns + [(dict.fromkeys(range(t.n), 1), {})]


def verify_beta_variety(t: BDTriple, b: WedgeElement) -> bool:
    """Check b, which must lie in h ^ h, against the C F = V that solve_beta_variety solves."""
    if b.n != t.n:
        raise ValueError("element is for n = %d, triple for n = %d" % (b.n, t.n))
    c = [{} for _ in range(t.n)]
    for ((a, bb), (d, e)), v in b.terms.items():
        if a != bb or d != e:
            raise ValueError("element does not lie in the diagonal wedge square")
        c[a - 1][d - 1], c[d - 1][a - 1] = v, -v
    if any(sum(row.values()) for row in c):
        raise ValueError("element does not lie in h ^ h (nonzero trace leg)")
    return all(sum(row.get(l, 0) * x for l, x in f.items()) == v.get(d, 0)
               for f, v in _beta_columns(t)[:-1] for d, row in enumerate(c))


def solve_beta_variety(t: BDTriple):
    """Solve C F = V exactly for an antisymmetric C.

    One rref of F^T, with row d of V as the right-hand side in column n + d,
    gives each row d of C as a particular row plus sum_f t_{d,f} k_f over the
    null vectors k_f of F^T.  Antisymmetry fixes the t_{d,f} through one small
    affine system, whose nullity is the affine dimension of the variety.
    Returns (solution WedgeElement, affine dimension), or None if inconsistent.
    """
    n = t.n
    reduced, pivots = rref([{**f, **{n + d: x for d, x in v.items()}}
                            for f, v in _beta_columns(t)])
    if pivots and pivots[-1] >= n:
        return None
    null = null_vectors(reduced, pivots, n)
    part = [{p: row[n + d] for row, p in zip(reduced, pivots) if n + d in row}
            for d in range(n)]
    r = len(null)
    rows, rhs = [], []
    for d in range(n):
        for l in range(d, n):
            row = {d * r + i: k[l] for i, k in enumerate(null) if l in k}
            add_scaled(row, 1, {l * r + i: k[d] for i, k in enumerate(null) if d in k})
            rows.append(row)
            rhs.append(-part[d].get(l, 0) - part[l].get(d, 0))
    solved = solve_affine(rows, rhs, n * r)
    if solved is None:
        return None
    coeffs, null_basis = solved
    for key, x in coeffs.items():
        d, i = divmod(key, r)
        add_scaled(part[d], x, null[i])
    sol = WedgeElement.from_terms(
        n, (((d + 1, d + 1), (l + 1, l + 1), x)
            for d, row in enumerate(part) for l, x in row.items() if l > d))
    return sol, len(null_basis)
