"""Root-system data for sl_n: BD-triples, the induced partial order on positive
roots, and the alpha/beta/gamma pieces of the quasitriangular construction."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .linalg import solve_affine
from .tensorops import WedgeElement

ZERO = Fraction(0)


@dataclass(frozen=True, order=True)
class PosRoot:
    """The positive root e_i - e_j (i < j), with root vector e_{ij}."""

    i: int
    j: int

    def __post_init__(self):
        if not 1 <= self.i < self.j:
            raise ValueError("not a positive root: (%d, %d)" % (self.i, self.j))

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
    """Subsets S0, S1 of simple-root indices of sl_n with a bijection zeta: S0 -> S1.

    zeta must preserve the Cartan pairing and satisfy the nilpotency condition
    (every index escapes S0 under iteration).  When the triple comes from
    cg_triple, cg_m records the shift so root images can be computed in O(1).
    """

    __slots__ = ("n", "s0", "s1", "zeta", "cg_m", "_orbits")

    def __init__(self, n, s0, s1, zeta, cg_m=None):
        self.n = n
        self.s0 = frozenset(s0)
        self.s1 = frozenset(s1)
        self.zeta = dict(zeta)
        self.cg_m = cg_m
        self._orbits = {}
        self._validate()

    def _validate(self):
        simple = set(range(1, self.n))
        if not (self.s0 <= simple and self.s1 <= simple):
            raise ValueError("S0/S1 must consist of simple-root indices 1..n-1")
        if set(self.zeta) != self.s0 or set(self.zeta.values()) != self.s1:
            raise ValueError("zeta is not a bijection S0 -> S1")
        if len(set(self.zeta.values())) != len(self.zeta):
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
    s0 = set(range(1, n)) - {n - m}
    s1 = set(range(1, n)) - {m}
    zeta = {s: (s + m) % n for s in s0}
    return BDTriple(n, s0, s1, zeta, cg_m=m)


def zeta_hat(t: BDTriple, r: PosRoot):
    """Z-linear extension of zeta applied to a positive root, or None when some
    simple component falls outside S0."""
    m = t.cg_m
    if m is not None:
        if r.i <= t.n - m <= r.j - 1:
            return None
        if r.j + m <= t.n:
            return PosRoot(r.i + m, r.j + m)
        return PosRoot(r.i + m - t.n, r.j + m - t.n)
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
    """Strict forward iterates zeta_hat(rho), zeta_hat^2(rho), ... as a tuple."""
    cached = t._orbits.get(rho)
    if cached is not None:
        return cached
    chain = []
    cur = rho
    limit = t.n * t.n + 1
    while True:
        cur = zeta_hat(t, cur)
        if cur is None:
            break
        chain.append(cur)
        if len(chain) > limit:
            raise RuntimeError("zeta iteration failed to terminate")
    result = tuple(chain)
    t._orbits[rho] = result
    return result


def precedes(t: BDTriple, rho: PosRoot, mu: PosRoot, allow_equal: bool = False) -> bool:
    """Whether some iterate of the extended zeta sends rho to mu (N >= 1; N >= 0
    when allow_equal)."""
    if allow_equal and rho == mu:
        return True
    return mu in orbit(t, rho)


def all_pos_roots(n):
    return [PosRoot(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def alpha_part(m: int, n: int) -> WedgeElement:
    """2 * sum of e_rho ^ e_{-mu} over all strictly ordered pairs rho < mu."""
    t = cg_triple(m, n)
    return WedgeElement.from_terms(n, (((rho.i, rho.j), (mu.j, mu.i), 2)
                                       for rho in all_pos_roots(n) for mu in orbit(t, rho)))


def strict_pair_count(m: int, n: int) -> int:
    t = cg_triple(m, n)
    return sum(len(orbit(t, rho)) for rho in all_pos_roots(n))


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


def _beta_system(t: BDTriple):
    """The beta-variety equations as sparse rows over the unknowns e_jj ^ e_ll (j < l).

    Returns (index, rows, rhs), index mapping each pair (j, l) to its column in
    the order of the unknowns.  The first n rows say that every row sum of the
    antisymmetric coefficient matrix C vanishes (h ^ h membership).  Then, for
    each a_s in S0, the contraction (1 (x) f) of sum C_{jl}/2 e_jj (x) e_ll, with
    f = a_{zeta(s)} - a_s, must equal half the sum of the trace-form duals of a_s
    and its image, one row per diagonal entry.  The dual of a_s is the diagonal
    matrix e_ss - e_{s+1,s+1}, so f and the right-hand side share its +-1 pattern.
    """
    n = t.n
    pairs = [(j, l) for j in range(1, n + 1) for l in range(j + 1, n + 1)]
    index = {p: k for k, p in enumerate(pairs)}
    rows, rhs = [], []
    for j in range(1, n + 1):
        row = {index[(j, l)]: Fraction(1) for l in range(j + 1, n + 1)}
        row.update((index[(l, j)], Fraction(-1)) for l in range(1, j))
        rows.append(row)
        rhs.append(ZERO)
    for s in sorted(t.s0):
        z = t.zeta[s]
        h_image, h_source = [ZERO] * n, [ZERO] * n
        h_image[z - 1], h_image[z] = Fraction(1), Fraction(-1)
        h_source[s - 1], h_source[s] = Fraction(1), Fraction(-1)
        fvals = [a - b for a, b in zip(h_image, h_source)]
        for d in range(1, n + 1):
            row = {}
            for l in range(d + 1, n + 1):
                if fvals[l - 1]:
                    row[index[(d, l)]] = fvals[l - 1] / 2
            for j in range(1, d):
                if fvals[j - 1]:
                    row[index[(j, d)]] = -fvals[j - 1] / 2
            rows.append(row)
            rhs.append((h_image[d - 1] + h_source[d - 1]) / 2)
    return index, rows, rhs


def verify_beta_variety(t: BDTriple, b: WedgeElement) -> bool:
    """Check b, which must lie in h ^ h, against the rows solve_beta_variety solves."""
    index, rows, rhs = _beta_system(t)
    x = {}
    for ((a, bb), (c, d)), v in b.terms.items():
        if a != bb or c != d:
            raise ValueError("element does not lie in the diagonal wedge square")
        x[index[(a, c)]] = v
    for k, (row, value) in enumerate(zip(rows, rhs)):
        if sum((v * x.get(col, ZERO) for col, v in row.items()), ZERO) != value:
            if k < t.n:
                raise ValueError("element does not lie in h ^ h (nonzero trace leg)")
            return False
    return True


def solve_beta_variety(t: BDTriple):
    """Solve the beta-variety system exactly.

    Unknowns are the coefficients of e_jj ^ e_ll (j < l); the h ^ h membership
    constraints are included as homogeneous equations.  Returns
    (solution WedgeElement, affine dimension of the solution set), or None if
    the system is inconsistent.
    """
    index, rows, rhs = _beta_system(t)
    solved = solve_affine(rows, rhs, len(index))
    if solved is None:
        return None
    particular, null_basis = solved
    sol = WedgeElement.from_terms(
        t.n, (((j, j), (l, l), particular.get(k, ZERO)) for (j, l), k in index.items()))
    return sol, len(null_basis)
