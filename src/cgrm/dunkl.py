"""Dunkl operators for the rank-two reflection groups with one or two sign
characters, the deformed operator algebra elements built from them, and the
operator realizations of the generalized Cremmer-Gervais solutions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bd import require_coprime
from .closed_form import cg_closed_form
from .polyops import (Const, DivDiff, DivSum, ExponentSign, Mono, Partial, PolyOp,
                      Sigma, Xi, check_poly_cyb, laurent_window, op_equal_on,
                      polynomial_monomials, restrict_to_window, window_matrix)
from .tensorops import (MatrixN, SparseOp, WedgeElement, kron_sum2,
                        wedge_of_matrices, wedge_to_op)

ZERO = Fraction(0)
HALF = Fraction(1, 2)


@dataclass(frozen=True)
class CherednikParams:
    """Deformation parameters (kappa, c0, c1) for m in {1, 2}; c1 is ignored
    when m = 1.  omega is the sign character value: 1 for m = 1, -1 for m = 2."""

    kappa: Fraction
    c0: Fraction
    c1: Fraction = Fraction(0)
    m: int = 2

    def __post_init__(self):
        if self.m not in (1, 2):
            raise ValueError("m must be 1 or 2")
        object.__setattr__(self, "kappa", Fraction(self.kappa))
        object.__setattr__(self, "c0", Fraction(self.c0))
        object.__setattr__(self, "c1", Fraction(self.c1))

    @property
    def omega(self):
        return 1 if self.m == 1 else -1


def _one_minus(op):
    return Const(1) - op


def require_odd_n(n: int):
    """The m = 2 window constructions need n odd and >= 3."""
    if n % 2 == 0 or n < 3:
        raise ValueError("n must be odd and >= 3")


# Building blocks shared by the m = 2 operators; operators are stateless.
xi1, xi2 = Xi(0, -1), Xi(1, -1)
g3 = Fraction(1, 4) * (_one_minus(xi1) * _one_minus(xi2))
skew_mono = Mono(-1, 1) - Mono(1, -1)
euler = Mono(1, 0) * Partial(0) - Mono(0, 1) * Partial(1)


def dunkl_y(params: CherednikParams, i: int) -> PolyOp:
    """Dunkl operator y_i built from exact-division reflection kernels:
    kappa d_i -+ c0 (1 - sigma)/(x - y), with - for i = 1 and + for i = 2; for
    m = 2 also - c0 (1 - xi1 xi2 sigma)/(x + y) - c1 (1 - xi_i)/x_i."""
    if i not in (1, 2):
        raise ValueError("i must be 1 or 2")
    kappa, c0, c1 = params.kappa, params.c0, params.c1
    y = kappa * Partial(i - 1) + (-c0 if i == 1 else c0) * (DivDiff() * _one_minus(Sigma()))
    if params.m == 1:
        return y
    inverse, xi = (Mono(-1, 0), xi1) if i == 1 else (Mono(0, -1), xi2)
    return (y - c0 * (DivSum() * _one_minus(xi1 * xi2 * Sigma()))
            - c1 * (inverse * _one_minus(xi)))


def dunkl_monomial_formula(params: CherednikParams, i: int, j: int, l: int) -> dict:
    """The displayed closed form of y_i acting on x^j y^l, as a zero-free dict
    {(p, q): c} (independent oracle for dunkl_y)."""
    kappa, c0 = params.kappa, params.c0
    m = params.m
    terms = {}

    def add(a, b, v):
        # terms can cancel: at m = 1, kappa = c0 = 1, y_1 sends x to 0
        total = terms.pop((a, b), ZERO) + v
        if total:
            terms[(a, b)] = total

    def omega_pow(k):
        # omega is 1 or -1, so omega^k only depends on the parity of k
        return 1 if params.omega == 1 or k % 2 == 0 else -1

    if i == 1:
        add(j - 1, l, kappa * j)
        for big_n in range((j - l - 1) // m + 1):
            add(j - 1 - big_n * m, l + big_n * m, -m * c0)
        for big_n in range(1, (l - j) // m + 1):
            add(j - 1 + big_n * m, l - big_n * m, m * c0)
        for big_n in range(1, m):
            add(j - 1, l, -params.c1 * (1 - omega_pow(-big_n * j)))
    else:
        add(j, l - 1, kappa * l)
        for big_n in range(1, (j - l) // m + 1):
            add(j - big_n * m, l - 1 + big_n * m, m * c0)
        for big_n in range((l - j - 1) // m + 1):
            add(j + big_n * m, l - 1 - big_n * m, -m * c0)
        for big_n in range(1, m):
            add(j, l - 1, -params.c1 * (1 - omega_pow(-big_n * l)))
    return terms


def group_relations(params: CherednikParams):
    """The defining relations of the deformed algebra as (left, right) operator pairs."""
    kappa, c0, c1 = params.kappa, params.c0, params.c1
    m = params.m
    omega = Fraction(params.omega)
    sig = Sigma()
    xi = [Xi(0, params.omega), Xi(1, params.omega)]
    x = [Mono(1, 0), Mono(0, 1)]
    y = [dunkl_y(params, 1), dunkl_y(params, 2)]
    one = Const(1)
    rels = []
    rels.append((sig * sig, one))
    for i in (0, 1):
        rels.append((_power(xi[i], m), one))
    rels.append((xi[0] * xi[1], xi[1] * xi[0]))
    rels.append((x[0] * x[1], x[1] * x[0]))
    rels.append((y[0] * y[1], y[1] * y[0]))
    for i in (0, 1):
        rels.append((xi[i] * y[i], omega * (y[i] * xi[i])))
        rels.append((xi[i] * x[i], (1 / omega) * (x[i] * xi[i])))
        rels.append((sig * x[i], x[1 - i] * sig))
        rels.append((sig * y[i], y[1 - i] * sig))
        rels.append((sig * xi[i], xi[1 - i] * sig))
        rels.append((xi[i] * x[1 - i], x[1 - i] * xi[i]))
        rels.append((xi[i] * y[1 - i], y[1 - i] * xi[i]))

    def xi_word(r):
        # xi_1^r xi_2^{-r}; omega = +-1 makes inverses equal to the generators
        out = one
        for _ in range(r % m):
            out = xi[0] * (xi[1] * out)
        return out

    for i in (0, 1):
        rhs = Const(kappa)
        for r in range(m):
            rhs = rhs - c0 * (xi_word(r) * sig)
        for r in range(1, m):
            rhs = rhs - (c1 * (1 - omega ** (-r))) * _power(xi[i], r)
        rels.append((y[i] * x[i] - x[i] * y[i], rhs))

    rhs12 = Const(0)
    rhs21 = Const(0)
    for r in range(m):
        rhs12 = rhs12 + (c0 * omega ** (-r)) * (xi_word(r) * sig)
        rhs21 = rhs21 + (c0 * omega ** r) * (xi_word(r) * sig)
    rels.append((y[0] * x[1] - x[1] * y[0], rhs12))
    rels.append((y[1] * x[0] - x[0] * y[1], rhs21))
    return rels


def _power(op, r):
    out = Const(1)
    for _ in range(r):
        out = op * out
    return out


def verify_relations(params: CherednikParams, degree_bound: int = 8) -> bool:
    """Check every defining relation as an operator identity on all monomials
    of total degree <= degree_bound."""
    monos = polynomial_monomials(2, degree_bound)
    return all(op_equal_on(a, b, monos) for a, b in group_relations(params))


def divided_difference() -> PolyOp:
    """((x1 + x2)/(x1 - x2)) (1 - sigma)."""
    return (Mono(1, 0) + Mono(0, 1)) * DivDiff() * _one_minus(Sigma())


def _xy(params: CherednikParams) -> PolyOp:
    """x1 y1 - x2 y2."""
    return Mono(1, 0) * dunkl_y(params, 1) - Mono(0, 1) * dunkl_y(params, 2)


def dunkl_m1_combo(n: int, params: CherednikParams) -> PolyOp:
    """-(1/n)(x1 y1 - x2 y2) for m = 1."""
    return Fraction(-1, n) * _xy(params)


def r_via_dunkl_m1(n: int) -> SparseOp:
    """Window restriction of the m = 1 combination at kappa = 1, c0 = n/2."""
    require_coprime(1, n)
    params = CherednikParams(kappa=1, c0=Fraction(n, 2), m=1)
    return window_matrix(dunkl_m1_combo(n, params), n)


def element_e(params: CherednikParams) -> PolyOp:
    """x1 y1 - x2 y2 + c0 (xi1 - xi2) sigma  (m = 2)."""
    if params.m != 2:
        raise ValueError("defined for m = 2")
    return _xy(params) + params.c0 * ((xi1 - xi2) * Sigma())


def element_e_wedge(params: CherednikParams, n: int) -> WedgeElement:
    """Wedge form of element_e on the n-window, with its three families of
    structure constants.

    The diagonal family a_{jl} = 4 c0 - 2 kappa (l - j) + 2 c1 ((-1)^l - (-1)^j)
    and the swap family b_{jl} = 2 c0 (-1 - (-1)^{j+l} + (-1)^l - (-1)^j) match
    the operator exactly; the cross family enters as
    4 c0 (1 + (-1)^{j+l}) e_{l-p, j-p} ^ e_{jl}, i.e. with the legs in the
    opposite order to the commonly displayed form (hand-checked on the window).
    """
    c0, kappa, c1 = params.c0, params.kappa, params.c1
    terms = []
    for j in range(1, n + 1):
        for l in range(j + 1, n + 1):
            sj, sl = (-1) ** j, (-1) ** l
            a = 4 * c0 - 2 * kappa * (l - j) + 2 * c1 * (sl - sj)
            b = 2 * c0 * (-1 - sj * sl + sl - sj)
            terms.append(((j, j), (l, l), a))
            terms.append(((j, l), (l, j), b))
            c = 4 * c0 * (1 + sj * sl)
            for p in range(1, j):
                terms.append(((l - p, j - p), (j, l), c))
    return WedgeElement.from_terms(n, terms)


def dunkl_m2_combo(n: int, params: CherednikParams) -> PolyOp:
    """g1 (x1 y1 - x2 y2) + g2 (x1 d1 - x2 d2) + (x2/x1 - x1/x2) g3 + g4."""
    if params.m != 2:
        raise ValueError("defined for m = 2")
    if params.c0 == 0:
        raise ValueError("c0 must be nonzero")
    kappa, c0, c1 = params.kappa, params.c0, params.c1
    sig = Sigma()
    g1 = Fraction(-1, 1) / (4 * c0) * sig
    g2 = (kappa / (4 * c0)) * sig + Const(Fraction(-1, 2 * n))
    g4 = (-c1 / (4 * c0)) * ((xi1 - xi2) * sig)
    return g1 * _xy(params) + g2 * euler + skew_mono * g3 + g4


def r_via_dunkl_m2(n: int, params: CherednikParams) -> SparseOp:
    """Window restriction of the m = 2 combination; independent of the
    parameters as long as c0 is nonzero."""
    require_odd_n(n)
    return window_matrix(dunkl_m2_combo(n, params), n)


def lemma_expression(a1, a2) -> PolyOp:
    """Delta + xi1 Delta xi2 + a1 (x2/x1 - x1/x2) g3 + a2 (x1 d1 - x2 d2)."""
    delta = divided_difference()
    return (delta + xi1 * delta * xi2 + Fraction(a1) * (skew_mono * g3)
            + Fraction(a2) * euler)


def lemma_cyb4(a1, a2, bound: int = 5) -> bool:
    """CYB_4 of the lemma expression vanishes on every Laurent monomial with
    exponents in [-bound, bound]^3."""
    return check_poly_cyb(lemma_expression(a1, a2), 4, laurent_window(3, bound))


def elements_e1_e2():
    """The two raising/lowering operators generating the Heisenberg action (m = 2)."""
    e1 = (HALF * (Mono(-1, 0) * Partial(0) + Mono(0, -1) * Partial(1))
          - Fraction(1, 4) * (Mono(-2, 0) * _one_minus(xi1) + Mono(0, -2) * _one_minus(xi2)))
    e2 = HALF * (Mono(1, 0) + Mono(0, 1) - Mono(1, 0) * xi1 - Mono(0, 1) * xi2)
    return e1, e2


def e1_matrix(n: int) -> MatrixN:
    return MatrixN(n, {(j, j + 2): Fraction((j + 1) // 2) for j in range(1, n - 1)})


def e2_matrix(n: int) -> MatrixN:
    require_odd_n(n)
    return MatrixN(n, {(k + 1, k): Fraction(1) for k in range(2, n, 2)})


def eplus_matrix(n: int) -> MatrixN:
    require_odd_n(n)
    return MatrixN(n, {(k, k + 1): Fraction(1) for k in range(1, n - 1, 2)})


def h_matrix(j: int, n: int) -> MatrixN:
    """Trace-corrected partial diagonal sum h_j."""
    entries = {}
    for big_n in range((j - 1) // 2 + 1):
        d = j - 2 * big_n
        entries[(d, d)] = entries.get((d, d), ZERO) + 1
    shift = Fraction((j + 1) // 2, n)
    for d in range(1, n + 1):
        entries[(d, d)] = entries.get((d, d), ZERO) - shift
    return MatrixN(n, entries)


def v_operator(k: int, n: int) -> PolyOp:
    """The four module generators as two-variable operators (m = 2 context)."""
    delta = divided_difference()
    if k == 1:
        head = Fraction(1, 4) * (Mono(-1, -1)
                                 * (delta - xi1 * delta * xi2 + xi1 - xi2))
        tail = Fraction(1, 4 * n) * (
            2 * (Mono(-1, 0) * Partial(0) - Mono(0, -1) * Partial(1))
            - Mono(-2, 0) * _one_minus(xi1) + Mono(0, -2) * _one_minus(xi2))
        return head - tail
    if k == 2:
        return Fraction(1, 4) * (
            Mono(0, 1) * xi1 - Mono(1, 0) * xi2
            + (Mono(1, 0) - Mono(0, 1)) * (xi1 * xi2)
            + Fraction(1, n) * (Mono(1, 0) * _one_minus(xi1) - Mono(0, 1) * _one_minus(xi2)))
    if k == 3:
        return HALF * (Mono(-1, -1) * (
            Mono(1, 0) * xi1 - Mono(0, 1) * xi2
            - (Mono(1, 0) - Mono(0, 1)) * (xi1 * xi2)
            + Fraction(1, n) * (Mono(0, 1) * _one_minus(xi1) - Mono(1, 0) * _one_minus(xi2))))
    if k == 4:
        return HALF * ((Mono(-1, 1) - Mono(1, -1))
                       * (Const(1) - xi1 - xi2 + xi1 * xi2))
    raise ValueError("k must be 1..4")


def v_monomial_action(k: int, n: int, j: int, l: int) -> dict:
    """Displayed per-monomial formulas for the module generators, as a dict
    {(p, q): c} (oracle)."""
    terms = {}

    def add(a, b, v):
        if v:
            key = (a, b)
            terms[key] = terms.get(key, ZERO) + v

    jodd, lodd = j % 2 == 1, l % 2 == 1
    if k == 1:
        for big_n in range((j - l - 2) // 2 + 1):
            add(l + 2 * big_n, j - 2 * big_n - 2, Fraction(1))
        for big_n in range((l - j - 2) // 2 + 1):
            add(l - 2 * big_n - 2, j + 2 * big_n, Fraction(-1))
        add(j - 2, l, -Fraction(j // 2, n))
        add(j, l - 2, Fraction(l // 2, n))
        ind = (1 if (not jodd and lodd and j > l) else 0) - (1 if (jodd and not lodd and j < l) else 0)
        add(j - 1, l - 1, Fraction(ind))
    elif k == 2:
        if lodd:
            add(j, l + 1, HALF * ((-1) ** j - Fraction(1, n)))
        if jodd:
            add(j + 1, l, -HALF * ((-1) ** l - Fraction(1, n)))
    elif k == 3:
        if lodd:
            add(j, l - 1, (-1) ** j - Fraction(1, n))
        if jodd:
            add(j - 1, l, -((-1) ** l - Fraction(1, n)))
    elif k == 4:
        if jodd and lodd:
            add(j - 1, l + 1, Fraction(2))
            add(j + 1, l - 1, Fraction(-2))
    else:
        raise ValueError("k must be 1..4")
    return terms


def v_wedge(k: int, n: int) -> WedgeElement:
    """Displayed wedge forms of the module generators."""
    if k == 1:
        terms = []
        for l in range(1, n + 1):
            for j in range(l + 1, n + 1):
                for big_n in range(1, (j - l - 1) // 2 + 1):
                    terms.append(((l + 2 * big_n - 2, j), (j - 2 * big_n, l), 2))
                if j % 2 == 1 and l % 2 == 0:
                    terms.append(((j - 1, j), (l - 1, l), 2))
        w = WedgeElement.from_terms(n, terms)
        for j in range(1, n - 1):
            w = w + Fraction(2) * wedge_of_matrices(MatrixN.unit(n, j, j + 2), h_matrix(j, n))
        return w
    if k == 2:
        return Fraction(2) * wedge_of_matrices(e2_matrix(n), h_matrix(n - 1, n))
    if k == 3:
        return Fraction(4) * wedge_of_matrices(eplus_matrix(n), h_matrix(n - 1, n))
    if k == 4:
        return Fraction(4) * wedge_of_matrices(eplus_matrix(n), e2_matrix(n))
    raise ValueError("k must be 1..4")


def v_matrix_from_monomials(k: int, n: int) -> SparseOp:
    """The window matrix of v_monomial_action (oracle for elements_v)."""
    return restrict_to_window(lambda p, q: v_monomial_action(k, n, p, q), n)


def elements_v(n: int):
    """The four module generators as operators on the window, restricted from
    v_operator; module_structure_check compares them with v_wedge, and
    criterion 6 also with v_monomial_action."""
    require_odd_n(n)
    return tuple(window_matrix(v_operator(k, n), n) for k in range(1, 5))


def b_cg(n: int, u, t) -> SparseOp:
    """u v1 + t v2 + t u v3 + (1/2) t^2 u v4 on the window."""
    u, t = Fraction(u), Fraction(t)
    v1, v2, v3, v4 = elements_v(n)
    return u * v1 + t * v2 + (t * u) * v3 + (HALF * t * t * u) * v4


def alpha_poly_op(n: int) -> PolyOp:
    """Operator realization of the ordered-pair part for the (n-2, n) solution."""
    msign = ExponentSign()
    sig = Sigma()
    delta = divided_difference()
    return (Fraction(-1, 4) * (msign * (Const(1) + xi1 * xi2))
            - HALF * (sig * msign)
            + Fraction(1, 4) * delta
            + Fraction(1, 4) * (xi1 * delta * xi2)
            + skew_mono * g3)


def beta_poly_op(n: int) -> PolyOp:
    """Operator realization of the diagonal part for the (n-2, n) solution."""
    msign = ExponentSign()
    return (Fraction(1, 4) * (msign * (Const(1) + xi1 * xi2))
            - Fraction(1, 2 * n) * euler)


def gamma_poly_op() -> PolyOp:
    """Operator realization of the swap part: (1/2) sigma M."""
    return HALF * (Sigma() * ExponentSign())


def r_m2_poly_op(n: int) -> PolyOp:
    """-(1/(2n))(x1 d1 - x2 d2) + (1/4)(Delta + xi1 Delta xi2 + 4 (x2/x1 - x1/x2) g3).

    This is a quarter of the lemma expression at a1 = 4, a2 = -2/n, so its
    CYB_(1/4) is a sixteenth of that expression's CYB_4, which vanishes."""
    return Fraction(1, 4) * lemma_expression(4, Fraction(-2, n))


def module_structure_check(n: int) -> bool:
    """The module structure as displayed: v1..v4 from elements_v equal their
    displayed wedge forms, and all ten adjoint-action relations tie them to the
    solution through the matrix forms of the two Heisenberg generators."""
    vs = elements_v(n)
    if any(v != wedge_to_op(v_wedge(k, n)) for k, v in enumerate(vs, 1)):
        return False
    r = cg_closed_form(2, n)
    v1, v2, v3, v4 = vs
    # ad X = [X (x) 1 + 1 (x) X, .], with one operator per generator.
    ad_e1 = kron_sum2(e1_matrix(n)).bracket
    ad_e2 = kron_sum2(e2_matrix(n)).bracket
    checks = [
        ad_e1(r) == v1,
        ad_e1(v2) == HALF * v3,
        ad_e2(r) == v2,
        ad_e2(v1) == v3,
        ad_e2(v3) == v4,
        ad_e1(v1).is_zero(),
        ad_e1(v3).is_zero(),
        ad_e1(v4).is_zero(),
        ad_e2(v2).is_zero(),
        ad_e2(v4).is_zero(),
    ]
    return all(checks)
