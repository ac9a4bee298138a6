"""Dunkl operators for the rank-two reflection groups with one or two sign
characters, the deformed operator algebra elements built from them, and the
operator realizations of the generalized Cremmer-Gervais solutions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polyops import (Const, DivDiff, DivSum, ExponentSign, LaurentPoly, Mono,
                      Partial, PolyOp, Sigma, Xi, window_matrix)
from .tensorops import (MatrixN, SparseOp, WedgeElement, ad_action,
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


def dunkl_y(params: CherednikParams, i: int) -> PolyOp:
    """Dunkl operator y_i built from exact-division reflection kernels."""
    if i not in (1, 2):
        raise ValueError("i must be 1 or 2")
    kappa, c0, c1 = params.kappa, params.c0, params.c1
    sig = Sigma()
    diff_kernel = DivDiff() * _one_minus(sig)
    if params.m == 1:
        if i == 1:
            return kappa * Partial(0) - c0 * diff_kernel
        return kappa * Partial(1) + c0 * diff_kernel
    xi1, xi2 = Xi(0, -1), Xi(1, -1)
    sum_kernel = DivSum() * _one_minus(xi1 * xi2 * sig)
    if i == 1:
        return (kappa * Partial(0) - c0 * diff_kernel - c0 * sum_kernel
                - c1 * (Mono(-1, 0) * _one_minus(xi1)))
    return (kappa * Partial(1) + c0 * diff_kernel - c0 * sum_kernel
            - c1 * (Mono(0, -1) * _one_minus(xi2)))


def dunkl_monomial_formula(params: CherednikParams, i: int, j: int, l: int) -> LaurentPoly:
    """The displayed closed form of y_i acting on x^j y^l (independent oracle
    for dunkl_y)."""
    kappa, c0 = params.kappa, params.c0
    m = params.m
    terms = {}

    def add(a, b, v):
        if v:
            key = (a, b)
            terms[key] = terms.get(key, ZERO) + v

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
    return LaurentPoly(2, terms)


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
        power = one
        for _ in range(m):
            power = xi[i] * power
        rels.append((power, one))
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
    from .polyops import op_equal_on, polynomial_monomials
    monos = polynomial_monomials(2, degree_bound)
    return all(op_equal_on(a, b, monos) for a, b in group_relations(params))


def divided_difference() -> PolyOp:
    """((x1 + x2)/(x1 - x2)) (1 - sigma)."""
    return (Mono(1, 0) + Mono(0, 1)) * DivDiff() * _one_minus(Sigma())


def r_via_dunkl_m1(n: int) -> SparseOp:
    """Window restriction of -(1/n)(x1 y1 - x2 y2) at kappa = 1, c0 = n/2, m = 1."""
    params = CherednikParams(kappa=1, c0=Fraction(n, 2), m=1)
    y1, y2 = dunkl_y(params, 1), dunkl_y(params, 2)
    op = Fraction(-1, n) * (Mono(1, 0) * y1 - Mono(0, 1) * y2)
    return window_matrix(op, n)


def element_e(params: CherednikParams) -> PolyOp:
    """x1 y1 - x2 y2 + c0 (xi1 - xi2) sigma  (m = 2)."""
    if params.m != 2:
        raise ValueError("defined for m = 2")
    y1, y2 = dunkl_y(params, 1), dunkl_y(params, 2)
    xi1, xi2 = Xi(0, -1), Xi(1, -1)
    return (Mono(1, 0) * y1 - Mono(0, 1) * y2
            + params.c0 * ((xi1 - xi2) * Sigma()))


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
    xi1, xi2 = Xi(0, -1), Xi(1, -1)
    y1, y2 = dunkl_y(params, 1), dunkl_y(params, 2)
    g1 = Fraction(-1, 1) / (4 * c0) * sig
    g2 = (kappa / (4 * c0)) * sig + Const(Fraction(-1, 2 * n))
    g3 = Fraction(1, 4) * (_one_minus(xi1) * _one_minus(xi2))
    g4 = (-c1 / (4 * c0)) * ((xi1 - xi2) * sig)
    euler = Mono(1, 0) * Partial(0) - Mono(0, 1) * Partial(1)
    xy = Mono(1, 0) * y1 - Mono(0, 1) * y2
    skew_mono = Mono(-1, 1) - Mono(1, -1)
    return g1 * xy + g2 * euler + skew_mono * g3 + g4


def r_via_dunkl_m2(n: int, params: CherednikParams) -> SparseOp:
    """Window restriction of the m = 2 combination; independent of the
    parameters as long as c0 is nonzero."""
    if n % 2 == 0:
        raise ValueError("n must be odd")
    return window_matrix(dunkl_m2_combo(n, params), n)


def lemma_expression(a1, a2) -> PolyOp:
    """Delta + xi1 Delta xi2 + a1 (x2/x1 - x1/x2) g3 + a2 (x1 d1 - x2 d2)."""
    delta = divided_difference()
    xi1, xi2 = Xi(0, -1), Xi(1, -1)
    g3 = Fraction(1, 4) * (_one_minus(xi1) * _one_minus(xi2))
    skew_mono = Mono(-1, 1) - Mono(1, -1)
    euler = Mono(1, 0) * Partial(0) - Mono(0, 1) * Partial(1)
    return (delta + xi1 * delta * xi2 + Fraction(a1) * (skew_mono * g3)
            + Fraction(a2) * euler)


def lemma_cyb4(a1, a2, bound: int = 5) -> bool:
    """CYB_4 of the lemma expression vanishes on every Laurent monomial with
    exponents in [-bound, bound]^3."""
    from .polyops import check_poly_cyb, laurent_window
    return check_poly_cyb(lemma_expression(a1, a2), 4, laurent_window(3, bound))


def elements_e1_e2():
    """The two raising/lowering operators generating the Heisenberg action (m = 2)."""
    xi1, xi2 = Xi(0, -1), Xi(1, -1)
    e1 = (HALF * (Mono(-1, 0) * Partial(0) + Mono(0, -1) * Partial(1))
          - Fraction(1, 4) * (Mono(-2, 0) * _one_minus(xi1) + Mono(0, -2) * _one_minus(xi2)))
    e2 = HALF * (Mono(1, 0) + Mono(0, 1) - Mono(1, 0) * xi1 - Mono(0, 1) * xi2)
    return e1, e2


def e1_matrix(n: int) -> MatrixN:
    return MatrixN(n, {(j, j + 2): Fraction((j + 1) // 2) for j in range(1, n - 1)})


def e2_matrix(n: int) -> MatrixN:
    if n % 2 == 0:
        raise ValueError("n must be odd")
    return MatrixN(n, {(k + 1, k): Fraction(1) for k in range(2, n, 2)})


def eplus_matrix(n: int) -> MatrixN:
    if n % 2 == 0:
        raise ValueError("n must be odd")
    return MatrixN(n, {(k, k + 1): Fraction(1) for k in range(1, n - 1, 2)})


def eminus_matrix(n: int) -> MatrixN:
    return e2_matrix(n)


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
    sig = Sigma()
    xi1, xi2 = Xi(0, -1), Xi(1, -1)
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


def v_monomial_action(k: int, n: int, j: int, l: int) -> LaurentPoly:
    """Displayed per-monomial formulas for the module generators (oracle)."""
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
    return LaurentPoly(2, terms)


def v_wedge(k: int, n: int) -> WedgeElement:
    """Displayed wedge forms of the module generators."""
    if k == 1:
        w = WedgeElement(n)
        for l in range(1, n + 1):
            for j in range(l + 1, n + 1):
                for big_n in range(1, (j - l - 1) // 2 + 1):
                    w._accumulate((l + 2 * big_n - 2, j), (j - 2 * big_n, l), Fraction(2))
                if j % 2 == 1 and l % 2 == 0:
                    w._accumulate((j - 1, j), (l - 1, l), Fraction(2))
        for j in range(1, n - 1):
            w = w + Fraction(2) * wedge_of_matrices(MatrixN.unit(n, j, j + 2), h_matrix(j, n))
        w.terms = {key: v for key, v in w.terms.items() if v != 0}
        return w
    if k == 2:
        return Fraction(2) * wedge_of_matrices(eminus_matrix(n), h_matrix(n - 1, n))
    if k == 3:
        return Fraction(4) * wedge_of_matrices(eplus_matrix(n), h_matrix(n - 1, n))
    if k == 4:
        return Fraction(4) * wedge_of_matrices(eplus_matrix(n), eminus_matrix(n))
    raise ValueError("k must be 1..4")


def v_matrix_from_monomials(k: int, n: int) -> SparseOp:
    win_cols = {}
    for j in range(1, n + 1):
        for l in range(1, n + 1):
            image = v_monomial_action(k, n, j - 1, l - 1)
            col = {}
            for (a, b), v in image.terms.items():
                if not (0 <= a < n and 0 <= b < n):
                    raise ValueError("monomial action leaves the window")
                col[(a + 1, b + 1)] = v
            if col:
                win_cols[(j, l)] = col
    return SparseOp(n, win_cols)


def elements_v(n: int):
    """The four module generators as operators on the window, produced three
    independent ways (operator, monomial action, wedge form) and checked to agree."""
    if n % 2 == 0 or n < 3:
        raise ValueError("n must be odd and >= 3")
    out = []
    for k in range(1, 5):
        from_op = window_matrix(v_operator(k, n), n)
        from_mono = v_matrix_from_monomials(k, n)
        from_wedge = wedge_to_op(v_wedge(k, n))
        if not (from_op == from_mono == from_wedge):
            raise AssertionError("the three realizations of v%d disagree at n=%d" % (k, n))
        out.append(from_op)
    return tuple(out)


def b_cg(n: int, u, t) -> SparseOp:
    """u v1 + t v2 + t u v3 + (1/2) t^2 u v4 on the window."""
    u, t = Fraction(u), Fraction(t)
    v1, v2, v3, v4 = elements_v(n)
    return u * v1 + t * v2 + (t * u) * v3 + (HALF * t * t * u) * v4


def m_operator() -> PolyOp:
    """Diagonal sign operator x^j y^l -> sgn(j - l) x^j y^l."""
    return ExponentSign()


def alpha_poly_op(n: int) -> PolyOp:
    """Operator realization of the ordered-pair part for the (n-2, n) solution."""
    msign = ExponentSign()
    sig = Sigma()
    xi1, xi2 = Xi(0, -1), Xi(1, -1)
    delta = divided_difference()
    g3 = Fraction(1, 4) * (_one_minus(xi1) * _one_minus(xi2))
    skew_mono = Mono(-1, 1) - Mono(1, -1)
    return (Fraction(-1, 4) * (msign * (Const(1) + xi1 * xi2))
            - HALF * (sig * msign)
            + Fraction(1, 4) * delta
            + Fraction(1, 4) * (xi1 * delta * xi2)
            + skew_mono * g3)


def beta_poly_op(n: int) -> PolyOp:
    """Operator realization of the diagonal part for the (n-2, n) solution."""
    msign = ExponentSign()
    xi1, xi2 = Xi(0, -1), Xi(1, -1)
    euler = Mono(1, 0) * Partial(0) - Mono(0, 1) * Partial(1)
    return (Fraction(1, 4) * (msign * (Const(1) + xi1 * xi2))
            - Fraction(1, 2 * n) * euler)


def gamma_poly_op() -> PolyOp:
    """Operator realization of the swap part: (1/2) sigma M."""
    return HALF * (Sigma() * ExponentSign())


def r_m2_poly_op(n: int) -> PolyOp:
    """-(1/(2n))(x1 d1 - x2 d2) + (1/4)(Delta + xi1 Delta xi2 + 4 (x2/x1 - x1/x2) g3)."""
    xi1, xi2 = Xi(0, -1), Xi(1, -1)
    delta = divided_difference()
    g3 = Fraction(1, 4) * (_one_minus(xi1) * _one_minus(xi2))
    skew_mono = Mono(-1, 1) - Mono(1, -1)
    euler = Mono(1, 0) * Partial(0) - Mono(0, 1) * Partial(1)
    return (Fraction(-1, 2 * n) * euler
            + Fraction(1, 4) * (delta + xi1 * delta * xi2 + Fraction(4) * (skew_mono * g3)))


def operator_degree(op: PolyOp, samples):
    """The common total-degree shift of op on the sample monomials, or None if mixed."""
    shifts = set()
    for exps in samples:
        image = op.apply(LaurentPoly.monomial(exps))
        base = sum(exps)
        for key in image.terms:
            shifts.add(sum(key) - base)
    if not shifts:
        return None
    if len(shifts) > 1:
        raise ValueError("operator is not homogeneous on the samples: %r" % sorted(shifts))
    return shifts.pop()


def module_structure_check(n: int) -> bool:
    """All ten adjoint-action relations tying the solution to the module
    generators, using the matrix forms of the two Heisenberg generators."""
    from .closed_form import cg_closed_form
    if n % 2 == 0 or n < 3:
        raise ValueError("n must be odd and >= 3")
    r = cg_closed_form(2, n)
    v1, v2, v3, v4 = elements_v(n)
    e1, e2 = e1_matrix(n), e2_matrix(n)

    def act(x, w):
        return ad_action(x, w)

    checks = [
        act(e1, r) == v1,
        act(e1, v2) == HALF * v3,
        act(e2, r) == v2,
        act(e2, v1) == v3,
        act(e2, v3) == v4,
        act(e1, v1).is_zero(),
        act(e1, v3).is_zero(),
        act(e1, v4).is_zero(),
        act(e2, v2).is_zero(),
        act(e2, v4).is_zero(),
    ]
    return all(checks)
