"""Division kernels, operator atoms, and window restriction, on polynomials stored
as zero-free dicts {(p, q): c}, and batches of them tagged {(p, q, r): c}."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgrm import dunkl, polyops
from cgrm.linalg import add_scaled
from cgrm.polyops import (DivDiff, DivSum, ExactDivisionError,
                          ExponentSign, Mono, OpCompose, OpSum, Partial,
                          PolyOp, Sigma, Xi, WindowStabilityError, _Images, _inversion,
                          _mirror, check_poly_cyb, divide_linear, laurent_window, op_equal_on,
                          polynomial_monomials, restrict_to_window, window_matrix)
from cgrm.scalars import NonIntegralError, common_denominator, scaled_to_int

from conftest import apply, poly_cyb_residual, scalars

ONE = Fraction(1)
IDENTITY = Mono(0, 0)
exps = st.integers(min_value=-4, max_value=4)


def polys(max_terms=4):
    return st.dictionaries(st.tuples(exps, exps), scalars, max_size=max_terms).map(
        lambda d: {k: v for k, v in d.items() if v})


def mono(a, b, c=1):
    return {(a, b): Fraction(c)}


def _tagged(batch):
    """The polynomials of batch as one tagged dict, each tagged by its index."""
    return {(p, q, r): v for r, f in enumerate(batch) for (p, q), v in f.items()}


def _times(f, g):
    """The product of two polynomials, with no zeros stored."""
    out = {}
    for (a, b), u in f.items():
        for (c, d), v in g.items():
            key = (a + c, b + d)
            out[key] = out.get(key, 0) + u * v
    return {k: v for k, v in out.items() if v}


int_polys = st.dictionaries(st.tuples(exps, exps),
                            st.integers(min_value=-9, max_value=9).filter(bool), max_size=4)


@settings(max_examples=50)
@given(st.lists(int_polys, max_size=4), st.sampled_from([-1, 1]))
@example([{(1, 0): 1}, {(1, 0): -1}], -1)
def test_division_inverts_multiplication(batch, sign):
    """A batch of products with x + sign y divides back to the batch, which is
    the per-tag division by the Fraction oracle side by side."""
    divisor = {(1, 0): 1, (0, 1): sign}
    products = [_times(f, divisor) for f in batch]
    quotient = divide_linear(_tagged(products), sign)
    assert quotient == _tagged(batch)
    assert quotient == _tagged([_divide_linear_over_fractions(g, sign) for g in products])
    assert all(type(v) is int for v in quotient.values())


def test_division_remainder_raises():
    with pytest.raises(ExactDivisionError):
        divide_linear({(1, 0, 0): 1}, -1)
    with pytest.raises(ExactDivisionError):
        divide_linear({(0, 3, 0): 1}, 1)
    # x^2 - y^2 at tag 0 divides, x^2 + y^2 at tag 1 does not: the batch raises
    with pytest.raises(ExactDivisionError):
        divide_linear({(2, 0, 0): 1, (0, 2, 0): -1, (2, 0, 1): 1, (0, 2, 1): 1}, -1)
    # x^2 at tag 0 and -y^2 at tag 1 would sum to x^2 - y^2 if the tags merged
    with pytest.raises(ExactDivisionError):
        divide_linear({(2, 0, 0): 1, (0, 2, 1): -1}, -1)


def test_divdiff_on_symmetric_difference():
    one_minus_sigma = IDENTITY - Sigma()
    f = mono(3, 1)
    num = apply(one_minus_sigma, f)
    quotient = apply(DivDiff(), num)
    # (x^3 y - x y^3)/(x - y) = x^2 y + x y^2
    assert quotient == {(2, 1): ONE, (1, 2): ONE}


def test_atoms():
    f = mono(2, 3)
    assert apply(Mono(1, -1), f) == mono(3, 2)
    assert apply(Partial(0), f) == mono(1, 3, 2)
    assert apply(Partial(1), mono(2, 0)) == {}
    assert apply(Sigma(), f) == mono(3, 2)
    assert apply(Xi(0), f) == mono(2, 3)
    assert apply(Xi(0), mono(1, 2)) == mono(1, 2, -1)
    assert apply(Xi(1), mono(0, 1)) == mono(0, 1, -1)
    assert apply(IDENTITY, f) == f
    assert apply(ExponentSign(), mono(1, 1)) == {}
    assert apply(ExponentSign(), mono(2, 1)) == mono(2, 1)
    assert apply(ExponentSign(), mono(0, 1)) == mono(0, 1, -1)
    assert apply(DivSum(), {(1, 0): ONE, (0, 1): ONE}) == {(0, 0): ONE}


def test_operator_algebra():
    f = mono(1, 0)
    op = 2 * Mono(1, 0) - Mono(0, 1) * Sigma()
    # sigma sends x to y, then multiply by y: y^2 ; first term 2x^2
    assert apply(op, f) == {(2, 0): Fraction(2), (0, 2): -ONE}
    # a scalar multiplies from the left only; op * c is not a second spelling
    assert apply(3 * op, f) == {(2, 0): Fraction(6), (0, 2): Fraction(-3)}
    assert apply(Fraction(1, 2) * op, f) == {(2, 0): ONE, (0, 2): Fraction(-1, 2)}
    for c in (3, Fraction(1, 2)):
        with pytest.raises(TypeError):
            op * c


atoms = st.one_of(
    st.builds(Mono, exps, exps),
    st.builds(Partial, st.sampled_from([0, 1])),
    st.just(Sigma()),
    st.builds(Xi, st.sampled_from([0, 1])),
    st.just(ExponentSign()),
)


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, scalars, atoms, atoms, atoms,
       st.lists(st.tuples(exps, exps), min_size=1, max_size=4))
def test_combination_node_is_linear(a, b, c, x, y, z, samples):
    """a X + b (Y - c Z) acts as the same combination of the atoms' images."""
    combo = a * x + b * (y - c * z)
    assert all(isinstance(op, (Mono, Partial, Sigma, Xi, ExponentSign))
               for _, op in combo.summands)
    for exps_ in samples:
        f = {exps_: ONE}
        want = {}
        for coeff, atom in ((a, x), (b, y), (-b * c, z)):
            add_scaled(want, coeff, apply(atom, f))
        assert apply(combo, f) == want


def test_combination_node_flattens_and_drops_zeros():
    x, y = Mono(1, 0), Sigma()
    combo = Fraction(2, 3) * (x - 3 * y) + Fraction(1, 3) * (-x)
    assert combo.summands == [(Fraction(2, 3), x), (Fraction(-2), y), (Fraction(-1, 3), x)]
    # a zero term is dropped, so the division is never tried on x
    assert (x + 0 * DivDiff()).summands == [(1, x)]
    assert apply(x + 0 * DivDiff(), mono(1, 0)) == mono(2, 0)
    assert isinstance(-x, OpSum) and apply(-x, mono(1, 0)) == mono(2, 0, -1)


def test_apply_rejects_other_variable_counts():
    for terms in ({(1, 2, 3): ONE}, {(1,): ONE}, {(0, 1): ONE, (1, 2, 3): ONE}):
        with pytest.raises(ValueError, match="two-variable"):
            apply(IDENTITY, terms)


@pytest.mark.parametrize("n", [3, 5])
def test_lift_matches_window_cyb(n):
    """The three-leg lift agrees with CYB_lambda of the window matrix, which
    embeds the operator on tensor legs by an independent path."""
    from cgrm.cyb import cyb_lambda
    lam = Fraction(1, 3)
    op = dunkl.alpha_poly_op
    window = cyb_lambda(window_matrix(op, n), lam)
    nonzero = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                residual = poly_cyb_residual(op, lam, (a, b, c))
                expected = {tuple(e - 1 for e in k): v
                            for k, v in window.column(a + 1, b + 1, c + 1).items()}
                assert residual == expected
                nonzero += bool(residual)
    assert nonzero > 0


def test_window_matrix_and_stability():
    n = 3
    euler = Mono(1, 0) * Partial(0)
    m = window_matrix(euler, n)
    for j in range(1, n + 1):
        for l in range(1, n + 1):
            expected = {(j, l): Fraction(j - 1)} if j > 1 else {}
            assert m.column(j, l) == expected
    # x^2 y^0 is the first window monomial, in (j, l) order, that x sends out
    with pytest.raises(WindowStabilityError, match=r"^image of \(3, 1\) leaves the window"):
        window_matrix(Mono(1, 0), n)
    assert issubclass(WindowStabilityError, ValueError)


def test_monomial_enumerators():
    assert len(polynomial_monomials(2, 3)) == 10
    assert len(laurent_window(2, 1)) == 9
    assert all(len(e) == 3 for e in laurent_window(3, 1))
    assert polynomial_monomials(3, 0) == laurent_window(3, 0) == [(0, 0, 0)]
    for build in (polynomial_monomials, laurent_window):
        with pytest.raises(ValueError, match="must be >= 0, not -1$"):
            build(3, -1)


def test_a_negative_bound_raises_instead_of_certifying():
    """An empty list of monomials would make each check hold vacuously, even
    the lemma's CYB at the wrong lambda 5."""
    params = dunkl.CherednikParams(kappa=1, c0=2, c1=3, m=2)
    for check in (lambda: dunkl.verify_relations(params, -1),
                  lambda: dunkl.lemma_cyb4(1, Fraction(2, 5), bound=-1),
                  lambda: check_poly_cyb(dunkl.lemma_expression(1, 0), 5, laurent_window(3, -1))):
        with pytest.raises(ValueError, match="must be >= 0, not -1$"):
            check()


def _lift_over_fractions(images, legs, terms, out):
    i, j = legs
    for key, coeff in terms.items():
        r = key[3 - i - j]
        for (p, q), v in images[(key[i], key[j])].items():
            k = (p, q, r) if j == 1 else (p, r, q) if i == 0 else (r, p, q)
            nv = out.get(k, Fraction(0)) + coeff * v
            if nv == 0:
                out.pop(k, None)
            else:
                out[k] = nv
    return out


def _divide_linear_over_fractions(terms, sign):
    if not terms:
        return {}
    shift = min(p for p, _ in terms)
    work = {(p - shift, q): v for (p, q), v in terms.items()}
    quotient = {}
    while work:
        key = max(work)
        p, q = key
        if p == 0:
            raise ExactDivisionError("nonzero remainder in linear division")
        coeff = work.pop(key)
        quotient[(p - 1 + shift, q)] = coeff
        tkey = (p - 1, q + 1)
        nv = work.get(tkey, Fraction(0)) - sign * coeff
        if nv == 0:
            work.pop(tkey, None)
        else:
            work[tkey] = nv
    return quotient


def fraction_apply(op, terms):
    """op on {(p, q): Fraction} terms, evaluated atom by atom in Fraction
    arithmetic with the rational coefficients of the tree: the oracle for the
    int kernel op._apply, which returns D * op(terms) on int numerators."""
    if isinstance(op, OpSum):
        out = {}
        for c, sub in op.summands:
            add_scaled(out, c, fraction_apply(sub, terms))
        return out
    if isinstance(op, OpCompose):
        return fraction_apply(op.f, fraction_apply(op.g, terms))
    if isinstance(op, Mono):
        return {(a + op.p, b + op.q): v for (a, b), v in terms.items()}
    if isinstance(op, Partial):
        if op.i == 0:
            return {(a - 1, b): a * v for (a, b), v in terms.items() if a}
        return {(a, b - 1): b * v for (a, b), v in terms.items() if b}
    if isinstance(op, Sigma):
        return {(b, a): v for (a, b), v in terms.items()}
    if isinstance(op, Xi):
        return {k: -v if k[op.i] % 2 else v for k, v in terms.items()}
    if isinstance(op, DivDiff):
        return _divide_linear_over_fractions(terms, -1)
    if isinstance(op, DivSum):
        return _divide_linear_over_fractions(terms, 1)
    if isinstance(op, ExponentSign):
        return {(a, b): v if a > b else -v for (a, b), v in terms.items() if a != b}
    raise TypeError("no Fraction evaluation for %r" % (op,))


class _FractionImages(dict):
    def __init__(self, op):
        super().__init__()
        self.op = op

    def __missing__(self, pair):
        image = self[pair] = fraction_apply(self.op, {pair: Fraction(1)})
        return image


# [r12, r13] + [r12, r23] + [r13, r23], each bracket as its two leg pairs
BRACKETS = (((0, 1), (0, 2)), ((0, 1), (1, 2)), ((0, 2), (1, 2)))


def _poly_cyb_residual_over_fractions(op, lam, exps):
    """CYB_lambda on one monomial lifted in Fraction throughout, from unscaled
    images, as the six products of the three brackets: the oracle for
    poly_cyb_residual, which lifts integer numerators through three sums."""
    lam = Fraction(lam)
    images = _FractionImages(op)
    a, b, c = exps
    total = {(c, a, b): -lam, (b, c, a): lam} if lam and not a == b == c else {}
    plus, minus = {exps: Fraction(1)}, {exps: Fraction(-1)}
    for la, lb in BRACKETS:
        _lift_over_fractions(images, la, _lift_over_fractions(images, lb, plus, {}), total)
        _lift_over_fractions(images, lb, _lift_over_fractions(images, la, minus, {}), total)
    return total


small = st.fractions(min_value=-4, max_value=4, max_denominator=7)
m2_params = st.builds(dunkl.CherednikParams, small, small.filter(bool), small, st.just(2))
odd_n = st.sampled_from([3, 5, 7])
cyb_ops = st.one_of(
    st.builds(dunkl.lemma_expression, small, small),
    st.builds(dunkl.element_e, m2_params),
    st.just(dunkl.alpha_poly_op),
    st.builds(dunkl.beta_poly_op, odd_n),
    st.just(dunkl.gamma_poly_op),
    st.builds(dunkl.dunkl_m2_combo, odd_n, m2_params),
)
cyb_exps = st.tuples(*[st.integers(min_value=-3, max_value=3)] * 3)


@settings(max_examples=60, deadline=None)
@given(cyb_ops, st.lists(cyb_exps, min_size=1, max_size=3),
       st.fractions(min_value=-9, max_value=9, max_denominator=12),
       st.integers(min_value=-20, max_value=20), st.booleans())
@example(dunkl.lemma_expression(1, Fraction(2, 5)), [(1, 0, -1), (2, 2, 2)], Fraction(4),
         0, False)
@example(dunkl.lemma_expression(1, Fraction(2, 5)), [(1, 0, -1)], Fraction(0), 3, True)
def test_lift_matches_fraction_oracle(op, monomials, lam, k, off_grid):
    """poly_cyb_residual equals the Fraction lift, also where lambda D^2 is not
    an integer; off_grid picks lambda D^2 = (7k + 1)/7 to force that case."""
    d = op.denominator()
    if off_grid:
        lam = Fraction(7 * k + 1, 7 * d * d)
        assert (lam * d * d).denominator == 7
    for exps_ in monomials:
        residual = poly_cyb_residual(op, lam, exps_)
        assert residual == _poly_cyb_residual_over_fractions(op, lam, exps_)
        assert all(type(v) is Fraction for v in residual.values())


m1_params = st.builds(dunkl.CherednikParams, small, small, small, st.just(1))
kernel_ops = st.one_of(
    st.builds(dunkl.dunkl_y, st.one_of(m1_params, m2_params), st.sampled_from([1, 2])),
    st.builds(dunkl.v_operator, st.integers(min_value=1, max_value=4), odd_n),
    st.builds(dunkl.lemma_expression, small, small),
    st.builds(dunkl.element_e, m2_params),
    st.builds(dunkl.dunkl_m2_combo, odd_n, m2_params),
)


def _outcome(compute):
    """compute() or the type of the exception it raised, so that the kernel and
    the oracle can be compared also where the window is left."""
    try:
        return compute()
    except (ExactDivisionError, WindowStabilityError) as exc:
        return type(exc)


@settings(max_examples=80, deadline=None)
@given(kernel_ops, st.sampled_from([2, 3, 4, 5, 7]), st.lists(polys(), min_size=1, max_size=3))
@example(dunkl.dunkl_y(dunkl.CherednikParams(Fraction(1, 3), Fraction(-5, 2), m=1), 1), 4,
         [{(-2, 3): Fraction(3, 7), (1, -1): Fraction(-1, 2)}])
def test_int_kernel_matches_fraction_oracle(op, n, inputs):
    """window_matrix, one tagged pass of the int kernel over the window, and the
    kernel on a batch of one (apply) or of all inputs, each dividing once, equal
    the atom-by-atom Fraction evaluation, on the window and on Laurent
    polynomials with negative exponents and rational coefficients."""
    oracle = _outcome(lambda: restrict_to_window(
        lambda p, q: fraction_apply(op, {(p, q): Fraction(1)}), n))
    assert _outcome(lambda: window_matrix(op, n)) == oracle
    inputs = inputs + [mono(-3, 1), mono(2, -4), mono(-1, -2)]
    for poly in inputs:
        got = apply(op, poly)
        assert got == fraction_apply(op, poly)
        assert all(type(v) is Fraction for v in got.values())
    d = common_denominator(v for poly in inputs for v in poly.values())
    batch = op._apply(_tagged([scaled_to_int(poly, d) for poly in inputs]))
    d *= op.denominator()
    assert {k: Fraction(v, d) for k, v in batch.items()} == \
        _tagged([fraction_apply(op, poly) for poly in inputs])


@settings(max_examples=40, deadline=None)
@given(kernel_ops, kernel_ops, small.filter(bool),
       st.lists(st.tuples(exps, exps), min_size=1, max_size=4))
def test_op_equal_on_matches_fraction_oracle(op_a, op_b, c, samples):
    """op_equal_on compares cross-multiplied int images; an operator and a
    rescaled copy (another denominator) are equal, other pairs as the oracle says."""
    assert op_equal_on(c * op_a, (Fraction(1, 7) * IDENTITY) * ((7 * c) * op_a), samples)
    want = all(fraction_apply(op_a, {e: Fraction(1)}) == fraction_apply(op_b, {e: Fraction(1)})
               for e in samples)
    assert op_equal_on(op_a, op_b, samples) is want


def test_op_equal_on_across_denominators():
    x = Mono(1, 0)
    # D = 3 against D = 6
    assert op_equal_on((Fraction(2, 3) * IDENTITY) * x, Fraction(1, 6) * x + Fraction(1, 2) * x,
                       [(0, 0), (2, -1)])
    assert not op_equal_on((Fraction(1, 3) * IDENTITY) * x, Fraction(1, 2) * x, [(0, 0)])
    assert not op_equal_on((Fraction(1, 3) * IDENTITY) * x, Fraction(1, 3) * Sigma(), [(1, 2)])


def test_op_equal_on_tells_the_listed_monomials_apart():
    """Each listed monomial is compared on its own: a mismatch at the last one
    only, or at a repeated one, is seen, and so are images that would cancel
    or coincide if the monomials were run as one sum."""
    number = IDENTITY + Mono(1, 0) * Partial(0)  # x^p y^q -> (1 + p) x^p y^q
    agree = [(0, 0), (0, 1), (0, -2), (0, 3)]
    assert op_equal_on(IDENTITY, number, agree)
    assert not op_equal_on(IDENTITY, number, agree + [(1, 0)])
    assert op_equal_on(IDENTITY, number, [(0, 0), (0, 0)])
    assert not op_equal_on(IDENTITY, number, [(0, 0), (2, 1), (0, 0), (2, 1)])
    # the mirror swaps x and y, so it fixes their sum but neither of them
    assert not op_equal_on(IDENTITY, Sigma(), [(1, 0), (0, 1)])
    assert not op_equal_on(IDENTITY, Sigma(), [(1, 0), (0, 1), (1, 0), (0, 1)])


def test_division_atoms_raise_on_an_int_remainder():
    """The int kernel keeps the exact-division check: a remainder raises, both on
    int numerators and through apply."""
    for atom, terms in ((DivDiff(), {(1, 0): 3}), (DivDiff(), {(2, 0): 1, (0, 0): -5}),
                        (DivSum(), {(0, 3): 2}), (DivSum(), {(1, 1): 4, (-1, 2): 1})):
        with pytest.raises(ExactDivisionError):
            atom._apply({(p, q, 0): v for (p, q), v in terms.items()})
        with pytest.raises(ExactDivisionError):
            apply(atom, {k: Fraction(v, 3) for k, v in terms.items()})
    # (x^2 - y^2) / (x - y) = x + y, with int quotients
    quotient = DivDiff()._apply({(2, 0, 7): 5, (0, 2, 7): -5})
    assert quotient == {(1, 0, 7): 5, (0, 1, 7): 5}
    assert all(type(v) is int for v in quotient.values())


def test_operator_denominators():
    """A constant c * Mono(0, 0) gives c's denominator, a sum the lcm of its
    scaled summands, and a composition the product; every atom gives 1."""
    assert (Fraction(2, 3) * IDENTITY).denominator() == 3
    assert (Fraction(1, 2) * (Fraction(1, 3) * IDENTITY)
            + Fraction(3, 4) * Mono(1, 0)).denominator() == 12
    assert ((Fraction(1, 2) * IDENTITY) * (Fraction(5, 3) * IDENTITY)).denominator() == 6
    for atom in (Mono(1, -1), IDENTITY, Partial(0), Sigma(), Xi(0), DivDiff(), DivSum(),
                 ExponentSign()):
        assert atom.denominator() == 1
    images = _Images(dunkl.lemma_expression(1, Fraction(2, 5)))
    assert images.d == 20
    assert all(type(v) is int for v in images[(3, -2)].values())


def test_scaled_to_int():
    image = {(1, 0): Fraction(1, 2), (0, 1): Fraction(-3, 4)}
    scaled = scaled_to_int(image, 8)
    assert scaled == {(1, 0): 4, (0, 1): -6}
    assert all(type(v) is int for v in scaled.values())
    with pytest.raises(NonIntegralError):
        scaled_to_int(image, 2)
    assert issubclass(NonIntegralError, ArithmeticError)


class _Halving(PolyOp):
    """Emits a half-integer coefficient while claiming the integral default D = 1."""

    def _apply(self, terms):
        return {(p, q, r): v / 2 for (p, q, r), v in terms.items()}


def test_undeclared_denominator_raises():
    """An operator whose images D does not clear makes the check raise rather
    than return a verdict."""
    for op in (_Halving(), Mono(1, 0) + _Halving()):
        with pytest.raises(NonIntegralError):
            check_poly_cyb(op, 1, [(0, 0, 0)])
        with pytest.raises(NonIntegralError):
            poly_cyb_residual(op, 1, (1, 0, 0))
    # declared through an OpSum coefficient, the same map is integral over D = 2
    halved = (Fraction(1, 2) * IDENTITY) * Mono(1, 0)
    assert poly_cyb_residual(halved, 1, (1, 0, 0)) == \
        _poly_cyb_residual_over_fractions(halved, 1, (1, 0, 0))


def test_perturbed_lemma_fails():
    """The lemma's check fails when g3's identity coefficient 1/4 becomes 1/3,
    or lambda moves off 4; a uniform 1/3 in g3 only rescales a1 and still holds."""
    from cgrm.dunkl import delta, euler, lemma_expression, skew_mono, xi1, xi2
    window = laurent_window(3, 1)

    def lemma(a1, a2, g):
        return delta + xi1 * delta * xi2 + Fraction(a1) * (skew_mono * g) + Fraction(a2) * euler

    q = Fraction(1, 4)
    perturbed = Fraction(1, 3) * IDENTITY - q * xi1 - q * xi2 + q * (xi1 * xi2)
    assert not check_poly_cyb(lemma(1, Fraction(2, 5), perturbed), 4, window)
    assert not check_poly_cyb(lemma_expression(1, Fraction(2, 5)), 4 + Fraction(1, 1000),
                              window)
    assert check_poly_cyb(lemma_expression(1, Fraction(2, 5)), 4, window)
    uniform = Fraction(1, 3) * ((IDENTITY - xi1) * (IDENTITY - xi2))
    assert check_poly_cyb(lemma(1, Fraction(2, 5), uniform), 4, window)
    assert check_poly_cyb(lemma_expression(Fraction(4, 3), Fraction(2, 5)), 4, window)


def test_element_e_off_lambda_fails():
    params = dunkl.CherednikParams(kappa=Fraction(1, 2), c0=Fraction(2, 3),
                                   c1=Fraction(1, 5), m=2)
    monos = polynomial_monomials(3, 3)
    op = dunkl.element_e(params)
    assert check_poly_cyb(op, 4 * params.c0 ** 2, monos)
    assert not check_poly_cyb(op, 4 * params.c0 ** 2 + 1, monos)


def test_poly_cyb_detects_non_solutions():
    """The three-leg checker is not vacuous: the bare divided difference fails."""
    from cgrm.dunkl import delta, lemma_expression
    assert poly_cyb_residual(delta, 4, (1, 0, 0))
    assert not check_poly_cyb(delta, 4, laurent_window(3, 1))
    assert poly_cyb_residual(lemma_expression(1, 0), 4, (1, 0, 0)) == {}


PERMUTATIONS = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0))


def _sign(perm):
    return 1 if perm in PERMUTATIONS[:3] else -1


def _permuted(perm, exps):
    return tuple(exps[i] for i in perm)


@settings(max_examples=12, deadline=None)
@given(cyb_ops, st.sampled_from([0, 4, Fraction(-3, 7)]))
def test_residual_of_a_skew_operator_alternates(op, lam):
    """For a skew op, CYB_lambda - the Z term included when lambda != 0 - is
    alternating: its residual on sigma m is sgn(sigma) times the residual on m
    with each key permuted by sigma."""
    window = laurent_window(3, 2)
    residuals = {m: poly_cyb_residual(op, lam, m) for m in window}
    for m in window:
        for perm in PERMUTATIONS:
            want = {_permuted(perm, k): _sign(perm) * v for k, v in residuals[m].items()}
            assert residuals[_permuted(perm, m)] == want


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.builds(dunkl.lemma_expression, small, small),
                 st.builds(lambda c: c * dunkl.euler, small),
                 st.builds(lambda c: c * (dunkl.skew_mono * dunkl.g3), small)),
       st.sampled_from([0, 4, Fraction(-3, 7)]), cyb_exps)
@example(dunkl.lemma_expression(1, Fraction(2, 5)), Fraction(-3, 7), (3, -1, 0))
def test_residual_of_an_odd_operator_inverts(op, lam, m):
    """For an odd op (iota op iota = -op, iota the exponent inversion), the
    residual on -m is the residual on m with its exponents negated."""
    images = _Images(op)
    for pair in laurent_window(2, 3):
        images[pair]
    assert images.certify(_inversion)
    residual = poly_cyb_residual(op, lam, m)
    want = {tuple(-e for e in k): v for k, v in residual.items()}
    assert poly_cyb_residual(op, lam, tuple(-e for e in m)) == want


def _with_inverses(monomials):
    """The monomials, then the negations of those not among them."""
    inverses = (tuple(-e for e in m) for m in monomials)
    return monomials + [m for m in inverses if m not in monomials]


def _closed_and_shuffled(windows):
    """S3-closed windows, and shuffled prefixes of them, which are not closed."""
    closed = st.sampled_from(windows)
    shuffled = closed.flatmap(st.permutations).flatmap(
        lambda w: st.integers(min_value=1, max_value=len(w)).map(lambda k: w[:k]))
    return st.one_of(closed, shuffled, st.lists(cyb_exps, min_size=1, max_size=8))


class _MirroredPair(PolyOp):
    """x y^2 -> x^2 y and x^2 y -> -x y^2, and every other monomial -> 0: skew,
    but not odd."""

    def _apply(self, terms):
        out = {}
        for (p, q, r), v in terms.items():
            if (p, q) == (1, 2):
                out[(2, 1, r)] = v
            elif (p, q) == (2, 1):
                out[(1, 2, r)] = -v
        return out


solved_ops = st.one_of(
    st.builds(lambda a1, a2: (dunkl.lemma_expression(a1, a2), Fraction(4)), small, small),
    st.builds(lambda p: (dunkl.element_e(p), 4 * p.c0 ** 2), m2_params),
    st.builds(lambda n: (dunkl.r_m2_poly_op(n), Fraction(1, 4)), odd_n),
    st.tuples(cyb_ops, st.sampled_from([Fraction(0), Fraction(4), Fraction(1, 3)])),
)


@settings(max_examples=60, deadline=None)
@given(solved_ops, small, _closed_and_shuffled([
    laurent_window(3, 1), polynomial_monomials(3, 3), _with_inverses(polynomial_monomials(3, 2)),
    _with_inverses([(-2, 1, 0), (1, 1, -1), (0, 2, -2), (1, -2, 2)])]))
@example((dunkl.lemma_expression(1, Fraction(2, 5)), 4), Fraction(1),
         [(-2, -1, -2), (-2, -2, -1)])
@example((dunkl.lemma_expression(1, Fraction(2, 5)), 4), Fraction(0), laurent_window(3, 1))
@example((dunkl.lemma_expression(1, Fraction(2, 5)), 4), Fraction(1),
         [(-2, -1, -2), (2, 2, 1)])
@example((dunkl.lemma_expression(1, Fraction(2, 5)) + _MirroredPair(), 4), Fraction(0),
         [(3, -1, -1), (-3, 1, 1)])
def test_check_poly_cyb_matches_the_per_monomial_oracle(op_lam, c, monomials):
    """The orbit skip gives the verdict of computing every monomial, on skew
    operators and on op + c x d/dx, which is not skew for c != 0, on odd
    operators and on ones that are not (element_e), and on lists closed under
    negation or not."""
    op, lam = op_lam
    if c:
        op = op + c * (Mono(1, 0) * Partial(0))
    want = all(not poly_cyb_residual(op, lam, m) for m in monomials)
    assert check_poly_cyb(op, lam, monomials) is want


def test_non_skew_operators_are_checked_at_every_monomial():
    """Each first monomial passes alone, and its permutation, or that of its
    inverse, fails: a non-skew operator, also one that is skew off the diagonal
    pairs (p, p) only or odd (x d/dx), has no orbit skipped."""
    lemma = dunkl.lemma_expression(1, Fraction(2, 5))
    diagonal = IDENTITY - ExponentSign() * ExponentSign()
    for op, lam, monomials in (
            (lemma + Mono(1, 0) * Partial(0), 4, [(-2, -1, -2), (-2, -2, -1)]),
            (lemma + Mono(1, 0) * Partial(0), 4, [(-2, -1, -2), (2, 2, 1)]),
            (ExponentSign() + Mono(1, -1), 0, [(-2, -1, 0), (0, -2, -1)]),
            (lemma + diagonal, 4, [(-2, -1, -2), (-2, -2, -1)])):
        assert check_poly_cyb(op, lam, monomials[:1])
        assert not check_poly_cyb(op, lam, monomials)


def test_images_certify_skewness_pair_by_pair():
    """certify(_mirror) holds while every pair read and its mirror pass sigma op
    sigma = -op, the diagonal pairs (p, p) included; a mirror is read only by
    certify, and the answer never turns back to True."""
    images = _Images(dunkl.lemma_expression(1, Fraction(2, 5)))
    for pair in laurent_window(2, 4):
        images[pair]
    assert images.certify(_mirror) and len(images) == 81
    images = _Images(Mono(1, -1))
    images[(1, 2)]
    assert not images.certify(_mirror)
    # the projection on the diagonal monomials x^p y^p vanishes off the diagonal
    images = _Images(IDENTITY - ExponentSign() * ExponentSign())
    images[(1, 2)]
    assert set(images) == {(1, 2)}
    assert images.certify(_mirror) and set(images) == {(1, 2), (2, 1)}
    images[(3, 3)]
    assert not images.certify(_mirror)
    images[(0, -1)]
    assert not images.certify(_mirror)


def test_images_certify_inversion_pair_by_pair():
    """certify(_inversion) holds while every pair in the memo and its inverse
    pass iota op iota = -op, the self-inverse pair (0, 0) included; an inverse
    is read only by certify, and the answer never turns back to True."""
    lemma = dunkl.lemma_expression(1, Fraction(2, 5))
    images = _Images(lemma)
    for pair in laurent_window(2, 4):
        images[pair]
    assert images.certify(_inversion) and len(images) == 81
    images = _Images(lemma)
    images[(1, 2)]
    assert set(images) == {(1, 2)}
    assert images.certify(_inversion) and set(images) == {(1, 2), (-1, -2)}
    images = _Images(Mono(1, -1))
    images[(1, 2)]
    assert not images.certify(_inversion)
    # skew, and odd at every pair but (1, 2) and (2, 1)
    images = _Images(lemma + _MirroredPair())
    images[(0, 1)]
    images[(0, 0)]
    assert images.certify(_inversion) and images.certify(_mirror)
    images[(-1, -2)]
    assert (1, 2) not in images
    assert not images.certify(_inversion) and images.certify(_mirror)
    images[(3, 0)]
    assert not images.certify(_inversion)


def test_a_skew_operator_that_is_not_odd_has_its_inverted_orbits_checked():
    """lemma + _MirroredPair is skew and solves CYB_4 at (3, -1, -1) but not at
    (-3, 1, 1): the inverted orbit is not skipped."""
    op = dunkl.lemma_expression(1, Fraction(2, 5)) + _MirroredPair()
    assert poly_cyb_residual(op, 4, (3, -1, -1)) == {}
    assert poly_cyb_residual(op, 4, (-3, 1, 1))
    assert check_poly_cyb(op, 4, [(3, -1, -1)])
    assert not check_poly_cyb(op, 4, [(3, -1, -1), (-3, 1, 1)])


@pytest.mark.parametrize("monomials, residuals, images, passes", [
    (laurent_window(3, 5), 146, 165, 45),
    (laurent_window(3, 6), 231, 169, 1),
    (polynomial_monomials(3, 8), 41, 45, 1),
], ids=["window5", "window6", "polynomial8"])
def test_check_poly_cyb_work(monkeypatch, monomials, residuals, images, passes):
    """The lemma's check computes one residual per orbit of S3 x inversion on a
    window and one per S3 orbit on polynomial_monomials, where no inverse image
    is read.  The leg pairs of the listed monomials take one pass of the
    kernel; each image read beyond them (44 at bound 5) takes one more."""
    residual = polyops._poly_cyb_residual
    calls = []
    made = []
    kernel = []
    monkeypatch.setattr(polyops, "_poly_cyb_residual",
                        lambda *args: calls.append(args) or residual(*args))
    monkeypatch.setattr(polyops, "_Images", lambda op: made.append(_Images(op)) or made[-1])
    op = dunkl.lemma_expression(1, Fraction(2, 5))
    apply_ = op._apply
    op._apply = lambda terms: kernel.append(len(terms)) or apply_(terms)
    assert check_poly_cyb(op, 4, monomials)
    (memo,) = made
    assert (len(calls), len(memo), len(kernel)) == (residuals, images, passes)
    assert sum(kernel) == images
    assert any(min(pair) < 0 for pair in memo) == any(min(m) < 0 for m in monomials)


def test_lemma_on_the_window_of_bound_8():
    """CYB_lambda of the lemma expression vanishes on [-8, 8]^3 at lambda = 4
    and not at 4 + 1/1000, one residual per orbit of S3 x inversion."""
    op = dunkl.lemma_expression(1, Fraction(2, 5))
    window = laurent_window(3, 8)
    assert check_poly_cyb(op, 4, window)
    assert not check_poly_cyb(op, 4 + Fraction(1, 1000), window)


@pytest.mark.parametrize("one_shot", [iter, lambda w: (m for m in w)], ids=["iter", "generator"])
def test_check_poly_cyb_reads_a_one_shot_iterable_once(one_shot):
    """A generator gives the verdict of its list: the check does not run on
    what the validation left of it."""
    op = dunkl.lemma_expression(1, Fraction(2, 5))
    window = laurent_window(3, 2)
    assert not check_poly_cyb(op, 5, one_shot(window))
    assert check_poly_cyb(op, 4, one_shot(window))


@pytest.mark.parametrize("entry", [(0, 0), [0, 0, 0], (0, 0, 0, 0), (0, 0, Fraction(1, 2))],
                         ids=repr)
def test_check_poly_cyb_rejects_malformed_monomials(entry):
    with pytest.raises(ValueError, match="three-variable monomials"):
        check_poly_cyb(dunkl.lemma_expression(1, Fraction(2, 5)), 4, [(1, 0, -1), entry])
