"""Compositional operators on two-variable Laurent polynomials over Q.

A polynomial is a dict {(p, q): c} that stores no zeros, for the terms
c x^p y^q.  Operators evaluate on integer numerators only.  op._apply(terms)
takes int coefficients and returns D * op(terms) with int coefficients, where
D = op.denominator() clears every rational coefficient in the operator tree.
Each consumer divides by D once: apply (after scaling its input by the input's
common denominator), which window_matrix runs per monomial, op_equal_on not at
all (it compares cross-multiplied images), and the polynomial Yang-Baxter check
at the very end.  That check lifts an operator to legs (1,2), (1,3), (2,3) of
three-variable monomials in one place, from a memo of the int images.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .linalg import add_scaled
from .scalars import NonIntegralError, common_denominator, scaled_to_int
from .tensorops import SparseOp

ONE = Fraction(1)


class ExactDivisionError(ArithmeticError):
    """A division kernel met a nonzero remainder; inputs in scope never do, so
    this always signals an implementation bug."""


class WindowStabilityError(ValueError):
    """An operator expected to preserve the truncated monomial window left it."""


def divide_linear(terms, sign):
    """Exact division of a two-variable terms-dict by (x + sign * y); raises on
    remainder.  The divisor is monic in x, so int terms give int quotients."""
    if not terms:
        return {}
    shift = min(p for p, _ in terms)
    work = {(p - shift, q): v for (p, q), v in terms.items()}
    quotient = {}
    while work:
        # The leading keys strictly decrease, so each quotient key is set once.
        key = max(work)
        p, q = key
        if p == 0:
            raise ExactDivisionError("nonzero remainder in linear division")
        coeff = work.pop(key)
        quotient[(p - 1 + shift, q)] = coeff
        tkey = (p - 1, q + 1)
        nv = work.get(tkey, 0) - sign * coeff
        if nv == 0:
            work.pop(tkey, None)
        else:
            work[tkey] = nv
    return quotient


class PolyOp:
    """Base for operators on two-variable polynomials; subclasses implement
    _apply(terms), which maps {(p, q): int} dicts with no zero coefficients to
    D * op(terms) in the same form, with D = denominator()."""

    def apply(self, terms):
        """op(terms) for a zero-free dict {(p, q): rational}, as a zero-free dict
        of Fractions: the input is scaled to int numerators by its common
        denominator d, run through _apply, and divided by d D once."""
        for key in terms:
            if type(key) is not tuple or len(key) != 2:
                raise ValueError("operators act on two-variable polynomials, got the key %r"
                                 % (key,))
        d = common_denominator(terms.values())
        image = self._apply(scaled_to_int(terms, d))
        d *= self.denominator()
        return {k: Fraction(v, d) for k, v in image.items()}

    def _apply(self, terms):
        raise NotImplementedError

    def denominator(self) -> int:
        """A D such that D * op maps integer coefficients to integer ones.  A
        rational coefficient appears only in an OpSum, so every atom keeps
        integer coefficients integral and D is 1 here."""
        return 1

    def __add__(self, other):
        return OpSum([(ONE, self), (ONE, other)])

    def __sub__(self, other):
        return OpSum([(ONE, self), (-ONE, other)])

    def __neg__(self):
        return OpSum([(-ONE, self)])

    def __mul__(self, other):
        if isinstance(other, PolyOp):
            return OpCompose(self, other)
        return NotImplemented

    def __rmul__(self, scalar):
        return OpSum([(Fraction(scalar), self)])


class Mono(PolyOp):
    """Multiplication by x^p y^q; a constant c is c * Mono(0, 0)."""

    def __init__(self, p, q):
        self.p = p
        self.q = q

    def _apply(self, terms):
        return {(a + self.p, b + self.q): v for (a, b), v in terms.items()}


class Partial(PolyOp):
    """d/dx (i = 0) or d/dy (i = 1)."""

    def __init__(self, i):
        self.i = i

    def _apply(self, terms):
        if self.i == 0:
            return {(a - 1, b): a * v for (a, b), v in terms.items() if a}
        return {(a, b - 1): b * v for (a, b), v in terms.items() if b}


class Sigma(PolyOp):
    """Swap the two variables."""

    def _apply(self, terms):
        return {(b, a): v for (a, b), v in terms.items()}


class Xi(PolyOp):
    """The sign character x_i -> -x_i on variable i."""

    def __init__(self, i):
        self.i = i

    def _apply(self, terms):
        return {k: -v if k[self.i] % 2 else v for k, v in terms.items()}


class DivDiff(PolyOp):
    """Exact division by (x - y)."""

    def _apply(self, terms):
        return divide_linear(terms, -1)


class DivSum(PolyOp):
    """Exact division by (x + y)."""

    def _apply(self, terms):
        return divide_linear(terms, 1)


class ExponentSign(PolyOp):
    """Diagonal operator scaling a monomial by sgn(first exponent - second exponent)."""

    def _apply(self, terms):
        return {(a, b): v if a > b else -v for (a, b), v in terms.items() if a != b}


class OpSum(PolyOp):
    """Linear combination sum c * op over (c, op) pairs.  A nested sum is
    flattened with its coefficients multiplied in, and zero terms are dropped.

    D is the lcm of the summands' c.denominator * D_op, so summand op enters
    _apply with the int multiplier D c / D_op, fixed here once."""

    def __init__(self, summands):
        self.summands = []
        for c, op in summands:
            for d, atom in op.summands if isinstance(op, OpSum) else [(ONE, op)]:
                cd = c * d
                if cd:
                    self.summands.append((cd, atom))
        scales = [c.denominator * op.denominator() for c, op in self.summands]
        self.d = lcm(*scales)
        self._scaled = [(c.numerator * (self.d // s), op)
                        for (c, op), s in zip(self.summands, scales)]

    def denominator(self):
        return self.d

    def _apply(self, terms):
        out = {}
        for c, op in self._scaled:
            add_scaled(out, c, op._apply(terms))
        return out


class OpCompose(PolyOp):
    """f * g applies g first, then f, so D is D_f D_g."""

    def __init__(self, f, g):
        self.f = f
        self.g = g
        self.d = f.denominator() * g.denominator()

    def denominator(self):
        return self.d

    def _apply(self, terms):
        return self.f._apply(self.g._apply(terms))


def op_equal_on(op_a: PolyOp, op_b: PolyOp, monomials) -> bool:
    """Operator equality tested monomial-by-monomial, as D_b * (D_a a) = D_a *
    (D_b b) on the int images."""
    da, db = op_a.denominator(), op_b.denominator()
    for exps in monomials:
        a, b = op_a._apply({exps: 1}), op_b._apply({exps: 1})
        if da != db:
            a = {k: db * v for k, v in a.items()}
            b = {k: da * v for k, v in b.items()}
        if a != b:
            return False
    return True


def polynomial_monomials(nvars, max_total_degree):
    """All monomial exponent tuples with nonnegative entries and bounded total
    degree, in lexicographic order."""
    return [e for e in itertools.product(range(max_total_degree + 1), repeat=nvars)
            if sum(e) <= max_total_degree]


def laurent_window(nvars, bound):
    """All exponent tuples with entries in [-bound, bound], in lexicographic order."""
    return list(itertools.product(range(-bound, bound + 1), repeat=nvars))


def restrict_to_window(images, n: int) -> SparseOp:
    """Restrict a monomial-image map (p, q) -> {(p', q'): v} to the window
    x^(j-1) y^(l-1) <-> e_j (x) e_l, 1 <= j, l <= n; raises
    WindowStabilityError if any image leaves the window."""
    cols = {}
    for j in range(1, n + 1):
        for l in range(1, n + 1):
            col = {}
            for (p, q), v in images(j - 1, l - 1).items():
                if not (0 <= p < n and 0 <= q < n):
                    raise WindowStabilityError(
                        "image of (%d, %d) leaves the window: exponents %r" % (j, l, (p, q)))
                col[(p + 1, q + 1)] = v
            if col:
                cols[(j, l)] = col
    return SparseOp(n, cols)


def window_matrix(op: PolyOp, n: int) -> SparseOp:
    """The window restriction of a two-variable operator, one apply per monomial."""
    return restrict_to_window(lambda p, q: op.apply({(p, q): ONE}), n)


def _mirror(pair):
    return pair[1], pair[0]


def _inversion(pair):
    return -pair[0], -pair[1]


class _Images(dict):
    """Memo of the integer images (p, q) -> op._apply({(p, q): 1}), that is D
    times the image with D = op.denominator().  An operator whose _apply gives a
    value that is not an int has a denominator it does not declare, and raises
    NonIntegralError."""

    def __init__(self, op):
        super().__init__()
        self.op = op
        self.d = op.denominator()
        self.tested = {}

    def __missing__(self, pair):
        image = self.op._apply({pair: 1})
        for v in image.values():
            if type(v) is not int:
                raise NonIntegralError("image of %r has the coefficient %r, not an integer "
                                       "over the declared denominator %d" % (pair, v, self.d))
        self[pair] = image
        return image

    def certify(self, sym):
        """Whether sym op sym = -op on the memo, for an involution sym of the
        exponent pairs (_mirror or _inversion): image(sym(pair)) must be
        image(pair) with every key moved by sym and every value negated.  Each
        call tests only the pairs that entered since the last call for sym; the
        images it reads enter too and are tested at the next call.  After the
        first pair that fails, the answer stays False."""
        tested = self.tested.get(sym, 0)
        if tested is None or tested == len(self):
            return tested is not None
        pairs = list(self)[tested:]
        self.tested[sym] = len(self)
        for pair in pairs:
            if self[sym(pair)] != {sym(k): -v for k, v in self[pair].items()}:
                self.tested[sym] = None
                return False
        return True


def _lift(images, legs, terms, out):
    """Add the action on legs (i, j) of three-variable int terms into out, and
    return out.  The third exponent is carried along, which is exact because
    every atom touches only its two variables."""
    i, j = legs
    for key, coeff in terms.items():
        r = key[3 - i - j]
        for (p, q), v in images[(key[i], key[j])].items():
            k = (p, q, r) if j == 1 else (p, r, q) if i == 0 else (r, p, q)
            nv = out.get(k, 0) + coeff * v
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
    return out


def _poly_cyb_residual(images, lam, exps):
    """(scale * CYB_lambda on exps as an int dict, scale), with scale = s D^2 and
    s the denominator of lambda D^2, so that the Z term is integral too.

    [r12, r13] + [r12, r23] + [r13, r23]
    = r12 (r13 + r23) - r13 (r12 - r23) - r23 (r12 + r13),
    so each leg pair acts once on the monomial and once on a sum."""
    d2 = images.d ** 2
    lam_d2 = Fraction(lam) * d2
    s = lam_d2.denominator
    z = lam_d2.numerator
    a, b, c = exps
    # -s lambda D^2 Z, with Z x^a y^b z^c = x^c y^a z^b - x^b y^c z^a
    total = {(c, a, b): -z, (b, c, a): z} if z and not a == b == c else {}
    m = {exps: s}
    r12, r13, r23 = (_lift(images, legs, m, {}) for legs in ((0, 1), (0, 2), (1, 2)))
    _lift(images, (0, 1), add_scaled(dict(r13), 1, r23), total)
    _lift(images, (0, 2), add_scaled(r23, -1, r12), total)
    _lift(images, (1, 2), add_scaled(add_scaled({}, -1, r12), -1, r13), total)
    return total, s * d2


def check_poly_cyb(op: PolyOp, lam, monomials) -> bool:
    """CYB_lambda(op) = 0 on every listed three-variable monomial.  The
    monomials are read once, so any iterable gives the verdict of its list.

    A monomial is skipped where a symmetry certified on the memo maps it to an
    S3 orbit already shown zero.  For a skew op (sigma op sigma = -op, sigma
    the mirror), CYB_lambda is alternating, so the residual on a permutation
    of a monomial is the permuted residual up to sign, and it reads only the
    mirrors of the pairs the first one read: an orbit is done when its
    residual is zero and the mirror is certified on the memo.  For an odd op
    (iota op iota = -op, iota the exponent inversion), each bracket is
    quadratic in op and Z only permutes the variables, so the residual on -m
    is the residual on m with its exponents negated, and reads only the
    inverses of the pairs that one read: an orbit whose inverse is done is
    done when the inversion is certified on the memo.  So a list with no
    inverted orbit, such as polynomial_monomials, reads no inverse."""
    monomials = list(monomials)
    for exps in monomials:
        if type(exps) is not tuple or len(exps) != 3 or any(type(e) is not int for e in exps):
            raise ValueError("the Yang-Baxter check acts on three-variable monomials, "
                             "got %r" % (exps,))
    images = _Images(op)
    done = set()
    for exps in monomials:
        orbit = tuple(sorted(exps))
        if orbit in done:
            continue
        if tuple(-e for e in reversed(orbit)) in done and images.certify(_inversion):
            done.add(orbit)
            continue
        if _poly_cyb_residual(images, lam, exps)[0]:
            return False
        if images.certify(_mirror):
            done.add(orbit)
    return True
