"""Compositional operators on two-variable Laurent polynomials over Q.

A polynomial is a dict {(p, q): c} that stores no zeros, for the terms
c x^p y^q.  Operators evaluate on integer numerators of tagged terms only.
op._apply(terms) takes a zero-free dict {(p, q, r): int}, a batch of
polynomials told apart by the tag r, and returns D * op(terms) in the same
form, where D = op.denominator() clears every rational coefficient in the
operator tree.  Every atom acts on (p, q) and carries r unchanged, so one pass
over a batch gives each tagged polynomial its own image.  window_matrix runs
one pass over all window monomials and divides by D once; op_equal_on runs one
pass per operator over all listed monomials and compares cross-multiplied
images; the polynomial Yang-Baxter check fills a memo of int images with one
pass over the leg pairs of its monomials, lifts them to legs (1,2), (1,3),
(2,3) of three-variable monomials in one place, and divides at the very end.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .linalg import add_scaled
from .scalars import NonIntegralError
from .tensorops import SparseOp

ONE = Fraction(1)


class ExactDivisionError(ArithmeticError):
    """A division kernel met a nonzero remainder; inputs in scope never do, so
    this always signals an implementation bug."""


class WindowStabilityError(ValueError):
    """An operator expected to preserve the truncated monomial window left it."""


def divide_linear(terms, sign):
    """Exact division of tagged int terms {(p, q, r): v} by (x + sign * y);
    raises ExactDivisionError on a remainder.

    The divisor is homogeneous and does not involve the tag, so each chain of
    terms with one total degree p + q and one tag r divides on its own, and
    the batch divides exactly when every chain does.  A chain is divided
    synthetically, one pass per x-degree, highest first: the quotient's
    coefficient at x^(p-1) is the chain's at x^p less sign times the quotient's
    at x^p, and what is left at the chain's lowest x-degree is its remainder.
    The divisor is monic in x, so int terms give int quotients."""
    chains = {}
    for (p, q, r), v in terms.items():
        chain = chains.get((p + q, r))
        if chain is None:
            chains[(p + q, r)] = {p: v}
        else:
            chain[p] = v
    quotient = {}
    for (degree, r), chain in chains.items():
        low = min(chain)
        # -sign times the quotient's coefficient found last
        carry = 0
        for p in range(max(chain), low, -1):
            v = chain.get(p, 0) + carry
            if v:
                quotient[(p - 1, degree - p, r)] = v
            carry = -sign * v
        if chain[low] + carry:
            raise ExactDivisionError("nonzero remainder in linear division")
    return quotient


class PolyOp:
    """Base for operators on two-variable polynomials; subclasses implement
    _apply(terms), which maps zero-free tagged dicts {(p, q, r): int} to
    D * op(terms) in the same form, with D = denominator(), acting on (p, q)
    and carrying the tag r unchanged."""

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
        p, q = self.p, self.q
        return {(a + p, b + q, r): v for (a, b, r), v in terms.items()}


class Partial(PolyOp):
    """d/dx (i = 0) or d/dy (i = 1)."""

    def __init__(self, i):
        self.i = i

    def _apply(self, terms):
        if self.i == 0:
            return {(a - 1, b, r): a * v for (a, b, r), v in terms.items() if a}
        return {(a, b - 1, r): b * v for (a, b, r), v in terms.items() if b}


class Sigma(PolyOp):
    """Swap the two variables."""

    def _apply(self, terms):
        return {(b, a, r): v for (a, b, r), v in terms.items()}


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
        return {(a, b, r): v if a > b else -v for (a, b, r), v in terms.items() if a != b}


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
    """Operator equality on the listed monomials (p, q): one pass of each
    operator over all of them, each tagged by its index in the list, and
    D_b * (D_a a) = D_a * (D_b b) on the int images."""
    batch = {(p, q, r): 1 for r, (p, q) in enumerate(monomials)}
    da, db = op_a.denominator(), op_b.denominator()
    a, b = op_a._apply(batch), op_b._apply(batch)
    if da != db:
        a = {k: db * v for k, v in a.items()}
        b = {k: da * v for k, v in b.items()}
    return a == b


def polynomial_monomials(nvars, max_total_degree):
    """All monomial exponent tuples with nonnegative entries and bounded total
    degree, in lexicographic order.  A negative bound raises ValueError: its
    empty list would make every check over it hold vacuously."""
    if max_total_degree < 0:
        raise ValueError("max_total_degree must be >= 0, not %d" % max_total_degree)
    return [e for e in itertools.product(range(max_total_degree + 1), repeat=nvars)
            if sum(e) <= max_total_degree]


def laurent_window(nvars, bound):
    """All exponent tuples with entries in [-bound, bound], in lexicographic
    order; a negative bound raises ValueError, as in polynomial_monomials."""
    if bound < 0:
        raise ValueError("bound must be >= 0, not %d" % bound)
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


def _int_images(op: PolyOp, pairs):
    """[D op(x^p y^q) for (p, q) in pairs] with D = op.denominator(), from one
    pass of the kernel in which each monomial is tagged by its place."""
    images = [{} for _ in pairs]
    for (a, b, r), v in op._apply({(p, q, r): 1 for r, (p, q) in enumerate(pairs)}).items():
        images[r][(a, b)] = v
    return images


def window_matrix(op: PolyOp, n: int) -> SparseOp:
    """The window restriction of a two-variable operator: one pass of the
    kernel over all n^2 window monomials, x^p y^q tagged p n + q, and one
    division by D."""
    d = op.denominator()
    images = _int_images(op, [(p, q) for p in range(n) for q in range(n)])
    for image in images:
        for k, v in image.items():
            image[k] = Fraction(v, d)
    return restrict_to_window(lambda p, q: images[p * n + q], n)


def _mirror(pair):
    return pair[1], pair[0]


def _inversion(pair):
    return -pair[0], -pair[1]


class _Images(dict):
    """Memo of the integer images (p, q) -> D op(x^p y^q) with D =
    op.denominator().  Images enter through fill, one tagged pass over the
    pairs not yet in the memo; a pair read but missing is a batch of one.  An
    operator whose _apply gives a value that is not an int has a denominator
    it does not declare, and raises NonIntegralError."""

    def __init__(self, op):
        super().__init__()
        self.op = op
        self.d = op.denominator()
        self.tested = {}

    def __missing__(self, pair):
        self.fill((pair,))
        return self[pair]

    def fill(self, pairs):
        """Enter the images of the pairs not yet in the memo, in their order, from
        one pass of the kernel in which each is tagged by its place among them."""
        missing = [pair for pair in dict.fromkeys(pairs) if pair not in self]
        if not missing:
            return
        for pair, image in zip(missing, _int_images(self.op, missing)):
            for v in image.values():
                if type(v) is not int:
                    raise NonIntegralError("image of %r has the coefficient %r, not an integer "
                                           "over the declared denominator %d" % (pair, v, self.d))
            self[pair] = image

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
    inverted orbit, such as polynomial_monomials, reads no inverse.

    The memo starts with the images of every listed monomial's leg pairs
    (a, b), (a, c), (b, c), which the first lifts read, from one tagged pass."""
    monomials = list(monomials)
    for exps in monomials:
        if type(exps) is not tuple or len(exps) != 3 or any(type(e) is not int for e in exps):
            raise ValueError("the Yang-Baxter check acts on three-variable monomials, "
                             "got %r" % (exps,))
    images = _Images(op)
    images.fill((a, b) for exps in monomials for a, b in itertools.combinations(exps, 2))
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
