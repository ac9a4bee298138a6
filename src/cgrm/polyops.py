"""Laurent polynomials over Q and the compositional operators acting on them.

Operators are two-leg gadgets: every atom acts on a chosen pair of variables of
a polynomial in any number of variables, which is what lets the same operator
be embedded on legs (1,2), (1,3), (2,3) of a three-variable polynomial for
Yang-Baxter checks.
"""

from __future__ import annotations

from fractions import Fraction

from .tensorops import SparseOp

ZERO = Fraction(0)


class ExactDivisionError(ArithmeticError):
    """A division kernel met a nonzero remainder; inputs in scope never do, so
    this always signals an implementation bug."""


class WindowStabilityError(Exception):
    """An operator expected to preserve the truncated monomial window left it."""


class LaurentPoly:
    """Finite-support map from integer exponent tuples to rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def zero(cls, nvars=2):
        return cls(nvars)

    @classmethod
    def monomial(cls, exps, coeff=1):
        return cls(len(exps), {tuple(exps): Fraction(coeff)})

    @classmethod
    def one(cls, nvars=2):
        return cls.monomial((0,) * nvars)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, ZERO) + v
        return LaurentPoly(self.nvars, out)

    def __neg__(self):
        return LaurentPoly(self.nvars, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        s = Fraction(scalar)
        return LaurentPoly(self.nvars, {k: s * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                out[key] = out.get(key, ZERO) + va * vb
        return LaurentPoly(self.nvars, out)

    def __repr__(self):
        return "LaurentPoly(%d, %r)" % (self.nvars, self.terms)


def _shift_key(key, var, delta):
    out = list(key)
    out[var] += delta
    return tuple(out)


def divide_linear(terms, vi, vj, sign):
    """Exact division of a terms-dict by (x_vi + sign * x_vj); raises on remainder."""
    if not terms:
        return {}
    shift = min(k[vi] for k in terms)
    work = {_shift_key(k, vi, -shift): v for k, v in terms.items()}
    quotient = {}
    while work:
        key = max(work, key=lambda k: (k[vi], k))
        if key[vi] == 0:
            raise ExactDivisionError("nonzero remainder in linear division")
        coeff = work.pop(key)
        qkey = _shift_key(key, vi, -1)
        quotient[qkey] = quotient.get(qkey, ZERO) + coeff
        tkey = _shift_key(qkey, vj, 1)
        nv = work.get(tkey, ZERO) - sign * coeff
        if nv == 0:
            work.pop(tkey, None)
        else:
            work[tkey] = nv
    return {_shift_key(k, vi, shift): v for k, v in quotient.items() if v != 0}


class PolyOp:
    """Base for two-leg operators; subclasses implement _apply(terms, legs)."""

    def apply(self, poly: LaurentPoly, legs=(0, 1)) -> LaurentPoly:
        return LaurentPoly(poly.nvars, self._apply(poly.terms, legs))

    def _apply(self, terms, legs):
        raise NotImplementedError

    def __add__(self, other):
        return OpSum([self, other])

    def __sub__(self, other):
        return OpSum([self, OpScale(Fraction(-1), other)])

    def __neg__(self):
        return OpScale(Fraction(-1), self)

    def __mul__(self, other):
        if isinstance(other, PolyOp):
            return OpCompose(self, other)
        return OpScale(Fraction(other), self)

    def __rmul__(self, scalar):
        return OpScale(Fraction(scalar), self)


class Const(PolyOp):
    def __init__(self, c=1):
        self.c = Fraction(c)

    def _apply(self, terms, legs):
        if self.c == 1:
            return dict(terms)
        return {k: self.c * v for k, v in terms.items()}


class Mono(PolyOp):
    """Multiplication by x_a^p x_b^q on the two legs."""

    def __init__(self, p, q):
        self.p = p
        self.q = q

    def _apply(self, terms, legs):
        a, b = legs
        out = {}
        for k, v in terms.items():
            kk = list(k)
            kk[a] += self.p
            kk[b] += self.q
            out[tuple(kk)] = v
        return out


class Partial(PolyOp):
    """d/dx on leg i (0 or 1)."""

    def __init__(self, i):
        self.i = i

    def _apply(self, terms, legs):
        var = legs[self.i]
        out = {}
        for k, v in terms.items():
            e = k[var]
            if e == 0:
                continue
            key = _shift_key(k, var, -1)
            out[key] = out.get(key, ZERO) + e * v
        return {k: v for k, v in out.items() if v != 0}


class Sigma(PolyOp):
    """Swap the two legs."""

    def _apply(self, terms, legs):
        a, b = legs
        out = {}
        for k, v in terms.items():
            kk = list(k)
            kk[a], kk[b] = kk[b], kk[a]
            key = tuple(kk)
            out[key] = out.get(key, ZERO) + v
        return out


class Xi(PolyOp):
    """Scale x on leg i by omega (x -> omega x); omega is 1 or -1 here."""

    def __init__(self, i, omega):
        self.i = i
        self.omega = Fraction(omega)

    def _apply(self, terms, legs):
        var = legs[self.i]
        if self.omega == 1:
            return dict(terms)
        return {k: v if k[var] % 2 == 0 else -v for k, v in terms.items()}


class DivDiff(PolyOp):
    """Exact division by (x_a - x_b)."""

    def _apply(self, terms, legs):
        return divide_linear(terms, legs[0], legs[1], -1)


class DivSum(PolyOp):
    """Exact division by (x_a + x_b)."""

    def _apply(self, terms, legs):
        return divide_linear(terms, legs[0], legs[1], 1)


class ExponentSign(PolyOp):
    """Diagonal operator scaling a monomial by sgn(first exponent - second exponent)."""

    def _apply(self, terms, legs):
        a, b = legs
        out = {}
        for k, v in terms.items():
            if k[a] > k[b]:
                out[k] = v
            elif k[a] < k[b]:
                out[k] = -v
        return out


class OpScale(PolyOp):
    def __init__(self, c, op):
        self.c = Fraction(c)
        self.op = op

    def _apply(self, terms, legs):
        if self.c == 0:
            return {}
        return {k: self.c * v for k, v in self.op._apply(terms, legs).items()}


class OpSum(PolyOp):
    def __init__(self, ops):
        flat = []
        for op in ops:
            if isinstance(op, OpSum):
                flat.extend(op.ops)
            else:
                flat.append(op)
        self.ops = flat

    def _apply(self, terms, legs):
        out = {}
        for op in self.ops:
            for k, v in op._apply(terms, legs).items():
                nv = out.get(k, ZERO) + v
                if nv == 0:
                    out.pop(k, None)
                else:
                    out[k] = nv
        return out


class OpCompose(PolyOp):
    """f * g applies g first, then f."""

    def __init__(self, f, g):
        self.f = f
        self.g = g

    def _apply(self, terms, legs):
        return self.f._apply(self.g._apply(terms, legs), legs)


IDENTITY = Const(1)


def op_equal_on(op_a: PolyOp, op_b: PolyOp, monomials) -> bool:
    """Operator equality tested monomial-by-monomial."""
    for exps in monomials:
        p = LaurentPoly.monomial(exps)
        if op_a.apply(p) != op_b.apply(p):
            return False
    return True


def polynomial_monomials(nvars, max_total_degree):
    """All monomial exponent tuples with nonnegative entries and bounded total degree."""
    def rec(prefix, remaining, slots):
        if slots == 1:
            for d in range(remaining + 1):
                yield prefix + (d,)
            return
        for d in range(remaining + 1):
            yield from rec(prefix + (d,), remaining - d, slots - 1)
    return list(rec((), max_total_degree, nvars))


def laurent_window(nvars, bound):
    """All exponent tuples with entries in [-bound, bound]."""
    def rec(prefix, slots):
        if slots == 0:
            yield prefix
            return
        for d in range(-bound, bound + 1):
            yield from rec(prefix + (d,), slots - 1)
    return list(rec((), nvars))


class TruncWindow:
    """The correspondence x^(j-1) y^(l-1) <-> e_j (x) e_l for 1 <= j, l <= n."""

    def __init__(self, n):
        self.n = n

    def monomial_exps(self, j, l):
        return (j - 1, l - 1)

    def basis_pair(self, exps):
        return (exps[0] + 1, exps[1] + 1)

    def contains(self, exps):
        return 0 <= exps[0] < self.n and 0 <= exps[1] < self.n


def window_matrix(op: PolyOp, n: int) -> SparseOp:
    """Restrict a two-variable operator to the truncated window; raises
    WindowStabilityError if any image leaves the window."""
    win = TruncWindow(n)
    cols = {}
    for j in range(1, n + 1):
        for l in range(1, n + 1):
            image = op.apply(LaurentPoly.monomial(win.monomial_exps(j, l)))
            col = {}
            for exps, v in image.terms.items():
                if not win.contains(exps):
                    raise WindowStabilityError(
                        "image of (%d, %d) leaves the window: exponents %r" % (j, l, exps))
                col[win.basis_pair(exps)] = v
            if col:
                cols[(j, l)] = col
    return SparseOp(n, cols)


class _LegCache:
    """Memoized application of one operator to single monomials on fixed legs."""

    def __init__(self, op, legs):
        self.op = op
        self.legs = legs
        self.cache = {}

    def apply_terms(self, terms):
        out = {}
        cache = self.cache
        op = self.op
        legs = self.legs
        for key, coeff in terms.items():
            hit = cache.get(key)
            if hit is None:
                hit = op._apply({key: Fraction(1)}, legs)
                cache[key] = hit
            for k, v in hit.items():
                nv = out.get(k, ZERO) + coeff * v
                if nv == 0:
                    out.pop(k, None)
                else:
                    out[k] = nv
        return out


def z_poly_terms(exps):
    """The cyclic-difference invariant on a three-variable monomial."""
    a, b, c = exps
    out = {}
    out[(c, a, b)] = out.get((c, a, b), ZERO) + 1
    key = (b, c, a)
    nv = out.get(key, ZERO) - 1
    if nv == 0:
        out.pop(key, None)
    else:
        out[key] = nv
    return out


LEG_PAIRS = ((0, 1), (0, 2), (1, 2))


def poly_cyb_residual(op: PolyOp, lam, exps):
    """CYB_lambda of a two-leg operator evaluated on one three-variable monomial."""
    caches = {legs: _LegCache(op, legs) for legs in LEG_PAIRS}
    return _poly_cyb_residual(caches, lam, exps)


def _poly_cyb_residual(caches, lam, exps):
    lam = Fraction(lam)
    total = {}

    def accumulate(terms, s):
        for k, v in terms.items():
            nv = total.get(k, ZERO) + s * v
            if nv == 0:
                total.pop(k, None)
            else:
                total[k] = nv

    mono = {exps: Fraction(1)}
    for ia, ib in ((0, 1), (0, 2), (1, 2)):
        ca, cb = caches[LEG_PAIRS[ia]], caches[LEG_PAIRS[ib]]
        accumulate(ca.apply_terms(cb.apply_terms(mono)), 1)
        accumulate(cb.apply_terms(ca.apply_terms(mono)), -1)
    if lam:
        accumulate(z_poly_terms(exps), -lam)
    return LaurentPoly(3, total)


def check_poly_cyb(op: PolyOp, lam, monomials) -> bool:
    """CYB_lambda(op) = 0 on every listed three-variable monomial."""
    caches = {legs: _LegCache(op, legs) for legs in LEG_PAIRS}
    for exps in monomials:
        if not _poly_cyb_residual(caches, lam, exps).is_zero():
            return False
    return True
