"""Exact sparse operators on tensor powers of V = k^n, wedge elements, and matrix helpers.

Conventions: basis vectors e_1..e_n are 1-indexed; e_{ij} is the elementary
matrix with a single 1 in row i, column j, acting by e_{ij} e_l = delta_{jl} e_i.
A wedge a^b abbreviates (a (x) b - b (x) a)/2, so wedge elements embed into
operators on V (x) V.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .linalg import rref
from .scalars import format_scalar, parse_scalar

ZERO = Fraction(0)
HALF = Fraction(1, 2)


def _clean(d):
    return {k: v for k, v in d.items() if v != 0}


class MatrixN:
    """Element of gl_n stored as a sparse map (i, j) -> coefficient."""

    __slots__ = ("n", "entries")

    def __init__(self, n, entries=None):
        self.n = n
        self.entries = _clean(dict(entries or {}))
        for (i, j) in self.entries:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError("index out of range: %r" % ((i, j),))

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def unit(cls, n, i, j, coeff=1):
        return cls(n, {(i, j): Fraction(coeff)})

    @classmethod
    def identity(cls, n):
        return cls(n, {(i, i): Fraction(1) for i in range(1, n + 1)})

    def __eq__(self, other):
        return isinstance(other, MatrixN) and self.n == other.n and self.entries == other.entries

    def __hash__(self):
        return hash((self.n, frozenset(self.entries.items())))

    def is_zero(self):
        return not self.entries

    def __add__(self, other):
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, ZERO) + v
        return MatrixN(self.n, out)

    def __neg__(self):
        return MatrixN(self.n, {k: -v for k, v in self.entries.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        s = Fraction(scalar)
        return MatrixN(self.n, {k: s * v for k, v in self.entries.items()})

    def __matmul__(self, other):
        out = {}
        by_row = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        for (i, j), a in self.entries.items():
            for (l, b) in by_row.get(j, ()):
                key = (i, l)
                out[key] = out.get(key, ZERO) + a * b
        return MatrixN(self.n, out)

    def bracket(self, other):
        return self @ other - other @ self

    def trace(self):
        return sum((v for (i, j), v in self.entries.items() if i == j), ZERO)

    def is_nilpotent(self):
        power = self
        for _ in range(self.n):
            if power.is_zero():
                return True
            power = power @ self
        return power.is_zero()

    def exp_nilpotent(self, s=1):
        """exp(s X) as a finite sum; requires X nilpotent."""
        if not self.is_nilpotent():
            raise ValueError("matrix is not nilpotent")
        s = Fraction(s)
        total = MatrixN.identity(self.n)
        term = MatrixN.identity(self.n)
        k = 1
        while True:
            term = Fraction(s, k) * (term @ self)
            if term.is_zero():
                break
            total = total + term
            k += 1
        return total

    def __repr__(self):
        return "MatrixN(%d, %r)" % (self.n, self.entries)


class SparseOp:
    """Linear operator on a tensor power of V, stored column-sparse.

    cols maps an input basis tuple (k, l, ...) to the sparse image column
    {(i, j, ...): coefficient of e_i (x) e_j (x) ...}; the number of tensor
    legs is the length of those tuples.
    """

    __slots__ = ("n", "cols")

    def __init__(self, n, cols=None):
        self.n = n
        self.cols = {}
        for key, col in (cols or {}).items():
            col = _clean(col)
            if col:
                self.cols[key] = col

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def identity(cls, n):
        """The identity of V (x) V."""
        return cls(n, {(k, l): {(k, l): Fraction(1)}
                       for k in range(1, n + 1) for l in range(1, n + 1)})

    @classmethod
    def from_entries(cls, n, entries):
        """entries: iterable of (out, inp, coefficient); every index tuple has one length."""
        cols = {}
        legs = None
        for out, inp, v in entries:
            if legs is None:
                legs = len(out)
            if len(out) != legs or len(inp) != legs:
                raise ValueError("index tuples of different lengths: %r" % ((out, inp),))
            for idx in (*out, *inp):
                if not 1 <= idx <= n:
                    raise ValueError("index out of range: %r" % ((out, inp),))
            col = cols.setdefault(inp, {})
            col[out] = col.get(out, ZERO) + Fraction(v)
        return cls(n, cols)

    def entries(self):
        for inp, col in self.cols.items():
            for out, v in col.items():
                yield out, inp, v

    def column(self, *inp):
        return dict(self.cols.get(inp, {}))

    def count_nonzero(self):
        return sum(len(c) for c in self.cols.values())

    def __eq__(self, other):
        return isinstance(other, SparseOp) and self.n == other.n and self.cols == other.cols

    def is_zero(self):
        return not self.cols

    def __add__(self, other):
        self._check(other)
        cols = {k: dict(c) for k, c in self.cols.items()}
        for key, col in other.cols.items():
            dst = cols.setdefault(key, {})
            for out, v in col.items():
                dst[out] = dst.get(out, ZERO) + v
        return SparseOp(self.n, cols)

    def __neg__(self):
        return SparseOp(self.n, {k: {o: -v for o, v in c.items()} for k, c in self.cols.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        s = Fraction(scalar)
        if s == 0:
            return SparseOp.zero(self.n)
        return SparseOp(self.n, {k: {o: s * v for o, v in c.items()} for k, c in self.cols.items()})

    def __matmul__(self, other):
        """Composition self after other."""
        self._check(other)
        cols = {}
        mine = self.cols
        for inp, col in other.cols.items():
            acc = {}
            for mid, v in col.items():
                upper = mine.get(mid)
                if upper is None:
                    continue
                for out, w in upper.items():
                    acc[out] = acc.get(out, ZERO) + v * w
            acc = _clean(acc)
            if acc:
                cols[inp] = acc
        return SparseOp(self.n, cols)

    def bracket(self, other):
        return self @ other - other @ self

    def swap_conjugate(self):
        """P o self o P with P(u (x) v) = v (x) u, on two legs."""
        cols = {}
        for (k, l), col in self.cols.items():
            cols[(l, k)] = {(j, i): v for (i, j), v in col.items()}
        return SparseOp(self.n, cols)

    def is_antisymmetric(self):
        return self.swap_conjugate() == -self

    def transpose_tensor(self):
        """Tensor coefficients T_{abcd} with self = sum T e_{ab} (x) e_{cd}, on two legs."""
        out = {}
        for (i, j), (k, l), v in self.entries():
            out[(i, k, j, l)] = v
        return out

    def to_json_obj(self):
        items = sorted(((out, inp, v) for out, inp, v in self.entries()),
                       key=lambda t: (t[0], t[1]))
        return {"n": self.n,
                "entries": [[list(out), list(inp), format_scalar(v)] for out, inp, v in items]}

    @classmethod
    def from_json_obj(cls, obj):
        entries = [(tuple(map(int, o)), tuple(map(int, i)), parse_scalar(s))
                   for o, i, s in obj["entries"]]
        return cls.from_entries(int(obj["n"]), entries)

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch: %d vs %d" % (self.n, other.n))

    def __repr__(self):
        return "SparseOp(n=%d, nnz=%d)" % (self.n, self.count_nonzero())


# Former per-arity names; callers and bench/tracer.py still look methods up under them.
SparseOp2 = SparseOp3 = SparseOp


# Module-level aliases matching the operation contract; all work for any number of legs.

def op_compose(a, b):
    return a @ b


def op_add(a, b):
    return a + b


def op_scale(scalar, a):
    return Fraction(scalar) * a


def op_commutator(a, b):
    return a.bracket(b)


def swap_conjugate(r: SparseOp) -> SparseOp:
    return r.swap_conjugate()


def _flat(n, i, j):
    return (i - 1) * n + (j - 1)


class WedgeElement:
    """Element of gl_n ^ gl_n as a map from ordered basis pairs to coefficients.

    Keys are ((a, b), (c, d)) with (a, b) strictly before (c, d) in the
    flattened lexicographic order; reversed and repeated pairs are folded in
    during construction, so equality of canonical forms is exact equality.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        for (p, q), v in (terms or {}).items():
            self._accumulate(p, q, v)
        self.terms = _clean(self.terms)

    def _accumulate(self, p, q, v):
        n = self.n
        if not (1 <= p[0] <= n and 1 <= p[1] <= n and 1 <= q[0] <= n and 1 <= q[1] <= n):
            raise ValueError("index out of range: %r" % ((p, q),))
        if p == q or v == 0:
            return
        if _flat(n, *p) > _flat(n, *q):
            p, q, v = q, p, -v
        key = (p, q)
        self.terms[key] = self.terms.get(key, ZERO) + v

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def single(cls, n, a, b, c, d, coeff=1):
        """coeff * e_{ab} ^ e_{cd}."""
        return cls(n, {((a, b), (c, d)): Fraction(coeff)})

    @classmethod
    def from_terms(cls, n, triples):
        """triples: iterable of ((a, b), (c, d), coefficient)."""
        w = cls(n)
        for p, q, v in triples:
            w._accumulate(p, q, Fraction(v))
        w.terms = _clean(w.terms)
        return w

    def __eq__(self, other):
        return isinstance(other, WedgeElement) and self.n == other.n and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = WedgeElement(self.n)
        out.terms = dict(self.terms)
        for (p, q), v in other.terms.items():
            out._accumulate(p, q, v)
        out.terms = _clean(out.terms)
        return out

    def __neg__(self):
        return Fraction(-1) * self

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        s = Fraction(scalar)
        out = WedgeElement(self.n)
        if s != 0:
            out.terms = {k: s * v for k, v in self.terms.items()}
        return out

    def __repr__(self):
        return "WedgeElement(n=%d, terms=%d)" % (self.n, len(self.terms))


def wedge_of_matrices(a: MatrixN, b: MatrixN) -> WedgeElement:
    """Bilinear extension of ^ to arbitrary gl_n elements."""
    out = WedgeElement(a.n)
    for p, x in a.entries.items():
        for q, y in b.entries.items():
            out._accumulate(p, q, x * y)
    out.terms = _clean(out.terms)
    return out


def wedge_to_op(w: WedgeElement) -> SparseOp:
    """Interpret a wedge element as the operator sum of (a (x) b - b (x) a)/2 terms."""
    cols = {}

    def add(inp, out, v):
        col = cols.setdefault(inp, {})
        col[out] = col.get(out, ZERO) + v

    for ((a, b), (c, d)), v in w.terms.items():
        add((b, d), (a, c), v * HALF)
        add((d, b), (c, a), -v * HALF)
    return SparseOp(w.n, cols)


def op_to_wedge(op: SparseOp) -> WedgeElement:
    """Inverse of wedge_to_op on antisymmetric operators; raises on anything else."""
    tensor = op.transpose_tensor()
    for (a, b, c, d), v in tensor.items():
        if tensor.get((c, d, a, b), ZERO) != -v:
            raise ValueError("operator is not antisymmetric; no wedge form exists")
    out = WedgeElement(op.n)
    n = op.n
    for (a, b, c, d), v in tensor.items():
        if _flat(n, a, b) < _flat(n, c, d):
            out._accumulate((a, b), (c, d), 2 * v)
        elif (a, b) == (c, d) and v != 0:
            raise ValueError("operator is not antisymmetric; no wedge form exists")
    out.terms = _clean(out.terms)
    return out


def span_basis(vectors):
    """Exact row-reduced basis of the span of a list of MatrixN."""
    reduced, _ = rref([m.entries for m in vectors])
    return [MatrixN(vectors[0].n, row) for row in reduced]


def permutation_op(n) -> SparseOp:
    """P(u (x) v) = v (x) u."""
    return SparseOp(n, {(k, l): {(l, k): Fraction(1)}
                        for k in range(1, n + 1) for l in range(1, n + 1)})


def kron(*factors: MatrixN) -> SparseOp:
    """factors[0] (x) factors[1] (x) ... as an operator on the matching tensor power of V."""
    cols = {(): {(): Fraction(1)}}
    for g in factors:
        bycol = {}
        for (i, k), v in g.entries.items():
            bycol.setdefault(k, []).append((i, v))
        cols = {inp + (k,): {out + (i,): x * y for out, x in col.items() for i, y in images}
                for inp, col in cols.items() for k, images in sorted(bycol.items())}
    return SparseOp(factors[0].n, cols)


def kron_sum2(x: MatrixN) -> SparseOp:
    """X (x) 1 + 1 (x) X (the two-fold diagonal action)."""
    ident = MatrixN.identity(x.n)
    return kron(x, ident) + kron(ident, x)


def ad_action(x: MatrixN, op: SparseOp) -> SparseOp:
    """Adjoint action of X on an operator coming from gl_n (x) gl_n."""
    d = kron_sum2(x)
    return d @ op - op @ d


def canonical_json(obj) -> str:
    """Deterministic JSON used by the CLI: compact separators, sorted keys."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
