"""Exact sparse operators on tensor powers of V = k^n, wedge elements, and matrix helpers.

Conventions: basis vectors e_1..e_n are 1-indexed; e_{ij} is the elementary
matrix with a single 1 in row i, column j, acting by e_{ij} e_l = delta_{jl} e_i.
A wedge a^b abbreviates (a (x) b - b (x) a)/2, so wedge elements embed into
operators on V (x) V.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .linalg import add_scaled
from .scalars import format_scalar, parse_scalar

ZERO = Fraction(0)
HALF = Fraction(1, 2)


def _clean(d):
    return {k: v for k, v in d.items() if v}


def _check_n(a, b):
    if a.n != b.n:
        raise ValueError("dimension mismatch: %d vs %d" % (a.n, b.n))


def _check_legs(a, b):
    """Operators on different tensor powers of V do not combine; an empty
    operator has no legs and combines with any.  One key gives the count."""
    _check_n(a, b)
    if a.cols and b.cols:
        la, lb = len(next(iter(a.cols))), len(next(iter(b.cols)))
        if la != lb:
            raise ValueError("leg count mismatch: %d vs %d" % (la, lb))


def _add_product(out, left, right, negate=False):
    """Add left @ right (or its negative) into out; entry maps (i, j) -> coefficient."""
    by_row = {}
    for (i, j), v in right.items():
        by_row.setdefault(i, []).append((j, v))
    for (i, j), a in left.items():
        row = by_row.get(j)
        if row is None:
            continue
        if negate:
            a = -a
        for (l, b) in row:
            key = (i, l)
            out[key] = out.get(key, 0) + a * b


def add_column_product(out, left, col, negate=False):
    """Add L col (or its negative) into out and return out, where L is given by
    its column map left {input: {output: coefficient}}; entries that cancel
    stay in out as 0, for the caller to clean once."""
    for mid, v in col.items():
        upper = left.get(mid)
        if upper is None:
            continue
        if negate:
            v = -v
        for key, w in upper.items():
            if key in out:
                out[key] += v * w
            else:
                out[key] = v * w
    return out


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
    def unit(cls, n, i, j):
        return cls(n, {(i, j): Fraction(1)})

    def __eq__(self, other):
        return isinstance(other, MatrixN) and self.n == other.n and self.entries == other.entries

    def is_zero(self):
        return not self.entries

    def __add__(self, other, c=1):
        """self + c * other; same n and no zeros, so no cleaning or range check."""
        _check_n(self, other)
        out = MatrixN(self.n)
        out.entries = add_scaled(dict(self.entries), c, other.entries)
        return out

    def __neg__(self):
        return MatrixN(self.n, {k: -v for k, v in self.entries.items()})

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rmul__(self, scalar):
        s = Fraction(scalar)
        return MatrixN(self.n, {k: s * v for k, v in self.entries.items()})

    def __matmul__(self, other):
        _check_n(self, other)
        out = {}
        _add_product(out, self.entries, other.entries)
        return MatrixN(self.n, out)

    def bracket(self, other):
        """self @ other - other @ self: both products accumulate into one map,
        which is cleaned once; indices are in range, so none is checked."""
        _check_n(self, other)
        out = {}
        _add_product(out, self.entries, other.entries)
        _add_product(out, other.entries, self.entries, negate=True)
        result = MatrixN(self.n)
        result.entries = _clean(out)
        return result

    def is_nilpotent(self):
        power = self
        for _ in range(self.n):
            if power.is_zero():
                return True
            power = power @ self
        return power.is_zero()

    def __repr__(self):
        return "MatrixN(%d, %r)" % (self.n, self.entries)


class SparseOp:
    """Linear operator on a tensor power of V, stored column-sparse.

    cols maps an input basis tuple (k, l, ...) to the sparse image column
    {(i, j, ...): coefficient of e_i (x) e_j (x) ...}; the number of tensor
    legs is the length of those tuples.  Coefficients are Fractions, or ints
    in an operator scaled to integer numerators; sums and compositions of
    ints stay ints.
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
            v = v if type(v) is Fraction else Fraction(v)
            col[out] = col[out] + v if out in col else v
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

    def __add__(self, other, c=1):
        """self + c * other, column by column; a column that cancels is dropped."""
        _check_legs(self, other)
        cols = {k: dict(col) for k, col in self.cols.items()}
        for key, col in other.cols.items():
            dst = add_scaled(cols.setdefault(key, {}), c, col)
            if not dst:
                del cols[key]
        result = SparseOp(self.n)
        result.cols = cols
        return result

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return SparseOp(self.n, {k: {o: -v for o, v in c.items()} for k, c in self.cols.items()})

    def __rmul__(self, scalar):
        s = Fraction(scalar)
        return SparseOp(self.n, {k: {o: s * v for o, v in c.items()} for k, c in self.cols.items()})

    def __matmul__(self, other):
        """Composition self after other."""
        _check_legs(self, other)
        mine = self.cols
        return SparseOp(self.n, {inp: add_column_product({}, mine, col)
                                 for inp, col in other.cols.items()})

    def bracket(self, other):
        """self @ other - other @ self in one pass: each product of other after
        self is subtracted straight into the columns of self @ other, so no
        second operator is built, and each touched column is cleaned once.  The
        product checks that the operands match in n and in legs."""
        out = self @ other
        cols = out.cols
        theirs = other.cols
        for inp, col in self.cols.items():
            acc = _clean(add_column_product(cols.get(inp, {}), theirs, col, negate=True))
            if acc:
                cols[inp] = acc
            elif inp in cols:
                del cols[inp]
        return out

    def is_antisymmetric(self):
        """P o self o P = -self with P(u (x) v) = v (x) u, on two legs, read in
        place: each entry at out (i, j), in (k, l) has its mirror at out (j, i),
        in (l, k), compared by numerator and denominator, so that no entry is
        negated and no operator is built.  A nonzero entry that is its own
        mirror (i = j and k = l) fails."""
        cols = self.cols
        for (k, l), col in cols.items():
            mirror = cols.get((l, k), {})
            for (i, j), a in col.items():
                b = mirror.get((j, i))
                if b is None or a.numerator != -b.numerator or a.denominator != b.denominator:
                    return False
        return True

    def to_json_obj(self):
        items = sorted(((out, inp, v) for out, inp, v in self.entries()),
                       key=lambda t: (t[0], t[1]))
        return {"n": self.n,
                "entries": [[list(out), list(inp), format_scalar(v)] for out, inp, v in items]}

    @classmethod
    def from_json_obj(cls, obj):
        """Read {"n": n, "entries": [[out, inp, "p/q"], ...]}, where out and inp
        are lists of JSON integers; anything else raises ValueError."""
        raw = obj["entries"]
        if not isinstance(raw, list):
            raise ValueError("entries must be a list, not %r" % (raw,))
        entries = []
        parsed = {}  # one parse per distinct value string
        for entry in raw:
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ValueError("an entry must be a list [out, inp, value], not %r" % (entry,))
            out, inp, s = entry
            if not (isinstance(out, list) and isinstance(inp, list)
                    and {int}.issuperset(map(type, out + inp))):
                raise ValueError("indices must be lists of integers, not %r" % ((out, inp),))
            if isinstance(s, str):
                v = parsed.get(s)
                if v is None:
                    v = parsed[s] = parse_scalar(s)
            else:
                v = parse_scalar(s)
            entries.append((tuple(out), tuple(inp), v))
        n = obj["n"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError("n must be an integer >= 1, not %r" % (n,))
        return cls.from_entries(n, entries)

    def __repr__(self):
        return "SparseOp(n=%d, nnz=%d)" % (self.n, self.count_nonzero())


# Former per-arity names; only bench/tracer.py and bench/selfcheck.py still use them.
SparseOp2 = SparseOp3 = SparseOp


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

    def _accumulate(self, p, q, v):
        """Add v e_p ^ e_q, dropping the term when it cancels."""
        n = self.n
        if not (1 <= p[0] <= n and 1 <= p[1] <= n and 1 <= q[0] <= n and 1 <= q[1] <= n):
            raise ValueError("index out of range: %r" % ((p, q),))
        if p == q or v == 0:
            return
        if _flat(n, *p) > _flat(n, *q):
            p, q, v = q, p, -v
        key = (p, q)
        total = self.terms.get(key, ZERO) + v
        if total:
            self.terms[key] = total
        else:
            del self.terms[key]

    @classmethod
    def from_terms(cls, n, triples):
        """triples: iterable of ((a, b), (c, d), coefficient)."""
        w = cls(n)
        for p, q, v in triples:
            w._accumulate(p, q, Fraction(v))
        return w

    def __eq__(self, other):
        return isinstance(other, WedgeElement) and self.n == other.n and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def __add__(self, other, c=1):
        """self + c * other; same n and canonical keys, so no refolding."""
        _check_n(self, other)
        out = WedgeElement(self.n)
        out.terms = add_scaled(dict(self.terms), c, other.terms)
        return out

    def __sub__(self, other):
        return self.__add__(other, -1)

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
    _check_n(a, b)
    out = WedgeElement(a.n)
    for p, x in a.entries.items():
        for q, y in b.entries.items():
            out._accumulate(p, q, x * y)
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


def kron_sum2(x: MatrixN) -> SparseOp:
    """X (x) 1 + 1 (x) X (the two-fold diagonal action).  Column (k, l) holds
    x_ik at (i, l) and x_il at (k, i); at (k, l) itself they add to x_kk + x_ll."""
    n = x.n
    cols = {}
    for (i, k), v in x.entries.items():
        for l in range(1, n + 1):
            first = cols.setdefault((k, l), {})
            first[(i, l)] = first.get((i, l), 0) + v
            second = cols.setdefault((l, k), {})
            second[(l, i)] = second.get((l, i), 0) + v
    return SparseOp(n, cols)


def canonical_json(obj) -> str:
    """Deterministic JSON used by the CLI: compact separators, sorted keys."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
