"""Reference computations owned by the benchmark, standard library only.

Nothing here imports cgrm: each function restates a formula from the paper or
a defining property, so a check built on it cannot agree with the program by
sharing its code.  Operators are taken in the program's JSON schema,
`{"n": n, "entries": [[[i, j], [k, l], "p/q"], ...]}`: the coefficient of
e_i (x) e_j in the image of e_k (x) e_l.
"""

from __future__ import annotations

from fractions import Fraction

HALF = Fraction(1, 2)


def _sgn(x):
    return (x > 0) - (x < 0)


def entries_from_json(obj):
    """{(out, inp): Fraction} from a JSON operator object."""
    return {(tuple(out), tuple(inp)): Fraction(v) for out, inp, v in obj["entries"]}


def columns(entries):
    """{inp: {out: value}} from an entries map, dropping zeros."""
    cols = {}
    for (out, inp), v in entries.items():
        if v:
            cols.setdefault(inp, {})[out] = v
    return cols


def _put(entries, out, inp, v):
    key = (out, inp)
    total = entries.get(key, 0) + v
    if total:
        entries[key] = total
    else:
        entries.pop(key, None)


def m1_display(n):
    """The displayed m = 1 solution.

    For j > l it sends e_j (x) e_l to
        (1/2 - (j - l)/n) e_j (x) e_l + (1/2) e_l (x) e_j
        + sum over l < s < j of e_s (x) e_{j+l-s},
    and e_l (x) e_j to the negative of the same expression with the two
    tensor legs swapped; e_j (x) e_j is a kernel vector.
    """
    out = {}
    for j in range(1, n + 1):
        for l in range(1, j):
            scalar = HALF - Fraction(j - l, n)
            _put(out, (j, l), (j, l), scalar)
            _put(out, (l, j), (j, l), HALF)
            _put(out, (l, j), (l, j), -scalar)
            _put(out, (j, l), (l, j), -HALF)
            for s in range(l + 1, j):
                _put(out, (s, j + l - s), (j, l), Fraction(1))
                _put(out, (j + l - s, s), (l, j), Fraction(-1))
    return out


def m2_display(n):
    """The displayed m = 2 solution (n odd).

    With h = (n + 1)/2, the inverse of 2 modulo n, e_j (x) e_l goes to
        (1/2 - [(j - l) h mod n]/n - [j = l]/2) e_j (x) e_l
        - (sgn(j - l)/2) e_l (x) e_j
        + sum over 0 <= N < (j - l)/2 of e_{l+2N} (x) e_{j-2N}      (j > l)
        - sum over 0 <= N < (l - j)/2 of e_{l-2N} (x) e_{j+2N}      (j < l)
        + [j, l even] (e_{j-1} (x) e_{l+1} - e_{j+1} (x) e_{l-1}).
    """
    if n % 2 == 0:
        raise ValueError("the m = 2 display needs odd n")
    h = (n + 1) // 2
    out = {}
    for j in range(1, n + 1):
        for l in range(1, n + 1):
            inp = (j, l)
            scalar = HALF - Fraction(((j - l) * h) % n, n) - (HALF if j == l else 0)
            _put(out, (j, l), inp, scalar)
            _put(out, (l, j), inp, -HALF * _sgn(j - l))
            big_n = 0
            while 2 * big_n < j - l:
                _put(out, (l + 2 * big_n, j - 2 * big_n), inp, Fraction(1))
                big_n += 1
            big_n = 0
            while 2 * big_n < l - j:
                _put(out, (l - 2 * big_n, j + 2 * big_n), inp, Fraction(-1))
                big_n += 1
            if j % 2 == 0 and l % 2 == 0:
                _put(out, (j - 1, l + 1), inp, Fraction(1))
                _put(out, (j + 1, l - 1), inp, Fraction(-1))
    return out


def beta_coefficient(m, n, j, l):
    """Coefficient of e_jj ^ e_ll (j < l) in the diagonal part of the (m, n) solution."""
    return Fraction(-1) + Fraction(2, n) * (((j - l) * pow(m, -1, n)) % n)


def _apply_legs(cols, legs, vec):
    """Act with a two-leg operator on the named legs of a three-leg vector."""
    p, q = legs
    out = {}
    for key, c in vec.items():
        col = cols.get((key[p], key[q]))
        if not col:
            continue
        for (i, j), v in col.items():
            new = list(key)
            new[p], new[q] = i, j
            new = tuple(new)
            total = out.get(new, 0) + c * v
            if total:
                out[new] = total
            else:
                out.pop(new)
    return out


def _axpy(acc, vec, s):
    for k, v in vec.items():
        total = acc.get(k, 0) + s * v
        if total:
            acc[k] = total
        else:
            acc.pop(k, None)


def cyb_column(cols, lam, triple):
    """CYB_lambda(r) applied to e_a (x) e_b (x) e_c, as a sparse map.

    CYB_lambda(r) = [r12, r13] + [r12, r23] + [r13, r23] - lambda Z with
    Z(u (x) v (x) w) = w (x) u (x) v - v (x) w (x) u.
    """
    a, b, c = triple
    start = {triple: Fraction(1)}
    total = {}
    for first, second in (((0, 1), (0, 2)), ((0, 1), (1, 2)), ((0, 2), (1, 2))):
        _axpy(total, _apply_legs(cols, first, _apply_legs(cols, second, start)), 1)
        _axpy(total, _apply_legs(cols, second, _apply_legs(cols, first, start)), -1)
    lam = Fraction(lam)
    if lam:
        _axpy(total, {(c, a, b): Fraction(1)}, -lam)
        _axpy(total, {(b, c, a): Fraction(1)}, lam)
    return total


def cyb_holds(cols, n, lam, rng, samples):
    """CYB_lambda(r) vanishes on `samples` seeded basis triples of V (x) V (x) V."""
    for _ in range(samples):
        triple = (rng.randint(1, n), rng.randint(1, n), rng.randint(1, n))
        if cyb_column(cols, lam, triple):
            return False
    return True


def is_antisymmetric(entries):
    """P r P = -r, with P the flip of the two tensor legs."""
    for ((i, j), (k, l)), v in entries.items():
        if entries.get(((j, i), (l, k)), 0) != -v:
            return False
    return True


def outside_parabolic(n, m):
    """Positions (j, l) of gl_n that the maximal parabolic p(m, n) does not contain.

    p(m, n) holds the traceless diagonal and every e_jl with j <= m or l > m,
    so what is left is the block of rows m+1..n and columns 1..m.
    """
    return [(j, l) for j in range(m + 1, n + 1) for l in range(1, m + 1)]


def carrier_dimension(n):
    """dim p(n - 2, n) = n^2 - 1 - 2(n - 2)."""
    return n * n - 1 - 2 * (n - 2)


def vanishes_on(matrix_entries, positions):
    return all(not matrix_entries.get(pos, 0) for pos in positions)


def first_leg_slices(entries):
    """The matrices (xi (x) 1) r for the elementary duals xi = e_ik^*, as
    {(i, k): {(j, l): value}}; the carrier of r is their span."""
    slices = {}
    for ((i, j), (k, l)), v in entries.items():
        if v:
            sl = slices.setdefault((i, k), {})
            sl[(j, l)] = sl.get((j, l), 0) + v
    return slices
