"""Rotating-wheel combinatorics: the alternating Euclid-style sequence, strings of
integers stepping by m modulo n, and the closed-form computation of the aligned
index sets, with a brute-force oracle built on the root partial order."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

from . import bd


def euclid_sequence(m: int, n: int):
    """i_0 = n, i_1 = m, i_t = (-i_{t-2}) mod i_{t-1}, stopping at the first 1."""
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    if gcd(m, n) != 1:
        raise ValueError("m and n must be coprime")
    seq = [n, m]
    while seq[-1] != 1:
        seq.append((-seq[-2]) % seq[-1])
    return seq


def strings(m: int, n: int):
    """Partition of 1..n into chains stepping by m; a reduction mod n starts a new chain.

    Chains are listed in wheel order starting from the chain containing 1.
    """
    if gcd(m, n) != 1:
        raise ValueError("m and n must be coprime")
    out = [[1]]
    cur = 1
    for _ in range(n - 1):
        cur += m
        if cur > n:
            cur -= n
            out.append([cur])
        else:
            out[-1].append(cur)
    return out


@dataclass
class WheelData:
    """Everything the closed-form index computation needs for one coprime pair."""

    m: int
    n: int
    seq: list = field(default_factory=list)
    strings: list = field(default_factory=list)
    minimal_elements: list = field(default_factory=list)

    @property
    def L(self):
        return len(self.seq) - 1

    @classmethod
    def build(cls, m, n):
        seq = euclid_sequence(m, n)
        chains = strings(m, n)
        minimal = [chain[0] for chain in chains]
        w = cls(m=m, n=n, seq=seq, strings=chains, minimal_elements=minimal)
        w._validate()
        return w

    def _validate(self):
        flat = sorted(x for chain in self.strings for x in chain)
        if flat != list(range(1, self.n + 1)):
            raise ValueError("strings must partition 1..n")
        for t in range(len(self.seq) - 1):
            if gcd(self.seq[t], self.seq[t + 1]) != 1:
                raise ValueError("consecutive sequence terms must be coprime")
        if self.m > 1:
            step = (-self.n) % self.m
            for a, b in zip(self.minimal_elements, self.minimal_elements[1:]):
                if (b - a) % self.m != step:
                    raise ValueError("minimal elements must step by -n mod m")


@lru_cache(maxsize=None)
def wheel(m: int, n: int) -> WheelData:
    return WheelData.build(m, n)


def func_a(jp: int, m: int, n: int) -> int:
    """Minimal element of the string adjacent (counterclockwise) to the one holding jp."""
    return m - ((n - jp) % m)


def func_b(lp: int, m: int, n: int) -> int:
    """Minimal element of the string holding lp."""
    return 1 + ((lp - 1) % m)


def _nested_mod(value: int, seq, t: int) -> int:
    for i in seq[: t + 1]:
        value %= i
    return value


def func_c(t: int, l: int, w: WheelData) -> int:
    """Alignment offset C_t; the reduced value alternates between the two wheels."""
    if not 0 <= t <= w.L - 1:
        raise ValueError("t out of range")
    if t % 2 == 0:
        return w.seq[t] - _nested_mod(w.seq[0] - l, w.seq, t)
    return w.seq[t] - _nested_mod(l - 1, w.seq, t)


def func_d(t: int, l: int, w: WheelData) -> int:
    if not 0 <= t <= w.L - 1:
        raise ValueError("t out of range")
    if t % 2 == 0:
        return 1 + _nested_mod(l - 1, w.seq, t)
    return 1 + _nested_mod(w.seq[0] - l, w.seq, t)


def func_j(t: int, j: int, l: int, w: WheelData) -> int:
    """1 - i_t + [(n-l) mod i_0 .. mod i_t] + [(j-1) mod i_0 .. mod i_t]."""
    return 1 - w.seq[t] + _nested_mod(w.n - l, w.seq, t) + _nested_mod(j - 1, w.seq, t)


def sbar_closed(w: WheelData, jp: int, lp: int):
    """Aligned index set computed by the closed double sum over (t, N).

    Empty inner sums (nonpositive J) contribute nothing; the result never
    repeats a subscript and always lands in 1..n.
    """
    n = w.n
    j = n + 1 - jp
    l = n + 1 - lp
    out = set()
    count = 0
    for t in range(w.L):
        jt = func_j(t, j, l, w)
        step = w.seq[t + 1]
        for big_n in range((jt - 1) // step + 1):
            s = jp + jt - big_n * step
            if not 1 <= s <= n:
                raise ValueError("closed form produced an out-of-range subscript")
            out.add(s)
            count += 1
    if count != len(out):
        raise ValueError("closed form produced a repeated subscript")
    return out


def sbar_bruteforce(m: int, n: int, j1: int, j2: int):
    """Oracle: all s in 1..n with e_{j1,s} below-or-equal e_{j1+j2-s,j2} in the
    partial order of the (m, n) triple.

    Candidates that do not name valid positive root vectors are excluded (the
    order is only defined on positive roots).
    """
    t = _oracle_triple(m, n)
    out = set()
    for s in range(1, n + 1):
        a = j1 + j2 - s
        if not (j1 < s and 1 <= a < j2):
            continue
        rho = bd.PosRoot(j1, s)
        mu = bd.PosRoot(a, j2)
        if bd.precedes(t, rho, mu, allow_equal=True):
            out.add(s)
    return out


@lru_cache(maxsize=None)
def _oracle_triple(m, n):
    return bd.cg_triple(m, n)
