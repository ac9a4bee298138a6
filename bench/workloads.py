"""The three benchmark workloads as ordered lists of operations.

An operation is one call into cgrm's public API (or one `cgrm.cli.main`
invocation) followed by a check that runs outside the timed span.  Every check
compares against `reference` or against a property the method must have; none
compares against stored output of the program.  Negative controls are
operations that succeed only when the program rejects its input.

`build(workload, seed, tmpdir)` draws every input from `seed` and returns the
operations of one round; the same seed gives the same operations and inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Optional

from cgrm import bd, cli, closed_form, cyb, dunkl, frobenius, polyops, wheels

import reference as ref

NONZERO = [k for k in range(-9, 10) if k != 0]
CYB_SAMPLES = 16
# The largest instance runs this many times a round, spread over the round, and
# largest_s is the median: one run can sit in a slow phase of a shared host.
LARGEST_REPEATS = 3

# Spans (see tracer.SPANS) that must fire in each workload; the README gives
# the same assignment.  A run that misses one is refused.
REQUIRED_SPANS = {
    "rmatrix": (
        "cli.main", "tensorops.SparseOp3.bracket", "tensorops.wedge_to_op",
        "tensorops.canonical_json", "tensorops.SparseOp2.from_json_obj",
        "cyb.find_lambda", "cyb.cyb_lambda", "cyb.double_bracket", "cyb.embed", "cyb.z_op",
        "linalg.rref", "linalg.solve_affine",
        "bd.bd_r_matrix", "bd.solve_beta_variety", "bd.verify_beta_variety",
        "closed_form.cg_closed_form", "wheels.sbar_closed", "wheels.sbar_bruteforce",
        "polyops.window_matrix", "dunkl.r_via_dunkl_m1", "dunkl.r_via_dunkl_m2",
    ),
    "boundary": (
        "tensorops.SparseOp3.bracket", "tensorops.SparseOp2.matmul",
        "tensorops.MatrixN.bracket", "tensorops.wedge_to_op",
        "cyb.find_lambda", "cyb.double_bracket", "cyb.embed",
        "linalg.rref", "linalg.expand_in_rref", "linalg.invert",
        "bd.bd_r_matrix", "closed_form.cg_closed_form",
        "frobenius.carrier", "frobenius.parabolic", "frobenius.r_check",
        "frobenius.structure_constants", "frobenius.cocycle_check",
        "frobenius.frobenius_functional_check", "frobenius.nilpotent_exp_action",
        "polyops.window_matrix", "dunkl.b_cg", "dunkl.elements_v",
    ),
    "poly": (
        "tensorops.SparseOp2.matmul", "tensorops.wedge_to_op", "closed_form.cg_closed_form",
        "polyops.check_poly_cyb", "polyops.window_matrix", "polyops.op_equal_on",
        "dunkl.lemma_cyb4", "dunkl.verify_relations", "dunkl.r_via_dunkl_m1",
        "dunkl.r_via_dunkl_m2", "dunkl.module_structure_check", "dunkl.elements_v",
    ),
}


@dataclass
class Op:
    name: str
    run: Callable
    check: Callable
    prepare: Optional[Callable] = None  # untimed input preparation
    largest: Optional[int] = None  # repeat index, for the largest instance's operations
    peak: bool = False  # replayed in the tracemalloc pass


def rational(rng):
    return Fraction(rng.choice(NONZERO), rng.choice(NONZERO))


def coprime_pairs(n_min, n_max):
    return [(m, n) for n in range(n_min, n_max + 1) for m in range(1, n) if gcd(m, n) == 1]


def _cli(*argv):
    """One `cgrm` invocation; returns (exit code, what it printed)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _is(value):
    return lambda result: result is value


def _cyb_ok(op_json, lam, sample_seed):
    entries = ref.entries_from_json(op_json)
    return (ref.is_antisymmetric(entries)
            and ref.cyb_holds(ref.columns(entries), op_json["n"], lam,
                              random.Random(sample_seed), CYB_SAMPLES))


# --------------------------------------------------------------------------
# rmatrix: generate, compare and verify the solutions the way CLI users do.

RMATRIX_PAIRS = coprime_pairs(3, 9) + [(2, 13), (2, 15)]
RMATRIX_LARGEST = (2, 15)
BETA_PAIRS = [(m, 12) for m in (1, 5, 7, 11)] + [(7, 20)]
PERTURBED_PAIR = (2, 7)


def _gen_closed_check(m, n, path, sample_seed):
    def check(result):
        code, printed = result
        if code != 0 or printed:
            return False
        obj = _read_json(path)
        entries = ref.entries_from_json(obj)
        if m == 1 and entries != ref.m1_display(n):
            return False
        if m == 2 and entries != ref.m2_display(n):
            return False
        return _cyb_ok(obj, Fraction(1, 4), sample_seed)
    return check


def _same_bytes(path, other):
    def check(result):
        code, printed = result
        return code == 0 and not printed and _read_bytes(path) == _read_bytes(other)
    return check


def _json_is(path, expected, code_expected=0, keys=None):
    """The invocation exited with code_expected and wrote `expected` (restricted
    to `keys` when given)."""
    def check(result):
        code, printed = result
        if code != code_expected or printed:
            return False
        obj = _read_json(path)
        if keys is not None:
            obj = {k: obj.get(k) for k in keys}
        return obj == expected
    return check


def _perturb(src, dst, rng):
    """Write src with one seeded entry shifted by a seeded nonzero rational."""
    index = rng.randrange(10 ** 6)
    delta = rational(rng)

    def prepare():
        obj = _read_json(src)
        entry = obj["entries"][index % len(obj["entries"])]
        entry[2] = str(Fraction(entry[2]) + delta)
        with open(dst, "w") as fh:
            json.dump(obj, fh)
    return prepare


def _beta_solution_check(m, n):
    expected = {((j, j), (l, l)): ref.beta_coefficient(m, n, j, l)
                for j in range(1, n + 1) for l in range(j + 1, n + 1)}
    expected = {k: v for k, v in expected.items() if v}

    def check(result):
        if result is None:
            return False
        solution, nullity = result
        return nullity == 0 and solution.terms == expected
    return check


def _sbar_mismatches(pairs):
    bad = []
    for m, n in pairs:
        w = wheels.wheel(m, n)
        for jp in range(1, n + 1):
            for lp in range(1, n + 1):
                if wheels.sbar_closed(w, jp, lp) != wheels.sbar_bruteforce(m, n, jp, lp):
                    bad.append((m, n, jp, lp))
    return bad


def _sbar_12_31():
    # The paper's worked example: the aligned index set of (15, 22) at (12, 31).
    return _sbar_mismatches([(12, 31)]), wheels.sbar_closed(wheels.wheel(12, 31), 15, 22)


def build_rmatrix(seed, tmp):
    rng = random.Random(seed)
    ops = []

    def path(tag, m, n):
        return os.path.join(tmp, "%s_%d_%d.json" % (tag, m, n))

    def verify(m, n, repeat=None):
        report = path("verify", m, n)
        return Op("verify.%d.%d" % (m, n) + (".repeat%d" % repeat if repeat else ""),
                  lambda p=path("closed", m, n), q=report: _cli("verify", "--in", p, "--out", q),
                  _json_is(report, {"classification": "quasitriangular", "lambda": "1/4",
                                    "residual_nonzero_count": 0}),
                  largest=repeat, peak=repeat == 0)

    for m, n in RMATRIX_PAIRS:
        closed, viabd, viadunkl = path("closed", m, n), path("bd", m, n), path("dunkl", m, n)
        tag = "%d.%d" % (m, n)
        ops.append(Op("gen.closed." + tag,
                      lambda m=m, n=n, p=closed: _cli("gen", "--m", m, "--n", n, "--out", p),
                      _gen_closed_check(m, n, closed, rng.getrandbits(32))))
        ops.append(Op("gen.bd." + tag,
                      lambda m=m, n=n, p=viabd: _cli("gen", "--m", m, "--n", n,
                                                     "--construction", "bd", "--out", p),
                      _same_bytes(viabd, closed)))
        compared = [viabd]
        if m <= 2:
            params = ()
            if m == 2:
                # "--flag=value": argparse reads a separate "-3/4" as an option name.
                params = tuple("--%s=%s" % (flag, rational(rng))
                               for flag in ("kappa", "c0", "c1"))
            ops.append(Op("gen.dunkl." + tag,
                          lambda m=m, n=n, p=viadunkl, params=params: _cli(
                              "gen", "--m", m, "--n", n, "--construction", "dunkl",
                              *params, "--out", p),
                          _same_bytes(viadunkl, closed)))
            compared.append(viadunkl)
        for other in compared:
            out = other + ".cmp"
            ops.append(Op("compare.%s.%s" % (os.path.basename(other).split("_")[0], tag),
                          lambda a=closed, b=other, p=out: _cli("compare", a, b, "--out", p),
                          _json_is(out, {"equal": True, "differences": []})))
        ops.append(verify(m, n, 0 if (m, n) == RMATRIX_LARGEST else None))

    m, n = RMATRIX_LARGEST
    report = path("verify_lambda", m, n)
    ops.append(Op("verify.lambda.%d.%d" % (m, n),
                  lambda p=path("closed", m, n), q=report: _cli(
                      "verify", "--in", p, "--lambda", "1/4", "--out", q),
                  _json_is(report, {"cyb_lambda_zero": True, "lambda": "1/4",
                                    "residual_nonzero_count": 0})))

    # Negative control: one shifted entry must make the file fail verification.
    m, n = PERTURBED_PAIR
    bad, report = path("perturbed", m, n), path("verify_perturbed", m, n)

    ops.append(Op("negative.verify_perturbed.%d.%d" % (m, n),
                  lambda p=bad, q=report: _cli("verify", "--in", p, "--out", q),
                  _json_is(report, {"classification": "not_r_matrix"}, code_expected=1,
                           keys=("classification",)),
                  prepare=_perturb(path("closed", m, n), bad, rng)))

    for n in range(2, 21):
        pairs = [(m, n) for m in range(1, n) if gcd(m, n) == 1]
        ops.append(Op("sbar.n%d" % n, lambda pairs=pairs: _sbar_mismatches(pairs),
                      lambda bad: bad == []))
    ops.append(Op("sbar.12.31", _sbar_12_31,
                  lambda result: result == ([], {16, 17, 19, 22})))
    ops.append(verify(*RMATRIX_LARGEST, repeat=1))

    solved = {}
    for m, n in BETA_PAIRS:
        def solve(m=m, n=n):
            solved[(m, n)] = bd.solve_beta_variety(bd.cg_triple(m, n))
            return solved[(m, n)]
        ops.append(Op("beta.solve.%d.%d" % (m, n), solve, _beta_solution_check(m, n),
                      peak=(m, n) == (1, 12)))
        ops.append(Op("beta.verify.%d.%d" % (m, n),
                      lambda m=m, n=n: bd.verify_beta_variety(bd.cg_triple(m, n),
                                                              solved[(m, n)][0]),
                      _is(True)))
    twelve = [p for p in BETA_PAIRS if p[1] == 12]
    for m, n in twelve:
        other = rng.choice([p for p in twelve if p != (m, n)])
        ops.append(Op("negative.beta_of_%d.%d.%d" % (other[0], m, n),
                      lambda m=m, n=n, other=other: bd.verify_beta_variety(
                          bd.cg_triple(m, n), solved[other][0]),
                      _is(False)))
    ops.append(verify(*RMATRIX_LARGEST, repeat=LARGEST_REPEATS - 1))
    return ops


# --------------------------------------------------------------------------
# boundary: the triangular solutions, their carriers and Frobenius structure.

BOUNDARY_NS = (5, 7, 9, 11)
BOUNDARY_LARGEST = 11
V_COMBOS = {5: 10, 7: 5}


def _carrier_check(n, state):
    block = ref.outside_parabolic(n, n - 2)

    def check(car):
        slices = ref.first_leg_slices(ref.entries_from_json(state["b"].to_json_obj()))
        return (car.bracket_closed
                and car.dimension == ref.carrier_dimension(n)
                and all(ref.vanishes_on(mat.entries, block) for mat in car.basis)
                and all(ref.vanishes_on(sl, block) for sl in slices.values()))
    return check


def _frobenius_data_check(fd):
    form = fd.form
    if fd.r_check_inverse is None or form is None:
        return False
    k = len(form)
    return all(form[i][j] == -form[j][i] for i in range(k) for j in range(k))


def _triangular_check(sample_seed):
    def check(result):
        op, report = result
        return (report.classification == cyb.TRIANGULAR and report.lambda_ == 0
                and _cyb_ok(op.to_json_obj(), 0, sample_seed))
    return check


def _chain(n, u, t, rng, repeat=None):
    """b_cg(u, t) and everything the paper certifies about it, at one n."""
    state = {}
    tag = "n%d" % n + (".repeat%d" % repeat if repeat else "")

    def b_cg():
        state["b"] = dunkl.b_cg(n, u, t)
        return state["b"]

    def orbit():
        r = closed_form.cg_closed_form(2, n)
        moved = frobenius.nilpotent_exp_action(
            dunkl.e2_matrix(n), t, frobenius.nilpotent_exp_action(dunkl.e1_matrix(n), u, r))
        return moved == r + state["b"]

    def carrier():
        state["car"] = frobenius.carrier(state["b"])
        return state["car"]

    def r_check():
        state["fd"] = frobenius.r_check(state["b"], state["car"])
        return state["fd"]

    def doubled():
        eta = frobenius.cg_boundary_functional(n, u, t)
        return frobenius.frobenius_functional_check(
            state["fd"], {k: 2 * v for k, v in eta.items()})

    sample_seed = rng.getrandbits(32)
    return [
        Op("b_cg." + tag, b_cg, lambda b: _cyb_ok(b.to_json_obj(), 0, sample_seed),
           largest=repeat),
        Op("orbit." + tag, orbit, _is(True), largest=repeat),
        Op("carrier." + tag, carrier, _carrier_check(n, state), largest=repeat,
           peak=repeat == 0),
        Op("same_span." + tag,
           lambda: state["car"].same_span(frobenius.parabolic(n - 2, n)), _is(True),
           largest=repeat),
        Op("r_check." + tag, r_check, _frobenius_data_check, largest=repeat),
        Op("cocycle." + tag, lambda: frobenius.cocycle_check(state["fd"]), _is(True),
           largest=repeat),
        Op("functional." + tag,
           lambda: frobenius.frobenius_functional_check(
               state["fd"], frobenius.cg_boundary_functional(n, u, t)),
           _is(True), largest=repeat),
        Op("negative.functional_2eta." + tag, doubled, _is(False)),
    ]


def build_boundary(seed, tmp):
    rng = random.Random(seed)
    ops = []
    for n in BOUNDARY_NS:
        u, t = rational(rng), rational(rng)
        ops += _chain(n, u, t, rng, 0 if n == BOUNDARY_LARGEST else None)
    repeats = [_chain(BOUNDARY_LARGEST, u, t, rng, k) for k in range(1, LARGEST_REPEATS)]

    for n in range(2, 8):
        def jordanian(n=n):
            j = frobenius.jordanian(n)
            report = cyb.find_lambda(j)
            return j, report, frobenius.carrier(j).same_span(frobenius.parabolic(1, n))
        sample_seed = rng.getrandbits(32)
        ops.append(Op("jordanian.n%d" % n, jordanian,
                      lambda res, s=sample_seed: (res[2] and
                                                  _triangular_check(s)(res[:2]))))

    vs = {}
    for n, count in V_COMBOS.items():
        def elements(n=n):
            vs[n] = dunkl.elements_v(n)
            return vs[n]
        seeds = [rng.getrandbits(32) for _ in range(4)]
        ops.append(Op("elements_v.n%d" % n, elements,
                      lambda v, seeds=seeds: len(v) == 4 and all(
                          not x.is_zero() and _cyb_ok(x.to_json_obj(), 0, s)
                          for x, s in zip(v, seeds))))
        for k in range(count):
            coeffs = [rational(rng) for _ in range(4)]

            def combo(n=n, coeffs=coeffs):
                op = None
                for c, v in zip(coeffs, vs[n]):
                    op = c * v if op is None else op + c * v
                return op, cyb.find_lambda(op)
            ops.append(Op("v_combo.n%d.%d" % (n, k), combo,
                          _triangular_check(rng.getrandbits(32)),
                          peak=(n, k) == (max(V_COMBOS), count - 1)))
        ops += repeats.pop(0)
    return ops


# --------------------------------------------------------------------------
# poly: the operator side (Dunkl operators and polynomial CYB).

LEMMA_FIXED = [(Fraction(1), Fraction(2, 5)), (Fraction(0), Fraction(0))]
LEMMA_SEEDED = 2
LEMMA_LARGEST = ((Fraction(1), Fraction(2, 5)), 6)


def _monomials(degree):
    """Exponent triples of every three-variable monomial of total degree <= degree."""
    return [(a, b, c) for a in range(degree + 1) for b in range(degree + 1 - a)
            for c in range(degree + 1 - a - b)]


def _laurent_window(bound):
    span = range(-bound, bound + 1)
    return [(a, b, c) for a in span for b in span for c in span]


def _params(rng, m):
    return dunkl.CherednikParams(kappa=rational(rng), c0=rational(rng), c1=rational(rng), m=m)


def _display_check(display):
    return lambda op: ref.entries_from_json(op.to_json_obj()) == display


def build_poly(seed, tmp):
    rng = random.Random(seed)
    largest = [Op("lemma_cyb4.b%d" % LEMMA_LARGEST[1] + (".repeat%d" % k if k else ""),
                  lambda: dunkl.lemma_cyb4(*LEMMA_LARGEST[0], bound=LEMMA_LARGEST[1]),
                  _is(True), largest=k)
               for k in range(LARGEST_REPEATS)]
    ops = [largest[0]]
    pairs = LEMMA_FIXED + [(rational(rng), rational(rng)) for _ in range(LEMMA_SEEDED)]
    for k, (a1, a2) in enumerate(pairs):
        ops.append(Op("lemma_cyb4.b5.%d" % k,
                      lambda a1=a1, a2=a2: dunkl.lemma_cyb4(a1, a2, bound=5), _is(True)))

    degree10 = _monomials(10)
    for k in range(2):
        p = _params(rng, 2)
        ops.append(Op("check_poly_cyb.element_e.%d" % k,
                      lambda p=p: polyops.check_poly_cyb(dunkl.element_e(p), 4 * p.c0 ** 2,
                                                         degree10),
                      _is(True)))
    ops.append(largest[1])
    for m in (1, 2):
        p = _params(rng, m)
        ops.append(Op("verify_relations.m%d" % m,
                      lambda p=p: dunkl.verify_relations(p, degree_bound=8), _is(True)))
    for n in range(2, 14):
        ops.append(Op("r_via_dunkl_m1.n%d" % n, lambda n=n: dunkl.r_via_dunkl_m1(n),
                      _display_check(ref.m1_display(n))))
    for n in range(3, 14, 2):
        p = _params(rng, 2)
        ops.append(Op("r_via_dunkl_m2.n%d" % n, lambda n=n, p=p: dunkl.r_via_dunkl_m2(n, p),
                      _display_check(ref.m2_display(n))))
    for n in (5, 7, 9):
        ops.append(Op("module_structure.n%d" % n,
                      lambda n=n: dunkl.module_structure_check(n), _is(True)))

    # Negative control: the lemma expression satisfies CYB_4, so CYB_5 must fail.
    window = _laurent_window(2)
    ops.append(Op("negative.lemma_cyb5",
                  lambda: polyops.check_poly_cyb(
                      dunkl.lemma_expression(*LEMMA_FIXED[0]), 5, window),
                  _is(False)))
    ops.append(largest[2])
    return ops


WORKLOADS = {"rmatrix": build_rmatrix, "boundary": build_boundary, "poly": build_poly}


def build(workload, seed, tmpdir):
    return WORKLOADS[workload](seed, tmpdir)
