"""Spans around cgrm's public functions, installed from outside the package.

Each span wraps one function or method and records its calls and self time
(its duration minus the time covered by the spans it calls).  A wrapper is
bound at every site that holds the function by name, so a module that did
`from .linalg import rref` reports through the same span as `linalg.rref`.
A few spans also count work (nonzeros produced, cells eliminated, monomials
submitted), and two take a tracemalloc peak in a pass of their own.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
from time import perf_counter

# (span name, module, attribute path); a two-part path names a method.
SPANS = (
    ("cli.main", "cgrm.cli", ("main",)),
    ("tensorops.SparseOp3.bracket", "cgrm.tensorops", ("SparseOp3", "bracket")),
    ("tensorops.SparseOp2.matmul", "cgrm.tensorops", ("SparseOp2", "__matmul__")),
    ("tensorops.MatrixN.bracket", "cgrm.tensorops", ("MatrixN", "bracket")),
    ("tensorops.wedge_to_op", "cgrm.tensorops", ("wedge_to_op",)),
    ("tensorops.canonical_json", "cgrm.tensorops", ("canonical_json",)),
    ("tensorops.SparseOp2.from_json_obj", "cgrm.tensorops", ("SparseOp2", "from_json_obj")),
    ("cyb.find_lambda", "cgrm.cyb", ("find_lambda",)),
    ("cyb.cyb_lambda", "cgrm.cyb", ("cyb_lambda",)),
    ("cyb.double_bracket", "cgrm.cyb", ("double_bracket",)),
    ("cyb.embed", "cgrm.cyb", ("embed",)),
    ("cyb.z_op", "cgrm.cyb", ("z_op",)),
    ("linalg.rref", "cgrm.linalg", ("rref",)),
    ("linalg.expand_in_rref", "cgrm.linalg", ("expand_in_rref",)),
    ("linalg.invert", "cgrm.linalg", ("invert",)),
    ("linalg.solve_affine", "cgrm.linalg", ("solve_affine",)),
    ("bd.bd_r_matrix", "cgrm.bd", ("bd_r_matrix",)),
    ("bd.solve_beta_variety", "cgrm.bd", ("solve_beta_variety",)),
    ("bd.verify_beta_variety", "cgrm.bd", ("verify_beta_variety",)),
    ("closed_form.cg_closed_form", "cgrm.closed_form", ("cg_closed_form",)),
    ("wheels.sbar_closed", "cgrm.wheels", ("sbar_closed",)),
    ("wheels.sbar_bruteforce", "cgrm.wheels", ("sbar_bruteforce",)),
    ("frobenius.carrier", "cgrm.frobenius", ("carrier",)),
    ("frobenius.parabolic", "cgrm.frobenius", ("parabolic",)),
    ("frobenius.r_check", "cgrm.frobenius", ("r_check",)),
    ("frobenius.structure_constants", "cgrm.frobenius", ("structure_constants",)),
    ("frobenius.cocycle_check", "cgrm.frobenius", ("cocycle_check",)),
    ("frobenius.frobenius_functional_check", "cgrm.frobenius",
     ("frobenius_functional_check",)),
    ("frobenius.nilpotent_exp_action", "cgrm.frobenius", ("nilpotent_exp_action",)),
    ("polyops.check_poly_cyb", "cgrm.polyops", ("check_poly_cyb",)),
    ("polyops.window_matrix", "cgrm.polyops", ("window_matrix",)),
    ("polyops.op_equal_on", "cgrm.polyops", ("op_equal_on",)),
    ("dunkl.lemma_cyb4", "cgrm.dunkl", ("lemma_cyb4",)),
    ("dunkl.verify_relations", "cgrm.dunkl", ("verify_relations",)),
    ("dunkl.r_via_dunkl_m1", "cgrm.dunkl", ("r_via_dunkl_m1",)),
    ("dunkl.r_via_dunkl_m2", "cgrm.dunkl", ("r_via_dunkl_m2",)),
    ("dunkl.module_structure_check", "cgrm.dunkl", ("module_structure_check",)),
    ("dunkl.b_cg", "cgrm.dunkl", ("b_cg",)),
    ("dunkl.elements_v", "cgrm.dunkl", ("elements_v",)),
)


# Work counts: span -> (metric, count taken from the call's positional arguments
# or its result); every caller passes these arguments positionally.
COUNTS = {
    "cyb.double_bracket": ("cyb.double_bracket.nnz", lambda args, r: r.count_nonzero()),
    "linalg.rref": ("linalg.rref.cells",
                    lambda args, r: len(args[0]) * len(args[0][0]) if args[0] else 0),
    "polyops.check_poly_cyb": ("polyops.check_poly_cyb.monomials",
                               lambda args, r: len(args[2])),
}
PEAKS = {"cyb.find_lambda": "cyb.find_lambda.peak_kib", "linalg.rref": "linalg.rref.peak_kib"}
CACHES = (("closed_form.cg_column.hit_ratio", "cgrm.closed_form", "cg_column"),
          ("wheels.wheel.hit_ratio", "cgrm.wheels", "wheel"))

# Every per-layer metric: (name, unit, better).
METRICS = tuple(
    [(name + stat, unit, "lower") for name, _, _ in SPANS
     for stat, unit in ((".calls", "count"), (".self_s", "s"))]
    + [(metric, "count", "lower") for metric, _ in COUNTS.values()]
    + [(metric, "KiB", "lower") for metric in PEAKS.values()]
    + [(metric, "ratio", "higher") for metric, _, _ in CACHES]
    + [("trace.overhead_s", "s", "lower")]
)


class Tracer:
    """Span statistics for one traced round.

    `phase` selects what the wrappers do: "spans" records calls and self time,
    "peak" records tracemalloc peaks of the PEAKS spans, "off" passes through
    (used while the benchmark runs its own checks).
    """

    def __init__(self):
        self.phase = "off"
        self.stats = {name: [0, 0.0] for name, _, _ in SPANS}
        self.counts = {metric: 0 for metric, _ in COUNTS.values()}
        self.peaks = {metric: 0 for metric in PEAKS.values()}
        self.sites = {}
        self._stack = []

    def install(self, extra_modules=()):
        """Bind a wrapper at every site of every span; returns the spans bound nowhere."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "cgrm" or key.startswith("cgrm.")]
        modules += list(extra_modules)
        for name, modname, path in SPANS:
            owner = sys.modules[modname]
            if len(path) == 2:
                cls = getattr(owner, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, classmethod):
                    setattr(cls, path[1], classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, path[1], self._wrap(name, raw))
                self.sites[name] = 1
                continue
            original = getattr(owner, path[0])
            wrapper = self._wrap(name, original)
            bound = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        bound += 1
            self.sites[name] = bound
        return [name for name, bound in self.sites.items() if not bound]

    def _wrap(self, name, fn):
        stat = self.stats[name]
        count = COUNTS.get(name)
        peak_metric = PEAKS.get(name)
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = tracer.phase
            if phase == "spans":
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - t0
                    stat[0] += 1
                    stat[1] += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed
                if count is not None:
                    # Counting is the tracer's own work: hide it from the caller's self time.
                    t1 = perf_counter()
                    tracer.counts[count[0]] += count[1](args, result)
                    if stack:
                        stack[-1] += perf_counter() - t1
                return result
            if phase == "peak" and peak_metric is not None:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                result = fn(*args, **kwargs)
                peak_kib = (tracemalloc.get_traced_memory()[1] - base) / 1024
                tracer.peaks[peak_metric] = max(tracer.peaks[peak_metric], peak_kib)
                return result
            return fn(*args, **kwargs)
        return wrapper

    @staticmethod
    def cache_counts():
        """(hits, misses) of each lru_cache in CACHES."""
        out = {}
        for metric, modname, attr in CACHES:
            info = getattr(sys.modules[modname], attr).cache_info()
            out[metric] = (info.hits, info.misses)
        return out

    def per_layer(self, caches_before, caches_after):
        """Every metric of METRICS except trace.overhead_s, which needs an untraced round."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
        out.update(self.counts)
        out.update(self.peaks)
        for metric in caches_after:
            hits = caches_after[metric][0] - caches_before[metric][0]
            misses = caches_after[metric][1] - caches_before[metric][1]
            out[metric] = hits / (hits + misses) if hits + misses else 0.0
        return out
