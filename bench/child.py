"""One round of one workload in a fresh interpreter; `run.py` starts these.

Modes:
  setup    import cgrm and build the inputs, then stop where the first timed
           operation would start (a set-up sample only);
  measure  set up, then run every operation once with tracing off;
  trace    the same round with spans on, followed by the tracemalloc pass.

The child writes one JSON object to --out.  It exits nonzero when cgrm does
not come from this checkout's src/ or when a span the workload needs was
never bound or never fired.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from time import monotonic, perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def run_round(ops, tracer=None):
    """Run each operation once: time it, then check it outside the timed span."""
    times, failed, wrong = {}, [], []
    for op in ops:
        if op.prepare is not None:
            op.prepare()
        if tracer is not None:
            tracer.phase = "spans"
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed.append(op.name)
            continue
        finally:
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.phase = "off"
        times[op.name] = elapsed
        try:
            ok = bool(op.check(result))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            wrong.append(op.name)
    wall = sum(times.values())
    repeats = {}
    for op in ops:
        if op.largest is not None:
            repeats[op.largest] = repeats.get(op.largest, 0.0) + times.get(op.name, 0.0)
    largest = statistics.median(repeats.values())
    return {"wall_s": wall, "largest_s": largest, "op_s": times,
            "attempted": len(ops), "failed": failed, "wrong": wrong}


def peak_pass(ops, tracer):
    """Replay the flagged operations with tracemalloc on; spans stay off."""
    import tracemalloc
    tracer.phase = "peak"
    tracemalloc.start()
    try:
        for op in ops:
            if op.peak:
                op.run()
    finally:
        tracemalloc.stop()
        tracer.phase = "off"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent just before this process started")
    args = parser.parse_args(argv)

    import cgrm
    if not os.path.abspath(cgrm.__file__).startswith(SRC + os.sep):
        print("cgrm was imported from %s, not from %s" % (cgrm.__file__, SRC), file=sys.stderr)
        return 2
    import workloads
    ops = workloads.build(args.workload, args.seed, args.tmp)
    setup_s = monotonic() - args.spawned

    out = {"setup_s": setup_s}
    if args.mode == "measure":
        out.update(run_round(ops))
    elif args.mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        unbound = tracer.install([workloads])
        if unbound:
            print("spans bound at no site: %s" % ", ".join(unbound), file=sys.stderr)
            return 3
        before = tracer.cache_counts()
        out.update(run_round(ops, tracer))
        after = tracer.cache_counts()
        peak_pass(ops, tracer)
        out["per_layer"] = tracer.per_layer(before, after)
        silent = [name for name in workloads.REQUIRED_SPANS[args.workload]
                  if not out["per_layer"][name + ".calls"]]
        if silent:
            print("spans that never fired in %s: %s" % (args.workload, ", ".join(silent)),
                  file=sys.stderr)
            return 3
    if args.mode != "setup":
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
