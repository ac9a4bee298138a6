#!/usr/bin/env python3
"""Benchmark of cgrm's exact certification, end to end and per module.

    python3 bench/run.py --workload rmatrix|boundary|poly --seed N \
        --seconds S --trace 0|1

Every round of a workload runs in a fresh interpreter (bench/child.py) with
cold caches, one caller in a closed loop, CGRM_THREADS unset and
PYTHONHASHSEED fixed.  With --trace 0 the run takes set-up samples, then runs
whole rounds until S seconds have passed, and reports the median of each
end-to-end metric.  With --trace 1 it runs one untraced and one traced round
and reports the per-layer metrics.  The last line of standard output is the
result object; the line before it records the run's parameters and machine.
Exits nonzero, without a result, when the checkout has no src/cgrm or a
round cannot finish.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("rmatrix", "boundary", "poly")
SETUP_SAMPLES = 3  # set-up-only interpreters per run, besides those of the rounds
BUDGET_S = 170  # a run ends within this many seconds or fails
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("largest_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def _child_env(workdir):
    env = dict(os.environ)
    env.pop("CGRM_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = workdir
    return env


class Runner:
    """Starts the children of one run, each with its own directory under tmp."""

    def __init__(self, workload, seed, tmp, deadline):
        self.workload, self.seed, self.tmp, self.deadline = workload, seed, tmp, deadline
        self.started = 0

    def child(self, mode):
        self.started += 1
        workdir = os.path.join(self.tmp, "%s-%d" % (mode, self.started))
        os.mkdir(workdir)
        out = os.path.join(workdir, "result.json")
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time budget of %d s spent" % BUDGET_S)
        cmd = [sys.executable, "-s", CHILD, "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--tmp", workdir, "--out", out,
               "--spawned", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(workdir), stdout=sys.stderr,
                                  timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError("%s round did not finish within the time budget" % mode)
        if proc.returncode != 0:
            raise BenchError("%s child exited with code %d" % (mode, proc.returncode))
        with open(out) as fh:
            return json.load(fh)


def _tally(rounds):
    failed = [name for r in rounds for name in r["failed"]]
    wrong = [name for r in rounds for name in r["wrong"]]
    return {"correct": not wrong, "attempted": sum(r["attempted"] for r in rounds),
            "failed": len(failed)}, failed, wrong


def measure(runner, seconds):
    setups = [runner.child("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    rounds, longest = [], 0.0
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        rounds.append(runner.child("measure"))
        longest = max(longest, time.monotonic() - t0)
        now = time.monotonic()
        if now - start >= seconds or runner.deadline - now < 2 * longest:
            break
    setups += [r["setup_s"] for r in rounds]
    values = {"setup_s": statistics.median(setups)}
    for key in ("wall_s", "largest_s", "peak_rss_mb"):
        values[key] = statistics.median(r[key] for r in rounds)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    ops = {name: statistics.median(r["op_s"][name] for r in rounds if name in r["op_s"])
           for name in rounds[0]["op_s"]}
    info = {"rounds": len(rounds), "setup_samples_s": setups,
            "wall_samples_s": [r["wall_s"] for r in rounds],
            "largest_samples_s": [r["largest_s"] for r in rounds], "op_median_s": ops}
    return rounds, metrics, info


def trace(runner):
    import tracer
    plain = runner.child("measure")
    traced = runner.child("trace")
    layer = dict(traced["per_layer"])
    layer["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in tracer.METRICS}
    info = {"rounds": 2, "untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"]}
    return [plain, traced], metrics, info


def _revision():
    """The checkout's git commit when it has a .git directory, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """sha256 over src/cgrm/*.py, which identifies the program when git cannot."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cgrm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _declared(kind):
    """Metric names BENCHMARK.json declares under `kind`, or None without the file."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not os.path.isdir(os.path.join(SRC, "cgrm")):
        print("no cgrm package under %s" % SRC, file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    runner = Runner(args.workload, args.seed, tmp, deadline)
    try:
        if args.trace:
            rounds, metrics, info = trace(runner)
        else:
            rounds, metrics, info = measure(runner, args.seconds)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    declared = _declared("per_layer" if args.trace else "end_to_end")
    if declared is not None and sorted(declared) != sorted(metrics):
        print("metrics differ from BENCHMARK.json: %s"
              % sorted(set(declared) ^ set(metrics)), file=sys.stderr)
        return 1
    result, failed, wrong = _tally(rounds)
    for name in wrong:
        print("wrong output: %s" % name, file=sys.stderr)
    info.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "failed_ops": failed, "wrong_ops": wrong,
                 "python": platform.python_version(), "nproc": os.cpu_count(),
                 "revision": _revision(), "src_sha256": _source_digest()})
    result["metrics"] = metrics
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
