"""drlp benchmark: seeded compiled-problem workloads, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload quantile --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs a fixed number of items, set by ``--seconds`` alone.
With ``--trace 0`` every item runs PASSES times with tracing off and the
run reports the end-to-end metrics; with ``--trace 1`` every item runs once
untraced and once traced, and the run reports the per-layer split plus the
tracing overhead.  The process pins itself to one CPU, and a fixed
reference kernel (``Pace``) is timed between every two executions; each
execution's times are scaled by the mean of the kernel readings just
before and just after it, so that the machine's drifting speed cancels
out.  Every item's first execution is checked against an
oracle outside the timed region, and every repeat of an item must
reproduce it byte for byte.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it list every metric with its unit, sample count and workload, and
the environment.  ``--workload all`` runs each workload in its own process
and prints the combined table.

The benchmark imports drlp from ``src/`` of the checkout it sits in and
exits with code 2 when that source tree is missing.
"""

from __future__ import annotations

import os

# pinned before numpy loads: BLAS threads would compete with the one client
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("quantile", "lasso", "cli_mix")
PASSES = 3          # untraced executions of every item; each repeat must reproduce the first
SETUP_REPEATS = 3   # set-ups timed per execution; their median counts
PACE_SECONDS = 0.045  # reference-kernel time that every measured time is scaled to


def pin_to_one_cpu():
    """Run on the lowest CPU the process may use; returns that CPU or None.

    With two CPUs, the GIL handoff between the CLI's ``--starts`` threads
    crosses CPUs, and its cost follows the host's wake-up latency, which
    no reference kernel tracks; on one CPU the handoff is local and every
    operation slows and speeds with the kernel.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_drlp():
    if not os.path.isfile(os.path.join(SRC, "drlp", "__init__.py")):
        die(f"no drlp source tree at {SRC}")
    sys.path.insert(0, SRC)
    import drlp

    if not os.path.abspath(drlp.__file__).startswith(SRC + os.sep):
        die(f"imported drlp from {drlp.__file__}, not from {SRC}")
    return drlp


def src_lines():
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "drlp", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


class Pace:
    """A fixed reference kernel that never touches drlp, timed before each batch.

    Half of it is small dense matvecs, half tuple-keyed dict and set
    bookkeeping, the two kinds of work a drlp step does.  On a shared
    virtual machine the CPU's speed switches between a fast and a slow
    state, about 1.6 times apart, that each last seconds; dividing a time
    by the kernel time measured around it, and multiplying by
    PACE_SECONDS, gives the time on a machine where the kernel takes
    PACE_SECONDS.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.a = np.random.default_rng(12345).standard_normal((48, 48))
        self.index = {(layer, unit): 37 * layer + unit for layer in range(4) for unit in range(400)}

    def seconds(self):
        np = self.np
        t0 = time.perf_counter()
        x, counts = np.ones(48), {}
        for i in range(2500):
            x = self.a @ x
            x /= 1.0 + np.abs(x).max()
            key = (i & 63, int(np.argmax(x)))
            counts[key] = counts.get(key, 0) + 1
        total, seen = 0, set()
        for i in range(40000):
            k = self.index[(i & 3, i % 400)]
            seen.add(k)
            total += k
            if i % 500 == 0:
                seen = {v for v in seen if v & 1}
        return time.perf_counter() - t0


class Op:
    """One execution of an item: its result, raw timings and failures."""

    def __init__(self, item, traced):
        # the index and key only, so the inputs are not held through the run
        self.k, self.key, self.traced = item.k, item.key, traced
        self.pace_s = None            # kernel time around this execution (mean of before, after); None: untimed
        self.result, self.errors = None, []
        self.setup_s, self.op_s, self.wall_s = [], 0.0, 0.0

    def scaled(self, seconds):
        return seconds * PACE_SECONDS / self.pace_s


def execute(wl, item, traced, tracer=None):
    """Set up once and run one item, then time the set-up SETUP_REPEATS - 1 more times.

    wall_s is what the workload itself spends: the set-up (unless the
    operation does its own, as a CLI command does) and the operation.
    Tracing, when given, covers the first set-up and the operation.
    """
    op = Op(item, traced)
    if tracer is not None:
        tracer.install()
    try:
        try:
            t0 = time.perf_counter()
            prepared = wl.setup(item)
            t1 = time.perf_counter()
            wl.before_run(item)
            with tracer.op(item.k) if tracer is not None else contextlib.nullcontext():
                t2 = time.perf_counter()
                op.result = wl.run(item, prepared)
                t3 = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        op.op_s = t3 - t2
        op.wall_s = t3 - (t1 if wl.setup_in_op else t0)
        if prepared is not None:  # nothing to set up for this item otherwise
            op.setup_s.append(t1 - t0)
            for _ in range(SETUP_REPEATS - 1):
                t0 = time.perf_counter()
                wl.setup(item)
                op.setup_s.append(time.perf_counter() - t0)
        wl.after_run(item, op.result)
        # keep only what the oracle reads, so peak memory does not grow with the op count
        if hasattr(op.result, "trace"):
            op.result.trace = None
    except Exception as exc:  # a failed operation is counted, the run goes on
        op.errors.append(f"{type(exc).__name__}: {exc}")
    return op


def measure(wl, batches, trace):
    """Closed-loop passes over a fixed item set: `batches` whole batches of items.

    One untimed execution of the first item warms the process up.  Then,
    untraced, every item runs in PASSES passes; traced, it runs once
    untraced and once traced.  The reference kernel is timed before the
    first execution and after every execution, and each execution is
    paced by the mean of the readings on either side of it.
    """
    from tracing import Tracer

    tracer = Tracer() if trace else None
    pace = Pace()
    pace.seconds()
    ops = [execute(wl, wl.item(0), False)]
    reading = pace.seconds()
    for _ in range(1 if trace else PASSES):
        for k in range(batches * wl.batch):
            for traced in ((False, True) if trace else (False,)):
                op = execute(wl, wl.item(k), traced, tracer if traced else None)
                before, reading = reading, pace.seconds()
                op.pace_s = 0.5 * (before + reading)
                ops.append(op)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return ops, tracer, rss_mb


def verify(wl, ops):
    """Oracle check of each item's first execution; every repeat must match it."""
    first = {}
    for op in ops:
        if op.result is None:
            continue
        fp = wl.fingerprint(op.result)
        if op.key not in first:
            first[op.key] = fp
            try:
                op.errors += wl.check(wl.item(op.k), op.result)
            except Exception as exc:
                op.errors.append(f"oracle raised {type(exc).__name__}: {exc}")
        elif first[op.key] != fp:
            op.errors.append(f"item {op.key!r}: outcome differs from an earlier run of the same input")
    digest = hashlib.sha256()
    for key in sorted(first, key=repr):
        digest.update(repr((key, first[key])).encode())
    return digest.hexdigest()[:16]


def timed(ops, traced=False):
    return [op for op in ops if op.pace_s is not None and op.traced == traced and op.result is not None]


def end_to_end(wl, ops, rss_mb):
    """The gated metrics, from pace-scaled times, each with its sample count.

    Every item counts with its fastest paced execution of the PASSES,
    which lie a whole pass apart: the one least disturbed by the host,
    also when the CPU switched state during an execution.
    """
    ops = timed(ops)
    op_s, wall_s, setup_item = {}, {}, {}
    for op in ops:
        op_s[op.k] = min(op_s.get(op.k, float("inf")), op.scaled(op.op_s))
        wall_s[op.k] = min(wall_s.get(op.k, float("inf")), op.scaled(op.wall_s))
        setup_item.setdefault(op.k, []).extend(op.scaled(s) for s in op.setup_s)
    # a batch mixes unlike operations (three penalties, four commands): its mean is one sample
    per_batch = {}
    for k, seconds in op_s.items():
        per_batch.setdefault(k // wl.batch, []).append(seconds)
    solve = [statistics.mean(v) for v in per_batch.values()]
    setup = [statistics.median(v) for v in setup_item.values() if v]
    return {
        "solve_s.p50": (statistics.median(solve), "s", len(solve)),
        "ops_per_s": (len(wall_s) / sum(wall_s.values()), "1/s", len(wall_s)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def per_layer(wl, ops, tracer):
    from tracing import layer_metrics

    traced, untraced = timed(ops, True), timed(ops, False)
    extra = {
        "samples": getattr(wl, "SAMPLES", 0),
        "trace_records": sum(getattr(op.result, "trace_records", 0) for op in traced),
    }
    m = {name: (value, unit, len(traced)) for name, (value, unit) in
         layer_metrics(tracer, len(traced), extra).items()}
    traced_rate = len(traced) / sum(op.scaled(op.wall_s) for op in traced)
    untraced_rate = len(untraced) / sum(op.scaled(op.wall_s) for op in untraced)
    m["trace.ops_per_s"] = (traced_rate, "1/s", len(traced))
    m["trace.untraced_ops_per_s"] = (untraced_rate, "1/s", len(untraced))
    m["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio", len(traced))
    return m


def run_one(args):
    drlp = import_drlp()
    cpu = pin_to_one_cpu()
    sys.path.insert(0, HERE)
    import numpy as np
    from workloads import WORKLOADS

    # the item count follows from --seconds alone, never from how fast the machine runs
    batches = max(2, round(args.seconds / (PASSES * WORKLOADS[args.workload].BATCH_SECONDS)))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        wl = WORKLOADS[args.workload](args.seed, workdir, batches)
        ops, tracer, rss_mb = measure(wl, batches, args.trace)
        digest = verify(wl, ops)
    failed = [op for op in ops if op.errors]
    metrics = per_layer(wl, ops, tracer) if args.trace else end_to_end(wl, ops, rss_mb)
    for op in failed[:10]:
        print(f"FAIL {args.workload} item {op.key!r}: {'; '.join(op.errors)}", file=sys.stderr)
    env = {
        "workload": args.workload, "seed": args.seed, "items": batches * wl.batch, "ops": len(ops),
        "fail_rate": len(failed) / len(ops), "outcome_digest": digest,
        "pace_s.p50": statistics.median(op.pace_s for op in timed(ops)),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "pinned_cpu": cpu, "blas_threads": int(BLAS_THREADS),
        "drlp_src_lines": src_lines(), "drlp": drlp.__version__,
    }
    print("# env " + json.dumps(env))
    for name, (value, unit, n) in metrics.items():
        print(f"{args.workload:<9} {name:<38} {value:>14.6g} {unit:<12} n={n}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, so peak memory is its own."""
    import_drlp()
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            die(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
