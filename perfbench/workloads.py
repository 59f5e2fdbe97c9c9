"""The benchmark workloads: seeded inputs, one operation, its oracle.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  An item is one operation's input; it
is made from (seed, workload, item index) only, so the same seed gives the
same items.  ``setup`` is the timed set-up (compilers, CSV parsing, network
construction), ``run`` the timed operation, and ``check`` the untimed
oracle, which returns a list of failure messages.

The benchmark's own data generation never goes through drlp except to
write the model file the CLI ``check`` command reads.  All library calls
look names up on the ``drlp`` modules at call time, so the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from math import comb
from types import SimpleNamespace

import numpy as np

import drlp
import drlp.cli

LOCAL_MINIMUM = "LocalMinimum"


def rng_for(seed, workload_id, k):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, workload_id, k])))


def outcome_key(out):
    """What a rerun of the same input must reproduce byte for byte."""
    return (out.status, int(out.steps), np.asarray(out.x, dtype=np.float64).tobytes())


def close(a, b, rel):
    return abs(a - b) <= rel * (1.0 + abs(a) + abs(b))


def quantile_lp_optimum(x, y, alpha):
    """Optimal quantile loss from scipy's HiGHS on the LP form (the oracle)."""
    import scipy.sparse as sp
    from scipy.optimize import linprog

    n = len(y)
    design = np.hstack([np.ones((n, 1)), x])
    k = design.shape[1]
    c = np.concatenate([np.zeros(k), np.full(n, alpha), np.full(n, 1.0 - alpha)])
    a_eq = sp.hstack([sp.csr_matrix(design), sp.eye(n), -sp.eye(n)]).tocsr()
    res = linprog(c, A_eq=a_eq, b_eq=y, bounds=[(None, None)] * k + [(0, None)] * (2 * n),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return float(res.fun)


def solve_checks(out, direct_f, rel=1e-9):
    errs = []
    if out.status != LOCAL_MINIMUM:
        errs.append(f"status {out.status}, expected {LOCAL_MINIMUM}")
    if not close(out.f, direct_f, rel):
        errs.append(f"reported f {out.f!r} != direct loss {direct_f!r}")
    return errs


class Workload:
    """Defaults shared by the workloads; see the module docstring."""

    batch = 1            # items that run as one unit and count as one sample of solve_s.p50
    setup_in_op = False  # True when the operation repeats its own set-up
    BATCH_SECONDS = 1.0  # seconds one execution of a batch takes with its kernel readings; sizes the item count

    def before_run(self, item):
        pass

    def after_run(self, item, result):
        pass

    fingerprint = staticmethod(outcome_key)


class Quantile(Workload):
    """Median regression compiled by build_quantile_lasso, solved from zero."""

    name, wid = "quantile", 1
    N, P, ALPHA = 400, 5, 0.5
    BETA = np.array([1.0, -0.5, 0.25, 2.0, -1.5])
    BATCH_SECONDS = 0.37

    def __init__(self, seed, workdir, batches):
        self.seed = seed

    def item(self, k):
        rng = rng_for(self.seed, self.wid, k)
        x = rng.standard_normal((self.N, self.P))
        y = 1.0 + x @ self.BETA + rng.laplace(size=self.N)
        return SimpleNamespace(key=k, k=k, x=x, y=y, data=drlp.RegressionData(x, y))

    def setup(self, item):
        return drlp.build_quantile_lasso(item.data, alpha=self.ALPHA)

    def run(self, item, prepared):
        net, pairs = prepared
        return drlp.drlsimplex(net, np.zeros(net.input_dim), drlp.SolverOptions(seed=item.k), pairs)

    def check(self, item, out):
        errs = solve_checks(out, drlp.quantile_loss(item.data, out.x, alpha=self.ALPHA))
        f_lp = quantile_lp_optimum(item.x, item.y, self.ALPHA)
        if not close(out.f, f_lp, 1e-8):
            errs.append(f"f {out.f!r} != linprog optimum {f_lp!r}")
        return errs


class Lasso(Workload):
    """solve_quadratic on LASSO at three penalties per data set, from zero."""

    name, wid, batch = "lasso", 3, 3
    N, P = 500, 40
    LAM_FRACS = (0.3, 0.1, 0.03)     # of lam_max = 2 max|X'y|, where theta = 0 turns optimal
    BETA = np.array([3.0, -2.5, 2.0, -1.5, 1.2, -1.0, 0.8, -0.6, 0.5, -0.4])
    BATCH_SECONDS = 1.05

    def __init__(self, seed, workdir, batches):
        self.seed = seed

    def item(self, k):
        rng = rng_for(self.seed, self.wid, k // 3)
        x = rng.standard_normal((self.N, self.P))
        y = x[:, :len(self.BETA)] @ self.BETA + rng.standard_normal(self.N)
        lam = self.LAM_FRACS[k % 3] * 2.0 * float(np.max(np.abs(x.T @ y)))
        return SimpleNamespace(key=k, k=k, x=x, y=y, lam=lam, data=drlp.RegressionData(x, y))

    def setup(self, item):
        return drlp.build_lasso(item.data, lam=item.lam)

    def run(self, item, prepared):
        net, q, pairs = prepared
        return drlp.solve_quadratic(net, q, np.zeros(self.P), drlp.SolverOptions(seed=item.k), pairs)

    def check(self, item, out):
        errs = solve_checks(out, drlp.lasso_loss(item.data, out.x, lam=item.lam))
        # KKT: 2 X'(X theta - y) + lam * d|theta|_1 contains 0
        g = 2.0 * item.x.T @ (item.x @ out.x - item.y)
        tol = 1e-7 * (item.lam + float(np.max(np.abs(2.0 * item.x.T @ item.y))))
        # coordinates within roundoff of zero are held to the zero-coordinate condition
        on = np.abs(out.x) > 1e-9 * (1.0 + float(np.max(np.abs(out.x))))
        worst = max(float(np.max(np.abs(g[on] + item.lam * np.sign(out.x[on])), initial=0.0)),
                    float(np.max(np.abs(g[~on]), initial=0.0)) - item.lam)
        if worst > tol:
            errs.append(f"KKT violated by {worst:.3e} (tolerance {tol:.3e})")
        return errs


class CliMix(Workload):
    """A fixed script of in-process ``drlp.cli.main`` calls on written files.

    One batch runs quantile (two threaded starts, JSONL trace), regions,
    bounds and check; batch j uses data set j.
    """

    name, wid, batch, setup_in_op = "cli_mix", 4, 4, True
    BATCH_SECONDS = 0.7
    Q_N, Q_P = 250, 3
    NET_WIDTHS = (2, 20, 20, 1)
    SAMPLES = 200_000
    BOUNDS_TOPOLOGY = (6, 12, 12, 12, 12, 12)
    COMMANDS = ("quantile", "regions", "bounds", "check")

    def __init__(self, seed, workdir, batches):
        self.seed = seed
        self.workdir = workdir
        self.sets = [self._write_set(j) for j in range(batches)]
        self.last_theta = {}

    def _write_set(self, j):
        rng = rng_for(self.seed, self.wid, j)
        d = os.path.join(self.workdir, f"set{j}")
        os.makedirs(d)
        qx = rng.standard_normal((self.Q_N, self.Q_P))
        qy = 1.0 + qx @ np.array([1.0, -2.0, 0.5]) + rng.laplace(size=self.Q_N)
        s = SimpleNamespace(
            dir=d, qx=qx, qy=qy, q_csv=os.path.join(d, "quantile.csv"),
            net_json=os.path.join(d, "net.json"), q_model=os.path.join(d, "quantile_model.json"),
            trace=os.path.join(d, "trace.jsonl"), seed=int(rng.integers(2**31)),
        )
        _write_csv(s.q_csv, ["x1", "x2", "x3", "y"], np.column_stack([qx, qy]))
        widths = self.NET_WIDTHS
        s.weights = [rng.uniform(-1, 1, (o, i)) for i, o in zip(widths[:-1], widths[1:])]
        s.biases = [rng.uniform(-1, 1, o) for o in widths[1:]]
        with open(s.net_json, "w", encoding="utf-8") as fh:
            json.dump({"weights": [w.tolist() for w in s.weights],
                       "biases": [b.tolist() for b in s.biases]}, fh)
        net, pairs = drlp.build_quantile_lasso(drlp.RegressionData(qx, qy))
        drlp.save_model(s.q_model, net, pairs)
        return s

    def item(self, k):
        j, c = divmod(k, self.batch)
        return SimpleNamespace(key=(j, c), k=k, set=self.sets[j],
                               command=self.COMMANDS[c])

    def setup(self, item):
        # what the command itself parses and compiles before it solves
        s = item.set
        if item.command == "quantile":
            return drlp.build_quantile_lasso(drlp.load_csv(s.q_csv))
        if item.command == "regions":
            return drlp.load_model(s.net_json)
        if item.command == "check":
            return drlp.load_model(s.q_model)
        return None

    def before_run(self, item):
        s = item.set
        if item.command == "quantile":
            if os.path.exists(s.trace):
                os.remove(s.trace)
            item.argv = ["quantile", "--data", s.q_csv, "--starts", "2", "--trace", s.trace,
                         "--seed", str(s.seed)]
        elif item.command == "regions":
            item.argv = ["regions", "--model", s.net_json, "--box=-10,10",
                         "--samples", str(self.SAMPLES), "--seed", str(s.seed)]
        elif item.command == "bounds":
            item.argv = ["bounds", "--topology", ",".join(map(str, self.BOUNDS_TOPOLOGY))]
        else:
            theta = self.last_theta[item.key[0]]
            item.argv = ["check", "--model", s.q_model, "--x=" + ",".join(repr(v) for v in theta)]

    def run(self, item, prepared):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = drlp.cli.main(item.argv)
        return SimpleNamespace(code=code, stdout=out.getvalue(), stderr=err.getvalue())

    def after_run(self, item, res):
        if item.command == "quantile":
            doc = _last_json(res.stdout)
            if doc is not None:
                self.last_theta[item.key[0]] = doc["x"]
            records = _read_trace(item.set.trace)
            res.trace_records = len(records)
            res.trace_starts = {r.get("start") for r in records}

    def check(self, item, res):
        if res.code != 0:
            return [f"{item.command}: exit code {res.code}, stderr {res.stderr.strip()!r}"]
        doc = _last_json(res.stdout)
        if doc is None:
            return [f"{item.command}: no JSON on stdout"]
        s = item.set
        errs = []
        if item.command == "quantile":
            if doc.get("status") != LOCAL_MINIMUM or doc.get("theta") != doc.get("x"):
                errs.append(f"quantile: bad outcome document {sorted(doc)}")
            direct = drlp.quantile_loss(drlp.RegressionData(s.qx, s.qy), np.array(doc["x"]))
            if not close(doc["f"], direct, 1e-9):
                errs.append(f"quantile: f {doc['f']!r} != direct loss {direct!r}")
            f_lp = quantile_lp_optimum(s.qx, s.qy, 0.5)
            if not close(doc["f"], f_lp, 1e-8):
                errs.append(f"quantile: f {doc['f']!r} != linprog optimum {f_lp!r}")
            if res.trace_starts != {0, 1}:
                errs.append("quantile: trace file lacks records of both starts")
        elif item.command == "regions":
            want = _count_patterns(s.weights, s.biases, (-10.0, 10.0), self.SAMPLES, s.seed)
            if doc.get("empirical") != want:
                errs.append(f"regions: {doc.get('empirical')} patterns, independent count {want}")
            if not 1 <= want <= _improved_bound(self.NET_WIDTHS[:-1]):
                errs.append("regions: count exceeds the improved bound")
        elif item.command == "bounds":
            want = {"montufar": _montufar_bound(self.BOUNDS_TOPOLOGY),
                    "improved": _improved_bound(self.BOUNDS_TOPOLOGY)}
            if doc != want:
                errs.append(f"bounds: {doc} != {want}")
        elif item.command == "check":
            if doc.get("certified") is not True:
                errs.append("check: the quantile minimum was not certified")
        return errs

    def fingerprint(self, res):
        doc = _last_json(res.stdout)
        if isinstance(doc, dict):
            doc.pop("wall_ms", None)
        return (res.code, json.dumps(doc, sort_keys=True))


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _last_json(text):
    lines = text.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def _read_trace(path):
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            records.append(json.loads(line))
    return records


def _count_patterns(weights, biases, box, samples, seed, chunk=4096):
    """Distinct activation patterns over the CLI's sample stream, counted anew."""
    rng = np.random.Generator(np.random.Philox(seed))
    rows, remaining = [], samples
    while remaining > 0:
        take = min(chunk, remaining)
        y = rng.uniform(box[0], box[1], size=(chunk, weights[0].shape[1]))[:take]
        bits = []
        for w, b in zip(weights[:-1], biases[:-1]):
            a = y @ w.T + b
            bits.append(a > 0.0)
            y = np.maximum(a, 0.0)
        rows.append(np.packbits(np.concatenate(bits, axis=1), axis=1))
        remaining -= take
    packed = np.ascontiguousarray(np.concatenate(rows))
    return int(len(np.unique(packed.view(np.dtype((np.void, packed.shape[1]))))))


def _montufar_bound(topology):
    total, cap = 1, topology[0]
    for w in topology[1:]:
        cap = min(cap, w)
        total *= sum(comb(w, j) for j in range(cap + 1))
    return total


def _improved_bound(topology):
    """Same bound as drlp's, by dynamic programming over the remaining rank."""
    ways = {topology[0]: 1}          # remaining rank cap -> weighted count
    for w in topology[1:]:
        nxt = {}
        for cap, count in ways.items():
            for j in range(min(cap, w) + 1):
                key = min(cap, w - j)
                nxt[key] = nxt.get(key, 0) + count * comb(w, j)
        ways = nxt
    return sum(ways.values())


WORKLOADS = {w.name: w for w in (Quantile, Lasso, CliMix)}
