"""Print one digest per family over a fixed, seeded corpus.

Run it from the repository root against the tree to be checked:

    PYTHONPATH=src python tests/outcome_digest.py [family ...]

and again with PYTHONPATH pointing at another checkout's ``src``.  Equal
lines mean equal outcomes bit for bit: each digest hashes every solve's
status, steps, the bytes of x and f, and every trace record (for
``check_axes``, every axis derivative and the certificate; for
``regions``, every sampled count and bound; for ``sweeps``, the output
bytes of every network sweep).  Wall times are left out.
The script uses only API that has been stable across releases
(builders, ``drlsimplex``, ``solve_quadratic``, ``SolverOptions(seed,
max_steps)``, the ``check`` routines called with ``pairs`` by keyword,
the region bounds and sampler, and the network sweeps called on patterns
from ``activation_pattern`` and ``flip``), so one copy serves both trees.  Name
families (``lasso random_quadratic``) to digest only those; the default
is all of them, and an unknown name exits 1.

Next to each solve family's digest the script prints its total steps and
the number of ``flip`` trace records, so step deltas between two trees
read off the same two lines.

Digests depend on the numpy/BLAS build, so this is a tool for comparing
two trees on one machine, not a test; pytest does not collect it.
"""

import hashlib
import sys
from collections import Counter

import numpy as np

import drlp

MAX_STEPS = 3000


def philox(*seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(seed))))


def solve_record(out):
    """The bytes of one outcome that a bit-for-bit claim covers."""
    head = repr((out.status, int(out.steps), np.asarray(out.x, dtype=np.float64).tobytes(),
                 np.float64(out.f).tobytes()))
    recs = [repr((r.step, r.phase, r.x, r.f, r.neuron, r.t, r.alpha, r.crossed)) for r in out.trace]
    return "\n".join([head] + recs)


def options(seed):
    return drlp.SolverOptions(seed=seed, max_steps=MAX_STEPS)


def random_nets():
    for topo in ((3, 8, 1), (4, 6, 6, 1), (3, 5, 5, 5, 1)):
        for seed in range(10):
            net = drlp.build_random(topo, seed=seed)
            x0 = philox(1, seed).standard_normal(topo[0])
            yield drlp.drlsimplex(net, x0, options(seed))


def regression(seed, n, p):
    rng = philox(2, seed)
    x = rng.standard_normal((n, p))
    y = 1.0 + x @ np.linspace(1.0, -1.0, p) + rng.laplace(size=n)
    return drlp.RegressionData(x, y)


def quantile():
    for seed in range(8):
        for alpha, lam in ((0.5, 0.0), (0.3, 0.0), (0.5, 2.0), (0.7, 0.5)):
            net, pairs = drlp.build_quantile_lasso(regression(seed, 60, 3), alpha=alpha, lam=lam)
            yield drlp.drlsimplex(net, np.zeros(net.input_dim), options(seed), pairs)


def clad():
    for seed in range(10):
        data = regression(seed, 40, 3)
        net, pairs = drlp.build_clad(data)
        x0 = philox(3, seed).standard_normal(3)
        yield drlp.drlsimplex(net, x0, options(seed), pairs)


def lasso():
    for seed in range(6):
        data = regression(seed, 80, 10)
        lam_max = 2.0 * float(np.max(np.abs(data.x.T @ data.y)))
        for frac in (0.3, 0.1, 0.03):
            net, q, pairs = drlp.build_lasso(data, lam=frac * lam_max)
            yield drlp.solve_quadratic(net, q, np.zeros(data.p), options(seed), pairs)


def lp():
    for seed in range(10):
        rng = philox(4, seed)
        a = rng.uniform(0.1, 1.0, (4, 3))
        lp_ = drlp.LpInstance(-rng.uniform(0.5, 1.5, 3), a, rng.uniform(1.0, 2.0, 4))
        net, pairs = drlp.build_from_lp(lp_, penalty=10.0)
        yield drlp.drlsimplex(net, rng.uniform(0.0, 1.0, 3), options(seed), pairs)


def train_l1():
    for seed in range(6):
        base = drlp.build_random((2, 3, 2, 1), seed=seed)
        rng = philox(5, seed)
        data = drlp.RegressionData(rng.standard_normal((12, 2)), rng.standard_normal(12))
        net, pairs = drlp.build_l1_first_layer(base, data)
        yield drlp.drlsimplex(net, drlp.flatten_first_layer(base), options(seed), pairs)


def random_quadratic():
    for topo in ((3, 8, 8, 1), (4, 12, 1), (5, 10, 10, 10, 1)):
        for seed in range(6):
            net = drlp.build_random(topo, seed=seed)
            rng = philox(6, seed)
            a = rng.standard_normal((topo[0], topo[0]))
            q = drlp.QuadraticObjective(0.2 * a.T @ a + 0.1 * np.eye(topo[0]), np.zeros(topo[0]))
            yield drlp.solve_quadratic(net, q, rng.standard_normal(topo[0]), options(seed))


def check_axes():
    """Axes and certificate at solved points, the way ``drlp check`` builds them."""
    cases = [(net, None, out.x) for net, out in _solved_random_nets()]
    for seed in range(4):
        net, pairs = drlp.build_quantile_lasso(regression(seed, 30, 2), lam=0.5)
        cases.append((net, pairs, drlp.drlsimplex(net, np.zeros(3), options(seed), pairs).x))
    for net, pairs, x in cases:
        s = drlp.activation_pattern(net, x, pairs)
        crit = drlp.critical_indices(net, s, x, pairs=pairs)
        try:
            pinv = drlp.dense_pseudoinverse(net, s, crit)
            ok = drlp.certify_local_min(net, x, s, pinv, pairs=pairs)
            axes = drlp.axis_derivatives(net, x, s, pinv, pairs=pairs)
        except drlp.Degenerate:
            yield repr(("Degenerate", crit))
            continue
        yield repr((ok, crit, [(c, b, np.float64(v).tobytes(), np.float64(g).tobytes())
                               for c, b, v, g in axes]))


def regions():
    """Sampled region counts around the chunk edge, and both bounds on random topologies."""
    for depth in (1, 2, 3):
        for hidden in (5, 40, 64, 65, 130):
            widths = [hidden // depth + (k < hidden % depth) for k in range(depth)]
            net = drlp.build_random([2 + depth] + widths + [1], seed=10 * hidden + depth)
            for samples in (1, 4095, 4096, 4097, 9000):
                for box in ((-10.0, 10.0), (-0.5, 0.5)):
                    count = drlp.count_regions_empirical(net, box, samples=samples, seed=depth)
                    yield repr((widths, samples, box, count))
    rng = philox(8)
    for _ in range(40):
        topo = [int(rng.integers(1, 9))] + [int(rng.integers(1, 16))
                                            for _ in range(int(rng.integers(1, 7)))]
        yield repr((topo, drlp.montufar_bound(topo), drlp.improved_bound(topo)))


def sweeps():
    """Output bytes of every network sweep, at a point's pattern and at flips of it."""
    for depth in (1, 2, 3):
        for seed in range(8):
            rng = philox(9, depth, seed)
            topo = [int(rng.integers(1, 7))] + [int(rng.integers(1, 13)) for _ in range(depth)] + [1]
            net = drlp.build_random(topo, seed=seed)
            x, w = rng.standard_normal((2, topo[0]))
            yield (drlp.relu_arguments(net, x).tobytes() + np.float64(drlp.evaluate(net, x)).tobytes()).hex()
            s = drlp.activation_pattern(net, x)
            units = rng.permutation(net.num_neurons)
            for t in (s, drlp.flip(s, int(units[0])), drlp.flip(s, units[:(net.num_neurons + 1) // 2])):
                yield b"".join(a.tobytes() for a in (
                    drlp.subjective_arguments(net, t, x), drlp.inner_products_all(net, t, w),
                    drlp.gradient(net, t), drlp.oriented_normals(net, t, units),
                    drlp.normal_matrices(net, t))).hex()


def _solved_random_nets():
    for seed in range(8):
        net = drlp.build_random((3, 6, 6, 1), seed=100 + seed)
        yield net, drlp.drlsimplex(net, philox(7, seed).standard_normal(3), options(seed))


FAMILIES = {
    "random_nets": random_nets,
    "quantile": quantile,
    "clad": clad,
    "lasso": lasso,
    "lp": lp,
    "train_l1": train_l1,
    "random_quadratic": random_quadratic,
    "check_axes": check_axes,
    "regions": regions,
    "sweeps": sweeps,
}


def main(names):
    unknown = [n for n in names if n not in FAMILIES]
    if unknown:
        print(f"error: unknown families {unknown}; choose from {list(FAMILIES)}", file=sys.stderr)
        return 1
    print(f"# numpy {np.__version__}, python {sys.version.split()[0]}")
    for name in names or FAMILIES:
        family = FAMILIES[name]
        digest = hashlib.sha256()
        statuses, work = Counter(), Counter()
        for item in family():
            if isinstance(item, str):
                statuses["checked"] += 1
            else:
                statuses[item.status] += 1
                work["steps"] += int(item.steps)
                work["flips"] += sum(r.phase == "flip" for r in item.trace)
                item = solve_record(item)
            digest.update(item.encode() + b"\0")
        counts = " ".join(f"{k}:{v}" for k, v in sorted(statuses.items()))
        if work:
            counts += f"  steps:{work['steps']} flips:{work['flips']}"
        print(f"{name:<17} {digest.hexdigest()[:16]}  {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
