"""Print one digest per family over a fixed, seeded corpus.

Run it from the repository root against the tree to be checked:

    PYTHONPATH=src python tests/outcome_digest.py [family ...]

and again with PYTHONPATH pointing at another checkout's ``src``.  Equal
lines mean equal outcomes bit for bit: each digest hashes every solve's
status, steps, the bytes of x and f, and every trace record (for
``check_axes``, the exit code and JSON of ``drlp check``; for
``regions``, every sampled count and bound; for ``sweeps``, the output
bytes of every network sweep).  Wall times are left out.  A second digest
on each line leaves out unit names (the ``neuron`` of every record and the
units ``check`` names), so a change that only renumbers units keeps it.
The script uses only API that has been stable across releases
(builders, ``drlsimplex``, ``solve_quadratic``, ``SolverOptions(seed,
max_steps)``, ``save_model`` and the ``drlp check`` command, the region
bounds and sampler, and the network sweeps called on patterns from
``activation_pattern`` and ``flip``), so one copy serves both trees.  Name
families (``lasso random_quadratic``) to digest only those; the default
is all of them, and an unknown name exits 1.

Next to each solve family's digest the script prints its total steps, its
summed f, the number of ``flip``, ``find_vertex`` and ``pivot`` trace
records, and the walls the records say were crossed, so step deltas between
two trees, the f they end at and their split between the vertex search and
the pivots read off the same two lines.

To compare with another checkout in one command, pass its ``src``:

    PYTHONPATH=src python tests/outcome_digest.py --against OTHER/src [family ...]

The same families then run in a child process with ``PYTHONPATH=OTHER/src``
while this one digests the current tree, and each line ends in ``same`` when
the two digests are equal, ``renamed`` when only the digests without unit
names are, and ``moved`` when those differ too.  Under a renamed or moved
line the other tree's line follows, ending in its ``src``, so the two
count lines show whether steps or f moved or only the bits.

Digests depend on the numpy/BLAS build, so this is a tool for comparing
two trees on one machine, not a test; pytest does not collect it.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter

import numpy as np

import drlp
import drlp.cli

MAX_STEPS = 3000


def philox(*seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(seed))))


def solve_record(out, names=True):
    """The bytes of one outcome that a bit-for-bit claim covers; without names, no record's neuron."""
    head = repr((out.status, int(out.steps), np.asarray(out.x, dtype=np.float64).tobytes(),
                 np.float64(out.f).tobytes()))
    recs = [repr((r.step, r.phase, r.x, r.f) + ((r.neuron,) if names else ()) + (r.t, r.alpha, r.crossed))
            for r in out.trace]
    return "\n".join([head] + recs)


def check_record(code, out, err, names=True):
    """What one ``drlp check`` printed; without names, its JSON less the units it names."""
    if not names and out:
        doc = json.loads(out)
        doc.pop("neurons", None)
        for axis in doc.get("axes", ()):
            del axis["neuron"]
        out = json.dumps(doc) + "\n"
    return repr((code, out, err))


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
    """What ``drlp check`` prints, and its exit code, at solved points.

    The command runs in process on a model file written to a temporary
    directory, so the digest covers the verdict and the axes JSON of
    whichever probe the tree's ``check`` uses.
    """
    cases = [(net, drlp.PairGroups(), out.x) for net, out in _solved_random_nets()]
    for seed in range(4):
        net, pairs = drlp.build_quantile_lasso(regression(seed, 30, 2), lam=0.5)
        cases.append((net, pairs, drlp.drlsimplex(net, np.zeros(3), options(seed), pairs).x))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        for net, pairs, x in cases:
            drlp.save_model(path, net, pairs)
            argv = ["check", "--model", path, "--x=" + ",".join(map(repr, x.tolist()))]
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = drlp.cli.main(argv)
            yield code, out.getvalue(), err.getvalue()


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
                    drlp.gradient(net, t), *(drlp.oriented_normal(net, t, int(c)) for c in units),
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


def digest_lines(names):
    """The header line, then one line per family: its name, digests with and without unit names, and counts."""
    yield f"# numpy {np.__version__}, python {sys.version.split()[0]}"
    for name in names or FAMILIES:
        family = FAMILIES[name]
        digest, unnamed = hashlib.sha256(), hashlib.sha256()
        statuses, work = Counter(), Counter()
        for item in family():
            if isinstance(item, str):       # regions and sweeps name no unit
                statuses["checked"] += 1
                full = bare = item
            elif isinstance(item, tuple):   # a check's exit code, stdout and stderr
                statuses["checked"] += 1
                full, bare = check_record(*item), check_record(*item, names=False)
            else:
                statuses[item.status] += 1
                work["steps"] += int(item.steps)
                work["f"] += float(item.f)
                for r in item.trace:
                    work[r.phase] += 1
                    work["crossed"] += r.crossed or 0
                full, bare = solve_record(item), solve_record(item, names=False)
            digest.update(full.encode() + b"\0")
            unnamed.update(bare.encode() + b"\0")
        counts = " ".join(f"{k}:{v}" for k, v in sorted(statuses.items()))
        if work:
            counts += (f"  steps:{work['steps']} f:{work['f']:.10g} flips:{work['flip']} find_vertex:"
                       f"{work['find_vertex']} pivots:{work['pivot']} crossed:{work['crossed']}")
        yield f"{name:<17} {digest.hexdigest()[:16]} {unnamed.hexdigest()[:16]}  {counts}"


def main(argv):
    names, other = list(argv), None
    if "--against" in names:
        at = names.index("--against")
        other = names[at + 1] if at + 1 < len(names) else None
        del names[at:at + 2]
        if other is None:
            print("error: --against needs the src directory of another checkout", file=sys.stderr)
            return 1
    unknown = [n for n in names if n not in FAMILIES]
    if unknown:
        print(f"error: unknown families {unknown}; choose from {list(FAMILIES)}", file=sys.stderr)
        return 1
    if other is None:
        for line in digest_lines(names):
            print(line, flush=True)
        return 0
    child = subprocess.Popen([sys.executable, os.path.abspath(__file__), *names], text=True,
                             env={**os.environ, "PYTHONPATH": other},
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    ours = list(digest_lines(names))
    theirs, err = child.communicate()
    if child.returncode:
        print(f"error: the digest of {other} failed:\n{err}", file=sys.stderr)
        return 1
    theirs = theirs.splitlines()
    print(f"{ours[0]}; against {other}")
    for line, other_line in zip(ours[1:], theirs[1:]):
        (name, full, bare), (_, other_full, other_bare) = line.split()[:3], other_line.split()[:3]
        verdict = "same" if full == other_full else "renamed" if bare == other_bare else "moved"
        print(f"{line}  {verdict}")
        if verdict != "same":
            print(f"{other_line}  ({other})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
