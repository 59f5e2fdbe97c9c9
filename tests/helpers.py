"""Independent oracles the tests check the library against.

Everything here recomputes quantities from first principles (finite
differences, dense linear algebra, exhaustive enumeration, coordinate
descent) without touching the incremental code paths under test.
"""

import csv
import itertools
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np

import drlp
from drlp import (
    LpInstance,
    RegressionData,
    ReluNetwork,
    build_clad,
    build_from_lp,
    build_l1_first_layer,
    build_lasso,
    build_quantile_lasso,
    build_random,
    evaluate,
)
from drlp.network import (
    ZERO_TOL,
    PairGroups,
    critical_indices,
    crossing_terms,
    flip,
    inner_products_all,
    oriented_normal,
    relu_arguments,
    subjective_arguments,
)
from drlp.primitives import (
    DEP_TOL,
    Degenerate,
    PseudoInverse,
    add_axis,
    dense_pseudoinverse,
    remove_pseudorow,
    update_axis_new_region,
)


def run_python(*args, timeout=120):
    """``python *args`` in a child process on the drlp tree under test, ahead of any inherited PYTHONPATH.

    Returns the CompletedProcess, its output captured as text; raises
    subprocess.TimeoutExpired past timeout seconds, so a hung child fails its test.
    """
    path = os.pathsep.join(filter(None, [str(Path(drlp.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": path})


def hyperplane_pattern(net, x, zero_tol=ZERO_TOL):
    """Sign in {-1, 0, +1} of every hidden unit's argument at x, one flat int8 vector.

    An argument counts as zero when its magnitude is at most
    ``zero_tol * (1 + max|x|)``.
    """
    x = np.asarray(x, dtype=np.float64)
    scale = zero_tol * (1.0 + (np.max(np.abs(x)) if x.size else 0.0))
    a = relu_arguments(net, x)
    h = np.sign(a).astype(np.int8)
    h[np.abs(a) <= scale] = 0
    return h


def is_compatible(h, s):
    """True when s only commits sign choices that h leaves open.

    Units with nonzero sign must keep the matching bit; units sitting on
    their hyperplane (sign 0) may take either bit.
    """
    if h.shape != s.shape:
        raise ValueError("patterns describe different networks")
    return bool(np.all(h.astype(np.float64) * (s.astype(np.float64) - 0.5) >= 0.0))


def subjective_value(net, s, x):
    """Output when every ReLU is replaced by multiplication with its bit in s."""
    y = np.asarray(x, dtype=np.float64)
    for l, (w, b) in enumerate(zip(net.weights[:-1], net.biases[:-1]), start=1):
        y = s[net.offsets[l - 1]:net.offsets[l]] * (w @ y + b)
    return float((net.weights[-1] @ y + net.biases[-1])[0])


def dense_sweeps(net, s, x):
    """(arguments at x, unoriented normals, gradient) under pattern s, from explicit products.

    Layer l's arguments are the affine map A_l x + c_l with A_1 = W_1,
    c_1 = b_1, A_l = W_l diag(s_(l-1)) A_(l-1) and
    c_l = W_l diag(s_(l-1)) c_(l-1) + b_l; the rows of A_l are layer l's
    normals and the output layer's single row is the gradient.
    """
    a, c = np.eye(net.input_dim), np.zeros(net.input_dim)
    args, normals = [], []
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        if l:
            d = np.diag(s[net.offsets[l - 1]:net.offsets[l]].astype(np.float64))
            a, c = d @ a, d @ c
        a, c = w @ a, w @ c + b
        args.append(a @ x + c)
        normals.append(a)
    return np.concatenate(args[:-1]), np.vstack(normals[:-1]), normals[-1][0]


def critical_kernel_dim(net, s, x):
    """Dimension of the common kernel of all critical normals at x.

    Equals input_dim minus the rank of the stacked critical normals; the
    point is a vertex of its region exactly when this is zero.
    """
    crit, rows = critical_indices(net, s, x)
    if not crit:
        return net.input_dim
    sv = np.linalg.svd(rows, compute_uv=False)
    rank = int(np.sum(sv > ZERO_TOL * max(1.0, sv[0])))
    return net.input_dim - rank


def enumerate_compatible(net, x, zero_tol=ZERO_TOL, cap=65536):
    """All activation patterns compatible with the sign pattern at x.

    Each unit on its hyperplane doubles the count, so the result has
    2**(#zero arguments) patterns; raises ValueError beyond cap.
    """
    h = hyperplane_pattern(net, x, zero_tol)
    zeros = np.nonzero(h == 0)[0]
    if len(zeros) > np.log2(cap):
        raise ValueError(f"2**{len(zeros)} compatible patterns exceed cap {cap}")
    base = (h > 0).astype(np.uint8)
    out = []
    for mask in range(1 << len(zeros)):
        bits = base.copy()
        for k, flat in enumerate(zeros):
            bits[flat] = (mask >> k) & 1
        out.append(bits)
    return out


def segment_parabola(q, x, v):
    """Coefficients (a, b, c) of t -> q(x + t v)."""
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    a = float(v @ q.quad @ v)
    b = float(x @ (q.quad + q.quad.T) @ v + q.lin @ v)
    return a, b, q.value(x)


def fd_gradient(net, s, x):
    """Gradient on the region of s by central differences.

    The pattern-fixed network value is affine in x, so any step size is
    exact up to roundoff.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = 0.5
        g[i] = subjective_value(net, s, x + e) - subjective_value(net, s, x - e)
    return g


def fd_oriented_normal(net, s, c, x):
    """Oriented normal of unit c via differences of its argument."""
    x = np.asarray(x, dtype=np.float64)
    v = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = 0.5
        up = subjective_arguments(net, s, x + e)[c]
        dn = subjective_arguments(net, s, x - e)[c]
        v[i] = up - dn
    return v if s[c] == 1 else -v


def normals_matrix(net, s, owners):
    """Columns = oriented normals of the owners, from the definition."""
    return np.stack([oriented_normal(net, s, c) for c in owners], axis=1)


def dense_basis(net, s, owners):
    """dense_pseudoinverse of the owners' oriented normals under s, one backward sweep each."""
    normals = np.array([oriented_normal(net, s, c) for c in owners]).reshape(len(owners), net.input_dim)
    return dense_pseudoinverse(normals, owners)


def brute_pseudoinverse(net, s, owners):
    """Moore-Penrose left inverse of the stacked normals, dense route."""
    return np.linalg.pinv(normals_matrix(net, s, owners), rcond=1e-13)


def sweep_row_rebuild(pinv, i, net, s, u):
    """Row i rebuilt from u, its owner's oriented normal after the owner's bit flipped.

    The dense route to what update_axis_new_region does in closed form:
    one full sweep takes the inner products of u with every owner's normal
    under s, and row i becomes the part of u off the other owners' span,
    scaled to <row, u> = 1.  The normals are every owner's under s, one
    backward sweep each.  Raises Degenerate on a vanishing denominator.
    """
    c = pinv.owners[i]
    g = inner_products_all(net, s, u)[pinv.owners]
    w = u - (pinv.matrix.T @ g - g[i] * pinv.matrix[i])
    denom = float(w @ u)
    uu = float(u @ u)
    if uu == 0.0 or abs(denom) <= DEP_TOL * uu:
        raise Degenerate(f"axis update for unit {c} is degenerate")
    matrix = pinv.matrix.copy()
    matrix[i] = w / denom
    return PseudoInverse(matrix, normals_matrix(net, s, pinv.owners).T, list(pinv.owners))


def owner_flip_updates(pinv, i, net, s):
    """[closed form, sweep rebuild]: owner i's row update under s, its bit already flipped there.

    The closed form negates row i and bends it by the owner's column of
    crossing_terms (update_axis_new_region); sweep_row_rebuild rebuilds it
    from the owner's normal under s.
    """
    negated = PseudoInverse(pinv.matrix.copy(), pinv.normals.copy(), list(pinv.owners))
    negated.matrix[i] *= -1.0       # biorthogonal to the owner's negated normal
    negated.normals[i] *= -1.0
    return [update_axis_new_region(negated, i, crossing_terms(net, s, pinv.owners)[1][:, i]),
            sweep_row_rebuild(pinv, i, net, s, oriented_normal(net, s, pinv.owners[i]))]


def pivot_update_reference(pinv, i, net, s, c):
    """A pivot's basis update as three primitives, for exchange_axis to match.

    Takes the network and the pattern s after the pivot where exchange_axis
    takes c's normal and bend.  Drops row i, adds unit c's normal under the
    pattern before the pivot (s with c's bit flipped back), then rebuilds
    c's row and every normal under s with sweep_row_rebuild; this costs two
    full sweeps more.
    """
    grown = add_axis(remove_pseudorow(pinv, i), oriented_normal(net, flip(s, c), c), c)
    return sweep_row_rebuild(grown, grown.m - 1, net, s, oriented_normal(net, s, c))


def ac5_runs():
    """(net, x0, seed) of the 20 deep random solves of acceptance check AC5.

    Ten (1, 50, 10, 10, 10, 10, 10, 1) nets from 0 and ten
    (2, 10, 10, 10, 10, 10, 1) nets from uniform starts in [-1, 1]^2.
    """
    for seed in range(10):
        yield build_random((1, 50, 10, 10, 10, 10, 10, 1), seed=400 + seed), np.zeros(1), seed
    for seed in range(10):
        rng = np.random.Generator(np.random.Philox(600 + seed))
        yield (build_random((2, 10, 10, 10, 10, 10, 1), seed=500 + seed),
               rng.uniform(-1.0, 1.0, size=2), seed)


def save_mirrored_model(path, net, pairs=PairGroups()):
    """The older model file save_model wrote: pairs.fold(net) with each two-slope unit j as a mirrored pair.

    j keeps its place, and its mirror (row -w[j], bias 0.0 - b[j], never -0.0, output weight
    -off_weights[j]) follows the last hidden layer; ``pairs`` lists each unit and its mirror.
    """
    net = pairs.fold(net)
    j, w, b, width = net.two_slope.nonzero()[0], net.weights[-2], net.biases[-2], net.relu_widths[-1]
    weights = net.weights[:-2] + [np.vstack([w, -w[j]]), np.hstack([net.weights[-1], -net.off_weights[None, j]])]
    biases = net.biases[:-2] + [np.concatenate([b, 0.0 - b[j]]), net.biases[-1]]
    doc = {
        "widths": [*net.widths[:-2], width + j.size, 1],
        "weights": [a.tolist() for a in weights],
        "biases": [a.tolist() for a in biases],
    }
    if j.size:
        doc["pairs"] = [[[net.depth, u + 1], [net.depth, width + k + 1]] for k, u in enumerate(j.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def write_model(path, net, pairs):
    """A model file listing net's pairs as given, in any unit order; save_model writes only its canonical form."""
    doc = {"widths": list(net.widths), "weights": [w.tolist() for w in net.weights],
           "biases": [b.tolist() for b in net.biases],
           "pairs": [[list(net.neuron_at(a)), list(net.neuron_at(b))]
                     for a, b in zip(pairs.first.tolist(), pairs.second.tolist())]}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")


def folded_units(net, pairs):
    """Flat unit of net that each unit of pairs.fold(net) is: every unit but the second members, in order."""
    return np.flatnonzero(~pairs.secondary_flat_mask(net))


def _mirrored(start, n):
    """Pairs (start + i, start + n + i), i < n: a block of n units, then its mirror block."""
    return start + np.stack([np.arange(n), n + np.arange(n)], axis=1)


# The problem builders as they were when each two-slope term was a mirrored pair of
# ReLUs: (net, pairs), the net a chain of plain ReLUs.  PairGroups.fold of each is
# the builder's own net, byte for byte, and save_model writes both alike.

def mirrored_quantile(data, alpha=0.5, lam=0.0):
    """Residual rows, their mirrors, then at lam > 0 the penalty rows and their mirrors."""
    n, p = data.n, data.p
    design = np.hstack([np.ones((n, 1)), data.x])
    blocks_w, blocks_b = [-design, design], [data.y, -data.y]
    out_w = [np.full(n, alpha), np.full(n, 1.0 - alpha)]
    if lam > 0.0:
        pen = np.hstack([np.zeros((p, 1)), np.eye(p)])
        blocks_w += [pen, -pen]
        blocks_b += [np.zeros(p), np.zeros(p)]
        out_w += [np.full(p, lam), np.full(p, lam)]
    net = ReluNetwork([np.vstack(blocks_w), np.concatenate(out_w)[None, :]],
                      [np.concatenate(blocks_b), np.zeros(1)])
    return net, PairGroups(np.concatenate([_mirrored(0, n), _mirrored(2 * n, p if lam > 0.0 else 0)]))


def mirrored_clad(data):
    """Layer 2 holds the residual rows, then their mirrors."""
    n = data.n
    net = ReluNetwork([data.x.copy(), np.vstack([np.eye(n), -np.eye(n)]), np.ones((1, 2 * n))],
                      [np.zeros(n), np.concatenate([-data.y, data.y]), np.zeros(1)])
    return net, PairGroups(_mirrored(net.offsets[1], n))


def mirrored_l1_first_layer(base, data):
    """The residual layer holds every sample's residual row, then their mirrors."""
    n1, n = base.relu_widths[0], data.n
    layers_w = [np.vstack([np.hstack([np.kron(np.eye(n1), data.x[i][None, :]), np.eye(n1)]) for i in range(n)])]
    layers_b = [np.zeros(n * n1)]
    for l in range(1, base.depth):
        layers_w.append(np.kron(np.eye(n), base.weights[l]))
        layers_b.append(np.tile(base.biases[l], n))
    d_out, t_out = np.kron(np.eye(n), base.weights[-1]), np.tile(base.biases[-1], n)
    layers_w += [np.vstack([d_out, -d_out]), np.ones((1, 2 * n))]
    layers_b += [np.concatenate([-data.y + t_out, data.y - t_out]), np.zeros(1)]
    net = ReluNetwork(layers_w, layers_b)
    return net, PairGroups(_mirrored(net.offsets[base.depth], n))


def mirrored_lasso(data, lam=0.0):
    """The penalty rows, then their mirrors; pairs at lam = 0 too, where every unit is constant zero."""
    p = data.p
    net = ReluNetwork([np.vstack([lam * np.eye(p), -lam * np.eye(p)]), np.ones((1, 2 * p))],
                      [np.zeros(2 * p), np.zeros(1)])
    return net, PairGroups(_mirrored(0, p))


def mirrored_lp(lp, penalty=1.0):
    """The objective row and its mirror, then the constraint and bound rows."""
    n_var, n_con = len(lp.c), len(lp.b)
    w1 = np.vstack([lp.c[None, :], -lp.c[None, :], lp.a, -np.eye(n_var)])
    b1 = np.concatenate([np.zeros(2), -lp.b, np.zeros(n_var)])
    w2 = np.concatenate([[1.0, -1.0], np.full(n_con + n_var, penalty)])[None, :]
    return ReluNetwork([w1, w2], [b1, np.zeros(1)]), PairGroups(_mirrored(0, 1))


def builder_cases():
    """(name, builder's (net, pairs), mirrored reference's (net, pairs), x) per builder.

    x puts at least one two-slope wall exactly at zero.
    """
    rng = np.random.Generator(np.random.Philox(31))
    data = RegressionData(rng.standard_normal((15, 2)), rng.standard_normal(15))
    cases = []
    for alpha in (0.3, 1.0):
        for lam in (0.0, 0.5):
            # residual 3 vanishes at (y_3, 0, 0), and so do the penalty units
            cases.append((f"quantile-{alpha}-{lam}", build_quantile_lasso(data, alpha=alpha, lam=lam),
                          mirrored_quantile(data, alpha=alpha, lam=lam), np.array([data.y[3], 0.0, 0.0])))
    zero_y = RegressionData(data.x, np.where(np.arange(15) == 4, 0.0, data.y))
    cases.append(("clad", build_clad(zero_y), mirrored_clad(zero_y), np.zeros(2)))   # residual 4 is max(0, 0) - 0
    for name, lam in (("lasso", 2.0), ("lasso-0", 0.0)):
        net, _, pairs = build_lasso(data, lam=lam)
        cases.append((name, (net, pairs), mirrored_lasso(data, lam=lam), np.zeros(2)))
    lp = LpInstance(np.array([1.0, -2.0]), rng.uniform(0.1, 1.0, (3, 2)), np.ones(3))
    cases.append(("lp", build_from_lp(lp), mirrored_lp(lp), np.zeros(2)))     # <c, x> = 0
    base = build_random((2, 3, 1), seed=4)
    shifted = RegressionData(data.x, np.where(np.arange(15) == 2, base.biases[-1][0], data.y))
    # at theta = 0 the hidden layer is 0, so residual 2 is y_2's offset cancelled exactly
    cases.append(("train_l1", build_l1_first_layer(base, shifted), mirrored_l1_first_layer(base, shifted),
                  np.zeros(base.relu_widths[0] * (base.input_dim + 1))))
    return cases


def interleaved_clad(data):
    """mirrored_clad's (net, pairs) with each residual unit's mirror right after it in layer 2.

    The value is the same everywhere, but folding keeps every other
    layer-2 unit, so folded unit c is not unit c of this net: the names
    records, outcomes and ``drlp check`` give are checked to be the folded ones.
    """
    net, pairs = mirrored_clad(data)
    off, n = net.offsets[1], data.n
    order = np.arange(2 * n).reshape(2, n).T.ravel()
    w, b = net.weights, net.biases
    mixed = ReluNetwork([w[0], w[1][order], w[2][:, order]], [b[0], b[1][order], b[2]])
    return mixed, PairGroups((off + 2 * i, off + 2 * i + 1) for i in range(n))


def clad_start_data(n=1000):
    """Censored data whose CLAD start theta = 0 lies on all n first-layer walls.

    Design: a ones column and 4 standard-normal columns; theta standard
    normal; y = max(X theta + Laplace, 0), all from Philox(1).
    """
    rng = np.random.Generator(np.random.Philox(1))
    x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 4))])
    theta = rng.standard_normal(5)
    return RegressionData(x, np.maximum(x @ theta + rng.laplace(size=n), 0.0))


def brute_advance(net, x, v, s, ignore=(), zero_tol=ZERO_TOL):
    """Reference line search: per-unit rates from two full forward passes.

    Arguments are affine along the ray, so the rate is an exact
    difference.  Returns (t, neuron) or (inf, None), with the same
    candidate rule and tie handling the fast path promises.
    """
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    ignore = set(ignore)
    a0 = subjective_arguments(net, s, x)
    a1 = subjective_arguments(net, s, x + v)
    cands = []
    for c in range(net.num_neurons):
        if c in ignore:
            continue
        alpha = a0[c]
        beta = a1[c] - alpha
        if abs(beta) <= zero_tol:
            continue
        bit = s[c]
        if (bit == 1 and beta < 0.0) or (bit == 0 and beta > 0.0):
            cands.append((-alpha / beta, c))
    if not cands:
        return float("inf"), None
    t_min = min(t for t, _ in cands)
    window = 1e-12 * (1.0 + abs(t_min))
    best = min(c for t, c in cands if t <= t_min + window)
    t_best = next(t for t, c in cands if c == best)
    return t_best, best


def probe_min(net, x, radius=1e-4, samples=1000, seed=0, extra=None):
    """Smallest objective value over uniform ball samples around x."""
    rng = np.random.Generator(np.random.Philox(seed))
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    best = np.inf
    for _ in range(samples):
        d = rng.standard_normal(n)
        d *= radius * rng.uniform() ** (1.0 / n) / np.linalg.norm(d)
        val = evaluate(net, x + d)
        if extra is not None:
            val += extra(x + d)
        best = min(best, val)
    return best


def cd_lasso(x_mat, y, lam, iters=20000, tol=1e-14):
    """Coordinate descent for |y - X t|^2 + lam * |t|_1 (soft thresholding)."""
    x_mat = np.asarray(x_mat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = x_mat.shape
    norms = np.sum(x_mat * x_mat, axis=0)
    theta = np.zeros(p)
    r = y.copy()
    for _ in range(iters):
        delta = 0.0
        for j in range(p):
            old = theta[j]
            rho = x_mat[:, j] @ r + norms[j] * old
            new = np.sign(rho) * max(abs(rho) - lam / 2.0, 0.0) / norms[j]
            if new != old:
                r -= x_mat[:, j] * (new - old)
                theta[j] = new
                delta = max(delta, abs(new - old))
        if delta < tol:
            break
    return theta


def lad_enumerate(design, y, alpha=0.5):
    """Global quantile-loss optimum by trying every interpolating subset.

    Some optimal parameter vector makes p residuals zero (design in
    general position), so scanning all C(n, p) square solves finds the
    global value exactly.
    """
    design = np.asarray(design, dtype=np.float64)
    n, p = design.shape
    best = np.inf
    for rows in itertools.combinations(range(n), p):
        sub = design[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        theta = np.linalg.solve(sub, y[list(rows)])
        r = y - design @ theta
        val = float(np.sum(alpha * np.maximum(r, 0.0) + (1 - alpha) * np.maximum(-r, 0.0)))
        best = min(best, val)
    return best


def brute_improved_bound(topology):
    """Region bound by explicit enumeration of all admissible index tuples."""
    n0, widths = topology[0], list(topology[1:])
    total = 0
    for js in itertools.product(*[range(w + 1) for w in widths]):
        ok = True
        for i, j in enumerate(js):
            cap = min([n0] + [widths[k] - js[k] for k in range(i)] + [widths[i]])
            if j > cap:
                ok = False
                break
        if ok:
            total += int(np.prod([comb(w, j) for w, j in zip(widths, js)]))
    return total


def count_regions_reference(net, box=(-10.0, 10.0), samples=100_000, seed=0, chunk=4096):
    """Distinct activation patterns counted one sample at a time.

    The same Philox stream and chunking as count_regions_empirical, with
    each layer evaluated as a fresh ``y @ W.T + b`` and every sample's bit
    row added to a set on its own.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    seen = set()
    remaining = int(samples)
    while remaining > 0:
        take = min(chunk, remaining)
        y = rng.uniform(box[0], box[1], size=(chunk, net.input_dim))[:take]
        cols = []
        for w, b in zip(net.weights[:-1], net.biases[:-1]):
            a = y @ w.T + b
            cols.append(a > 0.0)
            y = np.maximum(a, 0.0)
        for row in np.concatenate(cols, axis=1).astype(np.uint8):
            seen.add(row.tobytes())
        remaining -= take
    return len(seen)


def first_layer_wrapper(rows):
    """Network whose unit (1, j) has oriented normal rows[j-1] when all bits are 1.

    Lets the pseudoinverse primitives run against arbitrary column sets.
    """
    rows = np.asarray(rows, dtype=np.float64)
    m = rows.shape[0]
    return ReluNetwork([rows, np.ones((1, m))], [np.zeros(m), np.zeros(1)])


def quantile_linprog(design, y, alpha=0.5):
    """Optimal quantile loss from scipy's HiGHS on the LP form.

    min alpha * sum(u) + (1 - alpha) * sum(w)  st  design @ theta + u - w = y,
    u, w >= 0, theta free.
    """
    import scipy.sparse as sp
    from scipy.optimize import linprog

    design = np.asarray(design, dtype=np.float64)
    n, k = design.shape
    c = np.concatenate([np.zeros(k), np.full(n, alpha), np.full(n, 1.0 - alpha)])
    a_eq = sp.hstack([sp.csr_matrix(design), sp.eye(n), -sp.eye(n)]).tocsr()
    res = linprog(c, A_eq=a_eq, b_eq=y, bounds=[(None, None)] * k + [(0, None)] * (2 * n),
                  method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def lp_linprog(lp):
    """(optimal value, largest dual magnitude) of min <c, x> st A x <= b, x >= 0."""
    from scipy.optimize import linprog

    res = linprog(lp.c, A_ub=lp.a, b_ub=lp.b, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    duals = np.concatenate([res.ineqlin.marginals, res.lower.marginals])
    return float(res.fun), float(np.max(np.abs(duals)))


def cone_projection_nnls(g, normals):
    """-g projected onto the cone {d : normals @ d >= 0}, from scipy's NNLS.

    By Moreau's decomposition the projection is -g + N' mu with mu the
    nonnegative least-squares solution of N' mu = g.
    """
    from scipy.optimize import nnls

    if not len(normals):
        return -g       # scipy's nnls aborts the process on an empty matrix
    mu, _ = nnls(normals.T, g)
    return -g + normals.T @ mu


def certificate_residual(g, normals, upper):
    """min |N' mu - g| over 0 <= mu <= upper, from scipy's BVLS (Stark & Parker 1995).

    normals holds one wall's unit normal per row and upper bounds each
    wall's multiplier by the slope that crossing it adds.  The residual is
    zero exactly when g lies in the subdifferential of the local model
    g.d + sum_c upper_c max(-n_c.d, 0), that is, at a local minimum.
    """
    from scipy.optimize import lsq_linear

    if not len(normals):
        return float(np.linalg.norm(g))
    res = lsq_linear(normals.T, g, bounds=(np.zeros(len(normals)), upper), method="bvls")
    return float(np.linalg.norm(normals.T @ res.x - g))


def load_csv_reference(path, response=None) -> RegressionData:
    """drlp.load_csv as a per-cell parser: csv.reader splits, float() reads each cell.

    Comma separated, UTF-8, '"' quotes a cell.  Rows whose cells are all
    blank are dropped before rows are counted, so an error's ``row R``
    counts the rows that are left.  A first row that fails to parse as
    numbers is taken as a header.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r and not all(cell.strip() == "" for cell in r)]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    header = None
    try:
        [float(cell) for cell in rows[0]]
    except ValueError:
        header = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
        if not rows:
            raise ValueError(f"{path}: header but no data rows")
    width = len(rows[0])
    data = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {i + 1 + (header is not None)} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                data[i, j] = np.nan
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{path}: row {i + 1 + (header is not None)}, column {j + 1}: "
                         f"not a finite number: {rows[i][j]!r}")
    if header is not None and len(header) != width:
        raise ValueError(f"{path}: header has {len(header)} columns but the data rows have {width}")
    if response is None:
        y_col = width - 1
    else:
        if header is None:
            raise ValueError(f"{path}: response column {response!r} needs a header row")
        if response not in header:
            raise ValueError(f"{path}: no column named {response!r}")
        if header.count(response) > 1:
            named = ", ".join(str(j + 1) for j, name in enumerate(header) if name == response)
            raise ValueError(f"{path}: response {response!r} names columns {named}")
        y_col = header.index(response)
    x_cols = [j for j in range(width) if j != y_col]
    columns = [header[j] for j in x_cols] if header else None
    return RegressionData(x=data[:, x_cols], y=data[:, y_col], columns=columns)
