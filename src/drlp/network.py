"""Feed-forward ReLU networks and the geometry of their linear regions.

A network is a chain of affine layers with elementwise ReLU after every
hidden layer and a single linear output unit.  Each hidden unit carries an
affine argument (its pre-activation); the signs of all arguments partition
the input space into polyhedral regions on which the network is affine.
This module holds the network container plus the pointwise quantities the
pivoting solver is built from: activation patterns, per-unit arguments,
region gradients, and the normals of the hyperplanes where units switch.

A hidden unit is a flat ``int``: its position when the layers' units are
laid end to end, which is also ``(layer, unit)`` lexicographic order.
People and files name units by 1-based pairs ``(layer, unit)``;
``ReluNetwork.flat_index`` and ``ReluNetwork.neuron_at`` convert between
the two at that boundary.

An activation pattern ``s`` is a flat ``np.uint8`` vector indexed by flat
unit (1 = passes its argument, 0 = clamped); layer ``l`` is
``s[net.offsets[l-1]:net.offsets[l]]``.  Every pattern-fixed quantity is
one masked sweep: forward (``_forward``), all normals at once included, or
backward (``_backward``) for the gradient or a single normal.

Last-hidden-layer unit j with argument z adds ``w_j z`` to the output on
its bit-1 side and ``net.off_weights[j] z`` on its bit-0 side (0 for a plain
ReLU); a ``net.two_slope`` unit takes bit 1 exactly on its wall.
``PairGroups.fold`` makes each mirrored pair of ReLUs (z, -z) one such unit; model files hold the pairs.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json

import numpy as np

# Threshold for "this argument is exactly zero" (critical_indices, relative
# to 1 + |normal|) and "this rate is zero" (advance_max, absolute).
ZERO_TOL = 1e-9


def require_finite(name: str, a: np.ndarray, rule: str):
    """Raises ValueError naming a's first non-finite entry by its 1-based index, then rule."""
    if not np.isfinite(a).all():
        at = np.argwhere(~np.isfinite(a))[0]
        raise ValueError(f"{name} [{', '.join(str(i + 1) for i in at)}] is {a[tuple(at)]}; {rule}")


class ReluNetwork:
    """Weights and biases of a feed-forward ReLU network.

    Parameters
    ----------
    weights : sequence of 2-D arrays
        ``weights[k]`` maps layer ``k`` activations to layer ``k+1``
        arguments; the last entry is the 1-row output map.
    biases : sequence of 1-D arrays
        One bias vector per weight matrix.
    off_weights, two_slope : 1-D arrays over the last hidden layer, optional
        See the module docstring; plain ReLUs (0, False) by default.

    The network has ``depth = len(weights) - 1`` ReLU layers.  The output
    layer is affine (no ReLU) and must have exactly one unit.  Its weight row
    is the network's own copy; it, the slopes and ``gains`` are read-only,
    and a network is not changed once built.
    """

    def __init__(self, weights, biases, off_weights=None, two_slope=None):
        if len(weights) != len(biases):
            raise ValueError("need one bias vector per weight matrix")
        if len(weights) < 2:
            raise ValueError("need at least one ReLU layer plus the output layer")
        self.weights = [np.ascontiguousarray(w, dtype=np.float64) for w in weights]
        self.weights[-1] = np.array(self.weights[-1])   # gains reads it; hidden layers may stay the caller's
        self.biases = [np.ascontiguousarray(b, dtype=np.float64) for b in biases]
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.size == 0:
                raise ValueError(f"layer {k + 1}: weight shape {w.shape} is empty; no layer may have width 0")
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {k + 1}: weight/bias shapes {w.shape}/{b.shape} do not chain")
            if k > 0 and w.shape[1] != self.weights[k - 1].shape[0]:
                raise ValueError(f"layer {k + 1}: input width {w.shape[1]} != previous layer width")
            for name, a in (("weight", w), ("bias", b)):
                require_finite(f"layer {k + 1}: {name}", a, "weights and biases must be finite")
        if self.weights[-1].shape[0] != 1:
            raise ValueError("output layer must have exactly one unit")
        self.depth = len(self.weights) - 1
        self.input_dim = self.weights[0].shape[1]
        self.relu_widths = tuple(w.shape[0] for w in self.weights[:-1])
        self.widths = (self.input_dim,) + self.relu_widths + (1,)
        self.num_neurons = int(sum(self.relu_widths))
        # flat index of each layer's first unit, then num_neurons
        self.offsets = tuple(itertools.accumulate(self.relu_widths, initial=0))
        last = (self.relu_widths[-1],)
        self.off_weights = np.zeros(last) if off_weights is None else np.array(off_weights, dtype=np.float64)
        self.two_slope = np.zeros(last, dtype=bool) if two_slope is None else np.array(two_slope, dtype=bool)
        for name, a in (("off_weights", self.off_weights), ("two_slope", self.two_slope)):
            if a.shape != last:
                raise ValueError(f"{name} must have shape {last}, one entry per last-layer unit; got {a.shape}")
            a.setflags(write=False)
        self.weights[-1].setflags(write=False)
        if off_weights is not None:
            require_finite("off_weights", self.off_weights, "off_weights must be finite")

    @functools.cached_property
    def gains(self) -> np.ndarray:
        """Slope change per |rate| from crossing each flat unit's wall: w - off_weights, inf before the last layer."""
        gains = np.concatenate([np.full(self.offsets[-2], np.inf), self.weights[-1][0] - self.off_weights])
        gains.setflags(write=False)
        return gains

    def flat_index(self, c):
        """Flat position of hidden unit ``c = (layer, unit)``, both 1-based.

        An array of such rows, shape (..., 2), gives an array of positions in
        one vectorized pass; its first bad row raises the scalar call's error.
        """
        lj = np.asarray(c, dtype=np.int64)
        l, j = np.moveaxis(lj, -1, 0)
        ok = (1 <= j) & (j <= np.array((0,) + self.relu_widths + (0,))[np.clip(l, 0, self.depth + 1)])
        if not ok.all():
            bad = c if lj.ndim == 1 else lj.reshape(-1, 2)[np.argmin(ok)].tolist()
            raise ValueError(f"no hidden unit {bad!r} in widths {self.widths}")
        flat = np.array(self.offsets)[l - 1] + j - 1
        return int(flat) if lj.ndim == 1 else flat

    def neuron_at(self, flat: int):
        """Inverse of flat_index."""
        if not 0 <= flat < self.num_neurons:
            raise ValueError(f"flat index {flat} out of range")
        l = bisect.bisect_right(self.offsets, flat)
        return (l, flat - self.offsets[l - 1] + 1)

    def __repr__(self):
        return f"ReluNetwork(widths={self.widths})"


class PairGroups:
    """Disjoint pairs of last-hidden-layer units whose weight rows are exact negations.

    Pair k, ``(first[k], second[k])`` by flat index, is z and -z: one hyperplane
    with two orientations, given as a (k, 2) integer array or any iterable of
    pairs.  ``fold`` makes each pair one two-slope unit, so the solvers never
    see a pair.  A network without mirrored units has the empty ``PairGroups()``.
    """

    def __init__(self, pairs=()):
        pairs = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64)
        self.first, self.second = pairs.reshape(len(pairs), 2).T
        ordered = np.sort(pairs, axis=None)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("pairs must be disjoint")

    def __len__(self):
        return self.first.size

    def secondary_flat_mask(self, net: ReluNetwork) -> np.ndarray:
        """Boolean mask over flat unit indices marking second pair members."""
        mask = np.zeros(net.num_neurons, dtype=bool)
        mask[self.second] = True
        return mask

    def validate(self, net: ReluNetwork):
        """Check that each pair is two last-hidden-layer units with exactly negated rows and biases."""
        units = np.concatenate([self.first, self.second])
        if units.size and not 0 <= units.min() <= units.max() < net.num_neurons:
            raise ValueError(f"pairs name units outside widths {net.widths}")
        last, w, bias = net.offsets[-2], net.weights[-2], net.biases[-2]
        # an outside pair is bad anyway; clipping keeps its row lookup in range
        ja, jb = np.maximum(self.first - last, 0), np.maximum(self.second - last, 0)
        if units.min(initial=last) >= last and (w[ja] == -w[jb]).all() and (bias[ja] == -bias[jb]).all():
            return      # all pairs at once; the scan for the first bad pair runs only when that fails
        outside = (self.first < last) | (self.second < last)
        bad = outside | ~np.all(w[ja] == -w[jb], axis=1) | (bias[ja] != -bias[jb])
        if bad.any():
            k = bad.nonzero()[0][0]
            why = (f"not in the last hidden layer, {net.depth}, the only one pairs may mirror"
                   if outside[k] else "rows and biases are not exactly negated")
            raise ValueError(f"pair {net.neuron_at(int(self.first[k]))}/"
                             f"{net.neuron_at(int(self.second[k]))}: {why}")

    def fold(self, net: ReluNetwork):
        """(folded_net, kept): net with each pair as one two-slope unit.

        The folded unit is the pair's first member, with its row, bias and
        output weight; its bit-0 output weight is minus the second member's
        output weight, and the second member is dropped.  The folded net has
        the same value everywhere.  kept[c] is the flat index in net of
        folded unit c.  Without pairs the folded net is net itself.
        """
        if not len(self):
            return net, np.arange(net.num_neurons)
        self.validate(net)
        keep = ~self.secondary_flat_mask(net)
        kept = keep.nonzero()[0]
        last, keep = net.offsets[-2], keep[net.offsets[-2]:]
        off, two_slope = net.off_weights.copy(), net.two_slope.copy()
        off[self.first - last], two_slope[self.first - last] = -net.weights[-1][0, self.second - last], True
        folded = ReluNetwork(net.weights[:-2] + [net.weights[-2][keep], net.weights[-1][:, keep]],
                             net.biases[:-2] + [net.biases[-2][keep], net.biases[-1]], off[keep], two_slope[keep])
        return folded, kept


def evaluate(net: ReluNetwork, x) -> float:
    """Network output at x."""
    return output(net, relu_arguments(net, x))


def output(net: ReluNetwork, args: np.ndarray) -> float:
    """Network output from every unit's argument, indexed by flat unit; only the last layer's are read."""
    z = args[net.offsets[-2]:]
    w = np.where(z > 0.0, net.weights[-1], net.off_weights)
    return float((w @ z + net.biases[-1])[0])


def relu_arguments(net: ReluNetwork, x) -> np.ndarray:
    """Pre-activation of every hidden unit at x, indexed by flat unit."""
    return _forward(net, None, x, bias=True)


def activation_pattern(net: ReluNetwork, x) -> np.ndarray:
    """0/1 pattern at x; an exactly-zero argument maps to 0 (clamped), or to 1 for a two-slope unit."""
    a = relu_arguments(net, x)
    s = (a > 0.0).astype(np.uint8)
    s[net.offsets[-2]:] |= net.two_slope & (a[net.offsets[-2]:] == 0.0)
    return s


def _forward(net: ReluNetwork, s: np.ndarray | None, x, bias: bool) -> np.ndarray:
    """Argument of every unit with each ReLU replaced by its bit in s.

    Without bias, entry c is the inner product of x with unit c's unoriented
    normal; a matrix x is swept column by column.  With s None every unit
    keeps its ReLU: the network's own arguments.
    """
    y = np.asarray(x, dtype=np.float64)
    col = (slice(None),) + (None,) * (y.ndim - 1)      # broadcasts a layer's vector across y's columns
    out = np.empty((net.num_neurons,) + y.shape[1:])
    for l in range(net.depth):
        a = net.weights[l] @ y
        if bias:
            a += net.biases[l][col]
        out[net.offsets[l]:net.offsets[l + 1]] = a
        if l + 1 < net.depth:       # the last ReLU layer's output is never read
            y = np.maximum(a, 0.0) if s is None else s[net.offsets[l]:net.offsets[l + 1]][col] * a
    return out


def _backward(net: ReluNetwork, s: np.ndarray, r, l: int) -> np.ndarray:
    """Input-space coefficients of the linear form r on layer l's outputs (layer 0 = input) under s."""
    for k in range(l, 0, -1):
        r = (r * s[net.offsets[k - 1]:net.offsets[k]]) @ net.weights[k - 1]
    return r


def subjective_arguments(net: ReluNetwork, s: np.ndarray, x) -> np.ndarray:
    """Arguments when every ReLU is replaced by multiplication with its bit in s.

    One vector indexed by flat unit.
    """
    return _forward(net, s, x, bias=True)


def gradient(net: ReluNetwork, s: np.ndarray) -> np.ndarray:
    """Gradient of the network on the region with activation pattern s."""
    w = np.where(s[net.offsets[-2]:], net.weights[-1][0], net.off_weights)
    return _backward(net, s, w @ net.weights[-2], net.depth - 1)


def crossing_terms(net: ReluNetwork, s: np.ndarray, owners) -> tuple:
    """(gains, bend) that price the crossing of each owner's wall under s.

    gains[k] is df/d out_c for owner c = owners[k], out_c = s_c arg_c, or net.gains[c] in the
    last layer.  bend[j, k] is sigma_j d arg_j / d out_c for owner j, sigma_j = +-1 its bit's
    side: one forward sweep carries a unit column per owner.
    """
    owners = np.asarray(owners, dtype=np.intp)
    gains, last = net.gains[owners], net.offsets[-2]
    if not (early := owners < last).any():
        return gains, np.zeros((owners.size, owners.size))        # no crossing bends a wall
    layer = np.searchsorted(net.offsets, owners, side="right")     # 1-based
    jac = np.zeros((net.num_neurons, owners.size))
    for l in range(int(layer.min()), net.depth):
        lo, hi = net.offsets[l - 1], net.offsets[l]
        y = s[lo:hi, None] * jac[lo:hi]
        y[owners[layer == l] - lo, (layer == l).nonzero()[0]] += 1.0
        rows = y.any(axis=1).nonzero()[0]    # the owners' downstream may be a small block
        jac[hi:net.offsets[l + 1]] = net.weights[l][:, rows] @ y[rows]
    gains[early] = (np.where(s[last:], net.weights[-1][0], net.off_weights) @ jac[last:])[early]
    return gains, np.where(s[owners] == 1, 1.0, -1.0)[:, None] * jac[owners]


def normal_matrices(net: ReluNetwork, s: np.ndarray) -> np.ndarray:
    """Matrix whose row c is the (unoriented) argument normal of flat unit c.

    The row is the gradient of the unit's argument under pattern s (one forward
    sweep of the identity); the unit's hyperplane is where that argument vanishes.
    """
    return _forward(net, s, np.eye(net.input_dim), bias=False)


def oriented_normal(net: ReluNetwork, s: np.ndarray, c: int) -> np.ndarray:
    """Normal of unit c's hyperplane, oriented into the side where s holds.

    Moving from a point on the hyperplane with positive inner product
    against this vector keeps (for bit 1) or makes (for bit 0) the unit's
    activation consistent with s.
    """
    l, j = net.neuron_at(c)
    r = _backward(net, s, net.weights[l - 1][j - 1], l - 1)
    return r if s[c] == 1 else -r


def inner_products_all(net: ReluNetwork, s: np.ndarray, w) -> np.ndarray:
    """Inner products of w with every unit's oriented normal, one vector indexed by flat unit."""
    u = _forward(net, s, w, bias=False)
    return np.where(s, u, -u)


def critical_indices(net: ReluNetwork, s: np.ndarray, x):
    """(units, normals): units whose argument vanishes at x and whose normal is nonzero.

    Row k of normals is units[k]'s oriented normal, a row of normal_matrices.
    The zero test is relative: |argument| <= ZERO_TOL * (1 + |normal|).
    Units with (numerically) zero normal have locally constant arguments
    and are excluded; they never separate regions near x.
    """
    args, normals = subjective_arguments(net, s, x), normal_matrices(net, s)
    units = on_walls(args, np.sqrt(np.einsum("ij,ij->i", normals, normals)))
    return units.tolist(), np.where(s[units, None] == 1, normals[units], -normals[units])


def on_walls(args, norms) -> np.ndarray:
    """Ascending flat units on their walls: |args| <= ZERO_TOL * (1 + norms), norms (of the normals) > ZERO_TOL."""
    return ((np.abs(args) <= ZERO_TOL * (1.0 + norms)) & (norms > ZERO_TOL)).nonzero()[0]


def flip(s: np.ndarray, units) -> np.ndarray:
    """Copy of s with the bits of units (one flat index or an array of distinct ones) toggled."""
    out = np.array(s, dtype=np.uint8)
    out[units] ^= 1
    return out


def _unfolded(net: ReluNetwork, pairs: PairGroups):
    """(net, pairs) with each two-slope unit j a mirrored pair of ReLUs, the inverse of PairGroups.fold: j keeps
    its place, and its mirror (-row, 0.0 - bias, never -0.0, output weight -off_weights[j]) follows the layer."""
    j, w, b = net.two_slope.nonzero()[0], net.weights[-2], net.biases[-2]
    if net.off_weights[~net.two_slope].any():
        raise ValueError("model files hold no bit-0 slope on a unit that is not two-slope")
    if not j.size:
        return net, pairs
    if len(pairs):
        raise ValueError("a net with two-slope units is saved without pairs; save_model writes its own")
    out = np.hstack([net.weights[-1], -net.off_weights[None, j]])
    mirrored = ReluNetwork(net.weights[:-2] + [np.vstack([w, -w[j]]), out],
                           net.biases[:-2] + [np.concatenate([b, 0.0 - b[j]]), net.biases[-1]])
    return mirrored, PairGroups(np.stack([net.offsets[-2] + j, net.num_neurons + np.arange(j.size)], axis=1))


def save_model(path, net: ReluNetwork, pairs: PairGroups = PairGroups()):
    """Write a network as JSON, each two-slope unit as a mirrored pair, with its pairs when there are any."""
    net, pairs = _unfolded(net, pairs)
    doc = {
        "widths": list(net.widths),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }
    if len(pairs):
        doc["pairs"] = [[list(net.neuron_at(a)), list(net.neuron_at(b))]
                        for a, b in zip(pairs.first.tolist(), pairs.second.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _layer_arrays(layers, name: str) -> list:
    """One array per layer for ReluNetwork; raises on a string or a true/false layer numpy would read as numbers."""
    arrays = [np.asarray(a) for a in layers]
    for k, a in enumerate(arrays):
        if a.dtype.kind not in "iuf" and not (a.dtype.kind == "O" and all(type(v) in (int, float) for v in a.flat)):
            raise TypeError(f"{name} of layer {k + 1} holds a value that is not a number")
    return arrays


def load_model(path):
    """Read a model JSON file; returns (network, pairs), pairs empty when the file lists none."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"model file {path}: expected a JSON object, got {type(doc).__name__}")
    try:
        net = ReluNetwork(*(_layer_arrays(doc[name], name) for name in ("weights", "biases")))
    except KeyError as exc:
        raise ValueError(f"model file {path}: missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"model file {path}: weights and biases must be lists of numbers; {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"model file {path}: {exc}") from exc
    if "widths" in doc and doc["widths"] != list(net.widths):
        raise ValueError(f"model file {path}: declared widths {doc['widths']} != actual {list(net.widths)}")
    try:
        listed = doc.get("pairs") or ()
        pairs = PairGroups(net.flat_index(listed) if listed else ())
        # flat_index reads 1.7, "1" and true as unit 1; only integers name a unit
        bad = next((v for pair in listed for unit in pair for v in unit if type(v) is not int), None)
        if bad is not None:
            raise TypeError(f"{json.dumps(bad)} is not a JSON integer")
        pairs.validate(net)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"model file {path}: pairs must be [[layer, unit], [layer, unit]] lists "
                         f"of distinct, exactly negated last-hidden-layer units; {exc}") from exc
    return net, pairs
