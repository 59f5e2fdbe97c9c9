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
ReLU).  A unit with a nonzero bit-0 weight (``net.two_slope``) takes bit 1
exactly on its wall.  Model files hold ``off_weights`` beside the layers;
older files held each such unit as a mirrored pair of ReLUs (z, -z), which
``load_model`` still folds (``PairGroups.fold``).
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import json

import numpy as np

# Threshold for "this argument is exactly zero" (critical_indices, relative
# to 1 + |normal|) and "this rate is zero" (advance_max, absolute).
ZERO_TOL = 1e-9


def require_finite(name: str, a: np.ndarray, rule: str):
    """Raises ValueError naming a's first non-finite entry by its 1-based index (none for a scalar), then rule."""
    if not np.isfinite(a).all():
        at = np.argwhere(~np.isfinite(a))[0]
        raise ValueError(f"{name}{f' {(at + 1).tolist()}' if at.size else ''} is {a[tuple(at)]}; {rule}")


def require_int(name: str, v) -> int:
    """int(v); raises ValueError naming v unless v equals it: 3, 3.0 and np.int64(3) pass, 2.5, "3" and True do not."""
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if (k := int(v)) == v and np.asarray(v).dtype != bool:
            return k
    raise ValueError(f"{name}: {v!r} is not an integer")


def require_real(name: str, v) -> float:
    """float(v); raises ValueError naming v unless it is one real number: 3, 2.5 and np.float32 pass, "3", True and arrays do not."""
    if not isinstance(v, (int, float, np.integer, np.floating)) or isinstance(v, bool):
        raise ValueError(f"{name} must be one real number; got {v!r}")
    return float(v)


def require_seed(seed) -> int:
    """require_int("seed", seed), also raising ValueError below 0: numpy seeds only from nonnegative integers."""
    if (k := require_int("seed", seed)) < 0:
        raise ValueError(f"seed must be nonnegative, got {k}")
    return k


class ReluNetwork:
    """Weights and biases of a feed-forward ReLU network.

    Parameters
    ----------
    weights : sequence of 2-D arrays
        ``weights[k]`` maps layer ``k`` activations to layer ``k+1``
        arguments; the last entry is the 1-row output map.
    biases : sequence of 1-D arrays
        One bias vector per weight matrix.
    off_weights : 1-D array over the last hidden layer, optional
        Bit-0 output weights (module docstring), 0 by default; ``two_slope`` is off_weights != 0.

    The network has ``depth = len(weights) - 1`` ReLU layers.  The output
    layer is affine (no ReLU) and must have exactly one unit.  Its weight row,
    the slopes and ``gains`` are read-only copies; hidden-layer weights and
    biases already contiguous float64 are the caller's arrays, not copies.
    """

    def __init__(self, weights, biases, off_weights=None):
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
        off = self.off_weights = np.zeros(last) if off_weights is None else np.array(off_weights, dtype=np.float64)
        if off.shape != last:
            raise ValueError(f"off_weights must have shape {last}, one entry per last-layer unit; got {off.shape}")
        if off_weights is not None:
            require_finite("off_weights", off, "off_weights must be finite")
        self.two_slope = off != 0.0
        for a in (self.weights[-1], off, self.two_slope):
            a.setflags(write=False)

    @functools.cached_property
    def gains(self) -> np.ndarray:
        """Slope change per |rate| from crossing each flat unit's wall: w - off_weights, inf before the last layer."""
        gains = np.concatenate([np.full(self.offsets[-2], np.inf), self.weights[-1][0] - self.off_weights])
        gains.setflags(write=False)
        return gains

    def flat_index(self, c) -> int:
        """Flat position of hidden unit ``c = (layer, unit)``, both 1-based."""
        l, j = map(int, c)
        if not (1 <= l <= self.depth and 1 <= j <= self.relu_widths[l - 1]):
            raise ValueError(f"no hidden unit {c!r} in widths {self.widths}")
        return self.offsets[l - 1] + j - 1

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
    pairs.  ``fold`` makes each pair one two-slope unit; ``load_model`` folds a
    file's pairs.  A network without mirrored units has the empty ``PairGroups()``.
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
        """Check that each pair is two plain last-hidden-layer ReLUs with exactly negated rows and biases."""
        units = np.concatenate([self.first, self.second])
        if units.size and not 0 <= units.min() <= units.max() < net.num_neurons:
            raise ValueError(f"pairs name units outside widths {net.widths}")
        last, w, bias = net.offsets[-2], net.weights[-2], net.biases[-2]
        # an outside pair is bad anyway; clipping keeps its row lookup in range
        ja, jb = np.maximum(self.first - last, 0), np.maximum(self.second - last, 0)
        plain = net.off_weights == 0.0     # fold makes two plain ReLUs one two-slope unit
        outside = (self.first < last) | (self.second < last)
        bad = outside | ~(plain[ja] & plain[jb]) | ~np.all(w[ja] == -w[jb], axis=1) | (bias[ja] != -bias[jb])
        if bad.any():
            k = bad.nonzero()[0][0]
            why = (f"not in the last hidden layer, {net.depth}, the only one pairs may mirror" if outside[k] else
                   "rows and biases are not exactly negated" if plain[ja[k]] and plain[jb[k]] else
                   "a member has a bit-0 slope, and pairs mirror plain ReLUs")
            raise ValueError(f"pair {net.neuron_at(int(self.first[k]))}/"
                             f"{net.neuron_at(int(self.second[k]))}: {why}")

    def fold(self, net: ReluNetwork) -> ReluNetwork:
        """net with each pair as one two-slope unit, the same value everywhere.

        The folded unit is the pair's first member, with its row, bias and
        output weight; its bit-0 output weight is minus the second member's
        output weight (0 leaves a plain ReLU), and the second member is dropped,
        so the other units keep their order.  Without pairs it is net itself.
        """
        if not len(self):
            return net
        self.validate(net)
        last, keep = net.offsets[-2], ~self.secondary_flat_mask(net)[net.offsets[-2]:]
        off = net.off_weights.copy()
        off[self.first - last] = -net.weights[-1][0, self.second - last]
        return ReluNetwork(net.weights[:-2] + [net.weights[-2][keep], net.weights[-1][:, keep]],
                           net.biases[:-2] + [net.biases[-2][keep], net.biases[-1]], off[keep])


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


def save_model(path, net: ReluNetwork, pairs: PairGroups = PairGroups()):
    """Write pairs.fold(net) as JSON, the inverse of load_model.

    The file holds the net's widths, weights and biases and, when some unit is two-slope, its
    off_weights, with 0.0 for each plain ReLU (never -0.0).
    """
    net = pairs.fold(net)
    doc = {"widths": list(net.widths), "weights": [a.tolist() for a in net.weights],
           "biases": [a.tolist() for a in net.biases]}
    if net.two_slope.any():
        doc["off_weights"] = (net.off_weights + 0.0).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _numbers(a, what: str) -> np.ndarray:
    """a as a float64 array; raises TypeError unless each entry is a JSON number, not a string or true/false."""
    a = np.asarray(a, dtype=object)
    if not set(map(type, a.flat)) <= {int, float}:
        raise TypeError(f"{what} holds a value that is not a number")
    return a.astype(np.float64)


def load_model(path):
    """Read a model JSON file; returns its network.

    The network is ``ReluNetwork(weights, biases, off_weights)``, off_weights 0 where the file has
    none.  A file may also list ``pairs``, the older form of a two-slope unit as two mirrored plain
    ReLUs; they are folded (PairGroups.fold).
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"model file {path}: expected a JSON object, got {type(doc).__name__}")
    try:
        layers = [[_numbers(a, f"{name} of layer {k + 1}") for k, a in enumerate(doc[name])]
                  for name in ("weights", "biases")]
        off = _numbers(doc["off_weights"], "off_weights") if "off_weights" in doc else None
        net = ReluNetwork(*layers, off)
    except KeyError as exc:
        raise ValueError(f"model file {path}: missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"model file {path}: weights, biases and off_weights must be lists of numbers; {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"model file {path}: {exc}") from exc
    if "widths" in doc and doc["widths"] != list(net.widths):
        raise ValueError(f"model file {path}: declared widths {doc['widths']} != actual {list(net.widths)}")
    try:
        listed = doc.get("pairs") or ()
        pairs = PairGroups([net.flat_index(u) for u in pair] for pair in np.asarray(listed, dtype=np.int64).tolist())
        # numpy and flat_index read 1.7, "1" and true as unit 1; only integers name a unit
        bad = next((v for pair in listed for unit in pair for v in unit if type(v) is not int), None)
        if bad is not None:
            raise TypeError(f"{json.dumps(bad)} is not a JSON integer")
        return pairs.fold(net)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"model file {path}: pairs must be [[layer, unit], [layer, unit]] lists "
                         f"of distinct, exactly negated last-hidden-layer units; {exc}") from exc
