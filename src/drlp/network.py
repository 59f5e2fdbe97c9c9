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
"""

from __future__ import annotations

import bisect
import itertools
import json

import numpy as np

# Threshold for "this argument is exactly zero" (critical_indices, relative
# to 1 + |normal|) and "this rate is zero" (advance_max, absolute).
ZERO_TOL = 1e-9


class ReluNetwork:
    """Weights and biases of a feed-forward ReLU network.

    Parameters
    ----------
    weights : sequence of 2-D arrays
        ``weights[k]`` maps layer ``k`` activations to layer ``k+1``
        arguments; the last entry is the 1-row output map.
    biases : sequence of 1-D arrays
        One bias vector per weight matrix.

    The network has ``depth = len(weights) - 1`` ReLU layers.  The output
    layer is affine (no ReLU) and must have exactly one unit.
    """

    def __init__(self, weights, biases):
        if len(weights) != len(biases):
            raise ValueError("need one bias vector per weight matrix")
        if len(weights) < 2:
            raise ValueError("need at least one ReLU layer plus the output layer")
        self.weights = [np.ascontiguousarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.ascontiguousarray(b, dtype=np.float64) for b in biases]
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {k + 1}: weight/bias shapes {w.shape}/{b.shape} do not chain")
            if k > 0 and w.shape[1] != self.weights[k - 1].shape[0]:
                raise ValueError(f"layer {k + 1}: input width {w.shape[1]} != previous layer width")
            for name, a in (("weight", w), ("bias", b)):
                if not np.isfinite(a).all():
                    at = np.argwhere(~np.isfinite(a))[0]
                    raise ValueError(f"layer {k + 1}: {name} [{', '.join(str(i + 1) for i in at)}] "
                                     f"is {a[tuple(at)]}; weights and biases must be finite")
        if self.weights[-1].shape[0] != 1:
            raise ValueError("output layer must have exactly one unit")
        self.depth = len(self.weights) - 1
        self.input_dim = self.weights[0].shape[1]
        self.relu_widths = tuple(w.shape[0] for w in self.weights[:-1])
        self.widths = (self.input_dim,) + self.relu_widths + (1,)
        self.num_neurons = int(sum(self.relu_widths))
        # flat index of each layer's first unit, then num_neurons
        self.offsets = tuple(itertools.accumulate(self.relu_widths, initial=0))

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


class ActivationPattern:
    """0/1 state of every hidden unit: 1 = passes its argument, 0 = clamped.

    The bits sit in one flat uint8 vector indexed by flat unit; offsets[l-1]
    is the flat index of layer l's first unit.
    """

    __slots__ = ("widths", "offsets", "bits")

    def __init__(self, widths, bits):
        self.widths = tuple(int(w) for w in widths)
        self.offsets = tuple(itertools.accumulate(self.widths, initial=0))
        bits = np.ascontiguousarray(bits, dtype=np.uint8)
        if bits.shape != (self.offsets[-1],):
            raise ValueError("bit vector length does not match widths")
        self.bits = bits

    @classmethod
    def from_layers(cls, layers):
        widths = tuple(len(a) for a in layers)
        return cls(widths, np.concatenate([np.asarray(a) for a in layers]))

    def layer(self, l: int) -> np.ndarray:
        """View of layer ``l`` (1-based) entries."""
        return self.bits[self.offsets[l - 1]:self.offsets[l]]

    def to_layers(self):
        return [self.layer(l).tolist() for l in range(1, len(self.widths) + 1)]

    def get(self, c: int) -> int:
        return int(self.bits[c])

    def copy(self):
        # widths and offsets are never mutated, so copies share them
        out = object.__new__(ActivationPattern)
        out.widths, out.offsets, out.bits = self.widths, self.offsets, self.bits.copy()
        return out

    def key(self) -> bytes:
        """Hashable fingerprint (used for region counting)."""
        return self.bits.tobytes()

    def __eq__(self, other):
        return (
            isinstance(other, ActivationPattern)
            and self.widths == other.widths
            and np.array_equal(self.bits, other.bits)
        )

    def __hash__(self):
        return hash((self.widths, self.key()))

    def __repr__(self):
        parts = ",".join("".join(str(int(b)) for b in self.layer(l)) for l in range(1, len(self.widths) + 1))
        return f"ActivationPattern({parts})"


class PairGroups:
    """Disjoint pairs of same-layer units whose weight rows are exact negations.

    The two units of a pair sit on one hyperplane with opposite orientation,
    so a valid activation pattern keeps their bits complementary and the
    solver flips them together.  The first member of each pair is the
    representative the line search scans; the second is skipped.  Pair k
    is ``(first[k], second[k])``, both flat unit indices; ``partner[u]`` is
    the other member of unit u's pair, or -1 (units past its end are unpaired).
    """

    def __init__(self, pairs=()):
        self.pairs = [(int(a), int(b)) for a, b in pairs]
        members = np.fromiter(itertools.chain.from_iterable(self.pairs), np.int64, 2 * len(self.pairs))
        self.first, self.second = members[0::2], members[1::2]
        self.partner = np.full(members.max(initial=-1) + 1, -1, dtype=np.int64)
        self.partner[self.first] = self.second
        self.partner[self.second] = self.first
        if np.count_nonzero(self.partner >= 0) != members.size:
            raise ValueError("pairs must be disjoint")

    def __len__(self):
        return len(self.pairs)

    def secondary_flat_mask(self, net: ReluNetwork) -> np.ndarray:
        """Boolean mask over flat unit indices marking second pair members."""
        mask = np.zeros(net.num_neurons, dtype=bool)
        mask[self.second] = True
        return mask

    def validate(self, net: ReluNetwork):
        """Check that each pair is two units of one layer with exactly negated rows and biases."""
        units = np.concatenate([self.first, self.second])
        if units.size and not 0 <= units.min() <= units.max() < net.num_neurons:
            raise ValueError(f"pairs name units outside widths {net.widths}")
        layer = np.searchsorted(net.offsets, self.first, side="right")
        bad = layer != np.searchsorted(net.offsets, self.second, side="right")
        for l in range(1, net.depth + 1):
            k = np.nonzero((layer == l) & ~bad)[0]
            ja, jb = self.first[k] - net.offsets[l - 1], self.second[k] - net.offsets[l - 1]
            w, bias = net.weights[l - 1], net.biases[l - 1]
            bad[k] = ~np.all(w[ja] == -w[jb], axis=1) | (bias[ja] != -bias[jb])
        if bad.any():
            a, b = self.first[bad][0], self.second[bad][0]
            raise ValueError(f"pair {net.neuron_at(int(a))}/{net.neuron_at(int(b))}: "
                             "not two units of one layer with exactly negated rows")

    def check_pattern(self, s: ActivationPattern):
        """Paired bits must be complementary."""
        equal = s.bits[self.first] == s.bits[self.second]
        if equal.any():
            a, b = self.first[equal][0], self.second[equal][0]
            raise ValueError(f"paired units {a}/{b} (flat indices) have equal activation bits")


def evaluate(net: ReluNetwork, x) -> float:
    """Network output at x."""
    y = np.asarray(x, dtype=np.float64)
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        y = np.maximum(w @ y + b, 0.0)
    return float((net.weights[-1] @ y + net.biases[-1])[0])


def relu_arguments(net: ReluNetwork, x) -> np.ndarray:
    """Pre-activation of every hidden unit at x, indexed by flat unit."""
    y = np.asarray(x, dtype=np.float64)
    out = np.empty(net.num_neurons)
    for l, (w, b) in enumerate(zip(net.weights[:-1], net.biases[:-1]), start=1):
        a = out[net.offsets[l - 1]:net.offsets[l]] = w @ y + b
        y = np.maximum(a, 0.0)
    return out


def activation_pattern(net: ReluNetwork, x, pairs: PairGroups | None = None) -> ActivationPattern:
    """0/1 pattern at x; an exactly-zero argument maps to 0 (clamped).

    An argument exactly on a paired wall would give both members bit 0;
    with pairs, such a pair gets the complementary convention instead
    (first member 1, second 0), so paired bits always differ.
    """
    s = ActivationPattern(net.relu_widths, relu_arguments(net, x) > 0.0)
    if pairs is not None:
        tied = s.bits[pairs.first] == s.bits[pairs.second]
        s.bits[pairs.first[tied]] = 1
        s.bits[pairs.second[tied]] = 0
    return s


def subjective_arguments(net: ReluNetwork, s: ActivationPattern, x) -> np.ndarray:
    """Arguments when every ReLU is replaced by multiplication with its bit in s.

    One vector indexed by flat unit.
    """
    y = np.asarray(x, dtype=np.float64)
    out = np.empty(net.num_neurons)
    for l in range(1, net.depth + 1):
        a = out[net.offsets[l - 1]:net.offsets[l]] = net.weights[l - 1] @ y + net.biases[l - 1]
        if l < net.depth:
            y = s.layer(l) * a
    return out


def gradient(net: ReluNetwork, s: ActivationPattern) -> np.ndarray:
    """Gradient of the network on the region with activation pattern s."""
    g = net.weights[-1][0]
    for l in range(net.depth, 0, -1):
        g = (g * s.layer(l)) @ net.weights[l - 1]
    return g


def normal_matrices(net: ReluNetwork, s: ActivationPattern) -> np.ndarray:
    """Matrix whose row c is the (unoriented) argument normal of flat unit c.

    The row is the gradient of the unit's argument under pattern s; the
    unit's hyperplane is where that affine argument vanishes.
    """
    out = np.empty((net.num_neurons, net.input_dim))
    g = out[:net.offsets[1]] = net.weights[0]
    for l in range(1, net.depth):
        g = out[net.offsets[l]:net.offsets[l + 1]] = net.weights[l] @ (s.layer(l)[:, None] * g)
    return out


def oriented_normal(net: ReluNetwork, s: ActivationPattern, c: int) -> np.ndarray:
    """Normal of unit c's hyperplane, oriented into the side where s holds.

    Moving from a point on the hyperplane with positive inner product
    against this vector keeps (for bit 1) or makes (for bit 0) the unit's
    activation consistent with s.
    """
    l, j = net.neuron_at(c)
    r = net.weights[l - 1][j - 1]
    for k in range(l - 1, 0, -1):
        r = (r * s.layer(k)) @ net.weights[k - 1]
    return r if s.get(c) == 1 else -r


def oriented_normals(net: ReluNetwork, s: ActivationPattern, units) -> np.ndarray:
    """Matrix whose row i is oriented_normal(net, s, units[i]), bit for bit.

    First-layer rows are one signed gather of weight rows; deeper units go
    through oriented_normal one at a time, because a batched product would
    sum in another order and change the rows' last bits.
    """
    units = np.asarray(units, dtype=np.intp).reshape(-1)
    out = np.empty((units.size, net.input_dim))
    first = units < net.offsets[1]
    rows = net.weights[0][units[first]]
    out[first] = np.where(s.bits[units[first], None] == 1, rows, -rows)
    for i in np.nonzero(~first)[0]:
        out[i] = oriented_normal(net, s, int(units[i]))
    return out


def inner_products_all(net: ReluNetwork, s: ActivationPattern, w) -> np.ndarray:
    """Inner products of w with every unit's oriented normal, one pass.

    Cost is one bias-free forward sweep; returns one vector indexed by
    flat unit.
    """
    w = np.asarray(w, dtype=np.float64)
    u = net.weights[0] @ w
    out = np.empty(net.num_neurons)
    for l in range(1, net.depth + 1):
        sl = s.layer(l)
        out[net.offsets[l - 1]:net.offsets[l]] = np.where(sl, u, -u)
        if l < net.depth:
            u = net.weights[l] @ (sl * u)
    return out


def critical_indices(net: ReluNetwork, s: ActivationPattern, x, pairs: PairGroups | None = None):
    """Units whose argument vanishes at x and whose normal is nonzero.

    The zero test is relative: |argument| <= ZERO_TOL * (1 + |normal|).
    Units with (numerically) zero normal have locally constant arguments
    and are excluded; they never separate regions near x.  With pairs,
    second pair members are left out: their first member stands for the
    shared wall.
    """
    args = subjective_arguments(net, s, x)
    norms = np.linalg.norm(normal_matrices(net, s), axis=1)
    hit = (np.abs(args) <= ZERO_TOL * (1.0 + norms)) & (norms > ZERO_TOL)
    if pairs is not None:
        hit[pairs.second] = False
    return np.nonzero(hit)[0].tolist()


def flip(s: ActivationPattern, units, pairs: PairGroups | None = None) -> ActivationPattern:
    """Copy of s with the bits of units toggled, and their partners' if paired.

    units is one flat index or an array of distinct ones, no two of which
    form a pair; all bits change in one indexed XOR on one copy.
    """
    units = np.atleast_1d(np.asarray(units, dtype=np.intp))
    if pairs is not None:
        partners = pairs.partner[units[units < pairs.partner.size]]
        units = np.concatenate([units, partners[partners >= 0]])
    out = s.copy()
    out.bits[units] ^= 1
    return out


def activation_bits_batch(net: ReluNetwork, xs: np.ndarray) -> np.ndarray:
    """Activation bits for a batch of points, one uint8 row per point."""
    xs = np.asarray(xs, dtype=np.float64)
    bits = np.empty((len(xs), net.num_neurons), dtype=bool)
    _sweep_bits(net, xs, [np.empty((len(xs), w)) for w in net.relu_widths], bits)
    return bits.view(np.uint8)


def _sweep_bits(net: ReluNetwork, xs: np.ndarray, layers, bits: np.ndarray):
    """Forward sweep of a batch into buffers the caller owns, reusable across batches.

    ``layers[k]`` (float64, layer k+1's width) and the bool matrix ``bits``
    need at least ``len(xs)`` rows; row i of ``bits[:, :num_neurons]`` gets
    point i's activation bits.  Each layer is ``y @ W.T + b``, in place.
    """
    n = len(xs)
    y = xs
    for k, (w, b) in enumerate(zip(net.weights[:-1], net.biases[:-1])):
        a = layers[k][:n]
        np.matmul(y, w.T, out=a)
        a += b
        np.greater(a, 0.0, out=bits[:n, net.offsets[k]:net.offsets[k + 1]])
        if k + 1 < net.depth:       # the last ReLU layer's output is never read
            np.maximum(a, 0.0, out=a)
        y = a


def save_model(path, net: ReluNetwork, pairs: PairGroups | None = None):
    """Write a network (and optional pair metadata) as JSON."""
    doc = {
        "widths": list(net.widths),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }
    if pairs is not None and len(pairs):
        doc["pairs"] = [[list(net.neuron_at(a)), list(net.neuron_at(b))] for a, b in pairs.pairs]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path):
    """Read a model JSON file; returns (network, pairs or None)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        net = ReluNetwork(doc["weights"], doc["biases"])
    except KeyError as exc:
        raise ValueError(f"model file {path}: missing field {exc}") from exc
    if "widths" in doc and tuple(doc["widths"]) != net.widths:
        raise ValueError(f"model file {path}: declared widths {doc['widths']} != actual {list(net.widths)}")
    pairs = None
    if doc.get("pairs"):
        pairs = PairGroups((net.flat_index(a), net.flat_index(b)) for a, b in doc["pairs"])
        pairs.validate(net)
    return net, pairs
