"""Counting linear regions: upper bounds and an empirical sampler.

Topology arguments here are (input_dim, width_1, ..., width_L) over the
ReLU layers only; the final linear output unit creates no regions and is
not listed.  Bounds are exact Python integers.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .network import ReluNetwork

KEY_BITS = 52   # units per key word: sums of distinct powers of two below 2**52 are exact


def _check_topology(topology):
    topology = [int(w) for w in topology]
    if len(topology) < 2 or any(w < 1 for w in topology):
        raise ValueError("topology needs (input_dim, at least one positive width)")
    return topology


def montufar_bound(topology) -> int:
    """Product-of-layer-counts upper bound on the number of linear regions.

    Each factor sums binomials C(width_i, j) for j up to the smallest
    width seen so far (input included).
    """
    topology = _check_topology(topology)
    n0, widths = topology[0], topology[1:]
    total = 1
    cap = n0
    for w in widths:
        cap = min(cap, w)
        total *= sum(comb(w, j) for j in range(cap + 1))
    return total


def improved_bound(topology) -> int:
    """Sharper region bound (Serra et al. 2018); never exceeds montufar_bound.

    Sums prod_i C(width_i, j_i) over index tuples where each j_i is at
    most the input dimension, its own layer width, and every earlier
    layer's width minus that layer's index choice (crossing a layer can
    only use rank the earlier layers left over).  Only that running cap
    matters to later layers, so the sum is a dynamic program over the cap:
    O(depth * width^2) exact integer terms instead of one per tuple.
    """
    topology = _check_topology(topology)
    n0, widths = topology[0], topology[1:]
    ways = {n0: 1}   # running cap -> sum of products of the tuples reaching it
    for w in widths:
        nxt = {}
        for cap, total in ways.items():
            for j in range(min(cap, w) + 1):
                key = min(cap, w - j)
                nxt[key] = nxt.get(key, 0) + total * comb(w, j)
        ways = nxt
    return sum(ways.values())


def _sweep_bits(maps, z: np.ndarray, xs: np.ndarray):
    """Sweep a batch through a network, one sample per column of ``z``.

    ``maps[k]`` is ReLU layer k+1's ``[W | b]``; ``z``'s rows are the input, a row of ones,
    layer 1's units, a row of ones, ... the last layer's units.  Returns the rows after the
    first ones row: activation bits as 0.0 and 1.0, the ones rows left at 1 for the next batch.
    """
    n, r = xs.shape                         # r: the ones row under the block being read
    z[:r, :n] = xs.T
    bits = z[r + 1:, :n]
    for k, m in enumerate(maps):
        a = z[r + 1:r + 1 + len(m), :n]
        np.matmul(m, z[r + 1 - m.shape[1]:r + 1, :n], out=a)
        if k + 1 < len(maps):               # the last ReLU layer's output is never read
            np.maximum(a, 0.0, out=a)
        r += 1 + len(m)
    return np.greater(bits, 0.0, out=bits)


def count_regions_empirical(
    net: ReluNetwork,
    box: tuple = (-10.0, 10.0),
    samples: int = 100_000,
    seed: int = 0,
    chunk: int = 4096,
) -> int:
    """Distinct activation patterns over uniform samples from a box.

    A lower bound on the number of linear regions that meet the box.
    Samples come from ``Philox(seed)`` in blocks of ``chunk`` points (the
    last block is drawn whole and cut), so for a fixed seed and chunk the
    first k samples do not depend on the total and the count is monotone
    in ``samples``.  Each block is swept through the network in one buffer,
    a gemm with powers of two turns its patterns into exact float64 keys and
    numpy deduplicates them; memory is O(chunk * width + distinct patterns).
    """
    lo, hi = float(box[0]), float(box[1])
    if not (np.isfinite(hi - lo) and hi > lo):
        raise ValueError(f"box must be (lo, hi) with lo < hi and hi - lo finite; got ({lo}, {hi})")
    if samples < 0:
        raise ValueError(f"samples must be >= 0; got {samples}")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1; got {chunk}")
    rng = np.random.Generator(np.random.Philox(seed))
    maps = [np.column_stack((w, b)) for w, b in zip(net.weights[:-1], net.biases[:-1])]
    z = np.ones((net.input_dim + net.depth + net.num_neurons, chunk))
    # unit j: bit row j + its layer's index, weight 2**(j % KEY_BITS) in word j // KEY_BITS
    unit = np.arange(net.num_neurons)
    words = -(-net.num_neurons // KEY_BITS)
    powers = np.zeros((net.depth - 1 + net.num_neurons, words))
    powers[unit + np.repeat(np.arange(net.depth), net.relu_widths), unit // KEY_BITS] = np.ldexp(1.0, unit % KEY_BITS)
    seen = set()
    remaining = int(samples)
    while remaining > 0:
        take = min(chunk, remaining)
        xs = rng.uniform(lo, hi, size=(chunk, net.input_dim))[:take]
        keys = _sweep_bits(maps, z, xs).T @ powers
        # ordering by the first word puts most repeats side by side; the set drops the rest
        keys = keys[np.argsort(keys[:, 0])]
        fresh = np.ones(take, dtype=bool)
        fresh[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        seen.update(keys[fresh].view(f"V{8 * words}").ravel().tolist())
        remaining -= take
    return len(seen)
