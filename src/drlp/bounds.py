"""Counting linear regions: upper bounds and an empirical sampler.

Topology arguments here are (input_dim, width_1, ..., width_L) over the
ReLU layers only; the final linear output unit creates no regions and is
not listed.  Bounds are exact Python integers.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .network import ReluNetwork, _sweep_bits


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
    in ``samples``.  Each block is swept through the network in reusable
    buffers and its patterns are packed to 64-bit words and deduplicated
    in numpy; memory is O(chunk * width + distinct patterns), independent
    of ``samples``.
    """
    lo, hi = float(box[0]), float(box[1])
    if not (np.isfinite(hi - lo) and hi > lo):
        raise ValueError(f"box must be (lo, hi) with lo < hi and hi - lo finite; got ({lo}, {hi})")
    if samples < 0:
        raise ValueError(f"samples must be >= 0; got {samples}")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1; got {chunk}")
    rng = np.random.Generator(np.random.Philox(seed))
    layers = [np.empty((chunk, w)) for w in net.relu_widths]
    words = -(-net.num_neurons // 64)
    bits = np.zeros((chunk, 64 * words), dtype=bool)   # padding columns stay 0
    seen = set()
    remaining = int(samples)
    while remaining > 0:
        take = min(chunk, remaining)
        xs = rng.uniform(lo, hi, size=(chunk, net.input_dim))[:take]
        _sweep_bits(net, xs, layers, bits)
        keys = np.packbits(bits[:take], axis=1).view(np.uint64)
        # ordering by the first word puts most repeats side by side; the set drops the rest
        keys = keys[np.argsort(keys[:, 0])]
        fresh = np.ones(take, dtype=bool)
        fresh[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        seen.update(keys[fresh].view(f"V{8 * words}").ravel().tolist())
        remaining -= take
    return len(seen)
