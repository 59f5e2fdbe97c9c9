"""Counting linear regions: upper bounds and an empirical sampler.

Topology arguments here are (input_dim, width_1, ..., width_L) over the
ReLU layers only; the final linear output unit creates no regions and is
not listed.  Bounds are exact Python integers.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .network import ReluNetwork, activation_bits_batch


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
    """Sharper region bound; never exceeds montufar_bound.

    Sums prod_i C(width_i, j_i) over index tuples where each j_i is at
    most the input dimension, its own layer width, and every earlier
    layer's width minus that layer's index choice (crossing a layer can
    only use rank the earlier layers left over).
    """
    topology = _check_topology(topology)
    n0, widths = topology[0], topology[1:]

    def rec(i, caps_min, prod):
        if i == len(widths):
            return prod
        w = widths[i]
        total = 0
        for j in range(min(caps_min, w) + 1):
            total += rec(i + 1, min(caps_min, w - j), prod * comb(w, j))
        return total

    return rec(0, n0, 1)


def count_regions_empirical(
    net: ReluNetwork,
    box: tuple = (-10.0, 10.0),
    samples: int = 100_000,
    seed: int = 0,
    chunk: int = 4096,
) -> int:
    """Distinct activation patterns over uniform samples from a box.

    A lower bound on the true region count that is monotone in the number
    of samples for a fixed seed: the sample stream is drawn in fixed-size
    chunks, so the first k samples do not depend on the total.
    """
    lo, hi = float(box[0]), float(box[1])
    if not (np.isfinite(hi - lo) and hi > lo):
        raise ValueError(f"box must be (lo, hi) with lo < hi and hi - lo finite; got ({lo}, {hi})")
    if samples < 0:
        raise ValueError(f"samples must be >= 0; got {samples}")
    rng = np.random.Generator(np.random.Philox(seed))
    seen = set()
    remaining = int(samples)
    while remaining > 0:
        take = min(chunk, remaining)
        xs = rng.uniform(lo, hi, size=(chunk, net.input_dim))[:take]
        bits = activation_bits_batch(net, xs)
        for row in bits:
            seen.add(row.tobytes())
        remaining -= take
    return len(seen)
