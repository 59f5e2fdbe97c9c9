"""Counting linear regions: upper bounds and an empirical sampler.

Topology arguments here are (input_dim, width_1, ..., width_L) over the
ReLU layers only; the final linear output unit creates no regions and is
not listed.  Bounds are exact Python integers.
"""

from __future__ import annotations

from math import comb, isfinite, nan

import numpy as np

from .network import ReluNetwork, require_int, require_seed


def _check_topology(topology):
    topology = [require_int("topology", w) for w in topology]
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


def _sweep_bits(maps, z: np.ndarray, xs: np.ndarray, out=None):
    """Sweep a batch through a network, one sample per column of ``z``.

    ``maps[k]`` is ReLU layer k+1's ``[W | b]``; ``z``'s rows are the input, a row of ones,
    layer 1's units, a row of ones, ... the last layer's units.  Returns, as bools (in
    ``out`` if given), the signs of the rows after the first ones row: the units'
    activation bits, the ones rows True.  ``z`` keeps the arguments and its ones rows.
    """
    n, r = xs.shape                         # r: the ones row under the block being read
    z[:r, :n] = xs.T
    for k, m in enumerate(maps):
        a = z[r + 1:r + 1 + len(m), :n]
        np.matmul(m, z[r + 1 - m.shape[1]:r + 1, :n], out=a)
        if k + 1 < len(maps):               # the last ReLU layer's output is never read
            np.maximum(a, 0.0, out=a)
        r += 1 + len(m)
    return np.greater(z[xs.shape[1] + 1:, :n], 0.0, out=out)


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
    in ``samples``.  Each block is swept through the network in one buffer
    and its bits taken as bools.  A float32 product with powers of two sums
    each 24 units into one exact row, and row pairs join into float64 keys
    of 48 units each.  With one key per sample (at most 48 units) a sort
    per block finds the new patterns; wider nets order by the first key and
    let the set drop the rest.  Memory is O(chunk * width + distinct patterns).
    """
    ends = np.asarray(box, dtype=np.float64)
    lo, hi = ends.tolist() if ends.shape == (2,) else (nan, nan)     # Python floats: no overflow warning
    if not (isfinite(hi - lo) and hi > lo):
        raise ValueError(f"box must be (lo, hi) with lo < hi and hi - lo finite; got {box!r}")
    if (samples := require_int("samples", samples)) < 0:
        raise ValueError(f"samples must be >= 0; got {samples}")
    if (chunk := require_int("chunk", chunk)) < 1:
        raise ValueError(f"chunk must be >= 1; got {chunk}")
    rng = np.random.Generator(np.random.Philox(require_seed(seed)))
    maps = [np.column_stack((w, b)) for w, b in zip(net.weights[:-1], net.biases[:-1])]
    z = np.ones((net.input_dim + net.depth + net.num_neurons, chunk))
    # unit j: bit row j + its layer's index, weight 2**(j % 24) in float32 row j // 24;
    # rows 2k and 2k + 1 make key word k, padded to an even count
    unit = np.arange(net.num_neurons)
    words = -(-net.num_neurons // 48)
    powers = np.zeros((2 * words, net.depth - 1 + net.num_neurons), dtype=np.float32)
    powers[unit // 24, unit + np.repeat(np.arange(net.depth), net.relu_widths)] = np.ldexp(1.0, unit % 24)
    xs, bits = np.empty((chunk, net.input_dim)), np.empty((powers.shape[1], chunk), dtype=bool)
    halves, keys = np.empty((2 * words, chunk), dtype=np.float32), np.empty((words, chunk))
    fresh = np.ones(chunk, dtype=bool)
    seen = set()
    remaining = samples
    while remaining > 0:
        take = min(chunk, remaining)
        rng.random(out=xs)                  # Generator.uniform's lo + (hi - lo) * u, bit for bit
        xs *= hi - lo
        xs += lo
        b, h = _sweep_bits(maps, z, xs[:take], bits[:, :take]), halves[:, :take]
        for j in range(0, take, 1024):      # the product casts its bits to float32; a slab stays in cache
            np.matmul(powers, b[:, j:j + 1024], out=h[:, j:j + 1024])
        k = np.multiply(h[1::2], 2.0 ** 24, out=keys[:, :take])
        k += h[0::2]
        if words == 1:      # one key per sample: a sorted block's fresh neighbours
            k = k[0]
            k.sort()
            np.not_equal(k[1:], k[:-1], out=fresh[1:take])
            seen.update(k[fresh[:take]].tolist())
        else:               # ordering by the first word puts most repeats side by side; the set drops the rest
            k = k.T[np.argsort(k[0])]
            np.any(k[1:] != k[:-1], axis=1, out=fresh[1:take])
            seen.update(k[fresh[:take]].view(f"V{8 * words}").ravel().tolist())
        remaining -= take
    return len(seen)
