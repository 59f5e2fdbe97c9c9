import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import drlp.bounds
from drlp import (
    ReluNetwork,
    build_random,
    count_regions_empirical,
    improved_bound,
    montufar_bound,
)
from helpers import brute_improved_bound, count_regions_reference


class TestMontufar:
    def test_frozen_values(self):
        assert montufar_bound((2, 2, 1)) == 8
        assert montufar_bound((1, 2)) == 3
        assert montufar_bound((3, 5, 4)) == 390

    def test_single_layer_is_binomial_sum(self):
        from math import comb

        for d, n in ((1, 4), (2, 5), (3, 3), (5, 2)):
            want = sum(comb(n, j) for j in range(min(d, n) + 1))
            assert montufar_bound((d, n)) == want

    def test_exact_integers_stay_exact(self):
        # wide and deep enough to overflow float64 silently
        big = montufar_bound((64, 128, 128, 128, 128))
        assert isinstance(big, int)
        assert big > 2**200

    def test_bad_topology_rejected(self):
        with pytest.raises(ValueError):
            montufar_bound((3,))
        with pytest.raises(ValueError):
            montufar_bound((2, 0))

    @pytest.mark.parametrize("bound", [montufar_bound, improved_bound])
    def test_non_integer_width_rejected(self, bound):
        # int() would read 2.5 as 2 and give the bound for 2 inputs
        for topology, bad in (([2.5, 3], "2.5"), ([2, "3"], "'3'"), ([2, np.float64(3.5)], "3.5")):
            with pytest.raises(ValueError, match=f"topology: .*{bad}.* is not an integer"):
                bound(topology)
        assert bound([3.0, np.int64(3)]) == bound([3, 3])


class TestImproved:
    def test_frozen_values(self):
        assert improved_bound((1, 2)) == 3
        assert improved_bound((2, 3, 3)) == 40

    def test_single_layer_matches_montufar(self):
        for d, n in ((1, 4), (2, 5), (4, 3)):
            assert improved_bound((d, n)) == montufar_bound((d, n))

    def test_never_exceeds_montufar(self):
        rng = np.random.Generator(np.random.Philox(20))
        for _ in range(30):
            depth = int(rng.integers(1, 5))
            topo = [int(rng.integers(1, 6))] + [
                int(rng.integers(1, 8)) for _ in range(depth)
            ]
            assert improved_bound(topo) <= montufar_bound(topo)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.Generator(np.random.Philox(21))
        for _ in range(15):
            depth = int(rng.integers(1, 4))
            topo = [int(rng.integers(1, 4))] + [
                int(rng.integers(1, 5)) for _ in range(depth)
            ]
            assert improved_bound(topo) == brute_improved_bound(topo)

    def test_deep_frozen_value(self):
        # five layers deep; the value the tuple-by-tuple recursion gave
        assert improved_bound((6, 12, 12, 12, 12, 12)) == 99625062625100000


class TestEmpirical:
    def test_frozen_fold_count(self, net_fold_sum):
        assert count_regions_empirical(net_fold_sum, samples=20_000) == 7

    def test_non_integer_samples_rejected(self, net_fold_sum):
        for samples in (2.5, "3"):
            with pytest.raises(ValueError, match=f"samples: {samples!r} is not an integer"):
                count_regions_empirical(net_fold_sum, samples=samples)
        assert count_regions_empirical(net_fold_sum, samples=300.0) == count_regions_empirical(net_fold_sum, samples=300)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_boolean_counts_and_seed_rejected(self, net_fold_sum, flag):
        for name in ("samples", "chunk", "seed"):
            with pytest.raises(ValueError, match=re.escape(f"{name}: {flag!r} is not an integer")):
                count_regions_empirical(net_fold_sum, **{name: flag})
        for bound in (montufar_bound, improved_bound):
            with pytest.raises(ValueError, match=re.escape(f"topology: {flag!r} is not an integer")):
                bound([2, flag])

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be nonnegative, got -1"),
        (1.5, "seed: 1.5 is not an integer"),
        ("3", "seed: '3' is not an integer"),
    ])
    def test_bad_seed_rejected(self, net_fold_sum, seed, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            count_regions_empirical(net_fold_sum, samples=100, seed=seed)
        assert count_regions_empirical(net_fold_sum, samples=300, seed=5.0) == \
            count_regions_empirical(net_fold_sum, samples=300, seed=5)

    def test_monotone_in_samples(self, net_fold_sum):
        counts = [
            count_regions_empirical(net_fold_sum, samples=n, seed=7)
            for n in (100, 1000, 5000, 20000)
        ]
        assert counts == sorted(counts)

    def test_prefix_stability_across_chunk_boundary(self):
        net = build_random((2, 6, 5, 1), seed=22)
        a = count_regions_empirical(net, samples=4096, seed=3)
        b = count_regions_empirical(net, samples=5000, seed=3)
        assert a <= b

    def test_seeded_and_deterministic(self):
        net = build_random((2, 5, 4, 1), seed=23)
        a = count_regions_empirical(net, samples=3000, seed=9)
        b = count_regions_empirical(net, samples=3000, seed=9)
        assert a == b

    def test_never_exceeds_improved_bound(self):
        rng = np.random.Generator(np.random.Philox(24))
        for _ in range(8):
            n0 = int(rng.integers(1, 4))
            widths = [int(rng.integers(1, 6)) for _ in range(int(rng.integers(1, 3)))]
            net = build_random([n0] + widths + [1], seed=int(rng.integers(1 << 30)))
            count = count_regions_empirical(net, samples=20_000, seed=0)
            assert count <= improved_bound([n0] + widths)

    def test_bad_box_rejected(self, net_fold_sum):
        inf = float("inf")
        # empty, non-finite, finite ends whose width hi - lo overflows, and shapes other than (2,)
        for box in ((1.0, -1.0), (-inf, inf), (0.0, float("nan")), (-1e308, 1e308),
                    (0, 1, 2), (1,), 5, ((0, 1), (2, 3))):
            with pytest.raises(ValueError, match="box must be"):
                count_regions_empirical(net_fold_sum, box=box)
        with pytest.raises(ValueError, match="samples must be >= 0"):
            count_regions_empirical(net_fold_sum, samples=-5)

    def test_zero_chunk_rejected(self, net_fold_sum):
        for chunk in (0, -3):
            with pytest.raises(ValueError, match="chunk must be >= 1"):
                count_regions_empirical(net_fold_sum, samples=10, chunk=chunk)

    def test_non_integer_chunk_rejected(self, net_fold_sum):
        with pytest.raises(ValueError, match="chunk: 2.5 is not an integer"):
            count_regions_empirical(net_fold_sum, samples=10, chunk=2.5)
        assert count_regions_empirical(net_fold_sum, samples=300, chunk=64.0) == \
            count_regions_empirical(net_fold_sum, samples=300, chunk=64)

    @pytest.mark.parametrize("hidden", [5, 52, 53, 64, 65, 130])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_matches_per_sample_reference(self, hidden, depth):
        # hidden units split over the layers; 52 and 53 sit on either side of
        # one 52-unit key word, and 130 takes three words
        widths = [hidden // depth + (k < hidden % depth) for k in range(depth)]
        net = build_random([3] + widths + [1], seed=100 * hidden + depth)
        for samples in (0, 1, 4095, 4096, 4097):
            for box in ((-10.0, 10.0), (-0.5, 0.5)):
                want = count_regions_reference(net, box, samples=samples, seed=depth)
                assert count_regions_empirical(net, box, samples=samples, seed=depth) == want

    def test_small_chunks_match_reference(self):
        net = build_random((2, 40, 30, 1), seed=25)
        for chunk in (1, 7, 100):
            want = count_regions_reference(net, samples=523, seed=4, chunk=chunk)
            assert count_regions_empirical(net, samples=523, seed=4, chunk=chunk) == want

    @pytest.mark.parametrize("hidden, depth", [(24, 1), (25, 2), (48, 1), (49, 1), (49, 3), (96, 2), (97, 3), (120, 1)])
    def test_key_words_match_reference(self, hidden, depth):
        # a key word holds 48 units in two float32 rows of 24: 24 and 25 sit on either side of
        # one row, 48 and 49 of one word, and 97 and 120 take three words
        widths = [hidden // depth + (k < hidden % depth) for k in range(depth)]
        net = build_random([2] + widths + [1], seed=1000 * depth + hidden)
        for samples, chunk in ((0, 4096), (1, 4096), (1000, 4096), (4097, 4096), (2 * 4096 + 1, 4096),
                               (0, 1), (60, 1), (523, 100)):
            want = count_regions_reference(net, samples=samples, seed=depth, chunk=chunk)
            assert count_regions_empirical(net, samples=samples, seed=depth, chunk=chunk) == want

    @settings(max_examples=200, deadline=None)
    @given(lo=st.floats(-1e300, 1e300), width=st.floats(1e-300, 1e300), d=st.integers(1, 4),
           chunk=st.integers(1, 64), data=st.data())
    def test_block_draws_are_generator_uniform(self, lo, width, d, chunk, data):
        # each block drawn in place is Generator.uniform(lo, hi, size=(chunk, d)), bit for bit,
        # on boxes below, above and across zero from widths 1e-300 to 1e300
        hi = lo + width
        assume(hi > lo and np.isfinite(hi - lo))
        samples = data.draw(st.integers(1, 3 * chunk))
        seed = data.draw(st.integers(0, 2**32))
        net = ReluNetwork([np.ones((1, d)), np.ones((1, 1))], [np.zeros(1), np.zeros(1)])
        drawn, sweep = [], drlp.bounds._sweep_bits

        def spy(maps, z, xs, out):
            drawn.append(xs.copy())
            return sweep(maps, z, xs, out)

        with mock.patch.object(drlp.bounds, "_sweep_bits", spy):
            count_regions_empirical(net, (lo, hi), samples=samples, seed=seed, chunk=chunk)
        assert [len(xs) for xs in drawn] == [min(chunk, samples - k) for k in range(0, samples, chunk)]
        rng = np.random.Generator(np.random.Philox(seed))
        for xs in drawn:
            assert xs.tobytes() == rng.uniform(lo, hi, size=(chunk, d))[:len(xs)].tobytes()
