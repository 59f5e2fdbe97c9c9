import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from drlp import (
    PairGroups,
    ReluNetwork,
    activation_bits_batch,
    activation_pattern,
    build_random,
    critical_indices,
    evaluate,
    flip,
    gradient,
    inner_products_all,
    load_model,
    normal_matrices,
    oriented_normal,
    oriented_normals,
    relu_arguments,
    save_model,
    subjective_arguments,
)
from helpers import (
    critical_kernel_dim,
    dense_sweeps,
    enumerate_compatible,
    fd_gradient,
    fd_oriented_normal,
    hyperplane_pattern,
    is_compatible,
    subjective_value,
)


class TestConstruction:
    def test_shapes_and_counts(self, net_fold_sum):
        net = net_fold_sum
        assert net.depth == 2
        assert net.input_dim == 2
        assert net.widths == (2, 2, 1, 1)
        assert net.relu_widths == (2, 1)
        assert net.num_neurons == 3

    def test_flat_index_round_trip(self, net_fold_sum):
        net = net_fold_sum
        seen = set()
        for flat in range(net.num_neurons):
            c = net.neuron_at(flat)
            assert net.flat_index(c) == flat
            seen.add(c)
        assert seen == {(1, 1), (1, 2), (2, 1)}

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ReluNetwork([np.ones((2, 3)), np.ones((1, 5))], [np.zeros(2), np.zeros(1)])
        with pytest.raises(ValueError):
            ReluNetwork([np.ones((2, 3)), np.ones((2, 2))], [np.zeros(2), np.zeros(2)])
        for topo, msg in (((3, 0, 1), r"layer 1: weight shape \(0, 3\)"),
                          ((3, 2, 0, 1), r"layer 2: weight shape \(0, 2\)"),
                          ((0, 2, 1), r"layer 1: weight shape \(2, 0\)")):
            with pytest.raises(ValueError, match=msg + " is empty; no layer may have width 0"):
                build_random(topo)
        with pytest.raises(ValueError, match=r"layer 1: weight shape \(0,\) is empty"):
            ReluNetwork([[], [[]]], [[], [0.0]])           # what a JSON model file holds

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        weights = [np.ones((3, 2)), np.ones((1, 3))]
        biases = [np.zeros(3), np.zeros(1)]
        weights[0][2, 1] = bad
        with pytest.raises(ValueError, match=r"layer 1: weight \[3, 2\] is -?(nan|inf);"):
            ReluNetwork(weights, biases)
        weights[0][2, 1] = 1.0
        biases[1][0] = bad
        with pytest.raises(ValueError, match=r"layer 2: bias \[1\] is -?(nan|inf);"):
            ReluNetwork(weights, biases)

    def test_random_builder_is_seeded(self):
        a = build_random((3, 4, 2, 1), seed=9)
        b = build_random((3, 4, 2, 1), seed=9)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        c = build_random((3, 4, 2, 1), seed=10)
        assert not np.array_equal(a.weights[0], c.weights[0])


class TestEvaluation:
    def test_frozen_values(self, net_fold_sum):
        assert evaluate(net_fold_sum, [2.0, 0.0]) == pytest.approx(3.0, abs=1e-14)
        assert evaluate(net_fold_sum, [1.0, -1.0]) == pytest.approx(1.0, abs=1e-14)
        assert evaluate(net_fold_sum, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-14)

    def test_frozen_arguments(self, net_fold_sum):
        args = relu_arguments(net_fold_sum, [2.0, 0.0])
        assert args.shape == (net_fold_sum.num_neurons,)
        assert_allclose(args, [2.0, 2.0, 3.0], atol=1e-14)

    def test_zero_net_is_constant(self):
        net = ReluNetwork(
            [np.zeros((2, 2)), np.zeros((1, 2))], [np.zeros(2), np.array([4.0])]
        )
        assert evaluate(net, [3.0, -7.0]) == 4.0


class TestPatterns:
    def test_frozen_patterns(self, net_fold_sum):
        h = hyperplane_pattern(net_fold_sum, [1.0, 1.0])
        assert h.tolist() == [0, 1, 1]
        s = activation_pattern(net_fold_sum, [1.0, 1.0])
        assert s.dtype == np.uint8 and s.tolist() == [0, 1, 1]

    def test_zero_tolerance_scales_with_point(self, net_fold_sum):
        # argument x1 - x2 = 5e-10 is inside the zero band
        h = hyperplane_pattern(net_fold_sum, [1.0 + 5e-10, 1.0])
        assert h[0] == 0
        h = hyperplane_pattern(net_fold_sum, [1.0 + 5e-6, 1.0])
        assert h[0] == 1

    def test_compatibility_rules(self, net_split_line):
        h = hyperplane_pattern(net_split_line, [0.0])
        assert h.tolist() == [0, 0, 0]
        for bits in range(8):
            s = activation_pattern(net_split_line, [0.0])
            for k, c in enumerate([0, 1, 2]):
                if bits >> k & 1:
                    s = flip(s, c)
            assert is_compatible(h, s)
        h_strict = hyperplane_pattern(net_split_line, [2.0])
        s_off = activation_pattern(net_split_line, [-2.0])
        assert not is_compatible(h_strict, s_off)

    def test_activation_matches_hyperplane_signs(self):
        rng = np.random.Generator(np.random.Philox(3))
        for _ in range(20):
            net = build_random((3, 5, 4, 1), seed=int(rng.integers(1 << 30)))
            x = rng.uniform(-2, 2, size=3)
            h = hyperplane_pattern(net, x)
            s = activation_pattern(net, x)
            assert is_compatible(h, s)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=6), min_size=1, max_size=4),
           st.data())
    def test_pattern_layers_copy_and_flips(self, layers, data):
        s = np.concatenate(layers).astype(np.uint8)
        bits = s.tolist()
        c = data.draw(st.integers(0, s.size - 1))
        t = flip(s, c)
        assert s.tolist() == bits               # the copy owns its bits
        assert t.dtype == np.uint8 and t[c] == 1 - s[c]
        assert np.array_equal(flip(t, c), s)
        units = data.draw(st.lists(st.integers(0, s.size - 1), unique=True))
        once = flip(s, np.array(units, dtype=np.intp))
        assert s.tolist() == bits
        assert np.array_equal(flip(once, np.array(units, dtype=np.intp)), s)

    def test_batch_bits_match_scalar(self):
        # the second net is three layers deep with more than 64 units
        rng = np.random.Generator(np.random.Philox(5))
        for topo, seed in (((2, 4, 3, 1), 4), ((2, 40, 30, 20, 1), 6)):
            net = build_random(topo, seed=seed)
            pts = rng.uniform(-3, 3, size=(200, 2))
            bits = activation_bits_batch(net, pts)
            assert bits.dtype == np.uint8 and bits.shape == (200, net.num_neurons)
            for row, x in zip(bits, pts):
                assert np.array_equal(row, activation_pattern(net, x))
            assert activation_bits_batch(net, pts[:0]).shape == (0, net.num_neurons)


class TestSubjective:
    def test_matches_objective_on_own_region(self):
        rng = np.random.Generator(np.random.Philox(11))
        for _ in range(25):
            net = build_random((3, 4, 4, 1), seed=int(rng.integers(1 << 30)))
            x = rng.uniform(-2, 2, size=3)
            s = activation_pattern(net, x)
            args = relu_arguments(net, x)
            sargs = subjective_arguments(net, s, x)
            assert sargs.shape == args.shape == (net.num_neurons,)
            assert_allclose(sargs, args, atol=1e-12)
            assert subjective_value(net, s, x) == pytest.approx(
                evaluate(net, x), abs=1e-12
            )

    def test_all_compatible_patterns_agree_on_shared_point(self, net_split_line):
        net = net_split_line
        x = np.array([0.0])
        patterns = enumerate_compatible(net, x)
        assert len(patterns) == 8
        for s in patterns:
            assert subjective_value(net, s, x) == pytest.approx(0.0, abs=1e-14)
            assert_allclose(subjective_arguments(net, s, x), 0.0, atol=1e-14)

    def test_gradient_matches_differences(self):
        rng = np.random.Generator(np.random.Philox(21))
        for _ in range(20):
            net = build_random((4, 5, 3, 1), seed=int(rng.integers(1 << 30)))
            x = rng.uniform(-2, 2, size=4)
            s = activation_pattern(net, x)
            assert_allclose(gradient(net, s), fd_gradient(net, s, x), atol=1e-9)

    def test_frozen_gradient(self, net_fold_sum):
        s = activation_pattern(net_fold_sum, [2.0, 1.0])
        assert_allclose(gradient(net_fold_sum, s), [2.0, 0.0], atol=1e-14)

    def test_oriented_normal_matches_differences(self):
        rng = np.random.Generator(np.random.Philox(31))
        for _ in range(10):
            net = build_random((3, 4, 3, 1), seed=int(rng.integers(1 << 30)))
            x = rng.uniform(-2, 2, size=3)
            s = activation_pattern(net, x)
            for c in range(net.num_neurons):
                assert_allclose(
                    oriented_normal(net, s, c), fd_oriented_normal(net, s, c, x),
                    atol=1e-9,
                )

    @pytest.mark.parametrize("topo", [(3, 6, 1), (3, 4, 3, 1), (4, 3, 5, 2, 1), (2, 3, 3, 3, 3, 1)])
    def test_oriented_normals_match_one_by_one(self, topo):
        rng = np.random.Generator(np.random.Philox(37))
        for _ in range(5):
            net = build_random(topo, seed=int(rng.integers(1 << 30)))
            s = activation_pattern(net, rng.uniform(-2, 2, size=topo[0]))
            everything = rng.permutation(net.num_neurons)     # layers mixed, both bits
            for units in (everything, everything[:3], [net.num_neurons - 1, 0], []):
                got = oriented_normals(net, s, units)
                assert got.shape == (len(units), net.input_dim)
                for row, c in zip(got, units):
                    assert row.tobytes() == oriented_normal(net, s, int(c)).tobytes()
        assert set(s.tolist()) == {0, 1}

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=2, max_size=5), st.integers(0, 2**32 - 1), st.data())
    def test_sweeps_match_dense_products(self, widths, seed, data):
        # any bit vector, not only the pattern of a point: flips and probes use such patterns
        net = build_random(widths + [1], seed=seed)
        s = np.array(data.draw(st.lists(st.integers(0, 1), min_size=net.num_neurons,
                                        max_size=net.num_neurons)), dtype=np.uint8)
        x, w = np.random.Generator(np.random.Philox(seed)).uniform(-3.0, 3.0, (2, widths[0]))
        args, normals, grad = dense_sweeps(net, s, x)
        oriented = np.where(s[:, None] == 1, normals, -normals)
        assert_allclose(subjective_arguments(net, s, x), args, rtol=0, atol=1e-10)
        assert_allclose(inner_products_all(net, s, w), oriented @ w, rtol=0, atol=1e-10)
        assert_allclose(gradient(net, s), grad, rtol=0, atol=1e-10)
        assert_allclose(normal_matrices(net, s), normals, rtol=0, atol=1e-10)
        assert_allclose(oriented_normals(net, s, np.arange(net.num_neurons)), oriented, rtol=0, atol=1e-10)
        for c in range(net.num_neurons):
            assert_allclose(oriented_normal(net, s, c), oriented[c], rtol=0, atol=1e-10)

    def test_inner_products_cover_every_unit(self):
        rng = np.random.Generator(np.random.Philox(41))
        for _ in range(10):
            net = build_random((3, 5, 4, 1), seed=int(rng.integers(1 << 30)))
            s = activation_pattern(net, rng.uniform(-2, 2, size=3))
            w = rng.standard_normal(3)
            prods = inner_products_all(net, s, w)
            assert prods.shape == (net.num_neurons,)
            for c in range(net.num_neurons):
                assert prods[c] == pytest.approx(
                    oriented_normal(net, s, c) @ w, abs=1e-10
                )


class TestCritical:
    def test_shared_line_all_units_critical(self, net_split_line):
        s = activation_pattern(net_split_line, [0.0])
        s = flip(flip(s, 1), 2)
        assert s.tolist() == [0, 1, 1]
        crit = critical_indices(net_split_line, s, np.array([0.0]))
        assert crit == [0, 1, 2]

    def test_mirrored_line_drops_flat_unit(self, net_split_line_mirrored):
        net = net_split_line_mirrored
        s = flip(activation_pattern(net, [0.0]), 2)
        assert s.tolist() == [0, 0, 1]
        crit = critical_indices(net, s, np.array([0.0]))
        assert crit == [0, 1]

    def test_kernel_dimension(self, net_fold_sum, net_split_line):
        s = activation_pattern(net_fold_sum, [5.0, 5.0])
        assert critical_kernel_dim(net_fold_sum, s, np.array([5.0, 5.0])) == 1
        s2 = activation_pattern(net_split_line, [0.0])
        s2 = flip(s2, 1)
        assert critical_kernel_dim(net_split_line, s2, np.array([0.0])) == 0

    def test_off_hyperplane_point_has_none(self, net_fold_sum):
        x = np.array([2.0, 0.5])
        s = activation_pattern(net_fold_sum, x)
        assert critical_indices(net_fold_sum, s, x) == []

    def test_enumeration_respects_cap(self, net_split_line):
        with pytest.raises(ValueError):
            enumerate_compatible(net_split_line, np.array([0.0]), cap=4)

    def test_enumeration_off_hyperplane_is_singleton(self, net_fold_sum):
        x = np.array([2.0, 0.5])
        pats = enumerate_compatible(net_fold_sum, x)
        assert len(pats) == 1
        assert np.array_equal(pats[0], activation_pattern(net_fold_sum, x))


class TestPairsAndFlip:
    def _paired_net(self):
        w1 = np.array([[1.0, 2.0], [-1.0, -2.0], [0.5, 0.0]])
        return ReluNetwork(
            [w1, np.array([[1.0, 1.0, 1.0]])],
            [np.array([3.0, -3.0, 0.0]), np.zeros(1)],
        )

    def test_pair_validation(self):
        net = self._paired_net()
        PairGroups([(0, 1)]).validate(net)
        with pytest.raises(ValueError):
            PairGroups([(0, 2)]).validate(net)

    def test_pair_flip_moves_both_bits(self):
        net = self._paired_net()
        pairs = PairGroups([(0, 1)])
        s = activation_pattern(net, [1.0, 1.0])
        assert (s[0], s[1]) == (1, 0)
        t = flip(s, 0, pairs=pairs)
        assert (t[0], t[1]) == (0, 1)
        assert t[2] == s[2]
        back = flip(t, 1, pairs=pairs)
        assert np.array_equal(back, s)

    def test_flip_without_pairs_is_involution(self, net_fold_sum):
        s = activation_pattern(net_fold_sum, [1.0, 2.0])
        c = 0
        assert np.array_equal(flip(flip(s, c), c), s)

    def test_pattern_on_paired_wall_keeps_bits_complementary(self):
        net = self._paired_net()
        pairs = PairGroups([(0, 1)])
        x = np.array([-3.0, 0.0])      # on the pair's wall, off unit 2's
        assert activation_pattern(net, x).tolist() == [0, 0, 0]
        s = activation_pattern(net, x, pairs)
        assert s.tolist() == [1, 0, 0]
        pairs.check_pattern(s)
        off_wall = activation_pattern(net, [1.0, 1.0])
        assert np.array_equal(activation_pattern(net, [1.0, 1.0], pairs), off_wall)

    def test_critical_indices_drop_second_members(self):
        net = self._paired_net()
        pairs = PairGroups([(0, 1)])
        x = np.array([0.0, -1.5])      # on the pair's wall and on unit 2's
        s = activation_pattern(net, x, pairs)
        assert critical_indices(net, s, x) == [0, 1, 2]
        assert critical_indices(net, s, x, pairs=pairs) == [0, 2]

    def test_oriented_normals_on_paired_units(self):
        net = self._paired_net()
        pairs = PairGroups([(0, 1)])
        s = activation_pattern(net, [1.0, 1.0], pairs)
        assert s.tolist() == [1, 0, 1]
        got = oriented_normals(net, s, [2, 1, 0])
        assert got.tobytes() == np.stack([oriented_normal(net, s, c) for c in (2, 1, 0)]).tobytes()
        assert got[1].tobytes() == got[2].tobytes()     # one wall, both members face one side

    def test_complement_check(self):
        net = self._paired_net()
        pairs = PairGroups([(0, 1)])
        good = activation_pattern(net, [1.0, 1.0])
        pairs.check_pattern(good)
        bad = flip(good, 1)
        with pytest.raises(ValueError):
            pairs.check_pattern(bad)


class TestModelIO:
    def test_round_trip(self, tmp_path, net_fold_sum):
        path = tmp_path / "model.json"
        pairs = PairGroups([])
        save_model(path, net_fold_sum, pairs=pairs)
        loaded, loaded_pairs = load_model(path)
        for a, b in zip(net_fold_sum.weights, loaded.weights):
            assert np.array_equal(a, b)
        for a, b in zip(net_fold_sum.biases, loaded.biases):
            assert np.array_equal(a, b)
        assert loaded_pairs is None

    def test_pairs_round_trip(self, tmp_path):
        w1 = np.array([[1.0, 0.0], [-1.0, 0.0]])
        net = ReluNetwork(
            [w1, np.ones((1, 2))], [np.array([2.0, -2.0]), np.zeros(1)]
        )
        path = tmp_path / "m.json"
        save_model(path, net, pairs=PairGroups([(0, 1)]))
        _, pairs = load_model(path)
        assert pairs.pairs == [(0, 1)]

    def test_pairs_written_as_layer_unit(self, tmp_path):
        # files name units by 1-based (layer, unit); flat indices stay in memory
        w1 = np.array([[1.0, 0.0], [-1.0, 0.0]])
        net = ReluNetwork(
            [w1, np.ones((1, 2))], [np.array([2.0, -2.0]), np.zeros(1)]
        )
        path = tmp_path / "m.json"
        save_model(path, net, pairs=PairGroups([(0, 1)]))
        assert path.read_text() == (
            '{"widths": [2, 2, 1], "weights": [[[1.0, 0.0], [-1.0, 0.0]], [[1.0, 1.0]]], '
            '"biases": [[2.0, -2.0], [0.0]], "pairs": [[[1, 1], [1, 2]]]}\n'
        )
        # a file that lists the second unit first loads with that order
        path.write_text(path.read_text().replace('"pairs": [[[1, 1], [1, 2]]]',
                                                 '"pairs": [[[1, 2], [1, 1]]]'))
        _, pairs = load_model(path)
        assert pairs.pairs == [(1, 0)]

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        net = '"weights": [[[1.0]], [[1.0]]], "biases": [[0.0], [0.0]]'
        for doc in ('{"widths": [2, 1]}', '[1, 2]', '{"weights": 5, "biases": 5}',
                    '{%s, "widths": 5}' % net, '{%s, "pairs": 5}' % net,
                    '{%s, "pairs": [[1, 2]]}' % net, '{%s, "pairs": [[[1, 1], null]]}' % net):
            path.write_text(doc)
            with pytest.raises(ValueError, match="model file .*bad.json"):
                load_model(path)
