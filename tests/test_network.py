import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from drlp import (
    ZERO_TOL,
    PairGroups,
    RegressionData,
    ReluNetwork,
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
    relu_arguments,
    save_model,
    subjective_arguments,
)
from drlp.bounds import _sweep_bits
from drlp.network import _forward
from helpers import (
    builder_cases,
    critical_kernel_dim,
    dense_sweeps,
    enumerate_compatible,
    fd_gradient,
    fd_oriented_normal,
    hyperplane_pattern,
    is_compatible,
    mirrored_quantile,
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

    def test_rejects_layer_lists_that_do_not_chain(self):
        w, b = [np.ones((2, 3)), np.ones((1, 2))], [np.zeros(2), np.zeros(1)]
        with pytest.raises(ValueError, match="need one bias vector per weight matrix"):
            ReluNetwork(w, b[:1])
        with pytest.raises(ValueError, match="need at least one ReLU layer plus the output layer"):
            ReluNetwork(w[1:], b[1:])
        with pytest.raises(ValueError, match=r"layer 1: weight/bias shapes \(2, 3\)/\(3,\) do not chain"):
            ReluNetwork(w, [np.zeros(3), np.zeros(1)])

    @pytest.mark.parametrize("c", [(0, 1), (3, 1), (1, 3), (2, 2), (1, 0)])
    def test_flat_index_out_of_range(self, net_fold_sum, c):
        with pytest.raises(ValueError, match=r"no hidden unit .* in widths \(2, 2, 1, 1\)"):
            net_fold_sum.flat_index(c)

    def test_flat_index_of_an_array_equals_scalar_calls(self):
        net = build_random((2, 3, 4, 2, 1), seed=1)
        units = np.array([net.neuron_at(flat) for flat in range(net.num_neurons)] * 2)
        flat = net.flat_index(units)
        assert flat.shape == (len(units),)
        assert flat.tolist() == [net.flat_index(c) for c in units.tolist()]
        assert type(net.flat_index((2, 3))) is int
        # a model file's (k, 2, 2) pairs convert in the same one call
        assert net.flat_index(units.reshape(-1, 2, 2)).tolist() == flat.reshape(-1, 2).tolist()
        assert net.flat_index(np.zeros((0, 2), dtype=int)).shape == (0,)

    @pytest.mark.parametrize("bad", [(0, 1), (4, 1), (1, 0), (1, 4), (3, 3)])
    def test_flat_index_of_an_array_raises_for_its_first_bad_row(self, bad):
        net = build_random((2, 3, 4, 2, 1), seed=1)
        units = np.array([(1, 1), (3, 2), bad, (0, 0), (2, 4)])
        with pytest.raises(ValueError) as scalar:
            net.flat_index(list(bad))
        with pytest.raises(ValueError) as array:
            net.flat_index(units)
        assert str(array.value) == str(scalar.value) == f"no hidden unit {list(bad)} in widths (2, 3, 4, 2, 1)"

    @pytest.mark.parametrize("flat", [-1, 3])
    def test_neuron_at_out_of_range(self, net_fold_sum, flat):
        with pytest.raises(ValueError, match=f"flat index {flat} out of range"):
            net_fold_sum.neuron_at(flat)

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

    @pytest.mark.parametrize("kw, msg", [
        ({"off_weights": np.zeros(3)}, r"off_weights must have shape \(2,\), one entry per last-layer unit; "
                                       r"got \(3,\)"),
        ({"off_weights": np.zeros((1, 2))}, r"off_weights must have shape \(2,\).*got \(1, 2\)"),
        ({"two_slope": [True]}, r"two_slope must have shape \(2,\).*got \(1,\)"),
        ({"two_slope": True}, r"two_slope must have shape \(2,\).*got \(\)"),
        ({"off_weights": [0.5, np.nan]}, r"off_weights \[2\] is nan; off_weights must be finite"),
        ({"off_weights": [-np.inf, 0.0]}, r"off_weights \[1\] is -inf; off_weights must be finite"),
    ])
    def test_rejects_bad_slopes(self, kw, msg):
        with pytest.raises(ValueError, match=msg):
            ReluNetwork([np.ones((3, 2)), np.ones((2, 3)), np.ones((1, 2))], [np.zeros(3), np.zeros(2), np.zeros(1)],
                        **kw)

    def test_slopes_and_gains_are_read_only(self):
        off = np.array([0.5, -1.0])
        net = ReluNetwork([np.ones((2, 2)), np.array([[2.0, 3.0]])], [np.zeros(2), np.zeros(1)],
                          off_weights=off, two_slope=[True, False])
        assert net.gains.tolist() == [1.5, 4.0]
        off[0] = 9.0        # the net holds its own copy
        assert net.off_weights.tolist() == [0.5, -1.0]
        for a in (net.off_weights, net.two_slope, net.gains):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        plain = build_random((2, 3, 1), seed=1)
        assert plain.off_weights.tolist() == [0.0] * 3 and not plain.two_slope.any()
        assert plain.gains.tobytes() == plain.weights[-1][0].tobytes()
        with pytest.raises(ValueError, match="read-only"):
            plain.gains[:] = 0.0

    def test_output_row_is_the_nets_own(self):
        # a write into the caller's output array after gains was read leaves net and gains as built
        w1, w2 = np.eye(2), np.array([[2.0, 3.0]])
        net = ReluNetwork([w1, w2], [np.zeros(2), np.zeros(1)])
        assert net.gains.tolist() == [2.0, 3.0]
        w2[0, 0] = 5.0
        assert net.weights[-1].tolist() == [[2.0, 3.0]] and net.gains.tolist() == [2.0, 3.0]
        with pytest.raises(ValueError, match="read-only"):
            net.weights[-1][0, 0] = 5.0
        assert net.weights[0] is w1         # hidden layers stay shared, not copied

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
        # _sweep_bits as count_regions_empirical runs it: a buffer with more
        # columns than the batch, reused across batches, whose ones rows stay 1;
        # the second net is three layers deep with more than 64 units
        rng = np.random.Generator(np.random.Philox(5))
        for topo, seed in (((2, 4, 3, 1), 4), ((2, 40, 30, 20, 1), 6)):
            net = build_random(topo, seed=seed)
            maps = [np.column_stack((w, b)) for w, b in zip(net.weights[:-1], net.biases[:-1])]
            z = np.ones((net.input_dim + net.depth + net.num_neurons, 256))
            rows = np.arange(net.input_dim + 1, len(z))     # z's rows the sweep returns
            ones = net.input_dim + np.arange(net.depth) + net.offsets[:-1]
            for n in (200, 37, 0):
                pts = rng.uniform(-3, 3, size=(n, 2))
                bits = _sweep_bits(maps, z, pts)
                assert bits.shape == (len(rows), n)
                for col, x in zip(bits[~np.isin(rows, ones)].T, pts):
                    assert np.array_equal(col, activation_pattern(net, x))
                assert (z[ones] == 1.0).all()


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
        # oriented rows of the forward sweep (what critical_indices and refresh_pseudoinverse
        # take) against the backward sweep of oriented_normal, unit by unit
        rng = np.random.Generator(np.random.Philox(37))
        for _ in range(5):
            net = build_random(topo, seed=int(rng.integers(1 << 30)))
            s = activation_pattern(net, rng.uniform(-2, 2, size=topo[0]))
            rows = normal_matrices(net, s)
            oriented = np.where(s[:, None] == 1, rows, -rows)
            # the same sweep over |W| bounds the roundoff of both sweeps
            scale = np.linalg.norm(
                normal_matrices(ReluNetwork([np.abs(w) for w in net.weights], net.biases), s), axis=1)
            everything = rng.permutation(net.num_neurons)     # layers mixed, both bits
            for units in (everything, everything[:3], [net.num_neurons - 1, 0], []):
                got = oriented[np.asarray(units, dtype=int)]
                assert got.shape == (len(units), net.input_dim)
                for row, c in zip(got, units):
                    want = oriented_normal(net, s, int(c))
                    assert np.linalg.norm(row - want) <= 1e-12 * scale[c]
        assert set(s.tolist()) == {0, 1}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=2, max_size=5), st.integers(0, 2**32 - 1),
           st.booleans(), st.data())
    def test_critical_normals_match_one_by_one(self, widths, seed, mirror, data):
        # critical_indices' rows come from the forward sweep, oriented_normal's from the backward one
        net = build_random(widths + [1], seed=seed)
        if mirror:      # mirror the first k last-layer units, then fold each pair into a two-slope unit
            k, last, w, b = data.draw(st.integers(1, widths[-1])), net.offsets[-2], net.weights, net.biases
            net, _ = PairGroups((last + j, last + widths[-1] + j) for j in range(k)).fold(ReluNetwork(
                w[:-2] + [np.vstack([w[-2], -w[-2][:k]]), np.hstack([w[-1], w[-1][:, :k]])],
                b[:-2] + [np.concatenate([b[-2], -b[-2][:k]]), b[-1]]))
        bits = st.lists(st.integers(0, 1), min_size=net.num_neurons, max_size=net.num_neurons)
        s, on = np.array(data.draw(bits), dtype=np.uint8), np.array(data.draw(bits), dtype=bool)
        x = np.random.Generator(np.random.Philox(seed)).uniform(-3.0, 3.0, widths[0])
        for l in range(net.depth):      # shift biases, layer by layer, so the units on marks vanish at x
            lo, hi = net.offsets[l], net.offsets[l + 1]
            net.biases[l][on[lo:hi]] -= subjective_arguments(net, s, x)[lo:hi][on[lo:hi]]
        units, normals = critical_indices(net, s, x)
        nonzero = np.linalg.norm(normal_matrices(net, s), axis=1) > ZERO_TOL
        assert units == np.flatnonzero(on & nonzero).tolist()
        want = np.array([oriented_normal(net, s, c) for c in units]).reshape(-1, net.input_dim)
        assert normals.shape == want.shape
        # relative to the same sweep over |W|, which bounds both sweeps' roundoff
        scale = normal_matrices(ReluNetwork([np.abs(w) for w in net.weights], net.biases), s)[units]
        assert (np.linalg.norm(normals - want, axis=1) <= 1e-12 * np.linalg.norm(scale, axis=1)).all()

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
        # normal_matrices is _forward on the identity; a matrix of directions sweeps column by column
        ws = np.random.Generator(np.random.Philox(seed)).uniform(-3.0, 3.0, (widths[0], 3))
        assert_allclose(_forward(net, s, ws, bias=False), normals @ ws, rtol=0, atol=1e-10)
        assert_allclose(_forward(net, s, ws, bias=True), args[:, None] + normals @ (ws - x[:, None]),
                        rtol=0, atol=1e-10)
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
        crit, _ = critical_indices(net_split_line, s, np.array([0.0]))
        assert crit == [0, 1, 2]

    def test_mirrored_line_drops_flat_unit(self, net_split_line_mirrored):
        net = net_split_line_mirrored
        s = flip(activation_pattern(net, [0.0]), 2)
        assert s.tolist() == [0, 0, 1]
        crit, _ = critical_indices(net, s, np.array([0.0]))
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
        assert critical_indices(net_fold_sum, s, x)[0] == []

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
        with pytest.raises(ValueError, match="pairs must be disjoint"):
            PairGroups([(0, 1), (1, 2)])

    def test_fold_rejects_units_outside_the_net(self):
        with pytest.raises(ValueError, match=r"pairs name units outside widths \(2, 3, 1\)"):
            PairGroups([(0, 3)]).fold(self._paired_net())

    def test_flip_without_pairs_is_involution(self, net_fold_sum):
        s = activation_pattern(net_fold_sum, [1.0, 2.0])
        c = 0
        assert np.array_equal(flip(flip(s, c), c), s)

    def test_pattern_on_paired_wall_keeps_bits_complementary(self):
        # the folded unit takes bit 1 on its wall: first member 1, second 0
        net = self._paired_net()
        folded, kept = PairGroups([(0, 1)]).fold(net)
        x = np.array([-3.0, 0.0])      # on the pair's wall, off unit 2's
        assert activation_pattern(net, x).tolist() == [0, 0, 0]
        assert activation_pattern(folded, x).tolist() == [1, 0]
        off_wall = activation_pattern(net, [1.0, 1.0])
        assert np.array_equal(activation_pattern(folded, [1.0, 1.0]), off_wall[kept])

    def test_critical_indices_drop_second_members(self):
        net = self._paired_net()
        folded, kept = PairGroups([(0, 1)]).fold(net)
        x = np.array([0.0, -1.5])      # on the pair's wall and on unit 2's
        assert critical_indices(net, activation_pattern(net, x), x)[0] == [0, 1, 2]
        assert kept[critical_indices(folded, activation_pattern(folded, x), x)[0]].tolist() == [0, 2]

    def test_oriented_normals_on_paired_units(self):
        net = self._paired_net()
        s = activation_pattern(net, [1.0, 1.0])
        assert s.tolist() == [1, 0, 1]
        units, got = critical_indices(net, s, np.array([0.0, -1.5]))     # on all three walls
        assert units == [0, 1, 2]
        # one layer: the forward rows are the weight rows, as the backward sweep gives them
        assert got.tobytes() == np.stack([oriented_normal(net, s, c) for c in units]).tobytes()
        assert got[0].tobytes() == got[1].tobytes()     # one wall, both members face one side


# each builder's mirrored reference, the paired nets fold is for
FOLD_CASES = [(name, *reference, x) for name, _, reference, x in builder_cases()]


@pytest.mark.parametrize("name, net, pairs, x_wall", FOLD_CASES, ids=[c[0] for c in FOLD_CASES])
class TestFold:
    """A folded net against the mirrored-pair net it came from, on every builder."""

    def _pair_pattern(self, pairs, kept, s):
        """The unfolded pattern a folded pattern stands for: second members take the other bit."""
        out = np.empty(kept.size + len(pairs), dtype=np.uint8)
        out[kept] = s
        out[pairs.second] = 1 - out[pairs.first]
        return out

    def test_kept_maps_units_back(self, name, net, pairs, x_wall):
        folded, kept = pairs.fold(net)
        assert kept.tolist() == sorted(set(range(net.num_neurons)) - set(pairs.second.tolist()))
        assert folded.relu_widths[-1] == net.relu_widths[-1] - len(pairs)
        for c in range(folded.num_neurons):
            (l, j), (lk, jk) = folded.neuron_at(c), net.neuron_at(int(kept[c]))
            assert l == lk
            assert np.array_equal(folded.weights[l - 1][j - 1], net.weights[l - 1][jk - 1])
            assert folded.biases[l - 1][j - 1] == net.biases[l - 1][jk - 1]

    def test_value_and_gradient_match(self, name, net, pairs, x_wall):
        folded, kept = pairs.fold(net)
        rng = np.random.Generator(np.random.Philox(32))
        for _ in range(20):
            x = rng.uniform(-3.0, 3.0, net.input_dim)
            f = evaluate(net, x)
            assert abs(evaluate(folded, x) - f) <= 1e-12 * (1.0 + abs(f))
            s = activation_pattern(folded, x)
            # unfolded, a pair exactly on its wall has two 0 bits; it stands for first 1, second 0
            paired = activation_pattern(net, x)
            tied = pairs.first[paired[pairs.first] == paired[pairs.second]]
            paired[tied] = 1
            assert np.array_equal(self._pair_pattern(pairs, kept, s), paired)
            # any pattern, not only the one at x
            for t in (s, flip(s, rng.permutation(folded.num_neurons)[:folded.num_neurons // 2])):
                g = gradient(net, self._pair_pattern(pairs, kept, t))
                assert_allclose(gradient(folded, t), g, rtol=0.0, atol=1e-12 * (1.0 + np.abs(g).max()))

    def test_crossing_gains_are_pair_sums(self, name, net, pairs, x_wall):
        folded, kept = pairs.fold(net)
        last, w = net.offsets[-2], net.weights[-1][0]
        gains = folded.gains
        first = np.searchsorted(kept, pairs.first)
        assert gains[first].tobytes() == (w[pairs.first - last] + w[pairs.second - last]).tobytes()
        plain = np.setdiff1d(np.arange(last, net.num_neurons), np.concatenate([pairs.first, pairs.second]))
        assert gains[np.searchsorted(kept, plain)].tobytes() == w[plain - last].tobytes()
        assert np.all(np.isinf(gains[:last]))
        assert gains[last:].tobytes() == (folded.weights[-1][0] - folded.off_weights).tobytes()

    def test_paired_wall_takes_bit_one(self, name, net, pairs, x_wall):
        folded, kept = pairs.fold(net)
        args = relu_arguments(net, x_wall)
        on_wall = pairs.first[args[pairs.first] == 0.0]
        assert on_wall.size and np.all(args[pairs.second[args[pairs.first] == 0.0]] == 0.0)
        assert np.all(activation_pattern(net, x_wall)[on_wall] == 0)
        s = activation_pattern(folded, x_wall)
        assert np.all(s[np.searchsorted(kept, on_wall)] == 1)
        # plain units on their walls keep bit 0
        plain_zero = np.setdiff1d(np.flatnonzero(args == 0.0), np.concatenate([pairs.first, pairs.second]))
        assert np.all(s[np.searchsorted(kept, plain_zero)] == 0)


def test_fold_rejects_pairs_outside_the_last_hidden_layer(net_split_line_mirrored):
    with pytest.raises(ValueError, match=r"pair \(1, 1\)/\(1, 2\): not in the last hidden layer, 2"):
        PairGroups([(0, 1)]).fold(net_split_line_mirrored)


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
        assert len(loaded_pairs) == 0

    def test_pairs_round_trip(self, tmp_path):
        w1 = np.array([[1.0, 0.0], [-1.0, 0.0]])
        net = ReluNetwork(
            [w1, np.ones((1, 2))], [np.array([2.0, -2.0]), np.zeros(1)]
        )
        path = tmp_path / "m.json"
        save_model(path, net, pairs=PairGroups([(0, 1)]))
        _, pairs = load_model(path)
        assert (pairs.first.tolist(), pairs.second.tolist()) == ([0], [1])

    def test_folded_net_is_not_saved(self, tmp_path):
        # a folded net is saved only as the pairs save_model makes of it: a bit-0 slope
        # on a plain unit has no pair form, and pairs of its own are refused
        net, pairs = mirrored_quantile(RegressionData(np.eye(2), np.ones(2)), alpha=0.3)
        folded, _ = pairs.fold(net)
        plain = ReluNetwork(folded.weights, folded.biases, folded.off_weights)
        with pytest.raises(ValueError, match="no bit-0 slope on a unit that is not two-slope"):
            save_model(tmp_path / "m.json", plain)
        with pytest.raises(ValueError, match="saved without pairs; save_model writes its own"):
            save_model(tmp_path / "m.json", folded, PairGroups([(0, 1)]))
        assert not (tmp_path / "m.json").exists()

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
        assert (pairs.first.tolist(), pairs.second.tolist()) == ([1], [0])

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        net = '"weights": [[[1.0]], [[1.0]]], "biases": [[0.0], [0.0]]'
        for doc in ('{"widths": [2, 1]}', '[1, 2]', '{"weights": 5, "biases": 5}',
                    '{%s, "widths": 5}' % net, '{%s, "pairs": 5}' % net,
                    '{%s, "pairs": [[1, 2]]}' % net, '{%s, "pairs": [[[1, 1], null]]}' % net):
            path.write_text(doc)
            with pytest.raises(ValueError, match="model file .*bad.json"):
                load_model(path)
        # numpy reads "2" as 2.0 and 1.7, "1" and true as unit 1; only JSON numbers load
        for doc, field in (('{"weights": [[["2"]], [[1.0]]], "biases": [[0.0], [0.0]]}', "weights of layer 1"),
                           ('{"weights": [[[1.0]], [[1.0]]], "biases": [[0.0], ["0"]]}', "biases of layer 2"),
                           ('{"weights": [[[true]], [[1.0]]], "biases": [[0.0], [0.0]]}', "weights of layer 1"),
                           ('{"weights": [[[100000000000000000000000, "2"]], [[1.0]]], "biases": [[0.0], [0.0]]}',
                            "weights of layer 1")):
            path.write_text(doc)
            with pytest.raises(ValueError, match=f"model file .*bad.json: .*{field} holds a value that is not a number"):
                load_model(path)
        pair = '"weights": [[[1.0], [-1.0]], [[1.0, 1.0]]], "biases": [[0.0, 0.0], [0.0]]'
        for entry, shown in (("1.7", "1.7"), ('"1"', '"1"'), ("true", "true")):
            path.write_text('{%s, "pairs": [[[1, %s], [1, 2]]]}' % (pair, entry))
            with pytest.raises(ValueError, match=f"model file .*bad.json: pairs .*; {shown} is not a JSON integer"):
                load_model(path)
        path.write_text('{%s, "pairs": [[[1, 1], [1, 2]]]}' % pair)
        assert len(load_model(path)[1]) == 1
        path.write_text('{"weights": [[[100000000000000000000000]], [[1]]], "biases": [[0.0], [0]]}')
        assert load_model(path)[0].weights[0].tolist() == [[1e23]]
