import numpy as np
import pytest
from numpy.testing import assert_allclose

from drlp import (
    Degenerate,
    DependentColumn,
    PairGroups,
    PseudoInverse,
    ReluNetwork,
    activation_pattern,
    add_axis,
    add_pseudorow,
    advance_max,
    argument_residuals,
    build_random,
    flip,
    oriented_normal,
    project,
    remove_pseudorow,
    update_axis_new_region,
)
from helpers import (
    brute_advance,
    brute_pseudoinverse,
    first_layer_wrapper,
    normals_matrix,
)


def _all_ones_pattern(net):
    s = activation_pattern(net, np.full(net.input_dim, 1e6))
    # a huge positive point may still miss some units; force every bit on
    for c in range(net.num_neurons):
        if s.get(c) == 0:
            s.flip_inplace(c)
    return s


def _build_incremental(net, s, owners):
    pinv = PseudoInverse.empty(net.input_dim)
    for c in owners:
        pinv = add_axis(pinv, net, s, c)
    return pinv


class TestAddRemove:
    def test_biorthogonality_after_adds(self):
        rng = np.random.Generator(np.random.Philox(1))
        for _ in range(20):
            n0 = int(rng.integers(2, 6))
            m = int(rng.integers(1, n0 + 1))
            rows = rng.standard_normal((m, n0))
            net = first_layer_wrapper(rows)
            s = _all_ones_pattern(net)
            owners = list(range(m))
            pinv = _build_incremental(net, s, owners)
            assert_allclose(pinv.matrix @ rows.T, np.eye(m), atol=1e-10)
            # rows stay inside the column span, so this is the Moore-Penrose inverse
            assert_allclose(pinv.matrix, np.linalg.pinv(rows.T), atol=1e-9)

    def test_dependent_column_rejected(self):
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        net = first_layer_wrapper(rows)
        s = _all_ones_pattern(net)
        pinv = _build_incremental(net, s, [0, 1])
        with pytest.raises(DependentColumn):
            add_axis(pinv, net, s, 2)

    def test_zero_normal_rejected(self):
        rows = np.array([[0.0, 0.0]])
        net = first_layer_wrapper(rows)
        s = _all_ones_pattern(net)
        with pytest.raises(DependentColumn):
            add_axis(PseudoInverse.empty(2), net, s, 0)

    def test_remove_matches_dense_rebuild(self):
        rng = np.random.Generator(np.random.Philox(2))
        for _ in range(10):
            rows = rng.standard_normal((4, 5))
            net = first_layer_wrapper(rows)
            s = _all_ones_pattern(net)
            owners = list(range(4))
            pinv = _build_incremental(net, s, owners)
            for i in range(4):
                got = remove_pseudorow(pinv, i)
                keep = [j for j in range(4) if j != i]
                assert got.owners == [owners[j] for j in keep]
                assert_allclose(got.matrix, np.linalg.pinv(rows[keep].T), atol=1e-9)

    def test_add_remove_round_trip(self):
        rng = np.random.Generator(np.random.Philox(3))
        rows = rng.standard_normal((3, 4))
        extra = rng.standard_normal(4)
        net = first_layer_wrapper(np.vstack([rows, extra]))
        s = _all_ones_pattern(net)
        pinv = _build_incremental(net, s, [0, 1, 2])
        grown = add_axis(pinv, net, s, 3)
        back = remove_pseudorow(grown, 3)
        assert back.owners == pinv.owners
        assert_allclose(back.matrix, pinv.matrix, atol=1e-10)

    def test_remove_zero_row_degenerate(self):
        pinv = PseudoInverse(np.zeros((1, 2)), [0])
        with pytest.raises(Degenerate):
            remove_pseudorow(pinv, 0)


class TestProject:
    def test_matches_dense_projector(self):
        rng = np.random.Generator(np.random.Philox(4))
        rows = rng.standard_normal((2, 4))
        net = first_layer_wrapper(rows)
        s = _all_ones_pattern(net)
        pinv = _build_incremental(net, s, [0, 1])
        a = rows.T
        dense = a @ np.linalg.pinv(a)
        for _ in range(5):
            v = rng.standard_normal(4)
            assert_allclose(project(pinv, net, s, v), dense @ v, atol=1e-10)

    def test_empty_is_zero(self):
        net = first_layer_wrapper(np.array([[1.0, 0.0]]))
        s = _all_ones_pattern(net)
        v = project(PseudoInverse.empty(2), net, s, np.array([3.0, 4.0]))
        assert_allclose(v, 0.0)


class TestUpdateAxis:
    def test_sign_flip_matches_dense_rebuild(self):
        rng = np.random.Generator(np.random.Philox(5))
        for _ in range(15):
            rows = rng.standard_normal((3, 3))
            net = first_layer_wrapper(rows)
            s = _all_ones_pattern(net)
            owners = [0, 1, 2]
            pinv = _build_incremental(net, s, owners)
            for i, c in enumerate(owners):
                s2 = flip(s, c)
                got = update_axis_new_region(pinv, i, net, s2, c)
                assert_allclose(
                    got.matrix, brute_pseudoinverse(net, s2, owners), atol=1e-8
                )

    def test_multilayer_downstream_columns_stay_biorthogonal(self, net_hinge_gap):
        # s carries unit (1,2) active even though its argument is 0 at (1, 0)
        net = net_hinge_gap
        from drlp import ActivationPattern

        s = ActivationPattern.from_layers([[1, 1], [1]])
        pinv = _build_incremental(net, s, [1, 2])
        assert_allclose(pinv.matrix, [[1.0, 1.0], [1.0, 0.0]], atol=1e-12)
        s2 = flip(s, 1)
        upd = update_axis_new_region(pinv, 0, net, s2, 1)
        assert_allclose(upd.matrix[0], [0.0, -1.0], atol=1e-12)
        # flipping (1,2) also changed the normal of (2,1); row 1 must still work
        assert_allclose(
            upd.matrix @ normals_matrix(net, s2, [1, 2]),
            np.eye(2),
            atol=1e-12,
        )

    def test_wrong_owner_rejected(self):
        rows = np.eye(2)
        net = first_layer_wrapper(rows)
        s = _all_ones_pattern(net)
        pinv = _build_incremental(net, s, [0, 1])
        with pytest.raises(ValueError):
            update_axis_new_region(pinv, 0, net, s, 1)

    def test_single_wall_sign_flip(self, net_split_line):
        net = net_split_line
        s = activation_pattern(net, [1.0])
        pinv = _build_incremental(net, s, [0])
        s2 = flip(s, 0)
        upd = update_axis_new_region(pinv, 0, net, s2, 0)
        assert_allclose(upd.matrix, [[-1.0]], atol=1e-12)


class TestAdvance:
    def test_matches_reference_on_random_nets(self):
        rng = np.random.Generator(np.random.Philox(6))
        for trial in range(40):
            net = build_random((3, 4, 3, 1), seed=trial)
            x = rng.uniform(-2.0, 2.0, size=3)
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            s = activation_pattern(net, x)
            ignore = [0] if trial % 3 == 0 else []
            res = advance_max(net, x, v, s, ignore)
            t_ref, c_ref = brute_advance(net, x, v, s, ignore)
            if c_ref is None:
                assert not res.bounded
            else:
                assert res.neuron == c_ref
                assert res.t == pytest.approx(t_ref, rel=1e-9, abs=1e-12)

    def test_frozen_crossing(self, net_hinge_gap):
        x = np.array([3.0, -2.0])
        s = activation_pattern(net_hinge_gap, x)
        res = advance_max(net_hinge_gap, x, np.array([-1.0, 0.0]), s)
        assert res.neuron == 2
        assert res.t == pytest.approx(2.0, abs=1e-12)

    def test_unbounded_ray(self):
        net = ReluNetwork([np.array([[1.0]]), np.array([[1.0]])],
                          [np.zeros(1), np.zeros(1)])
        s = activation_pattern(net, [2.0])
        res = advance_max(net, np.array([2.0]), np.array([1.0]), s)
        assert not res.bounded and res.t == float("inf")
        back = advance_max(net, np.array([2.0]), np.array([-1.0]), s)
        assert back.neuron == 0 and back.t == pytest.approx(2.0, abs=1e-14)

    def test_marginally_negative_step_reported(self):
        net = ReluNetwork([np.array([[1.0]]), np.array([[1.0]])],
                          [np.zeros(1), np.zeros(1)])
        s = activation_pattern(net, [1.0])      # unit active
        res = advance_max(net, np.array([-1e-12]), np.array([-1.0]), s)
        assert res.neuron == 0
        assert res.t == pytest.approx(-1e-12, abs=1e-15)

    def test_pairs_report_primary_member(self):
        w1 = np.array([[1.0], [-1.0]])
        net = ReluNetwork([w1, np.ones((1, 2))], [np.array([-1.0, 1.0]), np.zeros(1)])
        pairs = PairGroups([(0, 1)])
        x = np.array([0.0])
        s = activation_pattern(net, x)
        res = advance_max(net, x, np.array([1.0]), s, pairs=pairs)
        assert res.neuron == 0
        assert res.t == pytest.approx(1.0, abs=1e-14)

    def test_ties_resolve_to_smallest_unit(self):
        # two parallel walls crossed at exactly the same step
        w1 = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        net = ReluNetwork([w1, np.ones((1, 3))],
                          [np.array([-2.0, -2.0, 0.0]), np.zeros(1)])
        x = np.array([0.0, 0.5])
        s = activation_pattern(net, x)
        res = advance_max(net, x, np.array([1.0, 0.0]), s)
        assert res.neuron == 0
        assert res.t == pytest.approx(2.0, abs=1e-12)

    def test_residuals_vanish_on_walls(self, net_hinge_gap):
        from drlp import ActivationPattern

        s = ActivationPattern.from_layers([[1, 1], [1]])
        pinv = _build_incremental(net_hinge_gap, s, [1, 2])
        r = argument_residuals(pinv, net_hinge_gap, s, np.array([1.0, 0.0]))
        assert_allclose(r, 0.0, atol=1e-14)
