import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from drlp import (
    RegressionData,
    ReluNetwork,
    build_clad,
    build_l1_first_layer,
    build_quantile_lasso,
    build_random,
    evaluate,
)
from drlp.network import (
    PairGroups,
    activation_pattern,
    crossing_terms,
    flip,
    gradient,
    oriented_normal,
    subjective_arguments,
)
from drlp.primitives import (
    DEP_TOL,
    Degenerate,
    PseudoInverse,
    add_axis,
    advance_max,
    argument_residuals,
    dense_pseudoinverse,
    exchange_axis,
    project,
    remove_pseudorow,
    update_axis_new_region,
)
from helpers import (
    brute_advance,
    brute_pseudoinverse,
    dense_basis,
    first_layer_wrapper,
    folded_units,
    normals_matrix,
    owner_flip_updates,
    pivot_update_reference,
)


def _all_ones_pattern(net):
    s = activation_pattern(net, np.full(net.input_dim, 1e6))
    # a huge positive point may still miss some units; force every bit on
    for c in range(net.num_neurons):
        if s[c] == 0:
            s = flip(s, c)
    return s


def _build_incremental(net, s, owners):
    pinv = PseudoInverse.empty(net.input_dim)
    for c in owners:
        pinv = add_axis(pinv, oriented_normal(net, s, c), c)
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
            assert np.array_equal(pinv.normals, rows)
            # rows stay inside the column span, so this is the Moore-Penrose inverse
            assert_allclose(pinv.matrix, np.linalg.pinv(rows.T), atol=1e-9)

    def test_dependent_column_rejected(self):
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        net = first_layer_wrapper(rows)
        s = _all_ones_pattern(net)
        pinv = _build_incremental(net, s, [0, 1])
        with pytest.raises(Degenerate):
            add_axis(pinv, rows[2], 2)

    def test_zero_normal_rejected(self):
        rows = np.array([[0.0, 0.0]])
        net = first_layer_wrapper(rows)
        s = _all_ones_pattern(net)
        with pytest.raises(Degenerate):
            add_axis(PseudoInverse.empty(2), oriented_normal(net, s, 0), 0)

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
                assert np.array_equal(got.normals, rows[keep])
                assert_allclose(got.matrix, np.linalg.pinv(rows[keep].T), atol=1e-9)

    def test_add_remove_round_trip(self):
        rng = np.random.Generator(np.random.Philox(3))
        rows = rng.standard_normal((3, 4))
        extra = rng.standard_normal(4)
        net = first_layer_wrapper(np.vstack([rows, extra]))
        s = _all_ones_pattern(net)
        pinv = _build_incremental(net, s, [0, 1, 2])
        grown = add_axis(pinv, extra, 3)
        back = remove_pseudorow(grown, 3)
        assert back.owners == pinv.owners
        assert np.array_equal(back.normals, pinv.normals)
        assert_allclose(back.matrix, pinv.matrix, atol=1e-10)

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    @pytest.mark.parametrize("tilt", [1e-9, 1e-7])
    def test_exchange_dependence_is_add_axis_on_scaled_rows(self, scale, tilt):
        # row 1 of the pseudoinverse has norm 1/scale; unit 2's normal lies
        # tilt from owner 0's, so it is dependent at tilt = 1e-9 only
        net = first_layer_wrapper([[1.0, 0.0], [0.0, scale], [1.0, tilt]])
        s = _all_ones_pattern(net)
        pinv, s2 = _build_incremental(net, s, [0, 1]), flip(s, 2)
        u, bend = oriented_normal(net, s2, 2), crossing_terms(net, s2, [0, 2])[1][:, -1]
        if tilt < DEP_TOL:
            with pytest.raises(Degenerate):
                exchange_axis(pinv, 1, u, 2, bend)
            with pytest.raises(Degenerate):
                pivot_update_reference(pinv, 1, net, s2, 2)
        else:
            got, ref = exchange_axis(pinv, 1, u, 2, bend), pivot_update_reference(pinv, 1, net, s2, 2)
            assert got.owners == [0, 2]
            assert_allclose(got.matrix, ref.matrix, rtol=1e-9)
            assert_allclose(got.normals, ref.normals, rtol=1e-12)

    @pytest.mark.parametrize("tilt", [1e-9, 1e-7])
    def test_dense_dependence_is_add_axis_on_each_row(self, tilt):
        # the third normal lies tilt from the first two's span, at any scale;
        # four normals in R^3 are always dependent
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1e3, 0.0], [1.0, 2.0, tilt]])
        for scale in (1e-3, 1.0, 1e3):
            normals = scale * rows
            if tilt < DEP_TOL:
                with pytest.raises(Degenerate):
                    dense_pseudoinverse(normals, [0, 1, 2])
            else:
                pinv = dense_pseudoinverse(normals, [0, 1, 2])
                assert_allclose(pinv.matrix @ normals.T, np.eye(3), atol=1e-9)
        with pytest.raises(Degenerate):
            dense_pseudoinverse(np.vstack([rows, rows[:1]]), [0, 1, 2, 3])

    def test_remove_zero_row_degenerate(self):
        pinv = PseudoInverse(np.zeros((1, 2)), np.ones((1, 2)), [0])
        with pytest.raises(Degenerate):
            remove_pseudorow(pinv, 0)


def _with_null(n):
    return PseudoInverse(np.zeros((0, n)), np.zeros((0, n)), [], np.eye(n))


def _assert_null_space(pinv):
    """Z has input_dim - m orthonormal columns, A Z = 0 and ZZ' is the complete QR's null projector."""
    n = pinv.matrix.shape[1]
    z = pinv.null
    assert z.shape == (n, n - pinv.m)
    assert np.max(np.abs(z.T @ z - np.eye(n - pinv.m)), initial=0.0) <= 1e-12
    assert np.max(np.abs(pinv.normals @ z), initial=0.0) <= 1e-12
    q = np.linalg.qr(pinv.normals.T, mode="complete")[0][:, pinv.m:]
    assert np.max(np.abs(z @ z.T - q @ q.T)) <= 1e-12


class TestNullSpace:
    """The null-space basis Z that add_axis and remove_pseudorow keep, against a complete QR."""

    def test_holds_releases_and_negations_keep_z(self):
        counts = {"hold": 0, "dependent": 0, "release": 0, "negate": 0}
        for seed in range(40):
            rng = np.random.Generator(np.random.Philox(seed))
            n = int(rng.integers(3, 13))
            pinv = _with_null(n)
            for step in range(40):
                op = rng.choice(["hold", "dependent", "release", "negate"], p=[0.4, 0.15, 0.3, 0.15])
                if op in ("release", "negate") and not pinv.m:
                    op = "hold"
                if op == "hold" and pinv.m == n:
                    op = "dependent"
                if op == "dependent":
                    # a mix of held normals, or at full rank any normal
                    u = rng.uniform(-1.0, 1.0, pinv.m) @ pinv.normals if pinv.m < n else rng.standard_normal(n)
                    before = pinv.null.copy()
                    with pytest.raises(Degenerate):
                        add_axis(pinv, u, 100 + step)
                    assert pinv.null.tobytes() == before.tobytes()
                elif op == "hold":
                    pinv = add_axis(pinv, rng.uniform(0.5, 2.0) * rng.standard_normal(n), 100 + step)
                elif op == "release":
                    pinv = remove_pseudorow(pinv, int(rng.integers(pinv.m)))
                else:       # a flipped wall: its row and normal change sign, the null space does not
                    i = int(rng.integers(pinv.m))
                    pinv.matrix[i] *= -1.0
                    pinv.normals[i] *= -1.0
                counts[op] += 1
                _assert_null_space(pinv)
        assert min(counts.values()) > 100

    def test_axis_holds_leave_exact_zero_rows(self):
        # Householder steps on signed unit axes are exact: held coordinates' rows of Z are zero
        rng = np.random.Generator(np.random.Philox(7))
        pinv = _with_null(6)
        for j in rng.permutation(6)[:4]:
            pinv = add_axis(pinv, np.eye(6)[j] * rng.choice([-1.0, 1.0]), int(j))
            assert not pinv.null[pinv.owners].any()
        _assert_null_space(pinv)

    def test_dense_build_takes_z_from_its_qr(self):
        rng = np.random.Generator(np.random.Philox(9))
        for m in range(6):
            normals = rng.standard_normal((m, 5))
            pinv = dense_pseudoinverse(normals, list(range(m)), null=True)
            _assert_null_space(pinv)
            assert_allclose(pinv.matrix, dense_pseudoinverse(normals, list(range(m))).matrix, atol=1e-12)

    def test_other_updates_drop_z(self):
        rng = np.random.Generator(np.random.Philox(8))
        pinv = _with_null(5)
        for c in range(3):
            pinv = add_axis(pinv, rng.standard_normal(5), c)
        assert pinv.null is not None
        assert exchange_axis(pinv, 1, rng.standard_normal(5), 7, np.zeros(3)).null is None
        assert exchange_axis(pinv, 1, rng.standard_normal(5), 7, np.array([0.5, 0.0, 0.0])).null is None
        assert update_axis_new_region(pinv, 2, np.array([0.3, -0.2, 0.0])).null is None
        assert dense_pseudoinverse(pinv.normals, pinv.owners).null is None
        assert PseudoInverse.empty(5).null is None


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
            assert_allclose(project(pinv, v), dense @ v, atol=1e-10)

    def test_empty_is_zero(self):
        net = first_layer_wrapper(np.array([[1.0, 0.0]]))
        s = _all_ones_pattern(net)
        v = project(PseudoInverse.empty(2), np.array([3.0, 4.0]))
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
                for got in owner_flip_updates(pinv, i, net, s2):
                    assert_allclose(
                        got.matrix, brute_pseudoinverse(net, s2, owners), atol=1e-8
                    )
                    assert_allclose(got.normals, normals_matrix(net, s2, owners).T, atol=1e-12)

    def test_multilayer_downstream_columns_stay_biorthogonal(self, net_hinge_gap):
        # s carries unit (1,2) active even though its argument is 0 at (1, 0)
        net = net_hinge_gap
        s = np.ones(3, dtype=np.uint8)
        pinv = _build_incremental(net, s, [1, 2])
        assert_allclose(pinv.matrix, [[1.0, 1.0], [1.0, 0.0]], atol=1e-12)
        s2 = flip(s, 1)
        for upd in owner_flip_updates(pinv, 0, net, s2):
            assert_allclose(upd.matrix[0], [0.0, -1.0], atol=1e-12)
            # flipping (1,2) also changed the normal of (2,1); row 1 must still work
            assert_allclose(
                upd.matrix @ normals_matrix(net, s2, [1, 2]),
                np.eye(2),
                atol=1e-12,
            )
            assert_allclose(upd.normals, normals_matrix(net, s2, [1, 2]).T, atol=1e-12)

    def test_single_wall_sign_flip(self, net_split_line):
        net = net_split_line
        s = activation_pattern(net, [1.0])
        pinv = _build_incremental(net, s, [0])
        s2 = flip(s, 0)
        for upd in owner_flip_updates(pinv, 0, net, s2):
            assert_allclose(upd.matrix, [[-1.0]], atol=1e-12)


@st.composite
def _owned_nets(draw):
    """A random net of depth 1-3 and widths 1-6, any pattern, and well-conditioned owners.

    Owners are taken in a drawn order while the stacked oriented normals keep
    a singular value ratio above 1e-2, so every prefix is independent too.
    """
    widths = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    net = build_random(widths + [1], seed=draw(st.integers(0, 2**32 - 1)))
    s = np.array(draw(st.lists(st.integers(0, 1), min_size=net.num_neurons,
                               max_size=net.num_neurons)), dtype=np.uint8)
    owners = []
    for c in draw(st.permutations(range(net.num_neurons))):
        if len(owners) == net.input_dim:
            break
        sv = np.linalg.svd(normals_matrix(net, s, owners + [c]), compute_uv=False)
        if sv[-1] > 1e-2 * sv[0]:
            owners.append(c)
    return net, s, owners, draw(st.data())


def _assert_rel_close(got, ref):
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-8 * np.max(np.abs(ref), initial=1.0)


class TestAgainstDenseRebuild:
    @settings(max_examples=150, deadline=None)
    @given(_owned_nets())
    def test_primitives_match_dense_pseudoinverse(self, case):
        net, s, owners, data = case
        pinv = _build_incremental(net, s, owners)
        dense = dense_basis(net, s, owners)
        assert pinv.owners == owners
        _assert_rel_close(pinv.matrix, dense.matrix)
        assert np.array_equal(pinv.normals, dense.normals)

        i = data.draw(st.integers(0, len(owners) - 1), label="removed row")
        kept = remove_pseudorow(pinv, i)
        rest = owners[:i] + owners[i + 1:]
        assert kept.owners == rest
        dense = dense_basis(net, s, rest)
        _assert_rel_close(kept.matrix, dense.matrix)
        assert np.array_equal(kept.normals, dense.normals)

        # flipping any owner negates its normal and bends the owners behind it
        i = data.draw(st.integers(0, len(owners) - 1), label="flipped row")
        s2 = flip(s, owners[i])
        negated = PseudoInverse(pinv.matrix.copy(), pinv.normals.copy(), list(owners))
        negated.matrix[i] *= -1.0
        negated.normals[i] *= -1.0
        moved = update_axis_new_region(negated, i, crossing_terms(net, s2, owners)[1][:, i])
        assert moved.owners == owners
        dense = dense_basis(net, s2, owners)
        _assert_rel_close(moved.matrix, dense.matrix)
        _assert_rel_close(moved.normals, dense.normals)

    @settings(max_examples=150, deadline=None)
    @given(_owned_nets())
    def test_exchange_matches_dense_pseudoinverse(self, case):
        net, s, owners, data = case
        entering = [c for c in range(net.num_neurons) if c not in owners]
        assume(len(owners) == net.input_dim and entering)     # a pivot's vertex
        i = data.draw(st.integers(0, len(owners) - 1), label="leaving row")
        c = data.draw(st.sampled_from(entering), label="entering unit")
        pinv = dense_basis(net, s, owners)
        # |P_i u| / |P_i| is u's distance from the other normals, which
        # add_axis compares with DEP_TOL |u|; keep away from that threshold
        u = oriented_normal(net, s, c)
        gap = abs(pinv.matrix[i] @ u) / np.linalg.norm(pinv.matrix[i])
        nu = np.linalg.norm(u)
        assume(nu == 0.0 or abs(gap - DEP_TOL * nu) > 1e-3 * DEP_TOL * nu)
        s2 = flip(s, c)
        rest = owners[:i] + owners[i + 1:] + [c]
        u, bend = oriented_normal(net, s2, c), crossing_terms(net, s2, rest)[1][:, -1]
        if gap <= DEP_TOL * nu:     # the flip negates u, which moves neither gap nor |u|
            with pytest.raises(Degenerate):
                exchange_axis(pinv, i, u, c, bend)
            return
        sv = np.linalg.svd(normals_matrix(net, s2, rest), compute_uv=False)
        if sv[-1] <= 1e-2 * sv[0]:
            return      # an ill-conditioned rebuild is no oracle at 1e-8
        got = exchange_axis(pinv, i, u, c, bend)
        assert got.owners == rest
        dense = dense_basis(net, s2, rest)
        _assert_rel_close(got.matrix, dense.matrix)
        _assert_rel_close(got.normals, dense.normals)


class TestAdvance:
    def test_matches_reference_on_random_nets(self):
        rng = np.random.Generator(np.random.Philox(6))
        cases = [(build_random((3, 4, 3, 1), seed=trial), [0] if trial % 3 == 0 else [])
                 for trial in range(40)]
        # compiled nets with their pairs folded, each with a random ignore set
        data = RegressionData(rng.normal(size=(12, 3)), rng.normal(size=12))
        base = build_random((3, 3, 2, 1), seed=7)
        compiled = [build_quantile_lasso(data, alpha=0.3, lam=0.5), build_clad(data),
                    build_l1_first_layer(base, RegressionData(data.x[:6], data.y[:6]))]
        for net, pairs in compiled * 10:
            net = pairs.fold(net)
            ignore = np.flatnonzero(rng.uniform(size=net.num_neurons) < 0.2).tolist()
            cases.append((net, ignore))
        for net, ignore in cases:
            x = rng.uniform(-2.0, 2.0, size=net.input_dim)
            v = rng.standard_normal(net.input_dim)
            v /= np.linalg.norm(v)
            s = activation_pattern(net, x)
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
        # relu(x) - 3 relu(5 - x) still descends past that wall, but a long
        # step never passes a wall at t <= 0
        net = ReluNetwork([np.array([[1.0], [-1.0]]), np.array([[1.0, -3.0]])],
                          [np.array([0.0, 5.0]), np.zeros(1)])
        s = activation_pattern(net, [1.0])
        long = advance_max(net, np.array([-1e-12]), np.array([-1.0]), s, slope=-4.0)
        assert (long.t, long.neuron, long.crossed.size) == (res.t, res.neuron, 0)

    def test_pairs_report_primary_member(self):
        w1 = np.array([[1.0], [-1.0]])
        net = ReluNetwork([w1, np.ones((1, 2))], [np.array([-1.0, 1.0]), np.zeros(1)])
        pairs = PairGroups([(0, 1)])
        folded, kept = pairs.fold(net), folded_units(net, pairs)
        x = np.array([0.0])
        s = activation_pattern(folded, x)
        res = advance_max(folded, x, np.array([1.0]), s)
        assert kept[res.neuron] == 0
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
        s = np.ones(3, dtype=np.uint8)
        pinv = _build_incremental(net_hinge_gap, s, [1, 2])
        r = argument_residuals(pinv, net_hinge_gap, s, np.array([1.0, 0.0]))
        assert_allclose(r, 0.0, atol=1e-14)


def _ramp_net(w_down):
    """f(x) = -w_down relu(x + 5) + 3 relu(x - 1) + relu(x - 2): slope -w_down at 0."""
    return ReluNetwork([np.ones((3, 1)), np.array([[-w_down, 3.0, 1.0]])],
                       [np.array([5.0, -1.0, -2.0]), np.zeros(1)])


class TestLongStep:
    def test_no_crossing_is_the_first_wall_step(self):
        # slope -1 turns to +2 at x = 1, so the step stops at unit 1's wall
        net = _ramp_net(1.0)
        x, v = np.array([0.0]), np.array([1.0])
        s = activation_pattern(net, x)
        first = advance_max(net, x, v, s)
        long = advance_max(net, x, v, s, slope=-1.0)
        assert (first.t, first.neuron, first.crossed.size) == (1.0, 1, 0)
        assert (long.t, long.neuron, long.crossed.size) == (1.0, 1, 0)

    def test_passes_walls_while_descending(self):
        x, v = np.array([0.0]), np.array([1.0])
        # slope -3.5: +3 at x = 1 leaves -0.5, +1 at x = 2 turns it positive
        net = _ramp_net(3.5)
        s = activation_pattern(net, x)
        res = advance_max(net, x, v, s, slope=-3.5)
        assert (res.t, res.neuron, res.crossed.tolist()) == (2.0, 2, [1])
        # slope -5 stays negative past both walls: unbounded
        net = _ramp_net(5.0)
        res = advance_max(net, x, v, s, slope=-5.0)
        assert not res.bounded and res.crossed.tolist() == [1, 2]

    def test_paired_walls_count_both_members(self):
        # 0.25 relu(x - 1) + 0.75 relu(1 - x) - w relu(x + 5) as a mirrored pair
        # plus a ramp: crossing x = 1 adds 0.25 + 0.75 to the slope -0.75 - w
        pairs = PairGroups([(0, 1)])
        x, v = np.array([0.0]), np.array([1.0])
        for w, stops in ((0.0, True), (0.5, False)):
            net = ReluNetwork([np.array([[1.0], [-1.0], [1.0]]), np.array([[0.25, 0.75, -w]])],
                              [np.array([-1.0, 1.0, 5.0]), np.zeros(1)])
            net = pairs.fold(net)        # the ramp unit 2 becomes unit 1
            s = activation_pattern(net, x)
            res = advance_max(net, x, v, s, slope=-0.75 - w)
            if stops:
                assert (res.t, res.neuron, res.crossed.size) == (1.0, 0, 0)
            else:
                assert not res.bounded and res.crossed.tolist() == [0]

    def test_stops_before_an_earlier_layer_wall(self):
        # layer 1: u0 = relu(x - 1), u1 = relu(x + 10);  layer 2 reads u1:
        # z0 = relu(u1 - 10.5), z1 = relu(u1 - 12), z2 = relu(20 - u1)
        w1 = np.array([[1.0], [1.0]])
        w2 = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, -1.0]])
        net = ReluNetwork([w1, w2, np.array([[1.0, 1.0, 10.0]])],
                          [np.array([-1.0, 10.0]), np.array([-10.5, -12.0, 20.0]), np.zeros(1)])
        x, v = np.array([0.0]), np.array([1.0])
        s = activation_pattern(net, x)
        res = advance_max(net, x, v, s, slope=-10.0)
        assert (res.t, res.neuron, res.crossed.tolist()) == (1.0, 0, [2])

    def test_descends_on_every_passed_segment(self):
        # oracle: true network values along the ray, nothing from the line search
        rng = np.random.Generator(np.random.Philox(9))
        crossings = 0
        for trial in range(60):
            net = build_random((2, 6, 8, 1), seed=trial)
            x = rng.uniform(-2.0, 2.0, size=2)
            v = rng.standard_normal(2)
            v /= np.linalg.norm(v)
            s = activation_pattern(net, x)
            slope = float(gradient(net, s) @ v)
            if slope > 0.0:
                v, slope = -v, -slope
            res = advance_max(net, x, v, s, slope=slope)
            last = net.offsets[-2]
            assert np.all(res.crossed >= last)
            crossings += res.crossed.size
            a0 = subjective_arguments(net, s, x)
            a1 = subjective_arguments(net, s, x + v)
            with np.errstate(divide="ignore", invalid="ignore"):
                walls = -a0 / (a1 - a0)
            knots = [0.0] + sorted(walls[res.crossed].tolist())
            end = res.t if res.bounded else knots[-1] + 10.0
            knots.append(end)
            f = lambda t: evaluate(net, x + t * v)
            for a, b in zip(knots, knots[1:]):
                if b - a > 1e-6:
                    assert (f(b) - f(a)) / (b - a) < 1e-9
            if res.bounded and res.neuron >= last and res.t > 0.0:
                # past the stop wall the network no longer descends
                ahead = walls[(walls > res.t + 1e-9) & np.isfinite(walls)]
                d = min(1e-3, (ahead.min() - res.t) / 2.0) if ahead.size else 1e-3
                assert (f(res.t + d) - f(res.t)) / d > -1e-7
        assert crossings > 0
