import numpy as np
import pytest
from numpy.testing import assert_allclose

from drlp import (
    LOCAL_MINIMUM,
    NON_REGULAR,
    STEP_LIMIT,
    UNBOUNDED,
    ActivationPattern,
    PseudoInverse,
    QuadraticObjective,
    ReluNetwork,
    activation_pattern,
    add_axis,
    argument_residuals,
    axis_derivatives,
    build_random,
    certify_local_min,
    choose_axis,
    critical_indices,
    drlsimplex,
    evaluate,
    find_vertex,
    initialize,
    parabola_step,
    position_correction,
    refresh_pseudoinverse,
    segment_parabola,
    solve_quadratic,
    SolverOptions,
)
from helpers import probe_min


def _vertex_state(net, s_layers, owners):
    """Hand-built solver state pinned at the walls of the given owners."""
    s = ActivationPattern.from_layers(s_layers)
    pinv = PseudoInverse.empty(net.input_dim)
    for c in owners:
        pinv = add_axis(pinv, net, s, c)
    return s, pinv


def _assert_non_increasing(trace, scale=1.0):
    fs = [rec.f for rec in trace]
    for a, b in zip(fs, fs[1:]):
        assert b <= a + 1e-9 * (1.0 + abs(scale))


class TestInitialize:
    def test_clean_start_is_untouched(self, net_hinge_gap):
        state = initialize(net_hinge_gap, [3.0, -2.0])
        assert_allclose(state.x, [3.0, -2.0])
        assert critical_indices(net_hinge_gap, state.s, state.x) == []

    def test_start_on_wall_gets_nudged(self, net_hinge_gap):
        state = initialize(net_hinge_gap, [1.0, 0.0])
        assert critical_indices(net_hinge_gap, state.s, state.x) == []
        assert np.linalg.norm(state.x - [1.0, 0.0]) < 1e-5

    def test_zero_network_needs_no_nudge(self):
        net = ReluNetwork(
            [np.zeros((2, 2)), np.zeros((1, 2))], [np.zeros(2), np.zeros(1)]
        )
        state = initialize(net, [0.0, 0.0])
        assert_allclose(state.x, [0.0, 0.0])

    def test_bad_shape_rejected(self, net_hinge_gap):
        with pytest.raises(ValueError):
            initialize(net_hinge_gap, [1.0, 2.0, 3.0])

    def test_deterministic_under_seed(self, net_hinge_gap):
        a = initialize(net_hinge_gap, [1.0, 0.0], SolverOptions(seed=5))
        b = initialize(net_hinge_gap, [1.0, 0.0], SolverOptions(seed=5))
        assert np.array_equal(a.x, b.x)


class TestFindVertex:
    def test_reaches_full_rank(self, net_hinge_gap):
        state = initialize(net_hinge_gap, [3.0, -2.0])
        out = find_vertex(state)
        assert out is None
        assert state.pinv.m == 2
        r = argument_residuals(state.pinv, net_hinge_gap, state.s, state.x)
        assert_allclose(r, 0.0, atol=1e-9)

    def test_unbounded_descent_detected(self, net_hinge_gap_negated):
        state = initialize(net_hinge_gap_negated, [3.0, -2.0])
        out = find_vertex(state)
        assert out is not None and out.status == UNBOUNDED
        d = out.direction
        f0 = evaluate(net_hinge_gap_negated, out.x)
        f1 = evaluate(net_hinge_gap_negated, out.x + 10.0 * d)
        assert f1 < f0

    def test_flat_region_still_reaches_vertex(self, net_hinge_gap):
        # gradient is zero below both folds; random fallbacks must pin walls
        state = initialize(net_hinge_gap, [-3.0, -4.0])
        out = find_vertex(state)
        assert out is None
        assert state.pinv.m == 2


class TestChooseAxis:
    def test_frozen_pick(self):
        pinv = PseudoInverse(np.eye(2), [0, 1])
        row, alpha, i = choose_axis(pinv, np.array([-1.0, 2.0]))
        assert i == 0 and alpha == pytest.approx(-1.0)
        assert_allclose(row, [1.0, 0.0])

    def test_normalization_matters(self):
        pinv = PseudoInverse(np.array([[10.0, 0.0], [0.0, 1.0]]), [0, 1])
        # raw products would favor row 0; per-unit-length slope favors row 1
        row, alpha, i = choose_axis(pinv, np.array([-1.0, -2.0]))
        assert i == 1 and alpha == pytest.approx(-2.0)


class TestPositionCorrection:
    def test_pulls_back_onto_walls(self, net_hinge_gap):
        state = initialize(net_hinge_gap, [3.0, -2.0])
        assert find_vertex(state) is None
        state.x = state.x + np.array([3e-7, -2e-7])
        position_correction(state)
        r = argument_residuals(state.pinv, net_hinge_gap, state.s, state.x)
        assert_allclose(r, 0.0, atol=1e-12)

    def test_refresh_agrees_with_incremental(self, net_hinge_gap):
        state = initialize(net_hinge_gap, [3.0, -2.0])
        assert find_vertex(state) is None
        before = state.pinv.matrix.copy()
        refresh_pseudoinverse(state)
        assert state.pinv.matrix == pytest.approx(before, abs=1e-10)


class TestDrlsimplex:
    def test_hinge_gap_minimum(self, net_hinge_gap):
        for x0 in ([3.0, -2.0], [0.5, 3.0], [2.0, 2.0], [-1.0, -1.0]):
            out = drlsimplex(net_hinge_gap, x0)
            assert out.status == LOCAL_MINIMUM
            assert out.f == pytest.approx(0.0, abs=1e-9)
            assert probe_min(net_hinge_gap, out.x, seed=3) >= out.f - 1e-8
            _assert_non_increasing(out.trace, scale=out.trace[0].f)

    def test_negated_output_unbounded(self, net_hinge_gap_negated):
        out = drlsimplex(net_hinge_gap_negated, [3.0, -2.0])
        assert out.status == UNBOUNDED
        f0 = evaluate(net_hinge_gap_negated, out.x)
        for t in (1.0, 10.0, 100.0):
            assert evaluate(net_hinge_gap_negated, out.x + t * out.direction) < f0

    def test_step_limit(self, net_hinge_gap):
        out = drlsimplex(net_hinge_gap, [3.0, -2.0], SolverOptions(max_steps=1))
        assert out.status == STEP_LIMIT
        assert out.steps == 1

    def test_trace_can_be_disabled(self, net_hinge_gap):
        out = drlsimplex(
            net_hinge_gap, [3.0, -2.0], SolverOptions(collect_trace=False)
        )
        assert out.trace == []

    def test_record_callback_sees_every_phase(self, net_hinge_gap):
        phases = []
        opts = SolverOptions(on_record=lambda rec: phases.append(rec.phase))
        out = drlsimplex(net_hinge_gap, [3.0, -2.0], opts)
        assert out.status == LOCAL_MINIMUM
        assert "find_vertex" in phases and "certify" in phases

    def test_random_nets_terminate_verifiably(self):
        outcomes = []
        for seed in range(12):
            topology = (2, 5, 4, 1) if seed % 2 else (3, 4, 4, 1)
            net = build_random(topology, seed=100 + seed)
            rng = np.random.Generator(np.random.Philox(seed))
            x0 = rng.uniform(-2.0, 2.0, size=topology[0])
            out = drlsimplex(net, x0, SolverOptions(seed=seed))
            outcomes.append(out.status)
            if out.status == LOCAL_MINIMUM:
                scale = 1.0 + abs(out.f)
                assert probe_min(net, out.x, seed=seed) >= out.f - 1e-8 * scale
                _assert_non_increasing(out.trace, scale=out.trace[0].f)
            elif out.status == UNBOUNDED:
                f0 = evaluate(net, out.x)
                f2 = evaluate(net, out.x + 100.0 * out.direction)
                assert f2 < f0
        assert outcomes.count(LOCAL_MINIMUM) + outcomes.count(UNBOUNDED) >= 10

    def test_seeded_runs_are_identical(self, net_hinge_gap):
        a = drlsimplex(net_hinge_gap, [1.0, 0.0], SolverOptions(seed=2))
        b = drlsimplex(net_hinge_gap, [1.0, 0.0], SolverOptions(seed=2))
        assert np.array_equal(a.x, b.x) and a.steps == b.steps


class TestCertification:
    def test_frozen_axis_sweep(self, net_hinge_gap):
        net = net_hinge_gap
        x = np.array([1.0, 0.0])
        s, pinv = _vertex_state(net, [[1, 1], [1]], [1, 2])
        assert_allclose(pinv.matrix, [[1.0, 1.0], [1.0, 0.0]], atol=1e-12)
        entries = axis_derivatives(net, x, s, pinv)
        frozen = [
            (1, 1, 0.0),
            (2, 1, 1.0),
            (1, 0, 0.0),
            (2, 0, 0.0),
        ]
        assert len(entries) == 4
        for (c, bit, val, _), (fc, fbit, fval) in zip(entries, frozen):
            assert c == fc and bit == fbit
            assert val == pytest.approx(fval, abs=1e-12)

    def test_certifies_true_minimum(self, net_hinge_gap):
        s, pinv = _vertex_state(net_hinge_gap, [[1, 1], [1]], [1, 2])
        assert certify_local_min(net_hinge_gap, np.array([1.0, 0.0]), s, pinv)

    def test_rejects_saddle_vertex(self, net_hinge_gap_negated):
        s, pinv = _vertex_state(
            net_hinge_gap_negated, [[1, 1], [1]], [1, 2]
        )
        assert not certify_local_min(
            net_hinge_gap_negated, np.array([1.0, 0.0]), s, pinv
        )

    def test_free_subspace_blocks_certification(self, net_fold_sum):
        # only one wall active at (5, 5): the free direction still descends
        net = net_fold_sum
        x = np.array([5.0, 5.0])
        s = activation_pattern(net, x)
        pinv = add_axis(PseudoInverse.empty(2), net, s, 0)
        assert not certify_local_min(net, x, s, pinv)


class TestQuadratic:
    def test_value_and_grad(self):
        q = QuadraticObjective(np.array([[2.0, 0.0], [0.0, 1.0]]),
                               np.array([1.0, -1.0]), 3.0)
        x = np.array([1.0, 2.0])
        assert q.value(x) == pytest.approx(2 + 4 + 1 - 2 + 3)
        assert_allclose(q.grad(x), [4 + 1, 4 - 1])

    def test_segment_parabola_matches_three_point_fit(self):
        rng = np.random.Generator(np.random.Philox(8))
        for _ in range(10):
            m = rng.standard_normal((3, 3))
            q = QuadraticObjective(m.T @ m, rng.standard_normal(3),
                                   float(rng.standard_normal()))
            x = rng.standard_normal(3)
            v = rng.standard_normal(3)
            a, b, c = segment_parabola(q, x, v)
            q0, q1, q2 = q.value(x), q.value(x + v), q.value(x + 2 * v)
            a_fit = (q2 - 2 * q1 + q0) / 2.0
            b_fit = q1 - q0 - a_fit
            assert a == pytest.approx(a_fit, rel=1e-9, abs=1e-9)
            assert b == pytest.approx(b_fit, rel=1e-9, abs=1e-9)
            assert c == pytest.approx(q0, rel=1e-12)

    def test_parabola_step_cases(self):
        assert parabola_step(1.0, -4.0, 10.0) == pytest.approx(2.0)
        assert parabola_step(1.0, -40.0, 3.0) == pytest.approx(3.0)
        assert parabola_step(1.0, 4.0, 10.0) == 0.0
        assert parabola_step(0.0, -1.0, 5.0) == pytest.approx(5.0)
        assert parabola_step(-2.0, 1.0, 7.0) == pytest.approx(7.0)
        assert parabola_step(0.0, -1.0, float("inf")) == float("inf")

    def test_isotropic_bowl_single_step(self):
        net = ReluNetwork(
            [np.zeros((2, 2)), np.zeros((1, 2))], [np.zeros(2), np.zeros(1)]
        )
        center = np.array([1.0, 2.0])
        q = QuadraticObjective(np.eye(2), -2.0 * center, float(center @ center))
        out = solve_quadratic(net, q, [5.0, -3.0])
        assert out.status == LOCAL_MINIMUM
        assert_allclose(out.x, center, atol=1e-10)
        assert out.steps == 1

    def test_anisotropic_bowl_converges(self):
        net = ReluNetwork(
            [np.zeros((2, 2)), np.zeros((1, 2))], [np.zeros(2), np.zeros(1)]
        )
        q = QuadraticObjective(np.diag([1.0, 4.0]), np.array([-2.0, -8.0]), 5.0)
        out = solve_quadratic(net, q, [3.0, 3.0])
        assert out.status == LOCAL_MINIMUM
        assert_allclose(out.x, [1.0, 1.0], atol=1e-6)

    def test_wall_pins_minimum(self):
        # relu(x) * 5 + (x - 2)^2: unconstrained vertex sits past the fold
        net = ReluNetwork(
            [np.array([[1.0]]), np.array([[5.0]])], [np.zeros(1), np.zeros(1)]
        )
        q = QuadraticObjective(np.array([[1.0]]), np.array([-4.0]), 4.0)
        out = solve_quadratic(net, q, [3.0])
        assert out.status == LOCAL_MINIMUM
        assert out.x[0] == pytest.approx(0.0, abs=1e-9)

    def test_linear_drift_unbounded(self):
        net = ReluNetwork(
            [np.zeros((2, 2)), np.zeros((1, 2))], [np.zeros(2), np.zeros(1)]
        )
        q = QuadraticObjective(np.zeros((2, 2)), np.array([1.0, 0.0]), 0.0)
        out = solve_quadratic(net, q, [0.0, 0.0])
        assert out.status == UNBOUNDED
        assert q.value(out.x + 100.0 * out.direction) < q.value(out.x)

    def test_step_limit_reported(self):
        net = ReluNetwork(
            [np.zeros((2, 2)), np.zeros((1, 2))], [np.zeros(2), np.zeros(1)]
        )
        q = QuadraticObjective(np.diag([1.0, 30.0]), np.array([-2.0, -8.0]), 0.0)
        out = solve_quadratic(net, q, [3.0, 3.0], SolverOptions(max_steps=2))
        assert out.status == STEP_LIMIT
