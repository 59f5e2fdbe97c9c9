from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

import drlp.network
import drlp.primitives
import drlp.solver
from drlp import (
    LOCAL_MINIMUM,
    STEP_LIMIT,
    UNBOUNDED,
    LpInstance,
    PseudoInverse,
    QuadraticObjective,
    RegressionData,
    ReluNetwork,
    activation_pattern,
    add_axis,
    argument_residuals,
    axis_derivatives,
    build_clad,
    build_from_lp,
    build_l1_first_layer,
    build_lasso,
    build_quantile_lasso,
    build_random,
    certify_local_min,
    choose_axis,
    critical_indices,
    drlsimplex,
    evaluate,
    find_vertex,
    flatten_first_layer,
    gradient,
    initialize,
    lasso_loss,
    oriented_normals,
    parabola_step,
    position_correction,
    quantile_loss,
    refresh_pseudoinverse,
    solve_quadratic,
    SolverOptions,
)
from helpers import (
    certificate_residual,
    cone_projection_nnls,
    lp_linprog,
    probe_min,
    quantile_linprog,
    segment_parabola,
)


def _lasso_data(rng, n, p):
    """Ten nonzero coefficients, the rest pure noise features."""
    beta = np.zeros(p)
    beta[:10] = [3.0, -2.5, 2.0, -1.5, 1.2, -1.0, 0.8, -0.6, 0.5, -0.4]
    x = rng.standard_normal((n, p))
    return RegressionData(x, x @ beta + rng.standard_normal(n))


def _vertex_state(net, s_layers, owners):
    """Hand-built solver state pinned at the walls of the given owners."""
    s = np.concatenate(s_layers).astype(np.uint8)
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
        with pytest.raises(ValueError, match="x0 must be finite"):
            initialize(net_hinge_gap, [1.0, 2.0, 3.0])

    def test_non_finite_start_rejected(self, net_hinge_gap):
        q = QuadraticObjective(np.eye(2), np.zeros(2))
        for x0 in ([np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0]):
            with pytest.raises(ValueError, match="x0 must be finite"):
                initialize(net_hinge_gap, x0)
            with pytest.raises(ValueError, match="x0 must be finite"):
                solve_quadratic(net_hinge_gap, q, x0)
        with pytest.raises(ValueError, match="x0 must be finite"):
            solve_quadratic(net_hinge_gap, q, [1.0])

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

    def test_no_sink_evaluates_only_the_outcome(self, net_hinge_gap, monkeypatch):
        calls = []
        real = drlp.solver.evaluate
        monkeypatch.setattr(drlp.solver, "evaluate", lambda *a: calls.append(1) or real(*a))
        out = drlsimplex(net_hinge_gap, [3.0, -2.0], SolverOptions(collect_trace=False))
        assert out.status == LOCAL_MINIMUM and len(calls) == 1     # finish() alone
        calls.clear()
        out = drlsimplex(net_hinge_gap, [3.0, -2.0])
        assert len(calls) == len(out.trace) + 1

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
        # ten parallel walls lie between the start and the bowl's center, and
        # each one ends a step
        net = ReluNetwork([np.tile([1.0, 0.0], (10, 1)), np.full((1, 10), 0.1)],
                          [-np.arange(1.0, 11.0), np.zeros(1)])
        q = QuadraticObjective(np.eye(2), np.array([-40.0, 0.0]), 0.0)
        assert solve_quadratic(net, q, [0.0, 0.0]).steps > 10
        out = solve_quadratic(net, q, [0.0, 0.0], SolverOptions(max_steps=2))
        assert out.status == STEP_LIMIT

    def test_lasso_at_benchmark_size_meets_kkt(self):
        rng = np.random.Generator(np.random.Philox(21))
        data = _lasso_data(rng, 500, 40)
        lam_max = 2.0 * float(np.max(np.abs(data.x.T @ data.y)))   # theta = 0 is optimal above it
        for i, frac in enumerate((0.3, 0.1, 0.03)):
            lam = frac * lam_max
            net, q, pairs = build_lasso(data, lam)
            out = solve_quadratic(net, q, np.zeros(40), SolverOptions(seed=i), pairs)
            assert out.status == LOCAL_MINIMUM
            assert out.f == pytest.approx(lasso_loss(data, out.x, lam), rel=1e-9)
            # 0 lies in 2 X'(X theta - y) + lam * d|theta|_1
            g = 2.0 * data.x.T @ (data.x @ out.x - data.y)
            tol = 1e-7 * (lam + lam_max)
            on = np.abs(out.x) > 1e-9 * (1.0 + np.max(np.abs(out.x)))   # off the kink of |theta_j|
            assert 0 < on.sum() < 40
            assert np.max(np.abs(g[on] + lam * np.sign(out.x[on]))) <= tol
            assert np.max(np.abs(g[~on])) <= lam + tol

    def test_random_net_corpus_reaches_probed_minima(self):
        # 20 seeds each of three topologies; the quadratic is 0.2 A'A + 0.1 I
        # with A and then x0 drawn from one Philox(seed) stream
        statuses = []
        for topo in ((3, 8, 8, 1), (4, 12, 1), (5, 10, 10, 10, 1)):
            n = topo[0]
            for seed in range(20):
                net = build_random(topo, seed=seed)
                rng = np.random.Generator(np.random.Philox(seed))
                a = rng.standard_normal((n, n))
                q = QuadraticObjective(0.2 * a.T @ a + 0.1 * np.eye(n), np.zeros(n))
                out = solve_quadratic(net, q, rng.standard_normal(n),
                                      SolverOptions(max_steps=3000, collect_trace=False))
                statuses.append(out.status)
                if out.status == LOCAL_MINIMUM:
                    best = probe_min(net, out.x, radius=1e-6, samples=2000, extra=q.value)
                    assert best >= out.f - 1e-12 * (1.0 + abs(out.f)), (topo, seed)
        assert statuses.count(STEP_LIMIT) <= 5

    def test_dependent_walls_take_the_probe(self):
        # relu(x1) + relu(x2) + relu(x1 + x2) + |x|^2: three walls meet at the
        # minimum in two dimensions, so their multipliers are not unique and
        # the adjacent regions are probed, flips accumulating
        net = ReluNetwork([np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.ones((1, 3))],
                          [np.zeros(3), np.zeros(1)])
        out = solve_quadratic(net, QuadraticObjective(np.eye(2), np.zeros(2)), [0.0, 0.0])
        assert out.status == LOCAL_MINIMUM
        assert [r.phase for r in out.trace] == ["flip", "flip", "flip", "certify"]
        assert [r.neuron for r in out.trace[:3]] == [0, 1, 2]

    def test_wall_outside_last_layer_takes_the_probe(self):
        # 2 relu(relu(x) + 1) + x^2 - x is least at x = 0, the first-layer
        # wall, whose crossing gain the local model does not give
        net = ReluNetwork([np.array([[1.0]]), np.array([[1.0]]), np.array([[2.0]])],
                          [np.zeros(1), np.ones(1), np.zeros(1)])
        out = solve_quadratic(net, QuadraticObjective(np.eye(1), -np.ones(1)), [3.0])
        assert out.status == LOCAL_MINIMUM
        assert out.x[0] == pytest.approx(0.0, abs=1e-12)
        assert [r.phase for r in out.trace[-2:]] == ["flip", "certify"]

    def test_degenerate_vertex_returns_a_status(self):
        # censored LAD through the origin: all 60 first-layer walls meet at
        # theta = 0, in three dimensions
        rng = np.random.Generator(np.random.Philox(22))
        x = rng.standard_normal((60, 3))
        y = np.maximum(x @ np.array([1.0, -0.5, 0.8]), 0.0) + 0.2 * rng.standard_normal(60)
        net, pairs = build_clad(RegressionData(x, y))
        assert len(critical_indices(net, activation_pattern(net, np.zeros(3), pairs),
                                    np.zeros(3), pairs)) == 60
        q = QuadraticObjective(0.01 * np.eye(3), np.zeros(3))
        out = solve_quadratic(net, q, np.zeros(3), SolverOptions(seed=0, max_steps=500), pairs)
        assert out.status in {LOCAL_MINIMUM, STEP_LIMIT}
        assert out.f <= evaluate(net, np.zeros(3)) + 1e-12


BENCH_BETA = np.array([3.0, -2.5, 2.0, -1.5, 1.2, -1.0, 0.8, -0.6, 0.5, -0.4])


@pytest.fixture(scope="module")
def bench_lasso_solves():
    """The 18 LASSO solves (n=500, p=40) of the benchmark's seed 7, with their problems."""
    solves = []
    for k in range(18):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([7, 3, k // 3])))
        x = rng.standard_normal((500, 40))
        data = RegressionData(x, x[:, :10] @ BENCH_BETA + rng.standard_normal(500))
        lam = (0.3, 0.1, 0.03)[k % 3] * 2.0 * float(np.max(np.abs(x.T @ data.y)))
        net, q, pairs = build_lasso(data, lam)
        out = solve_quadratic(net, q, np.zeros(40), SolverOptions(seed=k), pairs)
        solves.append((net, q, pairs, out))
    return solves


def _certificate_residual_at(net, q, pairs, x):
    """BVLS residual of the local model at x, with crossing gains read off the output weights."""
    s = activation_pattern(net, x, pairs)
    active = critical_indices(net, s, x, pairs)
    normals = oriented_normals(net, s, active)
    norms = np.linalg.norm(normals, axis=1)
    w = net.weights[-1][0]
    kappa = w[active] + w[pairs.partner[active]]
    g = q.grad(x) + gradient(net, s)
    return certificate_residual(g, normals / norms[:, None], kappa * norms), g, active


class TestCertificate:
    """Regular points are certified from the projection's multipliers, one flip per violated wall."""

    def test_bench_lasso_steps(self, bench_lasso_solves):
        outs = [out for *_, out in bench_lasso_solves]
        assert all(out.status == LOCAL_MINIMUM for out in outs)
        assert sum(out.steps for out in outs) <= 350
        for out in outs:
            phases = [r.phase for r in out.trace]
            # each flip crosses a violated wall, and a line search follows it
            assert all(b == "pivot" for a, b in zip(phases, phases[1:]) if a == "flip")

    def test_every_certificate_passes_bvls(self, bench_lasso_solves):
        for net, q, pairs, out in bench_lasso_solves:
            assert out.trace[-1].phase == "certify"
            resid, g, active = _certificate_residual_at(net, q, pairs, out.x)
            assert active
            assert resid <= 1e-9 * (1.0 + np.linalg.norm(g))

    def test_violated_bound_is_crossed(self, bench_lasso_solves):
        net, q, pairs, out = bench_lasso_solves[1]
        _, g, active = _certificate_residual_at(net, q, pairs, out.x)
        c = active[len(active) // 2]
        j = int(np.flatnonzero(net.weights[0][c])[0])
        lam = float(net.weights[0][c, j])
        # the wall theta_j = 0 with g_j = 2.01 lam: the multiplier exceeds the
        # crossing gain 2 lam, so moving theta_j below zero descends
        lin = q.lin.copy()
        lin[j] += 2.01 * lam - g[j]
        nudged = QuadraticObjective(q.quad, lin)
        resid, _, _ = _certificate_residual_at(net, nudged, pairs, out.x)
        assert resid >= 0.005 * lam
        again = solve_quadratic(net, nudged, out.x, SolverOptions(seed=0), pairs)
        assert (again.trace[0].phase, again.trace[0].neuron) == ("flip", c)
        assert again.status == LOCAL_MINIMUM
        assert again.x[j] < 0.0
        assert again.f < nudged.value(out.x) + evaluate(net, out.x)


def _pivots(out):
    return [rec for rec in out.trace if rec.phase == "pivot"]


class TestLongStep:
    def test_one_pivot_walks_to_the_median(self):
        # a single parameter (the intercept): from far left one pivot passes
        # every wall up to the median
        rng = np.random.Generator(np.random.Philox(12))
        y = rng.standard_normal(201)
        data = RegressionData(np.zeros((201, 0)), y)
        net, pairs = build_quantile_lasso(data)
        out = drlsimplex(net, [-100.0], SolverOptions(seed=1), pairs)
        assert out.status == LOCAL_MINIMUM
        pivots = _pivots(out)
        assert len(pivots) == 1 and pivots[0].crossed == 99
        assert out.x[0] == pytest.approx(np.median(y), rel=1e-12)
        assert out.f == pytest.approx(quantile_loss(data, out.x), rel=1e-12)

    @pytest.mark.parametrize("solve", ["drlsimplex", "solve_quadratic"])
    def test_line_search_arrays_are_built_once_per_solve(self, solve, monkeypatch):
        calls = Counter()
        gains, mask = drlp.primitives._crossing_gains, drlp.network.PairGroups.secondary_flat_mask
        monkeypatch.setattr(drlp.primitives, "_crossing_gains",
                            lambda *a: calls.update(["gains"]) or gains(*a))
        monkeypatch.setattr(drlp.network.PairGroups, "secondary_flat_mask",
                            lambda *a: calls.update(["mask"]) or mask(*a))
        rng = np.random.Generator(np.random.Philox(16))
        data = _lasso_data(rng, 60, 12)
        if solve == "drlsimplex":
            net, pairs = build_quantile_lasso(data, lam=1.0)
            out = drlsimplex(net, np.zeros(net.input_dim), SolverOptions(seed=3), pairs)
        else:
            net, q, pairs = build_lasso(data, lam=20.0)
            out = solve_quadratic(net, q, np.zeros(12), SolverOptions(seed=3), pairs)
        assert out.status == LOCAL_MINIMUM and len(_pivots(out)) > 5
        assert calls == {"gains": 1, "mask": 1}

    def test_quantile_matches_linprog(self):
        rng = np.random.Generator(np.random.Philox(13))
        x = rng.standard_normal((1000, 5))
        y = 1.0 + x @ rng.standard_normal(5) + rng.laplace(size=1000)
        data = RegressionData(x, y)
        net, pairs = build_quantile_lasso(data)
        out = drlsimplex(net, np.zeros(6), SolverOptions(seed=0), pairs)
        assert out.status == LOCAL_MINIMUM
        design = np.hstack([np.ones((1000, 1)), x])
        assert out.f == pytest.approx(quantile_linprog(design, y), rel=1e-8)
        assert out.f == pytest.approx(quantile_loss(data, out.x), rel=1e-9)
        assert len(_pivots(out)) <= 150
        _assert_non_increasing(out.trace, scale=out.trace[0].f)

    def test_random_lps_match_linprog(self):
        rng = np.random.Generator(np.random.Philox(14))
        for trial in range(20):
            n_var, n_con = int(rng.integers(2, 6)), int(rng.integers(2, 8))
            lp = LpInstance(rng.uniform(-1.0, 1.0, n_var),
                            rng.uniform(0.1, 1.0, (n_con, n_var)),
                            rng.uniform(1.0, 2.0, n_con))
            want, dual = lp_linprog(lp)
            assert dual < 50.0           # the exact penalty below is large enough
            net, pairs = build_from_lp(lp, penalty=50.0)
            x0 = rng.uniform(-1.0, 3.0, n_var)
            out = drlsimplex(net, x0, SolverOptions(seed=trial), pairs)
            assert out.status == LOCAL_MINIMUM
            assert out.f == pytest.approx(want, abs=1e-8)
            _assert_non_increasing(out.trace, scale=out.trace[0].f)

    @pytest.mark.parametrize("problem", ["clad", "train_l1"])
    def test_crossed_units_sit_in_last_hidden_layer(self, problem, monkeypatch):
        results = []
        real = drlp.solver.advance_max
        monkeypatch.setattr(drlp.solver, "advance_max",
                            lambda *a, **k: results.append(real(*a, **k)) or results[-1])
        rng = np.random.Generator(np.random.Philox(15))
        if problem == "clad":
            x = np.hstack([np.ones((80, 1)), rng.normal(size=(80, 3))])
            y = np.maximum(x @ np.array([0.5, 1.0, -0.5, 0.8]), 0.0) + 0.2 * rng.normal(size=80)
            net, pairs = build_clad(RegressionData(x, y))
            x0 = np.array([0.3, 0.5, -0.2, 0.4])
        else:
            base = build_random((3, 4, 3, 1), seed=9)
            data = RegressionData(rng.normal(size=(40, 3)), rng.normal(size=40))
            net, pairs = build_l1_first_layer(base, data)
            x0 = flatten_first_layer(base)
        out = drlsimplex(net, x0, SolverOptions(seed=2), pairs)
        assert out.status == LOCAL_MINIMUM
        crossed = np.concatenate([res.crossed for res in results])
        assert crossed.size > 0
        assert np.all(crossed >= net.offsets[-2])
        assert sum(rec.crossed for rec in _pivots(out)) == crossed.size
        _assert_non_increasing(out.trace, scale=out.trace[0].f)


def _walls(kind, rng, k, n):
    """k rows of one kind in R^n (the axis kind gives min(k, n) rows)."""
    if kind == "random":
        return rng.standard_normal((k, n))
    if kind == "axis":
        # the LASSO walls: +-lam e_j
        lam = rng.uniform(0.5, 2.0)
        rows = np.vstack([lam * np.eye(n), -lam * np.eye(n)])
        return rows[rng.choice(2 * n, size=min(k, n), replace=False)]
    m = max(1, k // 2)
    if kind == "duplicate":
        base = rng.standard_normal((m, n))
        return np.vstack([base, 2.0 * base])[np.arange(k) % (2 * m)]
    # near-dependent: later rows within roundoff of integer combinations of
    # independent earlier ones, whose entries are multiples of 1/8 so that
    # _exact_walls recovers exactly dependent rows
    base = np.zeros((m, n))
    while np.linalg.matrix_rank(base) < m:
        base = rng.integers(1, 9, (m, n)) * rng.choice([-0.125, 0.125], (m, n))
    combos = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], (k - m, m)) @ base
    return np.vstack([base, combos + 1e-15 * rng.standard_normal((k - m, n))])


def _exact_walls(kind, normals):
    """The walls the oracle projects onto: near-dependent rows made exactly dependent.

    Below roundoff the tangent cone of near-dependent walls is ill-posed (a
    wedge of walls 1e-15 apart may be a half-plane or a line), and NNLS on
    them returns infeasible directions; the solver treats such rows as
    dependent, so the oracle gets the rounded rows.
    """
    return np.round(8.0 * normals) / 8.0 if kind == "near_dependent" else normals


KINDS = ["random", "axis", "duplicate", "near_dependent"]


def _direction_cases(kind, seed, count):
    """(g, normals, hess) draws; half the gradients lean on the walls with mixed signs."""
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(count):
        n = int(rng.integers(2, 12))
        normals = _walls(kind, rng, int(rng.integers(1, n + 3)), n)
        g = rng.standard_normal(n)
        if rng.uniform() < 0.5:
            g = normals.T @ rng.uniform(-0.3, 1.0, len(normals)) + 0.1 * g
        a = rng.standard_normal((n, n))
        yield g, normals, a @ a.T + 0.1 * np.eye(n)


class TestFeasibleDirection:
    """The working-set projection against NNLS, and the face Newton step against KKT."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_projection_matches_nnls(self, kind):
        regular = Counter()
        for g, normals, _ in _direction_cases(kind, 31, 300):
            v, _, _, mu, ok = drlp.solver._feasible_direction(g, normals)
            walls = _exact_walls(kind, normals)
            want = cone_projection_nnls(g, walls)
            assert np.max(np.abs(v - want)) <= 1e-10 * (1.0 + np.linalg.norm(g))
            assert ok == (np.linalg.matrix_rank(walls) == len(walls))
            if ok:
                # Moreau: -g = v - N' mu over the unit normals, with mu >= 0
                unit = normals / np.linalg.norm(normals, axis=1)[:, None]
                assert np.all(mu >= 0.0)
                assert np.max(np.abs(unit.T @ mu - g - v)) <= 1e-10 * (1.0 + np.linalg.norm(g))
            regular[ok] += 1
        assert min(regular[True], regular[False]) > 40

    @pytest.mark.parametrize("kind", KINDS)
    def test_projection_follows_sign_flips(self, kind):
        # like the probe loop: flips accumulate over a fixed set of walls,
        # and -g leans against each wall whatever its current sign
        rng = np.random.Generator(np.random.Philox(34))
        for _ in range(10):
            n = int(rng.integers(3, 12))
            walls = _walls(kind, rng, int(rng.integers(2, n + 3)), n)
            signs = np.ones(len(walls))
            for _ in range(30):
                signs[rng.integers(len(walls))] *= -1.0
                j = rng.integers(len(walls))
                if rng.uniform() < 0.2:                        # a new wall: some entries negated
                    walls[j] = walls[j] * np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
                keep = rng.uniform(size=len(walls)) < 0.9     # now and then a wall leaves
                normals = signs[keep, None] * walls[keep]
                g = normals.T @ rng.uniform(0.5, 1.0, len(normals)) + 1e-3 * rng.standard_normal(n)
                v = drlp.solver._feasible_direction(g, normals)[0]
                want = cone_projection_nnls(g, _exact_walls(kind, normals))
                assert np.max(np.abs(v - want)) <= 1e-10 * (1.0 + np.linalg.norm(g))

    def test_held_axis_coordinates_are_exactly_zero(self):
        held_any = 0
        for g, normals, hess in _direction_cases("axis", 32, 300):
            v, d, held, _, _ = drlp.solver._feasible_direction(g, normals, hess)
            coords = np.nonzero(normals[held])[1]
            assert np.all(v[coords] == 0.0) and np.all(d[coords] == 0.0)
            held_any += coords.size > 0
        assert held_any > 100

    @pytest.mark.parametrize("kind", KINDS)
    def test_newton_step_matches_dense_kkt(self, kind):
        newton = 0
        for g, normals, hess in _direction_cases(kind, 33, 300):
            v, d, held, _, _ = drlp.solver._feasible_direction(g, normals, hess)
            rows = normals[held]
            k, n = rows.shape
            kkt = np.block([[hess, rows.T], [rows, np.zeros((k, k))]])
            want = np.linalg.solve(kkt, np.concatenate([-g, np.zeros(k)]))[:n]
            slack = np.min(normals @ want / np.linalg.norm(normals, axis=1), initial=0.0)
            if d is v:
                # fallback only when the face step ascends or leaves the cone
                assert want @ g >= -1e-12 * np.linalg.norm(g) * np.linalg.norm(want) \
                    or slack < -1e-13 * np.linalg.norm(want)
            else:
                newton += 1
                assert np.max(np.abs(d - want)) <= 1e-8 * (1.0 + np.linalg.norm(want))
                assert want @ g < 0.0 and slack >= -1e-11 * np.linalg.norm(want)
        assert newton > 50
