import json
import re
import subprocess
import sys
import textwrap
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import drlp.cli
import drlp.network
import drlp.primitives
import drlp.solver
from drlp import (
    LOCAL_MINIMUM,
    NON_REGULAR,
    STEP_LIMIT,
    UNBOUNDED,
    LpInstance,
    QuadraticObjective,
    RegressionData,
    ReluNetwork,
    build_clad,
    build_from_lp,
    build_l1_first_layer,
    build_lasso,
    build_quantile_lasso,
    build_random,
    certify_point,
    drlsimplex,
    evaluate,
    flatten_first_layer,
    lasso_loss,
    quantile_loss,
    save_model,
    solve_quadratic,
    SolverOptions,
    SolveOutcome,
)
from drlp.network import (
    PairGroups,
    activation_pattern,
    critical_indices,
    crossing_terms,
    flip,
    gradient,
    normal_matrices,
    oriented_normal,
    relu_arguments,
    subjective_arguments,
)
from drlp.primitives import Degenerate, PseudoInverse, add_axis, advance_max, argument_residuals, dense_pseudoinverse
from drlp.solver import (
    SolverState,
    axis_derivatives,
    certify_local_min,
    choose_axis,
    find_vertex,
    initialize,
    parabola_step,
    position_correction,
    refresh_pseudoinverse,
)
from helpers import (
    ac5_runs,
    certificate_residual,
    clad_start_data,
    cone_projection_nnls,
    dense_basis,
    folded_units,
    interleaved_clad,
    lp_linprog,
    mirrored_lasso,
    mirrored_lp,
    mirrored_quantile,
    pivot_update_reference,
    probe_min,
    quantile_linprog,
    run_python,
    segment_parabola,
    sweep_row_rebuild,
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
        pinv = add_axis(pinv, oriented_normal(net, s, c), c)
    return s, pinv


def _assert_non_increasing(trace, scale=1.0):
    fs = [rec.f for rec in trace]
    for a, b in zip(fs, fs[1:]):
        assert b <= a + 1e-9 * (1.0 + abs(scale))


class TestInitialize:
    def test_clean_start_is_untouched(self, net_hinge_gap):
        state = initialize(net_hinge_gap, [3.0, -2.0])
        assert_allclose(state.x, [3.0, -2.0])
        assert critical_indices(net_hinge_gap, state.s, state.x)[0] == []

    def test_start_on_wall_gets_nudged(self, net_hinge_gap):
        state = initialize(net_hinge_gap, [1.0, 0.0])
        assert critical_indices(net_hinge_gap, state.s, state.x)[0] == []
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

    def test_start_that_cannot_be_nudged_ends_non_regular(self):
        # CLAD from zero sits on all 1000 first-layer walls; at seed 0, 100 nudges leave
        # some unit on its wall, so the solve ends NonRegular at x0, naming those walls
        net, x0 = build_clad(clad_start_data())[0], np.zeros(5)
        walls = critical_indices(net, activation_pattern(net, x0), x0)[0]
        assert walls == list(range(1000))
        assert isinstance(initialize(net, x0, SolverOptions(seed=1)), SolverState)
        for out in (initialize(net, x0, SolverOptions(seed=0)), drlsimplex(net, x0, SolverOptions(seed=0))):
            assert isinstance(out, SolveOutcome)
            assert (out.status, out.steps, out.trace, out.neurons) == (NON_REGULAR, 0, [], walls)
            assert out.x.tobytes() == x0.tobytes() and out.f == evaluate(net, x0)
            assert all(type(c) is int for c in out.neurons)

    def test_non_regular_start_reports_its_time(self):
        # the solve state's clock runs from its creation, so initialize's own outcome counts
        # its 100 nudges and their sweeps
        net = build_clad(clad_start_data())[0]
        out = initialize(net, np.zeros(5), SolverOptions(seed=0))
        assert out.status == NON_REGULAR and out.wall_ms > 0.0


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

    def test_hand_built_state_reaches_vertex(self):
        net = build_random((2, 3, 1), seed=1)
        x, opts = np.array([0.3, -0.2]), SolverOptions()
        state = SolverState(net=net, x=x, s=activation_pattern(net, x),
                            pinv=PseudoInverse.empty(2), options=opts, rng=opts.make_rng())
        assert find_vertex(state) is None
        assert state.pinv.m == 2

    def test_flat_region_still_reaches_vertex(self, net_hinge_gap):
        # gradient is zero below both folds; random fallbacks must pin walls
        state = initialize(net_hinge_gap, [-3.0, -4.0])
        out = find_vertex(state)
        assert out is None
        assert state.pinv.m == 2

    def test_redraws_count_against_max_steps(self):
        # f is flat at x and every draw lies in null(W1), so each projects to zero; the
        # redraws are counted as steps, and the solve ends StepLimit instead of spinning
        class NullDraws:
            calls = 0

            def standard_normal(self, size):
                self.calls += 1
                assert self.calls < 1000, "redraws never end"
                return np.array([0.0, 1.0])

        net = ReluNetwork([[[1.0, 0.0], [2.0, 0.0]], [[1.0, 1.0]]], [[0.0, 0.0], [0.0]])
        x, opts = np.array([-1.0, 0.5]), SolverOptions(max_steps=5)
        state = SolverState(net=net, x=x, s=activation_pattern(net, x),
                            pinv=PseudoInverse.empty(2), options=opts, rng=NullDraws())
        out = find_vertex(state)
        assert (out.status, out.steps, state.rng.calls) == (STEP_LIMIT, 5, 5)

    def test_flat_mirror_ray_resamples(self):
        # W1's second row is below ZERO_TOL as a rate but above DEP_TOL in the SVD: f is
        # flat along x2, a ray there and its mirror meet no wall, and the solve draws again
        net = ReluNetwork([[[0.01, 0.0], [0.0, 5e-10]], [[1.0, 1.0]]], [[0.0, 0.0], [0.0]])
        out = drlsimplex(net, [0.5, 1.0], SolverOptions(seed=0, max_steps=20))
        assert out.steps <= 20

    # Two solves whose gradient dwarfs any unit-scale draw: each runs in a child process with
    # a time limit, so redraws that never end fail the test instead of hanging the suite.
    SCALED_QUANTILE = """
        rng = np.random.Generator(np.random.Philox(1))
        x = rng.standard_normal((5000, 10))
        y = x @ rng.standard_normal(10) + rng.laplace(size=5000)
        net, _ = drlp.build_quantile_lasso(drlp.RegressionData(x, y))
        k = 2.0 ** 35     # exact; |grad| is 6e13 at x0, and 1e-12 |grad| dwarfed every unit-scale draw
        net = drlp.ReluNetwork([net.weights[0], k * net.weights[1]], [net.biases[0], k * net.biases[1]],
                               k * net.off_weights)
        x0 = np.full(11, 0.1)
    """
    POLYNOMIAL_QUANTILE = """
        rng = np.random.default_rng(4)
        t = rng.uniform(0.0, 1.0, 2000)
        x = np.column_stack([(10.0 * t) ** k for k in range(1, 15)])
        y = np.sin(6.0 * t) + 0.1 * rng.laplace(size=2000)
        net, _ = drlp.build_quantile_lasso(drlp.RegressionData(x, y))
        x0 = np.zeros(15)
    """

    @pytest.mark.parametrize("setup", [SCALED_QUANTILE, POLYNOMIAL_QUANTILE], ids=["scaled", "polynomial"])
    def test_badly_scaled_quantile_ends_within_max_steps(self, setup):
        code = "import json\nimport numpy as np\nimport drlp\n" + textwrap.dedent(setup) + textwrap.dedent("""
            out = drlp.drlsimplex(net, x0, drlp.SolverOptions(seed=0, max_steps=100))
            print(json.dumps([out.status, out.steps]))
        """)
        try:
            done = run_python("-c", code, timeout=60)
        except subprocess.TimeoutExpired:
            pytest.fail("the solve was still running after 60 s")
        assert done.returncode == 0, done.stderr
        status, steps = json.loads(done.stdout)
        assert status in (LOCAL_MINIMUM, NON_REGULAR, STEP_LIMIT) and steps <= 100


class TestSolverOptions:
    def test_non_callable_on_record_rejected(self):
        with pytest.raises(ValueError, match="on_record must be callable or None, got 'x'"):
            SolverOptions(seed=0, on_record="x")
        assert SolverOptions(on_record=print).on_record is print

    @pytest.mark.parametrize("steps", [0.5, "3"])
    def test_non_integer_max_steps_rejected(self, steps):
        with pytest.raises(ValueError, match=f"max_steps: {steps!r} is not an integer"):
            drlsimplex(build_random((2, 4, 1), seed=0), [1.0, 1.0], SolverOptions(max_steps=steps))

    def test_negative_max_steps_rejected(self):
        with pytest.raises(ValueError, match="max_steps must be nonnegative, got -1"):
            SolverOptions(max_steps=-1)
        assert SolverOptions(max_steps=3.0).max_steps == 3 and type(SolverOptions(max_steps=3.0).max_steps) is int

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be nonnegative, got -1"),
        (1.5, "seed: 1.5 is not an integer"),
        ("3", "seed: '3' is not an integer"),
        (None, "seed: None is not an integer"),
    ])
    def test_bad_seed_rejected_where_it_enters(self, seed, message):
        # numpy would refuse it only once a solve seeds its generator, naming no argument
        with pytest.raises(ValueError, match=re.escape(message)):
            SolverOptions(seed=seed)

    @pytest.mark.parametrize("flag", [True, np.True_, np.array(True)])
    def test_boolean_max_steps_and_seed_rejected(self, flag):
        # True == int(True), so without a type check a flag would run as 1
        for name in ("max_steps", "seed"):
            with pytest.raises(ValueError, match=re.escape(f"{name}: {flag!r} is not an integer")):
                SolverOptions(**{name: flag})

    def test_seed_is_a_generator_or_a_nonnegative_integer(self):
        rng = np.random.Generator(np.random.Philox(4))
        assert SolverOptions(seed=rng).make_rng() is rng
        for seed in (7, 7.0, np.int64(7)):
            opts = SolverOptions(seed=seed)
            assert type(opts.seed) is int and opts.seed == 7
            assert opts.make_rng().standard_normal() == np.random.Generator(np.random.Philox(7)).standard_normal()


class TestChooseAxis:
    UNPRICED, FLAT = np.full(2, np.inf), np.zeros((2, 2))

    def test_frozen_pick(self):
        pinv = PseudoInverse(np.eye(2), np.eye(2), [0, 1])
        row, alpha, i = choose_axis(pinv, np.array([-1.0, 2.0]), self.UNPRICED, self.FLAT)
        assert i == 0 and alpha == pytest.approx(-1.0)
        assert_allclose(row, [1.0, 0.0])

    def test_normalization_matters(self):
        pinv = PseudoInverse(np.diag([10.0, 1.0]), np.diag([0.1, 1.0]), [0, 1])
        # raw products would favor row 0; per-unit-length slope favors row 1
        row, alpha, i = choose_axis(pinv, np.array([-1.0, -2.0]), self.UNPRICED, self.FLAT)
        assert i == 1 and alpha == pytest.approx(-2.0)

    def test_priced_crossing_wins(self):
        pinv = PseudoInverse(np.eye(2), np.eye(2), [0, 1])
        # in-region edges ascend (1, 2); crossing wall 0 with gain 0 gives 0 - 1
        row, alpha, i = choose_axis(pinv, np.array([1.0, 2.0]), np.array([0.0, np.inf]), self.FLAT)
        assert i == 2 and alpha == pytest.approx(-1.0)
        assert_allclose(row, [-1.0, 0.0])

    def test_tie_goes_to_the_in_region_edge(self):
        pinv = PseudoInverse(np.eye(2), np.eye(2), [0, 1])
        # edge P_0 and the crossing -P_0 both have derivative -1
        row, alpha, i = choose_axis(pinv, np.array([-1.0, 2.0]), np.array([-2.0, np.inf]), self.FLAT)
        assert i == 0 and alpha == pytest.approx(-1.0)
        assert_allclose(row, [1.0, 0.0])

    def test_bent_crossing_takes_the_bent_row(self):
        pinv = PseudoInverse(np.eye(2), np.eye(2), [0, 1])
        # crossing wall 0 bends wall 1 by its normal: row 0 becomes -(P_0 + P_1), and the
        # derivative (3 - 1 - 1 * 1)/sqrt(2) loses the bent wall's multiplier too
        bend = np.array([[0.0, 0.0], [1.0, 0.0]])
        edges, vals = axis_derivatives(pinv, np.array([1.0, 1.0]), np.array([3.0, np.inf]), bend)
        assert_allclose(edges, [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [0.0, -1.0]])
        assert_allclose(vals, [1.0, 1.0, 1.0 / np.sqrt(2.0), np.inf])


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

    @pytest.mark.parametrize("seed", range(5))
    def test_forced_drift_rebuild_keeps_the_outcome(self, seed, monkeypatch):
        # the drift rebuild is the only rebuild after a pivot; with a zero
        # tolerance it runs after every pivot and must change nothing
        rng = np.random.Generator(np.random.Philox(seed))
        x = rng.standard_normal((120, 3))
        y = 1.0 + x @ rng.standard_normal(3) + rng.laplace(size=120)
        net, pairs = build_quantile_lasso(RegressionData(x, y))
        plain = drlsimplex(net, np.zeros(4), SolverOptions(seed=seed), pairs)
        calls = Counter()
        real = drlp.solver.refresh_pseudoinverse
        monkeypatch.setattr(drlp.solver, "refresh_pseudoinverse",
                            lambda state: calls.update(["refresh"]) or real(state))
        monkeypatch.setattr(drlp.solver, "DRIFT_REFRESH_TOL", 0.0)
        forced = drlsimplex(net, np.zeros(4), SolverOptions(seed=seed), pairs)
        assert calls["refresh"] > 0
        assert plain.status == LOCAL_MINIMUM
        assert (forced.status, forced.steps) == (plain.status, plain.steps)
        assert forced.f == pytest.approx(plain.f, rel=1e-12)


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
        # find_vertex and pivot records take f from their step's arguments; the rest evaluate
        swept = sum(r.phase in ("flip", "certify", "correct", "resync") for r in out.trace)
        assert swept < len(out.trace) and len(calls) == swept + 1

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


def _stale_vertex(stale):
    """Vertex state at the origin whose non-owner unit 2 claims the wrong side by stale.

    f(x) = -relu(x1) + relu(x2) + 0.5 relu(-x1 - stale) + 2 relu(x1 - 1).  Units
    0 and 1 own the walls through the origin, and the edge along +x1 descends.
    Unit 2's argument is -stale at the origin and falls along that edge, but
    its bit 1 claims it positive, so the line search meets its wall at
    t = -stale.  The minimum is f = -1 on the half line x1 = 1, x2 <= 0.
    """
    w1 = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]])
    net = ReluNetwork([w1, np.array([[-1.0, 1.0, 0.5, 2.0]])],
                      [np.array([0.0, 0.0, -stale, -1.0]), np.zeros(1)])
    s = np.array([1, 1, 1, 0], dtype=np.uint8)
    opts = SolverOptions()
    return SolverState(net=net, x=np.zeros(2), s=s, pinv=dense_basis(net, s, [0, 1]),
                       options=opts, rng=opts.make_rng())


class TestResync:
    def test_stale_bit_is_flipped_in_place(self):
        state = _stale_vertex(1e-7)
        x0, f0 = state.x.copy(), state.value()
        out = drlp.solver._pivot_loop(state)
        resync = [rec for rec in out.trace if rec.phase == "resync"]
        assert len(resync) == 1 and resync[0].neuron == 2
        assert resync[0].t == pytest.approx(-1e-7, rel=1e-9)
        assert resync[0].x == tuple(x0) and resync[0].f == f0
        assert out.status == LOCAL_MINIMUM
        assert_allclose(out.x, [1.0, 0.0], atol=1e-12)
        assert out.f == evaluate(state.net, out.x) == pytest.approx(-1.0, abs=1e-12)

    def test_bit_past_resync_tol_aborts(self):
        out = drlp.solver._pivot_loop(_stale_vertex(1e-4))
        assert out.status == NON_REGULAR and out.neurons == [2] and type(out.neurons[0]) is int
        assert not [rec for rec in out.trace if rec.phase == "resync"]

    def test_failed_rebuild_names_the_stop_wall_and_the_leaving_owner(self, monkeypatch):
        # the edge along +x1 leaves owner 0; the resync rebuilds over owner 1, then owner 0
        seen = []

        def fail(state):
            seen.append(list(state.pinv.owners))
            raise Degenerate("refresh_pseudoinverse")

        monkeypatch.setattr(drlp.solver, "refresh_pseudoinverse", fail)
        out = drlp.solver._pivot_loop(_stale_vertex(1e-7))
        assert (out.status, out.neurons, seen) == (NON_REGULAR, [2, 0], [[1, 0]])
        assert not [rec for rec in out.trace if rec.phase == "resync"]

    def test_abort_names_units_of_the_state_net(self):
        # no unit map stands between the net a state solves and its outcome: the
        # stop wall is that net's unit (1, 3), named by its flat index as a Python int
        state = _stale_vertex(1e-4)
        out = drlp.solver._pivot_loop(state)
        assert [state.net.neuron_at(c) for c in out.neurons] == [(1, 3)]
        assert [type(c) for c in out.neurons] == [int]


# solver-level function -> (exception it raises, flat units of the folded net
# the NonRegular outcome must name, read off the call's arguments)
_ABORTS = {
    "add_axis": (drlp.solver, Degenerate, lambda pinv, u, c: list(pinv.owners) + [c]),
    "refresh_pseudoinverse": (drlp.solver, Degenerate, lambda state: list(state.pinv.owners)),
}
# the (layer, unit) names in the folded net of the units each abort in TestAborts reports
_ABORT_NAMES = {"add_axis": [(2, 11)], "refresh_pseudoinverse": [(2, 11), (1, 12)]}


class TestAborts:
    @pytest.mark.parametrize("name", list(_ABORTS))
    def test_abort_names_units_of_the_folded_net(self, name, monkeypatch):
        # find_vertex adds axes and a drifted pivot rebuilds (forced by a zero
        # tolerance); each exit must report the failing units of the folded net
        # the solve runs on, as Python ints
        module, exc, named = _ABORTS[name]
        culprits = []

        def fail(*args):
            culprits.append(named(*args))
            raise exc(name)

        monkeypatch.setattr(module, name, fail)
        monkeypatch.setattr(drlp.solver, "DRIFT_REFRESH_TOL", 0.0)
        # CLAD with interleaved mirrors: folded layer-2 unit j is the net's unit 2j - 1 there;
        # at seed 16 the first find_vertex wall is residual unit (2, 11), the net's (2, 21)
        rng = np.random.Generator(np.random.Philox(16))
        x = rng.standard_normal((12, 2))
        y = np.maximum(x @ [1.0, -0.5], 0.0) + 0.3 * rng.standard_normal(12)
        net, pairs = interleaved_clad(RegressionData(x, y))
        folded = pairs.fold(net)
        out = drlsimplex(net, rng.standard_normal(2), SolverOptions(seed=16), pairs)
        assert out.status == NON_REGULAR and len(culprits) == 1
        assert out.neurons == [int(c) for c in culprits[0]] and all(type(c) is int for c in out.neurons)
        assert [folded.neuron_at(c) for c in out.neurons] == _ABORT_NAMES[name]
        assert_allclose(relu_arguments(folded, out.x)[out.neurons], 0.0, atol=1e-9)


def _parallel_stop_vertex():
    """Vertex state at the origin whose pivot stops at a wall parallel to the owner that stays.

    f(x) = relu(relu(x1) - relu(x2) + relu(eps - x1 - eps x2) + 10), eps = 5e-9.
    Units 0 and 1 own the walls x1 = 0 and x2 = 0, and the edge along +x2,
    which leaves owner 1, descends fastest.  Unit 2's wall meets that edge
    at t = 1 with rate -eps, past ZERO_TOL, and a first-layer wall ends the
    long step; but its normal lies within eps of owner 0's, under DEP_TOL.
    """
    eps = 5e-9
    w1 = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -eps]])
    net = ReluNetwork([w1, np.array([[1.0, -1.0, 1.0]]), np.array([[1.0]])],
                      [np.array([0.0, 0.0, eps]), np.array([10.0]), np.zeros(1)])
    s = np.ones(4, dtype=np.uint8)
    opts = SolverOptions()
    return SolverState(net=net, x=np.zeros(2), s=s, pinv=dense_basis(net, s, [0, 1]),
                       options=opts, rng=opts.make_rng())


def _solve_ac5():
    return [(out.status, out.steps) for out in
            (drlsimplex(net, x0, SolverOptions(seed=seed)) for net, x0, seed in ac5_runs())]


def _solver_states(monkeypatch):
    """The SolverState of every drlsimplex solve from here on, the current one last."""
    states, real = [], drlp.solver.initialize
    monkeypatch.setattr(drlp.solver, "initialize", lambda *args: states.append(real(*args)) or states[-1])
    return states


# the basis operations, which take every normal from their caller
BASIS_UPDATES = ("project", "add_axis", "exchange_axis", "remove_pseudorow", "update_axis_new_region")


def _assert_basis(pinv, net, s):
    """The kept normals are the owners' re-swept under s, and P A' = I, both to 1e-9."""
    rows = normal_matrices(net, s)[pinv.owners]
    want = np.where(s[pinv.owners, None] == 1, rows, -rows)
    assert np.all(np.linalg.norm(pinv.normals - want, axis=1) <= 1e-9 * np.linalg.norm(want, axis=1))
    assert np.max(np.abs(pinv.matrix @ pinv.normals.T - np.eye(pinv.m)), initial=0.0) <= 1e-9


class TestPivotUpdate:
    """The pivot's one basis exchange against the three updates it replaced."""

    def test_exchange_matches_the_reference_on_deep_nets(self, monkeypatch):
        bends, states = [], _solver_states(monkeypatch)
        real = drlp.solver.exchange_axis

        def checked(pinv, i, u, c, bend):
            got = real(pinv, i, u, c, bend)
            ref = pivot_update_reference(pinv, i, states[-1].net, states[-1].s, c)
            assert got.owners == ref.owners
            assert np.max(np.abs(got.matrix - ref.matrix)) <= 1e-10 * np.max(np.abs(ref.matrix))
            assert np.max(np.abs(got.normals - ref.normals)) <= 1e-10 * np.max(np.abs(ref.normals))
            # flipping c bent the wall of an owner behind it
            bends.append(bend.any())
            return got

        monkeypatch.setattr(drlp.solver, "exchange_axis", checked)
        _solve_ac5()
        assert len(bends) > 100 and sum(bends) >= 10

    def test_ac5_outcomes_match_the_reference_pivots(self, monkeypatch):
        want = _solve_ac5()
        states = _solver_states(monkeypatch)
        monkeypatch.setattr(drlp.solver, "exchange_axis", lambda pinv, i, u, c, bend:
                            pivot_update_reference(pinv, i, states[-1].net, states[-1].s, c))
        assert _solve_ac5() == want
        assert {status for status, _ in want} == {LOCAL_MINIMUM, UNBOUNDED}

    def test_one_crossing_terms_per_vertex_and_no_sweep_in_the_exchange(self, monkeypatch):
        # the crossing_terms a pivot takes its bend column from prices the next vertex,
        # so the exchange makes no full sweep of its own, and no basis update sweeps at all
        calls, inside = Counter(), Counter()

        def spy(module, name):
            real = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                calls[name, "in exchange_axis"] += inside["exchange_axis"]
                calls[name, "in a basis update"] += sum(inside[b] for b in BASIS_UPDATES)
                inside[name] += 1
                try:
                    return real(*args, **kwargs)
                finally:
                    inside[name] -= 1

            monkeypatch.setattr(module, name, wrapped)

        for module, name in ((drlp.solver, "crossing_terms"), (drlp.solver, "certify_local_min"),
                             (drlp.primitives, "inner_products_all"), (drlp.network, "_forward"),
                             (drlp.network, "_backward")):
            spy(module, name)
        for name in BASIS_UPDATES:
            for module in (drlp.solver, drlp.primitives):
                if hasattr(module, name):
                    spy(module, name)
        _solve_ac5()
        _train_l1(50, 1)
        assert calls["exchange_axis"] > 300 and calls["inner_products_all"] > 0
        assert calls["crossing_terms"] == calls["certify_local_min"]
        assert calls["inner_products_all", "in exchange_axis"] == 0
        assert min(calls["project"], calls["add_axis"], calls["update_axis_new_region"]) > 0
        assert calls["_forward"] > 0 and calls["_backward"] > 0
        assert calls["_forward", "in a basis update"] == calls["_backward", "in a basis update"] == 0

    def test_kept_normals_match_a_sweep_after_every_update(self, monkeypatch):
        # nothing else reads A after find_vertex, so a wrong bend would go unseen
        states, seen = _solver_states(monkeypatch), Counter()

        def after_update(name):
            real = getattr(drlp.solver, name)

            def checked(*args):
                out = real(*args)
                _assert_basis(out, states[-1].net, states[-1].s)
                seen[name] += 1
                return out

            monkeypatch.setattr(drlp.solver, name, checked)

        def after_state(name):
            real = getattr(drlp.solver, name)

            def checked(state, *args):
                before = state.s.copy()
                out = real(state, *args)
                if not isinstance(out, SolveOutcome):
                    _assert_basis(state.pinv, state.net, state.s)
                    seen[name] += 1
                    seen["flips"] += not np.array_equal(before, state.s)
                return out

            monkeypatch.setattr(drlp.solver, name, checked)

        for name in ("add_axis", "exchange_axis"):
            after_update(name)
        for name in ("certify_local_min", "refresh_pseudoinverse"):
            after_state(name)
        for net, x0, seed in ac5_runs():
            drlsimplex(net, x0, SolverOptions(seed=seed))
        for topo in DEEP_TOPOLOGIES:
            for seed in range(20):
                _deep_solve(topo, seed)
        _train_l1(50, 1)
        assert seen["add_axis"] > 200 and seen["exchange_axis"] > 500 and seen["flips"] > 100
        # a stale bit resyncs, and a zero drift tolerance refreshes after every pivot
        refreshes = seen["refresh_pseudoinverse"]
        states.append(_stale_vertex(1e-7))
        out = drlp.solver._pivot_loop(states[-1])
        assert [r.phase for r in out.trace].count("resync") == seen["refresh_pseudoinverse"] - refreshes == 1
        monkeypatch.setattr(drlp.solver, "DRIFT_REFRESH_TOL", 0.0)
        _train_l1(50, 1)
        assert seen["refresh_pseudoinverse"] - refreshes > 100

    def test_dependent_stop_wall_names_the_remaining_owners_and_the_wall(self):
        out = drlp.solver._pivot_loop(_parallel_stop_vertex())
        assert [(rec.phase, rec.neuron, rec.t) for rec in out.trace] == [("pivot", 2, 1.0)]
        assert out.status == NON_REGULAR and out.neurons == [0, 2] and all(type(c) is int for c in out.neurons)


def _probe(net, x, s, pinv, **options):
    """certify_local_min on a state pinned at x; returns (result, state)."""
    state = SolverState(net=net, x=np.asarray(x, dtype=float), s=s, pinv=pinv,
                        options=SolverOptions(**options))
    return certify_local_min(state, gradient(net, s), crossing_terms(net, s, pinv.owners)), state


class TestCertification:
    def test_frozen_axis_sweep(self, net_hinge_gap):
        net = net_hinge_gap
        s, pinv = _vertex_state(net, [[1, 1], [1]], [1, 2])
        assert_allclose(pinv.matrix, [[1.0, 1.0], [1.0, 0.0]], atol=1e-12)
        # crossing first-layer wall 1, whose output f reads with weight -1, bends owner 2's
        # wall by -1 times its normal: row 0 becomes -(P_0 - P_1) and its edge is priced
        # (-1 - 0 + 1)/1; owner 2's gain 1 is exactly its multiplier mu = 1
        gains, bend = crossing_terms(net, s, pinv.owners)
        assert_allclose(gains, [-1.0, 1.0])
        assert_allclose(bend, [[0.0, 0.0], [-1.0, 0.0]])
        edges, vals = axis_derivatives(pinv, gradient(net, s), gains, bend)
        assert_allclose(edges, [[1.0, 1.0], [1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]], atol=1e-12)
        assert_allclose(vals, [0.0, 1.0, 0.0, 0.0], atol=1e-12)
        out, state = _probe(net, [1.0, 0.0], s, pinv)
        # no edge descends, so x is certified where it is, with no flip
        assert [(r.phase, r.step, r.neuron) for r in state.trace] == [("certify", 0, None)]
        assert state.trace[0].alpha == pytest.approx(0.0, abs=1e-12)
        assert out.status == LOCAL_MINIMUM and out.steps == state.steps == 0
        assert state.s.tolist() == [1, 1, 1]

    def test_certifies_true_minimum(self, net_hinge_gap):
        s, pinv = _vertex_state(net_hinge_gap, [[1, 1], [1]], [1, 2])
        out, _ = _probe(net_hinge_gap, [1.0, 0.0], s, pinv)
        assert out.status == LOCAL_MINIMUM

    def test_rejects_saddle_vertex(self, net_hinge_gap_negated):
        s, pinv = _vertex_state(net_hinge_gap_negated, [[1, 1], [1]], [1, 2])
        edge, state = _probe(net_hinge_gap_negated, [1.0, 0.0], s, pinv)
        row, alpha, i, descent_tol = edge
        # x's own region descends along owner 2's edge; the state stays there
        assert i == 1 and alpha == pytest.approx(-1.0) and alpha < -descent_tol
        assert_allclose(row, [1.0, 0.0])
        assert state.trace == [] and state.s.tolist() == [1, 1, 1]

    def test_free_subspace_blocks_certification(self, net_fold_sum, tmp_path, capsys):
        # only one wall active at (5, 5): its edge and the region across it
        # do not descend, but the free direction does, so check refuses
        net = net_fold_sum
        x = np.array([5.0, 5.0])
        s = activation_pattern(net, x)
        pinv = add_axis(PseudoInverse.empty(2), oriented_normal(net, s, 0), 0)
        assert _probe(net, x, s, pinv)[0].status == LOCAL_MINIMUM
        save_model(tmp_path / "fold.json", net)
        assert drlp.cli.main(["check", "--model", str(tmp_path / "fold.json"), "--x", "5,5"]) == 2
        assert json.loads(capsys.readouterr().out)["certified"] is False

    def test_step_records_count_up_in_both_solvers(self, certified_corpus):
        # a find_vertex, flip or pivot record carries the step count after its own step
        quadratic = [out for *_, out, _ in certified_corpus]
        simplex = [drlsimplex(build_random((3, 6, 6, 1), seed=100 + seed),
                              np.random.default_rng(seed).standard_normal(3), SolverOptions(seed=seed))
                   for seed in range(8)]
        for outs in (quadratic, simplex):
            assert any(r.phase == "flip" for out in outs for r in out.trace)
            for out in outs:
                steps = [r.step for r in out.trace if r.phase in ("find_vertex", "flip", "pivot")]
                assert all(a < b for a, b in zip(steps, steps[1:])), steps

    def test_step_limit_after_a_crossing_flip(self):
        # find_vertex twice, then the crossing of first-layer wall 0, which
        # bends owner 4's wall, and its pivot; units 0-2 are the first layer
        net = build_random((2, 3, 2, 1), seed=17)
        x0 = np.random.Generator(np.random.Philox(17)).uniform(-2.0, 2.0, 2)
        full = drlsimplex(net, x0, SolverOptions(seed=17))
        assert full.status == LOCAL_MINIMUM and full.steps == 4
        assert [(r.phase, r.neuron) for r in full.trace] == [
            ("find_vertex", 0), ("find_vertex", 4), ("flip", 0), ("pivot", 2), ("certify", None)]
        # the flip record carries the derivative of the edge its pivot takes
        assert full.trace[2].alpha == full.trace[3].alpha < 0.0
        # limit 3 ends on the crossing flip's record, before its pivot
        for limit in range(1, full.steps):
            out = drlsimplex(net, x0, SolverOptions(seed=17, max_steps=limit))
            assert out.status == STEP_LIMIT and out.steps == limit
            assert out.trace == full.trace[:limit]


def _vertices(net, x0, seed, pairs=PairGroups(), max_steps=10_000):
    """(outcome, [(x, s, pinv) at every certify_local_min call]) of one drlsimplex solve."""
    seen, real = [], drlp.solver.certify_local_min

    def spy(state, grad, terms):
        seen.append((state.x.copy(), state.s.copy(), PseudoInverse(
            state.pinv.matrix.copy(), state.pinv.normals.copy(), list(state.pinv.owners))))
        return real(state, grad, terms)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(drlp.solver, "certify_local_min", spy)
        out = drlsimplex(net, x0, SolverOptions(seed=seed, max_steps=max_steps), pairs)
    return out, seen


def _crossing_corpus():
    for topo in ((3, 8, 1), (3, 4, 8, 1), (3, 4, 4, 8, 1)):
        for seed in range(40):
            x0 = np.random.Generator(np.random.Philox(seed)).standard_normal(3)
            yield build_random(topo, seed=seed), PairGroups(), x0, seed
    for seed in range(4):
        rng = np.random.Generator(np.random.Philox(seed))
        x = rng.standard_normal((60, 3))
        y = 1.0 + x @ [1.0, -0.5, 0.25] + rng.laplace(size=60)
        yield (*build_quantile_lasso(RegressionData(x, y), alpha=0.3 + 0.1 * seed), np.zeros(4), seed)


class TestCrossingPrice:
    """The closed-form price of every crossing edge against the flip that it replaced."""

    def test_closed_form_matches_the_flipped_region(self):
        # the corpus solves in full, and the first vertices of train-l1 at N=50
        runs = [(*item, 10_000) for item in _crossing_corpus()]
        runs += [(*_train_l1_problem(50, seed), seed, 36) for seed in (1, 2, 3)]
        priced = Counter()
        for net, pairs, x0, seed, max_steps in runs:
            folded = pairs.fold(net)
            for _, s, pinv in _vertices(net, x0, seed, pairs, max_steps)[1]:
                g = gradient(folded, s)
                edges, vals = axis_derivatives(pinv, g, *crossing_terms(folded, s, pinv.owners))
                for k, c in enumerate(pinv.owners):
                    # the old route: flip, rebuild the row, take the new gradient
                    s2 = flip(s, c)
                    row = sweep_row_rebuild(pinv, k, folded, s2, oriented_normal(folded, s2, c)).matrix[k]
                    old = (row @ gradient(folded, s2)) / np.linalg.norm(row)
                    k += pinv.m
                    assert abs(vals[k] - old) <= 1e-10 * (1.0 + np.linalg.norm(g)), (seed, c)
                    assert np.linalg.norm(edges[k] - row) <= 1e-10 * np.linalg.norm(row), (seed, c)
                    priced[net.depth, bool(c < folded.offsets[-2])] += 1
        # (depth, earlier-layer owner) -> crossings priced
        assert min(priced[1, False], priced[2, False], priced[3, False], priced[2, True]) >= 15
        assert priced[3, True] >= 100 and priced[4, True] >= 300, priced

    def test_steepest_edge_crosses_a_first_layer_wall(self):
        # the CLAD of TestAborts at Philox(1): the first vertex descends fastest across
        # first-layer wall (1, 5); pricing only last-layer crossings pivoted on (2, 7) at
        # -0.06 first and took 5 steps
        rng = np.random.Generator(np.random.Philox(1))
        x = rng.standard_normal((12, 2))
        y = np.maximum(x @ [1.0, -0.5], 0.0) + 0.3 * rng.standard_normal(12)
        net, pairs = interleaved_clad(RegressionData(x, y))
        x0 = np.random.Generator(np.random.Philox(1)).standard_normal(2)
        out = drlsimplex(net, x0, SolverOptions(seed=1), pairs)
        first = next(r for r in out.trace if r.phase != "find_vertex")
        assert (first.phase, net.neuron_at(first.neuron)) == ("flip", (1, 5))
        assert first.alpha == pytest.approx(-3.0455, abs=1e-4)
        assert out.status == LOCAL_MINIMUM and out.steps == 4

    def test_minima_hold_along_every_edge(self):
        minima = 0
        for net, pairs, x0, seed in _crossing_corpus():
            out, seen = _vertices(net, x0, seed, pairs)
            if out.status != LOCAL_MINIMUM:
                continue
            x, _, pinv = seen[-1]
            assert np.array_equal(x, out.x)
            tol = 1e-12 * (1.0 + abs(out.f))
            for row in pinv.matrix:
                for sign in (1.0, -1.0):
                    assert evaluate(net, x + sign * 1e-7 * row / np.linalg.norm(row)) >= out.f - tol
            minima += 1
        assert minima >= 16


DEEP_TOPOLOGIES = ((3, 8, 1), (4, 6, 6, 1), (5, 8, 8, 6, 1), (3, 10, 10, 1))


def _deep_solve(topo, seed):
    net = build_random(topo, seed=seed)
    x0 = np.random.Generator(np.random.Philox(1000 + seed)).standard_normal(topo[0])
    return net, drlsimplex(net, x0, SolverOptions(seed=seed, max_steps=3000))


class TestDeepRandomNets:
    """Every vertex priced over all 2m edges, on nets up to four hidden layers deep."""

    def test_minima_hold_against_a_probe_and_rays_fall(self):
        statuses = Counter()
        for topo in DEEP_TOPOLOGIES:
            for seed in range(20):
                net, out = _deep_solve(topo, seed)
                statuses[out.status] += 1
                if out.status == UNBOUNDED:
                    assert evaluate(net, out.x + 1e3 * out.direction) < out.f - 1e-6, (topo, seed)
                    continue
                assert out.status == LOCAL_MINIMUM, (topo, seed, out.status)
                best = probe_min(net, out.x, radius=1e-6, samples=2000, seed=seed)
                assert best >= out.f - 1e-12 * (1.0 + abs(out.f)), (topo, seed)
        assert statuses[LOCAL_MINIMUM] >= 8


class TestStepArguments:
    """The line search's arguments stand in for the sweeps a step's record and correction made."""

    def test_step_arguments_match_a_fresh_sweep(self):
        # alpha + t beta against subjective_arguments at x + t v under the search's pattern,
        # and at the stop under the pattern with the crossed and stop walls' bits flipped
        rng = np.random.Generator(np.random.Philox(31))
        crossed = early_stops = 0
        for topo in DEEP_TOPOLOGIES:
            for seed in range(20):
                net = build_random(topo, seed=seed)
                x = rng.uniform(-2.0, 2.0, size=topo[0])
                v = rng.standard_normal(topo[0])
                s = (activation_pattern(net, x) if seed % 2
                     else rng.integers(0, 2, size=net.num_neurons).astype(np.uint8))
                slope = float(gradient(net, s) @ v)
                if slope > 0.0:
                    v, slope = -v, -slope
                res = advance_max(net, x, v, s, slope=slope)
                stops = [(res.t, flip(s, np.append(res.crossed, res.neuron)))] if res.bounded else []
                for t, after in [(0.0, s), (0.5, s), (4.0, s)] + stops:
                    fresh = subjective_arguments(net, after, x + t * v)
                    gap = np.abs(res.at(t) - fresh)
                    assert np.all(gap <= 1e-12 * (1.0 + np.abs(fresh))), (topo, seed, t, gap.max())
                crossed += res.crossed.size
                early_stops += res.bounded and res.neuron < net.offsets[-2]
        assert crossed > 20 and early_stops > 20

    @staticmethod
    def _solves(problem):
        """(net, objective or None, outcome) of a few solves of one problem family."""
        if problem == "random":
            for topo in DEEP_TOPOLOGIES:
                for seed in range(5):
                    net, out = _deep_solve(topo, seed)
                    yield net, None, out
            return
        if problem == "train_l1":
            net, pairs, start = _train_l1_problem(20, 1)
            yield net, None, drlsimplex(net, start, SolverOptions(seed=0), pairs)
            return
        for seed in range(8 if problem == "lasso" else 4):     # lasso from zero takes few steps
            rng = np.random.Generator(np.random.Philox(seed))
            x = rng.standard_normal((60, 3))
            data = RegressionData(x, 1.0 + x @ [1.0, -0.5, 0.25] + rng.laplace(size=60))
            if problem == "lasso":
                net, q, pairs = build_lasso(data, lam=5.0)
                yield net, q, solve_quadratic(net, q, np.zeros(3), SolverOptions(seed=seed), pairs)
                continue
            net, pairs = (build_quantile_lasso(data, alpha=0.3, lam=0.5) if problem == "quantile"
                          else build_clad(data))
            x0 = np.zeros(net.input_dim) if problem == "quantile" else rng.standard_normal(3)
            yield net, None, drlsimplex(net, x0, SolverOptions(seed=seed), pairs)

    @pytest.mark.parametrize("problem", ["quantile", "clad", "lasso", "train_l1", "random"])
    def test_step_records_match_a_fresh_evaluation(self, problem):
        records = 0
        for net, q, out in self._solves(problem):
            for rec in out.trace:
                if rec.phase in ("find_vertex", "pivot"):
                    ref = evaluate(net, np.array(rec.x)) + (0.0 if q is None else q.value(rec.x))
                    assert abs(rec.f - ref) <= 1e-12 * (1.0 + abs(ref)), (rec.step, rec.f - ref)
                    records += 1
        assert records >= 10

    def test_owners_stay_within_the_drift_bound_after_each_pivot(self, monkeypatch):
        # the pivot loop corrects x from the step's arguments, not a sweep; a fresh sweep at
        # every vertex it prices must still find each owner's wall within the drift bound,
        # and those residuals must not trip the rebuild that would hide a wrong correction
        real, vertices = drlp.solver.certify_local_min, []
        rebuild, rebuilds = drlp.solver.refresh_pseudoinverse, []

        def checked(state, *args):
            r = argument_residuals(state.pinv, state.net, state.s, state.x)
            bound = drlp.solver.DRIFT_REFRESH_TOL * (1.0 + float(np.max(np.abs(state.x))))
            assert np.max(np.abs(r), initial=0.0) <= bound, (state.steps, r)
            vertices.append(state.steps)
            return real(state, *args)

        monkeypatch.setattr(drlp.solver, "certify_local_min", checked)
        monkeypatch.setattr(drlp.solver, "refresh_pseudoinverse",
                            lambda state: rebuilds.append(state.steps) or rebuild(state))
        for topo in DEEP_TOPOLOGIES:
            for seed in range(10):
                _deep_solve(topo, seed)
        _train_l1(50, 1)
        _descent_solve("quantile", 3)
        assert len(vertices) > 300 and len(rebuilds) < 5


class TestRankDeficientFirstLayer:
    """f depends on x only through W1 x, so a vertex pins rank(W1) < input_dim walls."""

    @pytest.mark.parametrize("topo", [(4, 2, 1), (5, 3, 1)])
    def test_ends_at_a_minimum_or_a_falling_ray(self, topo, tmp_path, capsys):
        minima = 0
        for seed in range(10):
            net = build_random(topo, seed=seed)
            x0 = np.random.Generator(np.random.Philox(1000 + seed)).standard_normal(topo[0])
            out = drlsimplex(net, x0, SolverOptions(seed=0, max_steps=3000))
            if out.status == UNBOUNDED:
                assert evaluate(net, out.x + 1e3 * out.direction) < out.f - 1e-6
                continue
            assert out.status == LOCAL_MINIMUM
            minima += 1
            assert probe_min(net, out.x, radius=1e-6, samples=500, seed=seed) >= out.f - 1e-12
            save_model(tmp_path / "net.json", net)
            x = ",".join(map(repr, out.x.tolist()))
            assert drlp.cli.main(["check", "--model", str(tmp_path / "net.json"), "--x=" + x]) == 0
            assert json.loads(capsys.readouterr().out)["certified"] is True
        assert minima > 0

    def test_zero_first_layer_is_certified_where_it_starts(self):
        # rank 0: f is constant, no wall can be pinned and no edge exists
        net = ReluNetwork([np.zeros((2, 3)), np.ones((1, 2))], [np.ones(2), np.zeros(1)])
        out = drlsimplex(net, [1.0, 2.0, 3.0], SolverOptions(seed=0))
        assert out.status == LOCAL_MINIMUM and out.f == 2.0
        assert [(r.phase, r.alpha) for r in out.trace] == [("certify", None)]


class TestQuadratic:
    def test_value_and_grad(self):
        q = QuadraticObjective(np.array([[2.0, 0.0], [0.0, 1.0]]),
                               np.array([1.0, -1.0]), 3.0)
        x = np.array([1.0, 2.0])
        assert q.value(x) == pytest.approx(2 + 4 + 1 - 2 + 3)
        assert_allclose(q.grad(x), [4 + 1, 4 - 1])

    def test_arrays_are_read_only_copies(self):
        # a write after construction would skip the finiteness check, so it raises instead
        quad, lin = np.array([[2.0, 1.0], [0.5, 1.0]]), np.array([1.0, -1.0])
        q = QuadraticObjective(quad, lin)
        quad[0, 0] = lin[0] = np.nan
        assert np.isfinite(q.quad).all() and np.isfinite(q.lin).all()
        for a in (q.quad, q.lin, q.hess):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = np.nan
        assert q.hess.tobytes() == (q.quad + q.quad.T).tobytes()
        x = np.array([0.3, -2.0])
        assert q.grad(x).tobytes() == ((q.quad + q.quad.T) @ x + q.lin).tobytes()

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
        # three steps end at the top of the descent loop, not in certify_local_min
        out = solve_quadratic(net, q, [0.0, 0.0], SolverOptions(max_steps=3))
        assert (out.status, out.steps) == (STEP_LIMIT, 3)
        assert [rec.phase for rec in out.trace] == ["pivot", "flip", "pivot"]

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
        statuses = []
        for topo, seed, net, q, out in _random_net_corpus():
            statuses.append(out.status)
            if out.status == LOCAL_MINIMUM:
                best = probe_min(net, out.x, radius=1e-6, samples=2000, extra=q.value)
                assert best >= out.f - 1e-12 * (1.0 + abs(out.f)), (topo, seed)
        assert statuses.count(STEP_LIMIT) <= 5

    def test_zero_quadratic_solves_like_drlsimplex(self):
        # with no curvature a face's Newton matrix is singular, though Cholesky may pass it
        # by roundoff; the step then falls back to the projection
        for seed in range(8):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([2, seed])))
            x = rng.standard_normal((60, 3))
            data = RegressionData(x, 1.0 + x @ np.linspace(1.0, -1.0, 3) + rng.laplace(size=60))
            for alpha, lam in ((0.5, 0.0), (0.3, 0.0), (0.5, 2.0), (0.7, 0.5)):
                net, pairs = build_quantile_lasso(data, alpha=alpha, lam=lam)
                d, opts = net.input_dim, SolverOptions(seed=seed, max_steps=3000)
                zero = QuadraticObjective(np.zeros((d, d)), np.zeros(d))
                out = solve_quadratic(net, zero, np.zeros(d), opts, pairs)
                assert out.status == LOCAL_MINIMUM, (seed, alpha, lam)
                want = drlsimplex(net, np.zeros(d), opts, pairs).f
                assert out.f == pytest.approx(want, rel=1e-9), (seed, alpha, lam)

    def test_dependent_walls_end_non_regular(self):
        # relu(x1) + relu(x2) + relu(x1 + x2) + |x|^2: three walls meet at the
        # minimum in two dimensions, so their multipliers are not unique and
        # no closed-form certificate applies
        net = ReluNetwork([np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.ones((1, 3))],
                          [np.zeros(3), np.zeros(1)])
        out = solve_quadratic(net, QuadraticObjective(np.eye(2), np.zeros(2)), [0.0, 0.0])
        assert out.status == NON_REGULAR
        assert out.x.tolist() == [0.0, 0.0] and out.steps == 0 and out.trace == []
        assert out.neurons == [0, 1, 2] and all(type(c) is int for c in out.neurons)

    def test_step_that_meets_two_walls_holds_both(self, monkeypatch):
        # relu(x1 - 1) + relu(x2 - 1) + |x - 3|^2 from 0: the Newton step reaches both walls at
        # x = (1, 1) at once, so no bend holds either; the next pass's NNLS holds both, since
        # -g crosses both, and no sync holds any wall
        net = ReluNetwork([np.eye(2), np.ones((1, 2))], [-np.ones(2), np.zeros(1)])
        q = QuadraticObjective(np.eye(2), np.full(2, -6.0), 18.0)
        holds, hold = [], drlp.solver.add_axis
        monkeypatch.setattr(drlp.solver, "add_axis", lambda basis, u, c: holds.append(
            (sys._getframe(1).f_code.co_name, c)) or hold(basis, u, c))
        out = solve_quadratic(net, q, [0.0, 0.0])
        assert [(r.phase, r.neuron) for r in out.trace][:1] == [("pivot", 0)]
        assert out.trace[0].x == (1.0, 1.0)
        assert holds == [("_feasible_direction", 0), ("_feasible_direction", 1)]
        assert out.status == LOCAL_MINIMUM
        assert_allclose(out.x, [2.5, 2.5], atol=1e-12)

    def test_step_tolerance_is_below_descent_tolerance(self):
        # an inside edge that certify_local_min finds descending, below -DESCENT_TOL (1 + |g|),
        # makes a projection that long; the pass after it steps, so the loop cannot stall
        assert drlp.solver.STEP_TOL < drlp.solver.DESCENT_TOL
        g = np.array([3.0, 4.0])
        assert drlp.solver._steps(np.array([0.0, 6.0 * drlp.solver.DESCENT_TOL]), g)

    def test_wall_outside_last_layer_is_priced(self):
        # 2 relu(relu(x) + 1) + x^2 - x is least at x = 0, the first-layer
        # wall, whose crossing gain 2 comes from crossing_terms: no flip
        net = ReluNetwork([np.array([[1.0]]), np.array([[1.0]]), np.array([[2.0]])],
                          [np.zeros(1), np.ones(1), np.zeros(1)])
        out = solve_quadratic(net, QuadraticObjective(np.eye(1), -np.ones(1)), [3.0])
        assert out.status == LOCAL_MINIMUM
        assert out.x[0] == pytest.approx(0.0, abs=1e-12)
        assert [r.phase for r in out.trace] == ["pivot", "certify"]

    def test_degenerate_vertex_returns_a_status(self):
        # censored LAD through the origin: all 60 first-layer walls meet at
        # theta = 0, in three dimensions, so the start is left NonRegular; dependent
        # walls have no start side to price, so x0 and its pattern stay as they are
        for seed in (22, *range(20)):
            rng = np.random.Generator(np.random.Philox(seed))
            x = rng.standard_normal((60, 3))
            y = np.maximum(x @ np.array([1.0, -0.5, 0.8]), 0.0) + 0.2 * rng.standard_normal(60)
            net, pairs = build_clad(RegressionData(x, y))
            folded, kept = pairs.fold(net), folded_units(net, pairs)
            walls, _ = critical_indices(folded, activation_pattern(folded, np.zeros(3)), np.zeros(3))
            assert len(walls) == 60
            q = QuadraticObjective(0.01 * np.eye(3), np.zeros(3))
            out = solve_quadratic(net, q, np.zeros(3), SolverOptions(seed=0, max_steps=500), pairs)
            assert (out.status, out.steps, out.trace) == (NON_REGULAR, 0, []), seed
            assert out.x.tobytes() == np.zeros(3).tobytes() and out.f == evaluate(net, np.zeros(3))
            assert out.neurons == kept[walls].tolist() and all(type(c) is int for c in out.neurons)

    @pytest.mark.parametrize("quad, lin, const, message", [
        (np.ones(2), np.ones(2), 0.0, "quad must be a square matrix; got shape (2,)"),
        (np.ones((2, 3)), np.ones(2), 0.0, "quad must be a square matrix; got shape (2, 3)"),
        (np.eye(2), np.ones(3), 0.0, "lin must have shape (2,) to match quad (2, 2); got shape (3,)"),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2), 0.0,
         "quad [1, 2] is nan; the quadratic objective must be finite"),
        (np.eye(2), np.array([0.0, np.inf]), 0.0, "lin [2] is inf; the quadratic objective must be finite"),
        (np.eye(2), np.ones(2), -np.inf, "const is -inf; the quadratic objective must be finite"),
        (np.eye(2), np.ones(2), np.array([1.0, 2.0]), "const must be one real number; got array([1., 2.])"),
        (np.eye(2), np.ones(2), "3", "const must be one real number; got '3'"),
        (np.eye(2), np.ones(2), None, "const must be one real number; got None"),
    ])
    def test_bad_objective_is_rejected(self, quad, lin, const, message):
        with pytest.raises(ValueError) as err:
            QuadraticObjective(quad, lin, const)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("const", [True, np.True_])
    def test_boolean_const_rejected(self, const):
        with pytest.raises(ValueError, match=re.escape(f"const must be one real number; got {const!r}")):
            QuadraticObjective(np.eye(2), np.ones(2), const)

    def test_const_is_stored_as_a_float(self):
        for const in (3, np.int64(3), np.float32(3.0)):
            q = QuadraticObjective(np.eye(2), np.ones(2), const)
            assert type(q.const) is float and q.const == 3.0
            out = solve_quadratic(build_random((2, 3, 1), seed=0), q, np.zeros(2))
            assert type(out.f) is float and all(type(r.f) is float for r in out.trace)

    def test_objective_of_another_dimension_is_rejected(self):
        net = build_random((3, 4, 1), seed=0)
        with pytest.raises(ValueError, match=r"lin has shape \(2,\) but the network takes shape \(3,\)"):
            solve_quadratic(net, QuadraticObjective(np.eye(2), np.ones(2)), np.zeros(3))


BENCH_BETA = np.array([3.0, -2.5, 2.0, -1.5, 1.2, -1.0, 0.8, -0.6, 0.5, -0.4])


def _random_net_corpus(collect_trace=False):
    """The 60 quadratic solves on random nets: (topo, seed, net, q, outcome).

    20 seeds each of three topologies; the quadratic is 0.2 A'A + 0.1 I
    with A and then x0 drawn from one Philox(seed) stream.
    """
    for topo in ((3, 8, 8, 1), (4, 12, 1), (5, 10, 10, 10, 1)):
        n = topo[0]
        for seed in range(20):
            net = build_random(topo, seed=seed)
            rng = np.random.Generator(np.random.Philox(seed))
            a = rng.standard_normal((n, n))
            q = QuadraticObjective(0.2 * a.T @ a + 0.1 * np.eye(n), np.zeros(n))
            out = solve_quadratic(net, q, rng.standard_normal(n),
                                  SolverOptions(max_steps=3000, collect_trace=collect_trace))
            yield topo, seed, net, q, out


@pytest.fixture(scope="module")
def certified_corpus():
    """The traced 60-net corpus: (net, q, outcome, [(s, owners) at each certification]).

    s and owners are the state certify_local_min was called with: the
    pattern before any flip and the walls its rows cover.
    """
    solves, seen = [], []

    def certify_spy(state, grad, terms):
        seen.append((state.s.copy(), list(state.pinv.owners)))
        return certify_local_min(state, grad, terms)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(drlp.solver, "certify_local_min", certify_spy)
        for _, _, net, q, out in _random_net_corpus(collect_trace=True):
            solves.append((net, q, out, seen[:]))
            seen.clear()
    return solves


def _bench_lasso_problem(k):
    """(data, lam) of LASSO solve k (n=500, p=40) of the benchmark's seed 7."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([7, 3, k // 3])))
    x = rng.standard_normal((500, 40))
    data = RegressionData(x, x[:, :10] @ BENCH_BETA + rng.standard_normal(500))
    return data, (0.3, 0.1, 0.03)[k % 3] * 2.0 * float(np.max(np.abs(x.T @ data.y)))


@pytest.fixture(scope="module")
def bench_lasso_solves():
    """The 18 LASSO solves of the benchmark's seed 7, with their problems."""
    solves = []
    for k in range(18):
        net, q, pairs = build_lasso(*_bench_lasso_problem(k))
        out = solve_quadratic(net, q, np.zeros(40), SolverOptions(seed=k), pairs)
        solves.append((net, q, pairs, out))
    return solves


def _certificate_residual_at(net, pairs, q, x):
    """BVLS residual of the local model at x, with crossing gains read off the output weights.

    net and pairs are a mirrored reference; the gain of a pair is the sum of its
    members' output weights.  Returns the residual, the gradient and the active
    units, named in net.
    """
    folded, kept = pairs.fold(net), folded_units(net, pairs)
    s = activation_pattern(folded, x)
    active, normals = critical_indices(folded, s, x)
    norms = np.linalg.norm(normals, axis=1)
    units = kept[active].tolist()
    w, second = net.weights[-1][0], dict(zip(pairs.first.tolist(), pairs.second.tolist()))
    kappa = np.array([w[c] + w[second[c]] for c in units])
    g = q.grad(x) + gradient(folded, s)
    return certificate_residual(g, normals / norms[:, None], kappa * norms), g, units


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
        for k, (_, q, _, out) in enumerate(bench_lasso_solves):
            assert out.trace[-1].phase == "certify"
            resid, g, active = _certificate_residual_at(*mirrored_lasso(*_bench_lasso_problem(k)), q, out.x)
            assert active
            assert resid <= 1e-9 * (1.0 + np.linalg.norm(g))

    def test_violated_bound_is_crossed(self, bench_lasso_solves):
        net, q, pairs, out = bench_lasso_solves[1]
        reference = mirrored_lasso(*_bench_lasso_problem(1))
        _, g, active = _certificate_residual_at(*reference, q, out.x)
        c = active[len(active) // 2]
        j = int(np.flatnonzero(net.weights[0][c])[0])
        lam = float(net.weights[0][c, j])
        # the wall theta_j = 0 with g_j = 2.01 lam: the multiplier exceeds the
        # crossing gain 2 lam, so moving theta_j below zero descends
        lin = q.lin.copy()
        lin[j] += 2.01 * lam - g[j]
        nudged = QuadraticObjective(q.quad, lin)
        resid, _, _ = _certificate_residual_at(*reference, nudged, out.x)
        assert resid >= 0.005 * lam
        again = solve_quadratic(net, nudged, out.x, SolverOptions(seed=0), pairs)
        # out.x sits on the wall, so the start takes its far side: the first step already
        # moves theta_j below zero, and no certification has to flip c
        assert again.trace[0].phase == "pivot" and again.trace[0].x[j] < 0.0
        assert not [r for r in again.trace if (r.phase, r.neuron) == ("flip", c)]
        assert again.status == LOCAL_MINIMUM
        assert again.x[j] < 0.0
        assert again.f < nudged.value(out.x) + evaluate(net, out.x)


def _solve_with_start_side(net, q, x0, options, pairs=PairGroups()):
    """(outcome, the pattern at its first _sync): the side of each wall through x0 the solve starts on."""
    states, sides, sync = [], [], drlp.solver._sync

    class Spied(SolverState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

    def spy(basis, walls, unit):
        sides.append(states[-1].s.copy())
        return sync(basis, walls, unit)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(drlp.solver, "SolverState", Spied)
        mp.setattr(drlp.solver, "_sync", spy)
        out = solve_quadratic(net, q, x0, options, pairs)
    return out, sides[0]


class TestStartSide:
    """solve_quadratic prices the walls through x0 once and starts across each descending last-layer one."""

    def test_bench_lasso_starts_across_exactly_the_walls_with_lin_above_lam(self):
        # at theta = 0 each |theta_j| takes its bit-1 side, slope lam + lin_j along theta_j > 0;
        # across its wall the slope is lam - lin_j, which descends, and more steeply, iff lin_j > lam
        crossed = 0
        for k in range(18):
            data, lam = _bench_lasso_problem(k)
            net, q, pairs = build_lasso(data, lam)
            assert np.min(np.abs(q.lin - lam)) > 1e-6 * lam      # no coordinate within the descent tolerance
            out, side = _solve_with_start_side(net, q, np.zeros(40), SolverOptions(seed=k), pairs)
            assert out.status == LOCAL_MINIMUM
            assert np.flatnonzero(side == 0).tolist() == np.flatnonzero(q.lin > lam).tolist(), k
            crossed += int(np.count_nonzero(q.lin > lam))
        assert crossed >= 18

    def test_bench_lasso_ends_where_a_start_off_every_wall_ends(self, bench_lasso_solves):
        # a start off every wall has nothing to price, so it takes the path without the start rule
        for k, (net, q, pairs, out) in enumerate(bench_lasso_solves):
            x0 = np.random.Generator(np.random.Philox(100 + k)).standard_normal(40)
            assert not critical_indices(net, activation_pattern(net, x0), x0)[0]
            off = solve_quadratic(net, q, x0, SolverOptions(seed=k), pairs)
            assert (out.status, off.status) == (LOCAL_MINIMUM, LOCAL_MINIMUM)
            assert abs(out.f - off.f) <= 1e-12 * abs(off.f), (k, out.f - off.f)

    def test_deep_net_keeps_an_earlier_layer_walls_bit(self):
        # f = relu(x1) + 1 + relu(x2) + |x|^2 / 2 - 2 x1 - 3 x2 near 0 through two hidden layers:
        # x0 = 0 is on unit 0's first-layer wall x1 = 0 and on unit 3's last-layer wall x2 = 0,
        # both at bit 0, and crossing either descends more steeply than its inside edge
        net = ReluNetwork([np.eye(2), np.eye(2), np.ones((1, 2))],
                          [np.array([0.0, 5.0]), np.array([1.0, -5.0]), np.zeros(1)])
        q = QuadraticObjective(0.5 * np.eye(2), np.array([-2.0, -3.0]))
        x0 = np.zeros(2)
        s = activation_pattern(net, x0)
        walls, normals = critical_indices(net, s, x0)
        g = gradient(net, s) + q.grad(x0)
        inside, across = axis_derivatives(dense_pseudoinverse(normals, walls), g,
                                          *crossing_terms(net, s, walls))[1].reshape(2, -1)
        assert s.tolist() == [0, 1, 1, 0] and walls == [0, 3] and (across < np.minimum(inside, 0.0)).all()
        out, side = _solve_with_start_side(net, q, x0, SolverOptions(seed=0))
        # unit 3 starts across its wall; unit 0 keeps its bit until the certificate flips it
        assert side.tolist() == [0, 1, 1, 1]
        assert [(r.phase, r.neuron) for r in out.trace if r.phase == "flip"] == [("flip", 0)]
        assert out.status == LOCAL_MINIMUM
        assert_allclose(out.x, [1.0, 2.0], atol=1e-12)
        assert out.f == pytest.approx(-1.5, abs=1e-12)


class TestCrossingCertificate:
    """solve_quadratic certifies through certify_local_min: the steepest of all 2m edges, or certify."""

    def test_records_take_the_steepest_edge_and_a_difference(self, certified_corpus):
        points = bent = signed = 0
        for net, q, out, seen in certified_corpus:
            # each certification emits one flip or certify record, at its x
            records = [r for r in out.trace if r.phase in ("flip", "certify")]
            assert len(records) == len(seen)
            for rec, (s, owners) in zip(records, seen):
                x = np.array(rec.x)
                active, normals = critical_indices(net, s, x)
                assert sorted(owners) == active       # the rows cover every active wall
                g, m = q.grad(x) + gradient(net, s), len(active)
                if not m:       # nothing to price: g vanished off every wall
                    assert (rec.phase, rec.alpha) == ("certify", None)
                    continue
                gains, bend = crossing_terms(net, s, active)
                edges, vals = axis_derivatives(dense_pseudoinverse(normals, active), g, gains, bend)
                k = int(np.argmin(vals))
                assert rec.alpha == pytest.approx(vals[k], rel=0.0, abs=1e-12 * (1.0 + np.linalg.norm(g)))
                if vals[k] < -drlp.solver.DESCENT_TOL * (1.0 + np.linalg.norm(g)):
                    assert k >= m and (rec.phase, rec.neuron) == ("flip", active[k - m])
                else:
                    assert rec.phase == "certify"
                # f + q just across each wall, along its crossing edge
                f0 = evaluate(net, x) + q.value(x)
                edge_norms = np.linalg.norm(edges[m:], axis=1)
                for k in np.flatnonzero(np.abs(vals[m:]) > 1e-4):
                    y = x + 1e-7 * edges[m + k] / edge_norms[k]
                    assert np.sign(evaluate(net, y) + q.value(y) - f0) == np.sign(vals[m + k])
                    signed += 1
                points += 1
                bent += bool(bend.any())
        assert points >= 300 and bent >= 150 and signed >= 500, (points, bent, signed)

    def test_every_flip_is_followed_by_a_falling_pivot(self, certified_corpus):
        flips = 0
        for *_, out, _ in certified_corpus:
            assert out.status == LOCAL_MINIMUM
            for a, b in zip(out.trace, out.trace[1:]):
                if a.phase == "flip":
                    assert (b.phase, b.step) == ("pivot", a.step + 1) and b.f < a.f, a.step
                    flips += 1
        assert flips >= 250


def _train_l1_problem(n, seed):
    """(net, pairs, start): first-layer L1 training of build_random((4,5,4,2,1), seed=1).

    X (n x 4) and then y are standard normal draws from Philox(seed); the
    start is the base's own first layer.
    """
    base = build_random((4, 5, 4, 2, 1), seed=1)
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.standard_normal((n, 4))
    return (*build_l1_first_layer(base, RegressionData(x, rng.standard_normal(n))),
            flatten_first_layer(base))


def _train_l1(n, seed, max_steps=10_000):
    net, pairs, start = _train_l1_problem(n, seed)
    return drlsimplex(net, start, SolverOptions(seed=0, max_steps=max_steps), pairs)


def _descent_solve(kind, seed):
    """Quantile (alpha 0.3, lambda 0.5, n=60, p=3) from zero, or a random net of topology kind."""
    rng = np.random.Generator(np.random.Philox(seed))
    if kind == "quantile":
        x = rng.standard_normal((60, 3))
        y = 1.0 + x @ [1.0, -0.5, 0.25] + rng.laplace(size=60)
        net, pairs = build_quantile_lasso(RegressionData(x, y), alpha=0.3, lam=0.5)
        return drlsimplex(net, np.zeros(4), SolverOptions(seed=seed), pairs)
    return drlsimplex(build_random(kind, seed=seed), rng.standard_normal(kind[0]),
                      SolverOptions(seed=seed))


class TestDescentOracle:
    @pytest.mark.parametrize("kind", ["quantile", (3, 8, 1), (4, 6, 6, 1)],
                             ids=["quantile", "3-8-1", "4-6-6-1"])
    def test_no_record_rises_and_pivots_between_crossings_fall_by_alpha_t(self, kind):
        # f is linear along a pivot that crosses no wall, so its drop is its slope times its length
        for seed in range(20):
            trace = _descent_solve(kind, seed).trace
            for a, b in zip(trace, trace[1:]):
                assert b.f <= a.f + 1e-12 * (1.0 + abs(b.f)), (seed, b.step, b.f - a.f)
                if b.phase == "pivot" and b.crossed == 0:
                    gap = b.f - a.f - b.alpha * b.t
                    assert abs(gap) <= 1e-10 * (1.0 + abs(b.f)), (seed, b.step, gap)

    def test_train_l1_never_rises(self):
        # the rank-one exchange keeps every record at or below the one before
        out = _train_l1(100, 11)
        assert out.status == LOCAL_MINIMUM
        for a, b in zip(out.trace, out.trace[1:]):
            assert b.f <= a.f + 1e-12 * (1.0 + abs(b.f)), (b.step, b.phase, b.f - a.f)

    def test_train_l1_leaves_its_degenerate_vertices(self):
        # all 50 walls of a hidden unit meet where its parameters are zero;
        # the solve leaves those vertices by roundoff, not by an anti-cycling rule
        out = _train_l1(50, 5, max_steps=2000)
        assert out.status == LOCAL_MINIMUM


class TestDegenerateQuantile:
    def test_integer_design_matches_highs(self):
        # X in {-1, 0, 1} and y in {-2..2}: many residual walls meet at each vertex
        steps = []
        for seed in range(50):
            rng = np.random.Generator(np.random.Philox(seed))
            x = rng.integers(-1, 2, (80, 3)).astype(float)
            y = rng.integers(-2, 3, 80).astype(float)
            net, pairs = build_quantile_lasso(RegressionData(x, y))
            out = drlsimplex(net, np.zeros(4), SolverOptions(seed=seed), pairs)
            assert out.status == LOCAL_MINIMUM, seed
            want = quantile_linprog(np.hstack([np.ones((80, 1)), x]), y)
            assert out.f == pytest.approx(want, rel=1e-12, abs=1e-12), seed
            steps.append(out.steps)
        assert np.median(steps) <= 16


class TestWorkingSet:
    """solve_quadratic's one working set against dense pseudoinverses, step by step."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """After every _sync: A holds the held walls' unit normals, P A' = I and P = pinv(A')."""
        seen = Counter()
        sync, dense = drlp.solver._sync, drlp.solver.dense_pseudoinverse

        def checked_sync(basis, walls, unit):
            basis = sync(basis, walls, unit)
            assert np.array_equal(basis.normals, unit[basis.owners])
            assert np.max(np.abs(basis.matrix @ basis.normals.T - np.eye(basis.m)), initial=0.0) <= 1e-9
            want = np.linalg.pinv(basis.normals.T)
            assert np.max(np.abs(basis.matrix - want), initial=0.0) <= \
                1e-10 * np.max(np.abs(want), initial=0.0)
            seen["syncs"] += 1
            return basis

        monkeypatch.setattr(drlp.solver, "_sync", checked_sync)
        monkeypatch.setattr(drlp.solver, "dense_pseudoinverse",
                            lambda *a: seen.update(["rebuilds"]) or dense(*a))
        return seen

    def test_bench_lasso_rows_match_dense_and_build_once(self, bench_lasso_solves, checked, monkeypatch):
        passes = _stepping_passes(monkeypatch)
        for k, (net, q, pairs, want) in enumerate(bench_lasso_solves):
            checked.clear()
            passes.clear()
            out = solve_quadratic(net, q, np.zeros(40), SolverOptions(seed=k), pairs)
            assert (out.status, out.steps, out.x.tobytes()) == (want.status, want.steps, want.x.tobytes())
            assert checked["syncs"] >= passes["stepping"] > 0
            # the start's walls, priced, and its first face; no step rebuilds
            assert checked["rebuilds"] == 2

    def test_bench_lasso_face_changes_by_one_update(self, bench_lasso_solves, monkeypatch):
        # the start pricing hands the first projection its face, so it releases no wall; a step
        # that stops at one wall and meets no other holds it with one add_axis of its own, and the
        # sync after it has nothing left to do
        events = []     # per _sync and per record: ("sync", its caller) or ("record", it), then counts after it
        sync = drlp.solver._sync

        def spied_sync(*args):
            events.append(("sync", sys._getframe(1).f_code.co_name, Counter()))
            return sync(*args)

        def counted(update):
            def wrapper(*args):
                if events:
                    events[-1][2][update.__name__, sys._getframe(1).f_code.co_name] += 1
                return update(*args)
            return wrapper

        monkeypatch.setattr(drlp.solver, "_sync", spied_sync)
        for name in ("add_axis", "remove_pseudorow", "dense_pseudoinverse"):
            monkeypatch.setattr(drlp.solver, name, counted(getattr(drlp.solver, name)))
        stops = flips = 0
        for k, (net, q, pairs, want) in enumerate(bench_lasso_solves):
            del events[:]
            opts = SolverOptions(seed=k, on_record=lambda rec: events.append(("record", rec, Counter())))
            out = solve_quadratic(net, q, np.zeros(40), opts, pairs)
            assert (out.status, out.steps, out.x.tobytes()) == (want.status, want.steps, want.x.tobytes())
            assert events[0] == ("sync", "_feasible_direction", Counter())     # neither builds, holds nor releases
            for (kind, what, counts), (next_kind, caller, then) in zip(events, events[1:]):
                synced = {key: n for key, n in then.items() if key[1] == "_sync"}
                if kind == "record" and what.phase == "pivot" and what.neuron is not None:
                    assert counts == {("add_axis", "solve_quadratic"): 1}, (k, counts)
                    assert (next_kind, caller) != ("sync", "_feasible_direction") or synced == {}, (k, synced)
                    stops += 1
                if kind == "record" and what.phase == "flip" and (next_kind, caller) == ("sync", "_feasible_direction"):
                    assert synced == {}, (k, synced)      # the certification negated the flipped row
                    flips += 1
        assert stops >= 150 and flips >= 4

    def test_random_net_corpus_bending_flip_rebuilds_the_face_once(self, monkeypatch):
        # certify_local_min's flip is applied to the face at once: a flip that bends held walls
        # empties it, so the next sync is one dense build and releases nothing; any other flip
        # negates one row, and the next sync has nothing to do
        bends, flips, calls, certify, sync = [], [], [None], certify_local_min, drlp.solver._sync

        def certify_spy(state, grad, terms):
            s, out = state.s, certify(state, grad, terms)
            if state.s is not s and not isinstance(out, SolveOutcome):
                bends.append(bool(terms[1][:, out[2]].any()))
            return out

        def spied_sync(*args):
            calls[0] = Counter()
            basis = sync(*args)
            if len(flips) < len(bends):     # the first sync after a flip
                flips.append((bends[-1], calls[0]))
            calls[0] = None
            return basis

        def counted(update):
            def wrapper(*args):
                if calls[0] is not None:
                    calls[0][update.__name__] += 1
                return update(*args)
            return wrapper

        monkeypatch.setattr(drlp.solver, "certify_local_min", certify_spy)
        monkeypatch.setattr(drlp.solver, "_sync", spied_sync)
        for name in ("add_axis", "remove_pseudorow", "dense_pseudoinverse"):
            monkeypatch.setattr(drlp.solver, name, counted(getattr(drlp.solver, name)))
        assert {out.status for *_, out in _random_net_corpus()} == {LOCAL_MINIMUM}
        bent = [counts for bend, counts in flips if bend]
        assert len(bent) >= 50 and len(flips) - len(bent) >= 100
        for counts in bent:
            assert counts["dense_pseudoinverse"] == 1 and not counts["remove_pseudorow"], counts
        assert all(not counts for bend, counts in flips if not bend)

    def test_random_net_corpus_rows_match_dense(self, checked):
        outs = [out for *_, out in _random_net_corpus()]
        assert checked["syncs"] >= sum(out.steps > 0 for out in outs) > 50

    def test_sync_over_dependent_walls_is_the_empty_face(self):
        # the held wall 7 left; the two new walls are one, so the dense build raises Degenerate and
        # the face is empty with Z = I; NNLS holds what the projection needs from there
        basis = dense_pseudoinverse(np.eye(3)[:1], [7], True)
        unit = np.zeros((8, 3))
        unit[[2, 4]], unit[7] = [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]
        walls = np.array([2, 4])
        out = drlp.solver._sync(basis, walls, unit)
        assert out.m == 0 and out.owners == [] and np.array_equal(out.null, np.eye(3))
        rng, crossing = np.random.Generator(np.random.Philox(36)), 0
        for _ in range(20):
            g = rng.standard_normal(3)
            v, _, face = drlp.solver._feasible_direction(g, unit, walls, out, np.eye(3), True)
            assert np.max(np.abs(v - cone_projection_nnls(g, unit[walls]))) <= 1e-12 * (1.0 + np.linalg.norm(g))
            # one of the two walls is held exactly when -g crosses them
            assert face.owners == ([2] if g[1] > 0.0 else [])
            crossing += g[1] > 0.0
        assert 0 < crossing < 20

    @pytest.mark.parametrize("grad, bends", [((0.0, 3.0), True), ((3.0, -3.0), False)])
    def test_certification_flip_drops_z_only_when_it_bends_held_walls(self, net_hinge_gap, grad, bends):
        # net_hinge_gap's vertex (1, 0) on walls 1 (x2 = 0) and 2 (the second layer's), on a face over
        # their unit normals that keeps Z, as solve_quadratic's: with grad (0, 3) crossing wall 1,
        # which bends wall 2, descends most; with (3, -3) crossing wall 2, which bends none
        net, s, owners = net_hinge_gap, np.array([1, 1, 1], dtype=np.uint8), [1, 2]
        rows = np.array([oriented_normal(net, s, c) for c in owners])
        norms = np.zeros(net.num_neurons)
        norms[owners] = np.linalg.norm(rows, axis=1)
        face = dense_pseudoinverse(rows / norms[owners, None], owners, True)
        null = face.null
        state = SolverState(net=net, x=np.array([1.0, 0.0]), s=s, pinv=face, options=SolverOptions())
        _, alpha, i, _ = certify_local_min(state, np.array(grad), drlp.solver._unit_terms(net, s, owners, norms))
        assert [(r.phase, r.neuron) for r in state.trace] == [("flip", 1 if bends else 2)] and alpha < 0.0
        assert state.pinv is face and state.s[owners[i]] == 0
        assert np.max(np.abs(face.matrix @ face.normals.T - np.eye(2))) <= 1e-12
        assert face.null is None if bends else face.null is null

    @pytest.fixture
    def walls_checked(self, monkeypatch):
        """At every _sync: the walls and their unit rows solve_quadratic passes are critical_indices' at its s and x.

        The rows are normalized as the solver always has, by the einsum row norm; both checks are
        byte for byte.  Counts syncs, and normal_matrices calls per solve.
        """
        seen, states, sync, normal_matrices = Counter(), [], drlp.solver._sync, drlp.solver.normal_matrices

        class Spied(SolverState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                states.append(self)

        def checked_sync(basis, walls, unit):
            units, normals = critical_indices(states[-1].net, states[-1].s, states[-1].x)
            assert walls.tolist() == units
            want = normals / np.sqrt(np.einsum("ij,ij->i", normals, normals))[:, None]
            assert unit.shape[0] == states[-1].net.num_neurons
            assert unit[walls].shape == want.shape and unit[walls].tobytes() == want.tobytes()
            seen["syncs"] += 1
            seen["synced", states[-1].s.tobytes()] += 1
            return sync(basis, walls, unit)

        def counted(net, s):
            seen.update(["normal_matrices", ("swept", s.tobytes())])
            return normal_matrices(net, s)

        monkeypatch.setattr(drlp.solver, "SolverState", Spied)
        monkeypatch.setattr(drlp.solver, "_sync", checked_sync)
        monkeypatch.setattr(drlp.solver, "normal_matrices", counted)
        return seen

    def test_bench_lasso_walls_are_critical_indices(self, bench_lasso_solves, walls_checked, monkeypatch):
        passes = _stepping_passes(monkeypatch)
        for k, (net, q, pairs, want) in enumerate(bench_lasso_solves):
            walls_checked.clear()
            passes.clear()
            out = solve_quadratic(net, q, np.zeros(40), SolverOptions(seed=k), pairs)
            assert (out.status, out.steps, out.x.tobytes()) == (want.status, want.steps, want.x.tobytes())
            assert walls_checked["syncs"] >= passes["stepping"] > 0

    def test_random_net_corpus_walls_are_critical_indices(self, walls_checked):
        outs = [out for *_, out in _random_net_corpus()]
        assert walls_checked["syncs"] >= sum(out.steps > 0 for out in outs) > 50

    @staticmethod
    def _one_table_per_pattern(seen, x0_pattern):
        """The patterns swept for a wall table are x0's and those the solve synced at, each swept once."""
        swept = {key[1]: n for key, n in seen.items() if key[0] == "swept"}
        assert set(swept.values()) == {1}
        assert set(swept) == {key[1] for key in seen if key[0] == "synced"} | {x0_pattern.tobytes()}

    def test_one_wall_table_per_pattern(self, bench_lasso_solves, walls_checked):
        # the normals are swept for x0's pattern, for the start's side when it crosses a wall
        # through x0, and after each certification flip, never per step
        outs = []
        for k, (net, q, pairs, _) in enumerate(bench_lasso_solves):
            walls_checked.clear()
            outs.append(solve_quadratic(net, q, np.zeros(40), SolverOptions(seed=k), pairs))
            self._one_table_per_pattern(walls_checked, activation_pattern(net, np.zeros(40)))
            # every bench LASSO start has some lin_j > lam, so it starts across that wall
            assert walls_checked["normal_matrices"] == 2 + sum(r.phase == "flip" for r in outs[-1].trace)
        walls_checked.clear()
        for _, seed, net, _, out in _random_net_corpus(collect_trace=True):      # each solve runs before its yield
            rng = np.random.Generator(np.random.Philox(seed))
            rng.standard_normal((net.input_dim, net.input_dim))     # x0 follows the quadratic's draw
            self._one_table_per_pattern(walls_checked, activation_pattern(net, rng.standard_normal(net.input_dim)))
            assert walls_checked["normal_matrices"] == 1 + sum(r.phase == "flip" for r in out.trace)
            walls_checked.clear()
            outs.append(out)
        assert sum(r.phase == "flip" for out in outs for r in out.trace) > 100
        assert sum(out.steps for out in outs) > 3 * sum(r.phase == "flip" for out in outs for r in out.trace)

    def test_face_newton_system_only_for_a_step(self, bench_lasso_solves, monkeypatch):
        # both corpora are convex, so each face Newton system formed is one np.linalg.solve from
        # _feasible_direction, one per pass that steps: a bend forms none, and a certification
        # point takes no step and forms none
        formed, solve = Counter(), np.linalg.solve

        def counted(*args):
            formed[sys._getframe(1).f_code.co_name] += 1
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        passes, outs = _stepping_passes(monkeypatch), []
        for k, (net, q, pairs, _) in enumerate(bench_lasso_solves):
            formed.clear()
            passes.clear()
            outs.append(solve_quadratic(net, q, np.zeros(40), SolverOptions(seed=k), pairs))
            assert outs[-1].status == LOCAL_MINIMUM
            assert formed["_feasible_direction"] == passes["stepping"] > 0
        formed.clear()
        passes.clear()
        for *_, out in _random_net_corpus(collect_trace=True):      # each solve runs before its yield
            if out.status == LOCAL_MINIMUM:
                assert formed["_feasible_direction"] == passes["stepping"]
                outs.append(out)
            formed.clear()
            passes.clear()
        assert len(outs) > 40
        assert sum(r.phase == "certify" for out in outs for r in out.trace) > 50


def _pivots(out):
    return [rec for rec in out.trace if rec.phase == "pivot"]


def _stepping_passes(monkeypatch):
    """A Counter whose "stepping" counts the _feasible_direction calls whose projection solve_quadratic steps along."""
    passes, direction = Counter(), drlp.solver._feasible_direction

    def spied(g, *args):
        out = direction(g, *args)
        passes["stepping"] += drlp.solver._steps(out[0], g)
        return out

    monkeypatch.setattr(drlp.solver, "_feasible_direction", spied)
    return passes


def _step_log(monkeypatch):
    """(events, on_record, held): what solve_quadratic does between its projections and records.

    events gets ("pass", counts) at each _feasible_direction call and (record, counts) at each
    record on_record is given; counts are the add_axis, remove_pseudorow, dense_pseudoinverse and
    np.linalg.solve calls made after it, by (name, caller).  held gets each basis add_axis returns
    to solve_quadratic itself.
    """
    events, held, direction = [], [], drlp.solver._feasible_direction

    def counted(update, name):
        def wrapper(*args):
            caller = sys._getframe(1).f_code.co_name
            if events:
                events[-1][1][name, caller] += 1
            out = update(*args)
            if (name, caller) == ("add_axis", "solve_quadratic"):
                held.append(out)
            return out
        return wrapper

    def spied(*args):
        events.append(("pass", Counter()))
        return direction(*args)

    monkeypatch.setattr(drlp.solver, "_feasible_direction", spied)
    for name in ("add_axis", "remove_pseudorow", "dense_pseudoinverse"):
        monkeypatch.setattr(drlp.solver, name, counted(getattr(drlp.solver, name), name))
    monkeypatch.setattr(np.linalg, "solve", counted(np.linalg.solve, "solve"))
    return events, lambda rec: events.append((rec, Counter())), held


def _bends(events):
    """The (record, counts) of each pivot that a bend follows: a pivot record right after a pivot record."""
    return [(rec, counts) for (rec, counts), (after, _) in zip(events, events[1:])
            if "pass" not in (rec, after) and rec.phase == after.phase == "pivot"]


class TestBend:
    """A step that stops at a wall it alone meets holds it and goes on along its direction's projection."""

    @pytest.mark.parametrize("c3, last, minimizer", [
        (3.0, None, [0.0, 0.0, 2.0]),   # the second bend ends at its parabola's vertex
        (0.5, 2, [0.0, 0.0, 0.0]),      # the second bend stops at the last free wall, and holds it
    ])
    def test_newton_ray_through_two_walls_bends_twice(self, c3, last, minimizer, monkeypatch):
        # |theta - c|^2 + 2 |theta|_1 with c = (0.5, -0.5, c3), from (2, -3, 4), off every wall: the first
        # face is empty, and its Newton ray, toward (-0.5, 0.5, c3 - 1), meets theta_1 = 0 at
        # (0, -0.2, 4 - 0.8 (5 - c3)) and then theta_2 = 0 before its vertex; soft thresholding
        # gives the minimizer
        events, on_record, held = _step_log(monkeypatch)
        net, q, pairs = build_lasso(RegressionData(np.eye(3), np.array([0.5, -0.5, c3])), lam=2.0)
        out = solve_quadratic(net, q, [2.0, -3.0, 4.0], SolverOptions(on_record=on_record), pairs)
        assert out.status == LOCAL_MINIMUM
        assert_allclose(out.x, minimizer, atol=1e-12)
        assert [e if e == "pass" else (e.phase, e.neuron) for e, _ in events] == \
            ["pass", ("pivot", 0), ("pivot", 1), ("pivot", last), "pass", ("certify", None)]
        assert_allclose(out.trace[0].x, [0.0, -0.2, 4.0 - 0.8 * (5.0 - c3)], atol=1e-12)
        # one Newton system for the pass, and none in the bends or at the minimum
        assert sum(counts["solve", "_feasible_direction"] for _, counts in events) == 1
        assert [rec.neuron for rec, _ in _bends(events)] == [0, 1]
        assert all(counts == {("add_axis", "solve_quadratic"): 1} for _, counts in _bends(events))
        assert [basis.owners for basis in held] == [[0], [0, 1], [0, 1, 2]][:2 + (last is not None)]

    def test_bench_lasso_bends_hold_one_wall_and_never_rise(self, bench_lasso_solves, monkeypatch):
        events, on_record, held = _step_log(monkeypatch)
        bends = 0
        for k, (net, q, pairs, want) in enumerate(bench_lasso_solves):
            del events[:], held[:]
            out = solve_quadratic(net, q, np.zeros(40), SolverOptions(seed=k, on_record=on_record), pairs)
            assert (out.status, out.steps, out.x.tobytes()) == (want.status, want.steps, want.x.tobytes())
            # a certify or flip record's f is a fresh evaluate, which may round an ulp above the
            # step's arguments; a rise past that is a step that ascends
            fs = [rec.f for rec in out.trace]
            assert all(b <= a + 1e-15 * abs(a) for a, b in zip(fs, fs[1:])), k
            for rec, counts in _bends(events):
                # the bend's one basis update, and no release, rebuild or linear solve
                assert rec.neuron is not None and counts == {("add_axis", "solve_quadratic"): 1}, (k, counts)
                bends += 1
            for basis in held:      # within the checked fixture's tolerances
                assert np.max(np.abs(basis.matrix @ basis.normals.T - np.eye(basis.m)), initial=0.0) <= 1e-9
                assert np.max(np.abs(basis.normals @ basis.null), initial=0.0) <= 1e-9
        assert bends >= 100


class TestLongStep:
    def test_one_pivot_walks_to_the_median(self):
        # a single parameter (the intercept): from far left the vertex
        # search's one long step passes the 100 walls below the median
        rng = np.random.Generator(np.random.Philox(12))
        y = rng.standard_normal(201)
        data = RegressionData(np.zeros((201, 0)), y)
        net, pairs = build_quantile_lasso(data)
        out = drlsimplex(net, [-100.0], SolverOptions(seed=1), pairs)
        assert out.status == LOCAL_MINIMUM and out.steps == 1
        assert [(r.phase, r.crossed) for r in out.trace] == [("find_vertex", 100), ("certify", None)]
        assert out.x[0] == pytest.approx(np.median(y), rel=1e-12)
        assert out.f == pytest.approx(quantile_loss(data, out.x), rel=1e-12)

    @pytest.mark.parametrize("solve", ["drlsimplex", "solve_quadratic"])
    def test_pair_mask_is_built_once_per_solve(self, solve, monkeypatch):
        calls = Counter()
        mask = drlp.network.PairGroups.secondary_flat_mask
        monkeypatch.setattr(drlp.network.PairGroups, "secondary_flat_mask",
                            lambda *a: calls.update(["mask"]) or mask(*a))
        rng = np.random.Generator(np.random.Philox(16))
        data = _lasso_data(rng, 60, 12)
        if solve == "drlsimplex":
            built, reference = build_quantile_lasso(data, lam=1.0), mirrored_quantile(data, lam=1.0)
            run = lambda net, pairs: drlsimplex(net, np.zeros(net.input_dim), SolverOptions(seed=3), pairs)
        else:
            net, q, pairs = build_lasso(data, lam=20.0)
            built, reference = (net, pairs), mirrored_lasso(data, lam=20.0)
            run = lambda net, pairs: solve_quadratic(net, q, np.zeros(12), SolverOptions(seed=3), pairs)
        # a mirrored net folds once; a builder's net has no pairs to mask
        for (net, pairs), want in ((reference, {"mask": 1}), (built, {})):
            calls.clear()
            out = run(net, pairs)
            assert out.status == LOCAL_MINIMUM and len(_pivots(out)) > 5
            assert calls == want

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

    def test_realistic_size_quantile_matches_highs(self):
        # the median regression recipe at n=2000, p=10, from zero: the vertex
        # search's long steps reach HiGHS's optimum in at most 67 steps
        rng = np.random.Generator(np.random.Philox(1))
        x = rng.standard_normal((2000, 10))
        y = x @ rng.standard_normal(10) + rng.laplace(size=2000)
        net, pairs = build_quantile_lasso(RegressionData(x, y))
        out = drlsimplex(net, np.zeros(11), SolverOptions(), pairs)
        assert out.status == LOCAL_MINIMUM and out.steps <= 67
        want = quantile_linprog(np.hstack([np.ones((2000, 1)), x]), y)
        assert out.f == pytest.approx(want, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 80), p=st.integers(1, 4),
           alpha=st.floats(0.1, 0.9))
    def test_random_quantile_problems_match_linprog(self, seed, n, p, alpha):
        rng = np.random.Generator(np.random.Philox(seed))
        x = rng.standard_normal((n, p))
        y = 1.0 + x @ rng.standard_normal(p) + rng.laplace(size=n)
        net, pairs = build_quantile_lasso(RegressionData(x, y), alpha=alpha)
        out = drlsimplex(net, np.zeros(p + 1), SolverOptions(), pairs)
        assert out.status == LOCAL_MINIMUM
        design = np.hstack([np.ones((n, 1)), x])
        assert out.f == pytest.approx(quantile_linprog(design, y, alpha), rel=1e-8)

    def test_records_name_walls_of_the_folded_net(self):
        # the mirrored LP's objective pair is units 0 and 1, so its folded unit c is unit
        # c + 1 of the mirrored net for c >= 1; records name the folded units, as on the
        # builder's net, and each stop wall vanishes at its record's x
        rng = np.random.Generator(np.random.Philox(17))
        lp = LpInstance(-rng.uniform(0.5, 1.5, 3), rng.uniform(0.1, 1.0, (4, 3)), rng.uniform(1.0, 2.0, 4))
        net, pairs = mirrored_lp(lp, penalty=10.0)
        folded, x0 = pairs.fold(net), rng.uniform(0.0, 1.0, 3)
        out = drlsimplex(net, x0, SolverOptions(seed=1), pairs)
        built = drlsimplex(build_from_lp(lp, penalty=10.0)[0], x0, SolverOptions(seed=1))
        assert out.status == LOCAL_MINIMUM
        assert [(r.phase, r.neuron) for r in out.trace] == [(r.phase, r.neuron) for r in built.trace]
        walls = [r for r in out.trace if r.phase in ("find_vertex", "pivot")]
        assert [r.neuron for r in walls] == [3, 2, 5, 7] and all(type(r.neuron) is int for r in walls)
        for r in walls:
            assert abs(relu_arguments(folded, np.array(r.x))[r.neuron]) <= 1e-9 * (1.0 + np.abs(r.x).max())

    def test_a_folded_net_solves_like_its_pairs(self):
        # folding again with no pairs must keep the two-slope units
        rng = np.random.Generator(np.random.Philox(18))
        net, pairs = build_quantile_lasso(_lasso_data(rng, 50, 12), alpha=0.3, lam=1.0)
        folded, kept = pairs.fold(net), folded_units(net, pairs)
        a = drlsimplex(net, np.zeros(13), SolverOptions(seed=1), pairs)
        b = drlsimplex(folded, np.zeros(13), SolverOptions(seed=1))
        assert (a.status, a.steps, a.x.tobytes(), a.f) == (b.status, b.steps, b.x.tobytes(), b.f)
        assert [r.neuron for r in a.trace] == [None if r.neuron is None else int(kept[r.neuron])
                                               for r in b.trace]

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

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_var=st.integers(2, 5), n_con=st.integers(2, 7))
    def test_random_lps_match_linprog_by_hypothesis(self, seed, n_var, n_con):
        # the ranges of test_random_lps_match_linprog, drawn from Philox(seed)
        rng = np.random.Generator(np.random.Philox(seed))
        lp = LpInstance(rng.uniform(-1.0, 1.0, n_var),
                        rng.uniform(0.1, 1.0, (n_con, n_var)),
                        rng.uniform(1.0, 2.0, n_con))
        want, dual = lp_linprog(lp)
        assume(dual < 50.0)              # the exact penalty below is large enough
        net, pairs = build_from_lp(lp, penalty=50.0)
        out = drlsimplex(net, rng.uniform(-1.0, 3.0, n_var), SolverOptions(seed=seed), pairs)
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
        assert sum(rec.crossed for rec in out.trace
                   if rec.phase in ("pivot", "find_vertex")) == crossed.size
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


def _direction(g, normals, hess=None):
    """_feasible_direction from an empty basis with walls named by row: (v, d, held rows, mu).

    mu is the returned face's multipliers P g by row, 0 off the face; hess defaults to I.
    """
    unit = normals / np.sqrt(np.einsum("ij,ij->i", normals, normals))[:, None]
    n = len(g)
    v, d, face = drlp.solver._feasible_direction(
        g, unit, np.arange(len(normals)), PseudoInverse.empty(n), np.eye(n) if hess is None else hess, False)
    mu = np.zeros(len(normals))
    mu[face.owners] = face.matrix @ g
    return v, d, face.owners, mu


class TestFeasibleDirection:
    """The working-set projection against NNLS, and the face Newton step against KKT."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_projection_matches_nnls(self, kind):
        independent = Counter()
        for g, normals, _ in _direction_cases(kind, 31, 300):
            v, _, _, mu = _direction(g, normals)
            walls = _exact_walls(kind, normals)
            want = cone_projection_nnls(g, walls)
            assert np.max(np.abs(v - want)) <= 1e-10 * (1.0 + np.linalg.norm(g))
            ok = np.linalg.matrix_rank(walls) == len(walls)
            if ok:
                # Moreau: -g = v - N' mu over the unit normals, with mu >= 0 up to the release tolerance
                unit = normals / np.linalg.norm(normals, axis=1)[:, None]
                assert np.all(mu >= -drlp.solver.RELEASE_TOL * (1.0 + np.linalg.norm(g)))
                assert np.max(np.abs(unit.T @ mu - g - v)) <= 1e-10 * (1.0 + np.linalg.norm(g))
            independent[ok] += 1
        assert min(independent[True], independent[False]) > 40

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
                v = _direction(g, normals)[0]
                want = cone_projection_nnls(g, _exact_walls(kind, normals))
                assert np.max(np.abs(v - want)) <= 1e-10 * (1.0 + np.linalg.norm(g))

    def test_held_axis_coordinates_are_exactly_zero(self):
        held_any = 0
        for g, normals, hess in _direction_cases("axis", 32, 300):
            v, d, held, _ = _direction(g, normals, hess)
            coords = np.nonzero(normals[held])[1]
            assert np.all(v[coords] == 0.0) and np.all(d[coords] == 0.0)
            held_any += coords.size > 0
        assert held_any > 100

    @pytest.mark.parametrize("kind", KINDS)
    def test_newton_step_matches_dense_kkt(self, kind):
        newton = 0
        for g, normals, hess in _direction_cases(kind, 33, 300):
            v, d, held, _ = _direction(g, normals, hess)
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

    def test_drifted_null_space_empties_the_face(self):
        # the face's basis comes back as it went in; with A Z pushed off 0 it comes back empty
        rng = np.random.Generator(np.random.Philox(35))
        normals = rng.standard_normal((2, 5))
        unit = normals / np.linalg.norm(normals, axis=1)[:, None]
        g, hess, walls = unit.T @ np.array([1.0, 2.0]) - 0.1 * rng.standard_normal(5), np.eye(5), np.arange(2)
        face = drlp.solver._feasible_direction(g, unit, walls, PseudoInverse.empty(5), hess, False)[2]
        assert face.owners == [0, 1] and face.null.shape == (5, 3)
        assert drlp.solver._feasible_direction(g, unit, walls, face, hess, False)[2].owners == [0, 1]
        face.null[:, 0] += 1e-6 * unit[0]
        assert drlp.solver._feasible_direction(g, unit, walls, face, hess, False)[2].owners == []
        # a face without Z is built afresh over every listed wall
        assert drlp.solver._sync(PseudoInverse.empty(5), walls, unit).owners == [0, 1]


class TestCertifyPoint:
    def test_matches_what_check_prints(self, capsys, tmp_path):
        rng = np.random.Generator(np.random.Philox(7))
        x = rng.standard_normal((40, 2))
        net = build_quantile_lasso(RegressionData(x, x @ [1.0, -0.5] + rng.laplace(size=40)), lam=0.5)[0]
        out = drlsimplex(net, np.zeros(3), SolverOptions(seed=0))
        assert out.status == LOCAL_MINIMUM
        walls, bits, derivatives, certified = certify_point(net, out.x)
        assert certified is True and derivatives.shape == (2, len(walls)) == (2, 3)
        save_model(tmp_path / "q.json", net)
        code = drlp.cli.main(["check", "--model", str(tmp_path / "q.json"),
                              "--x=" + ",".join(map(repr, out.x.tolist()))])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["certified"] is True
        assert doc["axes"] == [{"neuron": list(net.neuron_at(c)), "bit": int(b), "derivatives": d}
                               for c, b, d in zip(walls, bits, derivatives.T.tolist())]

    def test_dependent_walls_give_no_derivatives(self):
        # three walls through x = 0 in one dimension: no pseudoinverse exists
        net = ReluNetwork([np.array([[1.0], [1.0], [-1.0]]), np.array([[1.0, 2.0, 1.0]])],
                          [np.zeros(3), np.zeros(1)])
        walls, bits, derivatives, certified = certify_point(net, [0.0])
        assert (walls, bits.tolist(), derivatives, certified) == ([0, 1, 2], [0, 0, 0], None, False)

    def test_rejects_a_bad_point(self, net_hinge_gap):
        with pytest.raises(ValueError, match=r"x \[1\] is nan; x must be finite"):
            certify_point(net_hinge_gap, [np.nan, 0.0])
