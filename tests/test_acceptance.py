"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s; the -v test
status carries the same verdict) and enforces its stated tolerance and
wall-clock budget.  Oracles are independent routes: dense pseudoinverses,
exhaustive subset enumeration, coordinate descent, ball probing.
"""

import time

import numpy as np

from drlp import (
    LOCAL_MINIMUM,
    UNBOUNDED,
    LpInstance,
    ReluNetwork,
    SolverOptions,
    build_from_lp,
    build_l1_first_layer,
    build_lasso,
    build_quantile_lasso,
    build_random,
    count_regions_empirical,
    drlsimplex,
    evaluate,
    improved_bound,
    montufar_bound,
    solve_quadratic,
)
from drlp.network import (
    activation_pattern,
    critical_indices,
    flip,
    oriented_normal,
    relu_arguments,
    subjective_arguments,
)
from drlp.primitives import PseudoInverse, add_axis
from drlp.solver import find_vertex, initialize
from helpers import (
    ac5_runs,
    cd_lasso,
    enumerate_compatible,
    hyperplane_pattern,
    is_compatible,
    lad_enumerate,
    owner_flip_updates,
    probe_min,
    subjective_value,
)


def _report(name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"{verdict}: {name}" + (f" ({detail})" if detail else "")
    print(line)
    assert ok, line


def _hinge_gap():
    return ReluNetwork(
        [np.eye(2), np.array([[1.0, -1.0]]), np.array([[1.0]])],
        [np.zeros(2), np.array([-1.0]), np.zeros(1)],
    )


def test_ac01_axis_updates_at_shared_vertex():
    t0 = time.perf_counter()
    net = _hinge_gap()
    s = np.ones(3, dtype=np.uint8)
    vertex = PseudoInverse.empty(2)
    for c in (1, 2):
        vertex = add_axis(vertex, oriented_normal(net, s, c), c)
    devs = [np.max(np.abs(vertex.matrix - np.array([[1.0, 1.0], [1.0, 0.0]])))]

    for route in (0, 1):    # the closed form, then the sweep rebuild
        s1 = flip(s, 1)
        pinv = owner_flip_updates(vertex, 0, net, s1)[route]
        devs.append(np.max(np.abs(pinv.matrix[0] - np.array([0.0, -1.0]))))
        s2 = flip(s1, 2)
        pinv = owner_flip_updates(pinv, 1, net, s2)[route]
        devs.append(np.max(np.abs(pinv.matrix[1] - np.array([-1.0, 0.0]))))

    elapsed = time.perf_counter() - t0
    worst = max(devs)
    _report(
        "AC1 vertex axes and both flipped updates match frozen values",
        worst <= 1e-12 and elapsed < 1.0,
        f"max dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_ac02_critical_sets_on_shared_hyperplane():
    t0 = time.perf_counter()
    shared = ReluNetwork(
        [np.array([[1.0], [1.0]]), np.array([[1.0, -1.0]]), np.array([[1.0]])],
        [np.zeros(2), np.zeros(1), np.zeros(1)],
    )
    mirrored = ReluNetwork(
        [np.array([[1.0], [-1.0]]), np.array([[1.0, -1.0]]), np.array([[1.0]])],
        [np.zeros(2), np.zeros(1), np.zeros(1)],
    )
    x = np.array([0.0])
    got_a = critical_indices(shared, np.array([0, 1, 1], dtype=np.uint8), x)[0]
    got_b = critical_indices(mirrored, np.array([0, 0, 1], dtype=np.uint8), x)[0]
    ok = got_a == [0, 1, 2] and got_b == [0, 1]
    elapsed = time.perf_counter() - t0
    _report(
        "AC2 critical index sets on the shared line are exact",
        ok and elapsed < 1.0,
        f"{got_a} / {got_b}, {elapsed:.2f}s",
    )


def test_ac03_pattern_fixed_quantities_match_network():
    t0 = time.perf_counter()
    topologies = [(2, 3, 1), (2, 4, 3, 1), (3, 4, 4, 1), (4, 3, 3, 2, 1)]
    rng = np.random.Generator(np.random.Philox(33))
    worst = 0.0
    checked = 0
    for seed in range(20):
        topo = topologies[seed % len(topologies)]
        net = build_random(topo, seed=200 + seed)
        n0 = topo[0]
        pts = [rng.uniform(-3.0, 3.0, size=n0) for _ in range(150)]
        for _ in range(50):
            x = rng.uniform(-3.0, 3.0, size=n0)
            s = activation_pattern(net, x)
            c = int(rng.integers(net.num_neurons))
            v = oriented_normal(net, s, c)
            nv2 = float(v @ v)
            if nv2 > 1e-18:
                arg = subjective_arguments(net, s, x)[c]
                x = x - arg / nv2 * (v if s[c] == 1 else -v)
            pts.append(x)
        for x in pts:
            h = hyperplane_pattern(net, x)
            try:
                pats = enumerate_compatible(net, x, cap=4096)
            except ValueError:
                continue
            args = relu_arguments(net, x)
            f = evaluate(net, x)
            scale = 1.0 + float(np.max(np.abs(args)))
            for s in pats:
                assert is_compatible(h, s)
                d = float(np.max(np.abs(subjective_arguments(net, s, x) - args)))
                d = max(d, abs(subjective_value(net, s, x) - f))
                worst = max(worst, d / scale)
                checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        "AC3 objective equals pattern-fixed value on every compatible pattern",
        worst <= 1e-10 and elapsed < 30.0,
        f"{checked} checks, worst rel dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_ac04_incremental_updates_match_dense_rebuilds():
    t0 = time.perf_counter()
    flips = 0
    worst_update = 0.0
    worst_roundtrip = 0.0
    seed = 0
    while flips < 500 and seed < 400:
        seed += 1
        n0 = 2 + seed % 2
        topo = (n0, 4 + seed % 3, 4, 1) if seed % 2 else (n0, 5, 1)
        net = build_random(topo, seed=300 + seed)
        rng = np.random.Generator(np.random.Philox(seed))
        state = initialize(net, rng.uniform(-2, 2, size=n0), SolverOptions(seed=seed))
        if find_vertex(state) is not None:
            continue
        s, pinv, x = state.s, state.pinv, state.x
        owners = list(pinv.owners)
        cols = np.stack([oriented_normal(net, s, c) for c in owners], axis=1)
        if np.linalg.cond(cols) > 1e6:
            continue
        worst_roundtrip = max(
            worst_roundtrip,
            float(np.max(np.abs(pinv.matrix @ cols - np.eye(len(owners))))),
        )
        for k, c in enumerate(owners):
            s2 = flip(s, c)
            try:
                upds = owner_flip_updates(pinv, k, net, s2)
            except Exception:
                continue
            cols2 = np.stack(
                [oriented_normal(net, s2, cc) for cc in owners], axis=1
            )
            if np.linalg.cond(cols2) > 1e6:
                continue
            dense = np.linalg.pinv(cols2, rcond=1e-13)
            den = 1.0 + np.linalg.norm(dense)
            for upd in upds:
                worst_update = max(worst_update, np.linalg.norm(upd.matrix - dense) / den)
            flips += 1
    elapsed = time.perf_counter() - t0
    _report(
        "AC4 500 single-flip updates match dense rebuilds",
        flips >= 500
        and worst_update <= 1e-8
        and worst_roundtrip <= 1e-10
        and elapsed < 30.0,
        f"{flips} flips, worst update {worst_update:.2e}, "
        f"worst biorthogonality {worst_roundtrip:.2e}, {elapsed:.1f}s",
    )


def test_ac05_deep_networks_terminate_at_verified_minima():
    t0 = time.perf_counter()
    statuses = []
    for net, x0, seed in ac5_runs():
        out = drlsimplex(net, x0, SolverOptions(seed=seed, max_steps=10_000))
        statuses.append(out.status)
        assert out.status in (LOCAL_MINIMUM, UNBOUNDED), out.status
        assert out.steps <= 10_000
        fs = [rec.f for rec in out.trace]
        scale = 1.0 + abs(fs[0]) if fs else 1.0
        assert all(b <= a + 1e-9 * scale for a, b in zip(fs, fs[1:]))
        if out.status == LOCAL_MINIMUM:
            lo = probe_min(net, out.x, radius=1e-4, samples=1000, seed=seed)
            assert lo >= out.f - 1e-8 * (1.0 + abs(out.f))
        else:
            f0 = evaluate(net, out.x)
            vals = [evaluate(net, out.x + t * out.direction) for t in (1, 10, 100)]
            assert vals[0] < f0 and vals[1] < vals[0] and vals[2] < vals[1]
    elapsed = time.perf_counter() - t0
    n_min = statuses.count(LOCAL_MINIMUM)
    _report(
        "AC5 deep random networks terminate with verified outcomes",
        elapsed < 60.0,
        f"{n_min} minima / {len(statuses) - n_min} unbounded, {elapsed:.1f}s",
    )


def test_ac06_median_regression_matches_exhaustive_search():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(42))
    x = rng.normal(size=(15, 2))
    y = 0.4 + x @ np.array([1.5, -0.7]) + 0.5 * rng.normal(size=15)
    from drlp import RegressionData

    data = RegressionData(x, y)
    net, pairs = build_quantile_lasso(data, alpha=0.5, lam=0.0)
    out = drlsimplex(net, np.zeros(3), SolverOptions(seed=0), pairs=pairs)
    design = np.hstack([np.ones((15, 1)), x])
    oracle = lad_enumerate(design, y, alpha=0.5)
    gap = abs(out.f - oracle)
    elapsed = time.perf_counter() - t0
    _report(
        "AC6 median regression value matches exhaustive subset enumeration",
        out.status == LOCAL_MINIMUM and gap <= 1e-8 and elapsed < 10.0,
        f"f={out.f:.6f}, oracle={oracle:.6f}, gap {gap:.2e}, {elapsed:.1f}s",
    )


def test_ac07_lasso_matches_coordinate_descent():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(7))
    x = rng.normal(size=(10, 3))
    y = x @ np.array([2.0, 0.0, -1.0]) + 0.2 * rng.normal(size=10)
    from drlp import RegressionData

    data = RegressionData(x, y)
    worst = 0.0
    for i, lam in enumerate((0.0, 0.5, 5.0)):
        net, q, pairs = build_lasso(data, lam)
        out = solve_quadratic(net, q, np.zeros(3), SolverOptions(seed=i), pairs=pairs)
        assert out.status == LOCAL_MINIMUM, out.status
        ref = cd_lasso(x, y, lam)
        worst = max(worst, float(np.max(np.abs(out.x - ref))))
    elapsed = time.perf_counter() - t0
    _report(
        "AC7 penalized least squares matches coordinate descent",
        worst <= 1e-6 and elapsed < 10.0,
        f"worst coordinate gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_ac08_first_layer_training_descends_to_termination():
    t0 = time.perf_counter()
    base = build_random((4, 5, 4, 2, 1), seed=11)
    rng = np.random.Generator(np.random.Philox(13))
    from drlp import RegressionData, flatten_first_layer

    data = RegressionData(rng.normal(size=(50, 4)), rng.normal(size=50))
    net, pairs = build_l1_first_layer(base, data)
    x0 = flatten_first_layer(base)
    out = drlsimplex(net, x0, SolverOptions(seed=0, max_steps=10_000), pairs=pairs)
    pivot_f = [rec.f for rec in out.trace if rec.phase == "pivot"]
    pivot_t = [rec.t for rec in out.trace if rec.phase == "pivot"]
    # blips are bounded by the candidate-filter noise floor: walls whose
    # crossing rate sits under ZERO_TOL are traversed silently, deflecting
    # the value by ~rate*step on long flat edges
    monotone = all(
        b <= a + 1e-6 * (1.0 + abs(a)) for a, b in zip(pivot_f, pivot_f[1:])
    )
    moving = [
        (a, b)
        for (a, b), t in zip(zip(pivot_f, pivot_f[1:]), pivot_t[1:])
        if t is not None and t > 1e-9
    ]
    strict_share = (
        sum(1 for a, b in moving if b < a) / len(moving) if moving else 1.0
    )
    descended = bool(pivot_f) and out.f < pivot_f[0]
    elapsed = time.perf_counter() - t0
    _report(
        "AC8 first-layer training strictly descends and terminates",
        out.status == LOCAL_MINIMUM
        and out.steps < 10_000
        and monotone
        and strict_share >= 0.9
        and descended
        and elapsed < 60.0,
        f"status {out.status}, {len(pivot_f)} pivots, {strict_share:.1%} strict, "
        f"final f {out.f:.4f}, {elapsed:.1f}s",
    )


def test_ac09_region_counts_and_bounds_are_consistent():
    t0 = time.perf_counter()
    fold = ReluNetwork(
        [np.array([[1.0, -1.0], [1.0, 1.0]]), np.array([[1.0, 1.0]]), np.array([[1.0]])],
        [np.zeros(2), np.array([-1.0]), np.zeros(1)],
    )
    empirical = count_regions_empirical(fold, box=(-10.0, 10.0), samples=100_000, seed=0)
    ok = empirical == 7 and montufar_bound((2, 2, 1)) == 8
    rng = np.random.Generator(np.random.Philox(50))
    for _ in range(50):
        topo = [int(rng.integers(1, 6))] + [
            int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 5)))
        ]
        ok = ok and improved_bound(topo) <= montufar_bound(topo)
    rng = np.random.Generator(np.random.Philox(51))
    for _ in range(10):
        n0 = int(rng.integers(2, 4))
        widths = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(1, 3)))]
        net = build_random([n0] + widths + [1], seed=int(rng.integers(1 << 30)))
        count = count_regions_empirical(net, samples=20_000, seed=0)
        ok = ok and count <= improved_bound([n0] + widths)
    elapsed = time.perf_counter() - t0
    _report(
        "AC9 sampled region counts respect both bounds",
        ok and elapsed < 30.0,
        f"empirical(fold)={empirical}, montufar=8, {elapsed:.1f}s",
    )


def test_ac10_per_step_cost_scales_moderately_with_width():
    t0 = time.perf_counter()
    per_step = {}
    for w in (32, 64, 128):
        total_ms = 0.0
        total_steps = 0
        for s in range(3):
            net = build_random((4, w, w, w, 1), seed=700 + w + s)
            rng = np.random.Generator(np.random.Philox(800 + w + s))
            x0 = rng.uniform(-1.0, 1.0, size=4)
            out = drlsimplex(
                net, x0,
                SolverOptions(seed=s, max_steps=250, collect_trace=False),
            )
            total_ms += out.wall_ms
            total_steps += max(out.steps, 1)
        per_step[w] = total_ms / total_steps
    r1 = per_step[64] / per_step[32]
    r2 = per_step[128] / per_step[64]
    elapsed = time.perf_counter() - t0
    note = ""
    if not (2.0 <= r1 <= 8.0 and 2.0 <= r2 <= 8.0):
        note = " [INFO: outside the expected 2x..8x window]"
    _report(
        "AC10 doubling width scales per-step cost below the hard 16x ceiling",
        r1 < 16.0 and r2 < 16.0 and elapsed < 60.0,
        f"64/32: {r1:.2f}x, 128/64: {r2:.2f}x{note}, {elapsed:.1f}s",
    )


def test_ac11_unbounded_problems_report_verified_rays():
    t0 = time.perf_counter()
    lp = LpInstance(np.array([-1.0]), np.array([[-1.0]]), np.array([0.0]))
    net, pairs = build_from_lp(lp, penalty=10.0)
    out_lp = drlsimplex(net, [0.5], SolverOptions(seed=0), pairs=pairs)
    ok = out_lp.status == UNBOUNDED
    if ok:
        f0 = evaluate(net, out_lp.x)
        vals = [evaluate(net, out_lp.x + t * out_lp.direction) for t in (1, 10, 100)]
        ok = vals[0] < f0 and vals[1] < vals[0] and vals[2] < vals[1]

    ramp = ReluNetwork(
        [np.array([[1.0]]), np.array([[-1.0]])], [np.array([0.5]), np.zeros(1)]
    )
    out_ramp = drlsimplex(ramp, [0.0], SolverOptions(seed=1))
    ok = ok and out_ramp.status == UNBOUNDED
    if out_ramp.status == UNBOUNDED:
        f0 = evaluate(ramp, out_ramp.x)
        vals = [evaluate(ramp, out_ramp.x + t * out_ramp.direction) for t in (1, 10, 100)]
        ok = ok and vals[0] < f0 and vals[1] < vals[0] and vals[2] < vals[1]
    elapsed = time.perf_counter() - t0
    _report(
        "AC11 unbounded compilations return verified descent rays",
        ok and elapsed < 1.0,
        f"lp: {out_lp.status}, ramp: {out_ramp.status}, {elapsed:.2f}s",
    )
