"""Minimization of piecewise-linear ReLU networks by vertex pivoting.

The solver walks the polyhedral complex a network induces on its input
space.  It first rides descent directions until enough hyperplanes are
active to pin a vertex, then repeatedly either pivots along the one
feasible edge whose directional derivative is most negative, or, when no
edge descends, certifies the vertex by checking the edges of every
adjacent region reachable by flipping one active unit.  A quadratic
add-on objective is supported through an active-set variant that slides
along walls instead of hopping between vertices.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .network import (
    PairGroups,
    ReluNetwork,
    activation_pattern,
    critical_indices,
    evaluate,
    flip,
    gradient,
    oriented_normals,
)
from .primitives import (
    Degenerate,
    DependentColumn,
    PseudoInverse,
    add_axis,
    advance_max,
    argument_residuals,
    dense_pseudoinverse,
    project,
    remove_pseudorow,
    scan_arrays,
    update_axis_new_region,
)

LOCAL_MINIMUM = "LocalMinimum"
UNBOUNDED = "Unbounded"
NON_REGULAR = "NonRegular"
STEP_LIMIT = "StepLimit"

_HUGE_T = 1e15
STEP_ACCEPT_TOL = 1e-9     # how negative a crossing step may be
DRIFT_REFRESH_TOL = 1e-9   # wall residual (relative to |x|) that forces a dense rebuild
RESYNC_TOL = 1e-5          # how stale a pattern bit may be and still be repaired
AXIS_REFRESH_EVERY = 64    # pivots between full pseudoinverse rebuilds
DESCENT_TOL = 1e-9         # slope (relative to 1 + |gradient|) that counts as descent


@dataclass
class SolverOptions:
    """Step limit, randomness and trace delivery of one solve."""

    max_steps: int = 10_000
    seed: int = 0
    rng: np.random.Generator | None = None
    collect_trace: bool = True
    on_record: object = None             # callable(TraceRecord), e.g. a JSONL writer

    def make_rng(self) -> np.random.Generator:
        if self.rng is not None:
            return self.rng
        # counter-based generator so runs are reproducible across platforms
        return np.random.Generator(np.random.Philox(self.seed))


@dataclass
class TraceRecord:
    step: int
    phase: str          # find_vertex | pivot | flip | certify | correct | resync
    x: tuple
    f: float
    neuron: int | None = None      # flat unit index
    t: float | None = None
    alpha: float | None = None
    crossed: int | None = None     # walls a pivot passed before its stop wall


@dataclass
class SolveOutcome:
    status: str         # LocalMinimum | Unbounded | NonRegular | StepLimit
    x: np.ndarray
    f: float
    steps: int
    wall_ms: float = 0.0
    direction: np.ndarray | None = None   # certified descent ray when Unbounded
    neurons: list | None = None           # diagnostic flat unit indices when NonRegular
    trace: list = field(default_factory=list)


@dataclass
class SolverState:
    net: ReluNetwork
    x: np.ndarray
    s: np.ndarray
    pinv: PseudoInverse
    options: SolverOptions
    pairs: PairGroups | None = None
    rng: np.random.Generator = None
    objective: object = None            # callable(x) -> float; network value by default
    scan: tuple = None                  # scan_arrays(net, pairs), built once per solve
    steps: int = 0
    trace: list = field(default_factory=list)

    def value(self, x=None) -> float:
        x = self.x if x is None else x
        if self.objective is not None:
            return self.objective(x)
        return evaluate(self.net, x)

    def emit(self, phase, neuron=None, t=None, alpha=None, crossed=None):
        if not self.options.collect_trace and self.options.on_record is None:
            return
        rec = TraceRecord(
            step=self.steps,
            phase=phase,
            x=tuple(self.x.tolist()),
            f=self.value(),
            neuron=None if neuron is None else int(neuron),
            t=None if t is None else float(t),
            alpha=None if alpha is None else float(alpha),
            crossed=crossed,
        )
        if self.options.collect_trace:
            self.trace.append(rec)
        if self.options.on_record is not None:
            self.options.on_record(rec)

    def finish(self, status, **kw) -> SolveOutcome:
        return SolveOutcome(
            status=status,
            x=self.x.copy(),
            f=self.value(),
            steps=self.steps,
            trace=self.trace,
            **kw,
        )


def _start_point(net: ReluNetwork, x0, name: str = "x0") -> np.ndarray:
    """x0 as a fresh float vector; rejects a wrong shape or a non-finite entry."""
    x = np.array(x0, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise ValueError(f"{name} must be finite with shape ({net.input_dim},); got shape {x.shape}")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"{name} must be finite with shape ({net.input_dim},); "
                         f"got {x[bad[0]]} at index {bad[0]}")
    return x


def initialize(net: ReluNetwork, x0, options: SolverOptions | None = None,
               pairs: PairGroups | None = None) -> SolverState:
    """Solver state at x0, nudged off any hyperplane it happens to sit on.

    Only units whose normals are nonzero force a nudge; units with
    constant zero arguments can never separate regions and keep bit 0.
    """
    options = options or SolverOptions()
    rng = options.make_rng()
    x = _start_point(net, x0)
    for _ in range(100):
        s = activation_pattern(net, x, pairs)
        if not critical_indices(net, s, x):
            break
        step = rng.standard_normal(net.input_dim)
        step /= np.linalg.norm(step)
        x = x + 1e-7 * (1.0 + np.max(np.abs(x))) * step
    else:
        raise ValueError("could not nudge the start point off all hyperplanes")
    if pairs is not None:
        pairs.check_pattern(s)
    return SolverState(
        net=net, x=x, s=s, pinv=PseudoInverse.empty(net.input_dim),
        options=options, pairs=pairs, rng=rng, scan=scan_arrays(net, pairs),
    )


def choose_axis(pinv: PseudoInverse, grad: np.ndarray):
    """Feasible edge with the most negative normalized directional derivative.

    Returns (row, alpha, i): the chosen pseudoinverse row, its derivative
    <grad, row>/|row|, and its index.  alpha < 0 means f descends along it.
    """
    norms = np.linalg.norm(pinv.matrix, axis=1)
    vals = (pinv.matrix @ grad) / norms
    i = int(np.argmin(vals))
    return pinv.matrix[i].copy(), float(vals[i]), i


def position_correction(state: SolverState) -> float:
    """Re-project x onto the intersection of the tracked walls.

    Solves for the displacement that zeroes every owner's argument; exact
    up to roundoff because arguments are affine on the region.  Returns the
    largest residual found before correcting, a drift measure for callers.
    """
    if state.pinv.m == 0:
        return 0.0
    r = argument_residuals(state.pinv, state.net, state.s, state.x)
    signs = np.where(state.s[state.pinv.owners] == 1, 1.0, -1.0)
    delta = state.pinv.matrix.T @ (-signs * r)
    state.x = state.x + delta
    if np.linalg.norm(delta) > 1e-13 * (1.0 + np.linalg.norm(state.x)):
        state.emit("correct")
    return float(np.max(np.abs(r)))


def refresh_pseudoinverse(state: SolverState):
    """Rebuild the pseudoinverse from scratch for the current owners.

    Used periodically to stop drift from the rank-one updates.  Raises
    Degenerate when the tracked normals lost independence.
    """
    state.pinv = dense_pseudoinverse(state.net, state.s, state.pinv.owners)


def find_vertex(state: SolverState) -> SolveOutcome | None:
    """Ride descent directions until input_dim independent walls are active.

    Follows the projected negative gradient; when that vanishes inside the
    remaining free subspace, falls back to random directions with the
    ascending sign removed, so the objective never increases.  Returns an
    outcome on early termination, None once a vertex is reached.
    """
    net, s, opts = state.net, state.s, state.options
    grad = gradient(net, s)
    gscale = 1.0 + np.linalg.norm(grad)
    v = -grad.copy()
    tried_opposite = False
    while state.pinv.m < net.input_dim:
        if state.steps >= opts.max_steps:
            return state.finish(STEP_LIMIT)
        if np.linalg.norm(v) <= 1e-12 * gscale:
            v = state.rng.standard_normal(net.input_dim)
            v -= project(state.pinv, net, s, v)
            if np.linalg.norm(v) <= 1e-12 * gscale:
                continue  # unlucky draw inside the pinned subspace
            if v @ grad > 0.0:
                v = -v
            tried_opposite = False
        v = v / np.linalg.norm(v)
        res = advance_max(net, state.x, v, s, state.pinv.owners, scan=state.scan)
        state.steps += 1
        if not res.bounded:
            if v @ grad < -1e-15 * gscale:
                return state.finish(UNBOUNDED, direction=v.copy())
            # flat ray; try the mirror direction once, then resample
            if not tried_opposite:
                v, tried_opposite = -v, True
            else:
                v, tried_opposite = np.zeros_like(v), False
            continue
        state.x = state.x + res.t * v
        state.emit("find_vertex", neuron=res.neuron, t=res.t)
        try:
            state.pinv = add_axis(state.pinv, net, s, res.neuron)
        except DependentColumn:
            return state.finish(NON_REGULAR, neurons=list(state.pinv.owners) + [res.neuron])
        v = v - project(state.pinv, net, s, v)
        tried_opposite = False
    position_correction(state)
    return None


def drlsimplex(net: ReluNetwork, x0, options: SolverOptions | None = None,
               pairs: PairGroups | None = None) -> SolveOutcome:
    """Minimize the network over its input space from x0.

    Terminates with one of four outcomes: a certified LocalMinimum, an
    Unbounded descent ray, NonRegular when dependent walls abort a pivot,
    or StepLimit.  The objective is non-increasing along the whole trace
    and strictly decreases at every pivot.  Roundoff is contained two ways:
    walls that drift past DRIFT_REFRESH_TOL force a dense axis rebuild, and
    a pattern bit found marginally stale (within RESYNC_TOL) is flipped back
    to match the geometry without moving x.
    """
    t0 = time.perf_counter()
    if pairs is not None:
        pairs.validate(net)
    state = initialize(net, x0, options, pairs)
    out = find_vertex(state)
    if out is None:
        out = _pivot_loop(state)
    out.wall_ms = (time.perf_counter() - t0) * 1e3
    return out


def _pivot_loop(state: SolverState) -> SolveOutcome:
    net, opts = state.net, state.options
    n0 = net.input_dim
    next_flip = 0
    pivots_since_refresh = 0
    while True:
        if state.steps >= opts.max_steps:
            return state.finish(STEP_LIMIT)
        grad = gradient(net, state.s)
        row, alpha, i = choose_axis(state.pinv, grad)
        descent_tol = DESCENT_TOL * (1.0 + np.linalg.norm(grad))
        if alpha < -descent_tol:
            ignore = list(state.pinv.owners)          # old owner stays ignored this advance
            state.pinv = remove_pseudorow(state.pinv, i)
            v = row / np.linalg.norm(row)
            # long step: pass every last-layer wall while f still descends
            res = advance_max(net, state.x, v, state.s, ignore,
                              slope=alpha, slope_tol=descent_tol, scan=state.scan)
            state.steps += 1
            if not res.bounded:
                return state.finish(UNBOUNDED, direction=v)
            if res.t <= -STEP_ACCEPT_TOL:
                xscale = 1.0 + float(np.max(np.abs(state.x)))
                if res.t < -RESYNC_TOL * xscale:
                    return state.finish(NON_REGULAR, neurons=[res.neuron])
                # a negative crossing step means the bit for res.neuron claims
                # the wrong side of its wall (roundoff left x marginally past
                # it).  Flip the bit to match the geometry, restore the removed
                # axis, and rebuild; x and f are untouched.
                try:
                    state.s = flip(state.s, res.neuron, state.pairs)
                    state.pinv = add_axis(state.pinv, net, state.s, ignore[i])
                    refresh_pseudoinverse(state)
                except (DependentColumn, Degenerate):
                    return state.finish(NON_REGULAR, neurons=[res.neuron, ignore[i]])
                state.emit("resync", neuron=res.neuron, t=res.t)
                position_correction(state)
                next_flip = 0
                pivots_since_refresh = 0
                continue
            state.x = state.x + res.t * v
            c = res.neuron
            state.emit("pivot", neuron=c, t=res.t, alpha=alpha, crossed=res.crossed.size)
            try:
                state.pinv = add_axis(state.pinv, net, state.s, c)
                # crossed units sit in the last hidden layer and are not owners,
                # so their bits enter neither c's normal nor any tracked one
                state.s = flip(state.s, np.append(res.crossed, c), state.pairs)
                state.pinv = update_axis_new_region(state.pinv, state.pinv.m - 1, net, state.s, c)
            except (DependentColumn, Degenerate):
                return state.finish(NON_REGULAR, neurons=list(state.pinv.owners) + [c])
            next_flip = 0
            pivots_since_refresh += 1
            try:
                if pivots_since_refresh >= AXIS_REFRESH_EVERY:
                    refresh_pseudoinverse(state)
                    pivots_since_refresh = 0
                resid = position_correction(state)
                # incremental updates compound multiplicatively near tight
                # vertices; rebuild as soon as the walls drift instead of
                # waiting out the fixed cadence
                if resid > DRIFT_REFRESH_TOL * (1.0 + float(np.max(np.abs(state.x)))):
                    refresh_pseudoinverse(state)
                    pivots_since_refresh = 0
                    position_correction(state)
            except Degenerate:
                return state.finish(NON_REGULAR, neurons=list(state.pinv.owners))
        else:
            if next_flip >= n0:
                state.emit("certify", alpha=alpha)
                return state.finish(LOCAL_MINIMUM)
            # adjacent region across wall next_flip; flips accumulate on purpose,
            # so all 2*n0 (owner, side) combinations get visited
            c = state.pinv.owners[next_flip]
            state.s = flip(state.s, c, state.pairs)
            try:
                state.pinv = update_axis_new_region(state.pinv, next_flip, net, state.s, c)
            except Degenerate:
                return state.finish(NON_REGULAR, neurons=[c])
            state.emit("flip", neuron=c, alpha=alpha)
            next_flip += 1
            state.steps += 1


def axis_derivatives(net: ReluNetwork, x, s: np.ndarray, pinv: PseudoInverse,
                     pairs: PairGroups | None = None):
    """Directional derivatives along all 2m feasible axes at a pinned point.

    For every owner: the derivative along its axis under the current
    pattern, then (with flips accumulating exactly like the solver's
    certification sweep) under the pattern with that owner flipped.
    Returns a list of (owner, bit, value, grad_norm) and mutates nothing;
    grad_norm is the gradient scale the value should be judged against.
    """
    entries = []
    grad = gradient(net, s)
    gnorm = float(np.linalg.norm(grad))
    for k, c in enumerate(pinv.owners):
        val = float(pinv.matrix[k] @ grad / np.linalg.norm(pinv.matrix[k]))
        entries.append((c, int(s[c]), val, gnorm))
    for k, c in enumerate(list(pinv.owners)):
        s = flip(s, c, pairs)
        pinv = update_axis_new_region(pinv, k, net, s, c)
        grad = gradient(net, s)
        gnorm = float(np.linalg.norm(grad))
        val = float(pinv.matrix[k] @ grad / np.linalg.norm(pinv.matrix[k]))
        entries.append((c, int(s[c]), val, gnorm))
    return entries


def certify_local_min(net: ReluNetwork, x, s: np.ndarray, pinv: PseudoInverse,
                      pairs: PairGroups | None = None) -> bool:
    """True when no feasible axis at x has a negative directional derivative.

    With fewer active walls than input dimensions the free subspace must
    also be gradient-free, otherwise moving inside it would descend.
    """
    if pinv.m < net.input_dim:
        grad = gradient(net, s)
        free = grad - project(pinv, net, s, grad)
        if np.linalg.norm(free) > DESCENT_TOL * (1.0 + np.linalg.norm(grad)):
            return False
    for _, _, val, gnorm in axis_derivatives(net, x, s, pinv, pairs):
        if val < -DESCENT_TOL * (1.0 + gnorm):
            return False
    return True


# ---------------------------------------------------------------------------
# quadratic add-on objective


@dataclass
class QuadraticObjective:
    """q(x) = x' quad x + lin . x + const, minimized jointly with the network."""

    quad: np.ndarray
    lin: np.ndarray
    const: float = 0.0

    def __post_init__(self):
        self.quad = np.asarray(self.quad, dtype=np.float64)
        self.lin = np.asarray(self.lin, dtype=np.float64)

    def value(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        return float(x @ self.quad @ x + self.lin @ x + self.const)

    def grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return (self.quad + self.quad.T) @ x + self.lin


def parabola_step(a: float, b: float, t_max: float) -> float:
    """Minimizer of a t^2 + b t over [0, t_max]; t_max when not strictly convex."""
    if a > 0.0:
        return float(min(max(-b / (2.0 * a), 0.0), t_max))
    return float(t_max)


def _feasible_direction(g, normals, hess=None):
    """Projection v of -g onto the tangent cone {d : normals @ d >= 0}, and a face step d.

    normals holds one active wall's oriented normal per row.  Each working
    set of held walls gets one complete QR of its unit normals, N' = Q R:
    the trailing columns Z of Q span their null space, v = Z Z'(-g), and
    lam = R^-1 Q1' g are their multipliers.  All walls start held; the one
    with the most negative multiplier is released until none is negative.
    From there it is Lawson & Hanson's NNLS (1974): the wall v violates most
    is held, and the multipliers move toward the new ones only until the
    first reaches zero, whose wall is released.  It ends at the exact
    projection.  Walls within roundoff of the span of earlier held ones are
    not held; unit axis normals make Q a signed permutation, so v is exactly
    zero on held axis walls.

    Given hess, the objective's curvature, d is the Newton step on the final
    face, Z (Z'HZ)^-1 Z'(-g), if Z'HZ is positive definite, d descends and d
    violates no wall; otherwise d is v.

    Returns (v, d, held row indices, mu, regular).  mu holds the final
    working set's multipliers against the unit normals, zero for released
    walls.  regular is True when no wall was dropped as dependent and the
    NNLS loop converged; then g = sum_c mu_c n_c / |n_c| wherever v = 0.
    """
    unit = normals / np.sqrt(np.einsum("ij,ij->i", normals, normals))[:, None]
    drop_tol = 1e-12 * (1.0 + math.sqrt(g @ g))
    held = np.arange(len(unit))
    mu = None           # multipliers of the last working set with none negative
    dependent, regular = False, False
    for _ in range(4 * len(unit) + 1):     # bounds cycling by roundoff
        kept, q, r = _independent_qr(unit, held)
        dependent |= kept.size < held.size
        held = kept
        k = held.size
        z = q[:, k:]
        v = z @ (z.T @ -g)
        lam = np.linalg.solve(r[:k, :k], q[:, :k].T @ g)
        neg = lam < -drop_tol
        if neg.any() and mu is None:
            held = np.delete(held, np.argmin(lam))
        elif neg.any():
            old = mu[held]
            ratio = np.full(k, np.inf)
            ratio[neg] = old[neg] / (old[neg] - lam[neg])
            mu[held] = old + ratio.min() * (lam - old)
            held = held[(ratio > ratio.min()) & (mu[held] > 0.0)]
        else:
            mu = np.zeros(len(unit))
            mu[held] = np.maximum(lam, 0.0)
            slack = unit @ v
            slack[held] = 0.0
            if not len(unit) or slack.min() >= -1e-12 * math.sqrt(v @ v):
                regular = not dependent
                break
            held = np.append(held, np.argmin(slack))
    d = v
    if hess is not None and z.shape[1]:
        zhz = z.T @ hess @ z
        try:
            np.linalg.cholesky(zhz)        # raises unless positive definite
        except np.linalg.LinAlgError:
            return v, d, held, mu, regular
        newton = z @ np.linalg.solve(zhz, z.T @ -g)
        if newton @ g < 0.0 and (unit @ newton >= -1e-12 * math.sqrt(newton @ newton)).all():
            d = newton
    return v, d, held, mu, regular


def _independent_qr(unit, held):
    """Complete QR of unit[held].T, keeping only held rows independent of the earlier ones.

    Without pivoting, |R_ii| is row i's distance from the span of the Q
    columns before it, which is the earlier rows' span only while none of
    them was dependent; so the first dependent row goes and the QR is redone.
    """
    while True:
        q, r = np.linalg.qr(unit[held].T, mode="complete")
        k = min(held.size, unit.shape[1])
        weak = np.flatnonzero(np.abs(np.diagonal(r)[:k]) <= 1e-13)
        if not weak.size:
            return held[:k], q, r[:, :k]
        held = np.delete(held, weak[0])


def solve_quadratic(net: ReluNetwork, q: QuadraticObjective, x0,
                    options: SolverOptions | None = None,
                    pairs: PairGroups | None = None) -> SolveOutcome:
    """Minimize network + quadratic by sliding along active walls.

    An active-set Newton method with exact line search on each segment.
    The negative combined gradient is projected onto the tangent cone of
    the walls x sits on; the walls whose multipliers stay nonnegative form
    the face, and the step follows the Newton direction of the quadratic
    restricted to that face (the projected gradient when the face's
    curvature is not positive definite).  Steps stop at the first new wall
    or at the segment parabola's vertex.

    When the projection vanishes, the multipliers mu of that projection
    certify the point.  Crossing active wall c raises the slope by
    kappa_c |n_c| per unit distance, with kappa_c its crossing gain, so at
    a regular point (independent walls, all in the last hidden layer) x is
    a local minimum iff mu_c <= kappa_c |n_c| for every c, as in BVLS
    (Stark & Parker 1995).  Otherwise the first wall that breaks the bound
    is flipped, one step, and the descent goes on across it.  At any other
    point the adjacent regions are probed by flipping active units one at
    a time (the flips accumulate); if none gives a direction the point is
    reported as a local minimum.
    """
    t0 = time.perf_counter()
    if pairs is not None:
        pairs.validate(net)
    opts = options or SolverOptions()
    x = _start_point(net, x0)
    state = SolverState(
        net=net, x=x, s=activation_pattern(net, x, pairs),
        pinv=PseudoInverse.empty(net.input_dim), options=opts, pairs=pairs,
        rng=opts.make_rng(), objective=lambda y: evaluate(net, y) + q.value(y),
        scan=scan_arrays(net, pairs),
    )
    gains = state.scan[1]
    hess = q.quad + q.quad.T
    out = None
    while out is None:
        if state.steps >= opts.max_steps:
            out = state.finish(STEP_LIMIT)
            break
        active = critical_indices(net, state.s, state.x, pairs)
        g = q.grad(state.x) + gradient(net, state.s)
        normals = oriented_normals(net, state.s, active)
        v, d, _, mu, regular = _feasible_direction(g, normals, hess)
        tol = 1e-10 * (1.0 + np.linalg.norm(g))
        if np.linalg.norm(v) > tol:
            v = d / np.linalg.norm(d)
            res = advance_max(net, state.x, v, state.s, active, scan=state.scan)
            state.steps += 1
            a = float(v @ q.quad @ v)      # curvature of t -> q(x + t v)
            slope = float(v @ g)
            t_max = max(res.t, 0.0) if res.bounded else float("inf")
            t = parabola_step(a, slope, t_max)
            if not np.isfinite(t) or t > _HUGE_T:
                out = state.finish(UNBOUNDED, direction=v)
                break
            state.x = state.x + t * v
            state.emit("pivot", neuron=res.neuron if t == t_max else None, t=t, alpha=slope,
                       crossed=0)
        elif regular and np.isfinite(kappa := gains[active]).all():
            excess = mu - kappa * np.sqrt(np.einsum("ij,ij->i", normals, normals))
            over = np.flatnonzero(excess > tol)
            if not over.size:
                state.emit("certify", alpha=0.0)
                out = state.finish(LOCAL_MINIMUM)
                break
            # crossing this wall descends: flip it and go on from the new region
            c = active[over[0]]
            state.s = flip(state.s, c, state.pairs)
            state.steps += 1
            state.emit("flip", neuron=c)
        else:
            # probe adjacent regions; flips accumulate like the vertex solver
            found = False
            for c in active:
                state.s = flip(state.s, c, state.pairs)
                state.steps += 1
                state.emit("flip", neuron=c)
                g2 = q.grad(state.x) + gradient(net, state.s)
                v2 = _feasible_direction(g2, oriented_normals(net, state.s, active))[0]
                if np.linalg.norm(v2) > 1e-10 * (1.0 + np.linalg.norm(g2)):
                    found = True
                    break
            if not found:
                state.emit("certify", alpha=0.0)
                out = state.finish(LOCAL_MINIMUM)
                break
    out.wall_ms = (time.perf_counter() - t0) * 1e3
    return out
