"""Minimization of piecewise-linear ReLU networks by vertex pivoting.

The solver walks the polyhedral complex a network induces on its input
space.  Descent rays pin enough walls for a vertex; then each pivot takes
the steepest of the vertex's 2m edges, leaving one wall inside x's region
or across it, every crossing priced in closed form from x's region.  Both
take long steps past last-layer walls while f falls.  With no descending
edge the vertex is a local minimum (certify_local_min; certify_point for
any given x).  A quadratic add-on objective slides along walls in an active-set
variant that certifies with the same routine where its projected gradient vanishes.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .network import (
    PairGroups,
    ReluNetwork,
    activation_pattern,
    critical_indices,
    crossing_terms,
    evaluate,
    flip,
    gradient,
    normal_matrices,
    on_walls,
    oriented_normal,
    output,
    require_finite,
    require_int,
    require_real,
    require_seed,
    subjective_arguments,
)
from .primitives import (
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
)

LOCAL_MINIMUM = "LocalMinimum"
UNBOUNDED = "Unbounded"
NON_REGULAR = "NonRegular"
STEP_LIMIT = "StepLimit"

_HUGE_T = 1e15
STEP_ACCEPT_TOL = 1e-9     # how negative a crossing step may be
DRIFT_REFRESH_TOL = 1e-9   # wall residual (relative to |x|, held slack to |g| or to a Newton step) forcing a rebuild
RESYNC_TOL = 1e-5          # how stale a pattern bit may be and still be repaired
DESCENT_TOL = 1e-9         # slope (relative to 1 + |gradient|) that counts as descent
STEP_TOL = 1e-10           # projection (relative to 1 + |g|) solve_quadratic steps along; < DESCENT_TOL, so a
                           # descending inside edge, whose projection is that long, is stepped along, not re-priced
RELEASE_TOL = 1e-12        # multiplier (relative to 1 + |g|) below which solve_quadratic releases a wall


@dataclass
class SolverOptions:
    """Step limit, randomness and trace delivery of one solve."""

    max_steps: int = 10_000
    seed: int | np.random.Generator = 0   # a Generator is used as is
    collect_trace: bool = True
    on_record: object = None             # callable(TraceRecord), e.g. a JSONL writer

    def __post_init__(self):
        if (steps := require_int("max_steps", self.max_steps)) < 0:
            raise ValueError(f"max_steps must be nonnegative, got {steps}")
        self.max_steps = steps
        self.seed = self.seed if isinstance(self.seed, np.random.Generator) else require_seed(self.seed)
        if not (self.on_record is None or callable(self.on_record)):
            raise ValueError(f"on_record must be callable or None, got {self.on_record!r}")

    def make_rng(self) -> np.random.Generator:
        if isinstance(self.seed, np.random.Generator):
            return self.seed
        # counter-based generator so runs are reproducible across platforms
        return np.random.Generator(np.random.Philox(self.seed))


@dataclass
class TraceRecord:
    step: int
    phase: str          # find_vertex | pivot | flip | certify | correct | resync
    x: tuple
    f: float            # find_vertex, pivot: from the step's arguments (AdvanceResult.at); else evaluate
    neuron: int | None = None      # flat unit of the solved network
    t: float | None = None
    alpha: float | None = None
    crossed: int | None = None     # walls a pivot or find_vertex step passed before its stop wall


@dataclass
class SolveOutcome:
    status: str         # LocalMinimum | Unbounded | NonRegular | StepLimit
    x: np.ndarray
    f: float            # a fresh evaluate at x (plus the objective), never a step's arguments
    steps: int
    wall_ms: float = 0.0
    direction: np.ndarray | None = None   # certified descent ray when Unbounded
    neurons: list | None = None           # diagnostic flat units (ints) of the solved net when NonRegular
    trace: list = field(default_factory=list)


@dataclass
class SolverState:
    """A solve's point, pattern, rows P, steps, trace and clock; f is the network plus objective, if any."""

    net: ReluNetwork
    x: np.ndarray
    s: np.ndarray
    pinv: PseudoInverse
    options: SolverOptions
    rng: np.random.Generator = None
    objective: QuadraticObjective = None    # quadratic term added to the network; none by default
    steps: int = 0
    trace: list = field(default_factory=list)
    started: float = field(default_factory=time.perf_counter, init=False)     # finish's wall_ms counts from here

    def value(self, args=None) -> float:
        f = evaluate(self.net, self.x) if args is None else output(self.net, args)
        return f if self.objective is None else f + self.objective.value(self.x)

    def emit(self, phase, neuron=None, t=None, alpha=None, crossed=None, step=None):
        """Record the event at x; step, the AdvanceResult that moved x by t, gives f with no sweep."""
        if not self.options.collect_trace and self.options.on_record is None:
            return
        rec = TraceRecord(
            step=self.steps,
            phase=phase,
            x=tuple(self.x.tolist()),
            f=self.value(None if step is None else step.at(t)),
            neuron=None if neuron is None else int(neuron),
            t=None if t is None else float(t),
            alpha=None if alpha is None else float(alpha),
            crossed=crossed,
        )
        if self.options.collect_trace:
            self.trace.append(rec)
        if self.options.on_record is not None:
            self.options.on_record(rec)

    def finish(self, status, direction=None, neurons=None) -> SolveOutcome:
        return SolveOutcome(
            status=status,
            x=self.x.copy(),
            f=self.value(),
            steps=self.steps,
            wall_ms=(time.perf_counter() - self.started) * 1e3,
            direction=direction,
            neurons=None if neurons is None else [int(c) for c in neurons],
            trace=self.trace,
        )


def start_point(net: ReluNetwork, x0, name: str = "x0") -> np.ndarray:
    """x0 as a fresh float vector; rejects a wrong shape or a non-finite entry."""
    x, rule = np.array(x0, dtype=np.float64), f"{name} must be finite with shape ({net.input_dim},)"
    if x.shape != (net.input_dim,):
        raise ValueError(f"{rule}; got shape {x.shape}")
    require_finite(name, x, rule)
    return x


def initialize(net: ReluNetwork, x0, options: SolverOptions | None = None) -> SolverState | SolveOutcome:
    """Solver state at x0, nudged off any hyperplane it happens to sit on.

    Only units whose normals are nonzero force a nudge; units with
    constant zero arguments can never separate regions and keep bit 0.
    A start that 100 nudges leave on some wall ends NonRegular at x0,
    step 0, naming the units on their walls there.
    """
    options = options or SolverOptions()
    state = SolverState(net=net, x=start_point(net, x0), s=None, pinv=PseudoInverse.empty(net.input_dim),
                        options=options, rng=options.make_rng())
    start = state.x
    for _ in range(100):
        state.s = activation_pattern(net, state.x)
        if not critical_indices(net, state.s, state.x)[0]:
            return state
        step = state.rng.standard_normal(net.input_dim)
        step /= math.sqrt(step @ step)
        state.x = state.x + 1e-7 * (1.0 + np.max(np.abs(state.x))) * step
    state.x, state.s = start, activation_pattern(net, start)
    return state.finish(NON_REGULAR, neurons=critical_indices(net, state.s, start)[0])


def axis_derivatives(pinv: PseudoInverse, grad: np.ndarray, gains: np.ndarray, bend) -> tuple:
    """(edges, derivatives): the 2m edges of a vertex, each row P_k, then each crossing row Q_k.

    With mu = P grad, edge k has derivative mu_k/|P_k| per unit length.  Crossing owner k's
    wall negates its normal n_k, bends each owner j by bend[j, k] n_k and the gradient by
    -gains[k] n_k (crossing_terms); only row k changes, to Q_k = -(P_k + sum_j bend[j, k] P_j),
    and edge m + k has derivative (gains[k] - mu_k - sum_j bend[j, k] mu_j)/|Q_k|.
    """
    mu = pinv.matrix @ grad
    edges = np.concatenate([pinv.matrix, -(pinv.matrix + bend.T @ pinv.matrix)])
    return edges, np.concatenate([mu, gains - mu - bend.T @ mu]) / np.sqrt((edges * edges).sum(axis=1))


def choose_axis(pinv: PseudoInverse, grad: np.ndarray, gains: np.ndarray, bend):
    """(row, alpha, i): the edge of least derivative in axis_derivatives, ties to the first.

    i < m is edge P_i, inside the region; i >= m is Q_(i-m), across owner i - m's wall.
    alpha < 0 means f descends along it.
    """
    edges, vals = axis_derivatives(pinv, grad, gains, bend)
    i = int(vals.argmin())
    return edges[i], float(vals[i]), i


def position_correction(state: SolverState, r=None) -> float:
    """Re-project x onto the intersection of the tracked walls.

    Solves for the displacement that zeroes every owner's argument; exact
    up to roundoff because arguments are affine on the region, from r, the
    owners' arguments at x (the pivot loop's from its step), or one sweep.
    Returns the largest residual found before correcting, a drift measure.
    """
    if state.pinv.m == 0:
        return 0.0
    r = argument_residuals(state.pinv, state.net, state.s, state.x) if r is None else r
    signs = np.where(state.s[state.pinv.owners] == 1, 1.0, -1.0)
    delta = state.pinv.matrix.T @ (-signs * r)
    state.x = state.x + delta
    if math.sqrt(delta @ delta) > 1e-13 * (1.0 + math.sqrt(state.x @ state.x)):
        state.emit("correct")
    return float(abs(r).max())


def refresh_pseudoinverse(state: SolverState):
    """Rebuild the basis from scratch: the owners' normals from one forward sweep, then one QR.

    Used when the walls drift from the rank-one updates.  Raises
    Degenerate when the tracked normals lost independence.
    """
    owners = state.pinv.owners
    rows = normal_matrices(state.net, state.s)[owners]
    state.pinv = dense_pseudoinverse(np.where(state.s[owners, None] == 1, rows, -rows), owners)


def find_vertex(state: SolverState) -> SolveOutcome | None:
    """Ride descent directions until rank(W1) independent walls are active.

    Follows the projected negative gradient with the pivot loop's long step,
    which passes last-layer walls while f falls; after crossing any, the ray
    restarts from the new region's projected -g.  When that vanishes in the
    free subspace, random directions with the ascending sign removed take
    first-wall steps, so f never increases.  f is flat along null(W1);
    rank(W1) and null(W1), which random directions leave out, come from one
    SVD when the projection first vanishes.  Returns an outcome on early
    termination, None once a vertex is reached.
    """
    net, s, opts = state.net, state.s, state.options
    grad = gradient(net, s)
    gscale = 1.0 + math.sqrt(grad @ grad)
    v = -grad.copy()
    tried_opposite = False
    rank, null = net.input_dim, None
    while state.pinv.m < rank:
        if state.steps >= opts.max_steps:
            return state.finish(STEP_LIMIT)
        if math.sqrt(v @ v) <= 1e-12 * gscale:
            if null is None:
                w = net.weights[0]
                _, sv, vt = np.linalg.svd(w, full_matrices=w.shape[0] < w.shape[1])
                rank = int(np.count_nonzero(sv > DEP_TOL * sv.max(initial=0.0)))
                null = vt[rank:]
                continue    # the walls may already pin the vertex
            u = state.rng.standard_normal(net.input_dim)
            v = u - (project(state.pinv, u) + null.T @ (null @ u))
            if v @ v <= 1e-24 * (u @ u):    # a draw inside the pinned subspace, counted so redraws end
                state.steps += 1
                continue
            if v @ grad > 0.0:
                v = -v
            tried_opposite = False
        v = v / math.sqrt(v @ v)
        slope, tol = float(v @ grad), DESCENT_TOL * gscale
        res = advance_max(net, state.x, v, s, state.pinv.owners,
                          slope=slope if slope < -tol else None, slope_tol=tol)
        state.steps += 1
        if not res.bounded:
            if slope < -tol:
                return state.finish(UNBOUNDED, direction=v.copy())
            # flat ray; try the mirror direction once, then resample
            if not tried_opposite:
                v, tried_opposite = -v, True
            else:
                v, tried_opposite = np.zeros_like(v), False
            continue
        state.x = state.x + res.t * v
        state.emit("find_vertex", neuron=res.neuron, t=res.t, crossed=res.crossed.size, step=res)
        try:
            state.pinv = add_axis(state.pinv, oriented_normal(net, s, res.neuron), res.neuron)
        except Degenerate:
            return state.finish(NON_REGULAR, neurons=list(state.pinv.owners) + [res.neuron])
        if res.crossed.size:
            # crossed units sit in the last hidden layer, so no tracked normal bends
            state.s = s = flip(s, res.crossed)
            grad = gradient(net, s)
            gscale, v = 1.0 + math.sqrt(grad @ grad), -grad
        v = v - project(state.pinv, v)
        tried_opposite = False
    position_correction(state)
    return None


def drlsimplex(net: ReluNetwork, x0, options: SolverOptions | None = None,
               pairs: PairGroups = PairGroups()) -> SolveOutcome:
    """Minimize the network over its input space from x0.

    Terminates with one of four outcomes: a certified LocalMinimum, an
    Unbounded descent ray, NonRegular when dependent walls abort a step or
    no nudge clears the start's (initialize), or StepLimit.  Both phases
    take long steps past last-layer walls; f never rises along the trace and
    strictly falls at every pivot.  Roundoff is contained two ways: walls
    that drift past DRIFT_REFRESH_TOL force a dense axis rebuild, and a
    pattern bit found marginally stale (within RESYNC_TOL) is flipped back to
    match the geometry without moving x.  The solve runs on
    ``pairs.fold(net)``, and records and outcomes name its units.
    """
    state = initialize(pairs.fold(net), x0, options)
    return state if isinstance(state, SolveOutcome) else find_vertex(state) or _pivot_loop(state)


def certify_local_min(state: SolverState, grad: np.ndarray, terms):
    """Descending edge (row, alpha, i, descent_tol) of x's vertex, or the LocalMinimum outcome.

    Both solvers' certificate: prices the vertex's 2m edges (choose_axis) from the caller's
    grad, the gradient at x, and terms = crossing_terms(net, state.s, state.pinv.owners),
    scaled to the rows (``_unit_terms`` for solve_quadratic's face over unit normals).
    A descending crossing of owner i is taken at once: its bit flips, row i becomes the
    crossing row and normal i is negated, bending each owner j's normal by bend[j, i] times
    it (a flip that bends any drops the face's Z, which solve_quadratic's next sync
    rebuilds), one step, then one ``flip`` record carrying the edge's alpha.  No descending
    edge ends LocalMinimum, with no owner x is certified as is; StepLimit is checked before
    pricing and after a flip.
    """
    opts, alpha = state.options, None
    if state.steps >= opts.max_steps:
        return state.finish(STEP_LIMIT)
    if m := state.pinv.m:
        row, alpha, i = choose_axis(state.pinv, grad, *terms)
        descent_tol = DESCENT_TOL * (1.0 + math.sqrt(grad @ grad))
        if alpha < -descent_tol:
            if i >= m:
                i -= m
                state.s = flip(state.s, state.pinv.owners[i])
                state.pinv.matrix[i] = row
                state.pinv.normals[i] *= -1.0
                if (bend := terms[1][:, i]).any():
                    state.pinv.normals += np.outer(bend, state.pinv.normals[i])
                    state.pinv.null = None
                state.steps += 1
                state.emit("flip", neuron=state.pinv.owners[i], alpha=alpha)
                if state.steps >= opts.max_steps:
                    return state.finish(STEP_LIMIT)
            return row, alpha, i, descent_tol
    state.emit("certify", alpha=alpha)
    return state.finish(LOCAL_MINIMUM)


def certify_point(net: ReluNetwork, x) -> tuple:
    """(walls, bits, derivatives, certified): x's vertex priced as certify_local_min prices it.

    Each wall through x takes the bit of an exactly zero argument, not its roundoff sign.  Column k
    of derivatives is wall k's two edge derivatives, inside x's region and across it; off the walls'
    span f must not descend either.  Dependent walls give derivatives None and certified False.
    """
    x = start_point(net, x, "x")
    s = activation_pattern(net, x)
    walls = critical_indices(net, s, x)[0]
    s[walls] = np.concatenate([np.zeros(net.offsets[-2], dtype=bool), net.two_slope])[walls]
    walls, normals = critical_indices(net, s, x)
    try:
        pinv = dense_pseudoinverse(normals, walls)
    except Degenerate:
        return walls, s[walls], None, False
    grad = gradient(net, s)
    tol = DESCENT_TOL * (1.0 + np.linalg.norm(grad))
    vals = axis_derivatives(pinv, grad, *crossing_terms(net, s, walls))[1].reshape(2, -1)
    free = np.linalg.norm(grad - project(pinv, grad))
    return walls, s[walls], vals, bool((pinv.m == net.input_dim or free <= tol) and vals.min(initial=0.0) >= -tol)


def _pivot_loop(state: SolverState) -> SolveOutcome:
    net = state.net
    terms = crossing_terms(net, state.s, state.pinv.owners)
    while True:
        if isinstance(edge := certify_local_min(state, gradient(net, state.s), terms), SolveOutcome):
            return edge
        row, alpha, i, descent_tol = edge
        owners = state.pinv.owners      # all ignored this advance, the leaving owner i too
        others = owners[:i] + owners[i + 1:]
        v = row / math.sqrt(row @ row)
        # long step: pass every last-layer wall while f still descends
        res = advance_max(net, state.x, v, state.s, owners, slope=alpha, slope_tol=descent_tol)
        state.steps += 1
        if not res.bounded:
            return state.finish(UNBOUNDED, direction=v)
        if res.t <= -STEP_ACCEPT_TOL:
            xscale = 1.0 + float(np.max(np.abs(state.x)))
            if res.t < -RESYNC_TOL * xscale:
                return state.finish(NON_REGULAR, neurons=[res.neuron])
            # a negative crossing step means the bit for res.neuron claims
            # the wrong side of its wall (roundoff left x marginally past
            # it).  Flip the bit to match the geometry and rebuild, with
            # owner i last; x and f are untouched.
            state.s = flip(state.s, res.neuron)
            state.pinv.owners = others + [owners[i]]    # the rebuild reads only these
            try:
                refresh_pseudoinverse(state)
            except Degenerate:
                return state.finish(NON_REGULAR, neurons=[res.neuron, owners[i]])
            state.emit("resync", neuron=res.neuron, t=res.t)
            position_correction(state)
            terms = crossing_terms(net, state.s, state.pinv.owners)
            continue
        state.x = state.x + res.t * v
        c = res.neuron
        state.emit("pivot", neuron=c, t=res.t, alpha=alpha, crossed=res.crossed.size, step=res)
        # crossed units sit in the last hidden layer and are not owners, so their bits
        # enter neither c's normal nor any tracked one; terms price the next vertex too
        state.s = flip(state.s, np.append(res.crossed, c))
        terms = crossing_terms(net, state.s, others + [c])
        try:        # the exchange leaves owners others + [c], which the rebuild keeps
            state.pinv = exchange_axis(state.pinv, i, oriented_normal(net, state.s, c), c, terms[1][:, -1])
            # c and the crossed walls changed no argument at x, so the step's are the owners'
            resid = position_correction(state, res.at(res.t, state.pinv.owners))
            # the rank-one updates compound near tight vertices; rebuild
            # from the owners as soon as their walls drift
            if resid > DRIFT_REFRESH_TOL * (1.0 + float(abs(state.x).max())):
                refresh_pseudoinverse(state)
                position_correction(state)
        except Degenerate:
            return state.finish(NON_REGULAR, neurons=others + [c])


# ---------------------------------------------------------------------------
# quadratic add-on objective


@dataclass
class QuadraticObjective:
    """q(x) = x' quad x + lin . x + const, minimized jointly with the network; read-only quad, lin and hess."""

    quad: np.ndarray
    lin: np.ndarray
    const: float = 0.0
    hess: np.ndarray = field(init=False, repr=False)     # quad + quad.T, formed once

    def __post_init__(self):
        self.quad = np.array(self.quad, dtype=np.float64)
        self.lin = np.array(self.lin, dtype=np.float64)
        if self.quad.ndim != 2 or self.quad.shape[0] != self.quad.shape[1]:
            raise ValueError(f"quad must be a square matrix; got shape {self.quad.shape}")
        if self.lin.shape != self.quad.shape[:1]:
            raise ValueError(f"lin must have shape {self.quad.shape[:1]} to match quad {self.quad.shape}; "
                             f"got shape {self.lin.shape}")
        self.const = require_real("const", self.const)
        for name, a in (("quad", self.quad), ("lin", self.lin), ("const", np.asarray(self.const))):
            require_finite(name, a, "the quadratic objective must be finite")
        self.hess = self.quad + self.quad.T
        for a in (self.quad, self.lin, self.hess):
            a.setflags(write=False)

    def value(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        return float(x @ self.quad @ x + self.lin @ x + self.const)

    def grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return self.hess @ x + self.lin


def parabola_step(a: float, b: float, t_max: float) -> float:
    """Minimizer of a t^2 + b t over [0, t_max]; t_max when not strictly convex."""
    if a > 0.0:
        return float(min(max(-b / (2.0 * a), 0.0), t_max))
    return float(t_max)


def _sync(basis: PseudoInverse, walls: np.ndarray, unit) -> PseudoInverse:
    """basis over the ascending walls, whose unit normals are their rows of unit; owners are flat units.

    Held rows must match unit: solve_quadratic applies each flip to the face
    where it decides it.  The basis is kept while it has Z and every wall it
    holds is still listed; it holds no wall itself (the start QR, NNLS and a
    bend do).  Otherwise (no face yet, a drifted or bent one, or a held wall
    that left) one complete QR builds it and its Z, or, for dependent walls,
    the empty face with Z = I, from which NNLS holds what the projection needs.
    """
    if basis.null is not None and set(walls.tolist()).issuperset(basis.owners):
        return basis
    try:
        return dense_pseudoinverse(unit[walls], walls.tolist(), True)     # with Z
    except Degenerate:
        return PseudoInverse(unit[:0], unit[:0], [], np.eye(unit.shape[1]))


def _unit_terms(net: ReluNetwork, s: np.ndarray, walls, norms) -> tuple:
    """crossing_terms of walls for rows over their unit normals: gains_k |n_k| and bend_jk |n_k|/|n_j|."""
    gains, bend = crossing_terms(net, s, walls)
    n = norms[walls]
    return gains * n, bend * n / n[:, None]


def _steps(v, g) -> bool:
    """Whether solve_quadratic steps from a projection v of -g; if not, it certifies x."""
    return math.sqrt(v @ v) > STEP_TOL * (1.0 + math.sqrt(g @ g))


def _feasible_direction(g, unit, walls, basis, hess, convex):
    """Projection v of -g onto the tangent cone {d : unit[walls] @ d >= 0}, and a face step d.

    The basis is synced to the ascending walls, whose unit normals are
    their rows of unit (``_sync``: kept or rebuilt), then Lawson & Hanson's
    NNLS (1974) runs to the exact projection by rank-one releases and holds,
    mu = P g and v = A' mu - g.  From the synced face, every negative
    multiplier is released at once until none is; then the wall v violates
    most is held and the multipliers move toward the new ones until the
    first zero is released.  d is the face's Newton step Z (Z'HZ)^-1 Z'v,
    H = hess, over the face's k free directions Z, a k x k Cholesky test
    (skipped if convex) and solve, unless it fails, ascends or leaves the
    cone; then d is v; where no step is taken (``_steps``), no system is
    formed and d is v.  Returns (v, d, the face's basis, empty and without
    Z if its walls drifted or if Z did along the Newton step, then d is v).
    """
    basis, rows = _sync(basis, walls, unit), unit[walls]
    gnorm = math.sqrt(g @ g)
    mu, drift = None, False     # mu: multipliers of the last working set with none negative
    for _ in range(4 * walls.size + 1):     # bounds cycling by roundoff
        held = np.array(basis.owners, dtype=np.intp)
        lam = basis.matrix @ g
        v = basis.normals.T @ lam - g
        if (release := lam < -RELEASE_TOL * (1.0 + gnorm)).any():
            if mu is not None:
                old = mu[held]
                ratio = np.full(held.size, np.inf)
                ratio[release] = old[release] / (old[release] - lam[release])
                mu[held] = old + ratio.min() * (lam - old)
                release = (ratio <= ratio.min()) | (mu[held] <= 0.0)
            for i in release.nonzero()[0][::-1]:
                basis = remove_pseudorow(basis, i)
        else:
            mu = np.zeros(len(unit))
            mu[held] = np.maximum(lam, 0.0)
            slack = np.full(len(unit), np.inf)     # only walls bound the cone
            slack[walls] = rows @ v
            # held walls' slack is 0 while P A' = I
            drift = np.abs(slack[held]).max(initial=0.0) > DRIFT_REFRESH_TOL * (1.0 + gnorm)
            slack[held] = 0.0
            if not walls.size or slack.min() >= -1e-12 * math.sqrt(v @ v):
                break
            try:
                basis = add_axis(basis, unit[j := int(np.argmin(slack))], j)
            except Degenerate:
                break
    face = PseudoInverse.empty(len(g)) if drift else basis
    if (z := basis.null).shape[1] and _steps(v, g):
        zhz = z.T @ hess @ z
        try:
            convex or np.linalg.cholesky(zhz)         # raises unless positive definite
            newton = z @ np.linalg.solve(zhz, z.T @ v)      # may still find zhz singular by roundoff
        except np.linalg.LinAlgError:
            return v, v, face
        size = math.sqrt(newton @ newton)
        # held walls' slack along Z is 0 while A Z = 0; past the tolerance Z has drifted off the face
        if np.abs(basis.normals @ newton).max(initial=0.0) > DRIFT_REFRESH_TOL * size:
            return v, v, PseudoInverse.empty(len(g))
        if newton @ g < 0.0 and (rows @ newton >= -1e-12 * size).all():
            return v, newton, face
    return v, v, face


def solve_quadratic(net: ReluNetwork, q: QuadraticObjective, x0,
                    options: SolverOptions | None = None,
                    pairs: PairGroups = PairGroups()) -> SolveOutcome:
    """Minimize network + quadratic by sliding along active walls.

    An active-set Newton method with exact line search on each segment.
    The negative combined gradient is projected onto the tangent cone of
    the walls x sits on; the walls whose multipliers stay nonnegative form
    the face, and the step follows the Newton direction of the quadratic
    restricted to that face (the projected gradient when the face's
    curvature is not positive definite).  Steps stop at the first new wall
    or at the segment parabola's vertex.  A step stopped by a wall it alone
    meets bends there, as in the projected searches of Bertsekas (1982) and
    More & Toraldo (1991): it holds the wall and goes on along its direction
    projected onto the grown face, Z Z'v, while that descends; each bend is
    a step and a pivot record, with no new projection or Newton solve.

    When the projection vanishes, certify_local_min prices x's 2m edges on
    the face itself, state.pinv, which must hold every active wall: one
    dense QR rebuilds it when NNLS left one out, and dependent walls end
    NonRegular there.  Its rows are over unit normals, so the crossing terms
    are scaled to them (``_unit_terms``).  A crossing edge descends iff its
    multiplier mu_k on the unit normal exceeds the BVLS bound
    |n_k| (D_k - sum_j B_jk mu_j/|n_j|) (Stark & Parker 1995); the steepest
    one is flipped in the face, one step, and the descent goes on across
    it.  With none, x is a local minimum.  Independent walls through x0 are
    priced so once before the first step, and x0 takes the far side of
    every last-layer wall whose crossing edge descends more steeply than
    its inside edge, as the LASSO homotopy picks its signs (Osborne,
    Presnell & Turlach 2000): no step and no record.  The other walls whose
    multipliers NNLS keeps are the first face, one QR.  Only that QR, NNLS
    and a bend hold walls; a face without Z (none yet, drifted, or bent by
    a flip) or with a held wall that left is rebuilt by the next sync.
    Like drlsimplex, it runs on ``pairs.fold(net)`` and names its units.
    """
    net = pairs.fold(net)
    if q.lin.shape != (net.input_dim,):
        raise ValueError(f"lin has shape {q.lin.shape} but the network takes shape ({net.input_dim},)")
    opts = options or SolverOptions()
    x = start_point(net, x0)
    state = SolverState(net=net, x=x, s=activation_pattern(net, x), pinv=PseudoInverse.empty(net.input_dim),
                        options=opts, objective=q)
    try:        # positive definite curvature makes every face's Z'HZ so too
        convex = np.linalg.cholesky(q.hess) is not None
    except np.linalg.LinAlgError:
        convex = False
    out = pattern = None
    while not isinstance(out, SolveOutcome):     # past a certify_local_min edge, descend on
        if state.steps >= opts.max_steps:
            return state.finish(STEP_LIMIT)
        if state.s is not pattern:      # at the start and after a flip: the wall table
            if pattern is not None and (flipped := (state.s != pattern).nonzero()[0]).min() >= net.offsets[-2]:
                unit[flipped] *= -1.0       # a last-layer flip negates its walls' rows and moves no wall
            else:
                normals = normal_matrices(net, state.s) * np.where(state.s == 1, 1.0, -1.0)[:, None]    # oriented
                norms = np.sqrt(np.einsum("ij,ij->i", normals, normals))    # the rows' scale, as critical_indices'
                unit = normals / np.where(norms > 0.0, norms, 1.0)[:, None]     # a zero normal is no wall
                active = on_walls(subjective_arguments(net, state.s, state.x), norms)
            pattern, grad = state.s, gradient(net, state.s)
        g = grad + q.grad(state.x)
        if not state.steps and state.pinv.null is None and active.size:    # x0 on walls, no face yet: priced once
            with contextlib.suppress(Degenerate):       # dependent walls keep activation_pattern's side
                priced = dense_pseudoinverse(unit[active], active.tolist())
                vals = axis_derivatives(priced, g, *_unit_terms(net, state.s, active, norms))[1].reshape(2, -1)
                turn = ((vals[1] < -DESCENT_TOL * (1.0 + math.sqrt(g @ g))) & (vals[1] < vals[0])
                        & (active >= net.offsets[-2]))     # an earlier layer's flip bends other walls
                # the first face: the walls NNLS keeps; a last-layer turn moves no other wall's mu
                face = active[~turn & (priced.matrix @ g >= -RELEASE_TOL * (1.0 + math.sqrt(g @ g)))]
                state.pinv = dense_pseudoinverse(unit[face], face.tolist(), True)
                if turn.any():       # a side, not a step: x, steps and the trace stay
                    state.s = flip(state.s, active[turn])
                    continue
        v, d, state.pinv = _feasible_direction(g, unit, active, state.pinv, q.hess, convex)
        if _steps(v, g):
            v = d / math.sqrt(d @ d)
            while True:     # a step, then a bend at each stop wall while the face's projection of v descends
                res = advance_max(net, state.x, v, state.s, active)
                state.steps += 1
                a = float(v @ q.quad @ v)      # curvature of t -> q(x + t v)
                slope = float(v @ g)
                t_max = max(res.t, 0.0) if res.bounded else float("inf")
                t = parabola_step(a, slope, t_max)
                if not np.isfinite(t) or t > _HUGE_T:
                    return state.finish(UNBOUNDED, direction=v)
                state.x, args = state.x + t * v, res.at(t)      # the step flips no bit
                state.emit("pivot", neuron=res.neuron if t == t_max else None, t=t, alpha=slope,
                           crossed=0, step=res)
                active = on_walls(args, norms)
                # bend: the stop wall alone joins the face
                if (t != t_max or state.steps >= opts.max_steps or state.pinv.null is None
                        or not state.pinv.null.shape[1] or set(active.tolist()) != {*state.pinv.owners, res.neuron}):
                    break
                try:
                    state.pinv = add_axis(state.pinv, unit[res.neuron], res.neuron)
                except Degenerate:
                    break
                w, g = state.pinv.null @ (state.pinv.null.T @ v), grad + q.grad(state.x)
                size = math.sqrt(w @ w)
                if np.abs(state.pinv.normals @ w).max() > DRIFT_REFRESH_TOL * size:
                    state.pinv = PseudoInverse.empty(net.input_dim)    # Z drifted off the face: the next sync rebuilds
                    break
                if w @ g >= -DESCENT_TOL * (1.0 + math.sqrt(g @ g)) * size:
                    break
                v = w / size
        else:
            if state.pinv.m < active.size:      # NNLS left an active wall out: certify on all of them
                try:
                    state.pinv = dense_pseudoinverse(unit[active], active.tolist(), True)
                except Degenerate:
                    return state.finish(NON_REGULAR, neurons=active)
            # a flip changes the face in place; one that bends held walls drops its Z
            out = certify_local_min(state, g, _unit_terms(net, state.s, state.pinv.owners, norms))
    return out
